"""The adaptive FSP projection loop (:mod:`repro.fsp`)."""

import numpy as np
import pytest

from repro.cme import enumerate_state_space
from repro.cme.models import toggle_switch
from repro.cme.models.phage_lambda import phage_lambda
from repro.errors import ValidationError
from repro.fsp import AdaptiveFspController
from repro.telemetry.metrics import get_registry


@pytest.fixture(scope="module")
def network():
    return toggle_switch(max_protein=10)


@pytest.fixture(scope="module")
def certified(network):
    controller = AdaptiveFspController(network, fsp_tol=1e-4,
                                       initial_size=16)
    return controller.solve()


class TestLoop:
    def test_certifies_within_tolerance(self, certified):
        assert certified.converged
        assert certified.reason in ("certified", "closed")
        assert certified.truncation_mass <= 1e-4
        assert certified.x.sum() == pytest.approx(1.0)
        assert certified.x.min() >= 0.0
        assert len(certified.rounds) >= 1

    def test_projection_grows_monotonically_enough(self, certified):
        sizes = [r.states for r in certified.rounds]
        assert sizes[0] == 16
        assert sizes[-1] >= sizes[0]

    def test_bound_hits_zero_when_projection_closes(self):
        # A seed covering the whole reachable space closes immediately:
        # no outflow, certificate exactly 0.
        net = toggle_switch(max_protein=4)
        full = enumerate_state_space(net)
        controller = AdaptiveFspController(net, fsp_tol=1e-6,
                                           initial_size=full.size)
        result = controller.solve()
        assert result.converged
        assert result.reason == "closed"
        assert result.truncation_mass == 0.0
        assert result.space.size == full.size

    def test_matches_full_solution_on_projection(self, network, certified):
        # Against the exact stationary distribution (a sparse direct
        # solve), conditioned on the projection; measured 6.3e-9.
        from tests.fsp.test_oracle import conditioned_oracle
        cond = conditioned_oracle(network, certified.space)
        assert np.abs(certified.x - cond).max() < 1e-6

    def test_warm_start_reduces_late_round_work(self, certified):
        # Late rounds start from the previous projection's solution; at
        # minimum they must not restart from scratch every round.  The
        # final round's iterations should be well under the first
        # solved round's on this easy model.
        its = [r.iterations for r in certified.rounds]
        if len(its) >= 3:
            assert its[-1] <= max(its)


class TestSinkSystem:
    @pytest.mark.parametrize("grow_rounds", [0, 2])
    def test_direct_csr_equals_block_assembly(self, network, grow_rounds):
        """The sink row and return column written into A's CSR arrays
        match SciPy's block assembly of the same system bitwise."""
        import scipy.sparse as sp
        from repro.cme import ProjectionAssembler, initial_projection
        from repro.sparse.base import as_csr
        asm = ProjectionAssembler(network)
        space = initial_projection(network, size=20)
        for _ in range(grow_rounds):
            space, _ = asm.grow(space, depth=1)
        A, w = asm.assemble(space)
        n, kappa = space.size, float(np.abs(A.diagonal()).max())
        for redirect in (0, n // 2, n - 1):
            col = np.zeros((n, 1))
            col[redirect, 0] = kappa
            want = as_csr(sp.bmat(
                [[A, col], [sp.csr_matrix(w[None, :]), [[-kappa]]]],
                format="csr"))
            got = AdaptiveFspController._with_sink(A, w, kappa, redirect)
            assert got.shape == want.shape == (n + 1, n + 1)
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, attr),
                                      getattr(want, attr)), attr


class TestResultSurface:
    def test_payload_fields(self, certified):
        payload = certified.payload()
        assert payload["method"] == "fsp"
        assert payload["truncation_mass"] == certified.truncation_mass
        assert payload["final_states"] == certified.space.size
        assert payload["rounds"] == len(certified.rounds)
        assert payload["projection_sizes"] == \
            [r.states for r in certified.rounds]
        assert len(payload["bounds"]) == len(certified.rounds)


class TestBudgetsAndValidation:
    def test_time_budget_reports_timed_out(self, network):
        controller = AdaptiveFspController(network, fsp_tol=1e-12,
                                           initial_size=4,
                                           expand_depth=1)
        result = controller.solve(time_budget_s=1e-3)
        assert not result.converged
        assert result.reason == "timed_out"

    def test_max_rounds_reports_uncertified(self, network):
        controller = AdaptiveFspController(network, fsp_tol=1e-12,
                                           initial_size=4, max_rounds=2,
                                           expand_depth=1)
        result = controller.solve()
        assert not result.converged
        assert len(result.rounds) <= 2

    def test_bad_arguments(self, network):
        with pytest.raises(ValidationError):
            AdaptiveFspController(network, method="nope")
        with pytest.raises(ValidationError):
            AdaptiveFspController(network, fsp_tol=0.0)
        with pytest.raises(ValidationError):
            AdaptiveFspController(network, safety=0.5)
        with pytest.raises(ValidationError):
            AdaptiveFspController(network, max_rounds=0)
        with pytest.raises(ValidationError):
            AdaptiveFspController(network, prune_mass=-1e-3)
        controller = AdaptiveFspController(network)
        with pytest.raises(ValidationError):
            controller.solve(time_budget_s=0.0)


class TestTelemetry:
    def test_counters_advance(self, network):
        registry = get_registry()
        rounds = registry.counter("fsp_rounds_total", "")
        before = rounds.value
        AdaptiveFspController(network, fsp_tol=1e-3,
                              initial_size=16).solve()
        assert rounds.value > before


class TestPhageLambda:
    def test_small_phage_certifies_below_full(self):
        net = phage_lambda(max_monomer=6, max_dimer=3)
        full = enumerate_state_space(net)
        controller = AdaptiveFspController(net, fsp_tol=1e-3,
                                           initial_size=64)
        result = controller.solve()
        assert result.converged
        assert result.truncation_mass <= 1e-3
        assert result.space.size < full.size
