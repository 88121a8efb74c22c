"""Incremental projections (:mod:`repro.cme.expansion`).

The load-bearing property: for ANY projection Ω, the assembled matrix
is the exact principal submatrix ``A[Ω, Ω]`` of the full generator with
column sums ``-outflow`` — and a closed projection reproduces
:func:`repro.cme.ratematrix.build_rate_matrix` bit-for-bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cme import (
    ProjectionAssembler,
    StateSpace,
    build_rate_matrix,
    enumerate_state_space,
    initial_projection,
)
from repro.cme.models import toggle_switch
from repro.cme.models.phage_lambda import phage_lambda
from repro.errors import StateSpaceOverflowError, ValidationError
from tests.cme.test_random_networks_property import random_networks


@pytest.fixture(scope="module")
def network():
    return toggle_switch(max_protein=8)


@pytest.fixture(scope="module")
def full(network):
    return enumerate_state_space(network)


class TestInitialProjection:
    def test_ball_contains_initial_state(self, network):
        seed = initial_projection(network, size=30)
        assert seed.size == 30
        assert seed.contains(np.asarray(network.initial_state))
        # BFS from one seed never repeats a state.
        assert len({tuple(s) for s in seed.states}) == seed.size

    def test_oversized_request_closes_on_reachable_space(self, network,
                                                         full):
        seed = initial_projection(network, size=10 * full.size)
        assert seed.size == full.size

    def test_bad_arguments(self, network):
        with pytest.raises(ValidationError):
            initial_projection(network, size=0)
        with pytest.raises(ValidationError):
            initial_projection(network, size=5, initial_state=[1, 2, 3])
        with pytest.raises(ValidationError):
            initial_projection(network, size=5, initial_state=[999, 0])

    def test_non_integral_initial_state(self, network):
        with pytest.raises(ValidationError, match="integral"):
            initial_projection(network, size=5, initial_state=[1.7, 0.2])

    def test_integral_float_initial_state(self, network):
        seed = initial_projection(network, size=12, initial_state=[3.0, 2.0])
        assert seed.states[0].tolist() == [3, 2]
        assert np.array_equal(
            seed.states,
            initial_projection(network, size=12, initial_state=[3, 2]).states)


def loop_bfs(network, size, initial_state=None):
    """The one-state-at-a-time BFS over tuples and a set: the reference
    the layered ``initial_projection`` must reproduce state for state."""
    from repro.cme.statespace import initial_microstate
    x0 = tuple(initial_microstate(network, initial_state).tolist())
    bounds = network.max_counts
    seen, order, head = {x0}, [x0], 0
    while head < len(order) and len(order) < size:
        state = np.asarray(order[head])
        head += 1
        for k in range(network.n_reactions):
            if network.propensities.single(state, k) <= 0.0:
                continue
            succ = tuple(int(v) for v in state + network.stoichiometry[k])
            if any(v < 0 or v > int(bounds[i]) for i, v in enumerate(succ)):
                continue
            if succ not in seen:
                seen.add(succ)
                order.append(succ)
                if len(order) >= size:
                    break
    return np.array(order[:size], dtype=np.int64)


class TestLayeredBfs:
    @pytest.mark.parametrize("make,initial", [
        (lambda: toggle_switch(max_protein=8), None),
        (lambda: toggle_switch(max_protein=20), [3, 11]),
        (lambda: phage_lambda(max_monomer=6, max_dimer=3), None),
    ])
    @pytest.mark.parametrize("size", [1, 2, 7, 30, 64, 500, 10_000])
    def test_same_states_in_same_order_as_loop(self, make, initial, size):
        net = make()
        got = initial_projection(net, size=size, initial_state=initial)
        assert np.array_equal(got.states, loop_bfs(net, size, initial))

    @settings(max_examples=25, deadline=None)
    @given(random_networks(), st.integers(min_value=1, max_value=80))
    def test_random_networks_match_loop(self, net, size):
        got = initial_projection(net, size=size)
        assert np.array_equal(got.states, loop_bfs(net, size))


class TestAssemble:
    def test_closed_space_matches_build_rate_matrix(self, network, full):
        asm = ProjectionAssembler(network)
        A, w = asm.assemble(full)
        np.testing.assert_allclose(w, 0.0)
        diff = (A - build_rate_matrix(full))
        assert abs(diff).max() == 0.0

    def test_projection_is_principal_submatrix(self, network, full):
        A_full = build_rate_matrix(full)
        asm = ProjectionAssembler(network)
        idx = np.arange(0, full.size, 3)  # a strided, open projection
        sub = StateSpace(network=network, states=full.states[idx])
        A, w = asm.assemble(sub)
        expected = A_full[np.ix_(idx, idx)]
        np.testing.assert_allclose(A.toarray(), expected.toarray(),
                                   atol=1e-12)
        # Column sums equal -outflow: the diagonal keeps the full loss.
        colsums = np.asarray(A.sum(axis=0)).ravel()
        np.testing.assert_allclose(colsums, -w, atol=1e-12)
        assert w.max() > 0

    def test_incremental_no_reevaluation(self, network, full):
        asm = ProjectionAssembler(network)
        half = StateSpace(network=network,
                          states=full.states[:full.size // 2])
        asm.assemble(half)
        seen = asm.states_evaluated
        # Re-assembling any subset of already-seen states (including a
        # permutation) evaluates nothing new.
        perm = np.random.default_rng(0).permutation(half.size)
        asm.assemble(StateSpace(network=network,
                                states=half.states[perm]))
        assert asm.states_evaluated == seen
        # Growing to the full space pays only for the new states.
        asm.assemble(full)
        assert asm.states_evaluated <= full.size + seen - half.size

    def test_layout_guard(self, network):
        asm = ProjectionAssembler(network)
        other = enumerate_state_space(toggle_switch(max_protein=5))
        with pytest.raises(ValidationError):
            asm.assemble(other)


class TestFrontier:
    def test_frontier_is_one_step_outside(self, network, full):
        asm = ProjectionAssembler(network)
        seed = initial_projection(network, size=12)
        fr = asm.frontier(seed)
        assert fr.size > 0
        inside = {tuple(s) for s in seed.states}
        for state in fr.states:
            assert tuple(state) not in inside
        assert full.lookup(fr.states).min() >= 0  # all reachable/in-buffer
        # Every frontier state was reached FROM the projection, so its
        # influx is positive; inward rates are non-negative by definition.
        assert fr.influx.min() > 0
        assert fr.inward_rates.min() >= 0
        # Return rate is part of the state's total edge rate.
        assert np.all(fr.total_rates >= fr.inward_rates - 1e-15)
        assert fr.total_rates.min() > 0

    def test_weighted_influx_is_stationary_flux(self, network):
        asm = ProjectionAssembler(network)
        seed = initial_projection(network, size=12)
        weights = np.random.default_rng(1).random(seed.size)
        weights /= weights.sum()
        fr_unw = asm.frontier(seed)
        fr_w = asm.frontier(seed, weights=weights)
        assert fr_w.size == fr_unw.size
        # Total weighted influx equals the boundary flux w·ν.
        _, w = asm.assemble(seed)
        assert fr_w.influx.sum() == pytest.approx(float(w @ weights))

    def test_closed_space_has_empty_frontier(self, network, full):
        asm = ProjectionAssembler(network)
        fr = asm.frontier(full)
        assert fr.size == 0


class TestGrow:
    def test_grow_until_closed(self, network, full):
        asm = ProjectionAssembler(network)
        space = initial_projection(network, size=8)
        for _ in range(64):
            space, added = asm.grow(space, depth=2)
            if added == 0:
                break
        assert space.size == full.size
        _, w = asm.assemble(space)
        np.testing.assert_allclose(w, 0.0)

    def test_max_new_states_caps_by_influx(self, network):
        asm = ProjectionAssembler(network)
        space = initial_projection(network, size=12)
        weights = np.full(space.size, 1.0 / space.size)
        grown, added = asm.grow(space, depth=1, weights=weights,
                                max_new_states=3)
        assert added == 3
        assert grown.size == space.size + 3
        fr = asm.frontier(space, weights=weights)
        top = set(map(tuple, fr.states[np.argsort(-fr.influx)[:3]]))
        assert {tuple(s) for s in grown.states[space.size:]} <= \
            set(map(tuple, fr.states))
        assert len(top & {tuple(s) for s in grown.states[space.size:]}) == 3

    def test_overflow_guard(self, network):
        asm = ProjectionAssembler(network)
        space = initial_projection(network, size=12)
        with pytest.raises(StateSpaceOverflowError):
            asm.grow(space, depth=1, max_states=13)


class TestLargerModel:
    def test_phage_lambda_submatrix(self):
        net = phage_lambda(max_monomer=4, max_dimer=2)
        full = enumerate_state_space(net)
        A_full = build_rate_matrix(full)
        asm = ProjectionAssembler(net)
        idx = np.arange(full.size // 2)
        sub = StateSpace(network=net, states=full.states[idx])
        A, w = asm.assemble(sub)
        np.testing.assert_allclose(A.toarray(),
                                   A_full[np.ix_(idx, idx)].toarray(),
                                   atol=1e-12)
        np.testing.assert_allclose(np.asarray(A.sum(axis=0)).ravel(), -w,
                                   atol=1e-12)
