"""Tests for solve requests, cache keys and the job future."""

import threading

import pytest

from repro.cme.network import ReactionNetwork
from repro.cme.reaction import Reaction
from repro.cme.species import Species
from repro.errors import JobCancelledError, SolveJobError, ValidationError
from repro.serve import JobState, SolveJob, SolveRequest


def two_reaction_network(order=(0, 1)):
    reactions = [Reaction("birth", {}, {"X": 1}, 4.0),
                 Reaction("death", {"X": 1}, {}, 1.0)]
    return ReactionNetwork(
        [Species("X", max_count=10)],
        [reactions[i] for i in order], name="bd")


class TestCacheKey:
    def test_stable_across_calls(self, tiny_toggle_network):
        req = SolveRequest(tiny_toggle_network, {"degA": 1.5})
        assert req.cache_key() == req.cache_key()

    def test_override_dict_order_irrelevant(self, tiny_toggle_network):
        a = SolveRequest(tiny_toggle_network, {"degA": 1.5, "degB": 0.5})
        b = SolveRequest(tiny_toggle_network, {"degB": 0.5, "degA": 1.5})
        assert a.cache_key() == b.cache_key()

    def test_reaction_declaration_order_irrelevant(self):
        a = SolveRequest(two_reaction_network((0, 1)))
        b = SolveRequest(two_reaction_network((1, 0)))
        assert a.cache_key() == b.cache_key()

    def test_rates_distinguish(self, tiny_toggle_network):
        a = SolveRequest(tiny_toggle_network, {"degA": 1.0})
        b = SolveRequest(tiny_toggle_network, {"degA": 1.1})
        assert a.cache_key() != b.cache_key()

    def test_tolerance_distinguishes(self, tiny_toggle_network):
        a = SolveRequest(tiny_toggle_network, tol=1e-8)
        b = SolveRequest(tiny_toggle_network, tol=1e-10)
        assert a.cache_key() != b.cache_key()

    def test_solver_options_distinguish(self, tiny_toggle_network):
        a = SolveRequest(tiny_toggle_network,
                         solver_options={"damping": 0.8})
        b = SolveRequest(tiny_toggle_network,
                         solver_options={"damping": 0.9})
        c = SolveRequest(tiny_toggle_network,
                         solver_options={"damping": 0.8})
        assert a.cache_key() != b.cache_key()
        assert a.cache_key() == c.cache_key()


class TestValidation:
    def test_unknown_override(self, tiny_toggle_network):
        with pytest.raises(ValidationError, match="unknown"):
            SolveRequest(tiny_toggle_network, {"nope": 1.0})

    @pytest.mark.parametrize("name", ["synA", "synB", "bstA", "bstB"])
    def test_custom_propensity_override(self, tiny_toggle_network, name):
        """Two such requests would carry different cache keys for one
        system; the request refuses the override instead."""
        with pytest.raises(ValidationError, match="ignores rate"):
            SolveRequest(tiny_toggle_network, {name: 10.0})

    def test_nonpositive_override(self, tiny_toggle_network):
        with pytest.raises(ValidationError, match="positive"):
            SolveRequest(tiny_toggle_network, {"degA": 0.0})

    def test_nonpositive_tol(self, tiny_toggle_network):
        with pytest.raises(ValidationError, match="tol"):
            SolveRequest(tiny_toggle_network, tol=0.0)

    def test_unknown_solver_option(self, tiny_toggle_network):
        with pytest.raises(ValidationError, match="solver options"):
            SolveRequest(tiny_toggle_network,
                         solver_options={"dampign": 0.8})


class TestRateVector:
    def test_overrides_applied_in_reaction_order(self, tiny_toggle_network):
        req = SolveRequest(tiny_toggle_network, {"degA": 2.0})
        rates = req.rate_vector()
        names = [r.name for r in tiny_toggle_network.reactions]
        assert rates[names.index("degA")] == 2.0
        # Untouched reactions keep the base rates.
        base = tiny_toggle_network.rates
        for i, name in enumerate(names):
            if name != "degA":
                assert rates[i] == base[i]

    def test_varied_network_identity_without_overrides(
            self, tiny_toggle_network):
        req = SolveRequest(tiny_toggle_network)
        assert req.varied_network() is tiny_toggle_network


class TestSolveJob:
    def _job(self, tiny_toggle_network, **kwargs):
        return SolveJob(SolveRequest(tiny_toggle_network), job_id=1, **kwargs)

    def test_result_timeout(self, tiny_toggle_network):
        job = self._job(tiny_toggle_network)
        with pytest.raises(SolveJobError, match="not finished"):
            job.result(timeout=0.01)

    def test_cancel_only_pending(self, tiny_toggle_network):
        job = self._job(tiny_toggle_network)
        assert job.cancel()
        assert job.state is JobState.CANCELLED
        with pytest.raises(JobCancelledError):
            job.result(timeout=0.1)
        # A second cancel (and a late finish) are no-ops.
        assert not job.cancel()

    def test_running_job_cannot_cancel(self, tiny_toggle_network):
        job = self._job(tiny_toggle_network)
        assert job.mark_running()
        assert not job.cancel()
        assert job.state is JobState.RUNNING

    def test_result_unblocks_waiters(self, tiny_toggle_network):
        job = self._job(tiny_toggle_network)
        seen = []
        t = threading.Thread(
            target=lambda: seen.append(job.result(timeout=5.0)))
        t.start()
        job.finish(outcome="sentinel")
        t.join(timeout=5.0)
        assert seen == ["sentinel"]
        assert job.state is JobState.DONE

    def test_fail_surfaces_error(self, tiny_toggle_network):
        job = self._job(tiny_toggle_network)
        job.fail(SolveJobError("boom", key=job.key, attempts=2))
        with pytest.raises(SolveJobError, match="boom") as excinfo:
            job.result(timeout=0.1)
        assert excinfo.value.attempts == 2
        assert job.exception() is excinfo.value
