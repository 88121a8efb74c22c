"""Scaling gate for the domain-decomposed Jacobi solver.

The shard pool exists to use more cores than one process can, so
4-shard scaling must reach 1.5x the 1-shard wall time on
one prebuilt toggle-switch system (n = 576, a fixed budget of 80
sweeps).  Each time covers the whole ``solve()``: pool start, the
sweeps and shutdown.  With fewer CPUs than shards the ratio measures
the host, not the solver, so the gate is skipped there.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.cme import build_rate_matrix, enumerate_state_space
from repro.cme.models import toggle_switch
from repro.distributed import ShardedJacobiSolver

CPUS = os.cpu_count() or 1


@pytest.mark.skipif(CPUS < 4, reason=f"4-shard scaling needs at least 4 "
                                     f"CPUs; this host has {CPUS}")
def test_four_barrier_shards_scale_over_one():
    A = build_rate_matrix(enumerate_state_space(
        toggle_switch(max_protein=23)))
    sweeps = 80
    seconds = {}
    for shards in (1, 4):
        solver = ShardedJacobiSolver(
            A, shards=shards, tol=1e-300,
            max_iterations=sweeps, stagnation_tol=None,
            check_interval=sweeps)
        t0 = time.perf_counter()
        result = solver.solve()
        seconds[shards] = time.perf_counter() - t0
        assert result.iterations == sweeps
    speedup = seconds[1] / seconds[4]
    assert speedup >= 1.5, seconds
