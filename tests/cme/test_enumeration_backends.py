"""The DFS state-space walk on every backend, and a reachability oracle.

``dfs_enumerate`` is a kernel-backend op: the ``numpy`` reference walks
in Python over tuples and a dict, the ``native`` backend in C over an
explicit stack and an open-addressing key table, pausing for Python to
grow its buffers and to evaluate gated propensities in batches.  The
two must return the same states in the same order, compared by exact
equality: on the four paper models at two sizes each, on random
networks, on a network whose gated reaction comes first (so the C walk
pauses at every new state), on a NaN gate, from custom initial states,
and through many buffer doublings.  Both must raise the same exception
type on a negative propensity, one state past ``max_states`` and a key
range of ``2**62`` or more.

Parity only shows that the walks agree with each other.  The oracle
builds the whole buffer box's transition graph in vectorised NumPy and
takes the set reachable from the initial state with SciPy's
breadth-first search; each backend's states must be exactly that set.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from scipy.sparse.csgraph import breadth_first_order

from repro import backends
from repro.backends import native
from repro.cme.models import toggle_switch
from repro.cme.models.brusselator import brusselator
from repro.cme.models.phage_lambda import phage_lambda
from repro.cme.models.schnakenberg import schnakenberg
from repro.cme.network import ReactionNetwork
from repro.cme.reaction import Reaction
from repro.cme.species import Species
from repro.cme.statespace import enumerate_state_space, key_radix
from repro.errors import (
    EnumerationError,
    StateSpaceOverflowError,
    ValidationError,
)
from tests.cme.test_random_networks_property import random_networks

pytestmark = pytest.mark.skipif(
    "native" not in backends.available_backends(),
    reason="native kernels do not build here")

BACKENDS = ("numpy", "native")

#: The four paper models at two sizes each (every box under 2,000
#: points, so the Python walk and the oracle stay quick).
PAPER_MODELS = {
    "toggle-8": lambda: toggle_switch(max_protein=8),
    "toggle-20": lambda: toggle_switch(max_protein=20),
    "phage-3-1": lambda: phage_lambda(max_monomer=3, max_dimer=1),
    "phage-4-2": lambda: phage_lambda(max_monomer=4, max_dimer=2),
    "brusselator-10": lambda: brusselator(max_x=10, max_y=10),
    "brusselator-30": lambda: brusselator(max_x=30, max_y=20),
    "schnakenberg-10": lambda: schnakenberg(max_x=10, max_y=10),
    "schnakenberg-30": lambda: schnakenberg(max_x=30, max_y=20),
}


def gated_first_network(calls=None):
    """Two species whose first reaction is gated (a custom propensity
    without ``strictly_positive``), so the C walk pauses at every new
    state.  The gate closes on a diagonal pattern, which cuts edges all
    over the box; *calls* collects the batch size of every gate call."""
    def gate(states, idx):
        if calls is not None:
            calls.append(states.shape[0])
        a, b = states[:, idx["A"]], states[:, idx["B"]]
        return np.where((a + 2 * b) % 5 != 3, 1.5, 0.0)

    return ReactionNetwork(
        [Species("A", 9), Species("B", 7)],
        [Reaction("gatedA", {}, {"A": 1}, 1.0, propensity_fn=gate),
         Reaction("degA", {"A": 1}, {}, 1.0),
         Reaction("convAB", {"A": 2}, {"B": 1}, 0.5),
         Reaction("degB", {"B": 1}, {}, 1.0)],
        name="gated-first")


def nan_gate_network():
    """A gate that is NaN on some states: ``NaN <= 0`` is false, so the
    edge stays, and the state space reaches past those states."""
    def gate(states, idx):
        x = states[:, idx["X"]].astype(np.float64)
        return np.where(x % 4 == 1, np.nan, np.where(x < 9, 1.0, 0.0))

    return ReactionNetwork(
        [Species("X", 14), Species("Y", 3)],
        [Reaction("up", {}, {"X": 1}, 1.0, propensity_fn=gate),
         Reaction("down", {"X": 1}, {}, 1.0),
         Reaction("make", {"X": 1}, {"X": 1, "Y": 1}, 0.3),
         Reaction("drop", {"Y": 1}, {}, 0.2)],
        name="nan-gate")


def negative_gate_network():
    """A custom propensity that turns negative at X = 4."""
    def gate(states, idx):
        x = states[:, idx["X"]]
        return np.where(x == 4, -1.0, 1.0)

    return ReactionNetwork(
        [Species("X", 8)],
        [Reaction("up", {}, {"X": 1}, 1.0, propensity_fn=gate),
         Reaction("down", {"X": 1}, {}, 1.0)],
        name="negative-gate")


def walk(name, network, **kwargs):
    with backends.use(name):
        return enumerate_state_space(network, **kwargs).states


def assert_same_walk(network, **kwargs):
    """Both backends' states, bitwise; returns the reference's."""
    ref = walk("numpy", network, **kwargs)
    got = walk("native", network, **kwargs)
    assert got.dtype == np.int64 and got.flags["C_CONTIGUOUS"]
    assert np.array_equal(got, ref)
    return ref


def assert_same_error(expected, network, **kwargs):
    for name in BACKENDS:
        with backends.use(name), pytest.raises(expected) as info:
            enumerate_state_space(network, **kwargs)
        assert info.type is expected, name


def reachable_keys(network, initial_state=None):
    """Sorted keys of the states reachable from the initial state over
    the whole buffer box's transition graph.  An edge ``x -> x + s_k``
    exists where ``x`` holds reaction k's reactants, the successor lies
    in the buffers and ``~(propensity <= 0)``; node ids are the
    states' mixed-radix keys, which number the box from 0."""
    bounds = network.max_counts
    radix = key_radix(bounds)
    grids = np.meshgrid(*[np.arange(b + 1) for b in bounds], indexing="ij")
    box = np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)
    keys = box @ radix
    src, dst = [], []
    for k in range(network.n_reactions):
        succ = box + network.stoichiometry[k]
        edge = (np.all(box >= network.reactant_counts[k], axis=1)
                & np.all((succ >= 0) & (succ <= bounds), axis=1)
                & ~(network.propensities.propensity(box, k) <= 0.0))
        src.append(keys[edge])
        dst.append(succ[edge] @ radix)
    src, dst = np.concatenate(src), np.concatenate(dst)
    graph = sp.csr_matrix((np.ones(src.size), (src, dst)),
                          shape=(box.shape[0],) * 2)
    x0 = (network.initial_state if initial_state is None
          else np.asarray(initial_state, dtype=np.int64))
    order = breadth_first_order(graph, int(x0 @ radix), directed=True,
                                return_predecessors=False)
    return np.sort(order.astype(np.int64))


def assert_matches_oracle(network, **kwargs):
    expected = reachable_keys(network, kwargs.get("initial_state"))
    radix = key_radix(network.max_counts)
    for name in BACKENDS:
        got = np.sort(walk(name, network, **kwargs) @ radix)
        assert np.array_equal(got, expected), name


@pytest.fixture
def first_rows_one(monkeypatch):
    """Start the native walk with a one-row order buffer, so it doubles
    at every power of two."""
    monkeypatch.setattr(native, "_DFS_FIRST_ROWS", 1)


class TestParity:
    @pytest.mark.parametrize("model", PAPER_MODELS)
    def test_paper_models(self, model):
        assert_same_walk(PAPER_MODELS[model]())

    def test_toggle_switch_gates_in_one_pause(self):
        """bstA/bstB come after four always-open reactions that reach
        the whole lattice, so the C walk pauses once and evaluates each
        gated reaction over every state in one call."""
        net = toggle_switch(max_protein=11)
        states = assert_same_walk(net)
        calls = []
        evaluate = net.propensities.propensity

        def counted(batch, k):
            calls.append((k, batch.shape[0]))
            return evaluate(batch, k)

        net.propensities.propensity = counted
        walk("native", net)
        assert calls == [(4, states.shape[0]), (5, states.shape[0])]

    def test_gated_first_reaction_pauses_at_every_state(self):
        states = assert_same_walk(gated_first_network())
        calls = []
        walk("native", gated_first_network(calls))
        assert calls == [1] * states.shape[0]

    def test_nan_gate_keeps_its_edge(self):
        states = assert_same_walk(nan_gate_network())
        assert states[:, 0].max() == 10  # up fires from X = 9 (NaN)

    @pytest.mark.parametrize("x0", [[5, 3], [5.0, 3.0], (12, 0)])
    def test_custom_initial_state(self, x0):
        assert_same_walk(toggle_switch(max_protein=12), initial_state=x0)

    def test_custom_initial_state_behind_a_gate(self):
        assert_same_walk(gated_first_network(), initial_state=[4, 6])

    def test_many_buffer_doublings(self, first_rows_one):
        for net in (phage_lambda(max_monomer=4, max_dimer=2),
                    gated_first_network(), toggle_switch(max_protein=15)):
            assert_same_walk(net)

    def test_doublings_from_the_default_buffer(self):
        states = assert_same_walk(phage_lambda(max_monomer=6, max_dimer=3))
        assert states.shape[0] > 2 * native._DFS_FIRST_ROWS


@settings(max_examples=25, deadline=None)
@given(random_networks())
def test_random_networks_walk_alike(network):
    assert_same_walk(network)


def test_concurrent_walks_are_independent(first_rows_one):
    """The C walk keeps no state of its own and runs without the GIL,
    so walks in several threads (more than the cores), pausing for
    growth and gates, each return their serial result."""
    makes = [gated_first_network, nan_gate_network,
             lambda: toggle_switch(max_protein=14),
             lambda: phage_lambda(max_monomer=4, max_dimer=2)] * 3
    expected = [walk("numpy", make()) for make in makes]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(walk, "native", make()) for make in makes]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for ref, states in zip(expected, got):
        assert np.array_equal(states, ref)


class TestErrors:
    def test_negative_propensity(self):
        assert_same_error(ValidationError, negative_gate_network())

    @pytest.mark.parametrize("make", [
        lambda: toggle_switch(max_protein=10),
        lambda: phage_lambda(max_monomer=4, max_dimer=2),
        gated_first_network,
    ])
    def test_max_states_is_inclusive(self, make, first_rows_one):
        n = walk("numpy", make()).shape[0]
        assert_same_walk(make(), max_states=n)
        assert_same_error(StateSpaceOverflowError, make(), max_states=n - 1)

    @pytest.mark.parametrize("n_species", [62, 63])
    def test_key_range_checked_before_the_walk(self, n_species):
        """A box of 2**62 points or more: both backends raise before
        the walk, so the gate is never evaluated."""
        calls = []

        def gate(states, idx):
            calls.append(states.shape[0])
            return np.ones(states.shape[0])

        net = ReactionNetwork(
            [Species(f"S{i}", 1) for i in range(n_species)],
            [Reaction("on", {}, {"S0": 1}, 1.0, propensity_fn=gate),
             Reaction("off", {"S0": 1}, {}, 1.0)])
        assert_same_error(EnumerationError, net)
        assert calls == []


class TestReachabilityOracle:
    @pytest.mark.parametrize("model", PAPER_MODELS)
    def test_paper_models(self, model):
        assert_matches_oracle(PAPER_MODELS[model]())

    def test_gated_networks(self):
        assert_matches_oracle(gated_first_network())
        assert_matches_oracle(gated_first_network(), initial_state=[4, 6])
        assert_matches_oracle(nan_gate_network())

    @settings(max_examples=25, deadline=None)
    @given(random_networks())
    def test_random_networks(self, network):
        assert_matches_oracle(network)
