"""Unit + property tests for the DFS state-space enumeration."""

import itertools

import numpy as np
import pytest

from repro import backends
from repro.backends.reference import lookup_keys
from repro.cme.network import ReactionNetwork
from repro.cme.reaction import Reaction
from repro.cme.species import Species
from repro.cme.models import toggle_switch
from repro.cme.statespace import StateSpace, enumerate_state_space
from repro.errors import (
    EnumerationError,
    StateSpaceOverflowError,
    ValidationError,
)


def brute_force_reachable(network):
    """Reference reachability by fixpoint iteration over the full lattice."""
    bounds = network.max_counts
    reachable = {tuple(network.initial_state)}
    frontier = list(reachable)
    while frontier:
        state = frontier.pop()
        arr = np.array(state)[None, :]
        for k in range(network.n_reactions):
            if network.propensities.propensity(arr, k)[0] <= 0:
                continue
            succ = tuple(np.array(state) + network.stoichiometry[k])
            if any(v < 0 or v > bounds[i] for i, v in enumerate(succ)):
                continue
            if succ not in reachable:
                reachable.add(succ)
                frontier.append(succ)
    return reachable


class TestCompleteness:
    def test_birth_death_full_chain(self, birth_death_space):
        assert birth_death_space.size == 31
        counts = birth_death_space.species_column("X")
        assert sorted(counts.tolist()) == list(range(31))

    def test_matches_brute_force(self, tiny_toggle_network):
        space = enumerate_state_space(tiny_toggle_network)
        expected = brute_force_reachable(tiny_toggle_network)
        got = {tuple(s) for s in space.states}
        assert got == expected

    def test_conserved_quantity_respected(self):
        """A closed A <-> B system stays on its conservation surface."""
        net = ReactionNetwork(
            [Species("A", 6, initial_count=4), Species("B", 6)],
            [Reaction("fwd", {"A": 1}, {"B": 1}, 1.0),
             Reaction("rev", {"B": 1}, {"A": 1}, 1.0)])
        space = enumerate_state_space(net)
        assert space.size == 5
        assert (space.states.sum(axis=1) == 4).all()

    def test_buffer_blocks_growth(self):
        net = ReactionNetwork(
            [Species("X", 3)],
            [Reaction("up", {}, {"X": 2}, 1.0),
             Reaction("down", {"X": 1}, {}, 1.0)])
        space = enumerate_state_space(net)
        # +2 steps from 0: {0,2}; down fills odd values {1,3}... check closure.
        got = sorted(space.states[:, 0].tolist())
        assert got == [0, 1, 2, 3]


class TestDfsOrder:
    def test_first_reaction_chains(self, birth_death_space):
        """Birth first in reaction order -> states enumerated 0,1,2,..."""
        counts = birth_death_space.species_column("X")
        assert counts.tolist() == list(range(31))

    def test_band_from_reversible_chain(self, birth_death_matrix):
        """The DFS chain makes all off-diagonals land at ±1."""
        coo = birth_death_matrix.tocoo()
        offsets = coo.col - coo.row
        assert set(offsets.tolist()) <= {-1, 0, 1}


class TestLookup:
    def test_roundtrip(self, tiny_toggle_space):
        space = tiny_toggle_space
        idx = space.lookup(space.states)
        assert (idx == np.arange(space.size)).all()

    def test_absent_state(self, birth_death_space):
        assert not birth_death_space.contains([31])
        assert birth_death_space.lookup(np.array([[31]]))[0] == -1

    def test_index_of_raises(self, birth_death_space):
        with pytest.raises(ValidationError):
            birth_death_space.index_of([999])

    def test_empty_space_finds_nothing(self):
        space = StateSpace(network=toggle_switch(max_protein=5),
                           states=np.empty((0, 2), np.int64))
        assert space.lookup([[0, 0]]).tolist() == [-1]
        assert not space.contains([3, 1])

    @pytest.mark.parametrize("backend", backends.available_backends())
    def test_duplicate_states_raise(self, backend):
        with backends.use(backend), pytest.raises(EnumerationError,
                                                  match="duplicate"):
            StateSpace(network=toggle_switch(max_protein=5),
                       states=np.array([[1, 2], [0, 0], [1, 2]]))

    def test_negative_states_raise(self):
        with pytest.raises(ValidationError, match="non-negative"):
            StateSpace(network=toggle_switch(max_protein=5),
                       states=np.array([[1, 2], [-1, 0]]))

    def test_empty_key_table(self):
        empty = np.empty(0, dtype=np.int64)
        got = lookup_keys(empty, empty, np.array([0, 7, 3]))
        assert got.dtype == np.int64 and got.tolist() == [-1, -1, -1]


class TestGuards:
    def test_overflow_cap(self, tiny_toggle_network):
        with pytest.raises(StateSpaceOverflowError):
            enumerate_state_space(tiny_toggle_network, max_states=10)

    def test_bad_initial_state(self, birth_death_network):
        with pytest.raises(ValidationError):
            enumerate_state_space(birth_death_network, initial_state=[99])
        with pytest.raises(ValidationError):
            enumerate_state_space(birth_death_network, initial_state=[1, 2])

    def test_custom_initial_state(self, birth_death_network):
        space = enumerate_state_space(birth_death_network,
                                      initial_state=[5])
        assert space.contains([0]) and space.contains([30])

    @pytest.mark.parametrize("cap", [0, -5, 2.5, None])
    def test_max_states_must_be_a_positive_integer(self, birth_death_network,
                                                   cap):
        with pytest.raises(ValidationError, match="max_states"):
            enumerate_state_space(birth_death_network, max_states=cap)

    def test_integral_float_max_states(self, birth_death_network):
        assert enumerate_state_space(birth_death_network,
                                     max_states=31.0).size == 31

    @pytest.mark.parametrize("x0", [[1.7, 0.2], [0.5, 0], [np.nan, 0],
                                    ["a", 0]])
    def test_non_integral_initial_state(self, tiny_toggle_network, x0):
        with pytest.raises(ValidationError, match="integral"):
            enumerate_state_space(tiny_toggle_network, initial_state=x0)

    def test_integral_float_initial_state(self, tiny_toggle_network):
        space = enumerate_state_space(tiny_toggle_network,
                                      initial_state=[1.0, 0.0])
        ints = enumerate_state_space(tiny_toggle_network,
                                     initial_state=[1, 0])
        assert np.array_equal(space.states, ints.states)
        assert space.states[0].tolist() == [1, 0]


class TestCustomPropensityEdges:
    def test_hard_zero_blocks_edge(self):
        """A custom propensity that vanishes must remove the transition."""
        def gated(states, idx):
            return np.where(states[:, idx["X"]] < 2, 1.0, 0.0)

        net = ReactionNetwork(
            [Species("X", 10)],
            [Reaction("up", {}, {"X": 1}, 1.0, propensity_fn=gated),
             Reaction("down", {"X": 1}, {}, 1.0)])
        space = enumerate_state_space(net)
        # up fires only from X<2: reachable = {0, 1, 2}.
        assert sorted(space.states[:, 0].tolist()) == [0, 1, 2]
