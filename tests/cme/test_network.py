"""Unit tests for ReactionNetwork."""

import numpy as np
import pytest

from repro.cme.network import ReactionNetwork
from repro.cme.reaction import Reaction
from repro.cme.species import Species
from repro.errors import ValidationError


def simple_network():
    return ReactionNetwork(
        [Species("A", 10), Species("B", 5)],
        [Reaction("syn", {}, {"A": 1}, 2.0),
         Reaction("conv", {"A": 2}, {"B": 1}, 0.5),
         Reaction("deg", {"B": 1}, {}, 1.0)])


class TestCompilation:
    def test_arrays(self):
        net = simple_network()
        assert net.stoichiometry.tolist() == [[1, 0], [-2, 1], [0, -1]]
        assert net.reactant_counts.tolist() == [[0, 0], [2, 0], [0, 1]]
        assert net.rates.tolist() == [2.0, 0.5, 1.0]
        assert net.max_counts.tolist() == [10, 5]

    def test_species_index(self):
        net = simple_network()
        assert net.species_index("B") == 1
        with pytest.raises(ValidationError):
            net.species_index("C")

    def test_state_space_bound(self):
        assert simple_network().state_space_bound() == 11 * 6


class TestValidation:
    def test_duplicate_species(self):
        with pytest.raises(ValidationError, match="duplicate species"):
            ReactionNetwork([Species("A", 1), Species("A", 2)],
                            [Reaction("r", {"A": 1}, {}, 1.0)])

    def test_duplicate_reactions(self):
        with pytest.raises(ValidationError, match="duplicate reaction"):
            ReactionNetwork([Species("A", 1)],
                            [Reaction("r", {"A": 1}, {}, 1.0),
                             Reaction("r", {}, {"A": 1}, 1.0)])

    def test_unknown_species(self):
        with pytest.raises(ValidationError, match="unknown species"):
            ReactionNetwork([Species("A", 1)],
                            [Reaction("r", {"Z": 1}, {}, 1.0)])

    def test_zero_net_effect_rejected(self):
        with pytest.raises(ValidationError, match="zero net effect"):
            ReactionNetwork([Species("A", 5)],
                            [Reaction("noop", {"A": 1}, {"A": 1}, 1.0)])

    def test_reaction_exceeding_buffer(self):
        with pytest.raises(ValidationError, match="buffer"):
            ReactionNetwork([Species("A", 1)],
                            [Reaction("r", {"A": 2}, {}, 1.0)])

    def test_empty_network(self):
        with pytest.raises(ValidationError):
            ReactionNetwork([], [Reaction("r", {}, {"A": 1}, 1.0)])


class TestReversiblePairs:
    def test_found(self):
        net = ReactionNetwork(
            [Species("A", 5)],
            [Reaction("up", {}, {"A": 1}, 1.0),
             Reaction("down", {"A": 1}, {}, 1.0)])
        assert net.reversible_pairs() == [(0, 1)]


class TestWithRates:
    def test_override(self):
        net = simple_network()
        new = net.with_rates({"syn": 7.0})
        assert new.rates[0] == 7.0
        assert net.rates[0] == 2.0, "original untouched"

    def test_unknown_reaction(self):
        with pytest.raises(ValidationError, match="unknown reactions"):
            simple_network().with_rates({"nope": 1.0})


class TestDescribe:
    def test_contains_everything(self):
        text = simple_network().describe()
        assert "syn" in text and "∅" in text and "0..10" in text


class TestCanonicalSignature:
    def _reactions(self):
        return [Reaction("syn", {}, {"A": 1}, 2.0),
                Reaction("conv", {"A": 2}, {"B": 1}, 0.5),
                Reaction("deg", {"B": 1}, {}, 1.0)]

    def _species(self):
        return [Species("A", 10), Species("B", 5)]

    def test_stable(self):
        assert (simple_network().canonical_signature()
                == simple_network().canonical_signature())

    def test_reaction_order_invariant(self):
        """Reaction order only permutes the DFS; the model is the same."""
        reordered = ReactionNetwork(self._species(),
                                    list(reversed(self._reactions())))
        assert (reordered.canonical_signature()
                == simple_network().canonical_signature())

    def test_reactant_dict_order_invariant(self):
        a = ReactionNetwork(self._species(),
                            [Reaction("r", {"A": 1, "B": 1}, {"A": 2}, 1.0)])
        b = ReactionNetwork(self._species(),
                            [Reaction("r", {"B": 1, "A": 1}, {"A": 2}, 1.0)])
        assert a.canonical_signature() == b.canonical_signature()

    def test_species_order_is_semantic(self):
        """Species order defines the state layout, so it must distinguish."""
        swapped = ReactionNetwork(list(reversed(self._species())),
                                  self._reactions())
        assert (swapped.canonical_signature()
                != simple_network().canonical_signature())

    def test_sensitive_to_rates_and_buffers(self):
        base = simple_network().canonical_signature()
        assert (simple_network().with_rates({"syn": 3.0})
                .canonical_signature() != base)
        bigger = ReactionNetwork([Species("A", 11), Species("B", 5)],
                                 self._reactions())
        assert bigger.canonical_signature() != base

    def test_name_is_cosmetic(self):
        a = ReactionNetwork(self._species(), self._reactions(), name="x")
        b = ReactionNetwork(self._species(), self._reactions(), name="y")
        assert a.canonical_signature() == b.canonical_signature()

    def test_custom_propensity_identified_by_name(self):
        def hill_fn(state):
            return 1.0

        with_fn = ReactionNetwork(
            self._species(),
            [Reaction("syn", {}, {"A": 1}, 2.0, propensity_fn=hill_fn,
                      strictly_positive=True)])
        without = ReactionNetwork(self._species(),
                                  [Reaction("syn", {}, {"A": 1}, 2.0)])
        assert (with_fn.canonical_signature()
                != without.canonical_signature())


class TestWithRatesPreservesPropensities:
    @staticmethod
    def custom_network():
        def doubled(state):
            return 2.0

        return ReactionNetwork(
            [Species("A", 10)],
            [Reaction("syn", {}, {"A": 1}, 2.0, propensity_fn=doubled,
                      strictly_positive=True),
             Reaction("deg", {"A": 1}, {}, 1.0)])

    def test_custom_fn_carried_over(self):
        net = self.custom_network()
        varied = net.with_rates({"deg": 5.0})
        assert varied.reactions[1].rate == 5.0
        assert varied.reactions[0].propensity_fn is (
            net.reactions[0].propensity_fn)
        assert varied.reactions[0].strictly_positive

    def test_custom_fn_rate_override_refused(self):
        """A custom propensity ignores ``rate``: overriding it would
        build the base matrix under another label."""
        net = self.custom_network()
        with pytest.raises(ValidationError, match="ignores rate"):
            net.with_rates({"syn": 5.0})
        with pytest.raises(ValidationError, match="ignores rate"):
            net.check_overrides(["deg", "syn"])
        net.check_overrides(["deg"])

    @pytest.mark.parametrize("name", ["synA", "synB", "bstA", "bstB"])
    def test_toggle_custom_rates_refused(self, name):
        from repro.cme.models.toggle_switch import toggle_switch
        with pytest.raises(ValidationError, match="ignores rate"):
            toggle_switch(max_protein=6).with_rates({name: 10.0})
