"""Reaction networks: species + reactions compiled to array form.

:class:`ReactionNetwork` is the user-facing model object.  It validates
the model (unique names, reactions referencing known species, buffers
large enough for every reaction's stoichiometry) and compiles it into the
integer arrays the enumerator and rate-matrix assembler consume:
``reactant_counts``, ``stoichiometry`` (net change) and ``rates``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Sequence

import numpy as np

from repro.cme.propensity import PropensityEvaluator
from repro.cme.reaction import Reaction
from repro.cme.species import Species
from repro.errors import ValidationError


class ReactionNetwork:
    """A validated biochemical reaction network.

    Parameters
    ----------
    species:
        Ordered species list; the order defines the microstate vector
        layout ``x = (x_1, ..., x_m)``.
    reactions:
        Ordered reaction list; the order is the DFS neighbor-expansion
        order of the enumeration, so putting forward/backward pairs of
        reversible reactions first yields the dense diagonal band the
        ELL+DIA format leverages.
    name:
        Optional model label used in tables.
    """

    def __init__(self, species: Sequence[Species],
                 reactions: Iterable[Reaction],
                 *, name: str = "network"):
        self.name = str(name)
        self.species = list(species)
        self.reactions = list(reactions)
        if not self.species:
            raise ValidationError("network needs at least one species")
        if not self.reactions:
            raise ValidationError("network needs at least one reaction")

        names = [s.name for s in self.species]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate species names in {names}")
        rnames = [r.name for r in self.reactions]
        if len(set(rnames)) != len(rnames):
            raise ValidationError(f"duplicate reaction names in {rnames}")
        self._index = {n: i for i, n in enumerate(names)}

        m, R = len(self.species), len(self.reactions)
        self.reactant_counts = np.zeros((R, m), dtype=np.int64)
        self.product_counts = np.zeros((R, m), dtype=np.int64)
        for k, rxn in enumerate(self.reactions):
            unknown = rxn.species_names() - set(self._index)
            if unknown:
                raise ValidationError(
                    f"reaction {rxn.name!r} references unknown species "
                    f"{sorted(unknown)}")
            for sname, c in rxn.reactants.items():
                self.reactant_counts[k, self._index[sname]] = c
            for sname, c in rxn.products.items():
                self.product_counts[k, self._index[sname]] = c
        self.stoichiometry = self.product_counts - self.reactant_counts
        self.rates = np.array([r.rate for r in self.reactions], dtype=np.float64)
        self.max_counts = np.array([s.max_count for s in self.species],
                                   dtype=np.int64)
        self.initial_state = np.array([s.initial_count for s in self.species],
                                      dtype=np.int64)

        for k, rxn in enumerate(self.reactions):
            needed = self.reactant_counts[k]
            if np.any(needed > self.max_counts):
                raise ValidationError(
                    f"reaction {rxn.name!r} consumes more copies than a "
                    f"species buffer can ever hold")
            if np.all(self.stoichiometry[k] == 0):
                raise ValidationError(
                    f"reaction {rxn.name!r} has zero net effect; it cannot "
                    f"appear in the CME transition structure")

        self.propensities = PropensityEvaluator(
            self.reactant_counts, self.rates, self.max_counts,
            custom_fns=[r.propensity_fn for r in self.reactions],
            species_index=self._index)

    # -- queries ------------------------------------------------------------

    @property
    def n_species(self) -> int:
        return len(self.species)

    @property
    def n_reactions(self) -> int:
        return len(self.reactions)

    def species_index(self, name: str) -> int:
        """Position of species *name* in the microstate vector."""
        try:
            return self._index[name]
        except KeyError:
            raise ValidationError(f"unknown species {name!r}") from None

    def state_space_bound(self) -> int:
        """The crude bound ``|X| <= Π (max_i + 1)`` of Section II-B."""
        return int(np.prod(self.max_counts + 1))

    def reversible_pairs(self) -> list[tuple[int, int]]:
        """Indices ``(k, l)`` of reaction pairs that undo each other."""
        pairs = []
        for k in range(self.n_reactions):
            for l in range(k + 1, self.n_reactions):
                if self.reactions[k].is_reversible_pair(self.reactions[l]):
                    pairs.append((k, l))
        return pairs

    def check_overrides(self, names: Iterable[str]) -> None:
        """Refuse rate overrides that name no reaction, or a reaction
        whose custom ``propensity_fn`` ignores its ``rate`` (overriding
        it would solve the base system again under another label)."""
        names = set(names)
        by_name = {r.name: r for r in self.reactions}
        unknown = names - set(by_name)
        if unknown:
            raise ValidationError(f"unknown reactions {sorted(unknown)}")
        custom = sorted(n for n in names
                        if by_name[n].propensity_fn is not None)
        if custom:
            raise ValidationError(
                f"cannot override the rate of {custom}: a custom "
                f"propensity_fn ignores rate")

    def with_rates(self, overrides: dict[str, float]) -> "ReactionNetwork":
        """A copy with some mass-action reaction rates replaced.

        This is the paper's motivating exploratory workload: the same
        network solved under many rate conditions (Section I).  Custom
        propensity functions are carried over unchanged, so a varied
        network keeps the exact dynamics of the base model except for
        the overridden mass-action rates; see :meth:`check_overrides`.
        """
        self.check_overrides(overrides)
        new_reactions = []
        for rxn in self.reactions:
            rate = overrides.get(rxn.name, rxn.rate)
            new_reactions.append(Reaction(
                rxn.name, rxn.reactants, rxn.products, rate,
                propensity_fn=rxn.propensity_fn,
                strictly_positive=rxn.strictly_positive))
        return ReactionNetwork(self.species, new_reactions, name=self.name)

    # -- canonical identity --------------------------------------------------

    def canonical_payload(self) -> dict:
        """A deterministic, JSON-serializable description of the model.

        Species stay in declared order (the order *is* semantic: it
        defines the microstate vector layout and hence the meaning of
        any probability vector over the enumerated space).  Reactions
        are sorted by name because reaction order only permutes the DFS
        enumeration, never the distribution itself.  A custom
        propensity function is identified by its ``__name__`` (closures
        cannot be hashed structurally), so models that vary a parameter
        *inside* a custom propensity must encode it in the function
        name or the reaction rate to remain distinguishable.
        """
        species = [[s.name, int(s.max_count), int(s.initial_count)]
                   for s in self.species]
        reactions = []
        for r in sorted(self.reactions, key=lambda r: r.name):
            fn = (getattr(r.propensity_fn, "__name__", "custom")
                  if r.propensity_fn is not None else None)
            reactions.append([
                r.name,
                sorted((n, int(c)) for n, c in r.reactants.items()),
                sorted((n, int(c)) for n, c in r.products.items()),
                float(r.rate),
                fn,
                bool(r.strictly_positive),
            ])
        return {"species": species, "reactions": reactions}

    def canonical_signature(self) -> str:
        """A stable content hash of the model (cache-key basis).

        Invariant to reaction ordering and to dict insertion order in
        reactant/product maps; sensitive to every rate, stoichiometry,
        species buffer, initial count, and custom-propensity identity.
        The network ``name`` is a display label and does not
        participate.
        """
        payload = json.dumps(self.canonical_payload(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def describe(self) -> str:
        """Human-readable model summary (used by the examples)."""
        lines = [f"ReactionNetwork {self.name!r}: "
                 f"{self.n_species} species, {self.n_reactions} reactions"]
        for s in self.species:
            lines.append(f"  species {s.name}: 0..{s.max_count} "
                         f"(initial {s.initial_count})")
        for r in self.reactions:
            lhs = " + ".join(f"{c} {n}" for n, c in r.reactants.items()) or "∅"
            rhs = " + ".join(f"{c} {n}" for n, c in r.products.items()) or "∅"
            lines.append(f"  {r.name}: {lhs} -> {rhs}  (rate {r.rate:g})")
        return "\n".join(lines)
