"""Incremental state-space projections for adaptive FSP.

The fixed-capacity pipeline enumerates the *whole* reachable space once
(:func:`~repro.cme.statespace.enumerate_state_space`) and assembles its
closed generator (:func:`~repro.cme.ratematrix.build_rate_matrix`).
Adaptive Finite State Projection (:mod:`repro.fsp`) instead works on a
small, moving window Ω of the space, which needs three things this
module provides:

* :func:`initial_projection` — a BFS ball of states around the initial
  microstate, the seed projection;
* :class:`ProjectionAssembler` — assembly of the **truncated** generator
  of any projection, *incremental* across projection changes: the
  propensities and successor keys of every state the assembler has ever
  seen are computed once and cached by state key, so a round that adds
  5% new frontier states pays propensity evaluation for exactly those
  5% (``states_evaluated`` counts the total for tests and telemetry);
* :meth:`ProjectionAssembler.frontier` — the one-step-outside boundary
  of a projection, with the per-state *inward* return rates (the
  quantity the truncation certificate needs) and optional influx
  weighting (the quantity the growth policy ranks by).

Truncated-generator semantics: species buffers are part of the model —
a buffer-blocked reaction is an absent edge, exactly as in the closed
enumeration — while a transition from ``j ∈ Ω`` to an in-buffer state
outside Ω is **outflow**: it is dropped from the off-diagonal gains but
kept in ``j``'s diagonal loss, so the assembled matrix is the exact
principal submatrix ``A[Ω, Ω]`` of the full generator and its column
sums equal ``-outflow``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro import backends
from repro.cme.network import ReactionNetwork
from repro.cme.statespace import StateSpace, initial_microstate, key_radix
from repro.errors import StateSpaceOverflowError, ValidationError
from repro.sparse.base import as_csr


def initial_projection(network: ReactionNetwork, *, size: int = 64,
                       initial_state=None) -> StateSpace:
    """A BFS ball of up to *size* states around the initial microstate.

    Breadth-first (rather than the enumerator's depth-first) order is
    the right seed for a projection: the window is a compact
    neighborhood of the initial condition instead of one long DFS chain
    along the first reaction.  The ball is closed under reachability
    only if the whole reachable space fits in *size*; otherwise the cut
    is exactly the open boundary the FSP loop grows.
    """
    if size <= 0:
        raise ValidationError(f"size must be positive, got {size}")
    x0 = initial_microstate(network, initial_state)
    radix = key_radix(network.max_counts)
    seen = backends.serving("", "key_index").key_index([int(x0 @ radix)])
    layers = [x0[None, :]]
    found = 1
    while layers[-1].shape[0] and found < size:
        # One whole BFS layer per pass: its edges in (state, reaction)
        # order are the order a one-state-at-a-time BFS appends in, so
        # the first new successors of each key are the ones kept.
        layer = layers[-1]
        prop = network.propensities.all_propensities(layer)
        succ = layer[:, None, :] + network.stoichiometry[None, :, :]
        edge = ~(prop <= 0.0) & np.all(
            (succ >= 0) & (succ <= network.max_counts), axis=2)
        succ = succ[edge]
        keys = succ @ radix
        fresh = np.flatnonzero(seen.lookup(keys) < 0)
        _, first = np.unique(keys[fresh], return_index=True)
        take = fresh[np.sort(first)][:size - found]
        seen.extend(keys[take])
        layers.append(succ[take])
        found += take.size
    return StateSpace(network=network, states=np.concatenate(layers))


@dataclass
class Frontier:
    """The one-step-outside boundary of a projection.

    Attributes
    ----------
    states:
        ``(q, m)`` array of in-buffer states reachable in one reaction
        from Ω but not in Ω (empty when the projection is closed).
    inward_rates:
        Per-frontier-state total propensity of reactions leading
        directly back *into* Ω — the return rates the truncation
        certificate's floor is taken over.
    total_rates:
        Per-frontier-state total propensity over *all* its real edges
        (buffer-blocked reactions are absent edges and excluded).  The
        difference ``total_rates - inward_rates`` is the rate carrying
        mass *away* from Ω, which the certificate's geometric tail
        factor is built from.
    influx:
        Per-frontier-state total rate of arrival from Ω.  When the
        caller passes probability ``weights`` this is the stationary
        boundary flux into each frontier state; with no weights it is
        the unweighted rate sum.  Growth ranks on it.
    """

    states: np.ndarray
    inward_rates: np.ndarray
    total_rates: np.ndarray
    influx: np.ndarray

    @property
    def size(self) -> int:
        return int(self.states.shape[0])


class ProjectionAssembler:
    """Incremental truncated-generator assembly over moving projections.

    One assembler serves every round of an FSP loop on one (rate-fixed)
    network.  Per state ever presented it caches, in rows appended in
    first-seen order:

    * the ``R`` reaction propensities,
    * the successor *key* per reaction (``-1`` where the reaction is
      inapplicable or buffer-blocked — i.e. no edge in the full model),

    and a ``key_index`` (the kernel-backend op, see
    :mod:`repro.backends.protocol`) maps state keys to those rows.
    :meth:`assemble` and :meth:`frontier` then classify all of a
    projection's (state, reaction) edges in one flattened pass, in
    reaction-major order: one lookup of the cached successor keys in
    the projection's own key index, no propensity ever evaluated twice
    across grow/prune/permute rounds.
    """

    def __init__(self, network: ReactionNetwork):
        self.network = network
        self._radix = key_radix(network.max_counts)
        self._index = backends.serving("", "key_index").key_index(
            np.empty(0, dtype=np.int64))
        self._prop = np.empty((0, network.n_reactions), dtype=np.float64)
        self._succ = np.empty((0, network.n_reactions), dtype=np.int64)
        #: Total states whose propensities were computed (monotonic);
        #: the incremental-assembly tests pin this down.
        self.states_evaluated = 0

    # -- the per-state cache -------------------------------------------------

    def _encode(self, states: np.ndarray) -> np.ndarray:
        return np.asarray(states, dtype=np.int64) @ self._radix

    def _rows_for(self, states: np.ndarray, keys=None) -> np.ndarray:
        """Cache rows for *states* (whose keys may be passed in),
        evaluating any not yet seen."""
        states = np.ascontiguousarray(states, dtype=np.int64)
        if states.ndim != 2 or states.shape[1] != self.network.n_species:
            raise ValidationError(
                f"states must have shape (n, {self.network.n_species})")
        if keys is None:
            keys = self._encode(states)
        rows = self._index.lookup(keys)
        missing = np.flatnonzero(rows < 0)
        if missing.size:
            # De-duplicate within the new batch while keeping first-seen
            # order, then evaluate all new states in one vectorized pass.
            _, first = np.unique(keys[missing], return_index=True)
            take = missing[np.sort(first)]
            self._evaluate(states[take], keys[take])
            rows[missing] = self._index.lookup(keys[missing])
        return rows

    def _evaluate(self, states: np.ndarray, keys: np.ndarray) -> None:
        network = self.network
        prop = network.propensities.all_propensities(states)
        targets = states[:, None, :] + network.stoichiometry[None, :, :]
        edge = (np.all((targets >= 0) & (targets <= network.max_counts),
                       axis=2) & (prop > 0.0))
        succ = np.where(edge, targets @ self._radix, -1)
        self._prop = np.concatenate([self._prop, prop])
        self._succ = np.concatenate([self._succ, succ])
        self._index.extend(keys)
        self.states_evaluated += states.shape[0]

    def _edges(self, space: StateSpace):
        """Every edge of *space*, flattened reaction-major (reaction 0's
        edges by source row, then reaction 1's, ...): ``(source row,
        reaction, rate, successor key, target row or -1 outside)``."""
        rows = self._rows_for(space.states, space.keys)
        succ = self._succ[rows].T.ravel()
        e = np.flatnonzero(succ >= 0)
        reaction, src = np.divmod(e, space.size)
        keys = succ[e]
        return (src, reaction, self._prop[rows].T.ravel()[e], keys,
                space.index.lookup(keys))

    # -- assembly ------------------------------------------------------------

    def assemble(self, space: StateSpace) -> tuple[sp.csr_matrix, np.ndarray]:
        """The truncated generator of *space* plus its outflow rates.

        Returns ``(A, outflow)`` where ``A`` is the principal submatrix
        of the full generator on the projection (CSR, ``dP/dt = A P``
        restricted to Ω, diagonal losses include transitions leaving Ω)
        and ``outflow[j]`` is the total rate from state ``j`` to
        in-buffer states outside Ω.  Column sums of ``A`` equal
        ``-outflow``; a closed projection reproduces
        :func:`~repro.cme.ratematrix.build_rate_matrix` exactly.
        """
        self._check_layout(space)
        n = space.size
        src, _, rate, _, tgt = self._edges(space)
        inside = tgt >= 0
        # Reaction-major accumulation: each state's loss and outflow sum
        # its rates in reaction order.
        diag = np.zeros(n, dtype=np.float64)
        np.subtract.at(diag, src, rate)
        outflow = np.zeros(n, dtype=np.float64)
        np.add.at(outflow, src[~inside], rate[~inside])
        diagonal = np.arange(n, dtype=np.int64)
        coo = sp.coo_matrix(
            (np.concatenate([rate[inside], diag]),
             (np.concatenate([tgt[inside], diagonal]),
              np.concatenate([src[inside], diagonal]))),
            shape=(n, n))
        return as_csr(coo), outflow

    # -- the boundary --------------------------------------------------------

    def frontier(self, space: StateSpace, weights=None) -> Frontier:
        """One-step-outside states of *space* with rates (see
        :class:`Frontier`).

        ``weights`` (a probability vector over the projection) turns
        ``influx`` into the stationary boundary flux per frontier
        state; rates and membership are unaffected.
        """
        self._check_layout(space)
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (space.size,):
                raise ValidationError(
                    f"weights must have length {space.size}, "
                    f"got {weights.shape}")
        src, reaction, rate, keys, tgt = self._edges(space)
        leaving = tgt < 0
        if not leaving.any():
            m = self.network.n_species
            empty = np.empty(0, dtype=np.float64)
            return Frontier(states=np.empty((0, m), dtype=np.int64),
                            inward_rates=empty, total_rates=empty.copy(),
                            influx=empty.copy())
        src, reaction = src[leaving], reaction[leaving]
        flux = rate[leaving]
        if weights is not None:
            flux = flux * weights[src]
        uniq_keys, first, inverse = np.unique(
            keys[leaving], return_index=True, return_inverse=True)
        states = (space.states[src[first]]
                  + self.network.stoichiometry[reaction[first]])
        influx = np.zeros(uniq_keys.size, dtype=np.float64)
        np.add.at(influx, inverse, flux)

        # Inward return rates: total propensity of reactions from each
        # frontier state whose successor lands back inside Ω.  Frontier
        # states go through the same cache, so a later round that grows
        # onto them re-uses these evaluations.
        f_rows = self._rows_for(states, uniq_keys)
        f_succ = self._succ[f_rows]
        f_prop = self._prop[f_rows]
        total = np.where(f_succ >= 0, f_prop, 0.0).sum(axis=1)
        # Reaction-major again, so each return rate sums in reaction
        # order; a -1 successor key ("no edge") is never in Ω.
        hit = np.flatnonzero(space.index.lookup(f_succ.T.ravel()) >= 0)
        back = np.zeros(uniq_keys.size, dtype=np.float64)
        np.add.at(back, hit % uniq_keys.size, f_prop.T.ravel()[hit])
        return Frontier(states=states, inward_rates=back,
                        total_rates=total, influx=influx)

    # -- growth --------------------------------------------------------------

    def grow(self, space: StateSpace, *, depth: int = 1,
             weights=None, max_new_states: int | None = None,
             max_states: int = 5_000_000) -> tuple[StateSpace, int]:
        """Expand *space* by up to *depth* frontier layers.

        The first layer is ranked by ``influx`` (highest stationary
        boundary flux first, when ``weights`` is given) and truncated
        to ``max_new_states``; deeper layers expand unweighted.
        Returns ``(new_space, states_added)``; the projection is
        unchanged (``added == 0``) when it is already closed.
        """
        if depth <= 0:
            raise ValidationError(f"depth must be positive, got {depth}")
        added = 0
        current = space
        layer_weights = weights
        for _ in range(depth):
            fr = self.frontier(current, weights=layer_weights)
            layer_weights = None  # only the solved layer has weights
            if fr.size == 0:
                break
            new_states = fr.states
            if max_new_states is not None and fr.size > max_new_states:
                order = np.argsort(-fr.influx, kind="stable")
                new_states = fr.states[order[:max_new_states]]
            if current.size + new_states.shape[0] > max_states:
                raise StateSpaceOverflowError(max_states)
            current = StateSpace(
                network=current.network,
                states=np.concatenate([current.states, new_states]))
            added += int(new_states.shape[0])
        return current, added

    # -- guards --------------------------------------------------------------

    def _check_layout(self, space: StateSpace) -> None:
        if space.states.shape[1] != self.network.n_species or not \
                np.array_equal(space.network.max_counts,
                               self.network.max_counts):
            raise ValidationError(
                "projection's species layout disagrees with the "
                "assembler's network")
