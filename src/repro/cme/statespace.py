"""DFS enumeration of the reachable, finitely-buffered state space.

This is the optimal enumeration algorithm of Cao & Liang (2008) the paper
relies on (Section II-B): microstates are nodes, reactions are edges, and
a depth-first visit from the initial microstate produces the reachable
subspace together with a state *ordering*.

The DFS ordering matters beyond completeness (Section V): a DFS walks as
far as it can along the first applicable reaction, so chains of states
connected by reversible reactions receive **adjacent indices**, which
turns those transitions into the ``{-1, +1}`` diagonals of the rate
matrix — the structure the ELL+DIA format stores densely.

A reaction edge ``x -> x + s_k`` exists when the reactants are available
(``x_i >= c_{k,i}``, equivalently propensity > 0) and the successor stays
inside every species buffer.  Buffer-blocked reactions are simply absent
edges, so the enumerated space is closed and the rate matrix remains a
proper generator.

The walk itself is a kernel-backend op (``dfs_enumerate``, see
:mod:`repro.backends`): the ``numpy`` reference runs it as a Python loop
over tuples and a dict, the ``native`` backend as a C loop over an
explicit stack and an open-addressing key table, and both return the
same states in the same order.  :func:`enumerate_state_space` validates
its inputs, builds the per-reaction arrays and dispatches.  A
:class:`StateSpace` answers state lookups through another op,
``key_index``, built once over its keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import backends
from repro.cme.network import ReactionNetwork
from repro.errors import EnumerationError, ValidationError


def key_radix(max_counts) -> np.ndarray:
    """Mixed-radix place values for encoding states as scalar keys.

    State ``x`` has key ``x @ key_radix(max_counts)``, unique over the
    buffered lattice.  Raises :class:`~repro.errors.EnumerationError`
    when the lattice has ``2**62`` or more points, so every key of it,
    and every sum of a key and one reaction's key change, fits an int64.
    """
    levels = np.asarray(max_counts, dtype=np.int64) + 1
    if levels.size and np.prod(levels.astype(np.float64)) >= 2.0 ** 62:
        raise EnumerationError(
            "state encoding exceeds 63-bit range; reduce buffers")
    radix = np.ones(levels.size, dtype=np.int64)
    radix[1:] = np.cumprod(levels[:-1])
    return radix


def _integral(value, what: str) -> np.ndarray:
    """*value* as int64; integral floats pass, anything else raises."""
    arr = np.asarray(value)
    if arr.dtype.kind in "biu":
        return arr.astype(np.int64)
    if (arr.dtype.kind == "f" and np.all(np.isfinite(arr))
            and np.all(arr == np.trunc(arr))):
        return arr.astype(np.int64)
    raise ValidationError(f"{what} must be integral, got {value!r}")


def initial_microstate(network: ReactionNetwork,
                       initial_state=None) -> np.ndarray:
    """The ``(m,)`` int64 state an enumeration starts from.

    Defaults to the species' initial counts.  Raises
    :class:`~repro.errors.ValidationError` when *initial_state* has the
    wrong length, a non-integral entry (``1.0`` passes, ``1.7`` does
    not) or an entry outside its species buffer.
    """
    m = network.n_species
    if initial_state is None:
        x0 = np.asarray(network.initial_state, dtype=np.int64)
    else:
        x0 = _integral(np.ravel(initial_state), "initial_state")
        if x0.size != m:
            raise ValidationError(
                f"initial_state must have {m} entries, got {x0.size}")
    bounds = network.max_counts
    if np.any(x0 < 0) or np.any(x0 > bounds):
        raise ValidationError(
            f"initial state {tuple(x0.tolist())} violates species buffers "
            f"{tuple(bounds.tolist())}")
    return x0


@dataclass
class StateSpace:
    """An enumerated microstate space in DFS order.

    Attributes
    ----------
    network:
        The source reaction network.
    states:
        ``(n, m)`` integer array; row ``i`` is the ``i``-th microstate in
        DFS discovery order.
    keys:
        ``(n,)`` mixed-radix keys of the states (see :func:`key_radix`).
    index:
        The states' ``key_index`` (a kernel-backend op): key to row,
        built once here and answering every :meth:`lookup`.
    """

    network: ReactionNetwork
    states: np.ndarray
    _key_radix: np.ndarray = field(init=False, repr=False)
    keys: np.ndarray = field(init=False, repr=False)
    index: object = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.states = np.ascontiguousarray(self.states, dtype=np.int64)
        if self.states.ndim != 2 or self.states.shape[1] != self.network.n_species:
            raise ValidationError(
                f"states must have shape (n, {self.network.n_species})")
        if np.any(self.states < 0):
            raise ValidationError("states must be non-negative")
        self._key_radix = key_radix(self.network.max_counts)
        self.keys = self.encode(self.states)
        try:
            self.index = backends.serving("", "key_index").key_index(
                self.keys)
        except ValueError:
            raise EnumerationError("duplicate states in state space") \
                from None

    # -- queries ------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of enumerated microstates ``n = |X|``."""
        return int(self.states.shape[0])

    def encode(self, states: np.ndarray) -> np.ndarray:
        """Mixed-radix scalar keys for an ``(n, m)`` batch of states."""
        states = np.asarray(states, dtype=np.int64)
        return states @ self._key_radix

    def lookup(self, states: np.ndarray) -> np.ndarray:
        """DFS indices of a batch of states; ``-1`` where not enumerated."""
        states = np.atleast_2d(np.asarray(states, dtype=np.int64))
        return self.index.lookup(self.encode(states))

    def index_of(self, state) -> int:
        """DFS index of one state (raises if absent)."""
        idx = int(self.lookup(np.asarray(state)[None, :])[0])
        if idx < 0:
            raise ValidationError(f"state {tuple(state)} not in the state space")
        return idx

    def contains(self, state) -> bool:
        """Whether a state was enumerated."""
        return int(self.lookup(np.asarray(state)[None, :])[0]) >= 0

    def species_column(self, name: str) -> np.ndarray:
        """Copy numbers of one species across all states, in DFS order."""
        return self.states[:, self.network.species_index(name)]


def enumerate_state_space(network: ReactionNetwork,
                          *, max_states: int = 5_000_000,
                          initial_state=None) -> StateSpace:
    """DFS-enumerate the reachable state space of *network*.

    Parameters
    ----------
    network:
        The reaction network (buffers come from its species).
    max_states:
        Hard cap, at least 1; :class:`~repro.errors.StateSpaceOverflowError`
        beyond it.
    initial_state:
        Starting microstate (defaults to the species' initial counts);
        entries must be integral and inside the species buffers.

    Returns
    -------
    StateSpace
        States in DFS preorder: a state's index is assigned at first
        discovery, and the subtree behind the first applicable reaction is
        fully explored before the second reaction is tried.
    """
    cap = _integral(max_states, "max_states")
    if cap.ndim != 0 or cap < 1:
        raise ValidationError(
            f"max_states must be an integer >= 1, got {max_states!r}")
    x0 = initial_microstate(network, initial_state)
    key_radix(network.max_counts)  # the key range, checked before the walk
    # A reaction with a custom propensity has an edge wherever the
    # propensity is positive: unconditionally for strictly-positive
    # functions, by evaluation (a "gate") otherwise.
    gated = np.array([rxn.propensity_fn is not None
                      and not rxn.strictly_positive
                      for rxn in network.reactions], dtype=bool)
    backend = backends.serving("", "dfs_enumerate")
    states = backend.dfs_enumerate(
        x0, network.max_counts, network.stoichiometry,
        network.reactant_counts, gated, network.propensities, int(cap))
    return StateSpace(network=network, states=states)
