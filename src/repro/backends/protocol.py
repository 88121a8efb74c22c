"""The :class:`KernelBackend` protocol — one seam per hot operation.

Every hot numeric operation in the reproduction (format-faithful SpMV,
the fused Jacobi sweep of one system or of a stack of them, the small
vector primitives the solver loop is made of, the batched solver's
column renormalization, the DFS state-space walk and state-key
membership) goes through a *kernel backend*.  A backend is an object
implementing this protocol; the package ships two:

``numpy``
    The reference backend (:mod:`repro.backends.reference`): the exact
    per-format NumPy kernels the formats have always used, extracted
    into one place.  It supports every format and op, is the fallback
    target whenever another backend lacks a kernel, and is what every
    parity test compares against.
``native``
    A JIT-compiled C backend (:mod:`repro.backends.native`): the kernel
    source is compiled with the system C compiler on first use and
    loaded through :mod:`ctypes`.  Available wherever ``cc`` is, and
    the default whenever it is available.

Operations
----------

``spmv(fmt, x)``
    The per-format product.  Its argument is already validated (dtype
    float64, contiguous, right shape) by the
    :meth:`~repro.sparse.base.SparseFormat.spmv` entry point; backends
    may rely on that.
``jacobi_sweep(A, diag, X, damping=1.0, out=None, sweeps=1)``
    One fused weighted-Jacobi sweep for ``A x = 0`` on a SciPy CSR
    generator (rows may be unsorted), the paper's ELL+DIA sweep: the
    update is ``x'_i = -s_i / d_i`` blended with ``damping`` as
    ``(1 - damping) x_i + damping x'_i``, where ``d = diag`` and
    ``s_i`` sums, from 0.0 with each product rounded, row i's stored
    entries except its diagonal (A's stored diagonal is not read) in
    stored order, except an entry at an offset the sweep peels, then
    ``a_{i,i-1} x_{i-1}`` and then ``a_{i,i+1} x_{i+1}`` where those
    are peeled and stored.  Offset -1 (+1) is peeled when its stored
    entries exceed 8/12 of its ``n - 1`` slots (Section V's rule,
    :func:`~repro.backends.reference.band_offsets`); a row storing a
    peeled offset twice raises ``ValueError``.  ``X`` is one ``(n,)``
    column; any other shape raises ``ValueError`` (a block of columns
    is a stack, swept by ``jacobi_sweep_many``, with ``[A] * k`` for
    one generator).  ``out`` follows the ``out`` contract below.
    ``sweeps=k`` applies k sweeps and returns the last, bitwise equal
    to k single calls (the solver loops pass one renormalization
    interval, so a backend can amortize its call overhead).
``jacobi_sweep_many(systems, diag, X, damping=1.0, out=None, sweeps=1)``
    :meth:`jacobi_sweep` over a stack of same-shaped CSR generators at
    once.  ``diag``, ``X`` and ``out`` are ``(n, m)`` system-interleaved
    blocks: column ``s`` belongs to ``systems[s]``.  The result is
    bitwise equal to ``m`` independent ``jacobi_sweep`` calls, whatever
    the systems' sparsity patterns and however many there are; one
    generator may appear in the stack more than once.  An
    empty stack, a system or block of the wrong shape, or an ``out``
    that breaks the ``out`` contract raises ``ValueError``.  *X* is
    only read.  (The batched solver checks each column with its own
    SciPy product, so the stack has no product op.)
``jacobi_sweep_block(local, diag, x, row_start, damping=1.0, band=())``
    An extension op, discovered with ``getattr``, that the sharded
    solver's workers run: ``jacobi_sweep``'s update of the rows
    ``[row_start, row_start + m)`` that the rectangular ``(m, n)`` CSR
    slice *local* holds (global columns), from the full-length iterate
    *x*, peeling exactly the offsets in *band*.  With *band* the whole
    matrix's ``band_offsets``, the blocks of any row partition
    reassemble the whole matrix's ``jacobi_sweep`` bit for bit.
``axpy(alpha, x, y, beta=1.0, out=None)``
    The blend primitive ``alpha*x + beta*y`` (the damping update), with
    ``x`` in the role of ``X`` for the ``out`` contract.
``residual(y, x)``
    ``(||y||_inf, ||x||_inf)`` in one pass — the two reductions of the
    paper's normalized stopping criterion.
``renormalize_columns(X)``
    Renormalizes each column of the writeable C-contiguous ``(n, m)``
    float64 block ``X`` in place, bitwise as
    :func:`~repro.solvers.normalization.renormalize` does to a
    contiguous copy of it, and returns an ``(m,)`` bool mask.  A column
    ``renormalize`` would reject (a non-finite entry, or no positive
    mass once negatives are clipped) is left as it was and flagged
    ``False``.
``dfs_enumerate(x0, bounds, delta, need, gated, propensities, max_states)``
    Cao & Liang's DFS walk of the reachable state space from the
    ``(m,)`` state *x0*, trying reactions in index order: reaction
    ``k`` gives an edge when the state holds ``need[k]``, the successor
    ``state + delta[k]`` lies within ``[0, bounds]`` and, where
    ``gated[k]``, the custom propensity
    ``propensities.propensity(states, k)`` is not ``<= 0`` there.
    Returns the ``(n, m)`` int64 states in discovery order and raises
    :class:`~repro.errors.StateSpaceOverflowError` when a new state is
    found with *max_states* already discovered.  Arguments are
    validated by :func:`~repro.cme.statespace.enumerate_state_space`.
``key_index(keys)``
    An index over the distinct, non-negative int64 *keys* (mixed-radix
    state keys).  ``index.lookup(probes)`` answers, for an int64 array
    of any shape, each probe's position in *keys*, or ``-1`` where it
    is absent; negative probes (the ``-1`` the projection assembler
    stores for "no edge") are always absent.  ``index.extend(more)``
    appends distinct new keys at positions ``len(index)`` onward; a
    key already present raises ``ValueError`` and leaves the index as
    it was, as does a negative key.  An index may keep a reference to
    *keys* rather than a copy, so they must not change while it lives.
    The object that owns the keys builds the index once and keeps it (a
    state space for its states, the projection assembler for its
    per-state cache).

The ``out`` contract
--------------------

Every op that takes ``out`` writes its result there row-major, so
``out`` is a C-contiguous float64 array in ``X``'s shape that shares no
memory with ``X`` (for ``axpy``, with ``x`` or ``y``): a sweep reads
``X`` after it has begun writing.  Any other ``out`` raises
``ValueError`` on every backend, before anything is written: both call
:func:`repro.backends.reference.check_out`.

Capability flags
----------------

:meth:`KernelBackend.supports` declares which ``(format_name, op)``
pairs a backend can serve.  The registry consults it on every dispatch
and silently falls back to the reference backend for unsupported pairs
(the fallback is recorded in the kernel telemetry counters, see
:func:`repro.backends.kernel_stats`).  Vector primitives
(``jacobi_sweep``, the stacked ``jacobi_sweep_many``, ``axpy``,
``residual``, ``renormalize_columns``),
``dfs_enumerate`` and ``key_index`` are format-independent: a backend
either has them or not, signalled by ``supports("", op)``.

Numerical contract
------------------

Backends must reproduce the reference backend's per-element traversal
and accumulation order, so results agree bitwise (or within 1 ulp where
an optimizing compiler reassociates a fused multiply-add).  The
conformance suite (``tests/backends/test_conformance.py``) enforces
this on every registered backend × format pair.  ``fastmath``-style
reassociation is therefore forbidden in JIT backends.  ``dfs_enumerate``
must return the reference's states in the reference's order, bitwise
(``tests/cme/test_enumeration_backends.py``), and ``key_index`` lookups
the reference's integers exactly (``tests/backends/test_key_index.py``).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

#: Every operation a backend may implement.
OPS = ("spmv", "jacobi_sweep", "jacobi_sweep_many", "axpy", "residual",
       "renormalize_columns", "dfs_enumerate", "key_index")

#: Format keys (``SparseFormat.format_name``) a structured backend is
#: expected to cover to accelerate the whole paper pipeline.
CORE_FORMATS = ("csr", "ell", "ellr", "sell", "sell-c-sigma",
                "warped-ell", "ell+dia", "dia")


@runtime_checkable
class KernelBackend(Protocol):
    """Structural protocol of a compute-kernel backend."""

    #: Registry name (``"numpy"``, ``"native"``, ...).
    name: str

    #: True only for the reference backend — the fallback target.
    is_reference: bool

    def supports(self, format_name: str, op: str) -> bool:
        """Whether this backend has a kernel for ``(format_name, op)``."""
        ...

    def spmv(self, fmt, x: np.ndarray) -> np.ndarray: ...

    def jacobi_sweep(self, A, diag: np.ndarray, X: np.ndarray,
                     damping: float = 1.0,
                     out: np.ndarray | None = None,
                     sweeps: int = 1) -> np.ndarray: ...

    def jacobi_sweep_many(self, systems, diag: np.ndarray, X: np.ndarray,
                          damping: float = 1.0,
                          out: np.ndarray | None = None,
                          sweeps: int = 1) -> np.ndarray: ...

    def axpy(self, alpha: float, x: np.ndarray, y: np.ndarray,
             beta: float = 1.0,
             out: np.ndarray | None = None) -> np.ndarray: ...

    def residual(self, y: np.ndarray,
                 x: np.ndarray) -> tuple[float, float]: ...

    def renormalize_columns(self, X: np.ndarray) -> np.ndarray: ...

    def dfs_enumerate(self, x0: np.ndarray, bounds: np.ndarray,
                      delta: np.ndarray, need: np.ndarray,
                      gated: np.ndarray, propensities,
                      max_states: int) -> np.ndarray: ...

    def key_index(self, keys: np.ndarray): ...
