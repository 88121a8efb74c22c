"""repro — GPU-based steady-state solution of the Chemical Master Equation.

A from-scratch reproduction of Maggioni, Berger-Wolf & Liang (IPPS
2013): the CME stochastic framework (reaction networks, DFS state-space
enumeration, rate-matrix assembly), the GPU-oriented sparse formats
(ELL, ELL+DIA, sliced ELL and the paper's warp-grained sliced ELL), the
Jacobi steady-state solver with the paper's stopping machinery, and — in
place of the GTX580 the paper measures on — a calibrated functional +
performance simulator of the Fermi architecture (see DESIGN.md).

Quickstart::

    from repro import toggle_switch, solve_steady_state

    network = toggle_switch(max_protein=40)
    result = solve_steady_state(network)
    print(result.landscape.ascii_heatmap("A", "B"))
"""

from repro.cme import (
    CMEOperator,
    ProbabilityLandscape,
    Reaction,
    ReactionNetwork,
    Species,
    StateSpace,
    build_rate_matrix,
    enumerate_state_space,
)
from repro.cme.models import (
    brusselator,
    phage_lambda,
    schnakenberg,
    toggle_switch,
)
from repro.errors import ValidationError
from repro.solvers import (
    GaussSeidelSolver,
    JacobiSolver,
    PowerIterationSolver,
    SolverResult,
    SteadyStateSolver,
    StopReason,
)
from repro.sparse import (
    CSRMatrix,
    COOMatrix,
    DIAMatrix,
    ELLDIAMatrix,
    ELLMatrix,
    SlicedELLMatrix,
    WarpedELLMatrix,
)
from repro.gpusim import GTX580, DeviceSpec, jacobi_performance, spmv_performance

__version__ = "1.0.0"

__all__ = [
    "Species",
    "Reaction",
    "ReactionNetwork",
    "StateSpace",
    "enumerate_state_space",
    "build_rate_matrix",
    "CMEOperator",
    "ProbabilityLandscape",
    "toggle_switch",
    "brusselator",
    "schnakenberg",
    "phage_lambda",
    "JacobiSolver",
    "GaussSeidelSolver",
    "PowerIterationSolver",
    "SteadyStateSolver",
    "SolverResult",
    "StopReason",
    "ValidationError",
    "COOMatrix",
    "CSRMatrix",
    "DIAMatrix",
    "ELLMatrix",
    "ELLDIAMatrix",
    "SlicedELLMatrix",
    "WarpedELLMatrix",
    "DeviceSpec",
    "GTX580",
    "spmv_performance",
    "jacobi_performance",
    "solve_steady_state",
]


#: Front-door methods whose solve loops accept a ``checkpointer=``
#: (the resilient fallback chain switches solvers mid-flight and has
#: no single loop state to snapshot).
_CHECKPOINTABLE_METHODS = ("jacobi", "gauss-seidel", "power", "sharded")


def solve_steady_state(network_or_matrix, method: str = "jacobi", *,
                       tol: float = 1e-8,
                       max_iterations: int = 500_000,
                       x0=None,
                       time_budget_s: float | None = None,
                       hooks=None,
                       max_states: int = 5_000_000,
                       checkpoint=None,
                       resume: bool = False,
                       checkpoint_every: int | None = 1000,
                       checkpoint_seconds: float | None = None,
                       checkpoint_keep: int = 3,
                       **options) -> SolverResult:
    """The steady-state front door: one call from model to answer.

    Routes a :class:`ReactionNetwork` through enumeration and
    rate-matrix assembly into the chosen solver — the pipeline the CLI,
    the examples and the serving layer all share instead of
    hand-rolling it.  A raw matrix (SciPy sparse, dense, or any
    :class:`repro.sparse.base.SparseFormat`) skips the CME stages and
    is solved directly.

    Every stage emits a tracing span when a recorder is installed
    (see :mod:`repro.telemetry`).

    Parameters
    ----------
    network_or_matrix:
        A :class:`ReactionNetwork`, or the generator matrix itself.
    method:
        ``"jacobi"`` (the paper's solver), ``"gauss-seidel"``,
        ``"power"``, ``"resilient"`` (the self-healing
        jacobi → gauss-seidel → gmres fallback chain) or ``"sharded"``
        (domain-decomposed Jacobi across a process pool; accepts
        ``shards=`` and ``sync="barrier"|"chaotic"`` as ``options``).
    tol, max_iterations:
        Stopping parameters (paper defaults scaled to typical
        reproduction sizes).
    x0, time_budget_s, hooks:
        Forwarded to :meth:`~repro.solvers.base.IterativeSolverBase.solve`
        — warm start, wall-clock budget, instrumentation hooks.
    **options:
        Extra solver-constructor options (e.g. ``damping=0.7``,
        ``uniformization_factor=1.1``, ``backend="native"`` to select
        the kernel backend — see :mod:`repro.backends`).
    max_states:
        Enumeration safety cap.
    checkpoint:
        Optional directory for durable crash-safe checkpoints (see
        DESIGN.md §15).  The solve writes versioned, checksummed
        snapshot files there at residual-check boundaries; supported
        for methods ``"jacobi"``, ``"gauss-seidel"``, ``"power"`` and
        ``"sharded"``.
    resume:
        With ``checkpoint``, first look for the newest intact
        checkpoint matching this exact system/method/tolerance and
        continue from it (torn, corrupt or mismatched files are
        skipped with a warning).  A resumed Jacobi or barrier-sharded
        solve replays bitwise identically to the uninterrupted run.
    checkpoint_every, checkpoint_seconds, checkpoint_keep:
        Cadence (iterations and/or wall-clock seconds) and retention
        for the checkpoint directory —
        :class:`repro.durability.CheckpointPolicy`'s fields.

    Returns
    -------
    SolverResult
        The solver diagnostics; for network inputs,
        ``result.landscape`` carries the
        :class:`ProbabilityLandscape`.
    """
    from repro.solvers import SOLVER_REGISTRY
    from repro.telemetry import tracing

    method_key = str(method).lower().replace("_", "-")
    if method_key not in SOLVER_REGISTRY:
        raise ValidationError(
            f"unknown method {method!r}; expected one of "
            f"{sorted(SOLVER_REGISTRY)}")
    solver_cls = SOLVER_REGISTRY[method_key]
    if resume and checkpoint is None:
        raise ValidationError("resume=True needs a checkpoint directory")
    if checkpoint is not None and method_key not in _CHECKPOINTABLE_METHODS:
        raise ValidationError(
            f"method {method!r} does not support checkpointing; "
            f"expected one of {list(_CHECKPOINTABLE_METHODS)}")

    space = None
    with tracing.span("solve_steady_state", method=method_key):
        if isinstance(network_or_matrix, ReactionNetwork):
            with tracing.span("enumerate",
                              network=network_or_matrix.name) as sp:
                space = enumerate_state_space(network_or_matrix,
                                              max_states=max_states)
                sp.set_attribute("states", len(space.states))
            with tracing.span("assemble") as sp:
                A = build_rate_matrix(space)
                sp.set_attribute("nnz", int(A.nnz))
        else:
            A = network_or_matrix

        checkpointer = None
        if checkpoint is not None:
            from repro.durability import (
                Checkpointer,
                CheckpointPolicy,
                system_signature,
            )
            from repro.sparse.base import as_csr
            from repro.sparse.conversion import to_scipy
            checkpointer = Checkpointer(
                checkpoint,
                signature=system_signature(as_csr(to_scipy(A)),
                                           method=method_key, tol=tol),
                policy=CheckpointPolicy(
                    every_iterations=checkpoint_every,
                    every_seconds=checkpoint_seconds,
                    keep_last=checkpoint_keep),
                resume=resume)

        solver = solver_cls(A, tol=tol, max_iterations=max_iterations,
                            **options)
        solve_kwargs = {}
        if checkpointer is not None:
            solve_kwargs["checkpointer"] = checkpointer
        result = solver.solve(x0=x0, time_budget_s=time_budget_s,
                              hooks=hooks, **solve_kwargs)
    if space is not None:
        result.landscape = ProbabilityLandscape(space, result.x)
    return result
