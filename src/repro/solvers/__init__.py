"""Steady-state solvers (Section IV).

* :class:`JacobiSolver` — the paper's method: the component-wise Jacobi
  iteration ``x_i <- -(1/a_ii) sum_{j != i} a_ij x_j`` with periodic
  probability renormalization, the normalized infinity-norm residual
  test, a stagnation test, and an iteration cap.
* :class:`PowerIterationSolver` — power iteration on the uniformized
  stochastic matrix (the Markov-model generalization of Section VIII).
* :class:`GaussSeidelSolver` — the sequential foil: fewer iterations,
  no parallelism per iteration (the trade-off Section IV weighs).
* :class:`BatchedJacobiSolver` — K steady states in lockstep on one
  ``(n, K)`` block, one stacked sweep per iteration over K same-shaped
  generators (a sweep's rate conditions), with per-column stopping and
  early retirement.  Not in the registry: ``stacked(...).solve_many()``
  takes K generators where the unified ``solve`` takes one.
* :func:`gmres_steady_state` — a GMRES attempt on the (ill-conditioned,
  singular) steady-state system, reproducing the paper's observation
  that Krylov methods fail to converge here.
* :class:`~repro.resilience.resilient.ResilientSolver` — the
  self-healing fallback chain (jacobi → gauss-seidel → gmres),
  registered as ``"resilient"``.
* :class:`~repro.distributed.sharded.ShardedJacobiSolver` —
  :class:`JacobiSolver` with each sweep split by rows across a pool
  of worker processes with shared-memory halo exchange, bitwise the
  serial answer; registered as ``"sharded"``.  See DESIGN.md §14.
"""

from repro.solvers.result import SolverResult, StopReason
from repro.solvers.stopping import StoppingCriterion
from repro.solvers.normalization import renormalize
from repro.solvers.base import IterativeSolverBase, SteadyStateSolver
from repro.solvers.jacobi import DEFAULT_DAMPING, JacobiSolver
from repro.solvers.batched import BatchedJacobiSolver
from repro.solvers.gauss_seidel import GaussSeidelSolver
from repro.solvers.power import PowerIterationSolver
from repro.solvers.gmres import gmres_steady_state
from repro.solvers.remap import remap_iterate

#: Method-name registry used by :func:`repro.solve_steady_state`.
SOLVER_REGISTRY = {
    "jacobi": JacobiSolver,
    "gauss-seidel": GaussSeidelSolver,
    "power": PowerIterationSolver,
}

# Imported after the registry exists: the resilient solver's module
# resolves its fallback chain through SOLVER_REGISTRY at solve time,
# and the sharded solver subclasses JacobiSolver.
from repro.resilience.resilient import ResilientSolver  # noqa: E402
from repro.distributed.sharded import ShardedJacobiSolver  # noqa: E402

SOLVER_REGISTRY["resilient"] = ResilientSolver
SOLVER_REGISTRY["sharded"] = ShardedJacobiSolver

__all__ = [
    "DEFAULT_DAMPING",
    "ResilientSolver",
    "ShardedJacobiSolver",
    "SolverResult",
    "StopReason",
    "StoppingCriterion",
    "SteadyStateSolver",
    "IterativeSolverBase",
    "SOLVER_REGISTRY",
    "renormalize",
    "JacobiSolver",
    "BatchedJacobiSolver",
    "GaussSeidelSolver",
    "PowerIterationSolver",
    "gmres_steady_state",
    "remap_iterate",
]
