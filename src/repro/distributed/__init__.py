"""Domain-decomposed (sharded) steady-state solving.

The executional counterpart of :mod:`repro.multigpu`'s analytic
multi-device model: :class:`ShardedJacobiSolver` is the serial Jacobi
solver with each sweep run across a pool of worker processes, one per
row block, with shared-memory halo exchange; its answers are bitwise
the serial solver's.  Registered as ``method="sharded"`` in
:data:`repro.solvers.SOLVER_REGISTRY`.

See DESIGN.md §14 for the partition contract and the epoch protocol.
"""

from repro.distributed.plan import WorkerSpec, build_specs
from repro.distributed.sharded import ShardedJacobiSolver

__all__ = [
    "ShardedJacobiSolver",
    "WorkerSpec",
    "build_specs",
]
