"""repro.serve — a concurrent steady-state solve service.

Turns the paper's exploratory workload (Section I: thousands of rate
conditions of one network) into a job-serving layer with
content-addressed caching, nearest-neighbor warm starting, and a
bounded, backpressured worker pool fed by one weighted fair queue
(:mod:`repro.serve.fairness`, which also holds token-bucket admission
control).  An asyncio front door (:class:`AsyncSolveService`) and a
multi-process solver pool (:class:`ProcessSolverPool`) layer on top of
the same :class:`SolveService`.  See DESIGN.md §8 and §16 and
:mod:`repro.serve.service` for the architecture.
"""

from repro.serve.async_service import AsyncSolveService
from repro.serve.cache import CacheEntry, SolutionCache, state_space_layout
from repro.serve.fairness import (
    AdmissionController,
    FairPriorityQueue,
    TokenBucket,
)
from repro.serve.jobs import (
    JobState,
    SolveJob,
    SolveOutcome,
    SolveRequest,
)
from repro.serve.metrics import ServiceMetrics
from repro.serve.pool import ProcessSolverPool
from repro.serve.scheduler import SolveScheduler
from repro.serve.service import SolveService
from repro.serve.warmstart import WarmStartHint, WarmStartIndex

__all__ = [
    "AdmissionController",
    "AsyncSolveService",
    "CacheEntry",
    "FairPriorityQueue",
    "JobState",
    "ProcessSolverPool",
    "ServiceMetrics",
    "SolutionCache",
    "SolveJob",
    "SolveOutcome",
    "SolveRequest",
    "SolveScheduler",
    "SolveService",
    "TokenBucket",
    "WarmStartHint",
    "WarmStartIndex",
    "state_space_layout",
]
