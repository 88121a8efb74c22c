"""Asyncio front door over :class:`~repro.serve.service.SolveService`.

The sync service is thread-based end to end: ``submit`` can block (a
journal's fsync, the first submission's state-space enumeration),
``result`` blocks on a ``threading.Event``.  An asyncio application —
a gRPC/HTTP serving process multiplexing thousands of client
connections on one event loop — must never call either on the loop
thread.
:class:`AsyncSolveService` bridges the two worlds without forking the
service's logic:

*   :meth:`AsyncSolveService.submit` runs the (potentially blocking)
    sync ``submit`` in the loop's default thread-pool executor and
    returns the :class:`~repro.serve.jobs.SolveJob` unchanged, so
    every sync admission behavior — cache hits, single-flight
    coalescing, admission control, backpressure, degraded answers —
    is preserved bit for bit.
*   Completion crosses back into the loop via
    :meth:`SolveJob.add_done_callback` +
    ``loop.call_soon_threadsafe``: no polling thread, no busy loop —
    one callback per job, fired by whichever worker completes it.
*   :meth:`solve` / :meth:`map` are the awaitable analogues of the
    sync convenience wrappers.

The façade either *wraps* an existing service (``service=...`` —
e.g. one constructed with a process pool and tenant weights and shared
with sync callers) or constructs one from the same keyword arguments
:class:`SolveService` takes.  It owns — and closes — only what it
created.

Example
-------
>>> async def sweep(network, conditions):              # doctest: +SKIP
...     async with AsyncSolveService(network, workers=4,
...                                  executor="process") as svc:
...         return await svc.map(conditions)
"""

from __future__ import annotations

import asyncio
import functools
from typing import Iterable, Mapping

from repro.cme.network import ReactionNetwork
from repro.errors import SolveJobError
from repro.serve.jobs import SolveJob, SolveOutcome
from repro.serve.service import SolveService

__all__ = ["AsyncSolveService"]


class AsyncSolveService:
    """Awaitable submission and completion over a sync solve service.

    Parameters
    ----------
    network:
        The base reaction network (ignored when ``service`` is given).
    service:
        An existing :class:`SolveService` to wrap instead of
        constructing one; the caller keeps ownership (``close`` will
        not shut it down).
    **service_kwargs:
        Forwarded verbatim to :class:`SolveService` when constructing.
    """

    def __init__(self, network: ReactionNetwork | None = None, *,
                 service: SolveService | None = None, **service_kwargs):
        if service is not None:
            self._service = service
            self._owned = False
        else:
            if network is None:
                raise SolveJobError(
                    "AsyncSolveService needs a network or a service")
            self._service = SolveService(network, **service_kwargs)
            self._owned = True

    @property
    def service(self) -> SolveService:
        """The wrapped sync service (for metrics, snapshots, ...)."""
        return self._service

    # -- lifecycle ----------------------------------------------------------

    async def __aenter__(self) -> "AsyncSolveService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def close(self, *, wait: bool = True) -> None:
        """Close an *owned* service without blocking the event loop."""
        if not self._owned:
            return
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, functools.partial(self._service.close, wait=wait))

    async def drain(self, *, timeout_s: float | None = None) -> bool:
        """Awaitable :meth:`SolveService.drain` (runs in the executor)."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, functools.partial(self._service.drain,
                                    timeout_s=timeout_s))

    # -- submission ---------------------------------------------------------

    async def submit(self, overrides: Mapping[str, float] | None = None,
                     **kwargs) -> SolveJob:
        """Admit one solve; same semantics/raises as the sync ``submit``.

        Runs the sync admission path in the loop's executor because it
        can block: a journal-backed service fsyncs the accept record,
        and the first submission enumerates the state space.  A full
        queue does not block; it rejects, and rejections
        (:class:`~repro.errors.JobRejectedError`) propagate to the
        awaiter unchanged.
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None,
            functools.partial(self._service.submit, overrides, **kwargs))

    async def result(self, job: SolveJob) -> SolveOutcome:
        """Await a job's outcome without blocking the loop.

        Bridges the job's thread-side completion into an
        ``asyncio.Future`` via ``call_soon_threadsafe``; raises the
        job's :class:`~repro.errors.SolveJobError` on failure, exactly
        like the sync ``job.result()``.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()

        def _resolve(j: SolveJob) -> None:
            if future.cancelled():
                return
            error = j.exception()
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(j.result(timeout=0))

        def _bridge(j: SolveJob) -> None:
            # Fired on a worker thread (or synchronously, for jobs
            # already terminal); hop onto the loop before touching the
            # future.  A closed loop means the awaiter is gone.
            try:
                loop.call_soon_threadsafe(_resolve, j)
            except RuntimeError:
                pass

        job.add_done_callback(_bridge)
        return await future

    async def solve(self, overrides: Mapping[str, float] | None = None,
                    **kwargs) -> SolveOutcome:
        """Submit and await the outcome (awaitable ``service.solve``)."""
        job = await self.submit(overrides, **kwargs)
        return await self.result(job)

    async def map(self, conditions: Iterable[Mapping[str, float]],
                  *, tenant: str = "default") -> list[SolveOutcome]:
        """Solve many conditions concurrently; outcomes in input order.

        All jobs are admitted up front (subject to backpressure) and
        gathered together — the awaitable analogue of the sync
        ``service.map``.
        """
        jobs = [await self.submit(cond, tenant=tenant)
                for cond in conditions]
        return list(await asyncio.gather(
            *(self.result(job) for job in jobs)))
