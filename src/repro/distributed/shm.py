"""Shared-memory layout and sync protocol of the sharded solver.

One solve owns two POSIX shared-memory segments:

``data`` (float64)
    ``[x0 | x1 | y | ynorm | xnorm]`` — two full-length iterate
    buffers (ping-pong in barrier mode, only ``x0`` live in chaotic
    mode), the residual-product buffer ``y`` and two ``shards``-wide
    slots per-shard norm reports for the chaotic residual aggregator.

``ctrl`` (int64)
    ``[epoch, cmd, read, …reserved… | done | sweeps | halo_bytes |
    staleness]`` — the protocol header followed by four
    ``shards``-wide counter blocks.  Each worker writes only its own
    slot of each block; the parent only reads them (plus the header,
    which only the parent writes).

The sync protocol is epoch-based rather than a
:class:`multiprocessing.Barrier` so that a killed worker can be
respawned without wedging the survivors: the parent publishes
``(read, cmd)`` and *then* bumps ``epoch``; each worker waits for an
epoch it has not seen, executes the command, and acknowledges by
writing the epoch into its ``done`` slot.  The parent waits for
``done >= epoch`` everywhere.  An epoch aborted by a worker death is
simply never awaited again — the next command gets a fresh epoch and
every write buffer is fully rewritten by the shard that owns it.

Aligned 8-byte loads/stores are atomic on every platform this runs
on, and the single-writer discipline above means no slot is ever
raced; the ``epoch`` store is the release point for the command
fields written before it.
"""

from __future__ import annotations

import time
from multiprocessing import shared_memory

import numpy as np

# Commands the parent publishes (values are arbitrary but stable).
CMD_IDLE = 0          #: initial state, never executed
CMD_SWEEP = 1         #: gather halo from x[read], write block to x[1-read]
CMD_PRODUCT = 3       #: gather, write local rows of y = A @ x[read]
CMD_CHAOTIC = 4       #: ack, then free-run on x0 until the epoch moves
CMD_PAUSE = 5         #: ack only (exits chaotic free-running)
CMD_STOP = 6          #: ack and exit

# ctrl header slots.
IDX_EPOCH = 0
IDX_CMD = 1
IDX_READ = 2
_HEADER = 8


def wait_until(cond, *, timeout_s=None, abort=None,
               poll_s: float = 0.0002) -> bool:
    """Spin-then-sleep until ``cond()`` holds.

    Returns ``False`` on timeout or when ``abort()`` (polled every
    couple of milliseconds) returns true.  The early ``sleep(0)``
    yields keep latency low when a peer is about to flip the flag,
    the short sleeps afterwards keep an oversubscribed host (more
    shards than cores) from burning the very cycles the peer needs.
    """
    t0 = time.perf_counter()
    last_abort = t0
    spins = 0
    while not cond():
        now = time.perf_counter()
        if abort is not None and now - last_abort >= 0.002:
            if abort():
                return False
            last_abort = now
        if timeout_s is not None and now - t0 >= timeout_s:
            return False
        if spins < 50:
            spins += 1
            time.sleep(0)
        else:
            time.sleep(poll_s)
    return True


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without tracker registration.

    Workers must not register the parent-owned segment with their
    ``resource_tracker``: the tracker unlinks registered segments when
    its process exits, which would tear the buffers out from under the
    parent (and spam leak warnings).  Python 3.13 exposes
    ``track=False``; earlier versions need the unregister workaround.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        # Pre-3.13: attach registers with the resource tracker, and a
        # later unregister would race the *parent's* entry when the
        # tracker process is shared (fork).  Suppress the registration
        # itself instead — the worker is single-threaded here.
        from multiprocessing import resource_tracker
        original = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


class SharedState:
    """Typed views over one solve's two shared segments."""

    def __init__(self, data_seg, ctrl_seg, n: int, shards: int,
                 owner: bool):
        self._data_seg = data_seg
        self._ctrl_seg = ctrl_seg
        self._owner = owner
        self.n = int(n)
        self.shards = int(shards)
        self.data = np.ndarray((3 * self.n + 2 * self.shards,),
                               dtype=np.float64, buffer=data_seg.buf)
        self.ctrl = np.ndarray((_HEADER + 4 * self.shards,),
                               dtype=np.int64, buffer=ctrl_seg.buf)

    @classmethod
    def create(cls, n: int, shards: int) -> "SharedState":
        data_seg = shared_memory.SharedMemory(
            create=True, size=max(8, (3 * n + 2 * shards) * 8))
        ctrl_seg = shared_memory.SharedMemory(
            create=True, size=(_HEADER + 4 * shards) * 8)
        state = cls(data_seg, ctrl_seg, n, shards, owner=True)
        state.data[:] = 0.0
        state.ctrl[:] = 0
        return state

    @classmethod
    def attach(cls, data_name: str, ctrl_name: str, *, n: int,
               shards: int) -> "SharedState":
        return cls(_attach_segment(data_name), _attach_segment(ctrl_name),
                   n, shards, owner=False)

    @property
    def names(self) -> tuple[str, str]:
        return (self._data_seg.name, self._ctrl_seg.name)

    # -- float64 views ----------------------------------------------------

    def x(self, index: int) -> np.ndarray:
        """Iterate buffer *index* (0 or 1), full length."""
        base = index * self.n
        return self.data[base:base + self.n]

    @property
    def y(self) -> np.ndarray:
        """The residual-product buffer ``y = A @ x``."""
        return self.data[2 * self.n:3 * self.n]

    @property
    def ynorm(self) -> np.ndarray:
        """Per-shard ``||(A x)_block||_inf`` reports (chaotic mode)."""
        base = 3 * self.n
        return self.data[base:base + self.shards]

    @property
    def xnorm(self) -> np.ndarray:
        """Per-shard ``||x_block||_inf`` reports (chaotic mode)."""
        base = 3 * self.n + self.shards
        return self.data[base:base + self.shards]

    # -- int64 views ------------------------------------------------------

    @property
    def done(self) -> np.ndarray:
        """Last epoch each shard acknowledged."""
        return self.ctrl[_HEADER:_HEADER + self.shards]

    @property
    def sweeps(self) -> np.ndarray:
        """Cumulative *attempted* sweeps per shard (survives respawn;
        incremented before fault checks so an injected kill cannot
        refire forever)."""
        base = _HEADER + self.shards
        return self.ctrl[base:base + self.shards]

    @property
    def halo_bytes(self) -> np.ndarray:
        """Cumulative halo bytes gathered per shard."""
        base = _HEADER + 2 * self.shards
        return self.ctrl[base:base + self.shards]

    @property
    def staleness(self) -> np.ndarray:
        """Max observed sweep lead over the slowest peer (chaotic)."""
        base = _HEADER + 3 * self.shards
        return self.ctrl[base:base + self.shards]

    def close(self) -> None:
        """Release the mappings; the owner also unlinks the segments."""
        self.data = None
        self.ctrl = None
        for seg in (self._data_seg, self._ctrl_seg):
            try:
                seg.close()
            except BufferError:
                # A live view still pins the mmap; the fd is released
                # when it is collected.  Unlinking below is unaffected.
                pass
            if self._owner:
                try:
                    seg.unlink()
                except FileNotFoundError:
                    pass
