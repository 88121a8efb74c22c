"""Content-addressed steady-state solution cache.

Entries are keyed by :meth:`repro.serve.jobs.SolveRequest.cache_key`
and hold the converged probability vector plus the solver diagnostics
needed to reconstruct a :class:`~repro.solvers.result.SolverResult`.

Two safety properties matter more than raw hit rate:

*   **Byte-budgeted LRU.**  Probability vectors over CME state spaces
    are large (``8 * |X|`` bytes each); the cache accounts actual array
    sizes and evicts least-recently-used entries to stay under
    ``max_bytes``, so a long sweep cannot grow memory without bound.

*   **Layout guarding.**  A cached vector is only meaningful in the DFS
    state ordering it was solved in.  Every entry records a ``layout``
    tag (a hash of the enumerated state array); readers pass their own
    layout and mismatching entries are treated as misses.  This is what
    makes *disk* persistence safe across processes that may enumerate
    in a different reaction order.
"""

from __future__ import annotations

import json
import logging
import threading
import zipfile
import zlib
from collections import OrderedDict
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path

import numpy as np

log = logging.getLogger("repro.serve")

from repro.errors import ValidationError
from repro.solvers.result import SolverResult, StopReason

#: Fixed per-entry overhead charged on top of the vector bytes.
ENTRY_OVERHEAD_BYTES = 512


@dataclass
class CacheEntry:
    """One cached steady-state solution."""

    key: str
    p: np.ndarray
    iterations: int
    residual: float
    stop_reason: str
    runtime_s: float
    layout: str

    def __post_init__(self) -> None:
        self.p = np.asarray(self.p, dtype=np.float64)
        self.p.setflags(write=False)

    @property
    def nbytes(self) -> int:
        return int(self.p.nbytes) + ENTRY_OVERHEAD_BYTES

    def to_result(self) -> SolverResult:
        """Reconstruct solver diagnostics for a cache hit."""
        return SolverResult(
            x=self.p.copy(), iterations=self.iterations,
            residual=self.residual,
            stop_reason=StopReason(self.stop_reason),
            residual_history=[], runtime_s=self.runtime_s)


@dataclass
class CacheStats:
    """Hit/miss/eviction accounting (monotonic counters)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_hits: int = 0
    stores: int = 0
    disk_corrupt: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class SolutionCache:
    """In-memory LRU of solutions with optional on-disk persistence.

    Parameters
    ----------
    max_bytes:
        Byte budget for the in-memory tier (vectors + fixed overhead).
    disk_dir:
        Optional directory for write-through persistence.  Entries are
        stored one ``.npz`` per key and consulted on memory misses, so
        a repeated sweep survives process restarts.
    """

    def __init__(self, max_bytes: int = 256 * 1024 * 1024,
                 disk_dir: str | Path | None = None):
        if max_bytes <= 0:
            raise ValidationError("max_bytes must be positive")
        self.max_bytes = int(max_bytes)
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        if self.disk_dir is not None:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        self._bytes = 0
        self.stats = CacheStats()

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def current_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def get(self, key: str, *, layout: str | None = None) -> CacheEntry | None:
        """Look up *key*, falling back to disk; counts a hit or miss.

        A ``layout`` mismatch is a miss: the stored vector indexes a
        different DFS ordering and must not be served.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and (layout is None
                                      or entry.layout == layout):
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return entry
            entry = self._load_disk(key)
            if entry is not None and (layout is None
                                      or entry.layout == layout):
                self.stats.hits += 1
                self.stats.disk_hits += 1
                self._insert(entry)
                return entry
            self.stats.misses += 1
            return None

    def peek(self, key: str, *, layout: str | None = None) -> CacheEntry | None:
        """Like :meth:`get` but without touching hit/miss accounting.

        Used by the warm-start index, whose donor lookups should not
        masquerade as request traffic.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and (layout is None
                                      or entry.layout == layout):
                return entry
            return None

    # -- updates ------------------------------------------------------------

    def put(self, entry: CacheEntry) -> None:
        """Insert (or refresh) an entry; evicts LRU items over budget.

        A write-through that fails (a full or read-only disk) is logged
        and its partial file removed; the entry stays in memory, since
        the answer it holds is valid either way.
        """
        with self._lock:
            self.stats.stores += 1
            self._insert(entry)
            if self.disk_dir is None:
                return
            try:
                self._store_disk(entry)
            except OSError as exc:
                path = self._path(entry.key)
                log.warning("could not write cache file %s (%s)",
                            path.name, exc)
                with suppress(OSError):
                    path.with_suffix(".tmp.npz").unlink()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    # -- internals ----------------------------------------------------------

    def _insert(self, entry: CacheEntry) -> None:
        old = self._entries.pop(entry.key, None)
        if old is not None:
            self._bytes -= old.nbytes
        self._entries[entry.key] = entry
        self._bytes += entry.nbytes
        while self._bytes > self.max_bytes and len(self._entries) > 1:
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= evicted.nbytes
            self.stats.evictions += 1

    def _path(self, key: str) -> Path:
        assert self.disk_dir is not None
        return self.disk_dir / f"{key}.npz"

    @staticmethod
    def _checksum(p: np.ndarray) -> int:
        return zlib.crc32(np.ascontiguousarray(p).tobytes()) & 0xFFFFFFFF

    def _store_disk(self, entry: CacheEntry) -> None:
        meta = json.dumps({
            "key": entry.key,
            "iterations": entry.iterations,
            "residual": entry.residual,
            "stop_reason": entry.stop_reason,
            "runtime_s": entry.runtime_s,
            "layout": entry.layout,
            "crc32": self._checksum(entry.p),
        })
        path = self._path(entry.key)
        tmp = path.with_suffix(".tmp.npz")
        with open(tmp, "wb") as fh:
            np.savez(fh, p=entry.p, meta=np.array(meta))
        tmp.replace(path)

    def _load_disk(self, key: str) -> CacheEntry | None:
        """Read a persisted entry, validating its content checksum.

        A vector whose bytes no longer match the stored CRC32 (torn
        write, disk corruption, manual truncation) is *evicted* — the
        file is deleted so the damage cannot be re-read — and the
        lookup falls through to a miss.
        """
        if self.disk_dir is None:
            return None
        path = self._path(key)
        if not path.exists():
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                meta = json.loads(str(data["meta"]))
                p = np.asarray(data["p"], dtype=np.float64)
            stored = meta.get("crc32")
            if stored is not None and int(stored) != self._checksum(p):
                raise ValueError("checksum mismatch")
        except (OSError, EOFError, KeyError, ValueError,
                json.JSONDecodeError, zipfile.BadZipFile) as exc:
            log.warning("evicting corrupt cache file %s (%s)",
                        path.name, exc)
            self.stats.disk_corrupt += 1
            with suppress(OSError):
                path.unlink()
            return None
        return CacheEntry(
            key=key, p=p, iterations=int(meta["iterations"]),
            residual=float(meta["residual"]),
            stop_reason=str(meta["stop_reason"]),
            runtime_s=float(meta["runtime_s"]),
            layout=str(meta["layout"]))


def state_space_layout(states: np.ndarray) -> str:
    """Layout tag of an enumerated state array (see module docstring)."""
    import hashlib
    states = np.ascontiguousarray(states, dtype=np.int64)
    digest = hashlib.sha256()
    digest.update(str(states.shape).encode())
    digest.update(states.tobytes())
    return digest.hexdigest()
