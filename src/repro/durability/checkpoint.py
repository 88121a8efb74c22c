"""Versioned, checksummed, atomically-written solve checkpoints.

A checkpoint file is one self-validating binary record::

    magic   b"RCPK"                      (4 bytes)
    version u32 little-endian            (currently 1)
    hlen    u32 little-endian            (header length in bytes)
    crc     u32 little-endian            (CRC32 over header + payload)
    header  UTF-8 JSON, ``hlen`` bytes
    payload concatenated raw array bytes, in header order

The header carries everything needed to rebuild the arrays (name,
dtype, shape, byte length), the producing layer (``kind``), a caller
``signature`` pinning the system being solved, the ``iteration``
reached, and an arbitrary JSON ``meta`` dict (residual history,
stopping-criterion state, shard topology, FSP round records, ...).

Three properties make this crash-safe:

* **Atomic visibility** — the record is written to a same-directory
  temporary file, flushed and fsynced, then :func:`os.replace`'d into
  place (and the directory fsynced), so a reader never observes a
  half-renamed file under POSIX semantics.
* **Self-validation** — magic, version, lengths and the CRC are checked
  on read; a torn tail, flipped bit or truncated payload raises
  :class:`~repro.errors.CheckpointError` instead of returning garbage.
* **Fallback** — :meth:`Checkpointer.load_latest` walks the retained
  files newest-first and resumes from the first one that validates,
  logging a warning for each rejected file.

The ``checkpoint.write`` fault site (:mod:`repro.resilience.faults`,
kinds ``torn``/``corrupt``) damages the encoded bytes *before* the
atomic write, so chaos tests exercise exactly the read-side validation
path a real crash would.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import struct
import time
import zlib
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path

import numpy as np

from repro.errors import CheckpointError, ValidationError
from repro.telemetry.metrics import get_registry

log = logging.getLogger("repro.durability")

MAGIC = b"RCPK"
VERSION = 1
_PREAMBLE = struct.Struct("<4sIII")  # magic, version, header len, crc32

#: File-name pattern of retained checkpoints inside a checkpoint
#: directory; the zero-padded iteration makes lexical order == age.
FILE_PATTERN = "ckpt-*.ckpt"


def system_signature(A, *, method: str = "", tol: float = 0.0,
                     extra: str = "") -> str:
    """A short content hash pinning *what is being solved, and how*.

    Built from the assembled matrix (shape, nnz, structure and values)
    plus the solver method and tolerance, so a checkpoint written for
    one system can never silently seed a resume of another.  ``extra``
    folds in layer-specific parameters (e.g. FSP tolerances) that also
    change the answer.
    """
    h = sha256()
    h.update(repr(getattr(A, "shape", None)).encode())
    h.update(str(getattr(A, "nnz", "")).encode())
    for part in ("indptr", "indices", "data"):
        arr = getattr(A, part, None)
        if arr is not None:
            h.update(np.ascontiguousarray(arr).tobytes())
    h.update(f"|{method}|{tol!r}|{extra}".encode())
    return h.hexdigest()[:16]


def network_signature(network, *, extra: str = "") -> str:
    """Like :func:`system_signature` but for a reaction network (the
    FSP controller checkpoints before any single matrix exists)."""
    h = sha256()
    h.update(network.canonical_signature().encode())
    h.update(f"|{extra}".encode())
    return h.hexdigest()[:16]


@dataclass
class CheckpointData:
    """One validated checkpoint, decoded back into arrays + metadata."""

    signature: str
    kind: str
    iteration: int
    meta: dict
    arrays: dict[str, np.ndarray]
    path: Path | None = None


@dataclass(frozen=True)
class CheckpointPolicy:
    """When to write, and how many files to retain.

    A save is due when *either* trigger fires: ``every_iterations``
    iterations have passed since the last durable save, or
    ``every_seconds`` wall-clock seconds have (set a trigger to
    ``None`` to disable it).  ``keep_last`` caps the number of retained
    files; older ones are deleted after each successful write, so at
    least one intact older checkpoint always survives a torn newest.
    """

    every_iterations: int | None = 1000
    every_seconds: float | None = None
    keep_last: int = 3

    def __post_init__(self) -> None:
        if self.every_iterations is None and self.every_seconds is None:
            raise ValidationError(
                "checkpoint policy needs at least one trigger "
                "(every_iterations or every_seconds)")
        if self.every_iterations is not None and self.every_iterations <= 0:
            raise ValidationError("every_iterations must be positive")
        if self.every_seconds is not None and not self.every_seconds > 0:
            raise ValidationError("every_seconds must be positive")
        if self.keep_last <= 0:
            raise ValidationError("keep_last must be positive")

    def due(self, iterations_since: int, seconds_since: float) -> bool:
        """Whether a save is due after the given progress deltas."""
        if (self.every_iterations is not None
                and iterations_since >= self.every_iterations):
            return True
        return (self.every_seconds is not None
                and seconds_since >= self.every_seconds)


def _encode(*, signature: str, kind: str, iteration: int,
            arrays: dict[str, np.ndarray], meta: dict | None) -> bytes:
    descriptors = []
    chunks = []
    for name, array in arrays.items():
        arr = np.ascontiguousarray(array)
        raw = arr.tobytes()
        descriptors.append({"name": str(name), "dtype": arr.dtype.str,
                            "shape": list(arr.shape), "nbytes": len(raw)})
        chunks.append(raw)
    header = json.dumps({
        "signature": str(signature),
        "kind": str(kind),
        "iteration": int(iteration),
        "meta": meta or {},
        "arrays": descriptors,
    }, sort_keys=True, separators=(",", ":")).encode()
    payload = b"".join(chunks)
    crc = zlib.crc32(header + payload) & 0xFFFFFFFF
    return _PREAMBLE.pack(MAGIC, VERSION, len(header), crc) + header + payload


def write_checkpoint(path, *, signature: str, kind: str, iteration: int,
                     arrays: dict[str, np.ndarray],
                     meta: dict | None = None) -> Path:
    """Atomically write one checkpoint record to *path*.

    The bytes pass through the ``checkpoint.write`` fault site first,
    so an installed chaos plan can tear or flip them; the (possibly
    damaged) record is then written tmp + fsync + rename, and the
    containing directory fsynced.  Returns the final path.
    """
    path = Path(path)
    blob = _encode(signature=signature, kind=kind, iteration=iteration,
                   arrays=arrays, meta=meta)
    from repro.resilience.faults import active_injector
    injector = active_injector()
    if injector is not None:
        blob, _ = injector.corrupt_blob("checkpoint.write", blob,
                                        detail=path.name)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(OSError):
            tmp.unlink()
    with contextlib.suppress(OSError):
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    return path


def read_checkpoint(path, *, expected_signature: str | None = None,
                    expected_kind: str | None = None) -> CheckpointData:
    """Read and fully validate one checkpoint record.

    Raises :class:`~repro.errors.CheckpointError` on any defect: bad
    magic, unsupported version, truncated header or payload, CRC
    mismatch, malformed header JSON, or (when requested) a signature or
    kind that does not match the resuming caller.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(blob) < _PREAMBLE.size:
        raise CheckpointError(
            f"checkpoint {path.name} truncated: {len(blob)} bytes is "
            f"shorter than the {_PREAMBLE.size}-byte preamble")
    magic, version, hlen, crc = _PREAMBLE.unpack_from(blob)
    if magic != MAGIC:
        raise CheckpointError(
            f"checkpoint {path.name} has bad magic {magic!r}")
    if version != VERSION:
        raise CheckpointError(
            f"checkpoint {path.name} has unsupported version {version} "
            f"(this build reads version {VERSION})")
    body = blob[_PREAMBLE.size:]
    if len(body) < hlen:
        raise CheckpointError(
            f"checkpoint {path.name} truncated inside its header "
            f"({len(body)} < {hlen} bytes)")
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise CheckpointError(
            f"checkpoint {path.name} failed CRC validation "
            "(torn or corrupt write)")
    try:
        header = json.loads(body[:hlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(
            f"checkpoint {path.name} has unparseable header: {exc}") from exc
    payload = body[hlen:]
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for desc in header.get("arrays", []):
        nbytes = int(desc["nbytes"])
        chunk = payload[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise CheckpointError(
                f"checkpoint {path.name} truncated inside array "
                f"{desc['name']!r}")
        arrays[desc["name"]] = np.frombuffer(
            chunk, dtype=np.dtype(desc["dtype"])).reshape(desc["shape"]).copy()
        offset += nbytes
    if offset != len(payload):
        raise CheckpointError(
            f"checkpoint {path.name} has {len(payload) - offset} trailing "
            "payload bytes not covered by its header")
    data = CheckpointData(signature=header.get("signature", ""),
                          kind=header.get("kind", ""),
                          iteration=int(header.get("iteration", 0)),
                          meta=header.get("meta", {}) or {},
                          arrays=arrays, path=path)
    if expected_signature is not None and data.signature != expected_signature:
        raise CheckpointError(
            f"checkpoint {path.name} was written for signature "
            f"{data.signature!r}, not {expected_signature!r} — refusing "
            "to resume a different system")
    if expected_kind is not None and data.kind != expected_kind:
        raise CheckpointError(
            f"checkpoint {path.name} holds {data.kind!r} state, "
            f"expected {expected_kind!r}")
    return data


@dataclass
class Checkpointer:
    """Policy-driven checkpoint writer/loader over one directory.

    One Checkpointer serves one logical solve: its ``signature`` pins
    the system, its ``policy`` decides cadence and retention, and
    ``resume`` is the caller's declared intent (solvers only attempt
    :meth:`load_latest` when it is set).  Thread-compatible, not
    thread-safe — each solve drives its own instance from one thread.
    """

    directory: Path
    signature: str
    policy: CheckpointPolicy = field(default_factory=CheckpointPolicy)
    resume: bool = False
    saves: int = field(default=0, init=False)
    rejected: int = field(default=0, init=False)
    resumed_from: Path | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        self.directory = Path(self.directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._last_iteration = 0
        self._last_wall = time.monotonic()
        reg = get_registry()
        self._writes = reg.counter(
            "durability_checkpoint_writes_total",
            "durable checkpoint files written")
        self._resumes = reg.counter(
            "durability_checkpoint_resumes_total",
            "solves resumed from a durable checkpoint")
        self._rejects = reg.counter(
            "durability_checkpoint_rejected_total",
            "checkpoint files rejected as torn/corrupt/mismatched")

    def files(self) -> list[Path]:
        """Retained checkpoint files, oldest first."""
        return sorted(self.directory.glob(FILE_PATTERN))

    def load_latest(self, *, kind: str | None = None) -> CheckpointData | None:
        """The newest checkpoint that validates, or ``None``.

        Walks retained files newest-first; every rejected file logs a
        warning and bumps the rejected counter, then the next-oldest is
        tried — the fallback ladder torn-write recovery relies on.
        """
        for path in reversed(self.files()):
            try:
                data = read_checkpoint(path, expected_signature=self.signature,
                                       expected_kind=kind)
            except CheckpointError as exc:
                log.warning("skipping checkpoint %s: %s", path.name, exc)
                self.rejected += 1
                self._rejects.inc()
                continue
            self._last_iteration = data.iteration
            self._last_wall = time.monotonic()
            self.resumed_from = path
            self._resumes.inc()
            log.info("resuming from checkpoint %s (iteration %d)",
                     path.name, data.iteration)
            return data
        return None

    def due(self, iteration: int) -> bool:
        """Whether the policy wants a save at *iteration*.

        Solver loops ask this before building a snapshot, so a check
        that saves nothing copies nothing.
        """
        return self.policy.due(iteration - self._last_iteration,
                               time.monotonic() - self._last_wall)

    def save(self, iteration: int, arrays: dict[str, np.ndarray],
             meta: dict | None = None, *, kind: str = "solver") -> Path:
        """Unconditionally write a checkpoint and rotate old files."""
        path = self.directory / f"ckpt-{int(iteration):012d}.ckpt"
        write_checkpoint(path, signature=self.signature, kind=kind,
                         iteration=iteration, arrays=arrays, meta=meta)
        self._last_iteration = int(iteration)
        self._last_wall = time.monotonic()
        self.saves += 1
        self._writes.inc()
        retained = self.files()
        while len(retained) > self.policy.keep_last:
            oldest = retained.pop(0)
            with contextlib.suppress(OSError):
                oldest.unlink()
        return path
