"""Pluggable kernel backends for the sparse/solver hot paths.

Every hot operation — per-format SpMV, the fused Jacobi sweep of one
system or of a stack, the solver's vector primitives, the DFS
state-space walk and state-key membership — dispatches through a
:class:`~repro.backends.protocol.KernelBackend` selected here.

Selection precedence (first hit wins):

1. an explicit ``backend=`` argument on the format/solver call;
2. the innermost active :func:`use` context;
3. the ``REPRO_BACKEND`` environment variable;
4. the process default set by :func:`set_default`;
5. the ``native`` backend when its kernel library compiles and loads
   on this host, else the ``numpy`` reference backend (silently — a
   host without a C compiler is a supported configuration).

Explicit selections (1, 2) of an unknown or unavailable backend raise
:class:`~repro.errors.BackendError`; ambient selections (3, 4) warn
once and degrade to the reference backend, so e.g. inheriting
``REPRO_BACKEND=native`` on a host without a C compiler never breaks a
run.  When the selected backend lacks a kernel for a specific
``(format, op)`` pair the registry silently serves it from the
reference backend instead — recorded, like every dispatch, in the
telemetry counters exposed by :func:`kernel_stats`.

Shipped backends: ``numpy`` (the reference every parity test compares
against, always available) and ``native`` (JIT-compiled C via ctypes,
available wherever a C compiler is; bitwise-identical to the
reference).
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import threading
import warnings
from collections import Counter

from repro.backends.protocol import CORE_FORMATS, OPS, KernelBackend
from repro.backends.reference import NumpyBackend
from repro.errors import BackendError

__all__ = [
    "CORE_FORMATS",
    "OPS",
    "KernelBackend",
    "available_backends",
    "get_backend",
    "kernel_stats",
    "list_backends",
    "register_backend",
    "reset_kernel_stats",
    "resolve",
    "serving",
    "set_default",
    "use",
]

#: Environment variable consulted on every resolve (read per call so
#: tests and CLI subprocesses can flip it without re-importing).
ENV_VAR = "REPRO_BACKEND"

#: Per-(backend, format, op) dispatch counters; the span annotations in
#: solvers/gpusim cover *where*, these cover *how often* and expose the
#: silent fallback volume.
_SERVED: Counter = Counter()
_SERVED_LOCK = threading.Lock()

_REGISTRY: dict[str, type] = {}
_INSTANCES: dict[str, KernelBackend] = {}
_INSTANCE_LOCK = threading.Lock()

_default_name: str | None = None
_active: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_backend", default=None)

#: Ambient (env/default) selections that already warned about being
#: unavailable, so a long run logs each degradation once.
_WARNED: set[str] = set()


def register_backend(name: str, cls: type) -> None:
    """Register a backend class.

    ``cls`` must implement the :class:`KernelBackend` protocol and
    provide a static/class-level ``available() -> bool``; instances are
    created lazily, once, on first resolve.
    """
    _REGISTRY[name] = cls


def list_backends() -> tuple[str, ...]:
    """Names of all registered backends (available or not)."""
    return tuple(_REGISTRY)


def available_backends() -> tuple[str, ...]:
    """Names of backends that can actually serve on this host."""
    return tuple(n for n, cls in _REGISTRY.items() if cls.available())


def get_backend(name: str) -> KernelBackend:
    """The (singleton) backend instance for *name*.

    Raises :class:`BackendError` for unknown names and for registered
    backends whose dependency is missing on this host.
    """
    inst = _INSTANCES.get(name)
    if inst is not None:
        return inst
    cls = _REGISTRY.get(name)
    if cls is None:
        raise BackendError(
            f"unknown backend {name!r}; registered: {list_backends()}")
    if not cls.available():
        raise BackendError(
            f"backend {name!r} is not available on this host "
            f"(available: {available_backends()})")
    with _INSTANCE_LOCK:
        inst = _INSTANCES.get(name)
        if inst is None:
            inst = cls()
            _INSTANCES[name] = inst
    return inst


def set_default(name: str | None) -> None:
    """Set (or with ``None`` clear) the process-wide default backend.

    Validates eagerly: setting an unknown/unavailable default raises
    immediately rather than at the first kernel call.
    """
    global _default_name
    if name is not None:
        get_backend(name)
    _default_name = name


@contextlib.contextmanager
def use(name: str):
    """Context manager selecting *name* for all kernels in the block.

    Context-local (``contextvars``), so concurrent serve workers can
    pin different backends without interfering.
    """
    get_backend(name)  # explicit selection: validate eagerly, raise loudly
    token = _active.set(name)
    try:
        yield
    finally:
        _active.reset(token)


def _ambient(name: str, source: str) -> KernelBackend | None:
    """Resolve an env/default selection, degrading with a one-time warning."""
    try:
        return get_backend(name)
    except BackendError as exc:
        key = f"{source}:{name}"
        if key not in _WARNED:
            _WARNED.add(key)
            warnings.warn(
                f"{source} selects backend {name!r} but it is unavailable "
                f"({exc}); falling back to the reference backend",
                RuntimeWarning, stacklevel=3)
        return None


def resolve(backend=None) -> KernelBackend:
    """The backend the current call should use (see module docstring).

    *backend* may be ``None``, a backend name, or an already-resolved
    :class:`KernelBackend` instance (passed through unchanged).
    """
    if backend is not None:
        if isinstance(backend, str):
            return get_backend(backend)
        return backend
    ctx = _active.get()
    if ctx is not None:
        return get_backend(ctx)
    env = os.environ.get(ENV_VAR)
    degraded = False
    if env:
        inst = _ambient(env, f"{ENV_VAR} environment variable")
        if inst is not None:
            return inst
        degraded = True
    if _default_name is not None:
        inst = _ambient(_default_name, "the process default backend")
        if inst is not None:
            return inst
        degraded = True
    # A failed ambient selection degrades to the reference, as its
    # warning says; with no selection at all, native is preferred.
    if not degraded:
        native = _REGISTRY.get("native")
        if native is not None and native.available():
            return get_backend("native")
    return get_backend("numpy")


def serving(format_name: str, op: str, backend=None) -> KernelBackend:
    """Resolve and capability-check: the backend that will serve
    ``(format_name, op)``, falling back to the reference backend for
    unsupported pairs.  Every call increments the dispatch counters.
    """
    be = resolve(backend)
    if not be.is_reference and not be.supports(format_name, op):
        be = get_backend("numpy")
    with _SERVED_LOCK:
        _SERVED[(be.name, format_name, op)] += 1
    return be


def kernel_stats() -> dict[tuple[str, str, str], int]:
    """Dispatch counts keyed by ``(backend, format, op)``.

    A non-reference selection showing ``("numpy", fmt, op)`` entries
    reveals the silent-fallback volume for unsupported pairs.
    """
    with _SERVED_LOCK:
        return dict(_SERVED)


def reset_kernel_stats() -> None:
    """Zero the dispatch counters (bench/test isolation)."""
    with _SERVED_LOCK:
        _SERVED.clear()


def _register_builtin() -> None:
    # The native module imports only the standard library, NumPy/SciPy,
    # repro.errors and the reference backend, and compiles nothing until
    # first use; availability is probed lazily.
    from repro.backends.native import NativeBackend

    register_backend("numpy", NumpyBackend)
    register_backend("native", NativeBackend)


_register_builtin()
