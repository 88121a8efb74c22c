"""Registry semantics: selection precedence, fallback, telemetry.

The contract under test is the module docstring of
:mod:`repro.backends`: explicit selections fail loudly, ambient
selections degrade with a one-time warning, unsupported (format, op)
pairs silently fall back to the reference backend, and every dispatch
is counted.
"""

import warnings

import numpy as np
import pytest

from repro import backends
from repro.errors import BackendError


class _StubBackend:
    """Minimal protocol implementation used to observe dispatch."""

    name = "stub"
    is_reference = False

    @staticmethod
    def available() -> bool:
        return True

    def supports(self, format_name: str, op: str) -> bool:
        return format_name == "csr"

    def spmv(self, fmt, x):
        return np.zeros(fmt.shape[0])

    def jacobi_sweep(self, A, diag, X, damping=1.0, out=None):
        raise NotImplementedError

    def axpy(self, alpha, x, y, beta=1.0, out=None):
        raise NotImplementedError

    def residual(self, y, x):
        raise NotImplementedError


class _MissingBackend(_StubBackend):
    name = "missing-dep"

    @staticmethod
    def available() -> bool:
        return False


@pytest.fixture
def stub():
    backends.register_backend("stub", _StubBackend)
    try:
        yield backends.get_backend("stub")
    finally:
        backends._REGISTRY.pop("stub", None)
        backends._INSTANCES.pop("stub", None)


@pytest.fixture
def missing():
    backends.register_backend("missing-dep", _MissingBackend)
    try:
        yield "missing-dep"
    finally:
        backends._REGISTRY.pop("missing-dep", None)
        backends._INSTANCES.pop("missing-dep", None)


def test_numpy_backend_always_registered_and_available():
    assert "numpy" in backends.list_backends()
    assert "numpy" in backends.available_backends()
    be = backends.get_backend("numpy")
    assert be.is_reference
    assert be.supports("anything", "spmv")


def test_native_backend_registered():
    # The native backend compiles with the host C compiler; the
    # container ships gcc, so it must be both registered and available.
    assert "native" in backends.list_backends()
    assert "native" in backends.available_backends()


def test_get_backend_unknown_raises():
    with pytest.raises(BackendError, match="unknown backend"):
        backends.get_backend("no-such-backend")


def test_get_backend_unavailable_raises(missing):
    with pytest.raises(BackendError, match="not available"):
        backends.get_backend(missing)


def _drop_native(monkeypatch):
    """Make the registry look like a host where the kernels cannot build."""
    class _NoCompiler(_MissingBackend):
        name = "native"

    monkeypatch.setitem(backends._REGISTRY, "native", _NoCompiler)
    monkeypatch.delitem(backends._INSTANCES, "native", raising=False)


def test_default_resolution_is_native_when_available(monkeypatch):
    monkeypatch.delenv(backends.ENV_VAR, raising=False)
    assert backends.resolve().name == "native"
    _drop_native(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no warning without a compiler
        assert backends.resolve().name == "numpy"


def test_explicit_argument_wins_over_context(stub):
    with backends.use("numpy"):
        assert backends.resolve("stub") is stub


def test_context_wins_over_env(stub, monkeypatch):
    monkeypatch.setenv(backends.ENV_VAR, "numpy")
    with backends.use("stub"):
        assert backends.resolve() is stub


def test_env_wins_over_default(stub, monkeypatch):
    monkeypatch.setenv(backends.ENV_VAR, "stub")
    backends.set_default("numpy")
    try:
        assert backends.resolve() is stub
    finally:
        backends.set_default(None)


def test_set_default_applies_and_clears(stub, monkeypatch):
    monkeypatch.delenv(backends.ENV_VAR, raising=False)
    backends.set_default("stub")
    try:
        assert backends.resolve() is stub
    finally:
        backends.set_default(None)
    assert backends.resolve().name == "native"
    _drop_native(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert backends.resolve().name == "numpy"


def test_use_contexts_nest(stub):
    with backends.use("numpy"):
        with backends.use("stub"):
            assert backends.resolve() is stub
        assert backends.resolve().name == "numpy"


def test_resolve_passes_instances_through(stub):
    assert backends.resolve(stub) is stub


def test_explicit_unknown_selection_raises():
    with pytest.raises(BackendError):
        backends.resolve("no-such-backend")
    with pytest.raises(BackendError):
        with backends.use("no-such-backend"):
            pass  # pragma: no cover - use() raises before entering
    with pytest.raises(BackendError):
        backends.set_default("no-such-backend")


def test_ambient_unavailable_degrades_with_one_warning(missing, monkeypatch):
    monkeypatch.setenv(backends.ENV_VAR, missing)
    backends._WARNED.clear()
    with pytest.warns(RuntimeWarning, match="falling back"):
        assert backends.resolve().name == "numpy"
    # The second resolution is silent (warn-once per source:name).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert backends.resolve().name == "numpy"


def test_serving_falls_back_for_unsupported_pairs(stub):
    be = backends.serving("csr", "spmv", "stub")
    assert be is stub
    fallback = backends.serving("coo", "spmv", "stub")
    assert fallback.name == "numpy"


def test_serving_counts_dispatches(stub):
    backends.reset_kernel_stats()
    backends.serving("csr", "spmv", "stub")
    backends.serving("csr", "spmv", "stub")
    backends.serving("coo", "spmv", "stub")   # falls back -> numpy key
    stats = backends.kernel_stats()
    assert stats[("stub", "csr", "spmv")] == 2
    assert stats[("numpy", "coo", "spmv")] == 1
    backends.reset_kernel_stats()
    assert backends.kernel_stats() == {}
