"""Conformance for the stacked ops (``jacobi_sweep_many``, ``spmv_many``).

The stacked ops operate on ``(n, m)`` system-interleaved blocks —
column ``s`` belongs to ``systems[s]`` — and promise results bit-equal
to ``m`` independent per-system calls, computed here by the ``numpy``
reference.  These tests pin that contract for every backend (both
serve the ops): every width from 1 to 16 plus 64 (whole SIMD chunks,
masked tails, the scalar width-1 product loop), damped sweeps, blocks
compacted after a column retires, ``sweeps=k`` against k single calls,
each SIMD path of the C source built separately (the stacked kernels,
the single-system sliced sweep's cases, the column renormalization and
the scalar DFS walk, which must compile in every build; a build that
fails to compile fails its tests), stacks the interleaved kernel
cannot take (no shared sparsity pattern, more than 64 systems, non-CSR
systems), which are still served bitwise, and the ``ValueError`` for
malformed blocks.

The native sweep op runs a block of at most ``stacked_narrow_max()``
systems (a per-build constant of the C source) as one sliced sweep per
system and wider blocks interleaved, so the widths and each build's
tests below also cross that threshold: a non-finite entry stays in its
own system, ``sweeps=k`` still equals k single calls, and a block
compacted from wide to narrow keeps matching the reference.
"""

import gc
import subprocess
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from repro import backends
from repro.backends import native
from repro.cme.models import toggle_switch
from repro.cme.models.phage_lambda import phage_lambda
from repro.sparse.base import as_csr
from tests.backends.test_renormalize_columns import (
    LENGTHS, assert_renormalizes_like_reference, iterate_block,
    special_block)
from tests.backends.test_sliced_sweep import (SLICED_CASES,
                                              assert_sliced_case_matches)
from tests.cme.test_enumeration_backends import (assert_same_walk,
                                                 gated_first_network,
                                                 nan_gate_network)

STACKED = backends.available_backends()

#: Every width a SIMD path treats differently: whole 4- and 8-lane
#: chunks, every tail length, two chunks, and the widest stack.
WIDTHS = list(range(1, 17)) + [64]

REFERENCE = backends.get_backend("numpy")


@pytest.fixture(params=STACKED)
def backend(request):
    return backends.get_backend(request.param)


def shared_structure_systems(m, n=83, seed=7):
    """``m`` CSR systems sharing one sparsity pattern, distinct values.

    Every other stored entry is scaled per system and the rest are
    left alone, so the blocks carry both the uniform (stored once) and
    the varying (stored m-wide) entries of the compressed value stream.
    """
    rng = np.random.default_rng(seed)
    base = sp.random(n, n, density=0.08, random_state=seed, format="csr")
    base = as_csr(base + sp.diags(rng.random(n) + 1.0))
    systems = []
    for s in range(m):
        A = base.copy()
        # A nonzero scale keeps the pattern (eliminate_zeros has
        # nothing to drop).
        A.data[::2] = A.data[::2] * (0.5 + 0.25 * s)
        systems.append(as_csr(A))
    return systems


def interleaved(systems, seed):
    n = systems[0].shape[0]
    X = np.random.default_rng(seed).random((n, len(systems)))
    D = np.ascontiguousarray(np.stack(
        [np.asarray(A.diagonal(), dtype=np.float64) for A in systems],
        axis=1))
    return D, X


def reference_sweeps(systems, D, X, damping, sweeps=1):
    """Per-system reference sweeps, stacked back into an (n, m) block."""
    return np.stack([
        REFERENCE.jacobi_sweep(A, np.ascontiguousarray(D[:, s]),
                               np.ascontiguousarray(X[:, s]),
                               damping=damping, sweeps=sweeps)
        for s, A in enumerate(systems)], axis=1)


def reference_products(systems, X):
    # The documented contract: bit-equal to per-system products in
    # scipy's CSR accumulation order.
    return np.stack([A @ np.ascontiguousarray(X[:, s])
                     for s, A in enumerate(systems)], axis=1)


@pytest.mark.parametrize("m", WIDTHS)
@pytest.mark.parametrize("damping", [1.0, 0.9])
def test_sweep_many_bitwise_matches_per_system(backend, m, damping):
    systems = shared_structure_systems(m)
    D, X = interleaved(systems, 13)
    got = backend.jacobi_sweep_many(systems, D, X, damping=damping)
    assert got is not None
    assert got.shape == X.shape
    assert np.array_equal(got, reference_sweeps(systems, D, X, damping))


@pytest.mark.parametrize("m", WIDTHS)
def test_spmv_many_bitwise_matches_per_system(backend, m):
    systems = shared_structure_systems(m, seed=19)
    _, X = interleaved(systems, 23)
    got = backend.spmv_many(systems, X)
    assert got is not None
    assert got.shape == X.shape
    assert np.array_equal(got, reference_products(systems, X))


@pytest.mark.parametrize("m", [w for w in WIDTHS if w > 1])
@pytest.mark.parametrize("damping", [1.0, 0.9])
def test_compacted_blocks_match_per_system(backend, m, damping):
    """After retiring every third column, the compacted block (what
    BatchedJacobiSolver carries on) still sweeps and multiplies
    bitwise like the reference."""
    systems = shared_structure_systems(m, seed=47)
    D, X = interleaved(systems, 53)
    keep = [c for c in range(m) if c % 3 != 1]
    live = [systems[c] for c in keep]
    Dk = np.ascontiguousarray(D[:, keep])
    Xk = np.ascontiguousarray(X[:, keep])
    got = backend.jacobi_sweep_many(live, Dk, Xk, damping=damping,
                                    out=np.empty_like(Xk))
    assert np.array_equal(got, reference_sweeps(live, Dk, Xk, damping))
    assert np.array_equal(backend.spmv_many(live, Xk),
                          reference_products(live, Xk))


def test_f_ordered_out_is_refused(backend):
    """``M[:, idx]`` compaction yields F-ordered blocks; the kernels
    write row-major, so such an ``out`` must be refused, not filled.
    An ``out`` that aliases ``X`` is refused too: a damped sweep reads
    ``X`` after it has begun writing.  Every backend refuses both."""
    systems = shared_structure_systems(4)
    D, X = interleaved(systems, 59)
    f_out = np.empty((X.shape[1], X.shape[0])).T
    with pytest.raises(ValueError, match="C-contiguous"):
        backend.jacobi_sweep_many(systems, D, X, out=f_out)
    with pytest.raises(ValueError, match="C-contiguous"):
        backend.spmv_many(systems, X, out=f_out)
    with pytest.raises(ValueError, match="alias"):
        backend.jacobi_sweep_many(systems, D, X, out=X)
    d = D[:, 0].copy()
    with pytest.raises(ValueError, match="C-contiguous"):
        backend.jacobi_sweep(systems[0], d, X, out=f_out)
    before = X.copy()
    with pytest.raises(ValueError, match="alias"):
        backend.jacobi_sweep(systems[0], d, X, damping=0.9, out=X)
    assert np.array_equal(X, before)
    x, y = X[:, 0].copy(), X[:, 1].copy()
    with pytest.raises(ValueError, match="C-contiguous"):
        backend.axpy(2.0, x, y, out=np.empty(2 * x.size)[::2])
    with pytest.raises(ValueError, match="alias"):
        backend.axpy(2.0, x, y, out=y)


@pytest.mark.parametrize("m", [1, 3, 8, 11])
@pytest.mark.parametrize("damping", [1.0, 0.9])
@pytest.mark.parametrize("sweeps", [2, 5])
def test_multi_sweep_many_matches_single_calls(backend, m, damping, sweeps):
    systems = shared_structure_systems(m, seed=61)
    D, X = interleaved(systems, 67)
    expected = X
    for _ in range(sweeps):
        expected = backend.jacobi_sweep_many(systems, D, expected,
                                             damping=damping)
    X_before = X.copy()
    got = backend.jacobi_sweep_many(systems, D, X, damping=damping,
                                    sweeps=sweeps)
    assert np.array_equal(got, expected)
    assert np.array_equal(X, X_before)      # the input is only read
    assert np.array_equal(
        got, reference_sweeps(systems, D, X, damping, sweeps=sweeps))


@pytest.mark.parametrize("name", backends.available_backends())
@pytest.mark.parametrize("kr", [None, 3])
@pytest.mark.parametrize("damping", [1.0, 0.9])
@pytest.mark.parametrize("sweeps", [1, 2, 7])
def test_multi_sweep_matches_single_calls(name, kr, damping, sweeps):
    """``sweeps=k`` equals k single calls, for one column
    (``jacobi_sweep``) and for *kr* columns of one generator (the stack
    ``[A] * kr`` through ``jacobi_sweep_many``)."""
    be = backends.get_backend(name)
    A = shared_structure_systems(1, seed=71)[0]
    n = A.shape[0]
    diag = np.asarray(A.diagonal(), dtype=np.float64)
    rng = np.random.default_rng(73)
    if kr is None:
        X = rng.random(n)

        def sweep(X, out=None, sweeps=1):
            return be.jacobi_sweep(A, diag, X, damping=damping, out=out,
                                   sweeps=sweeps)
        reference = REFERENCE.jacobi_sweep(A, diag, X, damping=damping,
                                           sweeps=sweeps)
    else:
        X = rng.random((n, kr))
        D = np.ascontiguousarray(np.tile(diag[:, None], (1, kr)))

        def sweep(X, out=None, sweeps=1):
            return be.jacobi_sweep_many([A] * kr, D, X, damping=damping,
                                        out=out, sweeps=sweeps)
        reference = reference_sweeps([A] * kr, D, X, damping,
                                     sweeps=sweeps)
    expected = X
    for _ in range(sweeps):
        expected = sweep(expected)
    out = np.empty_like(X)
    got = sweep(X, out=out, sweeps=sweeps)
    assert got is out
    assert np.array_equal(got, expected)
    assert np.array_equal(got, reference)


@pytest.mark.parametrize("name", backends.available_backends())
def test_sweeps_must_be_positive(name):
    be = backends.get_backend(name)
    A = shared_structure_systems(1)[0]
    x = np.ones(A.shape[0])
    with pytest.raises(ValueError, match="sweeps"):
        be.jacobi_sweep(A, np.asarray(A.diagonal()), x, sweeps=0)


# -- each SIMD path of the C source, built on its own -------------------------

#: ``(label, flags, macro the build must define, cpu flag it needs)``:
#: the host-tuned build keeps the AVX-512 paths on an AVX-512 host, the
#: AVX2 build drops them for the 4-lane ones, and the bare build keeps
#: only the scalar loops.
SIMD_BUILDS = [
    ("host", ("-march=native",), None, None),
    ("avx2", ("-mavx2", "-mno-avx512f"), "__AVX2__", "avx2"),
    ("scalar", (), None, None),
]


def _cpu_flags() -> set[str]:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


def _defines(flags) -> str:
    cc = native._find_compiler()
    proc = subprocess.run([cc, *flags, "-dM", "-E", "-x", "c", "-"],
                          input="", capture_output=True, text=True)
    return proc.stdout if proc.returncode == 0 else ""


@pytest.fixture(scope="module", params=SIMD_BUILDS, ids=lambda b: b[0])
def simd_library(request, tmp_path_factory):
    label, flags, macro, cpu_flag = request.param
    if native._find_compiler() is None:
        pytest.skip("no C compiler")
    if cpu_flag is not None and cpu_flag not in _cpu_flags():
        pytest.skip(f"host cannot run {cpu_flag} code")
    defines = _defines(flags)
    if macro is not None:
        assert f"#define {macro} " in defines
    if label == "host" and "avx512f" in _cpu_flags():
        assert "#define __AVX512F__ " in defines
    if label in ("avx2", "scalar"):
        assert "#define __AVX512F__ " not in defines
    if label == "scalar":
        assert "#define __AVX2__ " not in defines
    sopath = tmp_path_factory.mktemp(f"simd-{label}") / "kernels.so"
    # The compiler and the host take these flags (checked above), so a
    # failed build is C code that one SIMD path cannot compile, not a
    # host without that path: it fails every test of the build.
    try:
        native.build_library(str(sopath), flags)
    except native.NativeCompileError as exc:
        pytest.fail(f"{label} build failed: {exc}")
    import ctypes
    lib = ctypes.CDLL(str(sopath))
    native._bind(lib)
    return lib


@pytest.mark.parametrize("damping", [1.0, 0.9])
def test_every_simd_build_matches_reference(simd_library, monkeypatch,
                                            damping):
    monkeypatch.setattr(native, "_lib", simd_library)
    be = native.NativeBackend()
    for m in WIDTHS:
        systems = shared_structure_systems(m, seed=79)
        D, X = interleaved(systems, 83)
        assert np.array_equal(
            be.jacobi_sweep_many(systems, D, X, damping=damping, sweeps=3),
            reference_sweeps(systems, D, X, damping, sweeps=3)), m
        assert np.array_equal(be.spmv_many(systems, X),
                              reference_products(systems, X)), m
    A = systems[0]
    diag = np.asarray(A.diagonal(), dtype=np.float64)
    x = X[:, 0].copy()
    assert np.array_equal(
        be.jacobi_sweep(A, diag, x, damping=damping, sweeps=3),
        REFERENCE.jacobi_sweep(A, diag, x, damping=damping, sweeps=3))
    for _, n, long_row in SLICED_CASES:
        assert_sliced_case_matches(be, n, long_row, damping)


def assert_identical_stacks_match(be, widths):
    """``[A] * m`` (one generator repeated, as a batch of one system
    sweeps it) through *be*'s stacked ops equals *be*'s per-system
    calls and the reference, bitwise, at every width in *widths*."""
    A = shared_structure_systems(1, seed=127)[0]
    n = A.shape[0]
    diag = np.asarray(A.diagonal(), dtype=np.float64)
    for m in widths:
        systems = [A] * m
        X = np.random.default_rng(m).random((n, m))
        D = np.ascontiguousarray(np.tile(diag[:, None], (1, m)))
        for damping, sweeps in ((1.0, 1), (0.9, 3)):
            got = be.jacobi_sweep_many(systems, D, X, damping=damping,
                                       sweeps=sweeps)
            per_system = np.stack(
                [be.jacobi_sweep(A, diag, X[:, s].copy(), damping=damping,
                                 sweeps=sweeps) for s in range(m)], axis=1)
            assert np.array_equal(got, per_system), (m, damping)
            assert np.array_equal(
                got, reference_sweeps(systems, D, X, damping, sweeps)), m
        assert np.array_equal(be.spmv_many(systems, X),
                              reference_products(systems, X)), m


#: 2, both sides of every build's narrow threshold (3, 4 or 6), 8 and
#: the widest stack.
IDENTICAL_WIDTHS = [2, 3, 4, 5, 6, 7, 8, 64]


def test_identical_stacks_match_per_system(backend):
    assert_identical_stacks_match(backend, IDENTICAL_WIDTHS)


def test_every_simd_build_sweeps_identical_stacks(simd_library,
                                                  monkeypatch):
    monkeypatch.setattr(native, "_lib", simd_library)
    assert_identical_stacks_match(native.NativeBackend(), IDENTICAL_WIDTHS)


def test_identical_stack_prep_dies_with_its_matrix():
    """The stacked preparation cached on ``[A] * 5``'s head pins no
    other system, so it makes no reference cycle: with the cyclic
    collector off, *A* dies with its last strong reference."""
    if "native" not in STACKED:
        pytest.skip("native kernels do not build here")
    be = backends.get_backend("native")
    A = shared_structure_systems(1, seed=131)[0]
    n = A.shape[0]
    D = np.ascontiguousarray(np.tile(A.diagonal()[:, None], (1, 5)))
    X = np.full((n, 5), 1.0 / n)
    gc.collect()
    gc.disable()
    try:
        be.jacobi_sweep_many([A] * 5, D, X, damping=0.9)
        be.spmv_many([A] * 5, X)
        assert getattr(A, native._STACK_ATTR, None) is not None
        ref = weakref.ref(A)
        del A
        assert ref() is None
    finally:
        gc.enable()


def narrow_max(lib) -> int:
    """The widest block *lib*'s sweep op runs as per-system sliced
    sweeps."""
    return int(lib.stacked_narrow_max())


def threshold_widths(lib) -> list[int]:
    """Widths on both sides of *lib*'s narrow threshold."""
    top = narrow_max(lib)
    return sorted({1, top - 1, top, top + 1, top + 2} - {0})


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_every_simd_build_keeps_a_nonfinite_entry_in_its_system(
        simd_library, monkeypatch, bad):
    """A non-finite x entry of one system reaches that system's rows
    that read it, and nothing of the other systems, on both sides of
    the narrow threshold."""
    monkeypatch.setattr(native, "_lib", simd_library)
    be = native.NativeBackend()
    for m in threshold_widths(simd_library):
        systems = shared_structure_systems(m, seed=97)
        D, X = interleaved(systems, 101)
        hit, j = m - 1, 40
        X[j, hit] = bad
        got = be.jacobi_sweep_many(systems, D, X, damping=0.9)
        with np.errstate(invalid="ignore"):  # inf - inf in row j
            ref = reference_sweeps(systems, D, X, 0.9)
        assert np.array_equal(got, ref, equal_nan=True), m
        readers = np.flatnonzero(systems[hit][:, j].toarray().ravel())
        assert np.array_equal(np.flatnonzero(~np.isfinite(got[:, hit])),
                              readers), m
        assert np.isfinite(np.delete(got, hit, axis=1)).all(), m


@pytest.mark.parametrize("sweeps", [2, 5])
def test_every_simd_build_multi_sweeps_across_the_threshold(
        simd_library, monkeypatch, sweeps):
    """``sweeps=k`` equals k single calls at widths on both sides of
    the threshold, and *X* is only read."""
    monkeypatch.setattr(native, "_lib", simd_library)
    be = native.NativeBackend()
    for m in threshold_widths(simd_library):
        systems = shared_structure_systems(m, seed=103)
        D, X = interleaved(systems, 107)
        expected = X
        for _ in range(sweeps):
            expected = be.jacobi_sweep_many(systems, D, expected,
                                             damping=0.9)
        X_before = X.copy()
        got = be.jacobi_sweep_many(systems, D, X, damping=0.9,
                                   sweeps=sweeps)
        assert np.array_equal(got, expected), m
        assert np.array_equal(X, X_before), m
        assert np.array_equal(
            got, reference_sweeps(systems, D, X, 0.9, sweeps=sweeps)), m


def test_every_simd_build_compacts_from_wide_to_narrow(simd_library,
                                                       monkeypatch):
    """A block compacted from two past the threshold down to it, and
    down to one system, sweeps like the reference at every step."""
    monkeypatch.setattr(native, "_lib", simd_library)
    be = native.NativeBackend()
    top = narrow_max(simd_library)
    systems = shared_structure_systems(top + 2, seed=109)
    D, X = interleaved(systems, 113)
    live = list(range(top + 2))
    for keep in (live, live[1:-1], live[-2:-1]):
        # X holds the columns of the systems in live; keep a subset.
        X = np.ascontiguousarray(X[:, [live.index(c) for c in keep]])
        Dk = np.ascontiguousarray(D[:, keep])
        sub = [systems[c] for c in keep]
        out = be.jacobi_sweep_many(sub, Dk, X, damping=0.9, sweeps=3,
                                   out=np.empty_like(X))
        assert np.array_equal(
            out, reference_sweeps(sub, Dk, X, 0.9, sweeps=3)), len(keep)
        X, live = out, keep


def test_every_simd_build_renormalizes_like_reference(simd_library,
                                                      monkeypatch):
    """The column renormalization's pairwise sums and its gate compile,
    and match ``renormalize`` bitwise, in every build."""
    monkeypatch.setattr(native, "_lib", simd_library)
    be = native.NativeBackend()
    for n in LENGTHS:
        for m in WIDTHS:
            assert_renormalizes_like_reference(
                be, iterate_block(n, m, 1000 * n + m))
    for n in (2, 9, 129, 2304):
        assert_renormalizes_like_reference(be, special_block(n))


def test_every_simd_build_enumerates_like_reference(simd_library,
                                                    monkeypatch):
    """The scalar DFS walk compiles, and keeps the reference's state
    order, in every build; a one-row first buffer makes it grow."""
    monkeypatch.setattr(native, "_lib", simd_library)
    monkeypatch.setattr(native, "_DFS_FIRST_ROWS", 1)
    for network in (phage_lambda(max_monomer=4, max_dimer=2),
                    toggle_switch(max_protein=9), gated_first_network(),
                    nan_gate_network()):
        assert_same_walk(network)


def test_every_simd_build_indexes_keys_like_reference(simd_library,
                                                     monkeypatch):
    """The key_index table compiles, and answers like the sorted
    reference, in every build; batches of 5 make it grow."""
    from repro.backends.reference import SortedKeyIndex
    monkeypatch.setattr(native, "_lib", simd_library)
    rng = np.random.default_rng(89)
    keys = rng.permutation(np.unique(rng.integers(0, 1 << 30, 900)))
    table = native.HashKeyIndex(keys[:5])
    for lo in range(5, keys.size, 5):
        table.extend(keys[lo:lo + 5])
    probes = np.concatenate([keys, rng.integers(-2, 1 << 30, 900), [-1]])
    assert np.array_equal(table.lookup(probes),
                          SortedKeyIndex(keys).lookup(probes))


def test_sweep_many_out_is_returned_and_filled(backend):
    systems = shared_structure_systems(8)
    n = systems[0].shape[0]
    rng = np.random.default_rng(29)
    X = np.ascontiguousarray(rng.random((n, 8)))
    D = np.ascontiguousarray(np.stack(
        [np.asarray(A.diagonal(), dtype=np.float64) for A in systems],
        axis=1))
    out = np.empty((n, 8))
    got = backend.jacobi_sweep_many(systems, D, X, out=out)
    assert got is out
    assert np.array_equal(out, backend.jacobi_sweep_many(systems, D, X))


def mixed_sparsity_systems(m, seed=31):
    """``m`` CSR systems whose last one has its own sparsity pattern."""
    systems = shared_structure_systems(m)
    rng = np.random.default_rng(seed)
    n = systems[0].shape[0]
    systems[-1] = as_csr(sp.random(n, n, density=0.11, random_state=99,
                                   format="csr")
                         + sp.diags(rng.random(n) + 1.0))
    return systems


@pytest.mark.parametrize("m", [1, 2, 3, 5, 9, 64])
@pytest.mark.parametrize("damping", [1.0, 0.9])
def test_mismatched_sparsity_sweeps_per_system(backend, m, damping):
    """Systems without one shared pattern are swept (native: one sliced
    sweep per system) and multiplied bitwise like the reference."""
    systems = mixed_sparsity_systems(m)
    D, X = interleaved(systems, 31)
    assert np.array_equal(
        backend.jacobi_sweep_many(systems, D, X, damping=damping,
                                  sweeps=3),
        reference_sweeps(systems, D, X, damping, sweeps=3))
    assert np.array_equal(backend.spmv_many(systems, X),
                          reference_products(systems, X))


@pytest.mark.parametrize("m", [65, 70])
def test_stacks_wider_than_the_kernel_sweep_per_system(backend, m):
    """More than 64 systems sharing a pattern still sweep and multiply
    bitwise like the reference (native: one sliced sweep per system)."""
    systems = shared_structure_systems(m, n=41)
    D, X = interleaved(systems, 37)
    assert np.array_equal(
        backend.jacobi_sweep_many(systems, D, X, damping=0.9, sweeps=2),
        reference_sweeps(systems, D, X, 0.9, sweeps=2))
    assert np.array_equal(backend.spmv_many(systems, X),
                          reference_products(systems, X))


def test_wrong_block_shape_raises(backend):
    systems = shared_structure_systems(4)
    n = systems[0].shape[0]
    rng = np.random.default_rng(37)
    good = np.ascontiguousarray(rng.random((n, 4)))
    transposed = np.ascontiguousarray(rng.random((4, n)))
    D = np.ones((n, 4))
    with pytest.raises(ValueError, match="X must be"):
        backend.jacobi_sweep_many(systems, D, transposed)
    with pytest.raises(ValueError, match="diag must be"):
        backend.jacobi_sweep_many(systems, np.ones((4, n)), good)
    with pytest.raises(ValueError, match="X must be"):
        backend.spmv_many(systems, transposed)
    small = shared_structure_systems(1, n=n - 1)
    with pytest.raises(ValueError):
        backend.jacobi_sweep_many(systems[:3] + small, D, good)
    with pytest.raises(ValueError):
        backend.spmv_many(systems[:3] + small, good)
    with pytest.raises(ValueError, match="square"):
        backend.jacobi_sweep_many([sp.csr_matrix((n, n + 1))], D[:, :1],
                                  good[:, :1])


def test_non_csr_and_empty_lists_are_not_stackable(backend):
    """Dense systems take the reference's per-system loop (a dense
    product sums in its own order, hence the tolerance); an empty
    stack is refused."""
    systems = shared_structure_systems(2)
    dense = [np.asarray(A.todense()) for A in systems]
    D, X = interleaved(systems, 41)
    np.testing.assert_allclose(backend.jacobi_sweep_many(dense, D, X),
                               reference_sweeps(systems, D, X, 1.0),
                               rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(backend.spmv_many(dense, X),
                               reference_products(systems, X),
                               rtol=1e-12, atol=1e-14)
    n = systems[0].shape[0]
    with pytest.raises(ValueError, match="at least one system"):
        backend.jacobi_sweep_many([], np.ones((n, 0)), np.ones((n, 0)))
    with pytest.raises(ValueError, match="at least one system"):
        backend.spmv_many([], np.ones((n, 0)))


def test_fresh_equal_lists_reuse_the_stacked_prep(backend):
    """Re-listing the same matrices must not change results (or crash)."""
    systems = shared_structure_systems(8, seed=41)
    n = systems[0].shape[0]
    rng = np.random.default_rng(43)
    X = np.ascontiguousarray(rng.random((n, 8)))
    first = backend.spmv_many(systems, X)
    again = backend.spmv_many(list(systems), X)
    assert np.array_equal(first, again)
