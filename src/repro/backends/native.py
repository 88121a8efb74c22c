"""The ``native`` backend: JIT-compiled C kernels loaded via ctypes.

On first use the embedded C source below is compiled with the system C
compiler (``cc``/``gcc``/``clang``) into a shared library cached under
``~/.cache/repro-native`` (override with ``REPRO_NATIVE_CACHE``), keyed
by a hash of the source and flags so recompilation happens only when
the kernels change.  The library is position-independent plain C99 —
no Python API — and every call releases the GIL (ctypes ``CDLL``
semantics), so serve workers overlap kernels across threads.

Parity with the reference backend is structural, not accidental: each
kernel walks the format's storage in exactly the order the NumPy
reference does (per-row sequential accumulation for CSR, also inside
each SIMD lane of the one-column Jacobi sweep's 8-row slices;
local-column order for the ELL family; offsets order for DIA),
products are rounded before accumulation (``-ffp-contract=off``
forbids FMA contraction), and ``-ffast-math`` is never passed.  The
conformance suite asserts bitwise agreement on every format.

OpenMP (``-fopenmp``) is attempted and silently dropped if the
toolchain lacks it; row-parallel loops do not change any per-element
accumulation order, so parallel execution preserves parity.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading

import numpy as np
import scipy.sparse as sp

from repro.backends.reference import NumpyBackend, check_out, stacked_blocks
from repro.errors import StateSpaceOverflowError

_C_SOURCE = r"""
#include <stdint.h>
#include <math.h>

/* Kernels mirror the NumPy reference implementations exactly:
 * per-output-element accumulation order is identical, every product is
 * rounded before it is added (compiled with -ffp-contract=off), and no
 * reassociation is permitted.  Row-parallel OpenMP loops never split a
 * single output element's accumulation, so parity survives threading. */

/* ---- CSR ------------------------------------------------------------ */

void csr_spmv(int64_t n, const int64_t *indptr, const int32_t *cols,
              const double *vals, const double *x, double *y)
{
    int64_t i;
    #pragma omp parallel for schedule(static)
    for (i = 0; i < n; ++i) {
        double sum = 0.0;
        int64_t jj;
        for (jj = indptr[i]; jj < indptr[i + 1]; ++jj)
            sum += vals[jj] * x[cols[jj]];
        y[i] = sum;
    }
}

void csr_spmm(int64_t n, int64_t kr, const int64_t *indptr,
              const int32_t *cols, const double *vals,
              const double *X, double *Y)
{
    int64_t i;
    #pragma omp parallel for schedule(static)
    for (i = 0; i < n; ++i) {
        double *yr = Y + i * kr;
        int64_t jj, kk;
        for (kk = 0; kk < kr; ++kk)
            yr[kk] = 0.0;
        for (jj = indptr[i]; jj < indptr[i + 1]; ++jj) {
            const double a = vals[jj];
            const double *xr = X + (int64_t)cols[jj] * kr;
            for (kk = 0; kk < kr; ++kk)
                yr[kk] += a * xr[kk];
        }
    }
}

/* ---- ELL / ELLR (row-major (n_padded, k) value/col arrays) ---------- */

void ell_spmv(int64_t n, int64_t k, const int32_t *cols,
              const double *vals, const double *x, double *y)
{
    int64_t i;
    #pragma omp parallel for schedule(static)
    for (i = 0; i < n; ++i) {
        const double *vrow = vals + i * k;
        const int32_t *crow = cols + i * k;
        double sum = 0.0;
        int64_t c;
        for (c = 0; c < k; ++c) {
            const int32_t col = crow[c];
            if (col >= 0)
                sum += vrow[c] * x[col];
        }
        y[i] = sum;
    }
}

void ell_spmm(int64_t n, int64_t k, int64_t kr, const int32_t *cols,
              const double *vals, const double *X, double *Y)
{
    int64_t i;
    #pragma omp parallel for schedule(static)
    for (i = 0; i < n; ++i) {
        const double *vrow = vals + i * k;
        const int32_t *crow = cols + i * k;
        double *yr = Y + i * kr;
        int64_t c, kk;
        for (kk = 0; kk < kr; ++kk)
            yr[kk] = 0.0;
        for (c = 0; c < k; ++c) {
            const int32_t col = crow[c];
            if (col >= 0) {
                const double a = vrow[c];
                const double *xr = X + (int64_t)col * kr;
                for (kk = 0; kk < kr; ++kk)
                    yr[kk] += a * xr[kk];
            }
        }
    }
}

void ellr_spmv(int64_t n, int64_t k, const int32_t *cols,
               const double *vals, const int32_t *rl,
               const double *x, double *y)
{
    int64_t i;
    #pragma omp parallel for schedule(static)
    for (i = 0; i < n; ++i) {
        const double *vrow = vals + i * k;
        const int32_t *crow = cols + i * k;
        const int64_t len = rl[i];
        double sum = 0.0;
        int64_t c;
        for (c = 0; c < len; ++c)
            sum += vrow[c] * x[crow[c]];
        y[i] = sum;
    }
}

void ellr_spmm(int64_t n, int64_t k, int64_t kr, const int32_t *cols,
               const double *vals, const int32_t *rl,
               const double *X, double *Y)
{
    int64_t i;
    #pragma omp parallel for schedule(static)
    for (i = 0; i < n; ++i) {
        const double *vrow = vals + i * k;
        const int32_t *crow = cols + i * k;
        const int64_t len = rl[i];
        double *yr = Y + i * kr;
        int64_t c, kk;
        for (kk = 0; kk < kr; ++kk)
            yr[kk] = 0.0;
        for (c = 0; c < len; ++c) {
            const double a = vrow[c];
            const double *xr = X + (int64_t)crow[c] * kr;
            for (kk = 0; kk < kr; ++kk)
                yr[kk] += a * xr[kk];
        }
    }
}

/* ---- Sliced ELL core (column-major local blocks, flat storage) ------ */

void sell_spmv(int64_t n_slices, int64_t slice_size,
               const int64_t *slice_ptr, const int64_t *slice_k,
               const int32_t *cols, const double *vals,
               const double *x, double *y)
{
    int64_t s;
    #pragma omp parallel for schedule(static)
    for (s = 0; s < n_slices; ++s) {
        const int64_t base = slice_ptr[s];
        const int64_t k = slice_k[s];
        int64_t lane, c;
        for (lane = 0; lane < slice_size; ++lane) {
            double sum = 0.0;
            for (c = 0; c < k; ++c) {
                const int64_t flat = base + c * slice_size + lane;
                const int32_t col = cols[flat];
                if (col >= 0)
                    sum += vals[flat] * x[col];
            }
            y[s * slice_size + lane] = sum;
        }
    }
}

void sell_spmm(int64_t n_slices, int64_t slice_size, int64_t kr,
               const int64_t *slice_ptr, const int64_t *slice_k,
               const int32_t *cols, const double *vals,
               const double *X, double *Y)
{
    int64_t s;
    #pragma omp parallel for schedule(static)
    for (s = 0; s < n_slices; ++s) {
        const int64_t base = slice_ptr[s];
        const int64_t k = slice_k[s];
        int64_t lane, c, kk;
        for (lane = 0; lane < slice_size; ++lane) {
            double *yr = Y + (s * slice_size + lane) * kr;
            for (kk = 0; kk < kr; ++kk)
                yr[kk] = 0.0;
            for (c = 0; c < k; ++c) {
                const int64_t flat = base + c * slice_size + lane;
                const int32_t col = cols[flat];
                if (col >= 0) {
                    const double a = vals[flat];
                    const double *xr = X + (int64_t)col * kr;
                    for (kk = 0; kk < kr; ++kk)
                        yr[kk] += a * xr[kk];
                }
            }
        }
    }
}

/* ---- DIA (row-aligned (ndiag, n_rows) data) ------------------------- */

void dia_spmv(int64_t n_rows, int64_t n_cols, int64_t ndiag,
              const int64_t *offsets, const double *data,
              const double *x, double *y)
{
    int64_t i, d;
    for (i = 0; i < n_rows; ++i)
        y[i] = 0.0;
    for (d = 0; d < ndiag; ++d) {
        const int64_t off = offsets[d];
        const int64_t lo = off < 0 ? -off : 0;
        int64_t hi = n_cols - off;
        const double *row = data + d * n_rows;
        if (hi > n_rows)
            hi = n_rows;
        #pragma omp parallel for schedule(static)
        for (i = lo; i < hi; ++i)
            y[i] += row[i] * x[i + off];
    }
}

void dia_spmm(int64_t n_rows, int64_t n_cols, int64_t ndiag, int64_t kr,
              const int64_t *offsets, const double *data,
              const double *X, double *Y)
{
    int64_t i, d;
    for (i = 0; i < n_rows * kr; ++i)
        Y[i] = 0.0;
    for (d = 0; d < ndiag; ++d) {
        const int64_t off = offsets[d];
        const int64_t lo = off < 0 ? -off : 0;
        int64_t hi = n_cols - off;
        const double *row = data + d * n_rows;
        if (hi > n_rows)
            hi = n_rows;
        #pragma omp parallel for schedule(static)
        for (i = lo; i < hi; ++i) {
            const double a = row[i];
            const double *xr = X + (i + off) * kr;
            double *yr = Y + i * kr;
            int64_t kk;
            for (kk = 0; kk < kr; ++kk)
                yr[kk] += a * xr[kk];
        }
    }
}

/* ---- fused Jacobi sweep on a CSR generator -------------------------- */

/* Row-block sweep for the sharded solver: the caller owns rows
 * [row0, row0 + m) of the global system as a rectangular (m, n) CSR
 * slice and reads the full-length x.  Each row sums in CSR order with
 * the same update expression as a lane of the sliced sweep below, so
 * the owned block stays bitwise equal to the corresponding slice of a
 * whole-matrix sweep. */
void csr_jacobi_sweep_block(int64_t m, int64_t row0, const int64_t *indptr,
                            const int32_t *cols, const double *vals,
                            const double *diag, const double *x,
                            double damping, double *out)
{
    const double om = 1.0 - damping;
    int64_t i;
    #pragma omp parallel for schedule(static)
    for (i = 0; i < m; ++i) {
        double sum = 0.0;
        const double d = diag[i];
        const double xi = x[row0 + i];
        int64_t jj;
        for (jj = indptr[i]; jj < indptr[i + 1]; ++jj)
            sum += vals[jj] * x[cols[jj]];
        if (damping == 1.0) {
            out[i] = (d * xi - sum) / d;
        } else {
            const double t = (d * xi - sum) / d;
            out[i] = om * xi + damping * t;
        }
    }
}

/* Fused kernels over m stacked systems sharing one sparsity pattern
 * (same indptr/cols, different values) — the parameter-sweep workload.
 *
 * Systems in a sweep differ in a handful of rate constants, so most
 * matrix entries carry the SAME double in every system.  The values
 * are therefore stored as a compressed stream: entries whose value is
 * uniform across all m systems appear once; varying entries appear as
 * m interleaved doubles.  cols carries the tag in its sign bit (taken
 * negative = varying) and vofs[i] is the stream offset of row i's
 * first value, so rows decode independently.  For an 8-system sweep
 * where ~60% of entries are uniform this cuts sweep memory traffic by
 * ~40%.
 *
 * diag/X/out are (n, m) row-major — SYSTEM-INTERLEAVED: element i of
 * every system sits in one contiguous m-wide run.  Each matrix entry
 * then touches one cache line instead of m strided ones, and the
 * per-entry multiply-accumulate across systems becomes a unit-stride
 * SIMD operation.  Every width 1 <= m <= REPRO_MAX_STACK runs
 * vectorized when the library is compiled with -march=native: a row
 * is walked once per chunk of lanes — 8-lane zmm chunks under
 * __AVX512F__, 4-lane ymm chunks under __AVX2__ — and the last chunk
 * is masked to the lanes below m, so masked-off lanes neither load
 * nor store.  The product's m == 1 takes a scalar loop; the sweep
 * never sees a block that narrow (see STACK_NARROW_MAX).  Each lane
 * performs the same round-to-nearest multiply, then add, as the
 * scalar loop, so results stay bitwise identical — vectorizing across
 * SYSTEMS never reassociates any single system's accumulation.
 *
 * Per system the terms accumulate in column order with the exact
 * values the per-system matrices hold, so results are bit-identical
 * to m independent sliced_jacobi_sweep / csr_spmv calls. */

#define REPRO_MAX_STACK 64

#if defined(__AVX512F__) || defined(__AVX2__)
#include <immintrin.h>
#endif

/* Width 1: every entry is uniform (one stream value, untagged column). */
static double stacked_row_1(int64_t i, const int64_t *indptr,
                            const int32_t *cols, const double *vstream,
                            const int64_t *vofs, const double *X)
{
    double sum = 0.0;
    int64_t jj, vp = vofs[i];
    for (jj = indptr[i]; jj < indptr[i + 1]; ++jj)
        sum += vstream[vp++] * X[cols[jj] & 0x7fffffff];
    return sum;
}

#if defined(__AVX512F__)

static inline __mmask8 lanes_512(int64_t left)
{
    return (__mmask8)((1u << left) - 1u);
}

/* Full chunks use plain loads, the tail chunk masked ones; `full` is a
 * constant at every call site, so each inlined copy keeps one kind. */
static inline __m512d load_512(const double *p, __mmask8 k, int full)
{
    return full ? _mm512_loadu_pd(p) : _mm512_maskz_loadu_pd(k, p);
}

static inline void store_512(double *p, __mmask8 k, int full, __m512d v)
{
    if (full)
        _mm512_storeu_pd(p, v);
    else
        _mm512_mask_storeu_pd(p, k, v);
}

/* Lanes [c0, c0 + 8) of row i's stacked product. */
static inline __m512d stacked_row_512(int64_t i, int64_t m, int64_t c0,
                                      __mmask8 k, int full,
                                      const int64_t *indptr,
                                      const int32_t *cols,
                                      const double *vstream,
                                      const int64_t *vofs, const double *X)
{
    __m512d sum = _mm512_setzero_pd();
    int64_t jj, vp = vofs[i];
    for (jj = indptr[i]; jj < indptr[i + 1]; ++jj) {
        const int32_t ct = cols[jj];
        __m512d v;
        int64_t col;
        if (ct >= 0) {
            v = _mm512_set1_pd(vstream[vp]);
            col = ct;
            vp += 1;
        } else {
            v = load_512(vstream + vp + c0, k, full);
            col = ct & 0x7fffffff;
            vp += m;
        }
        sum = _mm512_add_pd(sum, _mm512_mul_pd(
            v, load_512(X + col * m + c0, k, full)));
    }
    return sum;
}

static inline void stacked_sweep_512(int64_t i, int64_t m, int64_t c0,
                                     __mmask8 k, int full,
                                     const int64_t *indptr,
                                     const int32_t *cols,
                                     const double *vstream,
                                     const int64_t *vofs,
                                     const double *diag, const double *X,
                                     double damping, double *out)
{
    const __m512d sum = stacked_row_512(i, m, c0, k, full, indptr, cols,
                                        vstream, vofs, X);
    const __m512d d = load_512(diag + i * m + c0, k, full);
    const __m512d xi = load_512(X + i * m + c0, k, full);
    __m512d t = _mm512_div_pd(_mm512_sub_pd(_mm512_mul_pd(d, xi), sum), d);
    if (damping != 1.0)
        t = _mm512_add_pd(_mm512_mul_pd(_mm512_set1_pd(1.0 - damping), xi),
                          _mm512_mul_pd(_mm512_set1_pd(damping), t));
    store_512(out + i * m + c0, k, full, t);
}

#elif defined(__AVX2__)

static inline __m256i lanes_256(int64_t left)
{
    return _mm256_set_epi64x(left > 3 ? -1 : 0, left > 2 ? -1 : 0,
                             left > 1 ? -1 : 0, -1);
}

/* As load_512/store_512: plain for full chunks, masked for the tail. */
static inline __m256d load_256(const double *p, __m256i k, int full)
{
    return full ? _mm256_loadu_pd(p) : _mm256_maskload_pd(p, k);
}

static inline void store_256(double *p, __m256i k, int full, __m256d v)
{
    if (full)
        _mm256_storeu_pd(p, v);
    else
        _mm256_maskstore_pd(p, k, v);
}

static inline __m256d stacked_row_256(int64_t i, int64_t m, int64_t c0,
                                      __m256i k, int full,
                                      const int64_t *indptr,
                                      const int32_t *cols,
                                      const double *vstream,
                                      const int64_t *vofs, const double *X)
{
    __m256d sum = _mm256_setzero_pd();
    int64_t jj, vp = vofs[i];
    for (jj = indptr[i]; jj < indptr[i + 1]; ++jj) {
        const int32_t ct = cols[jj];
        __m256d v;
        int64_t col;
        if (ct >= 0) {
            v = _mm256_set1_pd(vstream[vp]);
            col = ct;
            vp += 1;
        } else {
            v = load_256(vstream + vp + c0, k, full);
            col = ct & 0x7fffffff;
            vp += m;
        }
        sum = _mm256_add_pd(sum, _mm256_mul_pd(
            v, load_256(X + col * m + c0, k, full)));
    }
    return sum;
}

static inline void stacked_sweep_256(int64_t i, int64_t m, int64_t c0,
                                     __m256i k, int full,
                                     const int64_t *indptr,
                                     const int32_t *cols,
                                     const double *vstream,
                                     const int64_t *vofs,
                                     const double *diag, const double *X,
                                     double damping, double *out)
{
    const __m256d sum = stacked_row_256(i, m, c0, k, full, indptr, cols,
                                        vstream, vofs, X);
    const __m256d d = load_256(diag + i * m + c0, k, full);
    const __m256d xi = load_256(X + i * m + c0, k, full);
    __m256d t = _mm256_div_pd(_mm256_sub_pd(_mm256_mul_pd(d, xi), sum), d);
    if (damping != 1.0)
        t = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(1.0 - damping), xi),
                          _mm256_mul_pd(_mm256_set1_pd(damping), t));
    store_256(out + i * m + c0, k, full, t);
}

#else

/* Portable build: all m lanes of row i, one system at a time per entry. */
static void stacked_row_generic(int64_t i, int64_t m, const int64_t *indptr,
                                const int32_t *cols, const double *vstream,
                                const int64_t *vofs, const double *X,
                                double *sum)
{
    int64_t jj, s, vp = vofs[i];
    for (s = 0; s < m; ++s)
        sum[s] = 0.0;
    for (jj = indptr[i]; jj < indptr[i + 1]; ++jj) {
        const int32_t ct = cols[jj];
        if (ct >= 0) {
            const double v = vstream[vp++];
            const double *xc = X + (int64_t)ct * m;
            for (s = 0; s < m; ++s)
                sum[s] += v * xc[s];
        } else {
            const double *vr = vstream + vp;
            const double *xc = X + (int64_t)(ct & 0x7fffffff) * m;
            vp += m;
            for (s = 0; s < m; ++s)
                sum[s] += vr[s] * xc[s];
        }
    }
}

#endif

static void stacked_sweep_once(int64_t n, int64_t m, const int64_t *indptr,
                               const int32_t *cols, const double *vstream,
                               const int64_t *vofs, const double *diag,
                               const double *X, double damping, double *out)
{
    int64_t i;
#if defined(__AVX512F__)
    #pragma omp parallel for schedule(static)
    for (i = 0; i < n; ++i) {
        int64_t c0;
        for (c0 = 0; c0 + 8 <= m; c0 += 8)
            stacked_sweep_512(i, m, c0, 0xff, 1, indptr, cols, vstream, vofs,
                              diag, X, damping, out);
        if (c0 < m)
            stacked_sweep_512(i, m, c0, lanes_512(m - c0), 0, indptr, cols,
                              vstream, vofs, diag, X, damping, out);
    }
#elif defined(__AVX2__)
    #pragma omp parallel for schedule(static)
    for (i = 0; i < n; ++i) {
        const __m256i all = lanes_256(4);
        int64_t c0;
        for (c0 = 0; c0 + 4 <= m; c0 += 4)
            stacked_sweep_256(i, m, c0, all, 1, indptr, cols, vstream, vofs,
                              diag, X, damping, out);
        if (c0 < m)
            stacked_sweep_256(i, m, c0, lanes_256(m - c0), 0, indptr, cols,
                              vstream, vofs, diag, X, damping, out);
    }
#else
    const double om = 1.0 - damping;
    #pragma omp parallel for schedule(static)
    for (i = 0; i < n; ++i) {
        double sum[REPRO_MAX_STACK];
        const double *dr = diag + i * m;
        const double *xr = X + i * m;
        double *orow = out + i * m;
        int64_t s;
        stacked_row_generic(i, m, indptr, cols, vstream, vofs, X, sum);
        for (s = 0; s < m; ++s) {
            const double t = (dr[s] * xr[s] - sum[s]) / dr[s];
            orow[s] = damping == 1.0 ? t : om * xr[s] + damping * t;
        }
    }
#endif
}

/* `sweeps` stacked sweeps in one call, ping-ponging between out and
 * scratch (same shape as X; unused when sweeps == 1) so that the last
 * sweep lands in out.  X is only read.  Each sweep is the single-sweep
 * kernel above, so k sweeps here are bit-identical to k calls. */
void csr_jacobi_sweep_stacked(int64_t n, int64_t m, const int64_t *indptr,
                              const int32_t *cols, const double *vstream,
                              const int64_t *vofs, const double *diag,
                              const double *X, double damping, double *out,
                              double *scratch, int64_t sweeps)
{
    const double *src = X;
    double *dst = (sweeps % 2) ? out : scratch;
    int64_t s;
    for (s = 0; s < sweeps; ++s) {
        stacked_sweep_once(n, m, indptr, cols, vstream, vofs, diag, src,
                           damping, dst);
        src = dst;
        dst = dst == out ? scratch : out;
    }
}

void csr_spmv_stacked(int64_t n, int64_t m, const int64_t *indptr,
                      const int32_t *cols, const double *vstream,
                      const int64_t *vofs, const double *X, double *Y)
{
    int64_t i;
    if (m == 1) {
        #pragma omp parallel for schedule(static)
        for (i = 0; i < n; ++i)
            Y[i] = stacked_row_1(i, indptr, cols, vstream, vofs, X);
        return;
    }
#if defined(__AVX512F__)
    #pragma omp parallel for schedule(static)
    for (i = 0; i < n; ++i) {
        int64_t c0;
        for (c0 = 0; c0 + 8 <= m; c0 += 8)
            store_512(Y + i * m + c0, 0xff, 1,
                      stacked_row_512(i, m, c0, 0xff, 1, indptr, cols,
                                      vstream, vofs, X));
        if (c0 < m) {
            const __mmask8 k = lanes_512(m - c0);
            store_512(Y + i * m + c0, k, 0,
                      stacked_row_512(i, m, c0, k, 0, indptr, cols,
                                      vstream, vofs, X));
        }
    }
#elif defined(__AVX2__)
    #pragma omp parallel for schedule(static)
    for (i = 0; i < n; ++i) {
        const __m256i all = lanes_256(4);
        int64_t c0;
        for (c0 = 0; c0 + 4 <= m; c0 += 4)
            store_256(Y + i * m + c0, all, 1,
                      stacked_row_256(i, m, c0, all, 1, indptr, cols,
                                      vstream, vofs, X));
        if (c0 < m) {
            const __m256i k = lanes_256(m - c0);
            store_256(Y + i * m + c0, k, 0,
                      stacked_row_256(i, m, c0, k, 0, indptr, cols,
                                      vstream, vofs, X));
        }
    }
#else
    #pragma omp parallel for schedule(static)
    for (i = 0; i < n; ++i) {
        double sum[REPRO_MAX_STACK];
        double *yr = Y + i * m;
        int64_t s;
        stacked_row_generic(i, m, indptr, cols, vstream, vofs, X, sum);
        for (s = 0; s < m; ++s)
            yr[s] = sum[s];
    }
#endif
}

/* ---- sliced single-system Jacobi sweep ------------------------------ */

/* The one-column sweep runs over a second copy of the generator laid
 * out like the paper's sliced ELL: rows in their own order, cut into
 * slices of SLICE_ROWS = 8, each slice as wide as its longest row, with
 * cols (int32) and vals stored column-major inside the slice, so entry
 * c of the slice's 8 rows is one contiguous 8-wide run, plus every
 * row's length (rows past n have length 0).  Slice s starts at slot
 * slice_ptr[s] and is (slice_ptr[s + 1] - slice_ptr[s]) / 8 entries
 * wide; padding slots hold column 0 and value 0.0 and are never read.
 *
 * One lane walks one row: lane r adds row r's products in CSR order,
 * each product rounded before the add, and once row r has ended its
 * lane neither gathers nor adds, so a NaN or inf in x reaches only the
 * rows that read it.  The rows of one Jacobi sweep are independent, so
 * running 8 of them side by side changes no row's summation and the
 * result is bitwise the scalar CSR loop's. */

#define SLICE_ROWS 8

/* Fills slice_ptr[0 .. n_slices] and returns the slot count. */
int64_t sliced_plan(int64_t n, const int64_t *indptr, int64_t *slice_ptr)
{
    const int64_t n_slices = (n + SLICE_ROWS - 1) / SLICE_ROWS;
    int64_t s, total = 0;
    slice_ptr[0] = 0;
    for (s = 0; s < n_slices; ++s) {
        int64_t i, width = 0;
        for (i = s * SLICE_ROWS; i < n && i < (s + 1) * SLICE_ROWS; ++i)
            if (indptr[i + 1] - indptr[i] > width)
                width = indptr[i + 1] - indptr[i];
        total += width * SLICE_ROWS;
        slice_ptr[s + 1] = total;
    }
    return total;
}

/* lens holds n_slices * SLICE_ROWS entries, scols/svals the planned
 * slot count. */
void sliced_fill(int64_t n, const int64_t *indptr, const int32_t *cols,
                 const double *vals, const int64_t *slice_ptr,
                 int32_t *lens, int32_t *scols, double *svals)
{
    const int64_t n_slices = (n + SLICE_ROWS - 1) / SLICE_ROWS;
    int64_t s;
    for (s = 0; s < n_slices; ++s) {
        const int64_t base = slice_ptr[s];
        const int64_t width = (slice_ptr[s + 1] - base) / SLICE_ROWS;
        int64_t r, c;
        for (r = 0; r < SLICE_ROWS; ++r) {
            const int64_t i = s * SLICE_ROWS + r;
            const int64_t start = i < n ? indptr[i] : 0;
            const int64_t len = i < n ? indptr[i + 1] - start : 0;
            lens[i] = (int32_t)len;
            for (c = 0; c < width; ++c) {
                const int64_t slot = base + c * SLICE_ROWS + r;
                scols[slot] = c < len ? cols[start + c] : 0;
                svals[slot] = c < len ? vals[start + c] : 0.0;
            }
        }
    }
}

#if defined(__AVX512F__)

/* One zmm lane per row of the slice. */
static inline void sliced_slice(int64_t s, int64_t n,
                                const int64_t *slice_ptr,
                                const int32_t *lens, const int32_t *cols,
                                const double *vals, const double *diag,
                                const double *X, double damping,
                                double *out)
{
    const int64_t base = slice_ptr[s];
    const int64_t width = (slice_ptr[s + 1] - base) / SLICE_ROWS;
    const int64_t i0 = s * SLICE_ROWS;
    const __m512i len = _mm512_cvtepi32_epi64(
        _mm256_loadu_si256((const __m256i *)(lens + i0)));
    const __mmask8 rows = n - i0 >= SLICE_ROWS ? 0xff : lanes_512(n - i0);
    __m512d sum = _mm512_setzero_pd(), t;
    int64_t c;
    for (c = 0; c < width; ++c) {
        const int64_t at = base + c * SLICE_ROWS;
        const __mmask8 live = _mm512_cmpgt_epi64_mask(
            len, _mm512_set1_epi64(c));
        const __m512d xv = _mm512_mask_i32gather_pd(
            _mm512_setzero_pd(), live,
            _mm256_loadu_si256((const __m256i *)(cols + at)), X, 8);
        sum = _mm512_mask_add_pd(sum, live, sum,
                                 _mm512_mul_pd(_mm512_loadu_pd(vals + at),
                                               xv));
    }
    const __m512d d = _mm512_maskz_loadu_pd(rows, diag + i0);
    const __m512d xi = _mm512_maskz_loadu_pd(rows, X + i0);
    t = _mm512_div_pd(_mm512_sub_pd(_mm512_mul_pd(d, xi), sum), d);
    if (damping != 1.0)
        t = _mm512_add_pd(_mm512_mul_pd(_mm512_set1_pd(1.0 - damping), xi),
                          _mm512_mul_pd(_mm512_set1_pd(damping), t));
    _mm512_mask_storeu_pd(out + i0, rows, t);
}

#elif defined(__AVX2__)

/* The update of one 4-row half of a slice: rows i0 .. i0 + left - 1. */
static inline void sliced_update_256(int64_t i0, int64_t left, __m256d sum,
                                     const double *diag, const double *X,
                                     double damping, double *out)
{
    const __m256i k = lanes_256(left);
    const int full = left >= 4;
    const __m256d d = load_256(diag + i0, k, full);
    const __m256d xi = load_256(X + i0, k, full);
    __m256d t = _mm256_div_pd(_mm256_sub_pd(_mm256_mul_pd(d, xi), sum), d);
    if (damping != 1.0)
        t = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(1.0 - damping), xi),
                          _mm256_mul_pd(_mm256_set1_pd(damping), t));
    store_256(out + i0, k, full, t);
}

/* Two 4-lane halves per slice; ended rows keep their sum by blend. */
static inline void sliced_slice(int64_t s, int64_t n,
                                const int64_t *slice_ptr,
                                const int32_t *lens, const int32_t *cols,
                                const double *vals, const double *diag,
                                const double *X, double damping,
                                double *out)
{
    const int64_t base = slice_ptr[s];
    const int64_t width = (slice_ptr[s + 1] - base) / SLICE_ROWS;
    const int64_t i0 = s * SLICE_ROWS;
    const __m256i len_lo = _mm256_cvtepi32_epi64(
        _mm_loadu_si128((const __m128i *)(lens + i0)));
    const __m256i len_hi = _mm256_cvtepi32_epi64(
        _mm_loadu_si128((const __m128i *)(lens + i0 + 4)));
    __m256d sum_lo = _mm256_setzero_pd(), sum_hi = _mm256_setzero_pd();
    int64_t c;
    for (c = 0; c < width; ++c) {
        const int64_t at = base + c * SLICE_ROWS;
        const __m256i cc = _mm256_set1_epi64x(c);
        const __m256d live_lo = _mm256_castsi256_pd(
            _mm256_cmpgt_epi64(len_lo, cc));
        const __m256d live_hi = _mm256_castsi256_pd(
            _mm256_cmpgt_epi64(len_hi, cc));
        const __m256d x_lo = _mm256_mask_i32gather_pd(
            _mm256_setzero_pd(), X,
            _mm_loadu_si128((const __m128i *)(cols + at)), live_lo, 8);
        const __m256d x_hi = _mm256_mask_i32gather_pd(
            _mm256_setzero_pd(), X,
            _mm_loadu_si128((const __m128i *)(cols + at + 4)), live_hi, 8);
        sum_lo = _mm256_blendv_pd(sum_lo, _mm256_add_pd(sum_lo,
            _mm256_mul_pd(_mm256_loadu_pd(vals + at), x_lo)), live_lo);
        sum_hi = _mm256_blendv_pd(sum_hi, _mm256_add_pd(sum_hi,
            _mm256_mul_pd(_mm256_loadu_pd(vals + at + 4), x_hi)), live_hi);
    }
    sliced_update_256(i0, n - i0, sum_lo, diag, X, damping, out);
    if (n - i0 > 4)
        sliced_update_256(i0 + 4, n - i0 - 4, sum_hi, diag, X, damping, out);
}

#else

/* Portable build: the same layout, one lane at a time per entry. */
static void sliced_slice(int64_t s, int64_t n, const int64_t *slice_ptr,
                         const int32_t *lens, const int32_t *cols,
                         const double *vals, const double *diag,
                         const double *X, double damping, double *out)
{
    const int64_t base = slice_ptr[s];
    const int64_t width = (slice_ptr[s + 1] - base) / SLICE_ROWS;
    const int64_t i0 = s * SLICE_ROWS;
    double sum[SLICE_ROWS] = {0.0};
    int64_t c, r;
    for (c = 0; c < width; ++c) {
        const int64_t at = base + c * SLICE_ROWS;
        for (r = 0; r < SLICE_ROWS; ++r)
            if (c < lens[i0 + r])
                sum[r] += vals[at + r] * X[cols[at + r]];
    }
    for (r = 0; r < SLICE_ROWS && i0 + r < n; ++r) {
        const int64_t i = i0 + r;
        const double t = (diag[i] * X[i] - sum[r]) / diag[i];
        out[i] = damping == 1.0 ? t : (1.0 - damping) * X[i] + damping * t;
    }
}

#endif

/* `sweeps` one-column sweeps over the sliced layout, ping-ponging
 * between out and scratch like csr_jacobi_sweep_stacked. */
void sliced_jacobi_sweep(int64_t n, const int64_t *slice_ptr,
                         const int32_t *lens, const int32_t *cols,
                         const double *vals, const double *diag,
                         const double *X, double damping, double *out,
                         double *scratch, int64_t sweeps)
{
    const int64_t n_slices = (n + SLICE_ROWS - 1) / SLICE_ROWS;
    const double *src = X;
    double *dst = (sweeps % 2) ? out : scratch;
    int64_t k, s;
    for (k = 0; k < sweeps; ++k) {
        #pragma omp parallel for schedule(static)
        for (s = 0; s < n_slices; ++s)
            sliced_slice(s, n, slice_ptr, lens, cols, vals, diag, src,
                         damping, dst);
        src = dst;
        dst = dst == out ? scratch : out;
    }
}

/* ---- narrow stacked blocks -------------------------------------------- */

/* The widest stacked block the sweep op runs as one sliced sweep per
 * system rather than one interleaved pass.  The interleaved kernel
 * walks every row once per chunk of lanes, so its cost per sweep
 * barely moves from 1 system to a full chunk, while m sliced sweeps
 * cost m times one.  Each value is the crossover measured for its
 * build with one thread (DESIGN §13): 4 under AVX-512's 8 lanes, 3
 * under AVX2's 4, and 6 in the portable build, whose interleaved loop
 * decodes every entry in scalar code. */
#if defined(__AVX512F__)
#define STACK_NARROW_MAX 4
#elif defined(__AVX2__)
#define STACK_NARROW_MAX 3
#else
#define STACK_NARROW_MAX 6
#endif

int64_t stacked_narrow_max(void)
{
    return STACK_NARROW_MAX;
}

/* `sweeps` sliced sweeps of system s of an (n, m) system-interleaved
 * block: its columns of diag and X are copied into work (4 n doubles),
 * swept there as by sliced_jacobi_sweep, and the last sweep is copied
 * into its column of out.  The other columns are not touched. */
void sliced_jacobi_sweep_column(int64_t n, int64_t m, int64_t s,
                                const int64_t *slice_ptr,
                                const int32_t *lens, const int32_t *cols,
                                const double *vals, const double *diag,
                                const double *X, double damping,
                                double *out, double *work, int64_t sweeps)
{
    double *d = work, *x = work + n, *y = work + 2 * n;
    int64_t i;
    for (i = 0; i < n; ++i) {
        d[i] = diag[i * m + s];
        x[i] = X[i * m + s];
    }
    sliced_jacobi_sweep(n, slice_ptr, lens, cols, vals, d, x, damping, y,
                        work + 3 * n, sweeps);
    for (i = 0; i < n; ++i)
        out[i * m + s] = y[i];
}

/* ---- vector primitives ---------------------------------------------- */

void axpby(int64_t n, double alpha, const double *x,
           double beta, const double *y, double *out)
{
    int64_t i;
    if (beta == 1.0) {
        #pragma omp parallel for schedule(static)
        for (i = 0; i < n; ++i)
            out[i] = alpha * x[i] + y[i];
    } else {
        #pragma omp parallel for schedule(static)
        for (i = 0; i < n; ++i)
            out[i] = alpha * x[i] + beta * y[i];
    }
}

/* inf-norm with NaN propagation (fabs comparisons silently drop NaN). */
double maxabs(int64_t n, const double *v)
{
    double m = 0.0;
    int64_t i;
    for (i = 0; i < n; ++i) {
        const double a = fabs(v[i]);
        if (isnan(a))
            return a;
        if (a > m)
            m = a;
    }
    return m;
}

/* ---- column renormalization ------------------------------------------ */

/* Each column of an (n, m) row-major block, renormalized in place
 * exactly as renormalize() in repro.solvers.normalization does to a
 * contiguous copy of it: a column with a non-finite entry, or whose
 * clipped sum is not positive, is left as it was; any other becomes
 * max(x, 0) / sum.  The sum is NumPy's pairwise summation (its
 * pairwise_sum loop), whose splits depend on n alone, so all m
 * columns share one row-major walk: rows i .. i + 7 are one run of
 * 8 m doubles, and accumulator slot j * m + c of a run-sized buffer
 * takes row i + j of column c.  A non-finite x makes x * 0.0 a NaN,
 * so bad[c], a sum of those, flags column c. */

/* np.maximum(v, 0.0) on finite v: -0.0 becomes +0.0. */
static inline double clip0(double v)
{
    return v > 0.0 ? v : 0.0;
}

/* NumPy's block of 8 to 128 rows: 8 accumulators per column, row i in
 * accumulator i % 8, summed ((r0 + r1) + (r2 + r3)) + ((r4 + r5) +
 * (r6 + r7)), then the n % 8 leftover rows added one by one. */
static void colsum_block(const double *restrict a, int64_t n, int64_t m,
                         double *restrict r, double *restrict g,
                         double *restrict res, double *restrict bad)
{
    const int64_t run = 8 * m;
    int64_t i, j, k, c;
    for (k = 0; k < run; ++k) {
        r[k] = clip0(a[k]);
        g[k] = a[k] * 0.0;
    }
    for (i = 8; i < n - n % 8; i += 8) {
        const double *restrict ai = a + i * m;
        for (k = 0; k < run; ++k) {
            r[k] += clip0(ai[k]);
            g[k] += ai[k] * 0.0;
        }
    }
    for (c = 0; c < m; ++c)
        res[c] = ((r[c] + r[m + c]) + (r[2 * m + c] + r[3 * m + c]))
               + ((r[4 * m + c] + r[5 * m + c])
                  + (r[6 * m + c] + r[7 * m + c]));
    for (j = 0; j < 8; ++j)
        for (c = 0; c < m; ++c)
            bad[c] += g[j * m + c];
    for (; i < n; ++i)
        for (c = 0; c < m; ++c) {
            res[c] += clip0(a[i * m + c]);
            bad[c] += a[i * m + c] * 0.0;
        }
}

/* NumPy's pairwise sum of rows [0, n): under 8 rows one by one from
 * 0.0, up to 128 one block, above that the halves split at n / 2
 * rounded down to a multiple of 8.  spare holds m doubles per level
 * of splitting below this one. */
static void colsum_pairwise(const double *a, int64_t n, int64_t m,
                            double *r, double *g, double *res,
                            double *bad, double *spare)
{
    int64_t i, c;
    if (n < 8) {
        for (c = 0; c < m; ++c)
            res[c] = 0.0;
        for (i = 0; i < n; ++i)
            for (c = 0; c < m; ++c) {
                res[c] += clip0(a[i * m + c]);
                bad[c] += a[i * m + c] * 0.0;
            }
    } else if (n <= 128) {
        colsum_block(a, n, m, r, g, res, bad);
    } else {
        const int64_t half = n / 2 - (n / 2) % 8;
        colsum_pairwise(a, half, m, r, g, res, bad, spare + m);
        colsum_pairwise(a + half * m, n - half, m, r, g, spare, bad,
                        spare + m);
        for (c = 0; c < m; ++c)
            res[c] += spare[c];
    }
}

/* work holds m * (18 + the bit length of n) doubles; ok[c] = 1 where
 * column c was renormalized, 0 where it was left. */
void renormalize_columns(int64_t n, int64_t m, double *X, uint8_t *ok,
                         double *work)
{
    const int64_t run = 8 * m;
    double *r = work, *g = work + run, *total = work + 2 * run;
    double *bad = total + m;
    int64_t i, k, c, all = 1;
    for (c = 0; c < m; ++c)
        bad[c] = 0.0;
    colsum_pairwise(X, n, m, r, g, total, bad, bad + m);
    for (c = 0; c < m; ++c) {
        ok[c] = bad[c] == bad[c] && total[c] > 0.0;
        all &= ok[c];
    }
    if (!all) {
        for (c = 0; c < m; ++c)
            if (ok[c])
                for (i = 0; i < n; ++i)
                    X[i * m + c] = clip0(X[i * m + c]) / total[c];
        return;
    }
    /* Every column: whole runs against a run of divisors, then the
     * leftover rows. */
    for (k = 0; k < run; ++k)
        r[k] = total[k % m];
    for (i = 0; i + 8 <= n; i += 8) {
        double *restrict xi = X + i * m;
        for (k = 0; k < run; ++k)
            xi[k] = clip0(xi[k]) / r[k];
    }
    for (; i < n; ++i)
        for (c = 0; c < m; ++c)
            X[i * m + c] = clip0(X[i * m + c]) / total[c];
}

/* ---- DFS state-space enumeration ------------------------------------ */

/* Cao & Liang's walk, the reference backend's loop in C: an explicit
 * stack of (state row, next reaction) pairs, reactions tried in index
 * order, and an edge k from state x when x holds need[k], the
 * successor x + delta[k] lies in [0, bounds] and, for a gated reaction,
 * x's gate is open.  New states are appended to order[] (cap x m) as
 * they are found, so the rows come out in the reference's order.
 *
 * Membership is an open-addressing table of mixed-radix keys, -1 for
 * an empty slot, with linear probing.  It has table_mask + 1 slots, at
 * least twice cap, so it is never more than half full.
 *
 * The caller owns every buffer and walk[] is the whole walk state:
 * {states found, stack depth, states in the table, states whose gates
 * are known}.  The walk returns DFS_FULL, without consuming the
 * reaction it was trying, when a new state finds order[] full: the
 * caller grows order[], stack[] and gates[], hands in an empty table
 * with walk[2] = 0 and calls again, and the walk first re-inserts the
 * keys of the states found so far.  It returns DFS_GATE at a gated
 * reaction of a row whose gates are unknown (row >= walk[3]): the
 * caller fills gates[row * n_gates + gate_col[k]] for every row below
 * walk[0], sets walk[3] = walk[0] and calls again. */

#define DFS_DONE 0
#define DFS_FULL 1
#define DFS_GATE 2

/* The first slot key probes in a table of mask + 1 slots. */
static inline int64_t key_hash(int64_t key, int64_t mask)
{
    uint64_t h = (uint64_t)key;  /* splitmix64's finalizer */
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    return (int64_t)((h ^ (h >> 31)) & (uint64_t)mask);
}

/* The slot holding key, or the empty slot where it belongs. */
static inline int64_t dfs_slot(const int64_t *table, int64_t mask,
                               int64_t key)
{
    int64_t slot = key_hash(key, mask);
    while (table[slot] != -1 && table[slot] != key)
        slot = (slot + 1) & mask;
    return slot;
}

int64_t dfs_enumerate(int64_t m, int64_t R, const int64_t *bounds,
                      const int64_t *radix, const int64_t *delta,
                      const int64_t *need, const int64_t *gate_col,
                      int64_t n_gates, const uint8_t *gates,
                      int64_t cap, int64_t *order,
                      int64_t *stack, int64_t table_mask, int64_t *table,
                      int64_t *walk)
{
    int64_t n = walk[0], depth = walk[1], row, i;
    const int64_t known = walk[3];
    int64_t status = DFS_DONE;
    for (row = walk[2]; row < n; ++row) {
        int64_t key = 0;
        for (i = 0; i < m; ++i)
            key += order[row * m + i] * radix[i];
        table[dfs_slot(table, table_mask, key)] = key;
    }
    while (depth > 0) {
        int64_t *top = stack + 2 * (depth - 1);
        const int64_t k = top[1];
        const int64_t *x = order + top[0] * m;
        int64_t key = 0, slot;
        if (k == R) {
            --depth;
            continue;
        }
        for (i = 0; i < m; ++i)
            if (x[i] < need[k * m + i])
                goto next;
        if (gate_col[k] >= 0) {
            if (top[0] >= known) {
                status = DFS_GATE;
                break;
            }
            if (!gates[top[0] * n_gates + gate_col[k]])
                goto next;
        }
        for (i = 0; i < m; ++i) {
            const int64_t v = x[i] + delta[k * m + i];
            if (v < 0 || v > bounds[i])
                goto next;
            key += v * radix[i];
        }
        slot = dfs_slot(table, table_mask, key);
        if (table[slot] != key) {
            if (n >= cap) {
                status = DFS_FULL;
                break;
            }
            table[slot] = key;
            for (i = 0; i < m; ++i)
                order[n * m + i] = x[i] + delta[k * m + i];
            stack[2 * depth] = n++;
            stack[2 * depth + 1] = 0;
            ++depth;
        }
    next:
        top[1] = k + 1;
    }
    walk[0] = n;
    walk[1] = depth;
    walk[2] = n;
    return status;
}

/* --- key membership ------------------------------------------------
 * The key_index op's table holds positions into the caller's keys[]
 * (-1 for an empty slot, so 4 bytes a slot) and probes linearly from
 * key_hash, as dfs_slot does.  The caller keeps it at most half full
 * and below 2^31 keys. */

/* The slot holding key's position, or the empty slot where it belongs. */
static inline int64_t key_index_slot(const int32_t *table, int64_t mask,
                                     const int64_t *keys, int64_t key)
{
    int64_t slot = key_hash(key, mask);
    while (table[slot] >= 0 && keys[table[slot]] != key)
        slot = (slot + 1) & mask;
    return slot;
}

/* Insert positions lo..hi-1 of keys[].  Returns the first position
 * whose key is already in the table, else -1. */
int64_t key_index_insert(int64_t lo, int64_t hi, const int64_t *keys,
                         int64_t mask, int32_t *table)
{
    int64_t i;
    for (i = lo; i < hi; ++i) {
        const int64_t slot = key_index_slot(table, mask, keys, keys[i]);
        if (table[slot] >= 0)
            return i;
        table[slot] = (int32_t)i;
    }
    return -1;
}

/* out[i] = the position of probes[i], or -1 (always for a negative
 * probe: no key is negative). */
void key_index_lookup(int64_t n, const int64_t *probes, int64_t mask,
                      const int32_t *table, const int64_t *keys,
                      int64_t *out)
{
    int64_t i;
    for (i = 0; i < n; ++i) {
        const int64_t key = probes[i];
        out[i] = key < 0 ? -1
                 : table[key_index_slot(table, mask, keys, key)];
    }
}
"""

#: Flags shared by every compile attempt.  ``-ffp-contract=off`` is the
#: load-bearing one: it forbids FMA contraction, which would otherwise
#: skip the per-product rounding the reference backend performs.
_BASE_FLAGS = ("-O3", "-shared", "-fPIC", "-std=c99",
               "-ffp-contract=off", "-fno-fast-math")

_lib = None
_lib_error: Exception | None = None
_lib_lock = threading.Lock()

_F64 = ctypes.POINTER(ctypes.c_double)
_I64 = ctypes.POINTER(ctypes.c_int64)
_I32 = ctypes.POINTER(ctypes.c_int32)
_U8 = ctypes.POINTER(ctypes.c_uint8)


class NativeCompileError(RuntimeError):
    """Raised when the native kernel library cannot be built or loaded."""


def _find_compiler() -> str | None:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _cache_dir() -> str:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro-native")


def _host_cpu_tag() -> str:
    """Fingerprint of the host CPU's ISA, for ``-march=native`` keys."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith(("flags", "Features")):
                    return hashlib.sha256(line.encode()).hexdigest()[:8]
    except OSError:
        pass
    import platform
    probe = f"{platform.machine()}\x00{platform.processor()}"
    return hashlib.sha256(probe.encode()).hexdigest()[:8]


def build_library(sopath: str, arch: tuple[str, ...] = ()) -> None:
    """Compile :data:`_C_SOURCE` with *arch* flags into *sopath*.

    OpenMP is tried first, then a serial build for toolchains without
    libgomp (the pragmas are then simply ignored).  *arch* picks which
    SIMD paths the preprocessor keeps: ``("-march=native",)`` on an
    AVX-512 host keeps the ``__AVX512F__`` paths, ``("-mavx2",
    "-mno-avx512f")`` the ``__AVX2__`` ones, ``()`` only the scalar
    loops.  Raises :class:`NativeCompileError` when every attempt fails.
    """
    cc = _find_compiler()
    if cc is None:
        raise NativeCompileError("no C compiler found (cc/gcc/clang)")
    with tempfile.TemporaryDirectory(
            dir=os.path.dirname(os.path.abspath(sopath))) as tmp:
        csrc = os.path.join(tmp, "kernels.c")
        with open(csrc, "w") as fh:
            fh.write(_C_SOURCE)
        tmpso = os.path.join(tmp, "kernels.so")
        last = None
        for extra in (("-fopenmp",), ()):
            cmd = [cc, *_BASE_FLAGS, *arch, *extra, csrc, "-o", tmpso, "-lm"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode == 0:
                os.replace(tmpso, sopath)
                return
            last = proc.stderr.strip()
    raise NativeCompileError(f"kernel compilation failed with {cc}: {last}")


def _compile_library() -> str:
    cache = _cache_dir()
    # Preference order: host-tuned build first — the JIT compiles on the
    # machine it runs on, so -march=native is safe and unlocks the SIMD
    # paths guarded by __AVX512F__/__AVX2__ in the source (the cache key
    # carries a host-ISA fingerprint so a shared cache directory never
    # serves one machine's vectorized build to another) — then the
    # portable C99 build.  Parity is flag-independent: -ffp-contract=off
    # still forbids FMA contraction, and the SIMD paths round each
    # product before accumulating exactly like the scalar loops.
    variants = []
    for arch in (("-march=native",), ()):
        key = "\x00".join((_C_SOURCE,) + _BASE_FLAGS + arch)
        if arch:
            key += "\x00" + _host_cpu_tag()
        tag = hashlib.sha256(key.encode()).hexdigest()[:16]
        variants.append((arch, os.path.join(cache,
                                            f"repro_kernels_{tag}.so")))
    for _, sopath in variants:
        if os.path.exists(sopath):
            return sopath
    try:
        os.makedirs(cache, exist_ok=True)
    except OSError:
        cache = tempfile.mkdtemp(prefix="repro-native-")
        variants = [(arch, os.path.join(cache, os.path.basename(p)))
                    for arch, p in variants]
    last = None
    for arch, sopath in variants:
        try:
            build_library(sopath, arch)
        except NativeCompileError as exc:
            last = exc
        else:
            return sopath
    raise last


def _bind(lib) -> None:
    lib.csr_spmv.argtypes = [ctypes.c_int64, _I64, _I32, _F64, _F64, _F64]
    lib.csr_spmm.argtypes = [ctypes.c_int64, ctypes.c_int64, _I64, _I32,
                             _F64, _F64, _F64]
    lib.ell_spmv.argtypes = [ctypes.c_int64, ctypes.c_int64, _I32, _F64,
                             _F64, _F64]
    lib.ell_spmm.argtypes = [ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                             _I32, _F64, _F64, _F64]
    lib.ellr_spmv.argtypes = [ctypes.c_int64, ctypes.c_int64, _I32, _F64,
                              _I32, _F64, _F64]
    lib.ellr_spmm.argtypes = [ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                              _I32, _F64, _I32, _F64, _F64]
    lib.sell_spmv.argtypes = [ctypes.c_int64, ctypes.c_int64, _I64, _I64,
                              _I32, _F64, _F64, _F64]
    lib.sell_spmm.argtypes = [ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                              _I64, _I64, _I32, _F64, _F64, _F64]
    lib.dia_spmv.argtypes = [ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                             _I64, _F64, _F64, _F64]
    lib.dia_spmm.argtypes = [ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                             ctypes.c_int64, _I64, _F64, _F64, _F64]
    lib.csr_jacobi_sweep_block.argtypes = [ctypes.c_int64, ctypes.c_int64,
                                           _I64, _I32, _F64, _F64, _F64,
                                           ctypes.c_double, _F64]
    lib.sliced_plan.argtypes = [ctypes.c_int64, _I64, _I64]
    lib.sliced_plan.restype = ctypes.c_int64
    lib.sliced_fill.argtypes = [ctypes.c_int64, _I64, _I32, _F64, _I64,
                                _I32, _I32, _F64]
    lib.sliced_jacobi_sweep.argtypes = [ctypes.c_int64, _I64, _I32, _I32,
                                        _F64, _F64, _F64, ctypes.c_double,
                                        _F64, _F64, ctypes.c_int64]
    lib.stacked_narrow_max.argtypes = []
    lib.stacked_narrow_max.restype = ctypes.c_int64
    lib.sliced_jacobi_sweep_column.argtypes = [
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, _I64, _I32, _I32,
        _F64, _F64, _F64, ctypes.c_double, _F64, _F64, ctypes.c_int64]
    lib.csr_jacobi_sweep_stacked.argtypes = [
        ctypes.c_int64, ctypes.c_int64, _I64, _I32, _F64, _I64, _F64,
        _F64, ctypes.c_double, _F64, _F64, ctypes.c_int64]
    lib.csr_spmv_stacked.argtypes = [
        ctypes.c_int64, ctypes.c_int64, _I64, _I32, _F64, _I64, _F64,
        _F64]
    lib.axpby.argtypes = [ctypes.c_int64, ctypes.c_double, _F64,
                          ctypes.c_double, _F64, _F64]
    lib.maxabs.argtypes = [ctypes.c_int64, _F64]
    lib.maxabs.restype = ctypes.c_double
    lib.renormalize_columns.argtypes = [ctypes.c_int64, ctypes.c_int64,
                                        _F64, _U8, _F64]
    lib.dfs_enumerate.argtypes = [
        ctypes.c_int64, ctypes.c_int64, _I64, _I64, _I64, _I64, _I64,
        ctypes.c_int64, _U8, ctypes.c_int64, _I64, _I64, ctypes.c_int64,
        _I64, _I64]
    lib.dfs_enumerate.restype = ctypes.c_int64
    lib.key_index_insert.argtypes = [ctypes.c_int64, ctypes.c_int64, _I64,
                                     ctypes.c_int64, _I32]
    lib.key_index_insert.restype = ctypes.c_int64
    lib.key_index_lookup.argtypes = [ctypes.c_int64, _I64, ctypes.c_int64,
                                     _I32, _I64, _I64]
    for name in ("csr_spmv", "csr_spmm", "ell_spmv", "ell_spmm",
                 "ellr_spmv", "ellr_spmm", "sell_spmv", "sell_spmm",
                 "dia_spmv", "dia_spmm", "csr_jacobi_sweep_block",
                 "sliced_fill",
                 "sliced_jacobi_sweep", "sliced_jacobi_sweep_column",
                 "csr_jacobi_sweep_stacked", "csr_spmv_stacked", "axpby",
                 "renormalize_columns", "key_index_lookup"):
        getattr(lib, name).restype = None


def get_library():
    """Compile (once) and load the kernel library; raises on failure."""
    global _lib, _lib_error
    if _lib is not None:
        return _lib
    if _lib_error is not None:
        raise _lib_error
    with _lib_lock:
        if _lib is not None:
            return _lib
        if _lib_error is not None:
            raise _lib_error
        try:
            lib = ctypes.CDLL(_compile_library())
            _bind(lib)
        except (OSError, NativeCompileError) as exc:
            _lib_error = (exc if isinstance(exc, NativeCompileError)
                          else NativeCompileError(str(exc)))
            raise _lib_error
        _lib = lib
    return _lib


def _p64(a: np.ndarray):
    return a.ctypes.data_as(_F64)


def _pi64(a: np.ndarray):
    return a.ctypes.data_as(_I64)


def _pi32(a: np.ndarray):
    return a.ctypes.data_as(_I32)


def _pu8(a: np.ndarray):
    return a.ctypes.data_as(_U8)


def _f64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def _vec(a: np.ndarray):
    """Pointer argument for a per-call float64 vector or block.

    ``from_buffer`` takes about 1 µs where ``data_as`` takes about
    4.6 µs, and it rejects non-contiguous buffers.  The pointer is
    built per call and never cached: a cached pointer keeps its array
    alive, so caching per-call buffers would keep every dead iterate
    of a solve in memory.  Read-only and empty arrays (which
    ``from_buffer`` refuses) take the ``data_as`` path.
    """
    try:
        return ctypes.byref(ctypes.c_double.from_buffer(a))
    except (TypeError, ValueError):
        return _p64(a)


#: The ctypes element of each integer or flag dtype :func:`_ivec` takes.
_IVEC_CTYPES = {np.dtype(np.int64): ctypes.c_int64,
                np.dtype(np.int32): ctypes.c_int32,
                np.dtype(np.bool_): ctypes.c_uint8}


def _ivec(a: np.ndarray):
    """:func:`_vec` for a per-call int64, int32 or bool array."""
    ctype = _IVEC_CTYPES[a.dtype]
    try:
        return ctypes.byref(ctype.from_buffer(a))
    except (TypeError, ValueError):
        return a.ctypes.data_as(ctypes.POINTER(ctype))


def _check_sweeps(sweeps) -> int:
    k = int(sweeps)
    if k < 1:
        raise ValueError(f"sweeps must be >= 1, got {sweeps}")
    return k


# -- per-matrix prepared arrays -------------------------------------------
#
# Kernels take int64 row pointers and int32 column indices; the formats
# store a mix (CSRMatrix keeps an int64 indptr, ``as_csr`` produces
# int32).  Normalization is O(n) so it is done once and stashed on the
# matrix object — all formats in this codebase are immutable after
# construction, and SciPy matrices flowing through the solvers are
# treated as such.

_PREP_ATTR = "_repro_native_prep"
_SLICED_ATTR = "_repro_native_sliced"

#: Rows per slice of the single-system sweep's layout (``SLICE_ROWS`` in
#: the C source): one AVX-512 register of doubles.
_SLICE_ROWS = 8


def _prep(obj, build, attr=_PREP_ATTR):
    cached = getattr(obj, attr, None)
    if cached is None:
        cached = build()
        try:
            setattr(obj, attr, cached)
        except (AttributeError, TypeError):
            pass
    return cached


def _csr_arrays(A):
    """Prepared CSR triplet plus its ctypes pointers.

    Returns ``(indptr, cols, vals, p_indptr, p_cols, p_vals)``.  The
    pointers ride in the per-matrix cache because building one costs
    microseconds per call (``ndarray.ctypes`` allocates a fresh helper
    every access), which dominates small-system sweeps; the arrays are
    kept alongside so the buffers the pointers address stay alive.
    """
    def build():
        if sp.issparse(A):
            indptr, cols, vals = A.indptr, A.indices, A.data
        else:  # CSRMatrix
            indptr, cols, vals = A.indptr, A.col_indices, A.values
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        cols = np.ascontiguousarray(cols, dtype=np.int32)
        vals = _f64(vals)
        return (indptr, cols, vals,
                _pi64(indptr), _pi32(cols), _p64(vals))
    return _prep(A, build)


def _build_sliced(A):
    """The single-system sweep's 8-row sliced layout of CSR *A* (see
    ``sliced_plan`` in the C source): one O(n) pass sizes it and one
    pass over the slots fills it.  Returns ``(slice_ptr, lens, cols,
    vals)`` followed by their four pointers."""
    lib = get_library()
    _, _, _, pi, pc, pv = _csr_arrays(A)
    n = A.shape[0]
    n_slices = -(-n // _SLICE_ROWS)
    slice_ptr = np.empty(n_slices + 1, dtype=np.int64)
    slots = lib.sliced_plan(n, pi, _pi64(slice_ptr))
    lens = np.empty(n_slices * _SLICE_ROWS, dtype=np.int32)
    cols = np.empty(slots, dtype=np.int32)
    vals = np.empty(slots, dtype=np.float64)
    arrays = (slice_ptr, lens, cols, vals)
    ptrs = (_pi64(slice_ptr), _pi32(lens), _pi32(cols), _p64(vals))
    lib.sliced_fill(n, pi, pc, pv, *ptrs)
    return arrays + ptrs


def _sliced_arrays(A):
    """The cached sliced layout of *A*; it lives as long as *A*."""
    return _prep(A, lambda: _build_sliced(A), _SLICED_ATTR)


# Stacked-system preparation for the fused multi-system sweep: checked
# shared structure plus the interleaved (nnz, m) value block, cached on
# the first system keyed by the ids of the whole list.  The entry pins
# the other systems, so no id in the key can be recycled while it lives
# (the head owns it).  It pins only the distinct systems other than the
# head: a sweep's lists keep their order as columns retire, and a batch
# of one generator repeats its head, so entries form no reference cycle
# and die with their matrices rather than waiting for the cyclic
# collector.  A cached ``None`` payload records "this list does not
# share structure" so the check runs once, not per sweep.

_STACK_ATTR = "_repro_native_stacked"
_STACK_MAX = 64


def _stacked_arrays(systems):
    head = systems[0]
    key = tuple(map(id, systems))
    cached = getattr(head, _STACK_ATTR, None)
    if cached is not None and cached[0] == key:
        return cached[1]
    payload = None
    if all(sp.issparse(A) and A.format == "csr" for A in systems):
        preps = [_csr_arrays(A) for A in systems]
        indptr, cols = preps[0][0], preps[0][1]
        if all(np.array_equal(p[0], indptr) and np.array_equal(p[1], cols)
               for p in preps[1:]):
            m = len(systems)
            nnz = cols.shape[0]
            V = np.empty((nnz, m), dtype=np.float64)
            for s, p in enumerate(preps):
                V[:, s] = p[2]
            # Compress: entries uniform across every system are stored
            # once in the stream, varying entries as m interleaved
            # doubles; the tag rides in the column index's sign bit.
            uni = np.all(V == V[:, :1], axis=1)
            sizes = np.where(uni, 1, m).astype(np.int64)
            starts = np.concatenate(([0], np.cumsum(sizes)))
            vstream = np.empty(starts[-1], dtype=np.float64)
            vstream[starts[:-1][uni]] = V[uni, 0]
            vary = np.flatnonzero(~uni)
            if vary.size:
                idx = starts[:-1][vary, None] + np.arange(m)
                vstream[idx] = V[vary]
            vofs = starts[indptr[:-1]]
            tagged = cols.copy()
            tagged[~uni] |= np.int32(-2147483648)
            payload = (indptr, tagged, vstream, vofs,
                       _pi64(indptr), _pi32(tagged), _p64(vstream),
                       _pi64(vofs))
    try:
        pinned = {id(A): A for A in systems if A is not head}
        setattr(head, _STACK_ATTR, (key, payload, tuple(pinned.values())))
    except (AttributeError, TypeError):
        pass
    return payload


def _ell_arrays(fmt):
    def build():
        return (np.ascontiguousarray(fmt.values, dtype=np.float64),
                np.ascontiguousarray(fmt.cols, dtype=np.int32))
    return _prep(fmt, build)


def _ellr_arrays(fmt):
    def build():
        return (np.ascontiguousarray(fmt.values, dtype=np.float64),
                np.ascontiguousarray(fmt.cols, dtype=np.int32),
                np.ascontiguousarray(fmt.rl, dtype=np.int32))
    return _prep(fmt, build)


def _sell_arrays(fmt):
    def build():
        return (np.ascontiguousarray(fmt.slice_ptr, dtype=np.int64),
                np.ascontiguousarray(fmt.slice_k, dtype=np.int64),
                np.ascontiguousarray(fmt.cols, dtype=np.int32),
                np.ascontiguousarray(fmt.values, dtype=np.float64))
    return _prep(fmt, build)


def _dia_arrays(fmt):
    def build():
        return (np.ascontiguousarray(fmt.offsets, dtype=np.int64),
                np.ascontiguousarray(fmt.data, dtype=np.float64))
    return _prep(fmt, build)


# -- kernel wrappers -------------------------------------------------------


def _csr_spmv(fmt, x):
    lib = get_library()
    _, _, _, pi, pc, pv = _csr_arrays(fmt)
    x = _f64(x)
    y = np.empty(fmt.shape[0], dtype=np.float64)
    lib.csr_spmv(fmt.shape[0], pi, pc, pv, _vec(x), _vec(y))
    return y


def _csr_spmm(fmt, X):
    lib = get_library()
    _, _, _, pi, pc, pv = _csr_arrays(fmt)
    X = _f64(X)
    Y = np.empty((fmt.shape[0], X.shape[1]), dtype=np.float64)
    lib.csr_spmm(fmt.shape[0], X.shape[1], pi, pc, pv, _vec(X), _vec(Y))
    return Y


def _ell_spmv(fmt, x):
    lib = get_library()
    vals, cols = _ell_arrays(fmt)
    x = _f64(x)
    y = np.empty(fmt.shape[0], dtype=np.float64)
    lib.ell_spmv(fmt.shape[0], fmt.k, _pi32(cols), _p64(vals),
                 _vec(x), _vec(y))
    return y


def _ell_spmm(fmt, X):
    lib = get_library()
    vals, cols = _ell_arrays(fmt)
    X = _f64(X)
    Y = np.empty((fmt.shape[0], X.shape[1]), dtype=np.float64)
    lib.ell_spmm(fmt.shape[0], fmt.k, X.shape[1], _pi32(cols), _p64(vals),
                 _vec(X), _vec(Y))
    return Y


def _ellr_spmv(fmt, x):
    lib = get_library()
    vals, cols, rl = _ellr_arrays(fmt)
    x = _f64(x)
    y = np.empty(fmt.shape[0], dtype=np.float64)
    lib.ellr_spmv(fmt.shape[0], fmt.k, _pi32(cols), _p64(vals), _pi32(rl),
                  _vec(x), _vec(y))
    return y


def _ellr_spmm(fmt, X):
    lib = get_library()
    vals, cols, rl = _ellr_arrays(fmt)
    X = _f64(X)
    Y = np.empty((fmt.shape[0], X.shape[1]), dtype=np.float64)
    lib.ellr_spmm(fmt.shape[0], fmt.k, X.shape[1], _pi32(cols), _p64(vals),
                  _pi32(rl), _vec(X), _vec(Y))
    return Y


def _sell_core_spmv(fmt, x):
    """Sliced product in *storage* row order, full padded length."""
    lib = get_library()
    slice_ptr, slice_k, cols, vals = _sell_arrays(fmt)
    x = _f64(x)
    y = np.empty(fmt.n_padded, dtype=np.float64)
    lib.sell_spmv(fmt.n_slices, fmt.slice_size, _pi64(slice_ptr),
                  _pi64(slice_k), _pi32(cols), _p64(vals), _vec(x), _vec(y))
    return y


def _sell_core_spmm(fmt, X):
    lib = get_library()
    slice_ptr, slice_k, cols, vals = _sell_arrays(fmt)
    X = _f64(X)
    Y = np.empty((fmt.n_padded, X.shape[1]), dtype=np.float64)
    lib.sell_spmm(fmt.n_slices, fmt.slice_size, X.shape[1],
                  _pi64(slice_ptr), _pi64(slice_k), _pi32(cols), _p64(vals),
                  _vec(X), _vec(Y))
    return Y


def _sell_spmv(fmt, x):
    return _sell_core_spmv(fmt, x)[: fmt.shape[0]]


def _sell_spmm(fmt, X):
    return _sell_core_spmm(fmt, X)[: fmt.shape[0]]


def _permuted_spmv(fmt, x):
    """sell-c-sigma / warped-ell: sliced core + scatter (+ diagonal)."""
    y_storage = _sell_core_spmv(fmt, x)[: fmt.shape[0]]
    diag = getattr(fmt, "diagonal_values", None)
    if diag is not None:
        y_storage = y_storage + diag * x[fmt.row_ids]
    y = np.empty(fmt.shape[0], dtype=np.float64)
    y[fmt.row_ids] = y_storage
    return y


def _permuted_spmm(fmt, X):
    Y_storage = _sell_core_spmm(fmt, X)[: fmt.shape[0]]
    diag = getattr(fmt, "diagonal_values", None)
    if diag is not None:
        Y_storage = Y_storage + diag[:, None] * X[fmt.row_ids, :]
    Y = np.empty((fmt.shape[0], X.shape[1]), dtype=np.float64)
    Y[fmt.row_ids] = Y_storage
    return Y


def _dia_spmv(fmt, x):
    lib = get_library()
    offsets, data = _dia_arrays(fmt)
    x = _f64(x)
    y = np.empty(fmt.shape[0], dtype=np.float64)
    lib.dia_spmv(fmt.shape[0], fmt.shape[1], offsets.shape[0],
                 _pi64(offsets), _p64(data), _vec(x), _vec(y))
    return y


def _dia_spmm(fmt, X):
    lib = get_library()
    offsets, data = _dia_arrays(fmt)
    X = _f64(X)
    Y = np.empty((fmt.shape[0], X.shape[1]), dtype=np.float64)
    lib.dia_spmm(fmt.shape[0], fmt.shape[1], offsets.shape[0], X.shape[1],
                 _pi64(offsets), _p64(data), _vec(X), _vec(Y))
    return Y


def _ell_dia_spmv(fmt, x):
    return _dia_spmv(fmt.dia, x) + _ell_spmv(fmt.ell, x)


def _ell_dia_spmm(fmt, X):
    return _dia_spmm(fmt.dia, X) + _ell_spmm(fmt.ell, X)


# -- DFS state-space enumeration -------------------------------------------

#: Return codes of ``dfs_enumerate`` (``DFS_*`` in the C source).
_DFS_DONE, _DFS_FULL, _DFS_GATE = range(3)

#: Rows of a walk's first order buffer.  A full buffer doubles, up to
#: ``max_states`` rows, so nothing is sized by the cap up front.
_DFS_FIRST_ROWS = 1024


def _grown(a: np.ndarray, rows: int) -> np.ndarray:
    """*a* copied into the top of a buffer of *rows* rows."""
    out = np.empty((rows,) + a.shape[1:], dtype=a.dtype)
    out[:a.shape[0]] = a
    return out


# -- key membership ----------------------------------------------------------

#: Slots of the smallest key table (a power of two, like every size).
_KEY_MIN_SLOTS = 16

#: Keys a table can hold: its slots store int32 positions.
_KEY_MAX = 2 ** 31 - 1


class HashKeyIndex:
    """The native ``key_index``: an open-addressing table of int32
    positions into the keys (``key_index_*`` in the C source), at most
    half full, rebuilt twice as large as :meth:`extend` fills it.

    The keys it was built from are referenced, not copied, so they must
    not be modified while it lives; :meth:`extend` moves them into a
    buffer of its own that doubles.  It holds NumPy arrays only, so it
    pickles and copies like its owner.
    """

    def __init__(self, keys) -> None:
        from repro.backends.reference import key_array
        self._keys = key_array(keys)
        self._size = 0
        self._table = np.empty(0, dtype=np.int32)
        self._insert(self._keys.size)

    def __len__(self) -> int:
        return self._size

    def extend(self, keys) -> None:
        from repro.backends.reference import key_array
        keys = key_array(keys)
        if keys.size == 0:
            return
        need = self._size + keys.size
        if need > self._keys.size:
            grown = np.empty(max(need, 2 * self._keys.size), dtype=np.int64)
            grown[:self._size] = self._keys[:self._size]
            self._keys = grown
        self._keys[self._size:need] = keys
        self._insert(need)

    def _insert(self, need: int) -> None:
        """Index positions ``len(self)`` to *need* of the key buffer."""
        if need > _KEY_MAX:
            raise ValueError(f"a key index holds at most {_KEY_MAX} keys")
        lib = get_library()
        slots = max(_KEY_MIN_SLOTS, 1 << (2 * need - 1).bit_length())
        if slots > self._table.size:
            self._table = self._rebuilt(slots)
        dup = lib.key_index_insert(self._size, need, _ivec(self._keys),
                                   self._table.size - 1, _ivec(self._table))
        if dup >= 0:
            # Drop the batch's partial insertions: the index is as it was.
            self._table = self._rebuilt(self._table.size)
            raise ValueError(f"duplicate key {int(self._keys[dup])}")
        self._size = need

    def _rebuilt(self, slots: int) -> np.ndarray:
        """A table of *slots* slots indexing the first ``len(self)`` keys."""
        table = np.full(slots, -1, dtype=np.int32)
        get_library().key_index_insert(0, self._size, _ivec(self._keys),
                                       slots - 1, _ivec(table))
        return table

    def lookup(self, probes) -> np.ndarray:
        probes = np.asarray(probes, dtype=np.int64)
        flat = np.ascontiguousarray(probes).ravel()
        out = np.empty(flat.size, dtype=np.int64)
        get_library().key_index_lookup(
            flat.size, _ivec(flat), self._table.size - 1,
            _ivec(self._table), _ivec(self._keys), _ivec(out))
        return out.reshape(probes.shape)


_SPMV = {
    "csr": _csr_spmv,
    "ell": _ell_spmv,
    "ellr": _ellr_spmv,
    "sell": _sell_spmv,
    "sell-c-sigma": _permuted_spmv,
    "warped-ell": _permuted_spmv,
    "dia": _dia_spmv,
    "ell+dia": _ell_dia_spmv,
}

_SPMM = {
    "csr": _csr_spmm,
    "ell": _ell_spmm,
    "ellr": _ellr_spmm,
    "sell": _sell_spmm,
    "sell-c-sigma": _permuted_spmm,
    "warped-ell": _permuted_spmm,
    "dia": _dia_spmm,
    "ell+dia": _ell_dia_spmm,
}

#: Format-independent ops this backend provides.
_PRIMITIVES = frozenset({"jacobi_sweep", "jacobi_sweep_many", "spmv_many",
                         "axpy", "residual", "renormalize_columns",
                         "dfs_enumerate", "key_index"})


class NativeBackend:
    """JIT-compiled C kernels behind the :class:`KernelBackend` protocol.

    COO is deliberately unsupported (its scatter-add reference has no
    deterministic per-row order to mirror), so it exercises the
    registry's reference-fallback path.
    """

    name = "native"
    is_reference = False

    @staticmethod
    def available() -> bool:
        """Whether the kernel library compiles and loads on this host."""
        try:
            get_library()
        except NativeCompileError:
            return False
        return True

    def supports(self, format_name: str, op: str) -> bool:
        if op in _PRIMITIVES:
            return True
        if op == "spmv":
            return format_name in _SPMV
        if op == "spmm":
            return format_name in _SPMM
        return False

    def spmv(self, fmt, x: np.ndarray) -> np.ndarray:
        return _SPMV[fmt.format_name](fmt, x)

    def spmm(self, fmt, X: np.ndarray) -> np.ndarray:
        return _SPMM[fmt.format_name](fmt, X)

    def jacobi_sweep(self, A, diag: np.ndarray, X: np.ndarray,
                     damping: float = 1.0,
                     out: np.ndarray | None = None,
                     sweeps: int = 1) -> np.ndarray:
        """Fused sweep of one ``(n,)`` column on a CSR generator, over
        the matrix's 8-row sliced layout (built on the first sweep and
        cached on *A*).  ``sweeps=k`` runs k sweeps in one C call over
        two ping-pong buffers, bit-identical to k single calls.  *X* is
        only read.
        """
        if not (sp.issparse(A) and A.format == "csr"):
            # Non-CSR generators (dense test doubles, format objects)
            # take the reference formula; the protocol only promises
            # acceleration for the canonical CSR system matrix.
            return NumpyBackend().jacobi_sweep(A, diag, X, damping, out,
                                               sweeps=sweeps)
        k = _check_sweeps(sweeps)
        check_out("jacobi_sweep", out, X)
        lib = get_library()
        n = A.shape[0]
        diag = _f64(diag)
        X = _f64(X)
        if A.shape[1] != n or diag.shape != (n,) or X.shape != (n,):
            raise ValueError(
                f"jacobi_sweep needs a square A, diag ({n},) and X ({n},); "
                f"got {A.shape}, {diag.shape} and {X.shape}")
        if out is None:
            out = np.empty_like(X)
        scratch = _vec(np.empty_like(X)) if k > 1 else None
        lib.sliced_jacobi_sweep(n, *_sliced_arrays(A)[4:], _vec(diag),
                                _vec(X), float(damping), _vec(out),
                                scratch, k)
        return out

    def jacobi_sweep_block(self, local, diag: np.ndarray, x: np.ndarray,
                           row_start: int,
                           damping: float = 1.0) -> np.ndarray:
        """Row-block sweep for the sharded solver (see the reference).

        *local* is the owned rows' rectangular ``(m, n)`` CSR slice,
        *x* the full-length iterate.  Falls back to the reference
        formula for non-CSR slices.  An extension method discovered
        via ``getattr`` (not part of the core protocol ops).
        """
        if not (sp.issparse(local) and local.format == "csr"):
            return NumpyBackend().jacobi_sweep_block(
                local, diag, x, row_start, damping)
        lib = get_library()
        _, _, _, pi, pc, pv = _csr_arrays(local)
        diag = _f64(diag)
        x = _f64(x)
        out = np.empty(local.shape[0], dtype=np.float64)
        lib.csr_jacobi_sweep_block(local.shape[0], int(row_start),
                                   pi, pc, pv, _vec(diag), _vec(x),
                                   float(damping), _vec(out))
        return out

    def jacobi_sweep_many(self, systems, diag: np.ndarray, X: np.ndarray,
                          damping: float = 1.0,
                          out: np.ndarray | None = None,
                          sweeps: int = 1) -> np.ndarray:
        """Fused sweep over stacked CSR systems.

        ``diag``/``X``/``out`` are ``(n, m)`` system-interleaved blocks:
        column ``s`` belongs to ``systems[s]``, so element ``i`` of all
        ``m`` systems occupies one contiguous run — the layout the SIMD
        kernels vectorize across.  ``sweeps=k`` runs k sweeps in one C
        call (*X* is only read).  A stack of more than
        ``stacked_narrow_max()`` systems (``STACK_NARROW_MAX`` in the
        source, set per build) that share one sparsity pattern, and
        number at most ``_STACK_MAX``, takes the interleaved kernel;
        any other stack is swept one system at a time over each
        system's sliced layout, cached on its matrix from the first
        such sweep.  Either way the result is bit-identical to ``m``
        independent :meth:`jacobi_sweep` calls.  Non-CSR systems take
        the reference loop; malformed blocks raise ``ValueError``.
        """
        k = _check_sweeps(sweeps)
        lib = get_library()
        m = len(systems)
        # The cached stacked preparation vouches for the whole list (CSR,
        # one pattern); any other stack is checked system by system.
        prep = (_stacked_arrays(systems)
                if lib.stacked_narrow_max() < m <= _STACK_MAX else None)
        if prep is None and not all(sp.issparse(A) and A.format == "csr"
                                    for A in systems):
            return NumpyBackend().jacobi_sweep_many(systems, diag, X,
                                                    damping, out, sweeps)
        X, diag, out = stacked_blocks(systems, X, diag, out)
        n = X.shape[0]
        if prep is None:
            if any(A.shape != (n, n) for A in systems):
                raise ValueError(
                    f"stacked systems must all be ({n}, {n}), got "
                    f"{[A.shape for A in systems]}")
            pd, px, po = _vec(diag), _vec(X), _vec(out)
            work = _vec(np.empty(4 * n))
            for s, A in enumerate(systems):
                lib.sliced_jacobi_sweep_column(
                    n, m, s, *_sliced_arrays(A)[4:], pd, px,
                    float(damping), po, work, k)
            return out
        pi, pc, pv, po = prep[4:]
        scratch = _vec(np.empty_like(X)) if k > 1 else None
        lib.csr_jacobi_sweep_stacked(n, m, pi, pc, pv, po, _vec(diag),
                                     _vec(X), float(damping), _vec(out),
                                     scratch, k)
        return out

    def spmv_many(self, systems, X: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
        """Stacked products ``Y[:, s] = systems[s] @ X[:, s]``.

        Same blocks and ``ValueError`` contract as
        :meth:`jacobi_sweep_many`.  A stack of at most ``_STACK_MAX``
        CSR systems sharing one sparsity pattern runs one fused C call;
        any other takes the reference's per-system products.  Results
        are bit-equal to per-system products (scipy's CSR accumulation
        order).
        """
        prep = (_stacked_arrays(systems)
                if 1 <= len(systems) <= _STACK_MAX else None)
        if prep is None:
            return NumpyBackend().spmv_many(systems, X, out)
        X, _, out = stacked_blocks(systems, X, out=out)
        n, m = X.shape
        pi, pc, pv, po = prep[4:]
        get_library().csr_spmv_stacked(n, m, pi, pc, pv, po, _vec(X),
                                       _vec(out))
        return out

    def axpy(self, alpha: float, x: np.ndarray, y: np.ndarray,
             beta: float = 1.0,
             out: np.ndarray | None = None) -> np.ndarray:
        check_out("axpy", out, x, y)
        lib = get_library()
        x = _f64(x)
        y = _f64(y)
        if x.shape != y.shape:
            raise ValueError(f"axpy needs x and y of one shape, got "
                             f"{x.shape} and {y.shape}")
        if out is None:
            out = np.empty_like(x)
        lib.axpby(x.size, float(alpha), _vec(x), float(beta), _vec(y),
                  _vec(out))
        return out

    def residual(self, y: np.ndarray,
                 x: np.ndarray) -> tuple[float, float]:
        lib = get_library()
        y = _f64(y)
        x = _f64(x)
        y_norm = float(lib.maxabs(y.size, _vec(y))) if y.size else 0.0
        x_norm = float(lib.maxabs(x.size, _vec(x))) if x.size else 0.0
        return y_norm, x_norm

    def renormalize_columns(self, X: np.ndarray) -> np.ndarray:
        """The reference's per-column renormalization in one C pass
        (``renormalize_columns`` in the source), bitwise equal to it.
        *X* must be a writeable C-contiguous float64 block."""
        if (X.ndim != 2 or X.dtype != np.float64
                or not (X.flags["C_CONTIGUOUS"] and X.flags["WRITEABLE"])):
            raise ValueError(
                f"renormalize_columns needs a writeable C-contiguous "
                f"float64 (n, m) block, got {X.dtype} {X.shape}")
        n, m = X.shape
        ok = np.empty(m, dtype=np.bool_)
        work = np.empty(m * (18 + n.bit_length()))
        get_library().renormalize_columns(n, m, _vec(X), _ivec(ok),
                                          _vec(work))
        return ok

    def dfs_enumerate(self, x0: np.ndarray, bounds: np.ndarray,
                      delta: np.ndarray, need: np.ndarray,
                      gated: np.ndarray, propensities,
                      max_states: int) -> np.ndarray:
        """The reference's DFS walk in C (``dfs_enumerate`` in the
        source): the same states in the same order.

        Python owns every buffer, and the walk returns to it in two
        cases.  When a new state finds the order buffer full, the
        order, stack and gate buffers double (up to *max_states* rows;
        a full buffer of *max_states* rows raises
        :class:`~repro.errors.StateSpaceOverflowError`) and the walk
        resumes over a fresh key table.  When it reaches a gated
        reaction at a state whose gates are unknown, each gated
        reaction's propensity is evaluated in one vectorised call over
        every state found since the last such return, and the walk
        resumes.  Custom propensities have no reactants, so these are
        the states the reference evaluates one at a time, and
        ``~(a <= 0.0)`` keeps a NaN's edge as the reference's
        ``<= 0.0`` test does.
        """
        lib = get_library()
        bounds = np.ascontiguousarray(bounds, dtype=np.int64)
        delta = np.ascontiguousarray(delta, dtype=np.int64)
        need = np.ascontiguousarray(need, dtype=np.int64)
        m, R = bounds.size, delta.shape[0]
        radix = np.ones(m, dtype=np.int64)
        radix[1:] = np.cumprod(bounds[:-1] + 1)
        gated_k = np.flatnonzero(gated)
        gate_col = np.full(R, -1, dtype=np.int64)
        gate_col[gated_k] = np.arange(gated_k.size)
        fixed = (m, R, _pi64(bounds), _pi64(radix), _pi64(delta),
                 _pi64(need), _pi64(gate_col), gated_k.size)
        # States found, stack depth, states in the table, states whose
        # gates are known: x0 is found and on the stack.
        walk = np.array([1, 1, 0, 0], dtype=np.int64)
        cap = min(_DFS_FIRST_ROWS, max_states)
        order = np.empty((cap, m), dtype=np.int64)
        order[0] = x0
        stack = np.zeros((cap, 2), dtype=np.int64)
        gates = np.empty((cap, gated_k.size), dtype=np.uint8)
        while True:
            table = np.full(1 << (2 * cap - 1).bit_length(), -1,
                            dtype=np.int64)
            args = fixed + (_pu8(gates), cap, _pi64(order),
                            _pi64(stack), table.size - 1, _pi64(table),
                            _pi64(walk))
            status = lib.dfs_enumerate(*args)
            while status == _DFS_GATE:
                lo, n = int(walk[3]), int(walk[0])
                for g, k in enumerate(gated_k):
                    a = propensities.propensity(order[lo:n], int(k))
                    gates[lo:n, g] = ~(a <= 0.0)
                walk[3] = n
                status = lib.dfs_enumerate(*args)
            if status == _DFS_DONE:
                n = int(walk[0])
                return order if n == cap else order[:n].copy()
            if cap == max_states:  # a new state beyond max_states
                raise StateSpaceOverflowError(max_states)
            cap = min(2 * cap, max_states)
            order, stack, gates = (_grown(order, cap), _grown(stack, cap),
                                   _grown(gates, cap))
            walk[2] = 0

    def key_index(self, keys) -> HashKeyIndex:
        """The reference's key index as a C hash table: the same
        positions for every probe (see :class:`HashKeyIndex`)."""
        return HashKeyIndex(keys)
