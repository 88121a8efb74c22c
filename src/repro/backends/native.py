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
reference does (per-row sequential accumulation for CSR; inside each
SIMD lane of the one-column Jacobi sweep's 8-row slices, the row's
off-band entries in stored order and then its peeled band; local-column
order for the ELL family; offsets order for DIA),
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
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from repro.backends.reference import (NumpyBackend, cached, check_out,
                                     stacked_blocks, sweep_split)
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

/* The fused Jacobi sweep over m stacked systems sharing one sparsity
 * pattern (same indptr/cols, different values) — the parameter-sweep
 * workload.
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
 * nor store (the op sends it only blocks wider than STACK_NARROW_MAX).
 * Each lane performs the same round-to-nearest multiply, then add, as
 * the scalar loop, so results stay bitwise identical — vectorizing
 * across SYSTEMS never reassociates any single system's accumulation.
 *
 * The stream holds each row's entries in the single-system sweep's
 * order (see the sliced sweep below): its off-band entries in stored
 * order, then its peeled -1 entry, then its peeled +1 entry, and never
 * its diagonal; the update is t = -s / d, then the damping blend.  Per
 * system the terms accumulate in that order with the exact values the
 * per-system matrices hold, so results are bit-identical to m
 * independent sliced_jacobi_sweep calls. */

#define REPRO_MAX_STACK 64

#if defined(__AVX512F__) || defined(__AVX2__)
#include <immintrin.h>
#endif

#if defined(__AVX512F__)

static inline __mmask8 lanes_512(int64_t left)
{
    return (__mmask8)((1u << left) - 1u);
}

/* -v: its sign bits flipped, as the scalar -v is compiled. */
static inline __m512d neg_512(__m512d v)
{
    return _mm512_castsi512_pd(_mm512_xor_si512(
        _mm512_castpd_si512(v), _mm512_set1_epi64(INT64_MIN)));
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

/* Lanes [c0, c0 + 8) of row i's stacked sum of products. */
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
    __m512d t = _mm512_div_pd(neg_512(sum),
                              load_512(diag + i * m + c0, k, full));
    if (damping != 1.0)
        t = _mm512_add_pd(_mm512_mul_pd(_mm512_set1_pd(1.0 - damping),
                                        load_512(X + i * m + c0, k, full)),
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
    __m256d t = _mm256_div_pd(_mm256_xor_pd(sum, _mm256_set1_pd(-0.0)),
                              load_256(diag + i * m + c0, k, full));
    if (damping != 1.0)
        t = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(1.0 - damping),
                                        load_256(X + i * m + c0, k, full)),
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
            const double t = -sum[s] / dr[s];
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

/* ---- sliced single-system Jacobi sweep ------------------------------ */

/* The one-column sweep is the paper's Jacobi on sliced ELL plus DIA
 * (Section V, Table IV).  For A x = 0 its update
 *
 *     x_i <- -(1/a_ii) * sum_{j != i} a_ij x_j
 *
 * never multiplies the diagonal: the caller's diag is the divisor and
 * A's stored diagonal is never read.  Offset -1 or +1 leaves the
 * slices when its stored entries fill more than 8/12 of its slots
 * (peel_rule: Section V's rule, as select_band_offsets in
 * repro.sparse.ell_dia applies it) and lives in a dense vector with a
 * presence bit per row.  Every other stored entry sits in a second
 * copy of the generator laid out like the paper's sliced ELL: rows in
 * their own order, cut into slices of SLICE_ROWS = 8, each slice as
 * wide as its longest row, with cols (int32) and vals stored
 * column-major inside the slice, so entry c of the slice's 8 rows is
 * one contiguous 8-wide run, plus every row's length (rows past the
 * end have length 0).  Slice s starts at slot slice_ptr[s] and is
 * (slice_ptr[s + 1] - slice_ptr[s]) / 8 entries wide; padding slots
 * hold column 0 and value 0.0 and are never read.
 *
 * One lane walks one row.  Lane r adds row r's slice entries in stored
 * order, then a_{i,i-1} x_{i-1}, then a_{i,i+1} x_{i+1}, each band term
 * only where that entry is stored and every product rounded before
 * the add; then t = -s / d and the damping blend.  A lane whose row
 * has ended neither gathers nor adds and an absent band entry is
 * masked off, so a NaN or inf in x reaches only the rows that store
 * its column (and its own row, when the damping blend reads x_i).  The
 * rows of one Jacobi sweep are independent, so running 8 of them side
 * by side changes no row's summation and the result is bitwise the
 * scalar loop's.
 *
 * A layout may also hold rows [row0, row0 + m) of a larger matrix with
 * its global columns (a sharded worker's block): layout row r is
 * matrix row row0 + r, so its diagonal and band sit at columns
 * row0 + r and row0 + r -+ 1, and its x_i is X[row0 + r]. */

#define SLICE_ROWS 8

/* The band offsets a layout peels. */
#define PEEL_LO 1    /* offset -1 */
#define PEEL_HI 2    /* offset +1 */

typedef struct {
    int64_t *slice_ptr;  /* n_slices + 1 slot starts */
    int32_t *lens;       /* n_slices * 8 slice-entry counts */
    int32_t *cols;
    double *vals;
    double *lo;          /* n_slices * 8 entries a_{i,i-1}, 0.0 where
                            absent; NULL unless PEEL_LO */
    double *hi;          /* likewise a_{i,i+1}; NULL unless PEEL_HI */
    uint8_t *pres;       /* bit r of pres[s] (pres[n_slices + s]): row
                            8 s + r stores its -1 (+1) entry */
} sliced_layout;

/* Section V's rule, as select_band_offsets applies it to stored
 * entries: offset -1 (+1) is peeled when its lo (hi) stored entries over
 * its n - 1 slots exceed 8/12.  Returns the PEEL_* bits. */
static int64_t peel_rule(int64_t lo, int64_t hi, int64_t n)
{
    int64_t peel = 0;
    if (n > 1 && (double)lo / (double)(n - 1) > 8.0 / 12.0)
        peel |= PEEL_LO;
    if (n > 1 && (double)hi / (double)(n - 1) > 8.0 / 12.0)
        peel |= PEEL_HI;
    return peel;
}

/* The rule on a square (n, n) CSR pattern. */
int64_t band_peel(int64_t n, const int64_t *indptr, const int32_t *cols)
{
    int64_t i, jj, lo = 0, hi = 0;
    for (i = 0; i < n; ++i) {
        const int32_t row = (int32_t)i;
        for (jj = indptr[i]; jj < indptr[i + 1]; ++jj) {
            const int32_t gap = cols[jj] - row;
            lo += gap == -1;
            hi += gap == 1;
        }
    }
    return peel_rule(lo, hi, n);
}

/* Where an entry of matrix row i at column col goes: 0 into the
 * slices, 3 nowhere (the diagonal), PEEL_LO or PEEL_HI into a band. */
static inline int entry_band(int64_t col, int64_t i, int64_t peel)
{
    const int64_t gap = col - i;
    if (gap == 0)
        return 3;
    if (gap == -1 && (peel & PEEL_LO))
        return PEEL_LO;
    if (gap == 1 && (peel & PEEL_HI))
        return PEEL_HI;
    return 0;
}

/* Sizes the layout of rows [row0, row0 + m) (their indptr and cols):
 * fills L->lens and L->slice_ptr and returns the slot count.  *peel
 * holds the PEEL_* bits to apply, or -1 to apply the rule to this
 * square matrix, and then receives the bits chosen.  One pass over the
 * entries counts each row's entries off the band {-1, 0, +1} into
 * L->lens and its -1 and +1 entries into near[2 i] and near[2 i + 1]
 * (2 m int32 of scratch); a pass over the rows then adds back the
 * offsets that stay in the slices. */
int64_t sliced_plan(int64_t m, int64_t row0, int64_t *peel,
                    const int64_t *indptr, const int32_t *cols,
                    int32_t *near, sliced_layout *L)
{
    const int64_t n_slices = (m + SLICE_ROWS - 1) / SLICE_ROWS;
    int64_t i, s, lo = 0, hi = 0, total = 0;
    for (i = 0; i < m; ++i) {
        const int32_t row = (int32_t)(row0 + i);
        int32_t far = 0, below = 0, above = 0;
        int64_t jj;
        for (jj = indptr[i]; jj < indptr[i + 1]; ++jj) {
            const int32_t gap = cols[jj] - row;
            far += (uint32_t)gap + 1u > 2u;
            below += gap == -1;
            above += gap == 1;
        }
        L->lens[i] = far;
        near[2 * i] = below;
        near[2 * i + 1] = above;
        lo += below;
        hi += above;
    }
    if (*peel < 0)
        *peel = peel_rule(lo, hi, m);
    L->slice_ptr[0] = 0;
    for (s = 0; s < n_slices; ++s) {
        int64_t r, width = 0;
        for (r = 0; r < SLICE_ROWS; ++r) {
            const int64_t k = s * SLICE_ROWS + r;
            int64_t len = 0;
            if (k < m)
                len = L->lens[k] + (*peel & PEEL_LO ? 0 : near[2 * k])
                      + (*peel & PEEL_HI ? 0 : near[2 * k + 1]);
            L->lens[k] = (int32_t)len;
            if (len > width)
                width = len;
        }
        total += width * SLICE_ROWS;
        L->slice_ptr[s + 1] = total;
    }
    return total;
}

/* Fills a planned layout: its slots, band vectors and presence bits.
 * Returns -1, or the first row (of the m) that stores a peeled offset
 * twice, which a band vector cannot hold. */
int64_t sliced_fill(int64_t m, int64_t row0, int64_t peel,
                    const int64_t *indptr, const int32_t *cols,
                    const double *vals, const sliced_layout *L)
{
    const int64_t n_slices = (m + SLICE_ROWS - 1) / SLICE_ROWS;
    int64_t s;
    for (s = 0; s < n_slices; ++s) {
        const int64_t base = L->slice_ptr[s];
        const int64_t width = (L->slice_ptr[s + 1] - base) / SLICE_ROWS;
        unsigned bits[PEEL_HI + 1] = {0, 0, 0};
        int64_t r;
        for (r = 0; r < SLICE_ROWS; ++r) {
            const int64_t i = s * SLICE_ROWS + r;
            int64_t jj, c = 0;
            if (L->lo)
                L->lo[i] = 0.0;
            if (L->hi)
                L->hi[i] = 0.0;
            for (jj = i < m ? indptr[i] : 0; i < m && jj < indptr[i + 1];
                 ++jj) {
                const int band = entry_band(cols[jj], row0 + i, peel);
                if (band == 0) {
                    L->cols[base + c * SLICE_ROWS + r] = cols[jj];
                    L->vals[base + c * SLICE_ROWS + r] = vals[jj];
                    ++c;
                } else if (band != 3) {
                    if (bits[band] >> r & 1u)
                        return i;
                    bits[band] |= 1u << r;
                    (band == PEEL_LO ? L->lo : L->hi)[i] = vals[jj];
                }
            }
            for (; c < width; ++c) {
                L->cols[base + c * SLICE_ROWS + r] = 0;
                L->vals[base + c * SLICE_ROWS + r] = 0.0;
            }
        }
        L->pres[s] = (uint8_t)bits[PEEL_LO];
        L->pres[n_slices + s] = (uint8_t)bits[PEEL_HI];
    }
    return -1;
}

#if defined(__AVX512F__)

/* sum + b[r] * x[r] in the lanes of k; the other lanes keep sum and
 * load nothing. */
static inline __m512d band_512(__m512d sum, __mmask8 k, const double *b,
                               const double *x)
{
    return _mm512_mask_add_pd(sum, k, sum, _mm512_mul_pd(
        _mm512_loadu_pd(b), _mm512_maskz_loadu_pd(k, x)));
}

/* One zmm lane per row of the slice. */
static inline void sliced_slice(int64_t s, int64_t m, int64_t row0,
                                const sliced_layout *L, const double *diag,
                                const double *X, double damping,
                                double *out)
{
    const int64_t base = L->slice_ptr[s];
    const int64_t width = (L->slice_ptr[s + 1] - base) / SLICE_ROWS;
    const int64_t i0 = s * SLICE_ROWS;
    const double *xr = X + row0 + i0;    /* x of the slice's rows */
    const __m512i len = _mm512_cvtepi32_epi64(
        _mm256_loadu_si256((const __m256i *)(L->lens + i0)));
    const __mmask8 rows = m - i0 >= SLICE_ROWS ? 0xff : lanes_512(m - i0);
    __m512d sum = _mm512_setzero_pd(), t;
    int64_t c;
    for (c = 0; c < width; ++c) {
        const int64_t at = base + c * SLICE_ROWS;
        const __mmask8 live = _mm512_cmpgt_epi64_mask(
            len, _mm512_set1_epi64(c));
        const __m512d xv = _mm512_mask_i32gather_pd(
            _mm512_setzero_pd(), live,
            _mm256_loadu_si256((const __m256i *)(L->cols + at)), X, 8);
        sum = _mm512_mask_add_pd(sum, live, sum,
                                 _mm512_mul_pd(_mm512_loadu_pd(L->vals + at),
                                               xv));
    }
    if (L->lo)
        sum = band_512(sum, L->pres[s], L->lo + i0, xr - 1);
    if (L->hi)
        sum = band_512(sum, L->pres[(m + SLICE_ROWS - 1) / SLICE_ROWS + s],
                       L->hi + i0, xr + 1);
    t = _mm512_div_pd(neg_512(sum), _mm512_maskz_loadu_pd(rows, diag + i0));
    if (damping != 1.0)
        t = _mm512_add_pd(_mm512_mul_pd(_mm512_set1_pd(1.0 - damping),
                                        _mm512_maskz_loadu_pd(rows, xr)),
                          _mm512_mul_pd(_mm512_set1_pd(damping), t));
    _mm512_mask_storeu_pd(out + i0, rows, t);
}

#elif defined(__AVX2__)

/* The lanes of a 4-bit presence nibble. */
static inline __m256i bits_256(unsigned bits)
{
    const __m256i bit = _mm256_set_epi64x(8, 4, 2, 1);
    return _mm256_cmpeq_epi64(
        _mm256_and_si256(_mm256_set1_epi64x((long long)bits), bit), bit);
}

/* As band_512, for the 4 rows of one half of a slice. */
static inline __m256d band_256(__m256d sum, unsigned bits, const double *b,
                               const double *x)
{
    const __m256i k = bits_256(bits);
    return _mm256_blendv_pd(sum, _mm256_add_pd(sum, _mm256_mul_pd(
        _mm256_loadu_pd(b), _mm256_maskload_pd(x, k))),
        _mm256_castsi256_pd(k));
}

/* The update of one 4-row half of a slice: rows i0 .. i0 + left - 1,
 * whose x starts at xr. */
static inline void sliced_update_256(int64_t i0, int64_t left, __m256d sum,
                                     const double *diag, const double *xr,
                                     double damping, double *out)
{
    const __m256i k = lanes_256(left);
    const int full = left >= 4;
    __m256d t = _mm256_div_pd(_mm256_xor_pd(sum, _mm256_set1_pd(-0.0)),
                              load_256(diag + i0, k, full));
    if (damping != 1.0)
        t = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(1.0 - damping),
                                        load_256(xr, k, full)),
                          _mm256_mul_pd(_mm256_set1_pd(damping), t));
    store_256(out + i0, k, full, t);
}

/* Two 4-lane halves per slice; ended rows keep their sum by blend. */
static inline void sliced_slice(int64_t s, int64_t m, int64_t row0,
                                const sliced_layout *L, const double *diag,
                                const double *X, double damping,
                                double *out)
{
    const int64_t base = L->slice_ptr[s];
    const int64_t width = (L->slice_ptr[s + 1] - base) / SLICE_ROWS;
    const int64_t i0 = s * SLICE_ROWS;
    const double *xr = X + row0 + i0;    /* x of the slice's rows */
    const __m256i len_lo = _mm256_cvtepi32_epi64(
        _mm_loadu_si128((const __m128i *)(L->lens + i0)));
    const __m256i len_hi = _mm256_cvtepi32_epi64(
        _mm_loadu_si128((const __m128i *)(L->lens + i0 + 4)));
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
            _mm_loadu_si128((const __m128i *)(L->cols + at)), live_lo, 8);
        const __m256d x_hi = _mm256_mask_i32gather_pd(
            _mm256_setzero_pd(), X,
            _mm_loadu_si128((const __m128i *)(L->cols + at + 4)), live_hi,
            8);
        sum_lo = _mm256_blendv_pd(sum_lo, _mm256_add_pd(sum_lo,
            _mm256_mul_pd(_mm256_loadu_pd(L->vals + at), x_lo)), live_lo);
        sum_hi = _mm256_blendv_pd(sum_hi, _mm256_add_pd(sum_hi,
            _mm256_mul_pd(_mm256_loadu_pd(L->vals + at + 4), x_hi)),
            live_hi);
    }
    if (L->lo) {
        const unsigned p = L->pres[s];
        sum_lo = band_256(sum_lo, p & 15u, L->lo + i0, xr - 1);
        sum_hi = band_256(sum_hi, p >> 4, L->lo + i0 + 4, xr + 3);
    }
    if (L->hi) {
        const unsigned p = L->pres[(m + SLICE_ROWS - 1) / SLICE_ROWS + s];
        sum_lo = band_256(sum_lo, p & 15u, L->hi + i0, xr + 1);
        sum_hi = band_256(sum_hi, p >> 4, L->hi + i0 + 4, xr + 5);
    }
    sliced_update_256(i0, m - i0, sum_lo, diag, xr, damping, out);
    if (m - i0 > 4)
        sliced_update_256(i0 + 4, m - i0 - 4, sum_hi, diag, xr + 4,
                          damping, out);
}

#else

/* Portable build: the same layout, one lane at a time per entry. */
static void sliced_slice(int64_t s, int64_t m, int64_t row0,
                         const sliced_layout *L, const double *diag,
                         const double *X, double damping, double *out)
{
    const int64_t base = L->slice_ptr[s];
    const int64_t width = (L->slice_ptr[s + 1] - base) / SLICE_ROWS;
    const int64_t i0 = s * SLICE_ROWS;
    const double *xr = X + row0 + i0;    /* x of the slice's rows */
    const unsigned p_lo = L->pres[s];
    const unsigned p_hi = L->pres[(m + SLICE_ROWS - 1) / SLICE_ROWS + s];
    double sum[SLICE_ROWS] = {0.0};
    int64_t c, r;
    for (c = 0; c < width; ++c) {
        const int64_t at = base + c * SLICE_ROWS;
        for (r = 0; r < SLICE_ROWS; ++r)
            if (c < L->lens[i0 + r])
                sum[r] += L->vals[at + r] * X[L->cols[at + r]];
    }
    for (r = 0; r < SLICE_ROWS && i0 + r < m; ++r) {
        const int64_t i = i0 + r;
        double t;
        if (L->lo && (p_lo >> r & 1u))
            sum[r] += L->lo[i] * xr[r - 1];
        if (L->hi && (p_hi >> r & 1u))
            sum[r] += L->hi[i] * xr[r + 1];
        t = -sum[r] / diag[i];
        out[i] = damping == 1.0 ? t : (1.0 - damping) * xr[r] + damping * t;
    }
}

#endif

/* `sweeps` one-column sweeps of a whole (n, n) matrix's layout,
 * ping-ponging between out and scratch like csr_jacobi_sweep_stacked. */
void sliced_jacobi_sweep(int64_t n, const sliced_layout *L,
                         const double *diag, const double *X,
                         double damping, double *out, double *scratch,
                         int64_t sweeps)
{
    const int64_t n_slices = (n + SLICE_ROWS - 1) / SLICE_ROWS;
    const double *src = X;
    double *dst = (sweeps % 2) ? out : scratch;
    int64_t k, s;
    for (k = 0; k < sweeps; ++k) {
        #pragma omp parallel for schedule(static)
        for (s = 0; s < n_slices; ++s)
            sliced_slice(s, n, 0, L, diag, src, damping, dst);
        src = dst;
        dst = dst == out ? scratch : out;
    }
}

/* One sweep of a block layout of rows [row0, row0 + m): x is the whole
 * iterate, diag and out the block's m rows.  Each row is computed as
 * in sliced_jacobi_sweep, so a matrix's blocks, built with the whole
 * matrix's peel, reassemble its sweep bit for bit. */
void sliced_jacobi_sweep_block(int64_t m, int64_t row0,
                               const sliced_layout *L, const double *diag,
                               const double *x, double damping, double *out)
{
    const int64_t n_slices = (m + SLICE_ROWS - 1) / SLICE_ROWS;
    int64_t s;
    #pragma omp parallel for schedule(static)
    for (s = 0; s < n_slices; ++s)
        sliced_slice(s, m, row0, L, diag, x, damping, out);
}

/* ---- narrow stacked blocks -------------------------------------------- */

/* The widest stacked block the sweep op runs as one sliced sweep per
 * system rather than one interleaved pass.  The interleaved kernel
 * walks every row once per chunk of lanes, so its cost per sweep
 * barely moves from 1 system to a full chunk, while m sliced sweeps
 * cost m times one.  Each value is the crossover measured for its
 * build with one thread (DESIGN §13): 4 under AVX-512's 8 lanes, 2
 * under AVX2's 4, and 6 in the portable build, whose interleaved loop
 * decodes every entry in scalar code. */
#if defined(__AVX512F__)
#define STACK_NARROW_MAX 4
#elif defined(__AVX2__)
#define STACK_NARROW_MAX 2
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
                                const sliced_layout *L, const double *diag,
                                const double *X, double damping,
                                double *out, double *work, int64_t sweeps)
{
    double *d = work, *x = work + n, *y = work + 2 * n;
    int64_t i;
    for (i = 0; i < n; ++i) {
        d[i] = diag[i * m + s];
        x[i] = X[i * m + s];
    }
    sliced_jacobi_sweep(n, L, d, x, damping, y, work + 3 * n, sweeps);
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


class _SlicedLayout(ctypes.Structure):
    """``sliced_layout`` in the C source: the single-system sweep's
    arrays, passed to every sliced kernel as one pointer."""

    _fields_ = [("slice_ptr", _I64), ("lens", _I32), ("cols", _I32),
                ("vals", _F64), ("lo", _F64), ("hi", _F64), ("pres", _U8)]


_LAYOUT = ctypes.POINTER(_SlicedLayout)


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
    lib.ell_spmv.argtypes = [ctypes.c_int64, ctypes.c_int64, _I32, _F64,
                             _F64, _F64]
    lib.ellr_spmv.argtypes = [ctypes.c_int64, ctypes.c_int64, _I32, _F64,
                              _I32, _F64, _F64]
    lib.sell_spmv.argtypes = [ctypes.c_int64, ctypes.c_int64, _I64, _I64,
                              _I32, _F64, _F64, _F64]
    lib.dia_spmv.argtypes = [ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                             _I64, _F64, _F64, _F64]
    lib.band_peel.argtypes = [ctypes.c_int64, _I64, _I32]
    lib.band_peel.restype = ctypes.c_int64
    lib.sliced_plan.argtypes = [ctypes.c_int64, ctypes.c_int64, _I64,
                                _I64, _I32, _I32, _LAYOUT]
    lib.sliced_plan.restype = ctypes.c_int64
    lib.sliced_fill.argtypes = [ctypes.c_int64, ctypes.c_int64,
                                ctypes.c_int64, _I64, _I32, _F64, _LAYOUT]
    lib.sliced_fill.restype = ctypes.c_int64
    lib.sliced_jacobi_sweep.argtypes = [ctypes.c_int64, _LAYOUT, _F64, _F64,
                                        ctypes.c_double, _F64, _F64,
                                        ctypes.c_int64]
    lib.sliced_jacobi_sweep_block.argtypes = [
        ctypes.c_int64, ctypes.c_int64, _LAYOUT, _F64, _F64,
        ctypes.c_double, _F64]
    lib.stacked_narrow_max.argtypes = []
    lib.stacked_narrow_max.restype = ctypes.c_int64
    lib.sliced_jacobi_sweep_column.argtypes = [
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, _LAYOUT, _F64, _F64,
        ctypes.c_double, _F64, _F64, ctypes.c_int64]
    lib.csr_jacobi_sweep_stacked.argtypes = [
        ctypes.c_int64, ctypes.c_int64, _I64, _I32, _F64, _I64, _F64,
        _F64, ctypes.c_double, _F64, _F64, ctypes.c_int64]
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
    for name in ("csr_spmv", "ell_spmv", "ellr_spmv", "sell_spmv",
                 "dia_spmv", "sliced_jacobi_sweep",
                 "sliced_jacobi_sweep_block", "sliced_jacobi_sweep_column",
                 "csr_jacobi_sweep_stacked", "axpby",
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
_BLOCK_ATTR = "_repro_native_block"

#: Rows per slice of the single-system sweep's layout (``SLICE_ROWS`` in
#: the C source): one AVX-512 register of doubles.
_SLICE_ROWS = 8


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
    return cached(A, _PREP_ATTR, None, build)


#: ``PEEL_LO``/``PEEL_HI`` in the C source: the bit of each band offset.
_PEEL_BITS = {-1: 1, 1: 2}


def _peeled(peel: int) -> tuple[int, ...]:
    """The band offsets of the ``PEEL_*`` bits *peel*."""
    return tuple(off for off, bit in _PEEL_BITS.items() if peel & bit)


class _Layout(NamedTuple):
    """The single-system sweep's layout of a CSR row block (see
    ``sliced_layout`` in the C source): the arrays, the struct that
    points at them, a reference to it for the kernels, and the band
    offsets it peels."""

    slice_ptr: np.ndarray
    lens: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    lo: np.ndarray | None
    hi: np.ndarray | None
    pres: np.ndarray
    struct: _SlicedLayout
    ref: object
    band: tuple[int, ...]


def _build_sliced(A, row0: int = 0, band=None) -> _Layout:
    """The sliced layout of CSR *A*'s rows, which are rows ``row0``
    onward of their matrix.  *band* names the peeled offsets; ``None``
    lets the plan decide on *A*, which must then be square.  One O(nnz)
    pass counts, decides and sizes the slices, and one fills them and
    the band.  Raises ``ValueError`` when a row stores a peeled offset
    twice."""
    lib = get_library()
    _, _, _, pi, pc, pv = _csr_arrays(A)
    m = A.shape[0]
    if band is None:
        peel = np.array([-1], dtype=np.int64)
    else:
        band = tuple(band)
        if not set(band) <= set(_PEEL_BITS):
            raise ValueError(f"a sweep peels offsets -1 and +1, got {band}")
        peel = np.array([sum(_PEEL_BITS[off] for off in set(band))],
                        dtype=np.int64)
    n_slices = -(-m // _SLICE_ROWS)
    padded = n_slices * _SLICE_ROWS
    slice_ptr = np.empty(n_slices + 1, dtype=np.int64)
    lens = np.empty(padded, dtype=np.int32)
    struct = _SlicedLayout(slice_ptr=_pi64(slice_ptr), lens=_pi32(lens))
    ref = ctypes.byref(struct)
    slots = lib.sliced_plan(m, row0, _pi64(peel), pi, pc,
                            _pi32(np.empty(2 * m, dtype=np.int32)), ref)
    peel = int(peel[0])
    band = _peeled(peel)
    cols = np.empty(slots, dtype=np.int32)
    vals = np.empty(slots, dtype=np.float64)
    lo = np.empty(padded) if peel & 1 else None
    hi = np.empty(padded) if peel & 2 else None
    pres = np.empty(2 * n_slices, dtype=np.uint8)
    struct.cols, struct.vals, struct.pres = _pi32(cols), _p64(vals), \
        _pu8(pres)
    struct.lo = None if lo is None else _p64(lo)
    struct.hi = None if hi is None else _p64(hi)
    dup = lib.sliced_fill(m, row0, peel, pi, pc, pv, ref)
    if dup >= 0:
        raise ValueError(f"row {row0 + dup} stores a peeled band entry "
                         f"twice")
    return _Layout(slice_ptr, lens, cols, vals, lo, hi, pres, struct, ref,
                   band)


def _sliced_arrays(A) -> _Layout:
    """The cached sliced layout of *A*; it lives as long as *A*."""
    return cached(A, _SLICED_ATTR, None, lambda: _build_sliced(A))


# Stacked-system preparation for the fused multi-system sweep: checked
# shared structure plus a compressed value stream in the sweep's order,
# cached on the first system keyed by the ids of the whole list.  The
# entry pins the other systems, so no id in the key can be recycled
# while it lives (the head owns it).  It pins only the distinct systems
# other than the head: a sweep's lists keep their order as columns
# retire, and a batch of one generator repeats its head, so entries
# form no reference cycle and die with their matrices rather than
# waiting for the cyclic collector.  A cached ``None`` payload records
# "this list does not share structure" so the check runs once, not per
# sweep.

_STACK_SWEEP_ATTR = "_repro_native_stacked_sweep"
_STACK_MAX = 64


def _stacked(systems):
    """:func:`_sweep_stream` for a list of CSR systems sharing one
    pattern; ``None`` for any other list.  Cached on the head."""
    head = systems[0]
    key = tuple(map(id, systems))
    hit = getattr(head, _STACK_SWEEP_ATTR, None)
    if hit is not None and hit[0] == key:
        return hit[1]
    payload = None
    if all(sp.issparse(A) and A.format == "csr" for A in systems):
        preps = [_csr_arrays(A) for A in systems]
        indptr, cols = preps[0][0], preps[0][1]
        if all(np.array_equal(p[0], indptr) and np.array_equal(p[1], cols)
               for p in preps[1:]):
            V = np.empty((cols.shape[0], len(systems)), dtype=np.float64)
            for s, p in enumerate(preps):
                V[:, s] = p[2]
            payload = _sweep_stream(indptr, cols, V)
    try:
        pinned = {id(A): A for A in systems if A is not head}
        setattr(head, _STACK_SWEEP_ATTR,
                (key, payload, tuple(pinned.values())))
    except (AttributeError, TypeError):
        pass
    return payload


def _value_stream(indptr, cols, V):
    """The stacked sweep's arrays for pattern ``(indptr, cols)`` with
    values ``V``: entries uniform across every system are stored once
    in the stream, varying entries as m interleaved doubles, and the tag
    rides in the column index's sign bit.  Returns ``(indptr, tagged,
    vstream, vofs)`` followed by their four pointers."""
    m = V.shape[1]
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
    tagged = np.array(cols, dtype=np.int32)
    tagged[~uni] |= np.int32(-2147483648)
    return (indptr, tagged, vstream, vofs,
            _pi64(indptr), _pi32(tagged), _p64(vstream), _pi64(vofs))


def _sweep_stream(indptr, cols, V):
    """:func:`_value_stream` of the entries the single-system sweep
    reads, in its order: per row the off-band entries in stored order,
    then the peeled -1 entry, then the peeled +1 entry; no diagonal.
    The peel is ``band_peel``'s on the shared pattern."""
    n = indptr.size - 1
    band = _peeled(get_library().band_peel(n, _pi64(indptr), _pi32(cols)))
    rows, keep, peeled = sweep_split(indptr, cols, 0, band)
    pos = np.concatenate([keep] + [p for _, _, p in peeled])
    rank = np.concatenate([3 * rows[keep]] + [3 * at + (1 if off < 0 else 2)
                                              for off, at, _ in peeled])
    order = pos[np.argsort(rank, kind="stable")]
    sweep_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[order], minlength=n), out=sweep_ptr[1:])
    return _value_stream(sweep_ptr, cols[order], V[order])


def _ell_arrays(fmt):
    def build():
        return (np.ascontiguousarray(fmt.values, dtype=np.float64),
                np.ascontiguousarray(fmt.cols, dtype=np.int32))
    return cached(fmt, _PREP_ATTR, None, build)


def _ellr_arrays(fmt):
    def build():
        return (np.ascontiguousarray(fmt.values, dtype=np.float64),
                np.ascontiguousarray(fmt.cols, dtype=np.int32),
                np.ascontiguousarray(fmt.rl, dtype=np.int32))
    return cached(fmt, _PREP_ATTR, None, build)


def _sell_arrays(fmt):
    def build():
        return (np.ascontiguousarray(fmt.slice_ptr, dtype=np.int64),
                np.ascontiguousarray(fmt.slice_k, dtype=np.int64),
                np.ascontiguousarray(fmt.cols, dtype=np.int32),
                np.ascontiguousarray(fmt.values, dtype=np.float64))
    return cached(fmt, _PREP_ATTR, None, build)


def _dia_arrays(fmt):
    def build():
        return (np.ascontiguousarray(fmt.offsets, dtype=np.int64),
                np.ascontiguousarray(fmt.data, dtype=np.float64))
    return cached(fmt, _PREP_ATTR, None, build)


# -- kernel wrappers -------------------------------------------------------


def _csr_spmv(fmt, x):
    lib = get_library()
    _, _, _, pi, pc, pv = _csr_arrays(fmt)
    x = _f64(x)
    y = np.empty(fmt.shape[0], dtype=np.float64)
    lib.csr_spmv(fmt.shape[0], pi, pc, pv, _vec(x), _vec(y))
    return y


def _ell_spmv(fmt, x):
    lib = get_library()
    vals, cols = _ell_arrays(fmt)
    x = _f64(x)
    y = np.empty(fmt.shape[0], dtype=np.float64)
    lib.ell_spmv(fmt.shape[0], fmt.k, _pi32(cols), _p64(vals),
                 _vec(x), _vec(y))
    return y


def _ellr_spmv(fmt, x):
    lib = get_library()
    vals, cols, rl = _ellr_arrays(fmt)
    x = _f64(x)
    y = np.empty(fmt.shape[0], dtype=np.float64)
    lib.ellr_spmv(fmt.shape[0], fmt.k, _pi32(cols), _p64(vals), _pi32(rl),
                  _vec(x), _vec(y))
    return y


def _sell_core_spmv(fmt, x):
    """Sliced product in *storage* row order, full padded length."""
    lib = get_library()
    slice_ptr, slice_k, cols, vals = _sell_arrays(fmt)
    x = _f64(x)
    y = np.empty(fmt.n_padded, dtype=np.float64)
    lib.sell_spmv(fmt.n_slices, fmt.slice_size, _pi64(slice_ptr),
                  _pi64(slice_k), _pi32(cols), _p64(vals), _vec(x), _vec(y))
    return y


def _sell_spmv(fmt, x):
    return _sell_core_spmv(fmt, x)[: fmt.shape[0]]


def _permuted_spmv(fmt, x):
    """sell-c-sigma / warped-ell: sliced core + scatter (+ diagonal)."""
    y_storage = _sell_core_spmv(fmt, x)[: fmt.shape[0]]
    diag = getattr(fmt, "diagonal_values", None)
    if diag is not None:
        y_storage = y_storage + diag * x[fmt.row_ids]
    y = np.empty(fmt.shape[0], dtype=np.float64)
    y[fmt.row_ids] = y_storage
    return y


def _dia_spmv(fmt, x):
    lib = get_library()
    offsets, data = _dia_arrays(fmt)
    x = _f64(x)
    y = np.empty(fmt.shape[0], dtype=np.float64)
    lib.dia_spmv(fmt.shape[0], fmt.shape[1], offsets.shape[0],
                 _pi64(offsets), _p64(data), _vec(x), _vec(y))
    return y


def _ell_dia_spmv(fmt, x):
    return _dia_spmv(fmt.dia, x) + _ell_spmv(fmt.ell, x)


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

#: Format-independent ops this backend provides.
_PRIMITIVES = frozenset({"jacobi_sweep", "jacobi_sweep_many", "axpy",
                         "residual", "renormalize_columns",
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
        return op == "spmv" and format_name in _SPMV

    def spmv(self, fmt, x: np.ndarray) -> np.ndarray:
        return _SPMV[fmt.format_name](fmt, x)

    def jacobi_sweep(self, A, diag: np.ndarray, X: np.ndarray,
                     damping: float = 1.0,
                     out: np.ndarray | None = None,
                     sweeps: int = 1) -> np.ndarray:
        """Fused sweep of one ``(n,)`` column on a CSR generator, over
        the matrix's sliced ELL+DIA layout (built on the first sweep
        and cached on *A*; see ``sliced_layout`` in the C source).
        ``sweeps=k`` runs k sweeps in one C call over two ping-pong
        buffers, bit-identical to k single calls.  *X* is only read.
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
        lib.sliced_jacobi_sweep(n, _sliced_arrays(A).ref, _vec(diag),
                                _vec(X), float(damping), _vec(out),
                                scratch, k)
        return out

    def jacobi_sweep_block(self, local, diag: np.ndarray, x: np.ndarray,
                           row_start: int, damping: float = 1.0,
                           band=()) -> np.ndarray:
        """Row-block sweep for the sharded solver (see the reference):
        one sliced sweep of *local*'s rows, the rectangular ``(m, n)``
        CSR slice owning rows ``[row_start, row_start + m)``, laid out
        with the whole matrix's peeled *band* and cached on *local*.
        *x* is the full-length iterate.  Non-CSR slices take the
        reference.  An extension method discovered via ``getattr``
        (not part of the core protocol ops).
        """
        if not (sp.issparse(local) and local.format == "csr"):
            return NumpyBackend().jacobi_sweep_block(
                local, diag, x, row_start, damping, band)
        m, n = local.shape
        row0 = int(row_start)
        diag = _f64(diag)
        x = _f64(x)
        if diag.shape != (m,) or x.shape != (n,) or not 0 <= row0 <= n - m:
            raise ValueError(
                f"jacobi_sweep_block needs diag ({m},), x ({n},) and rows "
                f"{row0}..{row0 + m} inside the matrix; got {diag.shape} "
                f"and {x.shape}")
        band = tuple(band)
        layout = cached(local, _BLOCK_ATTR, (row0, band),
                        lambda: _build_sliced(local, row0, band))
        out = np.empty(m, dtype=np.float64)
        get_library().sliced_jacobi_sweep_block(
            m, row0, layout.ref, _vec(diag), _vec(x), float(damping),
            _vec(out))
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
        prep = (_stacked(systems)
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
                    n, m, s, _sliced_arrays(A).ref, pd, px,
                    float(damping), po, work, k)
            return out
        pi, pc, pv, po = prep[4:]
        scratch = _vec(np.empty_like(X)) if k > 1 else None
        lib.csr_jacobi_sweep_stacked(n, m, pi, pc, pv, po, _vec(diag),
                                     _vec(X), float(damping), _vec(out),
                                     scratch, k)
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
