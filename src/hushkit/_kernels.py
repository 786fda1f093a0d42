"""Adaptive-filter inner loop and the FIR of the ANC stimulus and paths.

The per-sample adaptation recursion is the largest hot spot in the package;
the FIR convolutions that make the stimulus and the path outputs come next.
``adapt_chunk`` fills ``y[start:stop]`` and ``e[start:stop]`` in place and
updates the weight vector ``w`` in place:

    y[n] = sum_k w[k] * x[n-k]                      (controller output)
    e[n] = d[n] - sum_m sec[m] * y[n-m]             (residual at the listener)
    g    = mu / (||xf_hist||^2 + eps)  if normalized else  mu
    w   <- (1 - mu*leak) * w + g * e[n] * xf_hist

where ``xf`` is the (possibly secondary-path-filtered) reference signal and
history samples before index 0 are zero.

``adapt_chunk`` and ``fir`` run a small C library (``_C_SOURCE``), compiled
with the system ``cc`` on the first call and loaded through ``ctypes``. The
shared library is cached under ``$XDG_CACHE_HOME/hushkit/`` (default
``~/.cache/hushkit/``), named by the hash of its source, flags and machine,
so one machine compiles it once. Without a compiler, or when the build or
the load fails, ``adapt_chunk`` runs ``adapt_chunk_numpy`` instead and
``fir`` runs ``fir_numpy``; ``backend_name()`` says which ones run.

``adapt_chunk_numpy`` is the reference the C kernel must match bit for bit,
and ``_lanes`` holds the one order in which both sum the output, the
residual and the NLMS norm: in four lanes, lane j adding the products of
taps k = j (mod 4), newest sample first, from 0.0, and the lanes combining
as (l0 + l1) + (l2 + l3). Earlier versions summed serially, so a report off
the shipped corpus may differ from theirs in the fourth decimal. The C
kernel is built without FMA contraction or reassociation, so both give the
same bytes. Callers look ``adapt_chunk`` up at call time, so the reference
can be swapped in.

The C kernel holds a sum's lanes in two vectors of two doubles, whose lanes
round as scalar code does, in the order in which a newest-first window of
samples lies in memory. So that the weights lie in that order too, a call
reverses ``w`` in place before its first sample and back before it returns,
and addresses tap j as W[-j], W being ``w``'s last element; only the
secondary path's pairs are swapped into order. ctypes releases the GIL for
the call, so another thread that reads ``w`` meanwhile sees it reversed.
Its one step per sample makes one pass over ``w``: the sweep that applies
sample n's update (leak included) adds each weight it has just written into
sample n+1's output, and for NLMS the same taps into sample n+1's norm. The
fused ``w*decay + g*e*xf`` rounds the same two products and the same sum as
the reference's two steps.

The residual stops where the path's tail can no longer change it. Once per
call the kernel bounds the taps from each multiple of 8 on, bound = max
|sec[i]| over the rest, and gates the cut at J, the first multiple of 8
whose bound is below 2^-55 * sum |sec| (before it no lane can pass). From J
on, every 8 taps, the sum stops if bound * ymax < |l| * 2^-56 for each of
its lanes l, where ymax bounds |y| over the outputs the tail reads: seeded
at the chunk's start from the M-1 outputs before it, raised by every output
written, +inf after a NaN. A lane is a serial sum, and each term t it skips
has |t| <= fl(bound * ymax) < |l| * 2^-56 < ulp(l)/4, so l + t rounds back
to l: no lane moves, and the bytes stay the reference's (where |l| * 2^-56
rounds into the subnormals, |t| is still below its exact value, both being
multiples of 2^-1074). A lane of 0 or NaN never passes, nor does a bound
times an infinite ymax, so 0*inf in the tail still gives NaN. Paths with no
negligible tail (as in the shipped configs) and paths over 4,096 taps get
J = M: their whole sum runs with no check.

``fir`` computes ``out[i] = sum_k h[k] * src[i + M - 1 - k]`` for i in
[0, n), ``src`` being ``x`` behind ``lead`` zeros and n = lead + len(x) - M
+ 1: valid convolution with no lead, causal with ``lead = M - 1``. Each
output is a serial sum in order of k from 0.0, as ``fir_numpy`` states it,
so no figure of an ANC report passes through BLAS, whose dot product's
order depends on the CPU. The sum never becomes -0.0, so a term that meets
a lead zero, being +-0.0 since the taps must be finite, cannot change it,
and the C copies skip those terms. The C FIR holds consecutive outputs in the lanes of a vector, each
lane rounding as scalar code does, so its bits do not depend on the vector
width. One body is compiled in three copies, of 2 lanes (the baseline
target), 4 (AVX2) and 8 (AVX-512F); on x86-64 ``fir_width()`` is the widest
that the CPU runs, elsewhere only the baseline copy is built.
"""
from __future__ import annotations

import functools
import os

import numpy as np


def _lanes(a, b):
    """``a @ b`` in four lanes: lane j adds ``a[k] * b[k]`` for k = j (mod 4)
    in order of k, from 0.0; the lanes combine as (l0 + l1) + (l2 + l3)."""
    p = np.zeros(-(-len(a) // 4) * 4)  # +0.0 padding leaves a lane as it is
    np.multiply(a, b, out=p[:len(a)])
    l0, l1, l2, l3 = np.add.reduce(p.reshape(-1, 4), axis=0, initial=0.0).tolist()
    return (l0 + l1) + (l2 + l3)


def adapt_chunk_numpy(x, xf, d, sec, w, y, e, start, stop, mu, leak, normalized, eps):
    L = w.shape[0]
    M = sec.shape[0]
    decay = 1.0 - mu * leak
    for n in range(start, stop):
        k = min(L, n + 1)
        xw = x[n - k + 1 : n + 1][::-1]
        y[n] = _lanes(w[:k], xw)
        m = min(M, n + 1)
        e[n] = d[n] - _lanes(sec[:m], y[n - m + 1 : n + 1][::-1])
        xfw = xf[n - k + 1 : n + 1][::-1]
        g = mu / (_lanes(xfw, xfw) + eps) if normalized else mu
        if leak != 0.0:
            w *= decay
        w[:k] += (g * e[n]) * xfw


def _fir_length(h, x, lead):
    """n, the count of outputs of ``h`` over ``x`` behind ``lead`` zeros."""
    if h.ndim != 1 or x.ndim != 1 or len(h) == 0:
        raise ValueError("h and x must be 1-D, and h must have a tap")
    if not np.isfinite(h).all():  # inf * 0 would make a lead zero's term NaN
        raise ValueError("h must be finite")
    if not 0 <= lead < len(h):
        raise ValueError(f"lead {lead} lies outside [0, {len(h) - 1}]")
    n = lead + len(x) - len(h) + 1
    if n < 0:
        raise ValueError("x is shorter than the taps reach")
    return n


def fir_numpy(h, x, lead=0):
    """The reference FIR: every output adds its taps' terms from 0.0 in
    order of k, the lead zeros' terms included."""
    h, x, lead = np.asarray(h, np.float64), np.asarray(x, np.float64), int(lead)
    M, n = len(h), _fir_length(h, x, lead)
    src = np.concatenate((np.zeros(lead), x))
    out = np.zeros(n)
    for k in range(M):
        out += h[k] * src[M - 1 - k : M - 1 - k + n]
    return out


_C_SOURCE = b"""\
#include <math.h>
#include <stdint.h>
#include <string.h>

/* Paths of up to this many taps (anc.MAX_FILTER_LENGTH) get tap bounds. */
#define BOUNDED 4096

/* Two doubles side by side; each lane rounds as a lone double would. */
typedef double v2 __attribute__((vector_size(16)));

/* The four lanes of a sum: lo holds lanes 1 and 0, hi lanes 3 and 2, the
   order in which the samples of taps 4i .. 4i + 3 of a window lie in memory.
   Lane j adds the terms of taps k = j (mod 4) in order of k, from 0.0, so no
   lane is ever -0.0 and adding 0.0 leaves it as it is. */
typedef struct { v2 lo, hi; } lanes;

static inline __attribute__((always_inline)) v2
swap(v2 v)
{
    return (v2){v[1], v[0]};
}

static inline __attribute__((always_inline)) v2
pair(const double *a, int64_t i)  /* a[i], a[i + 1] */
{
    v2 v;
    memcpy(&v, a + i, sizeof v);
    return v;
}

/* (l0 + l1) + (l2 + l3) of a sum of k terms; a lane no term reached is
   +0.0, which adds nothing to another lane. */
static inline __attribute__((always_inline)) double
total(lanes s, int64_t k)
{
    /* adding all four lanes whatever k ran 11% slower on 2 taps */
    double a = k > 1 ? s.lo[1] + s.lo[0] : s.lo[1];
    return k > 2 ? a + (k > 3 ? s.hi[1] + s.hi[0] : s.hi[1]) : a;
}

/* Adds t, the term of tap k, to lane k mod 4. */
static inline __attribute__((always_inline)) void
add(lanes *s, int64_t k, double t)
{
    v2 v = k & 1 ? (v2){t, 0.0} : (v2){0.0, t};
    if (k & 2)
        s->hi += v;
    else
        s->lo += v;
}

/* max(top, |v|), but +inf for a NaN v, so that a bound times it is inf or
   NaN and never below a threshold. */
static inline double
higher(double top, double v)
{
    double a = fabs(v);
    return a <= top ? top : a == a ? a : INFINITY;
}

/* Taps j and j + 1 of sample n's sweep: their update, then their terms of
   sample n + 1's output, into t, and of its NLMS norm, into p. The weights
   lie newest-first, tap j at W[-j], so taps j + 1 and j lie as their x and xf
   samples do. */
static inline __attribute__((always_inline)) void
sweep(const double *x, const double *xf, double *W, int64_t n, int64_t j, v2 g,
      v2 c, v2 *t, v2 *p, const int normalized, const int leak)
{
    v2 v = pair(W, -j - 1);
    v = leak ? v * c + g * pair(xf, n - j - 1) : v + g * pair(xf, n - j - 1);
    *t += v * pair(x, n - j);
    if (normalized)
        *p += pair(xf, n - j) * pair(xf, n - j);
    memcpy(W - j - 1, &v, sizeof v);
}

/* Sample n: y[n] from the lanes s, its residual, then the sweep that applies
   its update and, unless n is the chunk's last sample, sums s and q, the
   NLMS norm, anew for sample n + 1. The residual sums taps 0 .. J - 1 whole;
   from tap J, a multiple of 8, it stops at the first block of 8 whose bound
   on every term left, bound[i / 8] * ymax, settles every lane. */
static inline __attribute__((always_inline)) void
step(const double *x, const double *xf, const double *d, const double *sec,
     int64_t M, int64_t J, const double *bound, double *ymax, double *W,
     int64_t L, double *y, double *e, int64_t n, int64_t stop, lanes *s,
     lanes *q, double mu, double decay, double eps, const int normalized,
     const int leak)
{
    int64_t m = n + 1 < M ? n + 1 : M, k = n + 1 < L ? n + 1 : L;
    int64_t i = 0, j = 0, end = J < m ? J : m, ahead = n + 1 < stop;
    lanes r = {{0.0, 0.0}, {0.0, 0.0}}, t = r, p = r;
    double out = total(*s, k);
    y[n] = out;
    *ymax = higher(*ymax, out);
    for (;;) {
        /* y[n] comes from out: a load that spans its store would wait for it */
        for (; i + 4 <= end; i += 4) {
            r.lo += swap(pair(sec, i)) * (i ? pair(y, n - i - 1) : (v2){y[n - 1], out});
            r.hi += swap(pair(sec, i + 2)) * pair(y, n - i - 3);
        }
        if (end == m)
            break;
        double b = bound[i / 8] * *ymax;  /* no term left exceeds b */
        if (b < fabs(r.lo[0]) * 0x1p-56 && b < fabs(r.lo[1]) * 0x1p-56 &&
            b < fabs(r.hi[0]) * 0x1p-56 && b < fabs(r.hi[1]) * 0x1p-56) {
            m = i;
            break;
        }
        end = i + 8 < m ? i + 8 : m;
    }
    for (; i < m; i++)
        add(&r, i, sec[i] * (i ? y[n - i] : out));
    e[n] = d[n] - total(r, m);
    double ge = (normalized ? mu / (total(*q, k) + eps) : mu) * e[n];
    v2 g = {ge, ge}, c = {decay, decay};
    for (; ahead && j + 4 <= k; j += 4) {
        sweep(x, xf, W, n, j, g, c, &t.lo, &p.lo, normalized, leak);
        sweep(x, xf, W, n, j + 2, g, c, &t.hi, &p.hi, normalized, leak);
    }
    if (ahead && j + 2 <= k) {
        sweep(x, xf, W, n, j, g, c, &t.lo, &p.lo, normalized, leak);
        j += 2;
    }
    /* The taps left: an odd last one, and while the history grows (k < L)
       tap k, which only decays and meets x[0]; every tap of a chunk's last
       sample, which has no look-ahead; with a leak, the taps past k. */
    for (end = leak || k == L ? L : k + 1; j < end; j++) {
        double v = leak ? W[-j] * decay : W[-j];
        if (j < k)
            v += ge * xf[n - j];
        W[-j] = v;
        if (ahead && j <= k) {
            add(&t, j, v * x[n + 1 - j]);
            if (normalized)
                add(&p, j, xf[n + 1 - j] * xf[n + 1 - j]);
        }
    }
    *s = t;
    *q = p;
}

/* One step per sample, after the first sample's output and norm. ymax
   bounds |y| over every output a residual from tap J reads: those before
   the chunk that its first residual reaches, then each one written. Tap j
   of the weights is W[-j]. */
static inline __attribute__((always_inline)) void
run(const double *x, const double *xf, const double *d, const double *sec,
    int64_t M, int64_t J, const double *bound, double *W, int64_t L, double *y,
    double *e, int64_t start, int64_t stop, double mu, double decay, double eps,
    const int normalized, const int leak)
{
    int64_t k = start + 1 < L ? start + 1 : L;
    lanes s = {{0.0, 0.0}, {0.0, 0.0}}, q = s;
    double ymax = 0.0;
    for (int64_t i = start - M + 1 > 0 ? start - M + 1 : 0; i < start; i++)
        ymax = higher(ymax, y[i]);
    for (int64_t j = 0; j < k; j++) {
        add(&s, j, W[-j] * x[start - j]);
        if (normalized)
            add(&q, j, xf[start - j] * xf[start - j]);
    }
    for (int64_t n = start; n < stop; n++)
        step(x, xf, d, sec, M, J, bound, &ymax, W, L, y, e, n, stop, &s, &q, mu,
             decay, eps, normalized, leak);
}

/* w[0 .. L - 1] in reverse order, in place. */
static void
flip(double *w, int64_t L)
{
    for (int64_t i = 0, j = L - 1; i < j; i++, j--) {
        double t = w[i];
        w[i] = w[j];
        w[j] = t;
    }
}

/* Once per call: bound[b] = max |sec[i]| over i >= 8b; J is the first
   multiple of 8 whose bound is below 2^-55 * sum |sec|, or M when there is
   none or M > BOUNDED. The cut cannot fire before J, since no lane exceeds
   sum |sec| * ymax to rounding. The weights are held newest-first while
   the samples run, and put back in tap order before the call returns. */
void adapt_chunk(const double *x, const double *xf, const double *d,
                 const double *sec, int64_t M, double *w, int64_t L,
                 double *y, double *e, int64_t start, int64_t stop,
                 double mu, double leak, int normalized, double eps)
{
    double decay = 1.0 - mu * leak, bound[BOUNDED / 8];
    int64_t J = M;
    if (start >= stop)
        return;
    if (M <= BOUNDED) {
        double top = 0.0, sum = 0.0;
        for (int64_t i = M - 1; i >= 0; i--) {
            sum += fabs(sec[i]);
            top = higher(top, sec[i]);
            if (i % 8 == 0)
                bound[i / 8] = top;
        }
        for (J = (M + 7) / 8 * 8; J > 0 && bound[J / 8 - 1] < sum * 0x1p-55; J -= 8)
            ;
        J = J < M ? J : M;
    }
    /* with no taps W is never read, and w - 1 is never formed */
    double *W = L ? w + L - 1 : w;
    flip(w, L);
    /* a copy of run per normalized and leak: with the leak a flag, 3.5-10% slower */
#define RUN(normalized, leak) run(x, xf, d, sec, M, J, bound, W, L, y, e, start, stop, \
                                  mu, decay, eps, normalized, leak)
    if (normalized)
        leak != 0.0 ? RUN(1, 1) : RUN(1, 0);
    else
        leak != 0.0 ? RUN(0, 1) : RUN(0, 0);
#undef RUN
    flip(w, L);
}

/* out[i] from s, its sum over the taps before k, on through its last tap
   that meets a sample: min(M - 1, i + D), where x[i + D - k] is the sample
   of tap k. The taps past it meet the lead zeros, and add nothing. */
static inline double
serial(const double *h, int64_t M, const double *x, int64_t D, int64_t i,
       int64_t k, double s)
{
    int64_t last = i + D < M - 1 ? i + D : M - 1;
    for (; k <= last; k++)
        s += h[k] * x[i + D - k];
    return s;
}

/* One copy of the FIR, of vectors of `lanes` outputs: blocks of FIR_SUMS
   vectors, each vector of accumulators adding tap k's terms for its outputs
   in order of k. The last block ends at n and may redo outputs of the one
   before, which get the same bits; n below one block runs serially. Where
   a block's first outputs reach the lead zeros (at + D < M - 1), its
   vectors stop at the last tap its first output takes, and each output
   goes on serially. Without the unroll pragma the accumulators live on the
   stack and the copy runs 2-3x slower. */
#define FIR_SUMS 8
#define FIR_COPY(name, lanes, ...)                                           \\
__VA_ARGS__ static void                                                      \\
name(const double *h, int64_t M, const double *x, int64_t n, int64_t D,     \\
     double *out)                                                            \\
{                                                                            \\
    typedef double v __attribute__((vector_size(8 * lanes)));                \\
    const int64_t B = FIR_SUMS * lanes;                                      \\
    for (int64_t i = 0; i < n; i += B) {                                     \\
        int64_t at = i + B <= n ? i : n - B;                                 \\
        if (at < 0) {                                                        \\
            for (; i < n; i++)                                               \\
                out[i] = serial(h, M, x, D, i, 0, 0.0);                      \\
            break;                                                           \\
        }                                                                    \\
        int64_t last = at + D < M - 1 ? at + D : M - 1;                      \\
        v s[FIR_SUMS];                                                       \\
        _Pragma("GCC unroll 8")                                              \\
        for (int a = 0; a < FIR_SUMS; a++)                                   \\
            s[a] = (v){0.0};                                                 \\
        for (int64_t k = 0; k <= last; k++) {                                \\
            _Pragma("GCC unroll 8")                                          \\
            for (int a = 0; a < FIR_SUMS; a++) {                             \\
                v t;                                                         \\
                memcpy(&t, x + at + a * lanes + D - k, sizeof t);            \\
                s[a] += h[k] * t;                                            \\
            }                                                                \\
        }                                                                    \\
        _Pragma("GCC unroll 8")                                              \\
        for (int a = 0; a < FIR_SUMS; a++)                                   \\
            memcpy(out + at + a * lanes, &s[a], sizeof s[a]);                \\
        for (int64_t j = at; last < M - 1 && j < at + B; j++)                \\
            out[j] = serial(h, M, x, D, j, last + 1, out[j]);                \\
    }                                                                        \\
}

FIR_COPY(fir2, 2)
#if defined(__x86_64__)
FIR_COPY(fir4, 4, __attribute__((target("avx2"))))
FIR_COPY(fir8, 8, __attribute__((target("avx512f"))))
#endif

/* Lanes of the widest copy this CPU runs. */
int fir_width(void)
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        return 8;
    if (__builtin_cpu_supports("avx2"))
        return 4;
#endif
    return 2;
}

/* out[i] = sum_k h[k] * src[i + M - 1 - k] for 0 <= i < n, src being x
   behind lead zeros (0 <= lead < M), on the copy of `width` lanes, which
   the caller has checked the CPU runs; 2 on any other value. */
void fir(const double *h, int64_t M, const double *x, int64_t n, int64_t lead,
         double *out, int width)
{
    int64_t D = M - 1 - lead;
#if defined(__x86_64__)
    if (width == 8) {
        fir8(h, M, x, n, D, out);
        return;
    }
    if (width == 4) {
        fir4(h, M, x, n, D, out);
        return;
    }
#else
    (void)width;  /* elsewhere only the baseline copy is built */
#endif
    fir2(h, M, x, n, D, out);
}
"""

# -ffp-contract=off keeps a*b+c from fusing into an FMA, which GCC does by
# default wherever the target has FMA (every aarch64); never add -ffast-math,
# -Ofast or -march=native, which reorder sums or enable FMA.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


def _cache_dir() -> str:
    """This user's hushkit cache directory, created 0700; raises OSError when
    it cannot be created or another user could write into it."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "hushkit")
    os.makedirs(path, mode=0o700, exist_ok=True)
    st = os.stat(path)
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise PermissionError(f"{path} is writable by other users")
    return path


def _load(name: str):
    """ctypes handle on the cached library, building it when it is missing.
    Builds in a fresh private directory: inside the cache when the cache is
    usable, then moves the library into place; otherwise in the system temp
    dir, and loads it from there. Never loads from a shared, predictable path."""
    import ctypes

    try:
        cache = _cache_dir()
    except OSError:
        cache = None
    if cache is not None:
        path = os.path.join(cache, name)
        if os.path.isfile(path):
            return ctypes.CDLL(path)
        if not os.access(cache, os.W_OK):
            cache = None
    import subprocess
    import tempfile

    with tempfile.TemporaryDirectory(prefix="hushkit-", dir=cache) as tmp:
        lib = os.path.join(tmp, name)
        done = subprocess.run(["cc", *_CFLAGS, "-x", "c", "-", "-o", lib],
                              input=_C_SOURCE, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
        if done.returncode != 0:
            raise OSError(f"cc exited with status {done.returncode}")
        if cache is None:
            return ctypes.CDLL(lib)
        os.replace(lib, path)
    return ctypes.CDLL(path)


@functools.cache
def _compiled():
    """The C library's ``adapt_chunk`` and ``fir`` as ctypes functions, and
    the lanes of the widest FIR copy the CPU runs; None when the library
    cannot be built or loaded. Resolved on the first kernel call, not at
    import, so commands that never simulate never load the library or run
    the compiler."""
    import ctypes
    import zlib

    # crc32, not hashlib: hashlib loads OpenSSL, which costs every ANC process
    # ~6 ms and ~3.6 MB of resident memory; the name only has to tell builds
    # apart in a directory no other user can write to.
    key = zlib.crc32(b"\0".join(
        (_C_SOURCE, " ".join(_CFLAGS).encode(), os.uname().machine.encode())))
    try:
        lib = _load(f"kernels-{key:08x}.so")
        adapt, fir, width = lib.adapt_chunk, lib.fir, lib.fir_width
    except (OSError, AttributeError):
        return None
    ptr, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    adapt.argtypes = (ptr, ptr, ptr, ptr, i64, ptr, i64, ptr, ptr, i64, i64,
                      f64, f64, ctypes.c_int, f64)
    fir.argtypes = (ptr, i64, ptr, i64, i64, ptr, ctypes.c_int)
    adapt.restype = fir.restype = None
    width.argtypes, width.restype = (), ctypes.c_int
    return adapt, fir, width()


def _output(a, name):
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.ndim == 1
            and a.flags.c_contiguous and a.flags.writeable):
        raise ValueError(f"{name} must be a writeable C-contiguous 1-D float64 array")
    return a


def adapt_chunk(x, xf, d, sec, w, y, e, start, stop, mu, leak, normalized, eps):
    """Run samples ``[start, stop)`` on the C kernel, or on the numpy one when
    the C kernel is unavailable; same arguments as ``adapt_chunk_numpy``."""
    compiled = _compiled()
    if compiled is None:
        return adapt_chunk_numpy(x, xf, d, sec, w, y, e, start, stop, mu, leak,
                                 normalized, eps)
    x, xf, d, sec = (np.ascontiguousarray(a, np.float64) for a in (x, xf, d, sec))
    w, y, e = _output(w, "w"), _output(y, "y"), _output(e, "e")
    if any(a.ndim != 1 for a in (x, xf, d, sec)):
        raise ValueError("x, xf, d and sec must be 1-D")
    start, stop = int(start), int(stop)
    if not 0 <= start <= stop <= min(len(x), len(xf), len(d), len(y), len(e)):
        raise ValueError(f"chunk [{start}, {stop}) lies outside the signal arrays")
    compiled[0](x.ctypes.data, xf.ctypes.data, d.ctypes.data, sec.ctypes.data,
                len(sec), w.ctypes.data, len(w), y.ctypes.data, e.ctypes.data,
                start, stop, float(mu), float(leak), bool(normalized), float(eps))


def fir(h, x, lead=0):
    """``fir_numpy(h, x, lead)``, the same bits, from the C library's widest
    FIR copy, or from ``fir_numpy`` when the library is unavailable."""
    compiled = _compiled()
    if compiled is None:
        return fir_numpy(h, x, lead)
    h, x = (np.ascontiguousarray(a, np.float64) for a in (h, x))
    lead = int(lead)
    n = _fir_length(h, x, lead)
    out = np.empty(n)
    compiled[1](h.ctypes.data, len(h), x.ctypes.data, n, lead, out.ctypes.data,
                compiled[2])
    return out


def backend_name() -> str:
    """Name of the backend ``adapt_chunk`` and ``fir`` run: ``"c"`` or
    ``"numpy"``."""
    return "numpy" if _compiled() is None else "c"


def fir_width() -> int:
    """Lanes of the C FIR copy ``fir`` runs: 8 (AVX-512F), 4 (AVX2) or 2 (the
    baseline target), or 0 when ``fir_numpy`` runs."""
    compiled = _compiled()
    return 0 if compiled is None else compiled[2]
