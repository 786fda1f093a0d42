"""Adaptive-filter inner loop.

The per-sample adaptation recursion is the only hot spot in the package.
``adapt_chunk`` fills ``y[start:stop]`` and ``e[start:stop]`` in place and
updates the weight vector ``w`` in place:

    y[n] = sum_k w[k] * x[n-k]                      (controller output)
    e[n] = d[n] - sum_m sec[m] * y[n-m]             (residual at the listener)
    g    = mu / (||xf_hist||^2 + eps)  if normalized else  mu
    w   <- (1 - mu*leak) * w + g * e[n] * xf_hist

where ``xf`` is the (possibly secondary-path-filtered) reference signal and
history samples before index 0 are zero.

``adapt_chunk`` runs a small C kernel (``_C_SOURCE``), compiled with the
system ``cc`` on the first call and loaded through ``ctypes``. The shared
library is cached under ``$XDG_CACHE_HOME/hushkit/`` (default
``~/.cache/hushkit/``), named by the hash of its source, flags and machine,
so one machine compiles it once. Without a compiler, or when the build or
the load fails, ``adapt_chunk`` runs ``adapt_chunk_numpy`` instead;
``backend_name()`` says which one runs.

``adapt_chunk_numpy`` is the reference the C kernel must match bit for bit.
Its dot products over reversed (negative-stride) views do not go through
BLAS: numpy sums them in one sequential loop from the newest sample back.
The C kernel sums in that same order and is built without FMA contraction
or reassociation, so both give the same bytes. Callers look ``adapt_chunk``
up at call time, so the reference can be swapped in.

The C kernel's one-sample step makes one pass over ``w``: the sweep that
applies sample n's update (leak included) also sums sample n+1's output from
each weight it has just written and, for NLMS, sample n+1's norm as a
second, independent sum. Only the first sample of a chunk gets a sweep of
its own, and the last one no look-ahead. The bytes stay those of the
reference: every sum has the same operands, in the same order (newest
sample first, from 0.0), and the fused ``w*decay + g*e*xf`` rounds the same
two products and the same sum as the reference's two steps, since no FMA
contracts them. Per sample, the output sum is one serial chain of L adds.

A secondary path that starts with D >= 1 zero taps (a bulk delay; those of
the shipped ``anc_broadband`` and ``anc_tone`` have 3) breaks that chain:
e[n+u] for u <= D needs no output newer than y[n]. From sample L-1 on, the kernel then adapts U
samples per sweep, U = 2 for D = 1 or 2 and U = 4 for D >= 3. It sums their
U residuals first, then makes one sweep that applies the U updates to each
weight in turn and carries U independent output sums, plus the next
group's U NLMS norms; those sums and the update products run two to a
vector of two doubles, whose lanes round as scalar code does. The
residuals sum from tap D: each leading term is 0*y = +-0 and
0.0 + +-0.0 = +0.0, so that is the reference's double while the D newest
outputs are finite. A group writes the updated weights to a second,
fixed-size buffer, so one that yields a non-finite output leaves the
weights it read whole and hands the rest of the chunk to the one-sample
step, as does a chunk that starts behind a non-finite output; the
residual keeps the reference's 0*inf = NaN. The step also takes D = 0,
the first L-1 samples, up to 2U-1 last samples of a chunk (no array is
read past ``stop``) and filters longer than ``anc.MAX_FILTER_LENGTH``,
which the second buffer cannot hold.

The step's residual stops where the path's tail can no longer change it.
Once per call the kernel bounds the taps from each multiple of 8 on,
bound = max |sec[i]| over the rest, and gates the cut at J, the first
multiple of 8 whose bound is below 2^-55 * sum |sec| (before it the cut
could not fire). Taps below J are summed whole; from J on, every 8 taps,
the sum stops if bound * ymax < |r| * 2^-56, where ymax bounds |y| over
the outputs the tail reads: seeded at the chunk's start from the M-1
outputs before it, raised by every output written, +inf after a NaN. Each
skipped term t has |t| <= fl(bound * ymax) < |r| * 2^-56 < ulp(r)/4, so
r + t rounds back to r: r never moves, the test keeps holding, and the
bytes stay numpy's (where |r| * 2^-56 rounds into the subnormals, |t| is
still below its exact value, both being multiples of 2^-1074). An r of 0 or
NaN never passes, nor does a bound times an infinite ymax, so 0*inf in the
tail still gives NaN. Paths with no negligible tail (J = M, as in the
shipped configs) and paths over 4,096 taps get J = M, so their whole sum
is the plain loop below J and they reach no check; the grouped residuals
keep the whole sum too.
"""
from __future__ import annotations

import functools
import os

import numpy as np


def adapt_chunk_numpy(x, xf, d, sec, w, y, e, start, stop, mu, leak, normalized, eps):
    L = w.shape[0]
    M = sec.shape[0]
    decay = 1.0 - mu * leak
    for n in range(start, stop):
        k = min(L, n + 1)
        xw = x[n - k + 1 : n + 1][::-1]
        y[n] = w[:k] @ xw
        m = min(M, n + 1)
        e[n] = d[n] - sec[:m] @ y[n - m + 1 : n + 1][::-1]
        xfw = xf[n - k + 1 : n + 1][::-1]
        if normalized:
            g = mu / ((xfw @ xfw) + eps)
        else:
            g = mu
        if leak != 0.0:
            w *= decay
        w[:k] += (g * e[n]) * xfw


_C_SOURCE = b"""\
#include <math.h>
#include <stdint.h>
#include <string.h>

/* anc.MAX_FILTER_LENGTH: a longer filter, which only a direct caller can
   pass, takes one-sample steps throughout, so the spare weights fit. */
#define SPARE 4096

/* Two doubles side by side; each lane rounds as a lone double would. */
typedef double v2 __attribute__((vector_size(16)));

static inline __attribute__((always_inline)) v2
pair(const double *a, int64_t i)  /* a[i], a[i + 1] */
{
    v2 v;
    memcpy(&v, a + i, sizeof v);
    return v;
}

/* max(top, |v|), but +inf for a NaN v, so that a bound times it is inf or
   NaN and never below a threshold. */
static inline double
higher(double top, double v)
{
    double a = fabs(v);
    return a <= top ? top : a == a ? a : INFINITY;
}

/* normalized, leak and U are constants in each inlined copy, so their
   tests leave the loops. s sums y[n] and q the NLMS norm of sample n. */

/* Sample n over all taps: its residual, then the sweep that applies its
   update and, unless n is the chunk's last sample, sums s and q anew for
   sample n + 1. The residual sums taps 0 .. J - 1 whole; from tap J, a
   multiple of 8, it stops at the first block of 8 whose bound on every
   term left, bound[i / 8] * ymax, is below |r| * 2^-56, since no such term
   can move r. With J = M the whole sum is the first loop. */
static inline __attribute__((always_inline)) void
step(const double *x, const double *xf, const double *d, const double *sec,
     int64_t M, int64_t J, const double *bound, double *ymax, double *w,
     int64_t L, double *y, double *e, int64_t n, int64_t stop, double *s,
     double *q, double mu, double decay, double eps, const int normalized,
     const int leak)
{
    int64_t m = n + 1 < M ? n + 1 : M, k = n + 1 < L ? n + 1 : L;
    int64_t i = 0, head = J < m ? J : m;
    y[n] = *s;
    *ymax = higher(*ymax, *s);
    double r = 0.0;
    for (; i < head; i++) r += sec[i] * y[n - i];
    while (i < m && !(bound[i / 8] * *ymax < fabs(r) * 0x1p-56))
        for (int64_t end = i + 8 < m ? i + 8 : m; i < end; i++)
            r += sec[i] * y[n - i];
    e[n] = d[n] - r;
    double ge = (normalized ? mu / (*q + eps) : mu) * e[n];
    int64_t j = 0;
    if (n + 1 < stop) {
        double t = 0.0, p = 0.0;
        for (; j < k; j++) {
            double v = leak ? w[j] * decay + ge * xf[n - j] : w[j] + ge * xf[n - j];
            w[j] = v;
            t += v * x[n + 1 - j];
            if (normalized) p += xf[n + 1 - j] * xf[n + 1 - j];
        }
        if (k < L) {  /* the history grew by one tap: w[k] meets x[0] */
            double v = leak ? w[k] * decay : w[k];
            w[k] = v;
            t += v * x[0];
            if (normalized) p += xf[0] * xf[0];
            j++;
        }
        *s = t;
        *q = p;
    } else {
        for (; j < k; j++)
            w[j] = leak ? w[j] * decay + ge * xf[n - j] : w[j] + ge * xf[n - j];
    }
    if (leak)
        for (; j < L; j++) w[j] *= decay;
}

/* Samples n .. n + U - 1 in one sweep, for a secondary path whose first D
   taps are zero, U <= D + 1, n >= L - 1 and n + 2U <= stop. Their residuals
   sum from tap D, so they need no output newer than y[n]; that gives the
   full sum's bytes while y[n - D + 1 .. n + U - 1] are finite. q[u] holds
   the norm of sample n + u. The sweep reads w and writes the updated
   weights to next: it applies the U updates to each weight in turn, sums
   the outputs y[n + 1 .. n + U] as U independent chains and, for NLMS, the
   norms of samples n + U .. n + 2U - 1, two chains to a v2. Returns 0,
   with w, s and q untouched, when one of those outputs is not finite. */
static inline __attribute__((always_inline)) int
group(const double *x, const double *xf, const double *d, const double *sec,
      int64_t M, int64_t D, const double *w, double *next, int64_t L, double *y,
      double *e, int64_t n, double *s, double *q, double mu, double decay,
      double eps, const int normalized, const int leak, const int U)
{
    double r[4] = {0.0};
    v2 g[2] = {{0.0}}, t[2] = {{0.0}}, p[2] = {{0.0}};
    int64_t m = n + 1 < M ? n + 1 : M;  /* the taps all U residuals have */
    y[n] = *s;
    for (int64_t j = D; j < m; j++) {
        _Pragma("GCC unroll 4")
        for (int u = 0; u < U; u++) r[u] += sec[j] * y[n + u - j];
    }
    _Pragma("GCC unroll 4")
    for (int u = 0; u < U; u++) {
        for (int64_t j = m > D ? m : D; j < M && j <= n + u; j++)
            r[u] += sec[j] * y[n + u - j];
        e[n + u] = d[n + u] - r[u];
        g[u / 2][u % 2] = (normalized ? mu / (q[u] + eps) : mu) * e[n + u];
    }
    for (int64_t j = 0; j < L; j++) {
        double v = w[j], gx[4], vs[4];
        _Pragma("GCC unroll 2")
        for (int h = 0; h < U / 2; h++) {
            v2 a = g[h] * pair(xf, n + 2 * h - j);
            gx[2 * h] = a[0];
            gx[2 * h + 1] = a[1];
        }
        _Pragma("GCC unroll 4")
        for (int u = 0; u < U; u++) {
            v = leak ? v * decay + gx[u] : v + gx[u];
            vs[u] = v;
        }
        _Pragma("GCC unroll 2")
        for (int h = 0; h < U / 2; h++) {
            t[h] += (v2){vs[2 * h], vs[2 * h + 1]} * pair(x, n + 2 * h + 1 - j);
            if (normalized) {
                v2 c = pair(xf, n + U + 2 * h - j);
                p[h] += c * c;
            }
        }
        next[j] = v;
    }
    _Pragma("GCC unroll 4")
    for (int u = 0; u < U; u++)
        if (!isfinite(t[u / 2][u % 2]))
            return 0;
    _Pragma("GCC unroll 4")
    for (int u = 0; u < U; u++) {
        if (u > 0) y[n + u] = t[(u - 1) / 2][(u - 1) % 2];
        q[u] = p[u / 2][u % 2];
    }
    *s = t[(U - 1) / 2][(U - 1) % 2];
    return 1;
}

/* Whether groups may start at sample n, whose output sums to s: y[n] and
   the D - 1 outputs before it are finite. If so, fills q[1 .. U - 1]. */
static inline __attribute__((always_inline)) int
begin(const double *xf, int64_t D, int64_t L, const double *y, int64_t n,
      double s, double *q, const int normalized, const int U)
{
    if (!isfinite(s))
        return 0;
    for (int64_t i = n - D + 1 > 0 ? n - D + 1 : 0; i < n; i++)
        if (!isfinite(y[i]))
            return 0;
    for (int u = 1; u < U && normalized; u++) {
        q[u] = 0.0;
        for (int64_t j = 0; j < L; j++) q[u] += xf[n + u - j] * xf[n + u - j];
    }
    return 1;
}

/* One-sample steps, and groups of U samples from n = L - 1 on while the
   outputs stay finite; after a group that gives up, or at a chunk that
   starts behind a non-finite output, the rest of the chunk takes steps.
   Each group writes the weights to the other of w and spare, so the one it
   read is still whole when it gives up; they end in w. ymax bounds |y|
   over every output a residual from tap J reads: those before the chunk
   that its first residual reaches, then each one written. */
static inline __attribute__((always_inline)) void
run(const double *x, const double *xf, const double *d, const double *sec,
    int64_t M, int64_t D, int64_t J, const double *bound, double *w, int64_t L,
    double *y, double *e, int64_t start, int64_t stop, double *spare, double mu,
    double decay, double eps, const int normalized, const int leak)
{
    const int U = D >= 3 ? 4 : 2;
    int grouping = D >= 1 && L <= SPARE;
    int ready = 0;  /* q[1 .. U - 1] hold the norms of n + 1 .. n + U - 1 */
    double *cur = w;
    int64_t k = start + 1 < L ? start + 1 : L;
    double s = 0.0, q[4] = {0.0, 0.0, 0.0, 0.0}, ymax = 0.0;
    for (int64_t i = start - M + 1 > 0 ? start - M + 1 : 0; i < start; i++)
        ymax = higher(ymax, y[i]);
    for (int64_t j = 0; j < k; j++) {
        s += w[j] * x[start - j];
        if (normalized) q[0] += xf[start - j] * xf[start - j];
    }
    for (int64_t n = start; n < stop;) {
        if (grouping && n >= L - 1 && n + 2 * U <= stop) {
            if (!ready)
                ready = begin(xf, D, L, y, n, s, q, normalized, U);
            if (ready && (U == 4 ? group(x, xf, d, sec, M, D, cur, spare, L, y, e, n, &s,
                                         q, mu, decay, eps, normalized, leak, 4)
                                 : group(x, xf, d, sec, M, D, cur, spare, L, y, e, n, &s,
                                         q, mu, decay, eps, normalized, leak, 2))) {
                double *old = cur;
                cur = spare;
                spare = old;
                for (int u = 0; u < U; u++)
                    ymax = higher(ymax, y[n + u]);
                n += U;
                continue;
            }
            grouping = 0;
        }
        step(x, xf, d, sec, M, J, bound, &ymax, cur, L, y, e, n, stop, &s, q, mu,
             decay, eps, normalized, leak);
        ready = 0;
        n++;
    }
    if (cur != w)
        memcpy(w, cur, (size_t)L * sizeof *w);
}

/* Once per call: D counts the leading zero taps of sec (-0.0 == 0.0);
   bound[b] = max |sec[i]| over i >= 8b; J is the first multiple of 8 whose
   bound is below 2^-55 * sum |sec|, or M when there is none or M > SPARE.
   The cut cannot fire before J, since |r| <= sum |sec| * ymax to rounding. */
void adapt_chunk(const double *x, const double *xf, const double *d,
                 const double *sec, int64_t M, double *w, int64_t L,
                 double *y, double *e, int64_t start, int64_t stop,
                 double mu, double leak, int normalized, double eps)
{
    double decay = 1.0 - mu * leak, spare[SPARE], bound[SPARE / 8];
    int64_t D = 0, J = M;
    if (start >= stop)
        return;
    while (D < M && sec[D] == 0.0)
        D++;
    if (M <= SPARE) {
        double top = 0.0, total = 0.0;
        for (int64_t i = M - 1; i >= 0; i--) {
            total += fabs(sec[i]);
            top = higher(top, sec[i]);
            if (i % 8 == 0)
                bound[i / 8] = top;
        }
        for (J = (M + 7) / 8 * 8; J > 0 && bound[J / 8 - 1] < total * 0x1p-55; J -= 8)
            ;
        J = J < M ? J : M;
    }
    /* one inlined copy of run per value of normalized and leak */
#define RUN(normalized, leak) run(x, xf, d, sec, M, D, J, bound, w, L, y, e, start, \
                                  stop, spare, mu, decay, eps, normalized, leak)
    if (normalized)
        leak != 0.0 ? RUN(1, 1) : RUN(1, 0);
    else
        leak != 0.0 ? RUN(0, 1) : RUN(0, 0);
#undef RUN
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
    """The C kernel as a ctypes function, or None when it cannot be built or
    loaded. Resolved on the first kernel call, not at import, so commands
    that never adapt never load the library or run the compiler."""
    import ctypes
    import zlib

    # crc32, not hashlib: hashlib loads OpenSSL, which costs every ANC process
    # ~6 ms and ~3.6 MB of resident memory; the name only has to tell builds
    # apart in a directory no other user can write to.
    key = zlib.crc32(b"\0".join(
        (_C_SOURCE, " ".join(_CFLAGS).encode(), os.uname().machine.encode())))
    try:
        fn = _load(f"adapt-{key:08x}.so").adapt_chunk
    except (OSError, AttributeError):
        return None
    ptr, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    fn.argtypes = (ptr, ptr, ptr, ptr, i64, ptr, i64, ptr, ptr, i64, i64,
                   f64, f64, ctypes.c_int, f64)
    fn.restype = None
    return fn


def _output(a, name):
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.ndim == 1
            and a.flags.c_contiguous and a.flags.writeable):
        raise ValueError(f"{name} must be a writeable C-contiguous 1-D float64 array")
    return a


def adapt_chunk(x, xf, d, sec, w, y, e, start, stop, mu, leak, normalized, eps):
    """Run samples ``[start, stop)`` on the C kernel, or on the numpy one when
    the C kernel is unavailable; same arguments as ``adapt_chunk_numpy``."""
    fn = _compiled()
    if fn is None:
        return adapt_chunk_numpy(x, xf, d, sec, w, y, e, start, stop, mu, leak,
                                 normalized, eps)
    x, xf, d, sec = (np.ascontiguousarray(a, np.float64) for a in (x, xf, d, sec))
    w, y, e = _output(w, "w"), _output(y, "y"), _output(e, "e")
    if any(a.ndim != 1 for a in (x, xf, d, sec)):
        raise ValueError("x, xf, d and sec must be 1-D")
    start, stop = int(start), int(stop)
    if not 0 <= start <= stop <= min(len(x), len(xf), len(d), len(y), len(e)):
        raise ValueError(f"chunk [{start}, {stop}) lies outside the signal arrays")
    fn(x.ctypes.data, xf.ctypes.data, d.ctypes.data, sec.ctypes.data, len(sec),
       w.ctypes.data, len(w), y.ctypes.data, e.ctypes.data, start, stop,
       float(mu), float(leak), bool(normalized), float(eps))


def backend_name() -> str:
    """Name of the kernel backend ``adapt_chunk`` runs: ``"c"`` or ``"numpy"``."""
    return "numpy" if _compiled() is None else "c"
