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

The C kernel makes one pass over ``w`` per sample: the sweep that applies
sample n's update (leak included) also sums sample n+1's output from each
weight it has just written and, for NLMS, sample n+1's norm as a second,
independent sum. Only the first sample of a chunk gets a sweep of its own,
and the last one no look-ahead, so no array is read past ``stop``. The
bytes stay those of the reference: every sum has the same operands, in the
same order (newest sample first, from 0.0), and the fused
``w*decay + g*e*xf`` rounds the same two products and the same sum as the
reference's two steps, since no FMA contracts them. The serial chain per
sample is then the output sum and the secondary-path sum, L + M dependent
adds; the update, norm and leak work overlaps with it.
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
#include <stdint.h>

/* normalized and leak are constants in each inlined copy, so their tests
   leave the loops. s sums y[n] and q the NLMS norm of sample n; the sweep
   that applies sample n's update sums both anew for sample n + 1. */
static inline __attribute__((always_inline)) void
run(const double *x, const double *xf, const double *d, const double *sec,
    int64_t M, double *w, int64_t L, double *y, double *e, int64_t start,
    int64_t stop, double mu, double decay, double eps, const int normalized,
    const int leak)
{
    int64_t k = start + 1 < L ? start + 1 : L;
    double s = 0.0, q = 0.0;
    for (int64_t j = 0; j < k; j++) {
        s += w[j] * x[start - j];
        if (normalized) q += xf[start - j] * xf[start - j];
    }
    for (int64_t n = start; n < stop; n++) {
        int64_t m = n + 1 < M ? n + 1 : M;
        y[n] = s;
        double r = 0.0;
        for (int64_t j = 0; j < m; j++) r += sec[j] * y[n - j];
        e[n] = d[n] - r;
        double ge = (normalized ? mu / (q + eps) : mu) * e[n];
        k = n + 1 < L ? n + 1 : L;
        int64_t j = 0;
        if (n + 1 < stop) {
            s = 0.0;
            q = 0.0;
            for (; j < k; j++) {
                double v = leak ? w[j] * decay + ge * xf[n - j]
                                : w[j] + ge * xf[n - j];
                w[j] = v;
                s += v * x[n + 1 - j];
                if (normalized) q += xf[n + 1 - j] * xf[n + 1 - j];
            }
            if (k < L) {  /* the history grew by one tap: w[k] meets x[0] */
                double v = leak ? w[k] * decay : w[k];
                w[k] = v;
                s += v * x[0];
                if (normalized) q += xf[0] * xf[0];
                j++;
            }
        } else {
            for (; j < k; j++)
                w[j] = leak ? w[j] * decay + ge * xf[n - j] : w[j] + ge * xf[n - j];
        }
        if (leak)
            for (; j < L; j++) w[j] *= decay;
    }
}

void adapt_chunk(const double *x, const double *xf, const double *d,
                 const double *sec, int64_t M, double *w, int64_t L,
                 double *y, double *e, int64_t start, int64_t stop,
                 double mu, double leak, int normalized, double eps)
{
    double decay = 1.0 - mu * leak;
    if (start >= stop)
        return;
    if (normalized) {
        if (leak != 0.0)
            run(x, xf, d, sec, M, w, L, y, e, start, stop, mu, decay, eps, 1, 1);
        else
            run(x, xf, d, sec, M, w, L, y, e, start, stop, mu, decay, eps, 1, 0);
    } else if (leak != 0.0) {
        run(x, xf, d, sec, M, w, L, y, e, start, stop, mu, decay, eps, 0, 1);
    } else {
        run(x, xf, d, sec, M, w, L, y, e, start, stop, mu, decay, eps, 0, 0);
    }
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
