"""The compiled code of kpplab, built from _step.c on first import.

step (kpp_step) makes one whole step of every run of kppsolve.march_runs in
one pass over the field: reaction, upwind, end-row halving, LAPACK dptts2's
two sweeps on the diffusion factor, the subnormal flush and sup u.  It
replaces about eight numpy passes and a dpttrs call, whose fixed costs
made most of a step on the grids kpplab runs.  Runs share no chain of the
sweeps, so it sweeps K runs in ceil(K / 4) groups whose sizes differ by at
most 1, the runs of a group advancing together, and the latencies of their
chains overlap.  steps (kpp_steps) is the loop of march_runs from one
stored frame to the next: it makes each step into one of the two work
buffers of a loop() and the last into the frame's array, and stops before
a step where the fast reaction gate trips, so that Python reads the runs'
own gates there.  ctypes releases the GIL for the length of a call, so
marches on two threads overlap between their frames.  factor (kpp_factor)
is LAPACK dpttrf, which gives that factor, and ar1 (kpp_ar1) the AR(1)
recursion of coeff.NoisePath as LAPACK dgttrs computes it; both work in
place.

The library is compiled with `cc -O2 -fPIC -shared -ffp-contract=off`.
-ffp-contract=off is what keeps the results bitwise those of numpy and
LAPACK: without it the compiler may fuse a multiply and an add into one
FMA, which rounds once instead of twice.  No flag that changes rounding
(-march=native, -ffast-math) may be added.  The library is cached in the
package's __pycache__ directory under a name keyed by a CRC of the flags
and the source, written to a temporary file and renamed into place, so
concurrent first imports do not clash; the cache is written whatever
PYTHONDONTWRITEBYTECODE says.  Where __pycache__ cannot be written, the
library is built in a temporary directory for this process only.  Without
a C compiler the import raises ImportError; there is no other step.
"""

import ctypes
import os
import zlib

import numpy as np

__all__ = ["FLAGS", "LIBRARY", "layout", "loop", "step", "steps", "factor",
           "ar1"]

FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_HERE, "_step.c")


class _March(ctypes.Structure):
    # struct kpp_march of _step.c
    _fields_ = [("runs", ctypes.c_ssize_t), ("steps", ctypes.c_ssize_t),
                ("bounds", ctypes.c_void_p), ("rates", ctypes.c_void_p),
                ("nus", ctypes.c_void_p), ("d", ctypes.c_void_p),
                ("e", ctypes.c_void_p)]


class _Loop(ctypes.Structure):
    # struct kpp_loop of _step.c
    _fields_ = [("dta_top", ctypes.c_void_p), ("limit", ctypes.c_double),
                ("spare", ctypes.c_void_p * 2), ("u", ctypes.c_void_p),
                ("top", ctypes.c_double)]


def _build(target):
    """Compile _step.c into the library `target`, through a temporary file
    in its directory; OSError when that directory cannot be written."""
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(target))
    os.close(fd)
    cmd = ["cc", *FLAGS, "-o", tmp, _SOURCE]
    try:
        try:
            done = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as exc:
            raise ImportError("kpplab compiles its step on first import and "
                              "could not run %r: %s" % (" ".join(cmd), exc)) from None
        if done.returncode != 0:
            raise ImportError("%r failed:\n%s" % (" ".join(cmd), done.stderr))
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _load():
    with open(_SOURCE, "rb") as fh:
        key = zlib.crc32(" ".join(FLAGS).encode() + b"\0" + fh.read())
    name = "_step-%08x.so" % key
    cached = os.path.join(_HERE, "__pycache__", name)
    if os.path.exists(cached):
        return cached, ctypes.CDLL(cached)
    try:
        os.makedirs(os.path.dirname(cached), exist_ok=True)
        _build(cached)
        return cached, ctypes.CDLL(cached)
    except OSError:
        pass
    import shutil
    import tempfile

    where = tempfile.mkdtemp(prefix="kpplab-")
    try:
        _build(os.path.join(where, name))
        return None, ctypes.CDLL(os.path.join(where, name))
    finally:
        shutil.rmtree(where, ignore_errors=True)


# the cached library's path (None when built for this process only)
LIBRARY, _lib = _load()
step = _lib.kpp_step
step.argtypes = [ctypes.POINTER(_March), ctypes.c_ssize_t, ctypes.c_void_p,
                 ctypes.c_void_p]
step.restype = ctypes.c_double
steps = _lib.kpp_steps
steps.argtypes = [ctypes.POINTER(_March), ctypes.POINTER(_Loop), ctypes.c_ssize_t,
                  ctypes.c_ssize_t, ctypes.c_int, ctypes.c_void_p]
steps.restype = ctypes.c_ssize_t
_lib.kpp_factor.argtypes = [ctypes.c_ssize_t, ctypes.c_void_p, ctypes.c_void_p]
_lib.kpp_factor.restype = ctypes.c_ssize_t
_lib.kpp_ar1.argtypes = [ctypes.c_ssize_t, ctypes.c_double, ctypes.c_void_p]
_lib.kpp_ar1.restype = None


def _address(a):
    """The address of the float64 array a, which is written in place."""
    if a.dtype != np.float64 or not a.flags.c_contiguous or \
            not a.flags.writeable:
        raise ValueError("need a writeable contiguous float64 array")
    return a.ctypes.data


def factor(d, e):
    """LAPACK dpttrf: the L D L^T factor of the symmetric tridiagonal matrix
    with diagonal d and off-diagonal e, written over them.  Returns
    dpttrf's info: 0, or i + 1 where d[i] is the first non-positive pivot
    (d.size when only the last one is)."""
    if e.size != d.size - 1:
        raise ValueError("e needs %d entries, not %d" % (d.size - 1, e.size))
    return _lib.kpp_factor(d.size, _address(d), _address(e))


def ar1(rho, x):
    """x[i] = rho x[i - 1] + x[i] for i >= 1, in place, rounded as
    x[i] - (-rho) x[i - 1] (the forward sweep of LAPACK dgttrs)."""
    _lib.kpp_ar1(x.size, rho, _address(x))


def layout(bounds, rates, nus, d, e):
    """The march that step(layout, k, u, out) reads: run offsets `bounds`
    (K + 1 integers from 0 to d.size, each run at least 3 nodes), rates and
    nus (K rows of n_steps floats; nus None in the fixed frame) and the
    diffusion factor d, e that factor gives.  The arrays are kept with it.
    step writes the field after step k of the field at address u into the
    buffer at address out and returns its largest entry."""
    bounds = np.ascontiguousarray(bounds, dtype=np.intp)
    if bounds.ndim != 1 or bounds.size < 2 or bounds[0] != 0:
        raise ValueError("the run bounds must be K + 1 offsets from 0, not %s"
                         % bounds.tolist())
    if (np.diff(bounds) < 3).any():
        raise ValueError("each run needs at least 3 nodes, not %s"
                         % np.diff(bounds).tolist())
    arrays = [np.ascontiguousarray(a, dtype=float) for a in (rates, d, e)]
    if nus is not None:
        nus = np.ascontiguousarray(nus, dtype=float)
        if nus.shape != arrays[0].shape:
            raise ValueError("rates and nus differ in shape")
    rates, d, e = arrays
    n = int(bounds[-1])
    if rates.ndim != 2 or rates.shape[0] != bounds.size - 1 or \
            d.size != n or e.size != n - 1:
        raise ValueError("the run layout does not match the factor's size")
    march = _March(bounds.size - 1, rates.shape[1], bounds.ctypes.data,
                   rates.ctypes.data, None if nus is None else nus.ctypes.data,
                   d.ctypes.data, e.ctypes.data)
    march.arrays = (bounds, rates, nus, d, e)
    return march


def loop(dta_top, limit, u):
    """The state that steps(layout, loop, k, k1, read, out) reads and
    advances: the fast gate's dt sup a per step `dta_top` and its bound
    `limit`, two new work buffers of u's size, and the field: the float64
    array u to start from, then the address loop.u of the field the last
    call reached (u, a work buffer or that call's out) with its largest
    entry loop.top.  The arrays are kept with it.

    steps makes steps k to k1 - 1, each but the last into the work buffer
    that is not the field, the last into the buffer at address out.  It
    stops before a step where dta_top[k] * max(1, 2 top - 1) <= limit fails
    or top is NaN, except at step k when read is true, and returns that
    step; it returns k1 when every step is made.  ctypes releases the GIL
    for the length of the call."""
    dta_top = np.ascontiguousarray(dta_top, dtype=float)
    spare = np.empty((2, u.size))
    state = _Loop(dta_top.ctypes.data, limit,
                  (ctypes.c_void_p * 2)(*(v.ctypes.data for v in spare)),
                  u.ctypes.data, float(u.max()))
    state.arrays = (dta_top, spare, u)
    return state
