"""The compiled code of kpplab, built from _step.c on first import.

steps (kpp_steps) is the loop of kppsolve.march_runs from one stored frame
to the next, on the march that layout() builds.  Each step is one pass over
the field for every run: reaction, upwind, end-row halving, the two sweeps
of the twisted solve with the diffusion factor, the subnormal flush and
each run's sup u.  It replaces about eight numpy passes and a dpttrs call,
whose fixed costs made most of a step on the grids kpplab runs.  The
twisted solve eliminates each run from both ends toward its middle row,
so a run is two independent chains of half its length; runs share no
chain, so K runs are swept in ceil(K / 2) groups whose sizes differ by at
most 1, the chains of a group advancing together, and the latencies of
the chains overlap.  Each step but the last goes into one of the march's
two work buffers and the last into the frame's array.  Before each step,
steps reads every run's own step gate, rounded as
kppsolve._check_step_bounds rounds it, and it stops only before a step
where one trips, so that Python raises that run's error.  ctypes releases
the GIL for the length of a call, so marches on two threads overlap
between their frames.  factor (kpp_factor) gives the twisted factor, each
of whose halves is LAPACK dpttrf on its block of rows, and its pivots'
reciprocals rounded toward zero, by which the sweeps multiply where
dpttrs divides; ar1 (kpp_ar1) gives the AR(1) recursion of
coeff.NoisePath as LAPACK dgttrs computes it; both work in place.

The library is compiled with `cc -O2 -fPIC -shared -ffp-contract=off`
and linked to libm.  Each multiply-subtract of the sweeps is an fma in the
source, which rounds once.  -ffp-contract=off keeps the compiler from
fusing any other multiply and add, which is what keeps the rest bitwise
numpy's and LAPACK's, and the whole step bitwise the twisted step written
out in Python floats.  No flag that changes rounding (-march=native,
-ffast-math) may be added.  On x86 the function holding the sweeps is
built twice, with FMA instructions and with libm's fma for CPUs without
them, and the loader picks one; both round each fma once, so a step's
bits do not depend on the CPU.  The library is cached in the
package's __pycache__ directory under a name keyed by a CRC of the flags
and the source, written to a temporary file and renamed into place, so
concurrent first imports do not clash; the cache is written whatever
PYTHONDONTWRITEBYTECODE says.  A build that is cached removes the
libraries that older sources or flags left there; a cache hit removes
nothing.  Where __pycache__ cannot be written, the library is built in a
temporary directory for this process only.  Without a C compiler the
import raises ImportError; there is no other step.
"""

import ctypes
import os
import zlib

import numpy as np

__all__ = ["FLAGS", "LIBRARY", "layout", "steps", "factor", "ar1"]

FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_HERE, "_step.c")


class _March(ctypes.Structure):
    # struct kpp_march of _step.c
    _fields_ = [("runs", ctypes.c_ssize_t), ("steps", ctypes.c_ssize_t),
                ("bounds", ctypes.c_void_p), ("rates", ctypes.c_void_p),
                ("nus", ctypes.c_void_p), ("r", ctypes.c_void_p),
                ("e", ctypes.c_void_p), ("dta", ctypes.c_void_p),
                ("limit", ctypes.c_double), ("spare", ctypes.c_void_p * 2),
                ("u", ctypes.c_void_p),
                ("tops", ctypes.POINTER(ctypes.c_double))]


def _build(target):
    """Compile _step.c into the library `target`, through a temporary file
    in its directory; OSError when that directory cannot be written."""
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(target))
    os.close(fd)
    # libm after the source: the sweeps' default clone calls its fma
    cmd = ["cc", *FLAGS, "-o", tmp, _SOURCE, "-lm"]
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


def _prune(keep):
    """Remove the libraries beside `keep` that older sources or flags built
    (never mkstemp's tmp*.so); OSError is ignored, as another process's
    first import may be removing them too."""
    import contextlib

    where, name = os.path.split(keep)
    with contextlib.suppress(OSError):
        for old in os.listdir(where):
            if old != name and old.startswith("_step-") and old.endswith(".so"):
                with contextlib.suppress(OSError):
                    os.remove(os.path.join(where, old))


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
        _prune(cached)
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
steps = _lib.kpp_steps
steps.argtypes = [ctypes.POINTER(_March), ctypes.c_ssize_t, ctypes.c_ssize_t,
                  ctypes.c_void_p]
steps.restype = ctypes.c_ssize_t
_lib.kpp_factor.argtypes = [ctypes.c_ssize_t, ctypes.c_void_p,
                            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p]
_lib.kpp_factor.restype = ctypes.c_ssize_t
_lib.kpp_ar1.argtypes = [ctypes.c_ssize_t, ctypes.c_double, ctypes.c_void_p]
_lib.kpp_ar1.restype = None


def _address(a):
    """The address of the float64 array a, which is written in place."""
    if a.dtype != np.float64 or not a.flags.c_contiguous or \
            not a.flags.writeable:
        raise ValueError("need a writeable contiguous float64 array")
    return a.ctypes.data


def _bounds(bounds, n):
    """The run offsets as an intp array: K + 1 of them from 0, each run at
    least 3 nodes, the last n; ValueError otherwise."""
    bounds = np.ascontiguousarray(bounds, dtype=np.intp)
    if bounds.ndim != 1 or bounds.size < 2 or bounds[0] != 0:
        raise ValueError("the run bounds must be K + 1 offsets from 0, not %s"
                         % bounds.tolist())
    if (np.diff(bounds) < 3).any():
        raise ValueError("each run needs at least 3 nodes, not %s"
                         % np.diff(bounds).tolist())
    if bounds[-1] != n:
        raise ValueError("the run layout does not match the factor's size")
    return bounds


def factor(bounds, d, e, r):
    """The twisted factor N D N^T of the symmetric tridiagonal matrix with
    diagonal d and off-diagonal e, each run [bounds[k], bounds[k + 1]) on
    its own, written over them, and 1 / D rounded toward zero into r, which
    the step multiplies by (kpp_factor in _step.c; e between two runs is
    left as it is).  r may be d itself, which then ends up holding the
    reciprocals.  Returns dpttrf's info: 0, or i + 1 where d[i] is the
    first non-positive pivot; r is then unfinished."""
    bounds = _bounds(bounds, d.size)
    if e.size != d.size - 1 or r.size != d.size:
        raise ValueError("e and r need %d and %d entries, not %d and %d"
                         % (d.size - 1, d.size, e.size, r.size))
    return _lib.kpp_factor(bounds.size - 1, bounds.ctypes.data, _address(d),
                           _address(e), _address(r))


def ar1(rho, x):
    """x[i] = rho x[i - 1] + x[i] for i >= 1, in place, rounded as
    x[i] - (-rho) x[i - 1] (the forward sweep of LAPACK dgttrs)."""
    _lib.kpp_ar1(x.size, rho, _address(x))


def layout(bounds, rates, nus, r, e, dta, limit, u):
    """The march that steps(layout, k, k1, out) reads and advances: run
    offsets `bounds` (K + 1 integers from 0 to d.size, each run at least 3
    nodes), rates, nus and dta (K rows of n_steps floats; nus None in the
    fixed frame), the diffusion factor r, e that factor gives, the reaction
    gate's bound `limit`, two new work buffers, and the field: the array u
    to start from, then the address layout.u of the field the last call
    reached (u, a work buffer or that call's out), with each run's largest
    entry in layout.tops[r].  The arrays are kept with it; the out of the
    last call is not, so the caller keeps it while it steps on.

    steps makes steps k to k1 - 1, each but the last into the work buffer
    that is not the field, the last into the buffer at address out.  It
    stops before the first step k where some run r has
    dta[r, k] * max(1.0, 2.0 * tops[r] - 1.0) > limit and returns k; it
    returns k1 when every step is made."""
    bounds = _bounds(bounds, np.size(r))
    rates, dta, r, e, u = (np.ascontiguousarray(a, dtype=float)
                           for a in (rates, dta, r, e, u))
    if nus is not None:
        nus = np.ascontiguousarray(nus, dtype=float)
    if any(a.shape != rates.shape for a in (dta, nus) if a is not None):
        raise ValueError("rates, nus and dta differ in shape")
    n = int(bounds[-1])
    if rates.ndim != 2 or rates.shape[0] != bounds.size - 1 or \
            r.size != n or e.size != n - 1 or u.size != n:
        raise ValueError("the run layout does not match the factor's size")
    spare = np.empty((2, n))
    tops = np.maximum.reduceat(u, bounds[:-1])
    march = _March(bounds.size - 1, rates.shape[1], bounds.ctypes.data,
                   rates.ctypes.data, None if nus is None else nus.ctypes.data,
                   r.ctypes.data, e.ctypes.data, dta.ctypes.data, limit,
                   (ctypes.c_void_p * 2)(*(v.ctypes.data for v in spare)),
                   u.ctypes.data,
                   tops.ctypes.data_as(ctypes.POINTER(ctypes.c_double)))
    march.arrays = (bounds, rates, nus, r, e, dta, spare, u, tops)
    return march
