"""The compiled code of kpplab, built from _step.c on first import.

steps (kpp_steps) is the loop of kppsolve.march_runs from one stored frame
to the next, on the march that layout() builds.  Each step is one pass of
the field for every run: reaction, upwind and end-row halving, four at a
time, then the two sweeps of the solve with the diffusion factor, and the
subnormal flush and each run's sup u, eight at a time.  It replaces about
eight numpy passes and a dpttrs call, whose fixed costs made most of a step
on the grids kpplab runs.  The solve cuts each run at its middle
(interface) row, each half at its middle (separator) row, and eliminates
each of the four blocks from both its ends toward its own middle row, the
separators and then the interface row last: eight independent chains of an
eighth of the run each, a half's four advancing together so that their
latencies overlap; the six next to a separator or the interface row carry a
fill multiplier to it.  The steps of a call go into the frame's array and
the march's one work buffer in turn, so that the last goes into the frame's
array.  Before each step, steps reads every run's own step gate, rounded as
kppsolve._check_step_bounds rounds it, and it stops only before a step
where one trips, so that Python raises that run's error. ctypes releases
the GIL for the length of a call, so marches on two threads overlap between
their frames.  factor (kpp_factor) gives the factor, each chain of which is
LAPACK dpttrf on its block of rows, its fill multipliers (fills() of them),
and its pivots' reciprocals rounded toward zero, by which the sweeps
multiply where dpttrs divides; ar1 (kpp_ar1) gives the AR(1) recursion of
coeff.NoisePath as LAPACK dgttrs computes it; both work in place.

Split rule: a march of one run of at least N_SPLIT nodes, laid out while
os.sched_getaffinity(0) holds two CPUs or more, is marked split.  A call of
steps on it, made while no other call of steps is in flight in the process,
starts one POSIX thread that sweeps the run's right half while the calling
thread sweeps the left; per step the right half's share of the interface
row goes left and its solution comes back.  The thread takes over from the
first step after it starts running, allocates nothing, blocks every signal
and is joined before the call returns or stops at a refused step, so no
thread outlives a call.  A handoff that waits 100 us or more and longer
than four steps of the run on one thread, or a thread that does not get to
run before the call ends, means the other CPU is busy (another program, or
a hypervisor that took it): the call goes on on one thread, and so do the
process's next 1, 2, 4, ... 1024 calls that would split, until a split call
runs without a stall.  The operations and their order are the same on one
thread or two, so the bits are too. N_SPLIT keeps the 1001- and 2001-node
runs of the stability and certify commands, whose calls are a few dozen
steps long, on one thread, where starting a thread per call would cost more
than it saves.

The library is compiled with `cc -O2 -fPIC -shared -ffp-contract=off
-pthread` (FLAGS) and linked to libm; -pthread is for the split's thread.
Each multiply-subtract of the sweeps is an fma in the source, which
rounds once.  -ffp-contract=off keeps the compiler from fusing any other
multiply and add, which is what keeps the rest bitwise numpy's and
LAPACK's, and the whole step bitwise the step written out in Python
floats.  No compile flag that changes rounding (-march=native,
-ffast-math) may be added.  Flush-to-zero is no such flag: on x86-64
kpp_steps sets it in MXCSR, a runtime mode of the calling thread, for the
length of each call, and restores the caller's mode before it returns
(the split's thread sets it too).  It rounds no result that is not tiny
differently and makes a tiny one the signed 0 of its sign, so a front's
subnormal tail costs no microcode assists; only entries below about
1e-290 can differ from gradual underflow, which factor, ar1, Python and
numpy keep.  On x86 the functions holding the sweeps are built twice,
with FMA instructions and with libm's fma for CPUs without them, and the
loader picks one; both round each fma once, and libm's is called under
gradual underflow and its result flushed as the instruction's (kpp_fma),
so a step's bits do not depend on the CPU.  The library is cached in the
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

__all__ = ["FLAGS", "LIBRARY", "N_SPLIT", "layout", "steps", "fills",
           "factor", "ar1"]

FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-pthread")
# a lone run of at least this many nodes is swept on two threads (the
# split rule above).  Measured with a C program calling kpp_steps on a
# 2-core VM (ns per node-step, one thread against two): 1.80 against 1.88
# at 2001 nodes in calls of 10 steps (the certify run) and 1.79 against
# 1.93 at 1001 in calls of 50 (the stability run), since a thread costs
# about 25 us to create and 20 us to join; 2.3 against 1.65 at 5001 in
# calls of 100
N_SPLIT = 3000

_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_HERE, "_step.c")


class _March(ctypes.Structure):
    # struct kpp_march of _step.c
    _fields_ = [("runs", ctypes.c_ssize_t), ("steps", ctypes.c_ssize_t),
                ("bounds", ctypes.c_void_p), ("rates", ctypes.c_void_p),
                ("nus", ctypes.c_void_p), ("r", ctypes.c_void_p),
                ("e", ctypes.c_void_p), ("f", ctypes.c_void_p),
                ("dta", ctypes.c_void_p), ("limit", ctypes.c_double),
                ("spare", ctypes.c_void_p), ("u", ctypes.c_void_p),
                ("tops", ctypes.POINTER(ctypes.c_double)),
                ("split", ctypes.c_int)]


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
    # the CRC of the flags and the source, read in pieces so that no copy
    # of the whole source stays on the heap
    key = zlib.crc32(" ".join(FLAGS).encode() + b"\0")
    with open(_SOURCE, "rb") as fh:
        for piece in iter(lambda: fh.read(8192), b""):
            key = zlib.crc32(piece, key)
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
                            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
                            ctypes.c_void_p]
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


def fills(bounds):
    """The entries of the fill multipliers f of the factor of runs with
    offsets `bounds`: one per row and two per run."""
    return int(bounds[-1]) + 2 * (len(bounds) - 1)


def factor(bounds, d, e, f, r):
    """The factor L D L^T of the symmetric tridiagonal matrix with diagonal
    d and off-diagonal e in the step's elimination order, each run
    [bounds[k], bounds[k + 1]) on its own, written over them, the fill
    multipliers into f (fills(bounds) entries), and 1 / D rounded toward
    zero into r, which the step multiplies by (kpp_factor in _step.c; e
    between two runs is left as it is).  r may be d itself, which then ends
    up holding the reciprocals.  Returns dpttrf's info: 0, or i + 1 where
    d[i] is the first non-positive pivot in that order; r is then
    unfinished."""
    bounds = _bounds(bounds, d.size)
    if e.size != d.size - 1 or f.size != fills(bounds) or r.size != d.size:
        raise ValueError("e, f and r need %d, %d and %d entries, not %d, %d "
                         "and %d" % (d.size - 1, fills(bounds), d.size,
                                     e.size, f.size, r.size))
    return _lib.kpp_factor(bounds.size - 1, bounds.ctypes.data, _address(d),
                           _address(e), _address(f), _address(r))


def ar1(rho, x):
    """x[i] = rho x[i - 1] + x[i] for i >= 1, in place, rounded as
    x[i] - (-rho) x[i - 1] (the forward sweep of LAPACK dgttrs)."""
    _lib.kpp_ar1(x.size, rho, _address(x))


def _cpus():
    """The CPUs this process may run on (1 where the OS does not say)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else 1


def layout(bounds, rates, nus, r, e, f, dta, limit, u):
    """The march that steps(layout, k, k1, out) reads and advances: run
    offsets `bounds` (K + 1 integers from 0 to d.size, each run at least 3
    nodes), rates, nus and dta (K rows of n_steps floats; nus None in the
    fixed frame), the diffusion factor r, e, f that factor gives, the
    reaction gate's bound `limit`, a new work buffer, and the field: the
    array u to start from, then the address layout.u of the field the last
    call reached (u or that call's out), with each run's largest entry in
    layout.tops[r].  The arrays are kept with it; the out of the last call
    is not, so the caller keeps it while it steps on.

    A march of one run of at least N_SPLIT nodes, laid out while
    os.sched_getaffinity(0) holds two CPUs or more, is marked split: a call
    of steps made while no other call is in flight sweeps the run's right
    half on a second thread, which it joins before it returns.  The bits
    are the same either way.

    steps makes steps k to k1 - 1 into the buffer at address out and the
    work buffer in turn, the last into out.  It stops before the first
    step k where some run r has
    dta[r, k] * max(1.0, 2.0 * tops[r] - 1.0) > limit and returns k, with
    the field it made last in out; it returns k1 when every step is
    made."""
    bounds = _bounds(bounds, np.size(r))
    rates, dta, r, e, f, u = (np.ascontiguousarray(a, dtype=float)
                              for a in (rates, dta, r, e, f, u))
    if nus is not None:
        nus = np.ascontiguousarray(nus, dtype=float)
    if any(a.shape != rates.shape for a in (dta, nus) if a is not None):
        raise ValueError("rates, nus and dta differ in shape")
    n = int(bounds[-1])
    if rates.ndim != 2 or rates.shape[0] != bounds.size - 1 or \
            r.size != n or e.size != n - 1 or f.size != fills(bounds) or \
            u.size != n:
        raise ValueError("the run layout does not match the factor's size")
    spare = np.empty(n)
    tops = np.maximum.reduceat(u, bounds[:-1])
    split = bounds.size == 2 and n >= N_SPLIT and _cpus() >= 2
    march = _March(bounds.size - 1, rates.shape[1], bounds.ctypes.data,
                   rates.ctypes.data, None if nus is None else nus.ctypes.data,
                   r.ctypes.data, e.ctypes.data, f.ctypes.data,
                   dta.ctypes.data, limit,
                   spare.ctypes.data,
                   u.ctypes.data,
                   tops.ctypes.data_as(ctypes.POINTER(ctypes.c_double)), split)
    march.arrays = (bounds, rates, nus, r, e, f, dta, spare, u, tops)
    return march
