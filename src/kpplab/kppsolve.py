"""Monotone finite-difference solver for u_t = u_xx + a(t) u (1 - u).

The scheme is operator-split per step: explicit reaction evaluated at the
step midpoint, first-order upwind advection in the moving frame, and
backward-Euler diffusion through a prefactored tridiagonal solve.  Each
sub-step is a monotone map on fields, so the discrete comparison and
maximum principles hold to rounding -- the property every certificate in
this package leans on.  That rules out faster non-monotone schemes on
purpose.

The diffusion matrix I - dt L with mirror-ghost (zero-flux) ends is not
symmetric, but halving its first and last rows makes it a symmetric
positive definite M-matrix.  It is factored once per solve, each run on
its own, by kpp_factor in _step.c, in the order of the partition method
applied twice: the run is cut at its middle (interface) row s =
(n - 1) // 2, each half at its own middle (separator) row, and each of
the four blocks this leaves is eliminated from both its ends toward its
own middle (twist) row, which takes both eliminations, the top one first;
then the separators, and row s last.  Each of the eight chains is LAPACK
dpttrf bit for bit on its block of rows (the bottom ones flipped); every
chain but the run's first and last carries fill multipliers to the
separator or interface row it starts next to.  The march keeps the
pivots as their reciprocals rounded toward zero, and multiplies by them
where dpttrs divides.  Each step solves against the right-hand side with
its end entries halved as well; halving is exact in binary, so this is
the same linear system.

A step is one pass of kpp_steps in _step.c, which kpplab._kernel compiles
on first import with `cc -O2 -fPIC -shared -ffp-contract=off -pthread`
and caches in the package's __pycache__.  In one pass over the field it
makes the reaction, the upwind, the end-row halving, the two sweeps of
the solve (toward each block's twist row, the separators and the
interface row, then outward), the subnormal flush and each run's sup u.
Each entry comes from the same floating-point operations in the same
order as the step written out in Python floats, so every result is
bitwise that step's.  Each multiply-subtract of the sweeps is one fma,
which rounds once, on every CPU; -ffp-contract=off keeps the compiler
from fusing any other multiply and add.  On the same field a step
differs from LAPACK's one-chain dpttrs solve by at most two units in the
last place of the step's largest entry on the test grids, and six on the
5001-node take-over grid.  Since the reciprocals round toward
zero, no step makes a field higher than dividing would, so a field at most
1 stays at most 1.  The price is a bias toward 0: after the 20000 steps of
a take-over run, its plateau sits 3.3e-16 below 1 and its front up to
4.95e-13 below the one-chain march's.  Every multiplier and fill
multiplier is nonpositive and every pivot and reciprocal positive, so the
step is exactly monotone in floating point.  The sweeps are chains of
dependent fmas, whose latency is most of a step: the order makes each run
eight chains of an eighth of its length, and each half's four advance
node by node together, so their latencies overlap.  A lone run of at least
_kernel.N_SPLIT nodes is swept on two threads, a half each, when two CPUs
are allowed and no other march is inside the kernel; the bits are the
same.  The steps from one stored frame to the next are one call of
kpp_steps, a loop in C: Python is entered once per stored frame, not once
per step, and ctypes releases the GIL for the length of the call, so
marches on two threads overlap.

After each step, entries with |u| below the smallest normal float are set
to 0.  The solution ahead of a front decays through the subnormal numbers,
and on Intel cores each operation that makes one pays a microcode assist.
So on x86-64 kpp_steps runs under flush-to-zero, where no operation of a
step makes a subnormal: a result that is tiny after rounding becomes the
signed 0 of its sign (a caller's subnormal entry goes so at the first
operation on it), and the flush after the step only turns the -0.0s that
this leaves into 0.  Entries below about 1e-290 may then differ from
gradual underflow, which other architectures keep; the take-over,
stability and certify artifacts stayed byte-identical.  The flush map is
non-decreasing, so composing it with the monotone step keeps the step
monotone, and values at or below -tiny are left alone so that a
positivity fault still shows.

A step-size gate keeps each step monotone: dt * sup a * max(1, 2 sup u - 1)
<= 1/2, with sup a taken over the whole step, since paths need not be
bounded and a spike narrower than dt must still count.  The step loop reads
sup a for every step with one array call to path.max_on before the loop.
Before each step kpp_steps reads every run's own gate, from dt sup a (inf
where the run's CFL gate trips) and the sup u the previous step left,
rounded and compared as _check_step_bounds does, so both let a NaN pass.
It stops only before a step where one of them trips; march_runs then reads
the runs' gates there in order, each with its sup a read from its path
again (the array call keeps only dt sup a), and the first failing run
raises its StepSizeError.

march_runs() is the step loop: a generator that marches K runs (one field,
path and grid each, sharing dt, t0 and t_end) as one system and yields
(t, (u_1, ..., u_K)) at each stored time; march() is its one-run case.  The
fields lie end to end in one vector, and the K diffusion matrices form one
tridiagonal matrix whose off-diagonal entry is 0 between runs, factored
once.  The kernel sweeps each run's block in an order that depends on
the run's length alone, so runs share no chain: each run is bitwise the
run marched alone, whatever its grid, and a NaN or an overflow stays in
the run it arose in.  The kernel's call and the finiteness check of a stored frame cover
the whole vector, so the fixed cost of a step is paid once for all runs.
Each run keeps its own reaction rate, moving-frame shift, gate and margin
bands.  The addresses the kernel reads (the runs' bounds, rates and
Courant numbers, their dt sup a, the factor and two work arrays) are
taken once per march.  A step writes into one of the work arrays,
except a step whose frame is stored: it gets a new array, which is marked
read-only, and each u_r is a view of it that is never written again; the
march steps on from that array, so it keeps its own reference to it.  The
verifiers are checks with a step(t, u) and a finish(); verify() feeds them
from march, so a command checks its run as it goes and never holds it, or
from a stored Trajectory, which iterates as march does.  plan() gives a
run's Trajectory without its frames (grid, stored times, frame shifts, run
record) to set checks up before the first step, and solve() collects
march's frames into a Trajectory.

Moving-frame solves (SolveConfig(dt=..., mu=...): setting mu selects the
moving frame) use the time-dependent frame speed c(t) = (mu^2 + a(t)) / mu,
the speed at which the exponential ansatz exp(-mu x) is stationary; the
accumulated shift, frame_position, is tracked exactly through the path's
integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from ._kernel import factor, fills, layout, steps as _steps

__all__ = [
    "Grid1D", "Field", "SolveConfig", "Trajectory",
    "StepSizeError", "FrontMarginError",
    "make_grid", "init", "plan", "march", "march_runs", "verify", "solve",
    "suggest_domain", "frame_position",
]

# fields below this value count as "unoccupied" for boundary-safety checks
WATCH_LEVEL = 0.05
# magnitudes below this (the subnormals) are flushed to 0 after each step
TINY = np.finfo(float).tiny
# a step is monotone while dt * sup a * max(1, 2 sup u - 1) stays at or below this
GATE_LIMIT = 0.5 + 1e-12
# make_grid refuses more nodes than this: 800 MB per field
MAX_NODES = 10 ** 8


class StepSizeError(ValueError):
    """Time step violates the monotonicity or CFL constraint."""


class FrontMarginError(RuntimeError):
    """The front reached the safety margin of a watched boundary."""


@dataclass
class Grid1D:
    x_lo: float
    x_hi: float
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need at least 3 nodes")
        if not self.x_hi > self.x_lo:
            raise ValueError("empty spatial interval")
        self._x = np.linspace(self.x_lo, self.x_hi, self.n)

    @property
    def dx(self):
        return (self.x_hi - self.x_lo) / (self.n - 1)

    @property
    def x(self):
        return self._x


def make_grid(x_lo, x_hi, dx):
    """Uniform grid with spacing dx (x_hi is kept, n is rounded); ValueError
    above MAX_NODES nodes."""
    x_lo, x_hi, dx = float(x_lo), float(x_hi), float(dx)
    if not (math.isfinite(x_lo) and 0 < dx < math.inf
            and math.isfinite((x_hi - x_lo) / dx)):
        raise ValueError("a grid needs finite bounds, a finite positive dx and "
                         "a finite number of cells, not [%r, %r] with dx=%r"
                         % (x_lo, x_hi, dx))
    n = int(round((x_hi - x_lo) / dx)) + 1
    if n > MAX_NODES:
        raise ValueError("a grid of %d nodes is more than MAX_NODES = %d"
                         % (n, MAX_NODES))
    return Grid1D(x_lo, x_lo + (n - 1) * dx, n)


@dataclass
class Field:
    grid: Grid1D
    values: np.ndarray
    t: float = 0.0


@dataclass
class SolveConfig:
    """Step size and storage of a solve.  A solve runs in the moving frame
    of exponent mu exactly when mu is set (it must be positive), and in the
    fixed frame when mu is None."""

    dt: float
    mu: float = None
    store_stride: int = None      # steps between stored frames; default ~0.5 time units
    margin: float = 50.0          # front-safety margin in space units; 0 disables

    def __post_init__(self):
        for name in ("dt", "mu", "margin"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError("%s must be finite, not %r" % (name, value))
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.mu is not None and not self.mu > 0:
            raise ValueError("moving frame needs a positive exponent mu")
        if self.margin < 0:
            raise ValueError("margin must be nonnegative")
        if self.store_stride is not None and not (
                isinstance(self.store_stride, (int, np.integer))
                and self.store_stride >= 1):
            raise ValueError("store_stride must be None or an integer >= 1, not %r"
                             % (self.store_stride,))


def init(kind, grid, params=None):
    """Initial data factory.

    kinds: 'heaviside' (one-cell linear ramp at x0), 'front-like'
    (min(1, exp(-mu (x-x0)))), 'compact-bump' (cos^2 bump on [lo, hi] with
    given height), 'constant', 'custom-samples' (explicit node values).
    """
    params = dict(params or {})
    x = grid.x
    if kind == "heaviside":
        x0 = float(params.pop("x0", 0.0))
        vals = np.clip(0.5 - (x - x0) / grid.dx, 0.0, 1.0)
    elif kind == "front-like":
        mu = float(params.pop("mu", 1.0))
        x0 = float(params.pop("x0", 0.0))
        if mu <= 0:
            raise ValueError("front-like data needs mu > 0")
        vals = np.minimum(1.0, np.exp(-mu * (x - x0)))
    elif kind == "compact-bump":
        lo = float(params.pop("lo", -1.0))
        hi = float(params.pop("hi", 1.0))
        height = float(params.pop("height", 1.0))
        if height < 0:
            raise ValueError("bump height must be nonnegative")
        if not (grid.x_lo <= lo < hi <= grid.x_hi):
            raise ValueError("bump support [%g, %g] outside grid [%g, %g]"
                             % (lo, hi, grid.x_lo, grid.x_hi))
        vals = np.zeros_like(x)
        inside = (x > lo) & (x < hi)
        vals[inside] = height * np.cos(
            math.pi * (x[inside] - 0.5 * (lo + hi)) / (hi - lo)) ** 2
    elif kind == "constant":
        value = float(params.pop("value", 1.0))
        if value < 0:
            raise ValueError("constant level must be nonnegative")
        vals = np.full_like(x, value)
    elif kind == "custom-samples":
        vals = np.asarray(params.pop("values"), dtype=float)
        if vals.shape != x.shape:
            raise ValueError("custom samples must have one value per node")
        if vals.min() < 0:
            raise ValueError("initial data must be nonnegative")
    else:
        raise ValueError("unknown initial-data kind %r" % kind)
    if params:
        raise ValueError("unused parameters for kind %r: %s"
                         % (kind, sorted(params)))
    return Field(grid, vals, 0.0)


def frame_position(path, mu, t, t0=0.0):
    """Frame displacement C(t) = (mu^2 (t - t0) + int_{t0}^t a)/mu."""
    t = np.asarray(t, dtype=float)
    return (mu * mu * (t - t0) + path.integral(np.full_like(t, t0), t)) / mu


def _diffusion_ldlt(grids, dt):
    """Factor of backward Euler with I - dt * Laplacian (zero-flux) on
    each grid, in the step's elimination order, the grids' systems stacked
    as one block-diagonal system.

    Zero-flux boundaries via mirror ghost nodes give row sums of exactly 1,
    so constants are preserved and the inverse is a monotone averaging.
    The end rows carry -2 lam off the diagonal; halving them (w = 1/2 there,
    1 elsewhere) gives the symmetric positive definite tridiagonal
    diag(w (1 + 2 lam)) with -lam off the diagonal, factored here in the
    compiled code of kpplab._kernel, each grid's block on its own: each
    chain of a block is bitwise LAPACK dpttrf on its rows.  The
    off-diagonal entry between one grid's last node and the next grid's
    first is 0.  Returns (r, e, f): the pivots d as r = 1 / d rounded
    toward zero, which the step (kpplab._kernel) multiplies by, the
    multipliers and the fill multipliers (kpplab._kernel.fills of them).
    The step halves the right-hand side's end entries and solves with the
    factor.
    """
    bounds = np.cumsum([0] + [grid.n for grid in grids])
    d, e = np.empty(bounds[-1]), np.zeros(bounds[-1] - 1)
    f = np.empty(fills(bounds))
    for grid, lo, hi in zip(grids, bounds[:-1], bounds[1:]):
        lam = dt / grid.dx ** 2
        d[lo:hi] = 1.0 + 2.0 * lam
        d[lo] = d[hi - 1] = 0.5 * (1.0 + 2.0 * lam)
        e[lo:hi - 1] = -lam
    # the reciprocals go over the pivots, which the step does not read
    info = factor(bounds, d, e, f, d)
    if info != 0:
        raise RuntimeError("the diffusion factor failed (info=%d) for dt=%g"
                           % (info, dt))
    return d, e, f


def _check_step_bounds(a_max, t, dt, u_max, grid, config):
    """Raise StepSizeError if the step from t, with sup a = a_max on
    [t, t + dt] and sup u = u_max, is not monotone or breaks the CFL bound."""
    gate = dt * a_max * max(1.0, 2.0 * u_max - 1.0)
    if gate > GATE_LIMIT:
        raise StepSizeError(
            "reaction step too large at t=%g: dt*a_max*max(1, 2 sup u - 1) = "
            "%g * %g * %g = %g > 0.5" % (t, dt, a_max, max(1.0, 2.0 * u_max - 1.0), gate))
    if config.mu is not None:
        c_max = (config.mu ** 2 + a_max) / config.mu
        cfl = c_max * dt / grid.dx
        if cfl > 1.0 + 1e-12:
            raise StepSizeError(
                "upwind CFL violated at t=%g: c_max*dt/dx = %g*%g/%g = %g > 1"
                % (t, c_max, dt, grid.dx, cfl))


@dataclass
class Trajectory:
    """Stored frames of a solve, with exact frame-shift bookkeeping; frames
    is None in the Trajectory that plan() gives before a run."""

    grid: Grid1D
    times: np.ndarray
    frames: np.ndarray
    mu: float = None                  # the moving frame's exponent; None: fixed frame
    frame_shift: np.ndarray = None    # integral of c(t) at stored times (moving frame)
    meta: dict = dc_field(default_factory=dict)

    @property
    def frame(self):
        """'moving' when the run used a moving frame (mu set), else 'fixed'."""
        return "fixed" if self.mu is None else "moving"

    def __iter__(self):
        """(t, u) for each stored frame, as march yields them."""
        return zip(self.times.tolist(), self.frames)

    def index_at(self, t):
        """Index of the stored time t; KeyError when no stored time is t."""
        k = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[k] - t) > 1e-9 * max(1.0, abs(t)) + 1e-12:
            raise KeyError("no stored frame at t=%g (nearest %g)" % (t, self.times[k]))
        return k


def _watched_sides(values):
    """Boundary sides that start unoccupied; fronts must not reach them."""
    sides = []
    if values[0] < WATCH_LEVEL:
        sides.append("left")
    if values[-1] < WATCH_LEVEL:
        sides.append("right")
    return sides


def _schedule(t0, t_end, config):
    """(n_steps, stride) of a run from t0 to t_end; ValueError unless
    t_end - t0 is a positive multiple of dt."""
    dt = config.dt
    span = t_end - t0
    n_steps = int(round(span / dt))
    if n_steps < 1 or abs(n_steps * dt - span) > 1e-9 * max(1.0, abs(t_end)):
        raise ValueError("t_end - t0 = %g is not a positive multiple of dt = %g"
                         % (span, dt))
    return n_steps, config.store_stride or max(1, int(round(0.5 / dt)))


def plan(init_field, path, t_end, config):
    """The Trajectory of a run before it is made, with frames None.

    It holds the grid, the times march yields frames at (the initial one,
    one every stride steps and the last step's), their frame shifts and the
    run record, so the per-frame checks can be set up from it exactly as
    from a stored trajectory.  Raises ValueError when t_end - t0 is not a
    positive multiple of dt or the path does not cover the run.
    """
    grid = init_field.grid
    t0 = float(init_field.t)
    n_steps, stride = _schedule(t0, t_end, config)
    if path.t_lo > t0 + 1e-12 or path.t_hi < t_end - 1e-12:
        raise ValueError("path range [%g, %g] does not cover the solve span [%g, %g]"
                         % (path.t_lo, path.t_hi, t0, t_end))
    steps = np.append(np.arange(0, n_steps, stride), n_steps)
    times = t0 + steps * config.dt
    if config.mu is not None:
        shift = frame_position(path, config.mu, times, t0)
    else:
        shift = np.zeros_like(times)
    meta = {"dt": config.dt, "dx": grid.dx, "stride": stride,
            "margin": config.margin, "t0": t0, "t_end": t_end}
    return Trajectory(grid=grid, times=times, frames=None, mu=config.mu,
                      frame_shift=shift, meta=meta)


def march(init_field, path, t_end, config):
    """Run from init_field.t to t_end, yielding (t, u) at the times of
    plan(init_field, path, t_end, config).

    Each u is a read-only array that the solver never writes again, so a
    consumer may keep it without a copy.  Raises FrontMarginError when the
    solution becomes occupied inside the safety margin of a boundary that
    started unoccupied (the front ran out of room; speed estimates past
    this point would be contaminated), checked with finiteness at every
    yielded frame.  The margin is capped at a quarter of the domain so
    small test domains stay usable; margin=0 disables the check.  Raises
    StepSizeError at the first step that breaks the step-size or CFL gate;
    the gate's sup a on every step comes from one path.max_on call over all
    steps.  This is march_runs with one run.
    """
    for t, (u,) in march_runs([init_field], [path], t_end, config):
        yield t, u


def march_runs(init_fields, paths, t_end, config):
    """Run each init_fields[r] under paths[r] from their common start time
    to t_end as one system, yielding (t, (u_1, ..., u_K)) at the times of
    plan(init_fields[r], paths[r], t_end, config), which are the same for
    every run.

    The grids may differ.  Each u_r is a read-only view of one new array
    and equals, bit for bit, the frame march(init_fields[r], paths[r],
    t_end, config) yields at t.  Every check of march is made per run (its
    own margin bands, and its own sup a and sup u in the gate); an error
    is the one that run raises alone, from the earliest step or frame where
    any run fails, the first run in order within a step.  Raises ValueError
    unless there is one path per field and the fields share their start
    time.
    """
    if not init_fields or len(init_fields) != len(paths):
        raise ValueError("need one path per initial field, and at least one run")
    t0 = float(init_fields[0].t)
    if any(float(f.t) != t0 for f in init_fields):
        raise ValueError("the runs do not share their start time t0")
    times = iter([plan(f, p, t_end, config) for f, p in zip(init_fields, paths)]
                 [0].times.tolist())
    grids = [f.grid for f in init_fields]
    bounds = np.append(0, np.cumsum([grid.n for grid in grids]))
    slices = list(map(slice, bounds[:-1].tolist(), bounds[1:].tolist()))
    dt = config.dt
    n_steps, stride = _schedule(t0, t_end, config)

    bands = []     # (nodes of the whole vector, side, margin) per watched side
    for f, sl in zip(init_fields, slices):
        margin = min(config.margin, 0.25 * (f.grid.x_hi - f.grid.x_lo))
        m_nodes = int(round(margin / f.grid.dx))
        for side in _watched_sides(f.values) if m_nodes > 0 else []:
            nodes = slice(sl.start, sl.start + m_nodes) if side == "left" \
                else slice(sl.stop - m_nodes, sl.stop)
            bands.append((nodes, side, margin))

    mids, a_max = np.empty((2, len(paths), n_steps))
    # the steps' start, midpoint and end times, each made in place (as
    # t0 + k dt, t0 + (k + 0.5) dt and t0 + k dt + dt) so that no array of
    # n_steps temporaries is alive beside them
    starts, at = np.arange(n_steps, dtype=float), np.arange(n_steps, dtype=float)
    starts *= dt
    starts += t0
    at += 0.5
    at *= dt
    at += t0
    for r, p in enumerate(paths):
        mids[r] = p(at)
    at = np.add(starts, dt, out=at)
    for r, p in enumerate(paths):
        a_max[r] = p.max_on(starts, at)
    del starts, at
    nus = None
    if config.mu is not None:
        dxs = np.array([[grid.dx] for grid in grids])
        nus = (config.mu ** 2 + mids) / config.mu * dt / dxs
        cfl = (config.mu ** 2 + a_max) / config.mu * dt / dxs > 1.0 + 1e-12
    # each run's dt sup a per step, as _check_step_bounds rounds it, for the
    # reaction gate the kernel reads, written over sup a (a refused step
    # reads its sup a from the path again); inf where the run's CFL gate trips
    dta = np.multiply(dt, a_max, out=a_max)
    if config.mu is not None:
        dta[cfl] = np.inf

    def checked(vals):
        t = next(times)
        if not np.isfinite(vals).all():
            raise RuntimeError("non-finite field values at t=%g" % t)
        for nodes, side, margin in bands:
            if vals[nodes].max() > WATCH_LEVEL:
                raise FrontMarginError(
                    "front entered the %s safety margin (%g space units) at t=%g; "
                    "enlarge the domain" % (side, margin, t))
        vals.flags.writeable = False
        return t, tuple(vals[sl] for sl in slices)

    u = np.concatenate([np.asarray(f.values, dtype=float) for f in init_fields])
    runs = layout(bounds, np.multiply(dt, mids, out=mids), nus,
                  *_diffusion_ldlt(grids, dt), dta, GATE_LIMIT, u)
    yield checked(u)
    k = 0
    for k1 in [*range(stride, n_steps, stride), n_steps]:
        new = np.empty(bounds[-1])
        # the steps to the next stored frame in C, which stops only before
        # a step where some run's gate trips: that run raises here
        k = _steps(runs, k, k1, new.ctypes.data)
        if k < k1:
            t = t0 + k * dt
            for r, grid in enumerate(grids):
                _check_step_bounds(paths[r].max_on(t, t + dt), t, dt,
                                   runs.tops[r], grid, config)
            raise RuntimeError("the compiled gate refused the step from t=%g, "
                               "which every run's gate passes" % t)
        # runs.u points into this frame, which the consumer may drop
        u = new
        yield checked(u)


def verify(frames, *checks):
    """Pass every (t, u) of `frames` (march(...) or a Trajectory) to each
    check's step(t, u), in the order given, and return the list of the
    checks' finish() results.

    A check is set up from the trajectory or plan of the run, reads each
    frame once and keeps a few numbers per frame, so checks fed by march
    see the whole run without it ever being stored."""
    for t, u in frames:
        for check in checks:
            check.step(t, u)
    return [check.finish() for check in checks]


def solve(init_field, path, t_end, config):
    """The Trajectory of march(init_field, path, t_end, config): its frames
    are written into one (n_frames, n) array allocated before the first
    step, so the trajectory is held once."""
    traj = plan(init_field, path, t_end, config)
    traj.frames = np.empty((traj.times.size, init_field.grid.n))
    for j, (_, u) in enumerate(march(init_field, path, t_end, config)):
        traj.frames[j] = u
    return traj


def suggest_domain(path, t_end, margin=50.0):
    """Recommended right boundary for spreading runs started near x = 0:
    the fastest plausible front (speed 2 sqrt(a_upper_est), with windows
    from min(5, t_end / 4) up) plus 10% and the safety margin."""
    from . import coeff

    est = coeff.estimate_means(path, min(5.0, t_end / 4.0), (0.0, t_end))
    return 2.0 * math.sqrt(est.a_upper_est) * t_end * 1.1 + margin
