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
positive definite M-matrix.  It is factored once per solve as L D L^T
(LAPACK dpttrf) and each step solves against the right-hand side with its
end entries halved as well (dpttrs); halving is exact in binary, so this is
the same linear system.

After each step, entries with |u| below the smallest normal float are set
to 0.  The solution ahead of a front decays into subnormal numbers, which
only slow the arithmetic down.  The flush map is non-decreasing, so
composing it with the monotone step keeps the step monotone, and values at
or below -tiny are left alone so that a positivity fault still shows.

A step-size gate keeps each step monotone: dt * sup a * max(1, 2 sup u - 1)
<= 1/2, with sup a taken over the whole step, since paths need not be
bounded and a spike narrower than dt must still count.  solve() reads sup a
for every step with one array call to path.max_on before the loop; the loop
reads sup u each step and does only scalar arithmetic for the gate.

Moving-frame solves (SolveConfig(dt=..., mu=...): setting mu selects the
moving frame) use the time-dependent frame speed c(t) = (mu^2 + a(t)) / mu,
the speed at which the exponential ansatz exp(-mu x) is stationary; the
accumulated shift, frame_position, is tracked exactly through the path's
integral.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from ._files import opened, write_table

__all__ = [
    "Grid1D", "Field", "SolveConfig", "Trajectory",
    "StepSizeError", "FrontMarginError",
    "make_grid", "init", "solve", "suggest_domain", "frame_position",
]

# fields below this value count as "unoccupied" for boundary-safety checks
WATCH_LEVEL = 0.05
# the run record solve() keeps in Trajectory.meta, in KPP2 file order
META_KEYS = ("dt", "dx", "stride", "margin", "t0", "t_end")
# magnitudes below this (the subnormals) are flushed to 0 after each step
TINY = np.finfo(float).tiny


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
    """Uniform grid with spacing dx (x_hi is kept, n is rounded)."""
    n = int(round((x_hi - x_lo) / dx)) + 1
    return Grid1D(float(x_lo), float(x_lo) + (n - 1) * float(dx), n)


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
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.mu is not None and not self.mu > 0:
            raise ValueError("moving frame needs a positive exponent mu")
        if self.margin < 0:
            raise ValueError("margin must be nonnegative")


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


def _diffusion_ldlt(grid, dt):
    """Prefactored backward-Euler solve with I - dt * Laplacian (zero-flux).

    Zero-flux boundaries via mirror ghost nodes give row sums of exactly 1,
    so constants are preserved and the inverse is a monotone averaging.
    The end rows carry -2 lam off the diagonal; halving them (w = 1/2 there,
    1 elsewhere) gives the symmetric positive definite tridiagonal
    diag(w (1 + 2 lam)) with -lam off the diagonal, factored here as
    L D L^T.  Returns solve(b), which overwrites b with the solution.
    """
    lam = dt / grid.dx ** 2
    d = np.full(grid.n, 1.0 + 2.0 * lam)
    d[0] = d[-1] = 0.5 * (1.0 + 2.0 * lam)
    d, e, info = dpttrf(d, np.full(grid.n - 1, -lam))
    if info != 0:
        raise RuntimeError("dpttrf failed (info=%d) for lam=%g" % (info, lam))

    def solve(b):
        b[0] *= 0.5
        b[-1] *= 0.5
        x, info = dpttrs(d, e, b, overwrite_b=True)
        if info != 0:
            raise RuntimeError("dpttrs failed (info=%d)" % info)
        return x

    return solve


def _flush_subnormals(u):
    """Set entries with |u| < TINY to 0 in place; a non-decreasing map."""
    np.copyto(u, 0.0, where=np.abs(u) < TINY)
    return u


def _check_step_bounds(a_max, t, dt, u_max, grid, config):
    """Raise StepSizeError if the step from t, with sup a = a_max on
    [t, t + dt] and sup u = u_max, is not monotone or breaks the CFL bound."""
    gate = dt * a_max * max(1.0, 2.0 * u_max - 1.0)
    if gate > 0.5 + 1e-12:
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


def _advance(values, dt, a_mid, diffuse, grid, config):
    """One split step: reaction, advection, diffusion, subnormal flush.
    Returns a new array."""
    u = values
    u = u + dt * a_mid * u * (1.0 - u)
    if config.mu is not None:
        nu = ((config.mu ** 2 + a_mid) / config.mu) * dt / grid.dx
        u[:-1] += nu * (u[1:] - u[:-1])
        # last node keeps its value: zero-gradient inflow
    return _flush_subnormals(diffuse(u))


@dataclass
class Trajectory:
    """Stored frames of a solve, with exact frame-shift bookkeeping."""

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

    def frame_at(self, t):
        k = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[k] - t) > 1e-9 * max(1.0, abs(t)) + 1e-12:
            raise KeyError("no stored frame at t=%g (nearest %g)" % (t, self.times[k]))
        return Field(self.grid, self.frames[k].copy(), float(self.times[k]))

    def to_csv(self, file):
        meta = " ".join("%s=%s" % (k, v) for k, v in sorted(self.meta.items()))
        write_table(file, ["t"] + ["%.12g" % xi for xi in self.grid.x],
                    ((t, *row) for t, row in zip(self.times, self.frames)),
                    "frame=%s %s" % (self.frame, meta))

    def to_binary(self, file):
        """Compact layout: magic 'KPP2', little-endian int64 counts, float64
        grid descriptor, the float64 run record (META_KEYS, NaN where meta
        lacks a key), then times, frame shifts, and frames row-major.
        `file` is a path or a binary stream (in-memory streams included).
        Each block's buffer goes to the stream as it is: no copy of the
        frames is made."""
        mu = self.mu if self.mu is not None else math.nan
        moving = 1.0 if self.frame == "moving" else 0.0
        shifts = self.frame_shift if self.frame_shift is not None \
            else np.zeros_like(self.times)
        record = [self.meta.get(k, math.nan) for k in META_KEYS]
        with opened(file, "wb") as fh:
            fh.write(b"KPP2")
            fh.write(np.asarray([self.times.size, self.grid.n], dtype="<i8"))
            for block in ([self.grid.x_lo, self.grid.dx, moving, mu], record,
                          self.times, shifts, self.frames):
                fh.write(np.ascontiguousarray(block, dtype="<f8"))

    @staticmethod
    def from_binary(file):
        """Read a KPP2 file, or a KPP1 file (no run record: empty meta).

        Each block is read straight into a new writeable array, so the
        frames are held once.  A file that ends early raises ValueError;
        on a seekable stream that is checked before the arrays are
        allocated, so a damaged frame count cannot ask for more memory
        than the file holds."""
        def read(fh, dtype, *shape):
            out = np.empty(shape, dtype=dtype)
            if fh.readinto(out) != out.nbytes:
                raise ValueError("trajectory file ends inside a block")
            return out

        with opened(file, "rb") as fh:
            magic = fh.read(4)
            if magic not in (b"KPP1", b"KPP2"):
                raise ValueError("not a KPP1 or KPP2 trajectory file")
            n_frames, n_nodes = (int(v) for v in read(fh, "<i8", 2))
            x_lo, dx, moving, mu = read(fh, "<f8", 4)
            meta = {}
            if magic == b"KPP2":
                for key, value in zip(META_KEYS, read(fh, "<f8", len(META_KEYS))):
                    if not math.isnan(value):
                        meta[key] = int(value) if key == "stride" else float(value)
            if fh.seekable():
                here = fh.tell()
                left = fh.seek(0, io.SEEK_END) - fh.seek(here)
                if left < 8 * n_frames * (2 + n_nodes):
                    raise ValueError("trajectory file is shorter than its header says")
            times = read(fh, "<f8", n_frames)
            shifts = read(fh, "<f8", n_frames)
            frames = read(fh, "<f8", n_frames, n_nodes)
        grid = Grid1D(float(x_lo), float(x_lo + dx * (n_nodes - 1)), n_nodes)
        return Trajectory(grid=grid, times=times, frames=frames,
                          mu=float(mu) if moving else None,
                          frame_shift=shifts, meta=meta)


def _watched_sides(values):
    """Boundary sides that start unoccupied; fronts must not reach them."""
    sides = []
    if values[0] < WATCH_LEVEL:
        sides.append("left")
    if values[-1] < WATCH_LEVEL:
        sides.append("right")
    return sides


def solve(init_field, path, t_end, config):
    """Run from init_field.t to t_end, storing frames at the config stride.

    The stored frames are the initial one, one every stride steps and the
    last step's; they are written into one (1 + ceil(n_steps / stride), n)
    array allocated before the loop, so the trajectory is held once.
    Aborts with FrontMarginError if the solution becomes occupied inside
    the safety margin of a boundary that started unoccupied (the front ran
    out of room; speed estimates past this point would be contaminated).
    The margin is capped at a quarter of the domain so small test domains
    stay usable; margin=0 disables the check.  Raises StepSizeError at the
    first step that breaks the step-size or CFL gate; the gate's sup a on
    every step comes from one path.max_on call over all steps.
    """
    grid = init_field.grid
    dt = config.dt
    t0 = float(init_field.t)
    span = t_end - t0
    n_steps = int(round(span / dt))
    if n_steps < 1 or abs(n_steps * dt - span) > 1e-9 * max(1.0, abs(t_end)):
        raise ValueError("t_end - t0 = %g is not a positive multiple of dt = %g"
                         % (span, dt))
    if path.t_lo > t0 + 1e-12 or path.t_hi < t_end - 1e-12:
        raise ValueError("path range [%g, %g] does not cover the solve span [%g, %g]"
                         % (path.t_lo, path.t_hi, t0, t_end))

    stride = config.store_stride or max(1, int(round(0.5 / dt)))
    margin = min(config.margin, 0.25 * (grid.x_hi - grid.x_lo))
    m_nodes = int(round(margin / grid.dx))
    watched = _watched_sides(init_field.values) if m_nodes > 0 else []

    diffuse = _diffusion_ldlt(grid, dt)
    mids = np.asarray(path(t0 + (np.arange(n_steps) + 0.5) * dt), dtype=float)
    starts = t0 + np.arange(n_steps) * dt
    a_max = path.max_on(starts, starts + dt)

    n_frames = 1 + -(-n_steps // stride)
    times = np.empty(n_frames)
    frames = np.empty((n_frames, grid.n))
    times[0] = t0
    frames[0] = init_field.values
    u = frames[0]     # read only: each step returns a new array

    def safety_check(vals, t):
        if not np.all(np.isfinite(vals)):
            raise RuntimeError("non-finite field values at t=%g" % t)
        for side in watched:
            band = vals[:m_nodes] if side == "left" else vals[-m_nodes:]
            if band.max() > WATCH_LEVEL:
                raise FrontMarginError(
                    "front entered the %s safety margin (%g space units) at t=%g; "
                    "enlarge the domain" % (side, margin, t))

    safety_check(u, t0)
    j = 1
    for k in range(n_steps):
        t = t0 + k * dt
        _check_step_bounds(a_max.item(k), t, dt, float(u.max()), grid, config)
        u = _advance(u, dt, mids[k], diffuse, grid, config)
        if (k + 1) % stride == 0 or k + 1 == n_steps:
            t_new = t0 + (k + 1) * dt
            safety_check(u, t_new)
            times[j] = t_new
            frames[j] = u
            j += 1

    if config.mu is not None:
        shift = frame_position(path, config.mu, times, t0)
    else:
        shift = np.zeros_like(times)
    meta = {"dt": dt, "dx": grid.dx, "stride": stride, "margin": config.margin,
            "t0": t0, "t_end": t_end}
    return Trajectory(grid=grid, times=times, frames=frames,
                      mu=config.mu, frame_shift=shift, meta=meta)


def suggest_domain(path, t_end, margin=50.0, r_min=5.0):
    """Recommended right boundary for spreading runs started near x = 0:
    the fastest plausible front (speed 2 sqrt(a_upper_est)) plus 10% and
    the safety margin."""
    from . import coeff

    r = min(r_min, t_end / 4.0)
    est = coeff.estimate_means(path, r, (0.0, t_end))
    return 2.0 * math.sqrt(est.a_upper_est) * t_end * 1.1 + margin
