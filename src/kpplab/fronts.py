"""Front tracking and spreading-speed measurements.

The invasion front of a monotone-in-x field is the rightmost down-crossing
of a level (1/2 by default, 1/4 as the companion level for interface-width
checks).  On top of that sit least-squares speed fits, the two-threshold
speed-interval probe, the take-over verifier, and the subadditivity
diagnostic v(t,s) = x(t) + x_s(t) - x(t+s) for the shifted-path front
positions.

Suprema over all time shifts are approximated by a finite, documented
shift set; that is a declared surrogate, not the mathematical supremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import coeff
from . import kppsolve
from ._files import write_table

__all__ = [
    "FrontTrace", "SpeedEstimate", "SpeedInterval", "SubadditivityReport",
    "TakeoverReport", "OrderingReport", "TailReport",
    "front_position", "track", "estimate_speed", "default_shift_set",
    "probe_speed_interval", "subadditivity_check", "takeover_verify",
    "profile_ordering_check", "tail_uniformity",
]


def front_position(field, level=0.5):
    """Rightmost down-crossing of the level, by linear interpolation.

    Returns None when the field never brackets the level (no front).
    Ties at plateaus resolve to the largest bracketing index, giving the
    most conservative (slowest) front estimate.
    """
    u = field.values
    x = field.grid.x
    above = u >= level
    below = u < level
    cross = above[:-1] & below[1:]
    idx = np.nonzero(cross)[0]
    if idx.size == 0:
        return None
    i = int(idx[-1])
    frac = (u[i] - level) / (u[i] - u[i + 1])
    return float(x[i] + frac * (x[i + 1] - x[i]))


@dataclass
class FrontTrace:
    """Level-crossing positions per stored frame; NaN marks no-front gaps."""

    times: np.ndarray
    levels: tuple
    positions: dict
    provenance: dict = dc_field(default_factory=dict)

    def xs(self, level=None):
        level = self.levels[0] if level is None else level
        return self.positions[level]

    def position_at(self, t, level=None):
        """Front position linearly interpolated between stored frames."""
        ts = self.times
        xs = self.xs(level)
        ok = ~np.isnan(xs)
        if not ok.any():
            return math.nan
        return float(np.interp(t, ts[ok], xs[ok], left=math.nan, right=math.nan))

    def to_csv(self, file):
        meta = " ".join("%s=%s" % (k, v) for k, v in sorted(self.provenance.items()))
        names = {0.5: "x_half", 0.25: "x_quarter"}
        cols = [names.get(lv, "x_%g" % lv) for lv in self.levels]
        rows = zip(self.times, *(self.positions[lv] for lv in self.levels))
        write_table(file, ["t"] + cols, rows, meta)


def track(trajectory, levels=(0.5, 0.25)):
    """Extract per-frame front positions at each level."""
    positions = {}
    grid = trajectory.grid
    for lv in levels:
        xs = np.full(trajectory.times.size, np.nan)
        for k in range(trajectory.times.size):
            p = front_position(kppsolve.Field(grid, trajectory.frames[k]), lv)
            if p is not None:
                xs[k] = p
        positions[lv] = xs
    prov = dict(trajectory.meta)
    prov["frame"] = trajectory.frame
    return FrontTrace(times=trajectory.times.copy(), levels=tuple(levels),
                      positions=positions, provenance=prov)


@dataclass
class SpeedEstimate:
    speed: float
    stderr: float
    window: tuple
    residual_rms: float
    endpoint_rate: float
    n_samples: int
    level: float


def estimate_speed(trace, burn_in=None, level=None, window=None):
    """Least-squares slope of x(t) over the fit window.

    burn_in (default 25% of the horizon) drops the front-formation
    transient; the remaining window must span at least 10 time units.
    x(t_end)/t_end is reported alongside as endpoint_rate.
    """
    level = trace.levels[0] if level is None else level
    ts = trace.times
    xs = trace.xs(level)
    ok = ~np.isnan(xs)
    ts, xs = ts[ok], xs[ok]
    if ts.size < 3:
        raise ValueError("not enough front samples to fit a speed")
    if window is None:
        if burn_in is None:
            burn_in = 0.25 * (ts[-1] - ts[0])
        window = (ts[0] + burn_in, ts[-1])
    sel = (ts >= window[0] - 1e-12) & (ts <= window[1] + 1e-12)
    ts, xs = ts[sel], xs[sel]
    if ts.size < 3:
        raise ValueError("fit window %s contains fewer than 3 samples" % (window,))
    if ts[-1] - ts[0] < 10.0 - 1e-9:
        raise ValueError("fit window spans %g < 10 time units" % (ts[-1] - ts[0]))
    coef, cov = np.polyfit(ts, xs, 1, cov=True)
    resid = xs - np.polyval(coef, ts)
    return SpeedEstimate(speed=float(coef[0]), stderr=float(math.sqrt(cov[0, 0])),
                         window=(float(ts[0]), float(ts[-1])),
                         residual_rms=float(np.sqrt(np.mean(resid ** 2))),
                         endpoint_rate=float(xs[-1] / ts[-1]) if ts[-1] != 0 else math.nan,
                         n_samples=int(ts.size), level=float(level))


def default_shift_set(scale, n=8):
    """n shifts spread over one period scale of the path, starting at 0."""
    return [scale * k / n for k in range(n)]


@dataclass
class SpeedInterval:
    c_lo: float
    c_hi: float
    c_grid: tuple
    shifts: tuple
    per_c: dict               # c -> "spread" | "vanish" | "undecided"
    decisions: dict           # (c, shift) -> (min_inside, max_outside)
    monotone: bool
    t_probe: float
    thresholds: tuple
    u0_class: str

    def to_dict(self):
        return {
            "c_lo": self.c_lo, "c_hi": self.c_hi,
            "c_grid": list(self.c_grid), "shifts": list(self.shifts),
            "per_c": {"%.12g" % c: v for c, v in self.per_c.items()},
            "decisions": {"c=%.12g,shift=%.12g" % k: list(v)
                          for k, v in self.decisions.items()},
            "monotone": self.monotone, "t_probe": self.t_probe,
            "thresholds": list(self.thresholds), "u0_class": self.u0_class,
        }


def probe_speed_interval(path, u0_class, c_grid, shift_set, t_probe,
                         thresholds=(0.9, 0.05), *, dx=0.1, dt=0.005,
                         domain=None, margin=50.0):
    """Classify each probe speed c as spread or vanish at time t_probe.

    For every shift s the equation is solved once with the shifted path;
    each c is then judged from the final frame: spread needs the solution
    above eps_spread everywhere inside the ray |x| <= c t (both rays for
    compact data, the left-filled region x <= c t otherwise), across all
    shifts; vanish needs it below eps_vanish beyond the ray.  Strict
    inequalities: a tie is neither, which can only widen [c_lo, c_hi].
    c_lo is the largest spread speed, c_hi the smallest vanish speed.
    u0_class is an initial-data kind or a dict {"kind": ..., <init params>}.
    """
    eps_spread, eps_vanish = thresholds
    c_grid = sorted(float(c) for c in c_grid)
    shifts = sorted(float(s) for s in shift_set)
    if not c_grid or not shifts:
        raise ValueError("need at least one probe speed and one shift")
    u0_params = dict(u0_class) if isinstance(u0_class, dict) else {"kind": u0_class}
    kind_name = u0_params.pop("kind")
    two_sided = kind_name == "compact-bump"

    c_max = c_grid[-1]
    if domain is None:
        x_hi = max(kppsolve.suggest_domain(path, t_probe, margin),
                   c_max * t_probe + margin + 10.0)
        x_lo = -x_hi if two_sided else -(margin + 20.0)
        domain = (x_lo, x_hi)
    grid = kppsolve.make_grid(domain[0], domain[1], dx)
    if domain[1] < c_max * t_probe + margin or \
            (two_sided and domain[0] > -(c_max * t_probe + margin)):
        raise ValueError("domain too small to judge c=%g at t_probe=%g"
                         % (c_max, t_probe))
    config = kppsolve.SolveConfig(dt=dt, margin=margin,
                                  store_stride=int(round(t_probe / dt)))

    field0 = kppsolve.init(kind_name, grid, u0_params)
    finals = [kppsolve.solve(field0, coeff.shift(path, s), t_probe, config).frames[-1]
              for s in shifts]

    x = grid.x
    decisions = {}
    per_c = {}
    for c in c_grid:
        reach = c * t_probe
        inside = (np.abs(x) <= reach) if two_sided else (x <= reach)
        outside = (np.abs(x) >= reach) if two_sided else (x >= reach)
        mins, maxs = [], []
        for s, u in zip(shifts, finals):
            m_in = float(u[inside].min()) if inside.any() else math.nan
            m_out = float(u[outside].max()) if outside.any() else math.nan
            decisions[(c, s)] = (m_in, m_out)
            mins.append(m_in)
            maxs.append(m_out)
        worst_in, worst_out = min(mins), max(maxs)
        if worst_in > eps_spread:
            per_c[c] = "spread"
        elif worst_out < eps_vanish:
            per_c[c] = "vanish"
        else:
            per_c[c] = "undecided"

    labels = [per_c[c] for c in c_grid]
    spread_cs = [c for c in c_grid if per_c[c] == "spread"]
    vanish_cs = [c for c in c_grid if per_c[c] == "vanish"]
    c_lo = max(spread_cs) if spread_cs else math.nan
    c_hi = min(vanish_cs) if vanish_cs else math.nan
    # monotone means: spread prefix, vanish suffix, no interleaving
    last_spread = max((i for i, l in enumerate(labels) if l == "spread"), default=-1)
    first_vanish = min((i for i, l in enumerate(labels) if l == "vanish"),
                       default=len(labels))
    monotone = last_spread < first_vanish
    return SpeedInterval(c_lo=c_lo, c_hi=c_hi, c_grid=tuple(c_grid),
                         shifts=tuple(shifts), per_c=per_c, decisions=decisions,
                         monotone=monotone, t_probe=float(t_probe),
                         thresholds=(float(eps_spread), float(eps_vanish)),
                         u0_class=kind_name)


@dataclass
class SubadditivityReport:
    t_axis: tuple
    s_axis: tuple
    violations: np.ndarray     # v[i, j] for (t_axis[i], s_axis[j])
    m_hat: float
    argmax_pair: tuple
    m_hat_doubled: float = None
    doubling_change: float = None
    doubling_flagged: bool = None
    provenance: dict = dc_field(default_factory=dict)


def _midpoint_refine(axis):
    out = []
    for a, b in zip(axis[:-1], axis[1:]):
        out.extend([a, 0.5 * (a + b)])
    out.append(axis[-1])
    return out


def subadditivity_check(path, times, *, dx=0.1, dt=0.005, level=0.5,
                        margin=50.0, check_doubling=False, n_jobs=None):
    """Defect of front-position additivity over a pair grid.

    v(t,s) = x(t) + x_s(s) - x(t+s), where x is the front of the Heaviside
    run under the path and x_s the front of a fresh Heaviside run under the
    path shifted by t.  m_hat is the largest defect.  With check_doubling,
    the axis is refined by midpoints (reusing every solve already made) and
    the relative change of m_hat is reported; growth beyond 20% flags an
    unstable estimate.  Pair times must be >= 2 so that fronts exist.
    n_jobs is accepted for old callers and ignored: the solves run one
    after another.
    """
    axis = sorted(float(t) for t in times)
    if axis[0] < 2.0:
        raise ValueError("pair times must be >= 2 so fronts exist")
    config = kppsolve.SolveConfig(dt=dt, margin=margin)

    def heaviside_trace(p, t_end):
        # each run's domain is sized for its own path and horizon
        grid = kppsolve.make_grid(-(margin + 20.0),
                                  kppsolve.suggest_domain(p, t_end, margin), dx)
        field0 = kppsolve.init("heaviside", grid, {})
        traj = kppsolve.solve(field0, p, t_end, config)
        return track(traj, levels=(level,))

    base = heaviside_trace(path, 2.0 * axis[-1])
    cache = {}

    def shifted_trace(t):
        if t not in cache:
            cache[t] = heaviside_trace(coeff.shift(path, t), axis[-1])
        return cache[t]

    def fill(t_axis, s_axis):
        v = np.empty((len(t_axis), len(s_axis)))
        for i, t in enumerate(t_axis):
            tr = shifted_trace(t)
            for j, s in enumerate(s_axis):
                xt = base.position_at(t, level)
                xs = tr.position_at(s, level)
                xts = base.position_at(t + s, level)
                if math.isnan(xt) or math.isnan(xs) or math.isnan(xts):
                    raise ValueError("no front at a required time for pair "
                                     "(t=%g, s=%g)" % (t, s))
                v[i, j] = xt + xs - xts
        return v

    v = fill(axis, axis)
    k = np.unravel_index(int(np.argmax(v)), v.shape)
    report = SubadditivityReport(
        t_axis=tuple(axis), s_axis=tuple(axis), violations=v,
        m_hat=float(v.max()), argmax_pair=(axis[k[0]], axis[k[1]]),
        provenance={"dx": dx, "dt": dt, "level": level, **path.describe()})
    if check_doubling:
        fine = _midpoint_refine(axis)
        v2 = fill(fine, fine)
        m2 = float(v2.max())
        change = (m2 - report.m_hat) / max(1.0, abs(report.m_hat))
        report.m_hat_doubled = m2
        report.doubling_change = change
        report.doubling_flagged = bool(change > 0.20)
    return report


@dataclass
class TakeoverReport:
    passed: bool
    c_hat: float
    h: float
    rows: list                 # (t, outer_sup, inner_inf)
    outer_tol: float
    inner_level: float


def takeover_verify(trajectory, path, h, t_checks, *,
                    r_min=5.0, outer_tol=1e-3, inner_level=0.99):
    """Check decay beyond speed c_hat + h and take-over inside c_hat - h.

    c_hat = 2 sqrt(a_hat_est) comes from the path's windowed means over the
    trajectory horizon, with windows from min(r_min, horizon / 4) up.  Each
    check time must be a stored frame; the final check must have the outer
    sup below outer_tol and the inner inf above inner_level for an overall
    pass.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    t0, t_end = float(trajectory.times[0]), float(trajectory.times[-1])
    mean_est = coeff.estimate_means(path, min(r_min, (t_end - t0) / 4.0),
                                    (t0, t_end))
    c_hat = 2.0 * math.sqrt(mean_est.a_hat_est)
    x = trajectory.grid.x
    rows = []
    for t in t_checks:
        frame = trajectory.frame_at(t)
        outer = x >= (c_hat + h) * t
        inner = x <= (c_hat - h) * t
        if not outer.any():
            raise ValueError("domain too small: no nodes beyond x = %g at t=%g"
                             % ((c_hat + h) * t, t))
        inner_inf = float(frame.values[inner].min()) if inner.any() \
            else float(frame.values[0])
        rows.append((float(t), float(frame.values[outer].max()), inner_inf))
    last = rows[-1]
    passed = last[1] <= outer_tol and last[2] >= inner_level
    return TakeoverReport(passed=bool(passed), c_hat=c_hat, h=float(h),
                          rows=rows, outer_tol=float(outer_tol),
                          inner_level=float(inner_level))


@dataclass
class OrderingReport:
    rows: list                 # (t, viol_left, viol_right)
    max_violation: float
    band: float


def profile_ordering_check(traj_a, traj_b, times, *, level=0.5):
    """Steepness ordering of centered profiles.

    Both trajectories are centered at their own level crossing per time;
    the first should dominate left of the crossing and be dominated right
    of it.  A band of 2 dx of traj_a's grid around the crossing is exempt
    (the crossing locations themselves only agree to interpolation
    accuracy); the report records it.
    """
    grid = traj_a.grid
    band = 2.0 * grid.dx
    x = grid.x
    rows = []
    worst = 0.0
    for t in times:
        fa = traj_a.frame_at(t)
        fb = traj_b.frame_at(t)
        xa = front_position(fa, level)
        xb = front_position(fb, level)
        if xa is None or xb is None:
            raise ValueError("missing level-%g crossing at t=%g" % (level, t))
        lo = max(x[0] - xa, x[0] - xb)
        hi = min(x[-1] - xa, x[-1] - xb)
        xi = np.arange(lo, hi, grid.dx)
        ua = np.interp(xi + xa, x, fa.values)
        ub = np.interp(xi + xb, x, fb.values)
        left = xi <= -band
        right = xi >= band
        viol_left = float(np.max(ub[left] - ua[left], initial=0.0))
        viol_right = float(np.max(ua[right] - ub[right], initial=0.0))
        rows.append((float(t), viol_left, viol_right))
        worst = max(worst, viol_left, viol_right)
    return OrderingReport(rows=rows, max_violation=worst, band=float(band))


@dataclass
class TailReport:
    x_probes: tuple
    deviations: tuple          # sup over window, x <= probe of |v - 1|
    t_window: tuple


def tail_uniformity(trajectory, x_probes, t_window):
    """Sup deviation from the level 1 left of each probe position.

    Intended for moving-frame runs where the profile should flatten to 1
    on the left; deviations are automatically nonincreasing as probes move
    left because the regions nest.  Stored times and grid nodes increase,
    so the window and each region are slices: every deviation is
    max(max v - 1, 1 - min v) over a view of the frames, the same float as
    the max of |v - 1| without a frame-sized temporary.
    """
    times = trajectory.times
    rows = slice(np.searchsorted(times, t_window[0] - 1e-12, side="left"),
                 np.searchsorted(times, t_window[1] + 1e-12, side="right"))
    frames = trajectory.frames[rows]
    if frames.shape[0] == 0:
        raise ValueError("no stored frames inside the window %s" % (t_window,))
    x = trajectory.grid.x
    devs = []
    for p in x_probes:
        region = frames[:, :np.searchsorted(x, p, side="right")]
        if region.size == 0:
            raise ValueError("probe %g is left of the whole grid" % p)
        devs.append(float(max(region.max() - 1.0, 1.0 - region.min())))
    return TailReport(x_probes=tuple(float(p) for p in x_probes),
                      deviations=tuple(devs),
                      t_window=(float(t_window[0]), float(t_window[1])))
