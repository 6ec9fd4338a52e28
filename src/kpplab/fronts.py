"""Front tracking and spreading-speed measurements.

The invasion front of a monotone-in-x field is the rightmost down-crossing
of a level (1/2 by default, 1/4 as the companion level for interface-width
checks).  On top of that sit least-squares speed fits, the two-threshold
speed-interval probe, the take-over verifier, and the subadditivity
diagnostic v(t,s) = x(t) + x_s(s) - x(t+s), with x_s the front under the
path shifted by t.

Suprema over all time shifts are approximated by a finite, documented
shift set; that is a declared surrogate, not the mathematical supremum.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import coeff
from . import kppsolve
from ._files import write_table

__all__ = [
    "FrontTrace", "SpeedEstimate", "SpeedInterval", "SubadditivityReport",
    "TakeoverReport", "FrontTracker", "TakeoverCheck",
    "front_position", "track", "estimate_speed", "probe_speed_interval",
    "subadditivity_check", "takeover_verify",
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


class FrontTracker:
    """Per-frame front positions at each level, NaN where a frame has no
    front.  Set up from the trajectory or plan of a run; step(t, u) takes
    the frames in order (see kppsolve.verify) and finish() gives the
    FrontTrace, whose provenance is the run record and frame."""

    def __init__(self, run, levels):
        self.grid, self.levels = run.grid, tuple(levels)
        self.times = np.array(run.times, dtype=float)
        self.positions = {lv: np.full(self.times.size, np.nan) for lv in self.levels}
        self.provenance = dict(run.meta, frame=run.frame)
        self.k = 0

    def step(self, t, u):
        field = kppsolve.Field(self.grid, u)
        for lv in self.levels:
            p = front_position(field, lv)
            if p is not None:
                self.positions[lv][self.k] = p
        self.k += 1

    def finish(self):
        return FrontTrace(times=self.times, levels=self.levels,
                          positions=self.positions, provenance=self.provenance)


def track(trajectory, levels=(0.5, 0.25)):
    """Per-frame front positions at each level of a stored trajectory: the
    same trace as a FrontTracker fed by march during the run."""
    return kppsolve.verify(trajectory, FrontTracker(trajectory, levels))[0]


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
        raise ValueError("fit window (%g, %g) contains fewer than 3 samples"
                         % tuple(window))
    if ts[-1] - ts[0] < 10.0 - 1e-9:
        raise ValueError("fit window spans %g < 10 time units" % (ts[-1] - ts[0]))
    coef, cov = np.polyfit(ts, xs, 1, cov=True)
    resid = xs - np.polyval(coef, ts)
    return SpeedEstimate(speed=float(coef[0]), stderr=float(math.sqrt(cov[0, 0])),
                         window=(float(ts[0]), float(ts[-1])),
                         residual_rms=float(np.sqrt(np.mean(resid ** 2))),
                         endpoint_rate=float(xs[-1] / ts[-1]) if ts[-1] != 0 else math.nan,
                         n_samples=int(ts.size), level=float(level))


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

    For every distinct shift s the equation is solved once with the shifted
    path, all of them marched as one system (kppsolve.march_runs); each c
    is then judged from the final frame: spread needs the solution above
    eps_spread everywhere inside the ray |x| <= c t (both rays for
    compact data, the left-filled region x <= c t otherwise), across all
    shifts; vanish needs it below eps_vanish beyond the ray.  Strict
    inequalities: a tie is neither, which can only widen [c_lo, c_hi].
    c_lo is the largest spread speed, c_hi the smallest vanish speed.
    thresholds is (eps_spread, eps_vanish), finite with
    0 < eps_vanish < eps_spread (ValueError otherwise): swapped, a vanish
    level above the spread level would let one final frame judge a speed
    both ways.
    u0_class is an initial-data kind or a dict {"kind": ..., <init params>}.
    """
    eps_spread, eps_vanish = (float(v) for v in thresholds)
    if not 0.0 < eps_vanish < eps_spread < math.inf:
        raise ValueError("thresholds must be (eps_spread, eps_vanish) with "
                         "0 < eps_vanish < eps_spread, both finite, not "
                         "(%r, %r)" % (eps_spread, eps_vanish))
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
    distinct = sorted(set(shifts))
    for _, finals in kppsolve.march_runs([field0] * len(distinct),
                                         [path.shift(s) for s in distinct],
                                         t_probe, config):
        pass

    x = grid.x
    decisions = {}
    per_c = {}
    for c in c_grid:
        reach = c * t_probe
        inside = (np.abs(x) <= reach) if two_sided else (x <= reach)
        outside = (np.abs(x) >= reach) if two_sided else (x >= reach)
        mins, maxs = [], []
        for s, u in zip(distinct, finals):
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
                         thresholds=(eps_spread, eps_vanish),
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


def _beside(first, second):
    """(first(), second()), with first run on a new thread while this one
    runs second, each to its end.  The error raised is the one a call of
    first and then second would raise: first's, else second's."""
    out = {}

    def run():
        try:
            out["first"] = first()
        except BaseException as exc:   # handed to the calling thread
            out["error"] = exc

    worker = threading.Thread(target=run, name="kpplab-beside")
    worker.start()
    try:
        second_out = second()
    finally:
        worker.join()
        if "error" in out:
            raise out["error"] from None
    return out["first"], second_out


def subadditivity_check(path, times, *, dx=0.1, dt=0.005, margin=50.0,
                        check_doubling=False, n_jobs=None):
    """Defect of front-position additivity over a pair grid.

    v(t,s) = x(t) + x_s(s) - x(t+s), where x is the level-1/2 front of the
    Heaviside run under the path and x_s that of a fresh Heaviside run
    under the path shifted by t.  m_hat is the largest defect.  With
    check_doubling, the axis is refined by midpoints and the relative
    change of m_hat is reported; growth beyond 20% flags an unstable
    estimate.  Pair times must be >= 2 so that fronts exist.  Every shifted
    run (one per distinct time of the axis and, with check_doubling, of its
    midpoints) is marched as one system through kppsolve.march_runs, so its
    error comes from the earliest step at which any shifted run fails.  The
    base run is a march of its own.  When os.sched_getaffinity allows two
    CPUs or more, it is marched on a second thread while this one marches
    the shifted runs; its set-up and first frame are made in this thread
    first, so its arrays come from this thread's heap.  The thread is
    joined before the call returns or raises, and the error raised is the
    one the runs raise in order on one thread: the base run's, else the
    shifted runs'.  n_jobs is accepted for old callers and ignored.
    """
    axis = [float(t) for t in times]
    if not axis:
        raise ValueError("need at least one pair time")
    for t in axis:
        if not math.isfinite(t):
            raise ValueError("pair times must be finite, not %r" % t)
    axis.sort()
    if axis[0] < 2.0:
        raise ValueError("pair times must be >= 2 so fronts exist")
    fine = _midpoint_refine(axis) if check_doubling else axis
    config = kppsolve.SolveConfig(dt=dt, margin=margin)

    def heaviside_run(p, t_end):
        # each run's domain is sized for its own path and horizon
        grid = kppsolve.make_grid(-(margin + 20.0),
                                  kppsolve.suggest_domain(p, t_end, margin), dx)
        field0 = kppsolve.init("heaviside", grid, {})
        return field0, FrontTracker(kppsolve.plan(field0, p, t_end, config), (0.5,))

    shifts = sorted(set(fine))

    def shifted():
        paths = [path.shift(t) for t in shifts]
        fields, trackers = zip(*(heaviside_run(p, axis[-1]) for p in paths))
        for t, us in kppsolve.march_runs(fields, paths, axis[-1], config):
            for tracker, u in zip(trackers, us):
                tracker.step(t, u)
        return {t: tracker.finish() for t, tracker in zip(shifts, trackers)}

    field0, base_tracker = heaviside_run(path, 2.0 * axis[-1])
    frames = kppsolve.march(field0, path, 2.0 * axis[-1], config)
    # the first frame makes the march's set-up arrays in this thread
    base_tracker.step(*next(frames))

    def base_run():
        return kppsolve.verify(frames, base_tracker)[0]

    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        base, traces = base_run(), shifted()
    else:
        base, traces = _beside(base_run, shifted)

    def fill(t_axis, s_axis):
        v = np.empty((len(t_axis), len(s_axis)))
        for i, t in enumerate(t_axis):
            tr = traces[t]
            for j, s in enumerate(s_axis):
                xt = base.position_at(t)
                xs = tr.position_at(s)
                xts = base.position_at(t + s)
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
        provenance={"dx": dx, "dt": dt, "level": 0.5, **path.describe()})
    if check_doubling:
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


class TakeoverCheck:
    """Per-frame check of decay beyond speed c_hat + h and take-over inside
    c_hat - h.

    c_hat = 2 sqrt(a_hat_est) comes from the path's windowed means over the
    run's horizon, with windows from min(r_min, horizon / 4) up.  Each check
    time must be a stored time of the run (KeyError) with nodes beyond
    (c_hat + h) t (ValueError); both are checked when the check is set up
    from the trajectory or plan of the run, in the order of t_checks.
    step(t, u) takes the frames in order (see kppsolve.verify) and keeps
    (t, outer sup, inner inf) at the check times; the final check must have
    the outer sup below outer_tol and the inner inf above inner_level for
    finish() to report a pass.
    """

    def __init__(self, run, path, h, t_checks, *,
                 r_min=5.0, outer_tol=1e-3, inner_level=0.99):
        if h <= 0:
            raise ValueError("h must be positive")
        if len(t_checks) == 0:
            raise ValueError("need at least one check time")
        t0, t_end = float(run.times[0]), float(run.times[-1])
        mean_est = coeff.estimate_means(path, min(r_min, (t_end - t0) / 4.0),
                                        (t0, t_end))
        self.c_hat = 2.0 * math.sqrt(mean_est.a_hat_est)
        self.h, self.outer_tol, self.inner_level = h, outer_tol, inner_level
        x = run.grid.x
        self.checks = []     # (frame index, t, outer mask, inner mask)
        for t in t_checks:
            k = run.index_at(t)
            outer = x >= (self.c_hat + h) * t
            inner = x <= (self.c_hat - h) * t
            if not outer.any():
                raise ValueError("domain too small: no nodes beyond x = %g at t=%g"
                                 % ((self.c_hat + h) * t, t))
            self.checks.append((k, float(t), outer, inner))
        self.rows = [None] * len(self.checks)
        self.k = 0

    def step(self, t, u):
        for i, (k, t_check, outer, inner) in enumerate(self.checks):
            if k == self.k:
                inner_inf = float(u[inner].min()) if inner.any() else float(u[0])
                self.rows[i] = (t_check, float(u[outer].max()), inner_inf)
        self.k += 1

    def finish(self):
        last = self.rows[-1]
        passed = last[1] <= self.outer_tol and last[2] >= self.inner_level
        return TakeoverReport(passed=bool(passed), c_hat=self.c_hat,
                              h=float(self.h), rows=self.rows,
                              outer_tol=float(self.outer_tol),
                              inner_level=float(self.inner_level))


def takeover_verify(trajectory, path, h, t_checks, **limits):
    """TakeoverCheck of a stored trajectory, with its keyword limits: the
    same report as a check fed by march during the run."""
    check = TakeoverCheck(trajectory, path, h, t_checks, **limits)
    return kppsolve.verify(trajectory, check)[0]
