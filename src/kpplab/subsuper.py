"""Explicit comparison bounds in the exponential moving frame.

The frame travels at instantaneous speed (mu^2 + a(t))/mu.  In it,
min(1, e^{-mu xi}) is a supersolution for any 0 < mu, and

    phi(t, xi) = e^{-mu xi} - d e^{(r-1)A(t)} e^{-mu_tilde xi},   r = mu_tilde/mu,

is a lower solution on its positivity region xi >= rho(t), where A is the
negated bounded block primitive of (1-delta) a - (block mean), provided the
parameters satisfy the admissibility inequalities enforced by WaveParams.
The capped variant freezes phi at its interior maximum, giving a bounded
nonnegative initial datum that still sits below the solution.

Each bound is split into a time-dependent part, written once as a function
of an array of times (the frame position C(t), A(t), the amplitude
d e^{(r-1)A(t)}, the edge rho(t) and the capped peak), and a profile in x
that reads one time's entries.  A bound evaluated at one time goes through
the same code with a one-element array of times.

OrderingCheck checks either bound frame by frame, with an explicit
discretization slack, during a run (fed by kppsolve.march) or against a
stored trajectory (certify_ordering).  It evaluates the time-dependent part
over all the run's times once, when it is set up, and compares each frame
only on its comparison region, a slice of the sorted grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import coeff
from ._files import write_table
from .equilibria import trajectory_slack
from .kppsolve import frame_position, verify

# a violation at or below this is rounding, and where it is the worst
# OrderingCheck reports no time or place for it: the argmax of rounding
# noise moves under a change of 1e-16 in the field
ROUNDING = 1e-12

__all__ = [
    "WaveParams", "BoundCurve", "CertifyReport", "InitialOrderingError",
    "choose_delta", "lower_threshold", "default_amplitude",
    "make_wave_params", "supersolution",
    "lower_solution", "capped_lower", "OrderingCheck", "certify_ordering",
]


class InitialOrderingError(ValueError):
    """The claimed ordering already fails at the first stored frame.

    That is a configuration bug (wrong initial data or wrong bound), not a
    property of the dynamics, so it is an error rather than a failed report.
    """


def lower_threshold(mu, mu_tilde, delta, B_norm):
    """Smallest admissible amplitude d for the lower solution.

    With a flat primitive (B_norm = 0) this is
    max(1/(delta (r-1)), 1); the second branch also guarantees the capped
    profile peaks strictly below 1.
    """
    r = mu_tilde / mu
    return max(math.exp(-(r - 1.0) * B_norm) / (delta * (r - 1.0)),
               math.exp((r - 1.0) * B_norm))


def default_amplitude(mu, mu_tilde, delta, B_norm):
    """Amplitude that satisfies the positivity condition pointwise.

    Flipping the sign in the first exponent of lower_threshold makes the
    bound hold at the worst value of the primitive instead of the best;
    the two coincide exactly when B_norm = 0.
    """
    r = mu_tilde / mu
    return max(math.exp((r - 1.0) * B_norm) / (delta * (r - 1.0)),
               math.exp((r - 1.0) * B_norm))


def choose_delta(a_lower_est, mu, mu_tilde):
    """Largest delta satisfying (1-delta) a_lower > mu_tilde mu, with a 5% margin."""
    ratio = mu_tilde * mu / a_lower_est
    delta = 1.0 - 1.05 * ratio
    if delta <= 0:
        raise ValueError("no admissible delta: mu_tilde*mu = %g is too close "
                         "to a_lower_est = %g" % (mu_tilde * mu, a_lower_est))
    return delta


@dataclass
class WaveParams:
    """Admissible decay rates and amplitude for the comparison pair."""

    mu: float
    mu_tilde: float
    delta: float
    d: float
    B: coeff.PiecewiseB
    a_lower_est: float

    def __post_init__(self):
        if not 0 < self.mu < self.mu_tilde:
            raise ValueError("need 0 < mu < mu_tilde")
        if not self.mu_tilde < 2.0 * self.mu:
            raise ValueError("need mu_tilde < 2 mu (got ratio %g)"
                             % (self.mu_tilde / self.mu))
        if self.mu_tilde > math.sqrt(self.a_lower_est) + 1e-12:
            raise ValueError("need mu_tilde <= sqrt(a_lower_est) = %g"
                             % math.sqrt(self.a_lower_est))
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if (1.0 - self.delta) * self.a_lower_est <= self.mu_tilde * self.mu:
            raise ValueError("need (1-delta) a_lower_est > mu_tilde*mu")
        floor = lower_threshold(self.mu, self.mu_tilde, self.delta,
                                self.B.B_norm)
        if self.d < floor - 1e-12:
            raise ValueError("amplitude d = %g below threshold %g"
                             % (self.d, floor))

    @property
    def r(self):
        return self.mu_tilde / self.mu


def make_wave_params(path, mu, mu_tilde, span, delta=None, d=None, r_min=1.0):
    """Estimate path means over span, pick delta, build the primitive.

    delta defaults to the largest admissible value with a 5% margin; d
    defaults to the pointwise-safe amplitude for the realized primitive
    norm.
    """
    est = coeff.estimate_means(path, r_min, span)
    if delta is None:
        delta = choose_delta(est.a_lower_est, mu, mu_tilde)
    B = coeff.build_B(path, gamma=mu * mu_tilde, delta=1.0 - delta,
                      span=span, r_min=r_min)
    if d is None:
        d = default_amplitude(mu, mu_tilde, delta, B.B_norm)
    return WaveParams(mu=mu, mu_tilde=mu_tilde, delta=delta, d=d, B=B,
                      a_lower_est=est.a_lower_est)


@dataclass
class BoundCurve:
    """A time-dependent comparison profile evaluated in absolute x.

    at(times) evaluates the bound's time-dependent part over an array of
    times: a dict of float64 arrays, one entry per time, where "edge", when
    present, is the left end of the region x >= edge on which the bound is
    valid.  profile(x, row) is the bound at the nodes x from one time's
    entries of those arrays.  A bound given by the callables fn(t, x) and
    rho(t) alone gets the per-time form {"t": times} (and "edge" from rho)
    and the profile fn(t, x).  The lower solution's curve also carries
    rho(t), its edge at one time.
    """

    kind: str
    fn: object = None          # callable(t, x-array) -> array
    rho: object = None         # callable(t) -> float left edge of validity
    params: object = None
    at: object = None          # callable(times) -> dict of float64 arrays
    profile: object = None     # callable(x-array, row) -> array

    def __post_init__(self):
        if self.at is None:
            fn, rho = self.fn, self.rho

            def at(times):
                cols = {"t": times}
                if rho is not None:
                    cols["edge"] = np.array([rho(t) for t in times.tolist()],
                                            dtype=float)
                return cols

            self.at = at
            self.profile = lambda x, row: fn(float(row["t"]), x)

    def row(self, t):
        """The time-dependent part at the one time t."""
        return {k: v[0] for k, v in self.at(np.array([float(t)])).items()}

    def __call__(self, t, x):
        return self.profile(np.asarray(x, dtype=float), self.row(t))


def _per_time(f, values):
    """f of each entry of values as a float64 array: the amplitudes keep
    math.exp's bits."""
    return np.array([f(v) for v in values.tolist()], dtype=float)


def supersolution(path, mu):
    """min(1, e^{-mu (x - C(t))}) with the frame started at t = 0: valid
    above any solution starting below it."""
    def at(times):
        return {"c": frame_position(path, mu, times)}

    def profile(x, row):
        return np.minimum(1.0, np.exp(-mu * (x - row["c"])))

    return BoundCurve(kind="super", params={"mu": mu, "t0": 0.0}, at=at,
                      profile=profile)


def lower_solution(path, params):
    """Two-exponential lower solution with the frame started at t = 0,
    valid on x >= rho(t)."""
    mu, mu_tilde, d = params.mu, params.mu_tilde, params.d
    r = params.r

    def at(times):
        c = frame_position(path, mu, times)
        a = -params.B.B(times)
        return {"c": c, "a": a,
                "amp": _per_time(lambda v: d * math.exp((r - 1.0) * v), a),
                "edge": c + math.log(d) / (mu_tilde - mu) + a / mu}

    def profile(x, row):
        xi = x - row["c"]
        return np.exp(-mu * xi) - row["amp"] * np.exp(-mu_tilde * xi)

    curve = BoundCurve(kind="lower", params=params, at=at, profile=profile)
    curve.rho = lambda t: float(curve.row(t)["edge"])
    return curve


def capped_lower(path, params, t0_shift=0.0):
    """Lower solution frozen at its peak to the left of the peak position.

    With a nonzero t0_shift the path is shifted and the block primitive is
    rebuilt for it; the amplitude is raised if the rebuilt primitive norm
    demands it (a larger d only lowers the profile, which stays a valid
    lower bound).
    """
    if t0_shift != 0.0:
        p = path.shift(t0_shift)
        B = coeff.build_B(p, gamma=params.B.gamma, delta=params.B.scale,
                          span=(params.B.s0, params.B.s1),
                          r_min=params.B.r_min)
        d = max(params.d, default_amplitude(params.mu, params.mu_tilde,
                                            params.delta, B.B_norm))
        params = WaveParams(mu=params.mu, mu_tilde=params.mu_tilde,
                            delta=params.delta, d=d, B=B,
                            a_lower_est=params.a_lower_est)
        path = p
    mu, mu_tilde, d = params.mu, params.mu_tilde, params.d
    r = params.r
    base = lower_solution(path, params)

    def at(times):
        cols = base.at(times)
        del cols["edge"]           # the capped profile is valid everywhere
        xs = (math.log(d) + math.log(r)) / (mu_tilde - mu) + cols["a"] / mu
        cols["peak_xi"] = xs
        cols["peak"] = _per_time(
            lambda v: math.exp(-mu * v) * (1.0 - mu / mu_tilde), xs)
        return cols

    def profile(x, row):
        return np.where(x - row["c"] <= row["peak_xi"], row["peak"],
                        base.profile(x, row))

    curve = BoundCurve(kind="capped-lower", params=params, at=at,
                       profile=profile)

    def peak_position(t):
        row = curve.row(t)
        return float(row["c"] + row["peak_xi"])

    curve.peak_position = peak_position
    return curve


@dataclass
class CertifyReport:
    passed: bool
    relation: str
    max_violation: float
    worst_time: float          # NaN when max_violation <= ROUNDING
    slack: float
    rows: list                 # (t, violation, x at violation, NaN when
                               # the violation is <= ROUNDING)

    def to_csv(self, file):
        write_table(file, ("t", "max_violation", "location"), self.rows, None)


class OrderingCheck:
    """Per-frame check that a run stays on one side of a bound.

    Set up from the trajectory or plan of a run; step(t, u) takes the
    frames in order (see kppsolve.verify) and finish() gives the
    CertifyReport.  relation "above" asserts u <= bound, "below" asserts
    bound <= u, both up to a discretization slack (defaulting to the
    scheme's error model at the dx and dt recorded in the run's meta;
    ValueError when they are missing).  The comparison is restricted to the
    bound's validity region x >= edge when it has one, or to the interval
    lo <= x <= hi returned by region(t).

    The bound's time-dependent part (bound.at) and the region are evaluated
    once, over all the run's times, when the check is set up; each frame
    then reads its row and compares the bound with u only on its region,
    the slice [j0, j1) of the sorted grid.  The time and place of a
    violation are NaN where it is at or below ROUNDING; a NaN violation (a
    NaN in the frame or the bound) fails the report, with the first such
    frame as its worst time.  A violation already present at the first
    frame raises InitialOrderingError since comparison arguments only
    propagate an ordering that holds initially; fed by march, that is
    before any step.
    """

    def __init__(self, run, bound, relation, region=None, slack=None):
        if relation not in ("above", "below"):
            raise ValueError("relation must be 'above' or 'below'")
        self.profile, self.relation = bound.profile, relation
        self.slack = trajectory_slack(run) if slack is None else slack
        self.x = x = run.grid.x
        self.times = times = np.asarray(run.times, dtype=float)
        self.cols = bound.at(times)
        if region is not None:
            lo, hi = np.array([region(t) for t in times.tolist()],
                              dtype=float).reshape(-1, 2).T
        else:
            lo = self.cols.get("edge", np.full(times.shape, -math.inf))
            hi = np.full(times.shape, math.inf)
        self.j0 = np.searchsorted(x, lo, side="left")
        # x <= NaN holds at no node
        self.j1 = np.searchsorted(x, np.where(np.isnan(hi), -math.inf, hi),
                                  side="right")
        self.rows = []
        self.worst, self.worst_t = -math.inf, math.nan

    def step(self, t, u):
        k = len(self.rows)
        if t != self.times[k]:
            raise ValueError("frame at t=%g where the run stores t=%g"
                             % (t, self.times[k]))
        j0, j1 = int(self.j0[k]), int(self.j1[k])
        if j0 >= j1:
            raise ValueError("empty comparison region at t=%g" % t)
        x = self.x[j0:j1]
        b = self.profile(x, {c: v[k] for c, v in self.cols.items()})
        diff = (u[j0:j1] - b) if self.relation == "above" else (b - u[j0:j1])
        j = int(np.argmax(diff))
        viol = float(diff[j])
        self.rows.append((float(t), viol,
                          math.nan if viol <= ROUNDING else float(x[j])))
        # a NaN violation stays the worst once seen
        if viol > self.worst or (math.isnan(viol) and not math.isnan(self.worst)):
            self.worst, self.worst_t = viol, float(t)
        if k == 0 and not viol <= self.slack:
            raise InitialOrderingError(
                "ordering '%s' violated by %g at the initial frame; "
                "the initial data does not sit on the claimed side" %
                (self.relation, viol))

    def finish(self):
        worst_t = math.nan if self.worst <= ROUNDING else self.worst_t
        return CertifyReport(passed=bool(self.worst <= self.slack),
                             relation=self.relation, max_violation=self.worst,
                             worst_time=worst_t, slack=float(self.slack),
                             rows=self.rows)


def certify_ordering(trajectory, bound, relation, region=None, slack=None):
    """OrderingCheck of a stored trajectory: the same report as a check fed
    by march during the run."""
    return verify(trajectory,
                  OrderingCheck(trajectory, bound, relation, region, slack))[0]
