"""Explicit comparison bounds in the exponential moving frame.

The frame travels at instantaneous speed (mu^2 + a(t))/mu.  In it,
min(1, e^{-mu xi}) is a supersolution for any 0 < mu, and

    phi(t, xi) = e^{-mu xi} - d e^{(r-1)A(t)} e^{-mu_tilde xi},   r = mu_tilde/mu,

is a lower solution on its positivity region xi >= rho(t), where A is the
negated bounded block primitive of (1-delta) a - (block mean), provided the
parameters satisfy the admissibility inequalities enforced by WaveParams.
The capped variant freezes phi at its interior maximum, giving a bounded
nonnegative initial datum that still sits below the solution.

OrderingCheck checks either bound frame by frame, with an explicit
discretization slack, during a run (fed by kppsolve.march) or against a
stored trajectory (certify_ordering).
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
    """A time-dependent comparison profile evaluated in absolute x."""

    kind: str
    fn: object                 # callable(t, x-array) -> array
    rho: object = None         # callable(t) -> float left edge of validity
    params: object = None

    def __call__(self, t, x):
        return self.fn(float(t), np.asarray(x, dtype=float))


def supersolution(path, mu):
    """min(1, e^{-mu (x - C(t))}) with the frame started at t = 0: valid
    above any solution starting below it."""
    def fn(t, x):
        c = float(frame_position(path, mu, t))
        return np.minimum(1.0, np.exp(-mu * (x - c)))
    return BoundCurve(kind="super", fn=fn, params={"mu": mu, "t0": 0.0})


def lower_solution(path, params):
    """Two-exponential lower solution with the frame started at t = 0,
    valid on x >= rho(t)."""
    mu, mu_tilde, d = params.mu, params.mu_tilde, params.d
    r = params.r

    def A(t):
        return -float(params.B.B(t))

    def fn(t, x):
        c = float(frame_position(path, mu, t))
        xi = x - c
        return np.exp(-mu * xi) - d * math.exp((r - 1.0) * A(t)) \
            * np.exp(-mu_tilde * xi)

    def rho(t):
        c = float(frame_position(path, mu, t))
        return c + math.log(d) / (mu_tilde - mu) + A(t) / mu

    return BoundCurve(kind="lower", fn=fn, rho=rho, params=params)


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

    def peak_xi(t):
        a = -float(params.B.B(t))
        return (math.log(d) + math.log(r)) / (mu_tilde - mu) + a / mu

    def fn(t, x):
        c = float(frame_position(path, mu, t))
        xs = peak_xi(t)
        peak = math.exp(-mu * xs) * (1.0 - mu / mu_tilde)
        vals = base.fn(t, x)
        return np.where(x - c <= xs, peak, vals)

    def peak_position(t):
        return float(frame_position(path, mu, t)) + peak_xi(t)

    curve = BoundCurve(kind="capped-lower", fn=fn, params=params)
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
    bound's validity region when it has one, or to the interval returned by
    region(t).  The time and place of a violation are NaN where it is at or
    below ROUNDING.  A violation already present at the first frame raises
    InitialOrderingError since comparison arguments only propagate an
    ordering that holds initially; fed by march, that is before any step.
    """

    def __init__(self, run, bound, relation, region=None, slack=None):
        if relation not in ("above", "below"):
            raise ValueError("relation must be 'above' or 'below'")
        self.bound, self.relation, self.region = bound, relation, region
        self.slack = trajectory_slack(run) if slack is None else slack
        self.x = run.grid.x
        self.rows = []
        self.worst, self.worst_t = -math.inf, math.nan

    def step(self, t, u):
        x, bound = self.x, self.bound
        b = bound(t, x)
        mask = np.ones(x.size, dtype=bool)
        if self.region is not None:
            lo, hi = self.region(float(t))
            mask &= (x >= lo) & (x <= hi)
        elif bound.rho is not None:
            mask &= x >= bound.rho(float(t))
        if not mask.any():
            raise ValueError("empty comparison region at t=%g" % t)
        diff = (u - b) if self.relation == "above" else (b - u)
        j = int(np.argmax(np.where(mask, diff, -math.inf)))
        viol = float(diff[j])
        self.rows.append((float(t), viol,
                          float(x[j]) if viol > ROUNDING else math.nan))
        if viol > self.worst:
            self.worst, self.worst_t = viol, float(t)
        if len(self.rows) == 1 and viol > self.slack:
            raise InitialOrderingError(
                "ordering '%s' violated by %g at the initial frame; "
                "the initial data does not sit on the claimed side" %
                (self.relation, viol))

    def finish(self):
        worst_t = self.worst_t if self.worst > ROUNDING else math.nan
        return CertifyReport(passed=bool(self.worst <= self.slack),
                             relation=self.relation, max_violation=self.worst,
                             worst_time=worst_t, slack=float(self.slack),
                             rows=self.rows)


def certify_ordering(trajectory, bound, relation, region=None, slack=None):
    """OrderingCheck of a stored trajectory: the same report as a check fed
    by march during the run."""
    return verify(trajectory,
                  OrderingCheck(trajectory, bound, relation, region, slack))[0]
