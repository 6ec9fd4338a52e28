"""Space-independent dynamics: logistic solutions, the random equilibrium,
and decay-to-equilibrium certificates.

Two scalar equations appear.  The KPP reaction u' = a(t) u (1 - u) has the
closed form u(t) = u0 / ((1 - u0) exp(-A(t)) + u0) with A the primitive of
a; it anchors time-convergence tests of the PDE solver and the stability
envelope.  The noise-driven logistic u' = u (1 + xi(t) - u) has a pullback
attractor Y(t), computed here by truncated history integrals with an
explicit tail bound; 1 + xi itself is not of the form a * (1 - u) scaling,
so the two forms are kept separate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._files import write_table

__all__ = [
    "logistic_solution", "real_noise_ode_solution", "truncation_horizon",
    "equilibrium_values", "random_equilibrium", "EquilibriumSample",
    "logistic_residual", "stability_bound", "StabilityBound",
    "verify_stability_decay", "StabilityReport", "scheme_slack",
    "trajectory_slack",
    "SLACK_C1", "SLACK_C2",
]

# Scheme-error model for PDE-based verifiers: the solver's sup error against
# smooth references behaves like C1*dx^2 + C2*dt.  The constants are
# calibrated against the homogeneous closed form (see tests) with a factor
# of about 2 headroom.
SLACK_C1 = 2.0
SLACK_C2 = 6.0


def scheme_slack(dx, dt):
    """Allowance separating discretization error from genuine violations."""
    return SLACK_C1 * dx * dx + SLACK_C2 * dt


def trajectory_slack(trajectory):
    """scheme_slack at the dx and dt recorded in trajectory.meta.

    Raises ValueError when either is missing (a trajectory read from a KPP1
    file carries no run record) rather than guessing a resolution.
    """
    missing = [k for k in ("dx", "dt") if k not in trajectory.meta]
    if missing:
        raise ValueError("trajectory meta lacks %s, so the scheme slack is "
                         "unknown; pass slack explicitly" % " and ".join(missing))
    return scheme_slack(trajectory.meta["dx"], trajectory.meta["dt"])


def logistic_solution(u0, path, ts):
    """Exact solution of u' = a(t) u (1 - u), u(0) = u0, at times ts.

    Valid for u0 >= 0; u0 = 0 and u0 = 1 are fixed points.
    """
    if u0 < 0:
        raise ValueError("u0 must be nonnegative")
    ts = np.asarray(ts, dtype=float)
    A = path.integral(np.zeros_like(ts), ts)
    return u0 / ((1.0 - u0) * np.exp(-A) + u0)


def _history_grid(noise, t_min, t_max):
    """Noise sample times covering [t_min, t_max], with shifted log-weights.

    Returns (s, P_shifted, shift) where P(s) = s + integral of xi from 0,
    and the shift keeps exp(P - shift) <= 1.
    """
    dt = noise.dt
    n = noise.values.size
    j0 = int(math.floor((t_min - noise.t_lo) / dt))
    j1 = int(math.ceil((t_max - noise.t_lo) / dt))
    j0 = max(j0, 0)
    j1 = min(max(j1, j0 + 1), n - 1)
    s = noise.t_lo + dt * np.arange(j0, j1 + 1)
    P = s + noise.integral(np.zeros_like(s), s)
    shift = float(P.max())
    return s, P - shift, shift


class _WeightTable:
    """Prefix integrals of G(s) = exp(P(s) - shift) on the noise grid.

    Q(t) evaluates the running integral at arbitrary t by adding the exact
    trapezoid contribution of the partial panel; G(t) interpolates P
    linearly inside a panel before exponentiating, so Q' = G exactly for
    the interpolated integrand.
    """

    def __init__(self, noise, t_min, t_max):
        self.noise = noise
        self.s, self.logG, self.shift = _history_grid(noise, t_min, t_max)
        G = np.exp(self.logG)
        panels = 0.5 * (G[1:] + G[:-1]) * noise.dt
        self.prefix = np.concatenate([[0.0], np.cumsum(panels)])

    def logG_at(self, t):
        t = np.asarray(t, dtype=float)
        return np.interp(t, self.s, self.logG)

    def G_at(self, t):
        return np.exp(self.logG_at(t))

    def Q_at(self, t):
        t = np.asarray(t, dtype=float)
        dt = self.noise.dt
        pos = np.clip((t - self.s[0]) / dt, 0.0, self.s.size - 1.0)
        k = np.minimum(pos.astype(int), self.s.size - 2)
        rem = (pos - k) * dt
        Gk = np.exp(self.logG[k])
        return self.prefix[k] + 0.5 * (Gk + self.G_at(t)) * rem


def real_noise_ode_solution(u0, noise, ts):
    """Exact solution of u' = u (1 + xi(t) - u), u(ts[0]) = u0.

    Closed form via the log-weight G: u(t) = G(t) / (G(t0)/u0 + Q(t) - Q(t0)).
    """
    if u0 < 0:
        raise ValueError("u0 must be nonnegative")
    ts = np.asarray(ts, dtype=float)
    if u0 == 0.0:
        return np.zeros_like(ts)
    t0 = float(ts.min())
    table = _WeightTable(noise, t0, float(ts.max()))
    G = table.G_at(ts)
    Q = table.Q_at(ts)
    G0 = float(table.G_at(t0))
    Q0 = float(table.Q_at(t0))
    return G / (G0 / u0 + (Q - Q0))


def truncation_horizon(noise, tail_tol=1e-8):
    """Smallest history length T with tail bound below tail_tol.

    The discarded tail of the equilibrium's history integral is at most
    exp(-(1 + xi_inf) T) / (1 + xi_inf) relative to the weight at the
    evaluation time, where xi_inf is the realized minimum of the noise.
    """
    xi_inf = float(noise.values.min())
    rate = 1.0 + xi_inf
    if rate <= 0:
        raise ValueError("noise reaches 1 + xi <= 0; no decaying tail bound")
    return -math.log(tail_tol * rate) / rate


def tail_bound(noise, t_trunc):
    xi_inf = float(noise.values.min())
    rate = 1.0 + xi_inf
    return math.exp(-rate * t_trunc) / rate


def equilibrium_values(noise, ts, t_trunc):
    """Pullback equilibrium Y at times ts using history windows [t - T, t]."""
    ts = np.asarray(ts, dtype=float)
    t_min, t_max = float(ts.min()), float(ts.max())
    if noise.t_lo > t_min - t_trunc + 1e-9 * noise.dt:
        raise ValueError(
            "noise history starts at %g; evaluating Y on [%g, %g] with "
            "truncation %g needs history from %g"
            % (noise.t_lo, t_min, t_max, t_trunc, t_min - t_trunc))
    table = _WeightTable(noise, t_min - t_trunc, t_max)
    denom = table.Q_at(ts) - table.Q_at(ts - t_trunc)
    return table.G_at(ts) / denom


@dataclass
class EquilibriumSample:
    """Equilibrium values on a time grid with the truncation certificate."""

    times: np.ndarray
    values: np.ndarray
    t_trunc: float
    tail_bound: float
    xi_inf: float


def random_equilibrium(noise, ts, t_trunc=None, tail_tol=1e-8):
    if t_trunc is None:
        t_trunc = truncation_horizon(noise, tail_tol)
    ts = np.asarray(ts, dtype=float)
    vals = equilibrium_values(noise, ts, t_trunc)
    return EquilibriumSample(times=ts, values=vals, t_trunc=float(t_trunc),
                             tail_bound=tail_bound(noise, t_trunc),
                             xi_inf=float(noise.values.min()))


def logistic_residual(sample, noise):
    """Sup residual of Y' = Y (1 + xi - Y) in panel-midpoint form.

    Uses (ln Y_{k+1} - ln Y_k)/dt against 1 + xi(midpoint) - (Y_k+Y_{k+1})/2,
    which is second-order on the sample grid and so isolates genuine model
    error from differencing noise.
    """
    t = np.asarray(sample.times, dtype=float)
    y = np.asarray(sample.values, dtype=float)
    dts = np.diff(t)
    mid = 0.5 * (t[1:] + t[:-1])
    lhs = np.diff(np.log(y)) / dts
    rhs = 1.0 + noise(mid) - 0.5 * (y[1:] + y[:-1])
    return float(np.max(np.abs(lhs - rhs)))


@dataclass
class StabilityBound:
    """Amplitude M and decay machinery for |u(t) - 1| <= M exp(-A(t)).

    M = 0 exactly when the initial range is {1}.
    """

    M: float
    u0_inf: float
    u0_sup: float

    def envelope(self, path, ts, t0=0.0):
        ts = np.asarray(ts, dtype=float)
        return self.M * np.exp(-path.integral(np.full_like(ts, t0), ts))


def stability_bound(u0_inf, u0_sup):
    """M = max(1, u0_sup) * max(|1 - 1/min(1,u0_inf)|, |1 - 1/max(1,u0_sup)|).

    Requires strictly positive initial data.
    """
    if u0_inf <= 0:
        raise ValueError("initial data must be bounded away from 0")
    if u0_sup < u0_inf:
        raise ValueError("u0_sup < u0_inf")
    lead = max(1.0, u0_sup)
    lo = abs(1.0 - 1.0 / min(1.0, u0_inf))
    hi = abs(1.0 - 1.0 / max(1.0, u0_sup))
    return StabilityBound(M=lead * max(lo, hi), u0_inf=float(u0_inf),
                          u0_sup=float(u0_sup))


@dataclass
class StabilityReport:
    passed: bool
    max_violation: float
    worst_time: float
    prefactor: float
    slack: float
    times: np.ndarray
    deviations: np.ndarray
    envelope: np.ndarray

    def to_csv(self, file):
        rows = ((t, d, e, d - e - self.slack)
                for t, d, e in zip(self.times, self.deviations, self.envelope))
        write_table(file, ("t", "sup_dist", "bound", "violation"), rows, None)


def verify_stability_decay(trajectory, path, bound=None, slack=None):
    """Check sup_x |u(t,x) - 1| <= M exp(-A(t)) + slack along a trajectory.

    The bound defaults to stability_bound of the first stored frame's
    range, and slack to the scheme-error model at the dx and dt recorded in
    trajectory.meta (ValueError when they are missing).
    Violation is the worst signed excess over envelope + slack; positive
    excess below the slack is discretization error, not a counterexample.
    """
    frames = np.asarray(trajectory.frames, dtype=float)
    times = np.asarray(trajectory.times, dtype=float)
    if float(frames[0].min()) <= 0.0:
        raise ValueError("stability bound needs strictly positive initial data")
    if bound is None:
        bound = stability_bound(float(frames[0].min()), float(frames[0].max()))
    if slack is None:
        slack = trajectory_slack(trajectory)
    deviations = np.max(np.abs(frames - 1.0), axis=1)
    envelope = bound.envelope(path, times, t0=float(times[0]))
    gap = deviations - envelope - slack
    k = int(np.argmax(gap))
    return StabilityReport(passed=bool(gap[k] <= 0.0), max_violation=float(gap[k]),
                           worst_time=float(times[k]), prefactor=bound.M,
                           slack=float(slack), times=times, deviations=deviations,
                           envelope=envelope)
