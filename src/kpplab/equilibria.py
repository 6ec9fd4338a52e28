"""Space-independent dynamics: logistic solutions, the random equilibrium,
and decay-to-equilibrium certificates.

Two scalar equations appear.  The KPP reaction u' = a(t) u (1 - u) has the
closed form u(t) = u0 / ((1 - u0) exp(-A(t)) + u0) with A the primitive of
a; it anchors time-convergence tests of the PDE solver and the stability
envelope.  The noise-driven logistic u' = u (1 + xi(t) - u) has a pullback
attractor Y(t) = G(t) / (integral of G over [t - T, t]), with an explicit
tail bound for the truncation T; the weights G = exp(P), P' = 1 + xi, are a
sampled signal on the noise grid like any sampled path.  1 + xi itself is
not of the form a * (1 - u) scaling, so the two forms are kept separate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._files import write_table
from .coeff import _UniformSamples

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


def _log_weight(noise, t):
    """P(t) = t + integral of xi from 0 to t, so exp(P)' = (1 + xi) exp(P)."""
    t = np.asarray(t, dtype=float)
    return t + noise.integral(np.zeros_like(t), t)


def _history_weights(noise, t_min, t_max):
    """(G, shift): the weights G(s) = exp(P(s) - shift), shift = max P,
    sampled at the noise times covering [t_min, t_max].

    Linear between samples, like every sampled signal, so its integral is
    exact for the interpolant (Q' = G) and G <= 1.
    """
    dt = noise.dt
    n = noise.values.size
    j0 = int(math.floor((t_min - noise.t_lo) / dt))
    j1 = int(math.ceil((t_max - noise.t_lo) / dt))
    j0 = max(j0, 0)
    j1 = min(max(j1, j0 + 1), n - 1)
    s = noise.t_lo + dt * np.arange(j0, j1 + 1)
    P = _log_weight(noise, s)
    shift = float(P.max())
    return _UniformSamples(s[0], dt, np.exp(P - shift)), shift


def real_noise_ode_solution(u0, noise, ts):
    """Solution of u' = u (1 + xi(t) - u), u(ts[0]) = u0.

    u(t) = W(t) / (W(t0)/u0 + integral of W over [t0, t]) with W = exp(P)
    exact at ts; the integral is that of W's linear interpolant on the noise
    grid (`_history_weights`), a trapezoid rule with O(dt^2) error.  Reading
    W off the interpolant would add (P'' + P'^2) dt^2 / 8, large for rough xi.
    """
    if u0 < 0:
        raise ValueError("u0 must be nonnegative")
    ts = np.asarray(ts, dtype=float)
    if u0 == 0.0:
        return np.zeros_like(ts)
    t0 = float(ts.min())
    G, shift = _history_weights(noise, t0, float(ts.max()))
    w0 = math.exp(float(_log_weight(noise, t0)) - shift)
    return np.exp(_log_weight(noise, ts) - shift) / (w0 / u0 + G.integral(t0, ts))


def truncation_horizon(noise, tail_tol=1e-8, xi_inf=None):
    """Smallest history length T with tail bound below tail_tol.

    The discarded tail of the equilibrium's history integral is at most
    exp(-(1 + xi_inf) T) / (1 + xi_inf) relative to the weight at the
    evaluation time, where xi_inf is a lower bound of the noise: by default
    its realized minimum, while -xi_max bounds every realization.
    """
    if xi_inf is None:
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
    """Pullback equilibrium Y(t) = G(t) / (integral of G over [t - T, t]) at
    times ts, with the sampled weights of `_history_weights`: exact on the
    noise grid, linear between its samples."""
    ts = np.asarray(ts, dtype=float)
    t_min, t_max = float(ts.min()), float(ts.max())
    if noise.t_lo > t_min - t_trunc + 1e-9 * noise.dt:
        raise ValueError(
            "noise history starts at %g; evaluating Y on [%g, %g] with "
            "truncation %g needs history from %g"
            % (noise.t_lo, t_min, t_max, t_trunc, t_min - t_trunc))
    G, _ = _history_weights(noise, t_min - t_trunc, t_max)
    return G(ts) / G.integral(ts - t_trunc, ts)


@dataclass
class EquilibriumSample:
    """Equilibrium values on a time grid with the truncation certificate."""

    times: np.ndarray
    values: np.ndarray
    t_trunc: float
    tail_bound: float
    xi_inf: float


def random_equilibrium(noise, ts, t_trunc=None):
    if t_trunc is None:
        t_trunc = truncation_horizon(noise)
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
    sup_x |u - 1| is max(max u - 1, 1 - min u) per frame, from row
    reductions of the stored frames with no frame-sized temporary; it is
    the same float as the max of |u - 1|, since u - 1 rounds monotonically
    in u and 1 - u rounds to its negation.
    """
    frames = np.asarray(trajectory.frames, dtype=float)
    times = np.asarray(trajectory.times, dtype=float)
    if float(frames[0].min()) <= 0.0:
        raise ValueError("stability bound needs strictly positive initial data")
    if bound is None:
        bound = stability_bound(float(frames[0].min()), float(frames[0].max()))
    if slack is None:
        slack = trajectory_slack(trajectory)
    deviations = np.maximum(frames.max(axis=1) - 1.0, 1.0 - frames.min(axis=1))
    envelope = bound.envelope(path, times, t0=float(times[0]))
    gap = deviations - envelope - slack
    k = int(np.argmax(gap))
    return StabilityReport(passed=bool(gap[k] <= 0.0), max_violation=float(gap[k]),
                           worst_time=float(times[k]), prefactor=bound.M,
                           slack=float(slack), times=times, deviations=deviations,
                           envelope=envelope)
