"""Space-independent dynamics: logistic solutions, the random equilibrium,
and decay-to-equilibrium certificates.

Two scalar equations appear.  The KPP reaction u' = a(t) u (1 - u) has the
closed form u(t) = u0 / ((1 - u0) exp(-A(t)) + u0) with A the primitive of
a; it anchors time-convergence tests of the PDE solver and the stability
envelope.  The noise-driven logistic u' = u (1 + xi(t) - u) has a pullback
attractor Y(t) = W(t) / (integral of G over [t - T, t]), with an explicit
tail bound for the truncation T; the weight W = exp(P), P' = 1 + xi, is
exact, and G is W sampled on the noise grid like any sampled path.  1 + xi
is not of the form a * (1 - u) scaling, so the two forms are kept apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._files import write_table
from .coeff import _UniformSamples
from .kppsolve import verify

__all__ = [
    "logistic_solution", "real_noise_ode_solution", "truncation_horizon",
    "tail_bound", "equilibrium_values",
    "stability_bound", "StabilityBound", "StabilityCheck", "verify_stability_decay",
    "StabilityReport", "scheme_slack", "trajectory_slack",
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

    Raises ValueError when either is missing (a Trajectory built without
    a run record) rather than guessing a resolution.
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
    return t + noise.integral(0.0, t)


def _weights(noise, t_min, ts):
    """(W, G): the weights exp(P - shift), shift = max P on the noise times
    covering [t_min, max ts], taken exactly at the times ts (W) and sampled
    at those noise times (G).

    G is linear between samples, like every sampled signal, so its integral
    is exact for the interpolant (Q' = G) and G <= 1.  A ratio
    W / (c + integral of G) then has only that integral's O(dt^2) trapezoid
    error; reading W off G instead would add (P'' + P'^2) dt^2 / 8 between
    noise samples, large for rough xi.
    """
    dt = noise.dt
    j0 = max(int(math.floor((t_min - noise.t_lo) / dt)), 0)
    j1 = int(math.ceil((float(ts.max()) - noise.t_lo) / dt))
    j1 = min(max(j1, j0 + 1), noise.values.size - 1)
    s = noise.t_lo + dt * np.arange(j0, j1 + 1)
    P = _log_weight(noise, s)
    shift = float(P.max())
    return (np.exp(_log_weight(noise, ts) - shift),
            _UniformSamples(s[0], dt, np.exp(P - shift)))


def real_noise_ode_solution(u0, noise, ts):
    """Solution of u' = u (1 + xi(t) - u), u(ts[0]) = u0.

    u(t) = W(t) / (W(t0)/u0 + integral of W over [t0, t]) with W = exp(P),
    the pullback ratio of `_weights` started at t0 = min ts.
    """
    if u0 < 0:
        raise ValueError("u0 must be nonnegative")
    ts = np.asarray(ts, dtype=float)
    if u0 == 0.0:
        return np.zeros_like(ts)
    t0 = float(ts.min())
    W, G = _weights(noise, t0, np.append(ts, t0))
    return W[:-1] / (W[-1] / u0 + G.integral(t0, ts))


def _tail_rate(noise, xi_inf):
    """1 + xi_inf, the weights' decay rate; xi_inf None is the noise minimum."""
    rate = 1.0 + (float(noise.values.min()) if xi_inf is None else xi_inf)
    if rate <= 0:
        raise ValueError("noise reaches 1 + xi <= 0; no decaying tail bound")
    return rate


def truncation_horizon(noise, tail_tol=1e-8, xi_inf=None):
    """Smallest history length T with tail bound below tail_tol.

    The discarded tail of the equilibrium's history integral is at most
    exp(-(1 + xi_inf) T) / (1 + xi_inf) relative to the weight at the
    evaluation time, where xi_inf is a lower bound of the noise: by default
    its realized minimum, while -xi_max bounds every realization.
    """
    rate = _tail_rate(noise, xi_inf)
    return -math.log(tail_tol * rate) / rate


def tail_bound(noise, t_trunc):
    """The `truncation_horizon` bound exp(-(1 + xi_inf) T) / (1 + xi_inf) at
    T = t_trunc, with xi_inf the realized minimum of the noise."""
    rate = _tail_rate(noise, None)
    return math.exp(-rate * t_trunc) / rate


def equilibrium_values(noise, ts, t_trunc):
    """Pullback equilibrium Y(t) = W(t) / (integral of G over [t - T, t])
    at times ts, T = t_trunc, with the weights of `_weights`.

    The weights share one shift, so over a long range of ts the early ones
    leave the normal floats (near 750 time units at the default noise);
    that raises ValueError naming the range instead of dividing by an
    underflowed integral.
    """
    ts = np.asarray(ts, dtype=float)
    t_min, t_max = float(ts.min()), float(ts.max())
    if noise.t_lo > t_min - t_trunc + 1e-9 * noise.dt:
        raise ValueError(
            "noise history starts at %g; evaluating Y on [%g, %g] with "
            "truncation %g needs history from %g"
            % (noise.t_lo, t_min, t_max, t_trunc, t_min - t_trunc))
    W, G = _weights(noise, t_min - t_trunc, ts)
    history = G.integral(ts - t_trunc, ts)
    if min(W.min(), history.min()) < np.finfo(float).tiny:
        raise ValueError(
            "the equilibrium's weights underflow on the horizon [%g, %g]: "
            "evaluate it on shorter ranges" % (t_min, t_max))
    return W / history


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


class StabilityCheck:
    """Per-frame check of sup_x |u(t,x) - 1| <= M exp(-A(t)) + slack.

    Set up from the trajectory or plan of a run; step(t, u) takes the
    frames in order (see kppsolve.verify) and finish() gives the
    StabilityReport.  The bound defaults to stability_bound of the first
    frame's range, and slack to the scheme-error model at the dx and dt
    recorded in the run's meta (ValueError when they are missing).
    Violation is the worst signed excess over envelope + slack; positive
    excess below the slack is discretization error, not a counterexample.
    sup_x |u - 1| is max(max u - 1, 1 - min u), from two reductions of the
    frame with no frame-sized temporary; it is the same float as the max of
    |u - 1|, since u - 1 rounds monotonically in u and 1 - u rounds to its
    negation.
    """

    def __init__(self, run, path, bound=None, slack=None):
        self.path, self.bound = path, bound
        self.slack = trajectory_slack(run) if slack is None else slack
        self.times = np.asarray(run.times, dtype=float)
        self.deviations = np.empty(self.times.size)
        self.k = 0

    def step(self, t, u):
        lo, hi = float(u.min()), float(u.max())
        if self.k == 0:
            if lo <= 0.0:
                raise ValueError("stability bound needs strictly positive initial data")
            if self.bound is None:
                self.bound = stability_bound(lo, hi)
        self.deviations[self.k] = max(hi - 1.0, 1.0 - lo)
        self.k += 1

    def finish(self):
        times = self.times
        envelope = self.bound.envelope(self.path, times, t0=float(times[0]))
        gap = self.deviations - envelope - self.slack
        k = int(np.argmax(gap))
        return StabilityReport(passed=bool(gap[k] <= 0.0), max_violation=float(gap[k]),
                               worst_time=float(times[k]), prefactor=self.bound.M,
                               slack=float(self.slack), times=times,
                               deviations=self.deviations, envelope=envelope)


def verify_stability_decay(trajectory, path, bound=None, slack=None):
    """StabilityCheck of a stored trajectory: the same report as a check
    fed by march during the run."""
    return verify(trajectory, StabilityCheck(trajectory, path, bound, slack))[0]
