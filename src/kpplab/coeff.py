"""Time-dependent growth-rate paths a(t) for u_t = u_xx + a(t) u (1 - u).

Every path knows how to evaluate itself, integrate itself exactly (closed
form for the formula kinds, trapezoid-on-samples for tabulated kinds, which
is exact for their piecewise-linear interpretation), report running extrema,
and shift its time origin.  Exact integrals matter: windowed means, decay
envelopes and wave-frame positions all reduce to them, and quadrature noise
there would contaminate every certificate downstream.

Sliding-window statistics (`estimate_means`) return the finite-horizon
surrogates of the long-run lower/upper window means that control spreading
speeds; `build_B` constructs the bounded primitive with block-mean slack
used by the sub/supersolution machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._files import write_table
from ._kernel import ar1

__all__ = [
    "CoefficientPath", "ConstantPath", "PeriodicPath", "TwoLevelPath",
    "TabulatedPath", "NoisePath", "MeanEstimate", "PiecewiseB",
    "make_constant", "make_periodic", "make_two_level", "make_noise",
    "estimate_means", "build_B",
    "equilibrium_path",
]


def _fmt(x):
    """Locale-independent 12-significant-digit float formatting."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".12g")


class _Signal:
    """Time signal with an exact integral and a movable time origin.

    Subclasses implement `_eval`, `_primitive`, `_extrema_on` in the
    unshifted clock; the public methods apply the time offset so that
    ``p.shift(s)(t) == p(t + s)`` holds exactly.  All three take arrays:
    `min_on`/`max_on` accept arrays of interval ends (one interval per
    element) and return arrays, or plain floats for scalar ends.
    """

    kind = "abstract"
    offset = 0.0                  # time-origin shift; only shift() moves it

    # subclass interface ------------------------------------------------
    def _eval(self, t):
        raise NotImplementedError

    def _primitive(self, t):
        """Integral of the unshifted path from clock 0 to t (vectorized)."""
        raise NotImplementedError

    def _extrema_on(self, a, b):
        """(min, max) arrays of the unshifted path on each [a[k], b[k]];
        a and b are 1-d with a <= b elementwise."""
        raise NotImplementedError

    # public ------------------------------------------------------------
    def __call__(self, t):
        return self._eval(np.asarray(t, dtype=float) + self.offset)

    def integral(self, s, t):
        """Exact integral of the (shifted) path over [s, t]."""
        s = np.asarray(s, dtype=float) + self.offset
        t = np.asarray(t, dtype=float) + self.offset
        return self._primitive(t) - self._primitive(s)

    def _extrema(self, s, t):
        a = np.asarray(s, dtype=float) + self.offset
        b = np.asarray(t, dtype=float) + self.offset
        a, b = np.minimum(a, b), np.maximum(a, b)
        lo, hi = self._extrema_on(a.ravel(), b.ravel())
        if a.ndim == 0:
            return float(lo[0]), float(hi[0])
        return lo.reshape(a.shape), hi.reshape(a.shape)

    def min_on(self, s, t):
        """Minimum of the path on [s, t] (either order), elementwise."""
        return self._extrema(s, t)[0]

    def max_on(self, s, t):
        """Maximum of the path on [s, t] (either order), elementwise."""
        return self._extrema(s, t)[1]

    def shift(self, s):
        """Path observed from time origin moved forward by s."""
        import copy

        other = copy.copy(self)
        other.offset = self.offset + float(s)
        return other

    # domain: formula kinds are unbounded, sampled kinds override
    @property
    def t_lo(self):
        return -math.inf

    @property
    def t_hi(self):
        return math.inf

    def describe(self):
        """Flat parameter dict used in CSV headers and run artifacts."""
        return {"kind": self.kind, "offset": self.offset}

    def to_csv(self, file, t0=None, t1=None, dt=None):
        """Write (t, value) rows with a leading comment line of parameters.

        Formula kinds need an explicit sampling window; sampled kinds
        default to their native grid.  `file` is a path or an open stream.
        """
        if t0 is None or t1 is None or dt is None:
            raise ValueError("sampling window (t0, t1, dt) required for kind %r" % self.kind)
        ts = np.arange(t0, t1 + 0.5 * dt, dt)
        self._write_csv(file, ts, self(ts))

    def _write_csv(self, file, ts, vals):
        meta = " ".join("%s=%s" % (k, _fmt(v) if isinstance(v, (int, float, np.floating)) else v)
                        for k, v in self.describe().items())
        write_table(file, ("t", "value"), zip(ts, vals), meta)


class CoefficientPath(_Signal):
    """Base class for positive growth-rate paths.

    Positivity is the only contract added to `_Signal`: raw noise, which
    may dip negative, is a signal but not a coefficient path.
    """


class ConstantPath(CoefficientPath):
    kind = "constant"

    def __init__(self, value):
        if not value > 0:
            raise ValueError("constant growth rate must be positive, got %r" % value)
        self.value = float(value)

    def _eval(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.value)

    def _primitive(self, t):
        return self.value * np.asarray(t, dtype=float)

    def _extrema_on(self, a, b):
        const = np.full(a.shape, self.value)
        return const, const

    def describe(self):
        return {"kind": self.kind, "value": self.value, "offset": self.offset}


class PeriodicPath(CoefficientPath):
    """a(t) = mean + amplitude * sin(2 pi t / period), mean > amplitude >= 0."""

    kind = "periodic"

    def __init__(self, mean, amplitude, period):
        if period <= 0:
            raise ValueError("period must be positive")
        if amplitude < 0:
            raise ValueError("amplitude must be nonnegative")
        if not mean > amplitude:
            raise ValueError(
                "mean must exceed amplitude to keep the path positive "
                "(got mean=%g, amplitude=%g)" % (mean, amplitude))
        self.mean = float(mean)
        self.amplitude = float(amplitude)
        self.period = float(period)

    def _eval(self, t):
        w = 2.0 * math.pi / self.period
        return self.mean + self.amplitude * np.sin(w * np.asarray(t, dtype=float))

    def _primitive(self, t):
        w = 2.0 * math.pi / self.period
        t = np.asarray(t, dtype=float)
        return self.mean * t + (self.amplitude / w) * (1.0 - np.cos(w * t))

    def _extrema_on(self, a, b):
        w = 2.0 * math.pi / self.period
        va, vb = self._eval(a), self._eval(b)
        lo, hi = np.minimum(va, vb), np.maximum(va, vb)
        # interior extrema of sin at phase pi/2 + k*pi, k0 <= k <= k1: a
        # peak for even k, a trough for odd k
        k0 = np.ceil((w * a - math.pi / 2) / math.pi)
        k1 = np.floor((w * b - math.pi / 2) / math.pi)
        count = k1 - k0 + 1
        k0_even = np.mod(k0, 2) == 0
        peak = (count >= 2) | ((count == 1) & k0_even)
        trough = (count >= 2) | ((count == 1) & ~k0_even)
        hi = np.where(peak, np.maximum(hi, self.mean + self.amplitude), hi)
        lo = np.where(trough, np.minimum(lo, self.mean - self.amplitude), lo)
        return lo, hi

    def describe(self):
        return {"kind": self.kind, "mean": self.mean, "amplitude": self.amplitude,
                "period": self.period, "offset": self.offset}


class TwoLevelPath(CoefficientPath):
    """Deterministic path alternating ever-longer plateaus at levels 1 and 2.

    Plateaus of length n+1 alternate between the two levels; between them
    sit piecewise-linear spikes of width 4^-(n+1) whose extrema grow like
    2^(n/2) (upward, on the level-2 side) or shrink like 2^-((n+1)/2)
    (downward dips).  The spikes have summable area, so every long-window
    mean lands in [1, 2] while the pointwise range of the path is (0, inf).
    The path is even in t.
    """

    kind = "two-level"

    def __init__(self):
        # breakpoint table for t >= 0 with prefix integrals, grown on demand;
        # growth replaces the arrays, never mutates them, because shifted
        # copies share them
        self._bp_arr = np.array([0.0, 0.25])
        self._vals_arr = np.array([1.0, 1.0])
        self._prim_vals = np.array([0.0, 0.25])
        self._n_next = 1          # next spike index to append
        self._L_last = 0.25       # right end of the last appended spike

    def _grow(self, tmax):
        bp, vals = [], []
        n, end = self._n_next, self._L_last
        while end < tmax + 1.0:
            left_val = 1.0 if (n - 1) % 2 == 0 else 2.0
            right_val = 1.0 if n % 2 == 0 else 2.0
            peak = float(2.0 ** (n // 2)) if n % 2 == 0 else float(2.0 ** (-((n + 1) // 2)))
            l_n = end + n                     # plateau of length n ends here
            w = 0.25 ** (n + 1)
            bp.extend([l_n, l_n + 0.5 * w, l_n + w])
            vals.extend([left_val, peak, right_val])
            end = l_n + w
            n += 1
        if bp:
            bp = np.concatenate([self._bp_arr, bp])
            vals = np.concatenate([self._vals_arr, vals])
            panels = 0.5 * (vals[1:] + vals[:-1]) * np.diff(bp)
            self._prim_vals = np.concatenate([[0.0], np.cumsum(panels)])
            self._bp_arr, self._vals_arr = bp, vals
            self._n_next, self._L_last = n, end

    def _eval(self, t):
        t = np.abs(np.asarray(t, dtype=float))
        self._grow(float(np.max(t)) if t.size else 0.0)
        return np.interp(t, self._bp_arr, self._vals_arr)

    def _primitive(self, t):
        t = np.asarray(t, dtype=float)
        at = np.abs(t)
        self._grow(float(np.max(at)) if at.size else 0.0)
        idx = np.searchsorted(self._bp_arr, at, side="right") - 1
        idx = np.clip(idx, 0, len(self._bp_arr) - 2)
        t0 = self._bp_arr[idx]
        v0 = self._vals_arr[idx]
        v = np.interp(at, self._bp_arr, self._vals_arr)
        part = self._prim_vals[idx] + 0.5 * (v0 + v) * (at - t0)
        # even path: the primitive anchored at 0 is odd
        return np.sign(t) * part

    def _extrema_on(self, a, b):
        # the path is even: [a, b] has the range of [|a|, |b|] (or its
        # reverse), or of [0, max(|a|, |b|)] when it holds 0 inside
        abs_a, abs_b = np.abs(a), np.abs(b)
        top = np.maximum(abs_a, abs_b)
        bottom = np.where((a < 0) & (0 <= b), 0.0, np.minimum(abs_a, abs_b))
        self._grow(float(np.max(top)) if top.size else 0.0)
        va = np.interp(abs_a, self._bp_arr, self._vals_arr)
        vb = np.interp(abs_b, self._bp_arr, self._vals_arr)
        i0 = np.searchsorted(self._bp_arr, bottom, side="left")
        i1 = np.searchsorted(self._bp_arr, top, side="right")
        lo, hi = _window_extrema(self._vals_arr, i0, i1)
        return np.minimum(np.minimum(va, vb), lo), np.maximum(np.maximum(va, vb), hi)


def _window_extrema(values, i0, i1):
    """(min, max) of values[i0[k]:i1[k]] for each k; (inf, -inf) where the
    window is empty.

    One reduceat pass per extremum over the window bounds interleaved in
    order of their starts, on values cut at the last window end: what
    reduceat reduces between and after the windows, and is dropped, adds
    up to at most the longest window plus the gaps between windows, not
    len(values) per call.  reduceat bounds must index the cut array, so a
    window ending at the cut has its last value added back.
    """
    top = int(i1.max(initial=1))
    head = values[:top]
    order = np.argsort(i0, kind="stable")
    start, end = i0[order], i1[order]
    bounds = np.minimum(np.column_stack([start, end]).ravel(), top - 1)
    empty, at_top = end <= start, end == top
    lo = np.minimum.reduceat(head, bounds)[0::2]
    hi = np.maximum.reduceat(head, bounds)[0::2]
    lo = np.where(empty, math.inf, np.where(at_top, np.minimum(lo, head[-1]), lo))
    hi = np.where(empty, -math.inf, np.where(at_top, np.maximum(hi, head[-1]), hi))
    out_lo, out_hi = np.empty_like(lo), np.empty_like(hi)
    out_lo[order], out_hi[order] = lo, hi
    return out_lo, out_hi


class _UniformSamples(_Signal):
    """Shared machinery for signals stored as samples on a uniform grid.

    Evaluation is linear interpolation between samples; integrals are the
    exact integrals of that interpolant (cumulative trapezoid plus exact
    partial panels), so quadrature and evaluation never disagree.
    """

    def __init__(self, t0, dt, values):
        if dt <= 0:
            raise ValueError("sample spacing must be positive")
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise ValueError("need a 1-d array of at least two samples")
        if not np.all(np.isfinite(values)):
            raise ValueError("samples must be finite")
        self._t0 = float(t0)
        self._dt = float(dt)
        self.values = values
        panels = 0.5 * (values[1:] + values[:-1]) * self._dt
        self._prefix = np.concatenate([[0.0], np.cumsum(panels)])

    @property
    def sample_times(self):
        return self._t0 + self._dt * np.arange(self.values.size)

    @property
    def t_lo(self):
        return self._t0 - self.offset

    @property
    def t_hi(self):
        return self._t0 + self._dt * (self.values.size - 1) - self.offset

    def to_csv(self, file, t0=None, t1=None, dt=None):
        if t0 is None and t1 is None and dt is None:
            ts = self.sample_times - self.offset
            self._write_csv(file, ts, self(ts))
        else:
            super().to_csv(file, t0, t1, dt)

    def _check_range(self, t):
        if t.size == 0:
            return
        hi = self._t0 + self._dt * (self.values.size - 1)
        tol = 1e-9 * self._dt
        tmin, tmax = float(np.min(t)), float(np.max(t))
        if tmin < self._t0 - tol or tmax > hi + tol:
            raise ValueError(
                "query time range [%g, %g] outside the sampled range [%g, %g]"
                % (tmin, tmax, self._t0, hi))

    def _locate(self, t):
        """Panel index, fraction through the panel and value at each time."""
        t = np.asarray(t, dtype=float)
        self._check_range(t)
        pos = np.clip((t - self._t0) / self._dt, 0.0, self.values.size - 1.0)
        k = np.minimum(pos.astype(int), self.values.size - 2)
        frac = pos - k
        del pos
        # values[k] (1 - frac) + values[k + 1] frac, with the same roundings,
        # in place: a path build interpolates 10^5 times at once, and its
        # temporaries set the peak memory of the commands that build one
        vt = np.subtract(1.0, frac)
        vt *= self.values[k]
        right = self.values[1:][k]          # values[k + 1], without k + 1
        right *= frac
        vt += right
        return k, frac, vt

    def _eval(self, t):
        return self._locate(t)[2]

    def _primitive(self, t):
        # prefix[k] + 0.5 (values[k] + vt) (frac dt), in place as _locate
        k, frac, vt = self._locate(t)
        frac *= self._dt
        vt += self.values[k]
        vt *= 0.5
        vt *= frac
        del frac
        vt += self._prefix[k]
        return vt

    def _extrema_on(self, a, b):
        va, vb = self._eval(a), self._eval(b)
        # the samples in [a, b], widened by 1e-12 dt at both ends
        i0 = np.ceil((a - self._t0) / self._dt - 1e-12)
        i1 = np.floor((b - self._t0) / self._dt + 1e-12)
        i0 = np.clip(i0, 0, self.values.size).astype(np.intp)
        i1 = np.clip(i1 + 1, 0, self.values.size).astype(np.intp)
        lo, hi = _window_extrema(self.values, i0, i1)
        return np.minimum(np.minimum(va, vb), lo), np.maximum(np.maximum(va, vb), hi)


class TabulatedPath(_UniformSamples, CoefficientPath):
    """Positive coefficient path given by samples on a uniform time grid."""

    kind = "tabulated"

    def __init__(self, t0, dt, values, kind=None, meta=None):
        super().__init__(t0, dt, values)
        if float(self.values.min()) <= 0.0:
            raise ValueError("coefficient samples must be positive (min=%g)"
                             % self.values.min())
        if kind is not None:
            self.kind = kind
        self.meta = dict(meta or {})

    def describe(self):
        d = {"kind": self.kind, "t0": self._t0, "dt": self._dt,
             "n": self.values.size, "offset": self.offset}
        d.update(self.meta)
        return d


class NoisePath(_UniformSamples):
    """Seeded, bounded stationary noise: a squashed Ornstein-Uhlenbeck path.

    The driving process x solves dx = -kappa x dt + sigma dW, discretized
    exactly on the sample grid and started from its stationary law, and the
    reported signal is xi = xi_max * tanh(x).  By symmetry xi has mean zero,
    it is bounded by xi_max < 1, and its linear interpolant is Lipschitz.
    Shifting the time origin reuses the same realization.

    The AR(1) recursion x_i = rho x_{i-1} + e_i, with x_0 drawn from the
    stationary law, runs in the compiled code of kpplab._kernel (ar1) as
    e_i - (-rho) x_{i-1}: the same two roundings as the plain loop, so the
    samples are bit for bit those of the loop.
    """

    kind = "noise"

    def __init__(self, seed, kappa, sigma, xi_max, dt, t_lo, t_hi):
        if kappa <= 0:
            raise ValueError("mean-reversion rate kappa must be positive")
        if sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if not 0 < xi_max < 1:
            raise ValueError("xi_max must lie in (0, 1) so that 1 + xi stays positive")
        if not t_hi > t_lo:
            raise ValueError("empty time range")
        self.seed = int(seed)
        self.kappa = float(kappa)
        self.sigma = float(sigma)
        self.xi_max = float(xi_max)
        n = int(round((t_hi - t_lo) / dt)) + 1
        rng = np.random.default_rng(self.seed)
        rho = math.exp(-self.kappa * dt)
        stat_sd = self.sigma / math.sqrt(2.0 * self.kappa)
        step_sd = self.sigma * math.sqrt((1.0 - rho * rho) / (2.0 * self.kappa))
        x = np.empty(n)
        x[0] = stat_sd * rng.standard_normal()
        x[1:] = step_sd * rng.standard_normal(n - 1)
        ar1(rho, x)
        super().__init__(t_lo, dt, self.xi_max * np.tanh(x))

    @property
    def dt(self):
        return self._dt

    def describe(self):
        return {"kind": self.kind, "seed": self.seed, "kappa": self.kappa,
                "sigma": self.sigma, "xi_max": self.xi_max, "dt": self._dt,
                "t0": self._t0, "n": self.values.size, "offset": self.offset}


# constructors ----------------------------------------------------------

def make_constant(value):
    return ConstantPath(value)


def make_periodic(mean, amplitude, period):
    return PeriodicPath(mean, amplitude, period)


def make_two_level():
    return TwoLevelPath()


def make_noise(seed, kappa=1.0, sigma=0.5, xi_max=0.75, dt=1e-3, t_lo=0.0, t_hi=100.0):
    return NoisePath(seed, kappa, sigma, xi_max, dt, t_lo, t_hi)


@dataclass
class MeanEstimate:
    """Finite-horizon window-mean statistics of a path.

    a_lower_est / a_upper_est are the extreme means over a ladder of window
    lengths (r_min, 2 r_min, ... and the full horizon); a_hat_est is the
    full-horizon average.  Including the full window in the ladder makes
    a_lower_est <= a_hat_est <= a_upper_est hold unconditionally, and
    halving r_min only widens the bracket.
    """

    a_lower_est: float
    a_hat_est: float
    a_upper_est: float
    r_min: float
    horizon: tuple
    stride: float
    n_windows: int
    lengths: tuple = field(default_factory=tuple)

    @property
    def speed_band(self):
        """Spreading-speed band (2 sqrt(a_lower_est), 2 sqrt(a_upper_est))."""
        return 2.0 * math.sqrt(self.a_lower_est), 2.0 * math.sqrt(self.a_upper_est)

    @property
    def takeover_speed(self):
        """Predicted take-over speed 2 sqrt(a_hat_est)."""
        return 2.0 * math.sqrt(self.a_hat_est)


def estimate_means(path, r_min, horizon, stride=None):
    s0, s1 = float(horizon[0]), float(horizon[1])
    if not (math.isfinite(s0) and math.isfinite(s1)):
        raise ValueError("horizon must be finite, not [%r, %r]" % (s0, s1))
    span = s1 - s0
    if not r_min > 0:
        raise ValueError("r_min must be positive")
    if span < 2.0 * r_min:
        raise ValueError("horizon %g too short for window length %g (need >= 2 r_min)"
                         % (span, r_min))
    if stride is None:
        stride = r_min / 50.0
    elif not 0 < stride < math.inf:
        raise ValueError("stride must be finite and positive, not %r" % stride)

    lengths = []
    ell = float(r_min)
    while ell < span:
        lengths.append(ell)
        ell *= 2.0
    lengths.append(span)

    lo = math.inf
    hi = -math.inf
    n_windows = 0
    for ell in lengths:
        last = s1 - ell
        starts = s0 + stride * np.arange(int((last - s0) / stride) + 1)
        if starts.size == 0 or starts[-1] < last - 1e-12:
            starts = np.append(starts, last)
        ends = starts + ell
        # divide by the realized endpoint difference, not the nominal
        # length, so constant paths give exactly constant means
        means = path.integral(starts, ends) / (ends - starts)
        lo = min(lo, float(means.min()))
        hi = max(hi, float(means.max()))
        n_windows += starts.size
    full_mean = float(path.integral(s0, s1)) / span
    # the full window is in the ladder, so the ordering is structural
    return MeanEstimate(a_lower_est=lo, a_hat_est=full_mean, a_upper_est=hi,
                        r_min=float(r_min), horizon=(s0, s1), stride=float(stride),
                        n_windows=n_windows, lengths=tuple(lengths))


@dataclass
class PiecewiseB:
    """Bounded primitive B with block-mean slack.

    On each block [s0 + k T, s0 + (k+1) T], B(t) integrates
    scale * a(tau) - eps_k from the block start, where eps_k is the block
    mean of scale * a.  Then B vanishes at every block boundary (so it is
    continuous and bounded by 2 T * max block mean) and, away from the
    breakpoints, scale * a(t) - B'(t) = eps_k >= gamma.
    """

    path: object
    T: float
    s0: float
    s1: float
    scale: float
    gamma: float
    eps: np.ndarray
    B_norm: float
    r_min: float = 1.0

    def _block(self, t):
        k = np.floor((np.asarray(t, dtype=float) - self.s0) / self.T).astype(int)
        return np.clip(k, 0, self.eps.size - 1)

    def B(self, t):
        t = np.asarray(t, dtype=float)
        k = self._block(t)
        bk = self.s0 + self.T * k
        return self.scale * self.path.integral(bk, t) - self.eps[k] * (t - bk)

    def Bprime(self, t):
        """Derivative in block interiors (undefined at breakpoints)."""
        t = np.asarray(t, dtype=float)
        return self.scale * self.path(t) - self.eps[self._block(t)]

    def breakpoints(self):
        return self.s0 + self.T * np.arange(self.eps.size + 1)

    def slack(self):
        """min_k eps_k; inside block k the combination scale*a - B' equals eps_k."""
        return float(self.eps.min())


def build_B(path, gamma, delta, span, r_min=1.0):
    """Bounded primitive of `delta * path` with every block mean >= gamma.

    The block length T starts at r_min and doubles until every block mean
    of delta * a over [span[0], span[0] + n T] clears gamma, or T exceeds a
    quarter of the horizon, in which case the worst block is reported.
    Requires gamma < delta * a_lower_est, the necessary condition for an
    admissible T to exist in the long-window limit.
    """
    s0, s1 = float(span[0]), float(span[1])
    horizon = s1 - s0
    if horizon <= 0:
        raise ValueError("empty span")
    if not 0 < delta <= 1:
        raise ValueError("scale delta must lie in (0, 1]")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    # necessary condition at the longest certifiable scale (blocks of
    # length horizon/4); shorter windows would wrongly reject paths whose
    # long-window means are fine
    est = estimate_means(path, horizon / 4.0, span)
    if not gamma < delta * est.a_lower_est:
        raise ValueError(
            "gamma=%g is not below delta * a_lower_est = %g * %g; no block "
            "length can certify the slack" % (gamma, delta, est.a_lower_est))
    T = float(r_min)
    worst = None
    while T <= horizon / 4.0 + 1e-12:
        n = max(1, int(math.ceil(horizon / T - 1e-12)))
        edges = s0 + T * np.arange(n + 1)
        eps = delta * path.integral(edges[:-1], edges[1:]) / T
        k_bad = int(np.argmin(eps))
        if eps[k_bad] >= gamma:
            bp = PiecewiseB(path=path, T=T, s0=s0, s1=s1, scale=float(delta),
                            gamma=float(gamma), eps=np.asarray(eps, dtype=float),
                            B_norm=0.0, r_min=float(r_min))
            bp.B_norm = _piecewise_B_norm(bp)
            return bp
        worst = (T, edges[k_bad], edges[k_bad + 1], float(eps[k_bad]))
        T *= 2.0
    raise ValueError(
        "no block length up to horizon/4 gives block means >= %g; worst window "
        "[%g, %g] at T=%g has mean %g" % ((gamma,) + worst[1:] + (worst[0], worst[3]))
        if worst else
        "horizon %g shorter than 4 * r_min = %g" % (horizon, 4 * r_min))


def _piecewise_B_norm(bp):
    """Sup of |B| sampled at 256 points per block (B is 0 at breakpoints)."""
    worst = 0.0
    for k in range(bp.eps.size):
        a = bp.s0 + bp.T * k
        ts = a + bp.T * np.arange(1, 256) / 256
        worst = max(worst, float(np.max(np.abs(bp.B(ts)))))
    return worst


def equilibrium_path(noise, t_lo, t_hi, dt=None, tail_tol=1e-8):
    """Coefficient path a(t) = Y(t), the pullback equilibrium of the random
    logistic equation driven by `noise`, tabulated every dt (default: the
    noise spacing) by `equilibria.equilibrium_values`; off the noise grid
    only the O(dt^2) trapezoid error of the history integral remains.  The
    truncation is `equilibria.truncation_horizon(noise, tail_tol)`, and the
    noise realization must extend that far below t_lo.
    """
    from . import equilibria  # local import: equilibria imports coeff

    if dt is None:
        dt = noise.dt
    t_trunc = equilibria.truncation_horizon(noise, tail_tol)
    ts = np.arange(t_lo, t_hi + 0.5 * dt, dt)
    ys = equilibria.equilibrium_values(noise, ts, t_trunc)
    meta = {"seed": noise.seed, "kappa": noise.kappa, "sigma": noise.sigma,
            "xi_max": noise.xi_max, "noise_dt": noise.dt, "t_trunc": t_trunc}
    return TabulatedPath(float(ts[0]), float(dt), ys, kind="noise-equilibrium",
                         meta=meta)
