"""Independent reference implementations used to pin expected values.

Nothing here may call into the package's own quadrature, ODE, or
front-finding code paths beyond plain path evaluation a(t): quadrature is
re-done with dense trapezoids on fresh sample grids, ODE references come
from scipy's adaptive integrator, the front scan is a literal right-to-left
loop, the solver's step is redone with numpy and LAPACK's dpttrs and,
in the solver's own elimination order, in Python floats (flushed as x86-64's
flush-to-zero flushes each result), and the ordering
check is redone with the bound evaluated on the whole grid at each frame's
time and its comparison region as a boolean mask.
"""

import math
import platform
from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg.lapack import dpttrs

from kpplab.subsuper import ROUNDING, CertifyReport, InitialOrderingError

TINY = np.finfo(float).tiny


def quad_integral(path, s, t, n=20001):
    """Dense trapezoid of the path over [s, t] from pointwise evaluation."""
    ts = np.linspace(s, t, n)
    return float(np.trapezoid(path(ts), ts))


def quad_mean(path, s, t, n=20001):
    return quad_integral(path, s, t, n) / (t - s)


def two_level_table(n_spikes):
    """Block edges of the two-level path straight from the defining recursion.

    l_{k+1} = L_k + (k+1) and L_k = l_k + 4^{-(k+1)}, starting from
    l_0 = 0, L_0 = 1/4.  Kept independent of the implementation so the
    breakpoints are pinned by formula, not by the code under test.
    """
    l, L = [0.0], [0.25]
    for k in range(1, n_spikes + 1):
        l.append(L[-1] + k)
        L.append(l[-1] + 0.25 ** (k + 1))
    return l, L


def knot_extrema(path, s, t, knots):
    """(min, max) on [s, t], either order, of a path that is monotone
    between consecutive knots: plain evaluation at both ends and at the
    knots strictly inside."""
    lo, hi = min(s, t), max(s, t)
    knots = np.asarray(knots, dtype=float)
    vals = path(np.concatenate([[lo, hi], knots[(knots > lo) & (knots < hi)]]))
    return float(vals.min()), float(vals.max())


def ivp_logistic(u0, path, ts, rtol=1e-10, atol=1e-12):
    """Adaptive reference for u' = a(t) u (1 - u), u(ts[0]) = u0."""
    ts = np.asarray(ts, dtype=float)
    sol = solve_ivp(lambda t, u: path(t) * u * (1.0 - u),
                    (ts[0], ts[-1]), [float(u0)], t_eval=ts,
                    rtol=rtol, atol=atol, max_step=0.1)
    if not sol.success:
        raise RuntimeError("reference ODE solve failed: %s" % sol.message)
    return sol.y[0]


def ivp_real_noise(u0, noise, ts, rtol=1e-10, atol=1e-12):
    """Adaptive reference for u' = u (1 + xi(t) - u), u(ts[0]) = u0.

    max_step is capped at the noise sample spacing so the integrator sees
    every linear panel of the interpolated signal.
    """
    ts = np.asarray(ts, dtype=float)
    sol = solve_ivp(lambda t, u: u * (1.0 + float(noise(t)) - u),
                    (ts[0], ts[-1]), [float(u0)], t_eval=ts,
                    rtol=rtol, atol=atol, max_step=noise.dt)
    if not sol.success:
        raise RuntimeError("reference ODE solve failed: %s" % sol.message)
    return sol.y[0]


def noise_draws(seed, kappa, sigma, dt, t_lo, t_hi):
    """(rho, x0, e): the AR(1) factor and the random draws of NoisePath,
    taken from the generator in the same order."""
    n = int(round((t_hi - t_lo) / dt)) + 1
    rng = np.random.default_rng(seed)
    rho = math.exp(-kappa * dt)
    x0 = sigma / math.sqrt(2.0 * kappa) * rng.standard_normal()
    step_sd = sigma * math.sqrt((1.0 - rho * rho) / (2.0 * kappa))
    e = step_sd * rng.standard_normal(n - 1) if n > 1 else np.empty(0)
    return rho, x0, e


def ar1_loop(rho, x0, e):
    """x_0 = x0, x_i = rho x_{i-1} + e_i as a plain Python loop."""
    y = x0
    xs = [y]
    for ei in e:
        y = rho * y + float(ei)
        xs.append(y)
    return np.array(xs)


def brute_front(x, u, level):
    """Rightmost down-crossing by explicit scan; None when absent."""
    for i in range(len(u) - 2, -1, -1):
        if u[i] >= level and u[i + 1] < level:
            frac = (u[i] - level) / (u[i] - u[i + 1])
            return x[i] + frac * (x[i + 1] - x[i])
    return None


_SPLIT = 2.0 ** 27 + 1.0


def _split(a):
    """a as hi + lo, each of at most 26 significant bits (Veltkamp)."""
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


def fma(a, b, c):
    """a * b + c rounded once to the nearest float (math.fma of Python
    3.13).  Where no step can overflow or underflow, a * b is exactly
    p + err (Dekker's product), and math.fsum rounds p + err + c once;
    elsewhere the sum is made exactly in Fractions and rounded by float()."""
    p = a * b
    if 2.0 ** -900 < abs(p) < 2.0 ** 900 and abs(a) < 2.0 ** 900 and \
            abs(b) < 2.0 ** 900:
        (ah, al), (bh, bl) = _split(a), _split(b)
        err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
        return math.fsum((p, err, c))
    if not (math.isfinite(a) and math.isfinite(b)):
        return p + c
    if not math.isfinite(c):
        return c
    if a == 0.0 or b == 0.0:
        return p + c            # the exact product is p, a signed 0
    if c == 0.0:
        return p                # a * b, not 0, rounded once
    exact = Fraction(a) * Fraction(b) + Fraction(c)
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def twist(lo, hi):
    """The twist row of the rows [lo, hi)."""
    return lo + (hi - lo - 1) // 2


def run_blocks(lo, hi):
    """The interface row s of the run [lo, hi) and its two halves, each as
    (separator t, [block above t, block below t]) with blocks as (first
    row, end): [lo, t_L), [t_L + 1, s), [s + 1, t_R) and [t_R + 1, hi)."""
    s = twist(lo, hi)
    halves = []
    for a, c in ((lo, s), (s + 1, hi)):
        t = twist(a, c)
        halves.append((t, [(a, t), (t + 1, c)]))
    return s, halves


def couplings(side, l):
    """Whether block l of the half on side 0 (left) or 1 (right) couples to
    a separator above it and below it (all but the run's two end
    blocks)."""
    return not (side == 0 and l == 0), not (side == 1 and l == 1)


def _flush(v):
    return 0.0 if abs(v) < TINY else v


def factor(bounds, a, b):
    """The solver's factor (kpp_factor) of the symmetric tridiagonal matrix
    with diagonal a and off-diagonal b, in Python floats: (d, e, f) with f
    the fill multipliers, n of the rows and two per run after them."""
    d, e = [float(v) for v in a], [float(v) for v in b]
    n = len(d)
    f = [0.0] * (n + 2 * (len(bounds) - 1))
    for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        s, halves = run_blocks(lo, hi)
        ds = d[s]
        for side, (t, blocks) in enumerate(halves):
            dt, c = d[t], 0.0
            for l, (p, q) in enumerate(blocks):
                above, below = couplings(side, l)
                if p == q:
                    if above and below:
                        c = e[p - 1]
                    continue
                m = twist(p, q)
                gu = e[p - 1] if above else 0.0
                gv = e[q - 1] if below else 0.0
                du = ds if side == 1 and l == 0 else dt
                dv = ds if side == 0 and l == 1 else dt
                for j in range(p, m):
                    ei = e[j]
                    e[j] = ei / d[j]
                    d[j + 1] = d[j + 1] - e[j] * ei
                    if above:
                        f[j] = _flush(gu / d[j])
                        du = du - f[j] * gu
                        gu = -(e[j] * gu)
                for j in range(q - 1, m, -1):
                    ei = e[j - 1]
                    e[j - 1] = ei / d[j]
                    d[j - 1] = d[j - 1] - e[j - 1] * ei
                    if below:
                        f[j] = _flush(gv / d[j])
                        dv = dv - f[j] * gv
                        gv = -(e[j - 1] * gv)
                fu = _flush(gu / d[m]) if above else 0.0
                fv = _flush(gv / d[m]) if below else 0.0
                if above:
                    du = du - fu * gu
                if below:
                    dv = dv - fv * gv
                if above and below:
                    c = -(fu * gv)
                    f[n + 2 * k + side] = fv
                f[m] = fu if above else fv
                if side == 1 and l == 0:
                    ds, dt = du, dv
                elif side == 0 and l == 1:
                    dt, ds = du, dv
                else:
                    dt = dv if l == 0 else du
            d[t] = dt
            f[t] = _flush(c / dt)
            ds = ds - f[t] * c
        d[s] = ds
    return d, e, f


# -- one step of the solver: the runs' fields lie end to end in u, run r in
# u[bounds[r]:bounds[r + 1]], with reaction rates[r] = dt a_r and upwind
# Courant numbers nus[r] (None in the fixed frame).  lapack_step takes
# LAPACK dpttrf's factor (d, e) of the stacked diffusion matrix with halved
# end rows; float_step the factor of kppsolve._diffusion_ldlt in the
# solver's elimination order as the solver keeps it, (r, e, f) with
# r = 1 / d rounded toward zero


def lapack_step(u, bounds, rates, nus, d, e):
    """The step as numpy and LAPACK calls, with dpttrs's one-chain solve
    (the solver's step before it was compiled): returns the new field and
    its max."""
    out = np.repeat(rates, np.diff(bounds)) * u
    out = u + out * (1.0 - u)
    if nus is not None:
        for lo, hi, nu in zip(bounds[:-1], bounds[1:], nus):
            v = out[lo:hi]
            v[:-1] += nu * (v[1:] - v[:-1])
    out[bounds[:-1]] *= 0.5
    out[bounds[1:] - 1] *= 0.5
    x, info = dpttrs(d, e, out)
    assert info == 0
    x[np.abs(x) < TINY] = 0.0
    return x, x.max()


# x86-64 makes each step under flush-to-zero: an operation whose result is
# tiny gives the signed 0 of its sign in its place.  x86 decides tininess
# after rounding with an unbounded exponent, so a result goes to 0 where its
# exact value, rounded to 53 bits, is below TINY: where the exact value is
# below _EDGE, TINY less half a unit of that rounding there
FTZ = platform.machine() in ("x86_64", "AMD64")
_EDGE = Fraction(TINY) * (1 - Fraction(1, 2 ** 54))


class Arithmetic:
    """The operations of a step in Python floats, each rounded once, then
    flushed to a signed 0 where FTZ makes its result tiny; `flushed` counts
    the nonzero results so made.  A Python result of exactly +-TINY may
    round from below _EDGE, so it is decided from the exact value."""

    def __init__(self):
        self.flushed = 0

    def _flush(self, v, exact):
        if not FTZ or (abs(v) == TINY and abs(exact) >= _EDGE):
            return v
        self.flushed += 1
        return math.copysign(0.0, v)

    def add(self, a, b):
        v = a + b
        if v and -TINY <= v <= TINY:
            v = self._flush(v, Fraction(a) + Fraction(b))
        return v

    def sub(self, a, b):
        v = a - b
        if v and -TINY <= v <= TINY:
            v = self._flush(v, Fraction(a) - Fraction(b))
        return v

    def mul(self, a, b):
        v = a * b
        if v and -TINY <= v <= TINY:
            v = self._flush(v, Fraction(a) * Fraction(b))
        return v

    def fma(self, a, b, c):
        v = fma(a, b, c)
        if v and -TINY <= v <= TINY:
            v = self._flush(v, Fraction(a) * Fraction(b) + Fraction(c))
        return v


def float_step(u, bounds, rates, nus, r, e, f):
    """The step in Python floats, one operation at a time, with the solve
    written out in the solver's order (run_blocks): in each block [p, q)
    with twist row m, y is eliminated top-down over rows p to m - 1 and
    bottom-up over rows q - 1 to m + 1, and row m takes both (top first).
    Each block sums f y from 0 over the chain and twist row that couple to
    its separator above, and over those that couple to the one below.  A
    separator t gets y[t] = (b[t] + the upper block's sum) + the lower
    block's, and its half's sum toward the interface row s is the sum of
    its block next to s, then f[t] y[t]; y[s] = (b[s] + left) + right and
    x[s] = y[s] r[s], then x[t] = y[t] r[t] - f[t] x[s], and x runs
    outward from each twist row, x[m] = y[m] r[m] - fu x[above] -
    fv x[below], each row of a coupled chain taking f x of its separator
    off y r before its chain's term.  Each multiply-subtract of the solve
    is one fma, and each division by a pivot a multiplication by r; every
    operation is an Arithmetic one, so flushed where FTZ.  Returns the new
    field, its max, the number of nonzero results of operations that FTZ
    made 0, and the number of nonzero entries the flush after the solve
    set to 0."""
    n_all = int(bounds[-1])
    op = Arithmetic()
    add, mul, ffma = op.add, op.mul, op.fma
    x = []
    for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        rate = float(rates[k])
        y = [add(w, mul(mul(rate, w), op.sub(1.0, w)))
             for w in u[lo:hi].tolist()]
        if nus is not None:
            nu = float(nus[k])
            y = [add(a, mul(nu, op.sub(c, a))) for a, c in zip(y, y[1:])] + \
                y[-1:]
        y[0] = mul(y[0], 0.5)
        y[-1] = mul(y[-1], 0.5)
        rr, er, fr = r[lo:hi].tolist(), e[lo:hi - 1].tolist(), f[lo:hi].tolist()
        extra = f[n_all + 2 * k:n_all + 2 * k + 2].tolist()
        s, halves = run_blocks(0, hi - lo)
        fills, conts = {}, []
        for side, (t, blocks) in enumerate(halves):
            sums = []
            for l, (p, q) in enumerate(blocks):
                above, below = couplings(side, l)
                su = sv = 0.0
                if p < q:
                    m = twist(p, q)
                    for i in range(p + 1, m):
                        y[i] = ffma(-y[i - 1], er[i - 1], y[i])
                    for i in range(q - 2, m, -1):
                        y[i] = ffma(-y[i + 1], er[i], y[i])
                    if m > p:
                        y[m] = ffma(-y[m - 1], er[m - 1], y[m])
                    if m < q - 1:
                        y[m] = ffma(-y[m + 1], er[m], y[m])
                    fu = fr[m] if above else 0.0
                    fv = (extra[side] if above else fr[m]) if below else 0.0
                    fills[side, l] = fu, fv
                    if above:
                        for i in range(p, m):
                            su = ffma(-y[i], fr[i], su)
                        su = ffma(-y[m], fu, su)
                    if below:
                        for i in range(q - 1, m, -1):
                            sv = ffma(-y[i], fr[i], sv)
                        sv = ffma(-y[m], fv, sv)
                sums.append((su, sv))
            y[t] = add(add(y[t], sums[0][1]), sums[1][0])
            toward = sums[1][1] if side == 0 else sums[0][0]
            conts.append(ffma(-y[t], fr[t], toward))
        xr = [0.0] * (hi - lo)
        xs = xr[s] = mul(add(add(y[s], conts[0]), conts[1]), rr[s])
        for side, (t, blocks) in enumerate(halves):
            xt = xr[t] = ffma(-xs, fr[t], mul(y[t], rr[t]))
            xu = [0.0 if side == 0 else xs, xt]
            xv = [xt, xs if side == 0 else 0.0]
            for l, (p, q) in enumerate(blocks):
                if p == q:
                    continue
                above, below = couplings(side, l)
                fu, fv = fills[side, l]
                m = twist(p, q)
                w = mul(y[m], rr[m])
                if above:
                    w = ffma(-xu[l], fu, w)
                if below:
                    w = ffma(-xv[l], fv, w)
                xr[m] = w
                for i in range(m - 1, p - 1, -1):
                    w = mul(y[i], rr[i])
                    if above:
                        w = ffma(-xu[l], fr[i], w)
                    xr[i] = ffma(-xr[i + 1], er[i], w)
                for i in range(m + 1, q):
                    w = mul(y[i], rr[i])
                    if below:
                        w = ffma(-xv[l], fr[i], w)
                    xr[i] = ffma(-xr[i - 1], er[i - 1], w)
        x += xr
    out = np.array([0.0 if abs(w) < TINY else w for w in x])
    return (out, out.max(), op.flushed,
            sum(1 for w in x if 0.0 < abs(w) < TINY))


def ordering_report(frames, x, bound, relation, region=None, slack=0.0):
    """subsuper.OrderingCheck's report on frames, one frame at a time: the
    bound at each frame's t on the whole grid x by bound(t, x), compared on
    the mask region(t)[0] <= x <= region(t)[1], or x >= bound.rho(t).  The
    worst violation is the first NaN one if any, else the first largest."""
    rows = []
    for t, u in frames:
        b = bound(t, x)
        mask = np.ones(x.size, dtype=bool)
        if region is not None:
            lo, hi = region(float(t))
            mask &= (x >= lo) & (x <= hi)
        elif bound.rho is not None:
            mask &= x >= bound.rho(float(t))
        if not mask.any():
            raise ValueError("empty comparison region at t=%g" % t)
        diff = (u - b) if relation == "above" else (b - u)
        j = int(np.argmax(np.where(mask, diff, -math.inf)))
        viol = float(diff[j])
        rows.append((float(t), viol,
                     math.nan if viol <= ROUNDING else float(x[j])))
        if len(rows) == 1 and not viol <= slack:
            raise InitialOrderingError("initial frame violated by %g" % viol)
    viols = [v for _, v, _ in rows]
    nans = [k for k, v in enumerate(viols) if math.isnan(v)]
    k = nans[0] if nans else viols.index(max(viols))
    worst = viols[k]
    return CertifyReport(passed=bool(worst <= slack), relation=relation,
                         max_violation=worst,
                         worst_time=math.nan if worst <= ROUNDING else rows[k][0],
                         slack=float(slack), rows=rows)
