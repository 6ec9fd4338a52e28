"""Coefficient paths: evaluation, quadrature, means, and the block primitive."""

import io
import math
import re

import numpy as np
import pytest

from kpplab import coeff

import oracles


def test_constant_eval_and_means():
    p = coeff.make_constant(1.0)
    assert p(7.3) == 1.0
    assert p.shift(5.0)(0.0) == 2.0 - 1.0
    assert float(p.integral(2.0, 9.0)) / (9.0 - 2.0) == 1.0
    est = coeff.estimate_means(p, 1.0, (0.0, 10.0))
    assert (est.a_lower_est, est.a_hat_est, est.a_upper_est) == (1.0, 1.0, 1.0)


def test_constant_rejects_nonpositive():
    with pytest.raises(ValueError):
        coeff.make_constant(0.0)
    with pytest.raises(ValueError):
        coeff.make_constant(-1.0)


def test_periodic_values_and_period_mean():
    p = coeff.make_periodic(1.0, 0.5, 2 * math.pi)
    assert p(math.pi / 2) == pytest.approx(1.5, abs=1e-12)
    assert float(p.integral(0.0, 2 * math.pi)) / (2 * math.pi) == \
        pytest.approx(1.0, abs=1e-12)
    est = coeff.estimate_means(p, 2 * math.pi, (0.0, 20 * math.pi))
    for v in (est.a_lower_est, est.a_hat_est, est.a_upper_est):
        assert v == pytest.approx(1.0, abs=1e-8)


def test_periodic_rejects_nonpositive_floor():
    with pytest.raises(ValueError):
        coeff.make_periodic(1.0, 1.0, 5.0)


def test_periodic_integral_matches_dense_trapezoid():
    p = coeff.make_periodic(1.3, 0.6, 4.7)
    rng = np.random.default_rng(42)
    for _ in range(20):
        s = float(rng.uniform(-30, 30))
        t = s + float(rng.uniform(0.1, 40))
        ref = oracles.quad_integral(p, s, t)
        assert float(p.integral(s, t)) == pytest.approx(ref, abs=2e-6)


def test_periodic_extrema_exact():
    p = coeff.make_periodic(1.0, 0.5, 2 * math.pi)
    # window containing a peak but no trough
    assert p.max_on(0.0, math.pi) == pytest.approx(1.5, abs=1e-12)
    assert p.min_on(0.0, math.pi) == pytest.approx(1.0, abs=1e-12)
    # short window: endpoint extrema
    assert p.max_on(0.1, 0.2) == pytest.approx(float(p(0.2)), abs=1e-12)
    # arrays of intervals holding 0, 1 and 2 interior extrema
    peak, trough = math.pi / 2, 3 * math.pi / 2
    s = [peak + 0.1, peak - 0.1, peak - 0.1]
    t = [peak + 0.2, peak + 0.1, trough + 0.1]
    lo, hi = p.min_on(s, t), p.max_on(s, t)
    assert hi[0] == p(peak + 0.1) and lo[0] == p(peak + 0.2)
    assert hi[1] == hi[2] == 1.5 and lo[2] == 0.5


def test_two_level_block_values():
    p = coeff.make_two_level()
    l, L = oracles.two_level_table(4)
    assert L[0] == 0.25 and l[1] == 1.25
    for t in (0.3, 0.7, 1.2):
        assert p(t) == 1.0          # first value-1 block (L0, l1)
    for t in (1.5, 2.0, 3.0):
        assert p(t) == 2.0          # first value-2 block (L1, l2)
    # even reflection
    for t in (0.7, 2.0, 5.0):
        assert p(-t) == p(t)


def test_two_level_spike_extrema():
    p = coeff.make_two_level()
    l, L = oracles.two_level_table(4)
    mid4 = 0.5 * (l[4] + L[4])
    assert p(mid4) == pytest.approx(4.0, abs=1e-12)   # even spike peak 2^2
    mid3 = 0.5 * (l[3] + L[3])
    assert p(mid3) == pytest.approx(0.25, abs=1e-12)  # odd spike trough 2^-2
    assert p(l[4]) == p(L[3])                          # spikes meet the blocks
    # extrema over arrays of intervals holding a spike, mirrored or not
    s = [l[4] - 0.01, -L[4] - 0.01, -L[4] - 0.01]
    t = [L[4] + 0.01, -l[4], 0.5]
    assert p.max_on(s, t).tolist() == [4.0, 4.0, 4.0]
    assert p.min_on([-L[3] - 0.1, L[3] + 0.01], [L[3] + 0.1, l[3] - 0.01]).tolist() \
        == [0.25, 0.25]


def test_two_level_first_block_mean_exact():
    p = coeff.make_two_level()
    assert float(p.integral(0.25, 1.25)) / (1.25 - 0.25) == \
        pytest.approx(1.0, abs=1e-12)


def test_two_level_integral_matches_breakpoint_trapezoid():
    # A uniform trapezoid grid cannot resolve the 4^-(k+1)-wide spikes, so
    # the reference grid carries the recursion's breakpoints (block edges
    # and hat apexes), where the trapezoid rule is exact for this path.
    p = coeff.make_two_level()
    l, L = oracles.two_level_table(15)
    nodes = []
    for k in range(1, 16):
        nodes += [l[k], 0.5 * (l[k] + L[k]), L[k]]
    nodes = np.asarray(nodes)
    nodes = np.concatenate([nodes, -nodes, [0.0]])
    rng = np.random.default_rng(7)
    for _ in range(10):
        s = float(rng.uniform(-40, 20))
        t = s + float(rng.uniform(1, 60))
        inner = nodes[(nodes > s) & (nodes < t)]
        grid = np.unique(np.concatenate([[s, t], inner, np.linspace(s, t, 5001)]))
        ref = float(np.trapezoid(p(grid), grid))
        assert float(p.integral(s, t)) == pytest.approx(ref, abs=1e-9)


def test_two_level_means_long_horizon():
    est = coeff.estimate_means(coeff.make_two_level(), 5.0, (0.0, 300.0))
    assert 0.95 <= est.a_lower_est <= 1.05
    assert 1.90 <= est.a_upper_est <= 2.05


def test_shift_group_law_exact():
    rng = np.random.default_rng(3)
    paths = [coeff.make_constant(1.3),
             coeff.make_periodic(1.0, 0.5, 6.0),
             coeff.make_two_level(),
             coeff.make_noise(11, t_lo=-5.0, t_hi=40.0)]
    for p in paths:
        s1, s2 = float(rng.uniform(0, 5)), float(rng.uniform(0, 5))
        q = p.shift(s1).shift(s2)
        r = p.shift(s1 + s2)
        ts = np.linspace(0.0, 10.0, 37)
        assert np.array_equal(np.asarray(q(ts)), np.asarray(p(ts + (s1 + s2))))
        assert np.array_equal(np.asarray(r(ts)), np.asarray(p(ts + (s1 + s2))))


def test_shift_consistency_pointwise():
    p = coeff.make_periodic(1.0, 0.5, 2 * math.pi)
    q = p.shift(2 * math.pi)
    ts = np.linspace(0, 10, 101)
    assert np.max(np.abs(q(ts) - p(ts))) == pytest.approx(0.0, abs=1e-12)


def test_means_ordering_and_widening():
    rng = np.random.default_rng(9)
    paths = [coeff.make_periodic(1.2, 0.7, 5.0), coeff.make_two_level(),
             coeff.TabulatedPath(0.0, 0.5, rng.uniform(0.5, 2.0, size=200))]
    for p in paths:
        wide = coeff.estimate_means(p, 2.0, (0.0, 80.0))
        narrow = coeff.estimate_means(p, 8.0, (0.0, 80.0))
        for est in (wide, narrow):
            assert est.a_lower_est <= est.a_hat_est <= est.a_upper_est
        # shrinking the window length can only widen the band
        assert wide.a_lower_est <= narrow.a_lower_est + 1e-12
        assert wide.a_upper_est >= narrow.a_upper_est - 1e-12
        lo, hi = wide.speed_band
        assert lo <= wide.takeover_speed <= hi


def test_estimate_means_rejects_short_horizon():
    with pytest.raises(ValueError):
        coeff.estimate_means(coeff.make_constant(1.0), 10.0, (0.0, 15.0))


@pytest.mark.parametrize("stride", [0.0, -1.0, math.nan, math.inf])
def test_estimate_means_rejects_a_stride_that_is_not_positive(stride):
    with pytest.raises(ValueError, match="stride must be finite and positive"):
        coeff.estimate_means(coeff.make_constant(1.0), 5.0, (0.0, 50.0),
                             stride=stride)


def test_noise_determinism_and_bounds():
    a = coeff.make_noise(123, t_lo=0.0, t_hi=20.0)
    b = coeff.make_noise(123, t_lo=0.0, t_hi=20.0)
    assert np.array_equal(a.values, b.values)
    assert float(np.max(np.abs(a.values))) <= a.xi_max
    c = coeff.make_noise(124, t_lo=0.0, t_hi=20.0)
    assert not np.array_equal(a.values, c.values)


FANOUT_NOISE = dict(kappa=1.0, sigma=0.5, xi_max=0.5, dt=1e-3, t_lo=-120.0,
                    t_hi=100.0)


@pytest.mark.parametrize("seed, params", [
    (1, FANOUT_NOISE), (90210, FANOUT_NOISE),
    (7, dict(FANOUT_NOISE, t_lo=0.0, t_hi=1e-3)),      # 2 samples
    (7, dict(FANOUT_NOISE, t_lo=0.0, t_hi=2e-3)),      # 3 samples
])
def test_noise_samples_match_the_plain_ar1_loop_bit_for_bit(seed, params):
    from scipy.signal import lfilter

    p = coeff.NoisePath(seed, **params)
    rho, x0, e = oracles.noise_draws(seed, params["kappa"], params["sigma"],
                                     params["dt"], params["t_lo"], params["t_hi"])
    x = oracles.ar1_loop(rho, x0, e)
    assert p.values.size == x.size
    assert np.array_equal(p.values, params["xi_max"] * np.tanh(x))
    # the loop is the realization scipy.signal.lfilter gave earlier versions
    if e.size:
        xs, _ = lfilter([1.0], [1.0, -rho], e, zi=np.array([rho * x0]))
        assert np.array_equal(xs, x[1:])


def test_one_sample_noise_is_rejected_as_too_short():
    # the recursion takes a 1-sample path; the sampled-path checks refuse it
    with pytest.raises(ValueError, match="at least two samples"):
        coeff.NoisePath(7, **dict(FANOUT_NOISE, t_lo=0.0, t_hi=4e-4))


def test_noise_zero_volatility_is_flat():
    p = coeff.make_noise(5, sigma=0.0, t_lo=0.0, t_hi=5.0)
    assert np.all(p.values == 0.0)


def test_noise_empirical_mean_is_small():
    kappa = 1.0
    horizon = 1e4 / kappa
    p = coeff.make_noise(2024, kappa=kappa, dt=0.01, t_lo=0.0, t_hi=horizon)
    n_eff = horizon * kappa / 2.0
    bound = 3.0 * float(p.values.std()) / math.sqrt(n_eff)
    assert abs(float(p.values.mean())) < bound


def test_noise_csv_records_parameters():
    p = coeff.make_noise(9, t_lo=0.0, t_hi=0.01)
    buf = io.StringIO()
    p.to_csv(buf)
    head = buf.getvalue().splitlines()[0]
    for token in ("seed=9", "kappa=1", "sigma=0.5", "xi_max=0.75"):
        assert token in head
    # raw noise may dip negative, so it is a signal but not a coefficient path
    assert not isinstance(p, coeff.CoefficientPath)


def test_tabulated_roundtrip_and_validation(tmp_path):
    vals = np.array([1.0, 1.5, 2.0, 1.2, 0.8])
    p = coeff.TabulatedPath(0.0, 0.5, vals)
    buf = io.StringIO()
    p.to_csv(buf)
    buf.seek(0)
    data = np.loadtxt(buf, delimiter=",", comments="#", skiprows=2)
    assert np.array_equal(data[:, 0], 0.5 * np.arange(vals.size))
    q = coeff.TabulatedPath(data[0, 0], data[1, 0] - data[0, 0], data[:, 1])
    ts = np.linspace(0, 2, 41)
    assert np.max(np.abs(q(ts) - p(ts))) == pytest.approx(0.0, abs=1e-12)
    # an os.PathLike argument is opened as a file
    target = tmp_path / "path.csv"
    p.to_csv(target)
    assert target.read_text() == buf.getvalue()
    with pytest.raises(ValueError):
        coeff.TabulatedPath(0.0, 0.5, np.array([1.0, -0.2, 1.0]))


def test_tabulated_quadrature_exact_for_piecewise_linear():
    vals = np.array([1.0, 2.0, 1.0, 3.0])
    p = coeff.TabulatedPath(0.0, 1.0, vals)
    # trapezoid areas: 1.5 + 1.5 + 2.0
    assert float(p.integral(0.0, 3.0)) == pytest.approx(5.0, abs=1e-12)
    assert float(p.integral(0.5, 1.5)) == pytest.approx(
        oracles.quad_integral(p, 0.5, 1.5), abs=1e-9)


def _extrema_cases():
    """(make, s, t, knots) for every kind of path: make() builds a
    fresh path, s and t are arrays of interval ends (reversed ones
    included), and the path is monotone between consecutive knots (None:
    no knot check)."""
    rng = np.random.default_rng(11)

    def swap_half(s, t):
        flip = rng.random(len(s)) < 0.5
        return np.where(flip, t, s), np.where(flip, s, t)

    def steps(lo, dt, n):
        s = lo + np.arange(n) * dt
        return s, s + dt

    cases = []
    s, t = rng.uniform(-50, 50, (2, 200))
    cases.append(pytest.param(lambda: coeff.make_constant(1.7), s, t, [], id="constant"))

    # periodic: extrema at period * (1/4 + k/2), peaks for even k and
    # troughs for odd k; intervals holding 0, 1 and 2 interior extrema or
    # ending on two, then random ones
    for off in (0.0, 2.3):
        ext = 4.7 * (0.25 + 0.5 * np.arange(-30, 30)) - off
        p0, p1 = ext[30], ext[31]
        s = np.concatenate([[p0 + 0.1, p0 - 0.1, p0 - 0.1, p1 + 0.1, p0],
                            rng.uniform(-50, 50, 200)])
        t = np.concatenate([[p0 + 0.2, p0 + 0.1, p1 + 0.1, p0 - 0.1, p1],
                            rng.uniform(-50, 50, 200)])
        cases.append(pytest.param(
            lambda off=off: coeff.make_periodic(1.3, 0.6, 4.7).shift(off), s, t, ext,
            id="periodic%g" % off))

    # two-level: intervals straddling 0, holding spikes narrower than the
    # interval (mirrored too), ending on breakpoints, inside one spike, and
    # reaching past the table a fresh path has grown
    l, L = oracles.two_level_table(6)
    bps = [0.0, L[0]]
    for k in range(1, 7):
        bps += [l[k], 0.5 * (l[k] + L[k]), L[k]]
    bps = np.asarray(bps)
    ends = [(-3.0, 2.0), (-0.1, 5.7), (2.0, -7.0), (-L[4] - 0.01, l[2]), (0.0, 0.0),
            (-1.0, 0.0)]
    for k in range(1, 7):
        w = L[k] - l[k]
        ends += [(l[k] - 0.01, L[k] + 0.01), (-L[k] - 0.01, -l[k] + 0.01),
                 (l[k], L[k]), (L[k - 1], l[k]), (L[k], l[k]),
                 (l[k] + w / 8, l[k] + 3 * w / 8)]
    s, t = np.asarray(ends).T
    s2, t2 = steps(-12.0, 0.2, 150)
    s = np.concatenate([s, s2, rng.uniform(-25, 25, 200)])
    t = np.concatenate([t, t2, rng.uniform(-25, 25, 200)])
    for off in (0.0, -2.1):
        cases.append(pytest.param(
            lambda off=off: coeff.make_two_level().shift(off),
            s, t, np.concatenate([bps, -bps]) - off, id="two-level%g" % off))
    # spikes past the 6th are too narrow to evaluate at their apexes, so
    # these have no knot check
    s = np.array([30.0, -250.0, -90.0, 5.0, 120.0, -300.0])
    t = np.array([200.0, 10.0, -60.0, 400.0, 119.0, -299.0])
    cases.append(pytest.param(coeff.make_two_level, s, t, None, id="two-level-far"))

    # sampled kinds: ends on sample times, inside one panel, per-step
    # windows finer and coarser than the samples, and random ones
    tab_vals = 1.5 + np.sin(np.arange(41))
    noise = coeff.make_noise(3, t_lo=-60.0, t_hi=15.0, dt=0.01)
    eq = coeff.equilibrium_path(noise, 0.0, 10.0)
    sampled = [("tabulated", lambda: coeff.TabulatedPath(-1.0, 0.25, tab_vals)),
               ("tabulated-shifted",
                lambda: coeff.TabulatedPath(-1.0, 0.25, tab_vals).shift(0.3)),
               ("noise-shifted",
                lambda: coeff.make_noise(3, t_lo=0.0, t_hi=10.0, dt=0.01).shift(1.7)),
               ("noise-equilibrium-shifted", lambda: eq.shift(2.5))]
    for name, make in sampled:
        p = make()
        knots = p.sample_times - p.offset
        i, j = rng.integers(0, knots.size, (2, 100))
        inside = knots[:-1] + p._dt * np.array([[0.1], [0.7]])
        s = np.concatenate([knots[i], knots[i], inside[0], knots[1:-1]])
        t = np.concatenate([knots[j], knots[i], inside[1], knots[1:-1] + 0.5 * p._dt])
        span = knots[-1] - knots[0]
        for dt in (0.001, 0.0037, 0.6):
            s2, t2 = steps(knots[0], dt, int(span / dt) - 1)
            s, t = np.concatenate([s, s2]), np.concatenate([t, t2])
        s2, t2 = rng.uniform(knots[0], knots[-1], (2, 200))
        s, t = swap_half(np.concatenate([s, s2]), np.concatenate([t, t2]))
        cases.append(pytest.param(make, s, t, knots, id=name))
    return cases


@pytest.mark.parametrize("make, s, t, knots", _extrema_cases())
def test_array_extrema_match_scalar_calls(make, s, t, knots):
    lo, hi = make().min_on(s, t), make().max_on(s, t)
    # a second fresh path for the scalar calls, so a two-level table grown
    # one interval at a time is compared with one grown in a single call
    ref = make()
    ref_hi = [ref.max_on(a, b) for a, b in zip(s.tolist(), t.tolist())]
    ref_lo = [ref.min_on(a, b) for a, b in zip(s.tolist(), t.tolist())]
    assert all(type(v) is float for v in ref_hi + ref_lo)
    assert np.array_equal(hi, ref_hi) and np.array_equal(lo, ref_lo)
    # the 2-d shape is kept
    assert np.array_equal(ref.max_on(s[:6].reshape(2, 3), t[:6].reshape(2, 3)),
                          hi[:6].reshape(2, 3))
    if knots is None:
        return
    # independent of the extrema code: the path evaluated at the knots
    knot = np.array([oracles.knot_extrema(ref, a, b, knots) for a, b in zip(s, t)])
    assert lo == pytest.approx(knot[:, 0], rel=1e-9)
    assert hi == pytest.approx(knot[:, 1], rel=1e-9)


def test_two_level_shifted_copies_grow_independently():
    # shifted copies start out sharing the base path's breakpoint table;
    # each one growing it in turn, interleaved with the base, must leave
    # every copy equal to a fresh path with the same shift
    base = coeff.make_two_level()
    base.max_on(0.0, 20.0)
    shifts = [45.0 * k / 7 for k in range(7)]
    copies = [base.shift(s) for s in shifts]
    dt = 0.003125
    starts = np.arange(0.0, 80.0, dt)
    for s, p in zip(shifts, copies):
        base.integral(0.0, 40.0 + s)
        fresh = coeff.make_two_level().shift(s)
        assert np.array_equal(p(starts + 0.5 * dt), fresh(starts + 0.5 * dt))
        assert np.array_equal(p.integral(0.0, 80.0), fresh.integral(0.0, 80.0))
        assert np.array_equal(p.max_on(starts, starts + dt),
                              fresh.max_on(starts, starts + dt))
        assert np.array_equal(p.min_on(starts, starts + dt),
                              fresh.min_on(starts, starts + dt))
    assert np.array_equal(base.integral(0.0, starts),
                          coeff.make_two_level().integral(0.0, starts))


@pytest.mark.parametrize("make", [
    lambda: coeff.make_constant(1.0),
    lambda: coeff.make_periodic(1.0, 0.5, 3.0),
    coeff.make_two_level,
    lambda: coeff.TabulatedPath(0.0, 0.5, [1.0, 2.0, 1.5]),
    lambda: coeff.make_noise(1, t_lo=0.0, t_hi=1.0, dt=0.1),
], ids=["constant", "periodic", "two-level", "tabulated", "noise"])
def test_empty_queries_give_empty_arrays(make):
    p, empty = make(), np.empty(0)
    for out in (p(empty), p.integral(empty, empty), p.min_on(empty, empty),
                p.max_on(empty, empty)):
        assert isinstance(out, np.ndarray) and out.shape == (0,)


BLOCK = coeff._BLOCK


@pytest.mark.parametrize("make", [
    lambda: coeff.make_constant(1.3),
    lambda: coeff.make_periodic(1.0, 0.5, 3.0),
    coeff.make_two_level,
    lambda: coeff.TabulatedPath(-1.0, 0.01, 1.5 + np.sin(0.1 * np.arange(5000))),
    lambda: coeff.make_noise(5, t_lo=-1.0, t_hi=45.0, dt=0.01),
    lambda: coeff.make_periodic(1.0, 0.5, 3.0).shift(-0.7),
    lambda: coeff.make_two_level().shift(-2.1),
    lambda: coeff.TabulatedPath(-1.0, 0.01, 1.5 + np.sin(0.1 * np.arange(5000))).shift(0.3),
    lambda: coeff.make_noise(5, t_lo=-1.0, t_hi=45.0, dt=0.01).shift(1.7),
], ids=["constant", "periodic", "two-level", "tabulated", "noise", "periodic-shifted",
        "two-level-shifted", "tabulated-shifted", "noise-shifted"])
@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
def test_blocked_queries_equal_one_pass_evaluation(make, n):
    rng = np.random.default_rng(n)
    s, t = rng.uniform(0.0, 40.0, (2, n))
    # one pass through the unshifted clock, on a fresh path, so a
    # two-level table grown block by block is compared with one grown at once
    ref = make()
    off = ref.offset
    a, b = np.minimum(s + off, t + off), np.maximum(s + off, t + off)
    ref_lo, ref_hi = ref._extrema_on(a, b)
    ref_integral = ref._primitive(t + off) - ref._primitive(s + off)
    ref_from_0 = ref._primitive(t + off) - ref._primitive(np.asarray(0.0) + off)
    p = make()
    assert np.array_equal(p.integral(s, t), ref_integral)
    assert np.array_equal(p.integral(0.0, t), ref_from_0)
    assert np.array_equal(p(t), ref._eval(t + off))
    assert np.array_equal(p.min_on(s, t), ref_lo)
    assert np.array_equal(p.max_on(s, t), ref_hi)
    # the broadcast shape is kept
    m = n // 2
    grid = (2, m)
    assert np.array_equal(p.integral(s[:2 * m].reshape(grid), t[:2 * m].reshape(grid)),
                          ref_integral[:2 * m].reshape(grid))
    assert np.array_equal(p.max_on(s[:2 * m].reshape(grid), t[:2 * m].reshape(grid)),
                          ref_hi[:2 * m].reshape(grid))


def test_a_blocked_query_out_of_range_names_the_whole_range():
    p = coeff.make_noise(5, t_lo=0.0, t_hi=10.0, dt=0.01)
    t = np.linspace(1.0, 9.0, 3 * BLOCK + 5)
    t[-1] = 12.5                       # past the samples, in the last block
    for query, whole in ((p, "[1, 12.5]"), (lambda t: p.integral(0.5, t), "[0.5, 12.5]"),
                         (lambda t: p.max_on(t, 2.0), "[1, 12.5]")):
        with pytest.raises(ValueError, match=re.escape("query time range " + whole)):
            query(t)


def test_noise_rejects_a_sample_spacing_that_is_not_finite_and_positive():
    for dt in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError, match="noise sample spacing dt"):
            coeff.make_noise(1, dt=dt, t_lo=-5.0, t_hi=5.0)


def test_build_b_constant_is_flat():
    b = coeff.build_B(coeff.make_constant(1.0), gamma=0.5, delta=1.0,
                      span=(0.0, 40.0))
    assert np.all(b.eps == 1.0)
    ts = np.linspace(0.0, 40.0, 401)
    assert np.max(np.abs(b.B(ts))) == pytest.approx(0.0, abs=1e-12)
    assert b.B_norm == pytest.approx(0.0, abs=1e-12)
    assert b.slack() >= 0.5


def test_piecewise_b_formula_on_aligned_periodic_blocks():
    # With blocks aligned to the period the block means are exactly the
    # path mean and B(t) = (A/omega)(1 - cos(omega t)) in closed form.
    p = coeff.make_periodic(1.0, 0.5, 2 * math.pi)
    T = 2 * math.pi
    b = coeff.PiecewiseB(path=p, T=T, s0=0.0, s1=4 * T, scale=1.0, gamma=0.9,
                         eps=np.full(4, 1.0), B_norm=1.0)
    ts = np.linspace(0.0, 4 * T, 1001)
    expect = 0.5 * (1.0 - np.cos(ts))
    assert np.max(np.abs(b.B(ts) - expect)) == pytest.approx(0.0, abs=1e-9)
    bps = b.breakpoints()
    assert np.max(np.abs(b.B(bps[:-1]))) == pytest.approx(0.0, abs=1e-9)
    assert float(np.max(np.abs(b.B(ts)))) == pytest.approx(1.0, abs=1e-4)


def test_build_b_periodic_certificate():
    p = coeff.make_periodic(1.0, 0.5, 2 * math.pi)
    b = coeff.build_B(p, gamma=0.9, delta=1.0, span=(0.0, 128.0))
    assert b.slack() >= 0.9
    ts = np.linspace(0.0, 128.0, 4001)
    inside = b.Bprime(ts)
    # certificate: delta*a - B' = eps_k >= gamma in block interiors
    assert float(np.min(1.0 * p(ts) - inside)) >= 0.9 - 1e-12
    assert np.max(np.abs(b.B(b.breakpoints()[:-1]))) < 1e-9
    assert b.B_norm <= 2 * b.T * 1.5 + 1e-9


def test_build_b_two_level_certificate():
    b = coeff.build_B(coeff.make_two_level(), gamma=0.9, delta=0.95,
                      span=(0.0, 200.0))
    assert float(b.eps.min()) >= 0.9


def test_build_b_rejects_infeasible_gamma():
    p = coeff.make_periodic(1.0, 0.5, 2 * math.pi)
    with pytest.raises(ValueError):
        coeff.build_B(p, gamma=1.2, delta=1.0, span=(0.0, 100.0))


class FlatNoise:
    """Minimal constant-signal stand-in with the noise sample interface."""

    def __init__(self, c, t_lo, t_hi, dt=0.001):
        self.dt = dt
        self.t_lo = t_lo
        self.t_hi = t_hi
        n = int(round((t_hi - t_lo) / dt)) + 1
        self.values = np.full(n, float(c))
        self.c = float(c)

    def __call__(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.c)

    def integral(self, s, t):
        return self.c * (np.asarray(t, float) - np.asarray(s, float))


def test_equilibrium_path_flat_noise_levels():
    from kpplab import equilibria

    for c, expect in ((0.0, 1.0), (0.25, 1.25), (-0.3, 0.7)):
        stub = FlatNoise(c, -80.0, 10.0)
        ts = np.linspace(0.0, 10.0, 11)
        y = equilibria.equilibrium_values(stub, ts, t_trunc=60.0)
        assert np.max(np.abs(y - expect)) < 1e-6, "xi=%g" % c


def test_equilibrium_path_zero_noise_is_one():
    noise = coeff.make_noise(3, sigma=0.0, t_lo=-60.0, t_hi=20.0)
    p = coeff.equilibrium_path(noise, 0.0, 10.0, dt=0.01)
    ts = np.linspace(0, 10, 101)
    assert np.max(np.abs(p(ts) - 1.0)) < 1e-6


def test_equilibrium_path_long_average_near_one():
    noise = coeff.make_noise(71, xi_max=0.5, t_lo=-60.0, t_hi=260.0)
    p = coeff.equilibrium_path(noise, 0.0, 250.0, dt=0.01)
    assert float(p.integral(0.0, 250.0)) / 250.0 == pytest.approx(1.0, abs=0.05)


def test_equilibrium_path_needs_history():
    noise = coeff.make_noise(4, t_lo=-5.0, t_hi=20.0)
    with pytest.raises(ValueError):
        coeff.equilibrium_path(noise, 0.0, 10.0)
