"""Front extraction, speed fits, interval probes, and related reports."""

import io
import math

import numpy as np
import pytest

import oracles
from kpplab import coeff, fronts, kppsolve


def _field(x_lo, x_hi, values):
    values = np.asarray(values, dtype=float)
    g = kppsolve.Grid1D(x_lo, x_hi, values.size)
    return kppsolve.Field(g, values)


def test_front_position_interpolates_linearly():
    f = _field(0.0, 3.0, [1.0, 0.8, 0.2, 0.0])
    # crossing of 0.5 between x=1 (0.8) and x=2 (0.2): x = 1 + 0.3/0.6
    assert fronts.front_position(f) == pytest.approx(1.5, abs=1e-12)


def test_front_position_picks_rightmost_crossing():
    f = _field(0.0, 5.0, [1.0, 0.2, 0.9, 0.9, 0.1, 0.0])
    # two down-crossings; the later one (between x=3 and x=4) wins
    p = fronts.front_position(f)
    assert 3.0 <= p <= 4.0


def test_front_position_none_cases():
    assert fronts.front_position(_field(0.0, 2.0, [1.0, 0.9, 0.8])) is None
    assert fronts.front_position(_field(0.0, 2.0, [0.1, 0.2, 0.3])) is None


def test_front_position_matches_scan_oracle():
    rng = np.random.default_rng(404)
    for _ in range(300):
        n = int(rng.integers(5, 60))
        base = np.sort(rng.uniform(0.0, 1.2, size=n))[::-1]
        noise = rng.normal(scale=0.15, size=n)
        u = np.clip(base + noise, 0.0, 1.2)
        level = float(rng.uniform(0.1, 0.9))
        f = _field(0.0, float(n - 1), u)
        got = fronts.front_position(f, level)
        want = oracles.brute_front(f.grid.x, u, level)
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-12)


def _heaviside_run(t_end=20.0, x0=0.0, dx=0.1, dt=0.005, x_hi=100.0):
    p = coeff.make_constant(1.0)
    g = kppsolve.make_grid(-20.0, x_hi, dx)
    f = kppsolve.init("heaviside", g, {"x0": x0})
    cfg = kppsolve.SolveConfig(dt=dt, store_stride=int(round(0.5 / dt)))
    return kppsolve.solve(f, p, t_end, cfg)


def test_track_levels_and_monotone_advance():
    traj = _heaviside_run()
    tr = fronts.track(traj)
    assert tr.levels == (0.5, 0.25)
    xs = tr.xs(0.5)
    assert not np.isnan(xs).any()
    late = xs[tr.times >= 1.0]
    assert np.all(np.diff(late) > 0)
    # the quarter level sits ahead of the half level
    assert np.all(tr.xs(0.25)[1:] > xs[1:])


def test_trace_translation_equivariance():
    tr0 = fronts.track(_heaviside_run(t_end=10.0), levels=(0.5,))
    tr3 = fronts.track(_heaviside_run(t_end=10.0, x0=3.0), levels=(0.5,))
    d = tr3.xs(0.5) - tr0.xs(0.5)
    assert np.max(np.abs(d - 3.0)) < 1e-6


def test_trace_csv_and_position_at():
    times = np.array([0.0, 1.0, 2.0, 3.0])
    xs = np.array([np.nan, 2.0, 4.0, 6.0])
    tr = fronts.FrontTrace(times=times, levels=(0.5, 0.25),
                           positions={0.5: xs, 0.25: xs + 1.0},
                           provenance={"dt": 0.01})
    assert tr.position_at(1.5) == pytest.approx(3.0)
    assert math.isnan(tr.position_at(0.2))     # before the first real sample
    assert math.isnan(tr.position_at(9.0))     # past the last sample
    buf = io.StringIO()
    tr.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].startswith("#") and "dt=0.01" in lines[0]
    assert lines[1] == "t,x_half,x_quarter"
    assert lines[2].split(",")[1] == "nan"
    got = [float(v) for v in lines[3].split(",")]
    assert got == [1.0, 2.0, 3.0]


def test_estimate_speed_recovers_exact_line():
    times = np.arange(0.0, 40.5, 0.5)
    tr = fronts.FrontTrace(times=times, levels=(0.5,),
                           positions={0.5: 1.7 * times - 3.0})
    est = fronts.estimate_speed(tr, burn_in=5.0)
    assert est.speed == pytest.approx(1.7, abs=1e-12)
    assert est.stderr < 1e-12
    assert est.residual_rms < 1e-10
    assert est.window[0] == pytest.approx(5.0)
    assert est.n_samples == 71


def test_estimate_speed_window_rules():
    times = np.arange(0.0, 8.5, 0.5)
    tr = fronts.FrontTrace(times=times, levels=(0.5,),
                           positions={0.5: 2.0 * times})
    with pytest.raises(ValueError, match="10 time units"):
        fronts.estimate_speed(tr)
    few = fronts.FrontTrace(times=np.array([0.0, 1.0]), levels=(0.5,),
                            positions={0.5: np.array([0.0, 2.0])})
    with pytest.raises(ValueError, match="not enough"):
        fronts.estimate_speed(few)


def test_estimate_speed_on_real_run():
    tr = fronts.track(_heaviside_run(t_end=40.0, x_hi=150.0), levels=(0.5,))
    est = fronts.estimate_speed(tr, window=(20.0, 40.0))
    assert 1.85 <= est.speed <= 2.0
    assert abs(est.endpoint_rate - est.speed) < 0.15


def test_default_shift_set():
    s = fronts.default_shift_set(8.0, n=4)
    assert s == [0.0, 2.0, 4.0, 6.0]


def test_probe_interval_classifies_constant_path():
    p = coeff.make_constant(1.0)
    itv = fronts.probe_speed_interval(
        p, "front-like", c_grid=[1.6, 1.8, 2.0, 2.2], shift_set=[0.0, 5.0],
        t_probe=40.0, dx=0.2, dt=0.01)
    assert itv.per_c[1.6] == "spread"
    assert itv.per_c[2.2] == "vanish"
    assert itv.monotone
    assert itv.c_lo == pytest.approx(1.6)
    assert itv.c_hi == pytest.approx(2.2)
    assert len(itv.decisions) == 8
    d = itv.to_dict()
    assert set(d["per_c"]) == {"1.6", "1.8", "2", "2.2"}
    assert d["u0_class"] == "front-like"


def test_probe_interval_compact_bump_both_rays():
    p = coeff.make_constant(1.0)
    itv = fronts.probe_speed_interval(
        p, {"kind": "compact-bump", "lo": -5.0, "hi": 5.0}, c_grid=[1.2, 2.6],
        shift_set=[0.0], t_probe=25.0, dx=0.2, dt=0.01)
    assert itv.per_c[1.2] == "spread"
    assert itv.per_c[2.6] == "vanish"
    assert itv.u0_class == "compact-bump"


def test_probe_interval_validation():
    p = coeff.make_constant(1.0)
    with pytest.raises(ValueError, match="at least one"):
        fronts.probe_speed_interval(p, "front-like", [], [0.0], 10.0)
    with pytest.raises(ValueError, match="domain too small"):
        fronts.probe_speed_interval(p, "front-like", [2.0], [0.0], 40.0,
                                    domain=(-20.0, 60.0))


def test_subadditivity_small_grid():
    p = coeff.make_constant(1.0)
    rep = fronts.subadditivity_check(p, [2.0, 4.0, 8.0], dx=0.2, dt=0.01,
                                     margin=30.0, check_doubling=True)
    assert rep.violations.shape == (3, 3)
    assert abs(rep.m_hat) <= 5.0
    assert rep.argmax_pair[0] in rep.t_axis and rep.argmax_pair[1] in rep.s_axis
    assert rep.m_hat_doubled is not None
    assert rep.doubling_change is not None
    assert rep.doubling_flagged in (True, False)
    assert rep.m_hat_doubled >= rep.m_hat - 1e-12   # refinement adds pairs


def test_subadditivity_rejects_early_times():
    p = coeff.make_constant(1.0)
    with pytest.raises(ValueError, match="pair times"):
        fronts.subadditivity_check(p, [1.0, 4.0])


def test_takeover_verify_constant_path():
    # the solution approaches 1 behind a speed-2 front at rate sqrt(2)-1,
    # so the inner check needs (c_hat - h) t well behind x_half
    p = coeff.make_constant(1.0)
    g = kppsolve.make_grid(-60.0, 160.0, 0.2)
    f = kppsolve.init("heaviside", g, {})
    traj = kppsolve.solve(f, p, 50.0,
                          kppsolve.SolveConfig(dt=0.01, store_stride=1000))
    rep = fronts.takeover_verify(traj, p, 0.7, [20.0, 50.0])
    assert rep.c_hat == pytest.approx(2.0, abs=1e-9)
    assert rep.passed
    assert rep.rows[-1][1] <= 1e-3 and rep.rows[-1][2] >= 0.99
    with pytest.raises(ValueError, match="domain too small"):
        fronts.takeover_verify(traj, p, 10.0, [50.0])
    with pytest.raises(ValueError, match="positive"):
        fronts.takeover_verify(traj, p, 0.0, [50.0])


def test_profile_ordering_steep_vs_shallow():
    p = coeff.make_constant(1.0)
    g = kppsolve.make_grid(-30.0, 80.0, 0.1)
    cfg = kppsolve.SolveConfig(dt=0.005, store_stride=1000)
    steep = kppsolve.solve(kppsolve.init("heaviside", g, {}), p, 15.0, cfg)
    shallow = kppsolve.solve(kppsolve.init("front-like", g, {"mu": 0.8}),
                             p, 15.0, cfg)
    rep = fronts.profile_ordering_check(steep, shallow, [5.0, 10.0, 15.0])
    assert rep.max_violation < 0.05
    assert rep.band == pytest.approx(0.2)
    assert len(rep.rows) == 3


def test_tail_uniformity_nested_probes():
    p = coeff.make_constant(1.0)
    g = kppsolve.make_grid(-25.0, 40.0, 0.1)
    f = kppsolve.init("front-like", g, {"mu": 0.8})
    traj = kppsolve.solve(f, p, 10.0,
                          kppsolve.SolveConfig(dt=0.002, mu=0.8, margin=0.0,
                                               store_stride=500))
    rep = fronts.tail_uniformity(traj, [-5.0, -10.0], (5.0, 10.0))
    assert rep.deviations[1] <= rep.deviations[0]
    assert rep.deviations[1] < 0.05
    with pytest.raises(ValueError, match="window"):
        fronts.tail_uniformity(traj, [-5.0], (90.0, 95.0))
    with pytest.raises(ValueError, match="left of the whole grid"):
        fronts.tail_uniformity(traj, [-40.0], (5.0, 10.0))
