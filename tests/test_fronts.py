"""Front extraction, speed fits, interval probes, and related reports."""

import io
import math
import threading

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


def test_estimate_speed_window_message_names_plain_numbers():
    # the default window's ends are numpy floats, which %s wrote as
    # np.float64(...) into the takeover artifact's "aborted" text
    times = np.arange(0.0, 4.0)
    tr = fronts.FrontTrace(times=times, levels=(0.5,), positions={0.5: times})
    with pytest.raises(ValueError) as err:
        fronts.estimate_speed(tr, burn_in=2.5)
    assert str(err.value) == "fit window (2.5, 3) contains fewer than 3 samples"
    assert "np.float64" not in str(err.value)


def test_estimate_speed_on_real_run():
    tr = fronts.track(_heaviside_run(t_end=40.0, x_hi=150.0), levels=(0.5,))
    est = fronts.estimate_speed(tr, window=(20.0, 40.0))
    assert 1.85 <= est.speed <= 2.0
    assert abs(est.endpoint_rate - est.speed) < 0.15


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
    with pytest.raises(ValueError, match="at least one pair time"):
        fronts.subadditivity_check(p, [])
    # a NaN time used to fail in math.sqrt, an infinite one in int()
    for times, bad in (([math.nan, 4.0], "nan"), ([4.0, math.inf], "inf"),
                       ([-math.inf, 4.0], "-inf")):
        with pytest.raises(ValueError, match="pair times must be finite, not %s" % bad):
            fronts.subadditivity_check(p, times)


def test_subadditivity_marches_each_shift_once(monkeypatch):
    marched = []
    march_runs = kppsolve.march_runs

    def recorded(fields, paths, t_end, config):
        marched.append(sorted(p.offset for p in paths))
        return march_runs(fields, paths, t_end, config)

    monkeypatch.setattr(kppsolve, "march_runs", recorded)
    p = coeff.make_constant(1.0)
    rep = fronts.subadditivity_check(p, [4.0, 2.0, 4.0], dx=0.2, dt=0.01,
                                     margin=30.0, check_doubling=True)
    assert marched == [[0.0], [2.0, 3.0, 4.0]]     # the base run, then every shift
    assert rep.t_axis == (2.0, 4.0, 4.0)
    assert np.array_equal(rep.violations[1], rep.violations[2])


def test_probe_interval_marches_each_shift_once(monkeypatch):
    marched = []
    march_runs = kppsolve.march_runs

    def recorded(fields, paths, t_end, config):
        marched.append([p.offset for p in paths])
        return march_runs(fields, paths, t_end, config)

    monkeypatch.setattr(kppsolve, "march_runs", recorded)
    p = coeff.make_constant(1.0)
    itv = fronts.probe_speed_interval(p, "front-like", [1.6, 2.2],
                                      [1.0, 0.0, 1.0], t_probe=10.0, dx=0.2,
                                      dt=0.01)
    assert marched == [[0.0, 1.0]]
    assert itv.shifts == (0.0, 1.0, 1.0)
    assert itv.to_dict()["shifts"] == [0.0, 1.0, 1.0]
    assert set(itv.decisions) == {(c, s) for c in (1.6, 2.2) for s in (0.0, 1.0)}


def _heaviside_trace(p, t_end, dx, dt, margin):
    """The level-1/2 trace of one Heaviside run, solved alone and stored."""
    grid = kppsolve.make_grid(-(margin + 20.0),
                              kppsolve.suggest_domain(p, t_end, margin), dx)
    traj = kppsolve.solve(kppsolve.init("heaviside", grid, {}), p, t_end,
                          kppsolve.SolveConfig(dt=dt, margin=margin))
    return fronts.track(traj, (0.5,)), grid.n


def test_subadditivity_equals_runs_solved_one_at_a_time():
    p = coeff.make_periodic(1.0, 0.6, 7.0)
    axis, dx, dt, margin = [2.0, 3.5, 6.0], 0.2, 0.01, 30.0
    rep = fronts.subadditivity_check(p, axis, dx=dx, dt=dt, margin=margin)
    base, _ = _heaviside_trace(p, 2.0 * axis[-1], dx, dt, margin)
    shifted = {t: _heaviside_trace(p.shift(t), axis[-1], dx, dt, margin) for t in axis}
    assert len({n for _, n in shifted.values()}) > 1     # the grids differ
    want = [[base.position_at(t) + shifted[t][0].position_at(s) - base.position_at(t + s)
             for s in axis] for t in axis]
    assert np.array_equal(rep.violations, np.array(want))


def test_probe_interval_equals_runs_solved_one_at_a_time():
    p = coeff.make_periodic(1.0, 0.6, 3.0)
    c_grid, shifts, t_probe = [1.4, 2.0, 2.6], [0.0, 0.8, 1.9], 12.0
    itv = fronts.probe_speed_interval(p, "heaviside", c_grid, shifts, t_probe,
                                      dx=0.2, dt=0.01, domain=(-60.0, 90.0))
    grid = kppsolve.make_grid(-60.0, 90.0, 0.2)
    config = kppsolve.SolveConfig(dt=0.01, store_stride=1200)
    for s in shifts:
        traj = kppsolve.solve(kppsolve.init("heaviside", grid, {}), p.shift(s),
                              t_probe, config)
        u = traj.frames[-1]
        for c in c_grid:
            inside, outside = grid.x <= c * t_probe, grid.x >= c * t_probe
            assert itv.decisions[(c, s)] == (float(u[inside].min()),
                                             float(u[outside].max()))


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
    # checked when the check is set up, not in finish() after the run
    with pytest.raises(ValueError, match="at least one check time"):
        fronts.takeover_verify(traj, p, 0.7, [])


def _step_path(early, late, t_switch, t_hi=40.0):
    """a = early before t_switch and late from it on, tabulated every 0.01."""
    t = np.arange(0.0, t_hi + 0.005, 0.01)
    return coeff.TabulatedPath(0.0, 0.01, np.where(t < t_switch, early, late))


def _cpus(monkeypatch, n):
    monkeypatch.setattr(fronts.os, "sched_getaffinity", lambda pid: set(range(n)))


def _margin_error(monkeypatch, path, cpus):
    _cpus(monkeypatch, cpus)
    before = threading.active_count()
    with pytest.raises(kppsolve.FrontMarginError) as err:
        fronts.subadditivity_check(path, [2.0, 3.0], dx=0.2, dt=0.01, margin=2.0)
    assert threading.active_count() == before
    return str(err.value)


def test_subadditivity_on_two_cpus_is_the_one_cpu_report(monkeypatch):
    p = coeff.make_periodic(1.0, 0.6, 7.0)
    reports = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        before = threading.active_count()
        reports.append(fronts.subadditivity_check(p, [2.0, 3.5, 6.0], dx=0.2,
                                                  dt=0.01, margin=30.0,
                                                  check_doubling=True))
        assert threading.active_count() == before
    one, two = reports
    assert np.array_equal(one.violations.view(np.int64), two.violations.view(np.int64))
    assert repr(one.m_hat) == repr(two.m_hat)
    assert repr(one.doubling_change) == repr(two.doubling_change)
    assert one.argmax_pair == two.argmax_pair


def test_subadditivity_on_two_cpus_raises_the_one_cpu_error(monkeypatch):
    # the shifted runs see a = 4 from t = 1 on and reach the right margin of
    # a grid cut at x = 5 long before the base run, which sees a = 0.25 up
    # to t = 3; the base run's error must still win, as it does on one CPU
    p = _step_path(0.25, 4.0, 3.0)
    monkeypatch.setattr(kppsolve, "suggest_domain", lambda path, t_end, margin: 5.0)
    base_error = _margin_error(monkeypatch, p, 1)
    for _ in range(20):
        assert _margin_error(monkeypatch, p, 2) == base_error
    # with room for the base run (t_end 6), the shifted runs' error is raised
    monkeypatch.setattr(kppsolve, "suggest_domain",
                        lambda path, t_end, margin: 60.0 if t_end > 3.0 else 5.0)
    shifted_error = _margin_error(monkeypatch, p, 1)
    assert shifted_error != base_error
    for _ in range(20):
        assert _margin_error(monkeypatch, p, 2) == shifted_error
