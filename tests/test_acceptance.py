"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Each test prints its verdict line before asserting, so a full run (-s or
captured output) always shows the complete scoreboard.
"""

import math
import time

import numpy as np

import battery
from kpplab import cli, coeff, equilibria, fronts, kppsolve, subsuper


def _line(num, ok, detail):
    print("ACCEPTANCE %02d %s  %s" % (num, "PASS" if ok else "FAIL", detail))


def _takeover_speed(path, t_end, window, x_lo=-100.0, x_hi=400.0,
                    dx=0.1, dt=0.005):
    grid = kppsolve.make_grid(x_lo, x_hi, dx)
    field0 = kppsolve.init("heaviside", grid, {})
    config = kppsolve.SolveConfig(dt=dt, store_stride=int(round(0.5 / dt)))
    traj = kppsolve.solve(field0, path, t_end, config)
    trace = fronts.track(traj, levels=(0.5,))
    return fronts.estimate_speed(trace, window=window)


def test_criterion_01_constant_coefficient_speed():
    t0 = time.perf_counter()
    est = _takeover_speed(coeff.make_constant(1.0), 100.0, (40.0, 100.0))
    elapsed = time.perf_counter() - t0
    ok = 1.90 <= est.speed <= 2.00 and elapsed <= 120.0
    _line(1, ok, "speed=%.4f stderr=%.2g runtime=%.1fs"
          % (est.speed, est.stderr, elapsed))
    assert 1.90 <= est.speed <= 2.00
    assert elapsed <= 120.0


def test_criterion_02_periodic_coefficient_speed():
    path = coeff.make_periodic(1.0, 0.5, 2.0 * math.pi)
    est = _takeover_speed(path, 100.0, (40.0, 100.0))
    ok = 1.90 <= est.speed <= 2.05
    _line(2, ok, "speed=%.4f" % est.speed)
    assert 1.90 <= est.speed <= 2.05


def test_criterion_03_mean_command_and_speed_interval():
    code_m, art_m = cli.cmd_mean({"path_kind": "two-level", "r_min": 5.0,
                                  "horizon": [0, 300]})
    res = art_m["results"]
    # spikes of the two-level path reach a=128 before t=125, so the
    # monotone step gate needs dt strictly below 0.5/128
    code_i, art_i = cli.cmd_interval({
        "path_kind": "two-level", "u0_kind": "front-like", "u0_mu": 2.0,
        "c_grid": [1.8, 2.0, 2.2, 2.4, 2.6, 2.8, 3.0],
        "shift_set": [45.0 * k / 7 for k in range(7)],
        "t_probe": 80.0, "dx": 0.1, "dt": 0.003125,
    })
    c_lo, c_hi = art_i["results"]["c_lo"], art_i["results"]["c_hi"]
    ok = (code_m == 0 and 0.95 <= res["a_lower_est"] <= 1.05
          and 1.90 <= res["a_upper_est"] <= 2.05
          and code_i == 0 and c_lo >= 1.8 and c_hi <= 3.0)
    _line(3, ok, "a_lower=%.4f a_upper=%.4f c_lo=%.2f c_hi=%.2f"
          % (res["a_lower_est"], res["a_upper_est"], c_lo, c_hi))
    assert code_m == 0
    assert 0.95 <= res["a_lower_est"] <= 1.05
    assert 1.90 <= res["a_upper_est"] <= 2.05
    assert code_i == 0
    assert c_lo >= 1.8 and c_hi <= 3.0


def test_criterion_04_noise_equilibrium_speeds():
    speeds = {}
    for seed in (11, 12, 13):
        noise = coeff.make_noise(seed, kappa=1.0, sigma=0.5, xi_max=0.5,
                                 dt=1e-3, t_lo=-120.0, t_hi=60.0)
        path = coeff.equilibrium_path(noise, 0.0, 60.0)
        est = _takeover_speed(path, 60.0, (15.0, 60.0), x_hi=200.0)
        speeds[seed] = est.speed
    ok = all(1.8 <= s <= 2.2 for s in speeds.values())
    _line(4, ok, " ".join("seed%d=%.4f" % kv for kv in sorted(speeds.items())))
    for seed, s in speeds.items():
        assert 1.8 <= s <= 2.2, "seed %d speed %.4f" % (seed, s)


def test_criterion_05_stability_envelope():
    path = coeff.make_two_level()
    grid = kppsolve.make_grid(0.0, 50.0, 0.05)
    vals = 1.25 + 0.75 * np.sin(2.0 * math.pi * grid.x / 25.0)
    field0 = kppsolve.init("custom-samples", grid, {"values": vals})
    config = kppsolve.SolveConfig(dt=0.001, store_stride=500, margin=0.0)
    traj = kppsolve.solve(field0, path, 20.0, config)
    bound = equilibria.stability_bound(0.5, 2.0)
    report = equilibria.verify_stability_decay(traj, path, bound=bound,
                                               slack=0.0)
    ok = bound.M == 2.0 and report.max_violation <= 1e-3
    _line(5, ok, "M=%g max(sup|u-1| - M exp(-int a))=%.3g"
          % (bound.M, report.max_violation))
    assert bound.M == 2.0
    assert report.max_violation <= 1e-3


def test_criterion_06_comparison_sandwich():
    path = coeff.make_constant(1.0)
    params = subsuper.make_wave_params(path, 0.8, 1.0, span=(0.0, 40.0))
    grid = kppsolve.make_grid(-60.0, 140.0, 0.1)
    upper = subsuper.supersolution(path, 0.8)
    lower = subsuper.lower_solution(path, params)
    field0 = kppsolve.init("custom-samples", grid, {"values": upper(0.0, grid.x)})
    config = kppsolve.SolveConfig(dt=0.005, store_stride=200)
    traj = kppsolve.solve(field0, path, 40.0, config)
    above = subsuper.certify_ordering(traj, upper, "above")
    below = subsuper.certify_ordering(traj, lower, "below")
    ok = (above.passed and below.passed
          and above.max_violation <= 1e-6 + above.slack
          and below.max_violation <= 1e-6 + below.slack)
    _line(6, ok, "delta=%.3g d=%.3g above=%.2g below=%.2g slack=%.2g"
          % (params.delta, params.d, above.max_violation,
             below.max_violation, above.slack))
    assert above.passed and below.passed
    assert above.max_violation <= 1e-6 + above.slack
    assert below.max_violation <= 1e-6 + below.slack


def test_criterion_07_equilibrium_cocycle():
    noise = coeff.make_noise(7, kappa=1.0, sigma=0.5, xi_max=0.5,
                             dt=1e-3, t_lo=-60.0, t_hi=51.0)
    t_trunc = equilibria.truncation_horizon(noise, 1e-8)
    tail = equilibria.tail_bound(noise, t_trunc)
    ts = np.arange(0.0, 50.0 + 1e-9, 0.25)
    ys = equilibria.equilibrium_values(noise, ts, t_trunc)
    u = equilibria.real_noise_ode_solution(float(ys[0]), noise, ts)
    sup = float(np.max(np.abs(u / ys - 1.0)))
    ok = tail < 1e-8 and sup <= 1e-4
    _line(7, ok, "tail=%.2g sup|u/Y-1|=%.3g" % (tail, sup))
    assert tail < 1e-8
    assert sup <= 1e-4


def test_criterion_08_subadditivity_defect():
    times = [5.0, 10.0, 20.0, 35.0, 50.0]
    noise = coeff.make_noise(8, kappa=1.0, sigma=0.5, xi_max=0.5,
                             dt=1e-3, t_lo=-120.0, t_hi=100.0)
    paths = {
        "constant": coeff.make_constant(1.0),
        "noise-equilibrium": coeff.equilibrium_path(noise, 0.0, 100.0),
    }
    details, ok = [], True
    for name, path in paths.items():
        rep = fronts.subadditivity_check(path, times, check_doubling=True)
        good = (math.isfinite(rep.m_hat) and rep.m_hat <= 10.0
                and abs(rep.doubling_change) < 0.20)
        ok = ok and good
        details.append("%s: m_hat=%.3f change=%.3f" %
                       (name, rep.m_hat, rep.doubling_change))
        assert math.isfinite(rep.m_hat)
        assert rep.m_hat <= 10.0, "%s m_hat %.3f" % (name, rep.m_hat)
        assert abs(rep.doubling_change) < 0.20, \
            "%s doubling change %.3f" % (name, rep.doubling_change)
    _line(8, ok, "; ".join(details))


def test_criterion_09_oracle_equivalence_and_orders():
    noise = coeff.make_noise(9, kappa=1.0, sigma=0.5, xi_max=0.5,
                             dt=1e-3, t_lo=-60.0, t_hi=10.0)
    paths = {
        "constant": coeff.make_constant(1.0),
        "periodic": coeff.make_periodic(1.0, 0.5, 2.0 * math.pi),
        "two-level": coeff.make_two_level(),
        "noise-equilibrium": coeff.equilibrium_path(noise, 0.0, 10.0),
    }
    grid = kppsolve.Grid1D(0.0, 4.0, 5)
    sups = {}
    for name, path in paths.items():
        field0 = kppsolve.init("constant", grid, {"value": 0.3})
        traj = kppsolve.solve(field0, path, 5.0,
                              kppsolve.SolveConfig(dt=1e-3, margin=0.0))
        ref = equilibria.logistic_solution(0.3, path, traj.times)
        sups[name] = float(np.max(np.abs(traj.frames[:, 0] - ref)))

    # time order on the periodic path
    per = paths["periodic"]
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        field0 = kppsolve.init("constant", grid, {"value": 0.3})
        traj = kppsolve.solve(field0, per, 4.0,
                              kppsolve.SolveConfig(dt=dt, margin=0.0))
        ref = equilibria.logistic_solution(0.3, per, traj.times)
        errs.append(float(np.max(np.abs(traj.frames[:, 0] - ref))))
    t_order = math.log2(errs[0] / errs[2]) / 2.0

    # space order by Richardson pairs on nested grids
    con = paths["constant"]
    finals = []
    for k in range(3):
        g = kppsolve.make_grid(-10.0, 10.0, 0.4 / 2 ** k)
        f = kppsolve.init("compact-bump", g, {"lo": -4.0, "hi": 4.0})
        traj = kppsolve.solve(f, con, 0.25,
                              kppsolve.SolveConfig(dt=6.25e-5, margin=0.0))
        finals.append(traj.frames[-1][::2 ** k])
    e1 = float(np.max(np.abs(finals[0] - finals[1])))
    e2 = float(np.max(np.abs(finals[1] - finals[2])))
    x_order = math.log2(e1 / e2)

    worst = max(sups.values())
    ok = worst <= 5e-3 and abs(t_order - 1.0) <= 0.3 and abs(x_order - 2.0) <= 0.3
    _line(9, ok, "sup_err=%.3g t_order=%.2f x_order=%.2f"
          % (worst, t_order, x_order))
    for name, sup in sups.items():
        assert sup <= 5e-3, "%s sup error %.3g" % (name, sup)
    assert abs(t_order - 1.0) <= 0.3
    assert abs(x_order - 2.0) <= 0.3


def test_criterion_10_randomized_principles():
    worst = battery.run_battery(100, seed=2024)
    ok = all(v <= 1e-12 for v in worst.values())
    _line(10, ok, "comparison=%.2g maximum=%.2g monotone=%.2g"
          % (worst["comparison"], worst["maximum"], worst["monotone"]))
    assert worst["comparison"] <= 1e-12
    assert worst["maximum"] <= 1e-12
    assert worst["monotone"] <= 1e-12
