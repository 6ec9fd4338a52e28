"""Scalar logistic dynamics, the pullback equilibrium, and decay bounds."""

import math

import numpy as np
import pytest

from kpplab import coeff, equilibria

import oracles


def test_logistic_fixed_points_exact():
    p = coeff.make_periodic(1.0, 0.5, 3.0)
    ts = np.linspace(0, 10, 21)
    assert np.all(equilibria.logistic_solution(0.0, p, ts) == 0.0)
    assert np.max(np.abs(equilibria.logistic_solution(1.0, p, ts) - 1.0)) < 1e-15


def test_logistic_matches_adaptive_reference():
    paths = [coeff.make_constant(1.0),
             coeff.make_periodic(1.0, 0.5, 2 * math.pi),
             coeff.make_two_level()]
    ts = np.linspace(0.0, 8.0, 33)
    for p in paths:
        for u0 in (0.3, 2.0):
            ours = equilibria.logistic_solution(u0, p, ts)
            ref = oracles.ivp_logistic(u0, p, ts)
            err = float(np.max(np.abs(ours - ref)))
            assert err < 1e-7, "kind=%s u0=%g err=%g" % (
                p.describe()["kind"], u0, err)


def test_logistic_rejects_negative_start():
    with pytest.raises(ValueError):
        equilibria.logistic_solution(-0.1, coeff.make_constant(1.0), [0.0, 1.0])


def test_real_noise_ode_matches_adaptive_reference():
    noise = coeff.make_noise(17, t_lo=0.0, t_hi=12.0)
    # times on the noise grid, then times between its samples
    for ts in (np.linspace(0.0, 12.0, 49), np.linspace(0.0, 12.0, 50)):
        for u0 in (0.4, 1.7):
            ours = equilibria.real_noise_ode_solution(u0, noise, ts)
            ref = oracles.ivp_real_noise(u0, noise, ts)
            err = float(np.max(np.abs(ours - ref)))
            assert err < 1e-6, "u0=%g n=%d err=%g" % (u0, ts.size, err)
        assert np.all(equilibria.real_noise_ode_solution(0.0, noise, ts) == 0.0)


def test_history_weights_integral_differentiates_to_the_weights():
    # Q' = G: over [t - h, t + h] inside one panel, where G is linear, the
    # mean of G equals G(t) up to rounding (4e-12 here); interpolating log G
    # under the same trapezoid integral misses by 2e-7
    noise = coeff.make_noise(17, t_lo=0.0, t_hi=12.0)
    _, G = equilibria._weights(noise, 0.0, np.array([12.0]))
    ts = noise.t_lo + noise.dt * (np.arange(200, 12000, 97) + 0.5)
    h = 0.25 * noise.dt
    mean = G.integral(ts - h, ts + h) / (2.0 * h)
    assert np.max(np.abs(mean / G(ts) - 1.0)) < 1e-10


def test_truncation_horizon_controls_tail():
    noise = coeff.make_noise(8, xi_max=0.5, t_lo=-60.0, t_hi=60.0)
    for tol in (1e-6, 1e-8, 1e-10):
        T = equilibria.truncation_horizon(noise, tol)
        assert equilibria.tail_bound(noise, T) <= tol * (1 + 1e-12)
    # halving the tolerance lengthens the horizon
    assert equilibria.truncation_horizon(noise, 1e-10) \
        > equilibria.truncation_horizon(noise, 1e-6)


def test_equilibrium_values_bounded_by_noise_range():
    noise = coeff.make_noise(21, xi_max=0.5, t_lo=-60.0, t_hi=60.0)
    t_trunc = equilibria.truncation_horizon(noise)
    ys = equilibria.equilibrium_values(noise, np.linspace(0, 50, 501), t_trunc)
    lo = 1.0 + float(noise.values.min())
    hi = 1.0 + float(noise.values.max())
    assert float(ys.min()) > 0.9 * lo
    assert float(ys.max()) < 1.1 * hi
    assert equilibria.tail_bound(noise, t_trunc) < 1e-8


def test_equilibrium_solves_the_logistic_equation():
    noise = coeff.make_noise(33, xi_max=0.5, t_lo=-60.0, t_hi=30.0)
    ts = np.arange(0.0, 20.0 + 1e-12, noise.dt)
    ys = equilibria.equilibrium_values(noise, ts,
                                       equilibria.truncation_horizon(noise))
    # Y' = Y (1 + xi - Y) in panel-midpoint form, second order on the
    # sample grid, so what remains is model error and not differencing noise
    lhs = np.diff(np.log(ys)) / np.diff(ts)
    rhs = 1.0 + noise(0.5 * (ts[1:] + ts[:-1])) - 0.5 * (ys[1:] + ys[:-1])
    assert float(np.max(np.abs(lhs - rhs))) < 1e-3


def test_equilibrium_cocycle_identity():
    # evolving Y(0) forward along the same realization reproduces Y(t)
    noise = coeff.make_noise(5, xi_max=0.5, t_lo=-60.0, t_hi=60.0)
    ts = np.arange(0.0, 50.0 + 1e-12, 0.001)
    t_trunc = equilibria.truncation_horizon(noise)
    ys = equilibria.equilibrium_values(noise, ts, t_trunc)
    u = equilibria.real_noise_ode_solution(float(ys[0]), noise, ts)
    rel = np.abs(u / ys - 1.0)
    assert float(rel.max()) <= 2 * equilibria.tail_bound(noise, t_trunc) + 1e-9


def test_equilibrium_cocycle_identity_between_noise_samples():
    # at times between the noise samples both sides take the weight
    # exp(P(t)) exactly and share the sampled history integral, so the
    # identity holds to rounding; reading the weight off its linear
    # interpolant misses by 3e-6 here
    noise = coeff.make_noise(17, t_lo=-60.0, t_hi=12.0)
    ts = np.linspace(0.0, 12.0, 50)
    ys = equilibria.equilibrium_values(noise, ts,
                                       equilibria.truncation_horizon(noise))
    u = equilibria.real_noise_ode_solution(float(ys[0]), noise, ts)
    assert float(np.max(np.abs(u / ys - 1.0))) <= 1e-9


def test_stability_prefactor_frozen_values():
    assert equilibria.stability_bound(1.0, 1.0).M == 0.0
    assert equilibria.stability_bound(2.0, 2.0).M == pytest.approx(1.0)
    assert equilibria.stability_bound(0.5, 2.0).M == pytest.approx(2.0)
    with pytest.raises(ValueError):
        equilibria.stability_bound(0.0, 1.0)
    with pytest.raises(ValueError):
        equilibria.stability_bound(1.0, 0.5)


def test_decay_envelope_closed_form():
    p = coeff.make_constant(2.0)
    ts = np.array([0.0, 1.0, 3.0])
    env = equilibria.stability_bound(0.5, 2.0).envelope(p, ts)
    assert np.allclose(env, 2.0 * np.exp(-2.0 * ts), rtol=1e-12)


def test_scheme_slack_formula():
    assert equilibria.scheme_slack(0.1, 0.005) == pytest.approx(
        equilibria.SLACK_C1 * 0.01 + equilibria.SLACK_C2 * 0.005)


def _toy_trajectory(path, u0_values, t_end, dt, grid_n=9):
    from kpplab import kppsolve

    grid = kppsolve.Grid1D(0.0, 4.0, grid_n)
    field = kppsolve.init("custom-samples", grid,
                          {"values": np.asarray(u0_values, float)})
    cfg = kppsolve.SolveConfig(dt=dt, margin=0.0)
    return kppsolve.solve(field, path, t_end, cfg)


def test_verify_stability_decay_passes_for_valid_data():
    p = coeff.make_constant(1.0)
    rng = np.random.default_rng(2)
    u0 = rng.uniform(0.5, 2.0, size=9)
    traj = _toy_trajectory(p, u0, 5.0, 0.001)
    report = equilibria.verify_stability_decay(traj, p)
    assert report.passed, "violation %g at t=%g" % (report.max_violation,
                                                    report.worst_time)


def test_verify_stability_decay_detects_false_bound():
    p = coeff.make_constant(1.0)
    u0 = np.full(9, 2.0)
    traj = _toy_trajectory(p, u0, 3.0, 0.001)
    tiny = equilibria.StabilityBound(M=1e-4, u0_inf=2.0, u0_sup=2.0)
    report = equilibria.verify_stability_decay(traj, p, bound=tiny, slack=0.0)
    assert not report.passed
    assert report.max_violation > 0.1


def test_verify_stability_decay_rejects_nonpositive_data():
    p = coeff.make_constant(1.0)
    u0 = np.linspace(0.0, 1.0, 9)
    traj = _toy_trajectory(p, u0, 0.01, 0.001)
    with pytest.raises(ValueError):
        equilibria.verify_stability_decay(traj, p)


def test_verify_stability_decay_needs_the_recorded_dx():
    p = coeff.make_constant(1.0)
    u0 = np.random.default_rng(3).uniform(0.5, 2.0, size=9)
    traj = _toy_trajectory(p, u0, 2.0, 0.001)
    assert equilibria.verify_stability_decay(traj, p).slack > 0.0
    traj.meta = {"dt": 0.001}          # a run record without dx
    with pytest.raises(ValueError, match="dx"):
        equilibria.verify_stability_decay(traj, p)


def test_stability_report_csv_shape(tmp_path):
    p = coeff.make_constant(1.0)
    traj = _toy_trajectory(p, np.full(9, 1.5), 2.0, 0.001)
    report = equilibria.verify_stability_decay(traj, p)
    out = tmp_path / "stab.csv"
    report.to_csv(str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,sup_dist,bound,violation"
    assert len(lines) == 1 + report.times.size
