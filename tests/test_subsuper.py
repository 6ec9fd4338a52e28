"""Comparison profiles: admissibility, residual signs, and certification."""

import io
import math

import numpy as np
import pytest

from kpplab import cli, coeff, kppsolve, subsuper
from kpplab.equilibria import trajectory_slack

import oracles
from test_stream import same


def _flat_B(gamma=0.8, delta=0.84, span=(0.0, 40.0)):
    return coeff.build_B(coeff.make_constant(1.0), gamma=gamma, delta=delta,
                         span=span)


def test_lower_threshold_frozen_values():
    assert subsuper.lower_threshold(1.0, 1.5, 0.5, 0.0) == pytest.approx(4.0)
    assert subsuper.lower_threshold(0.8, 1.0, 0.16, 0.0) == pytest.approx(25.0)


def test_default_amplitude_dominates_threshold():
    for args in [(1.0, 1.5, 0.5), (0.8, 1.0, 0.16), (0.6, 0.75, 0.3)]:
        assert subsuper.default_amplitude(*args, 0.0) == pytest.approx(
            subsuper.lower_threshold(*args, 0.0))
        assert subsuper.default_amplitude(*args, 0.4) >= \
            subsuper.lower_threshold(*args, 0.4)


def test_choose_delta():
    assert subsuper.choose_delta(1.0, 0.8, 1.0) == pytest.approx(0.16)
    with pytest.raises(ValueError, match="no admissible delta"):
        subsuper.choose_delta(1.0, 1.0, 1.0)


def test_wave_params_validation():
    B = _flat_B()
    assert B.B_norm == pytest.approx(0.0, abs=1e-12)
    ok = subsuper.WaveParams(mu=0.8, mu_tilde=1.0, delta=0.16, d=25.0, B=B,
                             a_lower_est=1.0)
    assert ok.r == pytest.approx(1.25)
    with pytest.raises(ValueError, match="0 < mu < mu_tilde"):
        subsuper.WaveParams(mu=1.0, mu_tilde=0.8, delta=0.16, d=25.0, B=B,
                            a_lower_est=1.0)
    with pytest.raises(ValueError, match="2 mu"):
        subsuper.WaveParams(mu=0.5, mu_tilde=1.0, delta=0.16, d=25.0, B=B,
                            a_lower_est=4.0)
    with pytest.raises(ValueError, match="sqrt"):
        subsuper.WaveParams(mu=0.9, mu_tilde=1.1, delta=0.16, d=25.0, B=B,
                            a_lower_est=1.0)
    with pytest.raises(ValueError, match="delta"):
        subsuper.WaveParams(mu=0.8, mu_tilde=1.0, delta=1.2, d=25.0, B=B,
                            a_lower_est=1.0)
    with pytest.raises(ValueError, match="a_lower_est >"):
        subsuper.WaveParams(mu=0.8, mu_tilde=1.0, delta=0.5, d=25.0, B=B,
                            a_lower_est=1.0)
    with pytest.raises(ValueError, match="below threshold"):
        subsuper.WaveParams(mu=0.8, mu_tilde=1.0, delta=0.16, d=1.0, B=B,
                            a_lower_est=1.0)


def test_make_wave_params_periodic_defaults():
    p = coeff.make_periodic(1.0, 0.3, 2 * math.pi)
    params = subsuper.make_wave_params(p, 0.6, 0.75, span=(0.0, 40.0))
    assert 0 < params.delta < 1
    assert params.B.gamma == pytest.approx(0.45)
    assert params.d >= subsuper.lower_threshold(
        0.6, 0.75, params.delta, params.B.B_norm) - 1e-12
    assert params.mu_tilde <= math.sqrt(params.a_lower_est) + 1e-12


def test_frame_position_closed_forms():
    p1 = coeff.make_constant(1.0)
    assert kppsolve.frame_position(p1, 0.8, 10.0) == pytest.approx(20.5)
    p2 = coeff.make_periodic(1.0, 0.5, 2 * math.pi)
    t = 2 * math.pi
    want = (0.36 * t + t) / 0.6     # the oscillation integrates to zero
    assert kppsolve.frame_position(p2, 0.6, t) == pytest.approx(want, rel=1e-12)


def _fd_residual(curve, path, t, xs, ht=1e-5, hx=1e-3):
    """N[phi] = phi_t - phi_xx - a phi (1 - phi) by central differences."""
    xs = np.asarray(xs, dtype=float)
    phi = curve(t, xs)
    phi_t = (curve(t + ht, xs) - curve(t - ht, xs)) / (2 * ht)
    phi_xx = (curve(t, xs + hx) - 2 * phi + curve(t, xs - hx)) / hx ** 2
    return phi_t - phi_xx - float(path(t)) * phi * (1.0 - phi)


def test_supersolution_residual_is_nonnegative():
    p = coeff.make_periodic(1.0, 0.4, 5.0)
    sup = subsuper.supersolution(p, 0.8)
    for t in (0.7, 3.2, 11.0):
        c = float(kppsolve.frame_position(p, 0.8, t))
        xs = c + np.array([0.5, 1.0, 2.5, 5.0])      # right of the kink
        n = _fd_residual(sup, p, t, xs)
        phi = sup(t, xs)
        assert np.all(n >= -1e-6)
        # away from the cap the residual is exactly a phi^2
        assert np.allclose(n, float(p(t)) * phi ** 2, atol=1e-5)
        left = c - np.array([2.0, 5.0])              # capped region: constant 1
        assert np.allclose(_fd_residual(sup, p, t, left), 0.0, atol=1e-9)


def test_lower_solution_residual_is_nonpositive():
    p = coeff.make_periodic(1.0, 0.3, 2 * math.pi)
    params = subsuper.make_wave_params(p, 0.6, 0.75, span=(0.0, 40.0))
    low = subsuper.lower_solution(p, params)
    bps = params.B.breakpoints()
    mu, mu_t, d, r = params.mu, params.mu_tilde, params.d, params.r
    for t in (1.3, 7.7, 13.1):
        assert np.min(np.abs(bps - t)) > 1e-3       # keep FD off the corners
        edge = low.rho(t)
        xs = edge + np.array([0.05, 0.5, 1.5, 4.0, 9.0])
        n = _fd_residual(low, p, t, xs)
        assert np.all(n <= 1e-10), "residual %s at t=%g" % (n, t)
        # the residual has the closed form a phi^2 - (r-1)(eps + delta a
        # - mu mu_tilde) p2 with p2 the subtracted exponential
        a_t = float(p(t))
        eps = params.B.scale * a_t - float(params.B.Bprime(t))
        xi = xs - np.asarray(kppsolve.frame_position(p, mu, t))
        p2 = d * math.exp((r - 1.0) * -float(params.B.B(t))) * np.exp(-mu_t * xi)
        phi = low(t, xs)
        want = a_t * phi ** 2 - (r - 1.0) * (eps + params.delta * a_t
                                             - mu * mu_t) * p2
        assert np.allclose(n, want, atol=1e-9)


def test_lower_solution_vanishes_at_rho():
    p = coeff.make_constant(1.0)
    params = subsuper.make_wave_params(p, 0.8, 1.0, span=(0.0, 20.0))
    low = subsuper.lower_solution(p, params)
    for t in (0.0, 3.0, 12.5):
        edge = low.rho(t)
        assert float(low(t, [edge])[0]) == pytest.approx(0.0, abs=1e-12)
        assert float(low(t, [edge + 1.0])[0]) > 0


def test_capped_lower_profile_shape():
    p = coeff.make_constant(1.0)
    params = subsuper.make_wave_params(p, 0.8, 1.0, span=(0.0, 20.0))
    cap = subsuper.capped_lower(p, params)
    t = 4.0
    xp = cap.peak_position(t)
    xs = np.linspace(xp - 30.0, xp + 40.0, 7001)
    vals = cap(t, xs)
    peak = float(vals.max())
    assert 0 < peak < 1
    # flat left of the peak, continuous across it
    left = xs <= xp
    assert np.allclose(vals[left], peak, atol=1e-9)
    assert abs(float(cap(t, [xp + 1e-9])[0]) - peak) < 1e-6
    # numeric argmax of the uncapped profile agrees with peak_position
    base = subsuper.lower_solution(p, params)
    dense = np.linspace(xp - 5.0, xp + 5.0, 200001)
    assert abs(float(dense[np.argmax(base(t, dense))]) - xp) < 1e-3
    # the analytic peak value
    want = math.exp(-0.8 * (xp - float(kppsolve.frame_position(p, 0.8, t)))) \
        * (1.0 - 0.8 / 1.0)
    assert peak == pytest.approx(want, rel=1e-12)


def test_capped_lower_shift_rebuilds_primitive():
    p = coeff.make_periodic(1.0, 0.3, 2 * math.pi)
    params = subsuper.make_wave_params(p, 0.6, 0.75, span=(0.0, 40.0))
    cap = subsuper.capped_lower(p, params, t0_shift=5.0)
    assert cap.params.d >= params.d - 1e-12
    xs = np.linspace(-10.0, 30.0, 401)
    assert np.all(np.isfinite(cap(0.0, xs)))


def _toy_traj(frames, times=(0.0, 1.0), dx=1.0, dt=0.1):
    g = kppsolve.Grid1D(0.0, 4.0, 5)
    return kppsolve.Trajectory(grid=g, times=np.asarray(times, dtype=float),
                               frames=np.asarray(frames, dtype=float),
                               meta={"dx": dx, "dt": dt})


def test_certify_ordering_basics():
    traj = _toy_traj([np.full(5, 0.4), np.full(5, 0.4)])
    flat = subsuper.BoundCurve(kind="super", fn=lambda t, x: np.full_like(x, 0.9))
    rep = subsuper.certify_ordering(traj, flat, "above", slack=0.0)
    assert rep.passed
    assert rep.max_violation == pytest.approx(-0.5)
    assert len(rep.rows) == 2
    fading = _toy_traj([np.full(5, 1.0), np.full(5, 0.4)])
    rep2 = subsuper.certify_ordering(fading, flat, "below", slack=0.0)
    assert not rep2.passed and rep2.max_violation == pytest.approx(0.5)
    assert rep2.worst_time == pytest.approx(1.0)
    with pytest.raises(ValueError, match="relation"):
        subsuper.certify_ordering(traj, flat, "over")
    buf = io.StringIO()
    rep.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,max_violation,location"
    assert len(lines) == 3


def test_certify_ordering_reports_no_place_for_rounding():
    # an excess of one ulp of 0.5 moves from x = 2, t = 1 to x = 0, t = 0
    # under a change of 1.1e-16 in the field; its size is reported, its
    # time and place are not
    flat = subsuper.BoundCurve(kind="super", fn=lambda t, x: np.full_like(x, 0.5))
    ulp = np.spacing(0.5)
    first, later = np.full(5, 0.5), np.full(5, 0.5)
    later[2] += ulp
    moved = later.copy()
    moved[[0, 2]] = 0.5 + ulp, 0.5
    reports, tables = [], []
    for frames in ([first, later], [moved, first]):
        rep = subsuper.certify_ordering(_toy_traj(frames), flat, "above")
        buf = io.StringIO()
        rep.to_csv(buf)
        reports.append((rep.max_violation, rep.worst_time, rep.rows))
        tables.append(buf.getvalue())
    assert reports[0][0] == reports[1][0] == ulp
    assert math.isnan(reports[0][1]) and math.isnan(reports[1][1])
    assert tables[0].split()[1:] == ["0,0,nan", "1,1.11022302463e-16,nan"]
    assert tables[1].split()[1:] == ["0,1.11022302463e-16,nan", "1,0,nan"]
    # a violation above the rounding level keeps its time and place
    rep = subsuper.certify_ordering(_toy_traj([first, later + 1e-9]), flat,
                                    "above")
    assert rep.worst_time == 1.0 and rep.rows[1][2] == 2.0


def test_certify_ordering_initial_breach_is_an_error():
    traj = _toy_traj([np.full(5, 0.95), np.full(5, 0.4)])
    flat = subsuper.BoundCurve(kind="super", fn=lambda t, x: np.full_like(x, 0.9))
    with pytest.raises(subsuper.InitialOrderingError):
        subsuper.certify_ordering(traj, flat, "above", slack=0.0)


def test_certify_ordering_region_masks():
    vals = np.full(5, 0.4)
    vals[0] = 0.99                   # breach only at x = 0
    traj = _toy_traj([vals, vals])
    flat = subsuper.BoundCurve(kind="super", fn=lambda t, x: np.full_like(x, 0.9))
    rep = subsuper.certify_ordering(traj, flat, "above", slack=0.0,
                                    region=lambda t: (1.0, 4.0))
    assert rep.passed
    with pytest.raises(ValueError, match="empty comparison region"):
        subsuper.certify_ordering(traj, flat, "above", slack=0.0,
                                  region=lambda t: (10.0, 20.0))
    rho_bound = subsuper.BoundCurve(kind="lower",
                                    fn=lambda t, x: np.full_like(x, 0.2),
                                    rho=lambda t: 1.0)
    rep3 = subsuper.certify_ordering(traj, rho_bound, "below", slack=0.0)
    assert rep3.passed                # the x = 0 node is outside rho's region


def test_certify_against_solver_run():
    p = coeff.make_constant(1.0)
    params = subsuper.make_wave_params(p, 0.8, 1.0, span=(0.0, 5.0))
    g = kppsolve.make_grid(-40.0, 60.0, 0.1)
    sup = subsuper.supersolution(p, 0.8)
    f0 = kppsolve.init("custom-samples", g, {"values": sup(0.0, g.x)})
    traj = kppsolve.solve(f0, p, 5.0,
                          kppsolve.SolveConfig(dt=0.005, margin=0.0,
                                               store_stride=200))
    above = subsuper.certify_ordering(traj, sup, "above")
    assert above.passed and above.max_violation <= 1e-6
    low = subsuper.capped_lower(p, params)
    below = subsuper.certify_ordering(traj, low, "below")
    assert below.passed


def test_certify_ordering_needs_recorded_resolution():
    traj = _toy_traj([np.full(5, 0.4), np.full(5, 0.4)])
    flat = subsuper.BoundCurve(kind="super", fn=lambda t, x: np.full_like(x, 0.9))
    assert subsuper.certify_ordering(traj, flat, "above").slack == \
        trajectory_slack(traj)
    traj.meta = {}
    with pytest.raises(ValueError, match="dx and dt"):
        subsuper.certify_ordering(traj, flat, "above")
    assert subsuper.certify_ordering(traj, flat, "above", slack=0.0).passed


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _premise_cases():
    """(a maker of fresh paths, t_lo, t_hi) for each path kind, shifted and
    not, [t_lo, t_hi] inside the path's range."""
    tab = 1.5 + np.sin(np.arange(41))
    noise = coeff.make_noise(3, t_lo=-60.0, t_hi=15.0, dt=0.01)
    eq = coeff.equilibrium_path(noise, 0.0, 10.0)
    cases = [("constant", lambda: coeff.make_constant(1.3), 0.0, 40.0),
             ("periodic", lambda: coeff.make_periodic(1.0, 0.4, 5.0), 0.0, 40.0),
             ("two-level", coeff.make_two_level, 0.0, 40.0),
             ("tabulated", lambda: coeff.TabulatedPath(-1.0, 0.25, tab), -1.0, 9.0),
             ("noise-equilibrium", lambda: eq, 0.0, 10.0)]
    out = []
    for name, make, lo, hi in cases:
        out.append(pytest.param(make, lo, hi, id=name))
        out.append(pytest.param(lambda make=make: make().shift(0.7), lo - 0.7,
                                hi - 0.7, id=name + "-shifted"))
    return out


@pytest.mark.parametrize("make, t_lo, t_hi", _premise_cases())
def test_per_time_parts_match_scalar_calls(make, t_lo, t_hi):
    # OrderingCheck evaluates frame_position and the block primitive B once
    # over all the run's times; a bound at one time evaluates them at that
    # time alone.  Both give the same bits entry by entry.
    dt, stride = 0.005, 10
    times = t_lo + np.arange(0, int((t_hi - t_lo) / dt), stride) * dt
    rng = np.random.default_rng(5)
    B = coeff.build_B(make(), gamma=0.1, delta=0.5, span=(t_lo, t_hi))
    times = np.concatenate([times, B.breakpoints()[:-1],
                            rng.uniform(t_lo, t_hi, 100)])
    path = make()
    # a second fresh path for the scalar calls, so a two-level table grown
    # one call at a time is compared with one grown in a single call
    ref, ref_B = make(), coeff.build_B(make(), gamma=0.1, delta=0.5,
                                       span=(t_lo, t_hi))
    assert ref_B.T == B.T and np.array_equal(_bits(ref_B.eps), _bits(B.eps))
    ts = times.tolist()
    for s, t in ((np.full_like(times, t_lo), times), (times[:-1], times[1:])):
        want = [float(ref.integral(a, b)) for a, b in zip(s.tolist(), t.tolist())]
        assert np.array_equal(_bits(path.integral(s, t)), _bits(want))
    for mu, t0 in ((0.6, 0.0), (0.8, 0.0), (0.8, t_lo)):
        want = [float(kppsolve.frame_position(ref, mu, t, t0)) for t in ts]
        assert np.array_equal(
            _bits(kppsolve.frame_position(path, mu, times, t0)), _bits(want))
    want = [float(ref_B.B(t)) for t in ts]
    assert np.array_equal(_bits(B.B(times)), _bits(want))


def _periodic_run():
    p = coeff.make_periodic(1.0, 0.3, 2 * math.pi)
    params = subsuper.make_wave_params(p, 0.6, 0.75, span=(0.0, 12.0))
    g = kppsolve.make_grid(-30.0, 60.0, 0.1)
    sup = subsuper.supersolution(p, 0.6)
    f0 = kppsolve.init("custom-samples", g, {"values": sup(0.0, g.x)})
    traj = kppsolve.solve(f0, p, 12.0, kppsolve.SolveConfig(
        dt=0.005, margin=0.0, store_stride=20))
    return p, params, traj


def test_ordering_check_is_the_whole_grid_check_on_a_periodic_run():
    p, params, traj = _periodic_run()
    assert params.B.B_norm > 0.01           # A(t) and the amplitude move
    bounds = [(subsuper.supersolution(p, 0.6), "above"),
              (subsuper.lower_solution(p, params), "below"),
              (subsuper.capped_lower(p, params), "below"),
              (subsuper.capped_lower(p, params, t0_shift=3.0), "below")]
    slack = trajectory_slack(traj)
    for bound, relation in bounds:
        rep = subsuper.certify_ordering(traj, bound, relation)
        assert rep.passed
        assert same(rep, oracles.ordering_report(traj, traj.grid.x, bound,
                                                 relation, slack=slack))


def _breach_traj(n_frames=2):
    # u = 0.4 except 0.95 at x = 2, on the nodes 0, 1, ..., 4
    vals = np.full(5, 0.4)
    vals[2] = 0.95
    return _toy_traj([vals] * n_frames, times=np.arange(n_frames, dtype=float))


@pytest.mark.parametrize("rho, region", [
    (2.0, None),                        # rho on the breaching node
    (math.nextafter(2.0, 3.0), None),   # just right of it
    (-7.0, None), (4.0, None),          # left of the grid, the last node
    (None, (-5.0, 2.0)),                # partly off the grid, hi on a node
    (None, (math.nextafter(2.0, 3.0), 9.0)),
    (None, (2.0, 2.0)),                 # a single node
    (2.0, (3.0, 4.0)),                  # region overrides rho
])
def test_ordering_check_slices_as_the_whole_grid_mask(rho, region):
    traj = _breach_traj()
    flat = subsuper.BoundCurve(
        kind="super", fn=lambda t, x: np.full_like(x, 0.9),
        rho=None if rho is None else (lambda t: rho))
    reg = None if region is None else (lambda t: region)
    got = subsuper.certify_ordering(traj, flat, "above", reg, slack=0.5)
    want = oracles.ordering_report(traj, traj.grid.x, flat, "above", reg,
                                   slack=0.5)
    assert same(got, want)


@pytest.mark.parametrize("rho, region", [
    (math.nan, None), (4.5, None),
    (None, (10.0, 20.0)), (None, (-20.0, -10.0)), (None, (3.0, 2.0)),
    (None, (0.0, math.nan)), (None, (math.nan, 4.0)),
])
def test_ordering_check_empty_region_raises(rho, region):
    traj = _breach_traj()
    flat = subsuper.BoundCurve(
        kind="super", fn=lambda t, x: np.full_like(x, 0.9),
        rho=None if rho is None else (lambda t: rho))
    reg = None if region is None else (lambda t: region)
    with pytest.raises(ValueError, match="empty comparison region"):
        subsuper.certify_ordering(traj, flat, "above", reg, slack=0.5)
    with pytest.raises(ValueError, match="empty comparison region"):
        oracles.ordering_report(traj, traj.grid.x, flat, "above", reg,
                                slack=0.5)


@pytest.mark.parametrize("relation, level", [("above", 0.5), ("below", 0.95)])
@pytest.mark.parametrize("later_breach", [False, True])
def test_nan_in_a_stored_frame_fails_the_report(relation, level, later_breach):
    g = kppsolve.make_grid(0.0, 10.0, 1.0)
    frames = np.full((3, g.n), level)
    frames[1, 4] = math.nan
    if later_breach:
        frames[2, 7] = 0.9 + 0.05 if relation == "above" else 0.9 - 0.05
    traj = kppsolve.Trajectory(grid=g, times=np.array([0.0, 1.0, 2.0]),
                               frames=frames, meta={"dx": 1.0, "dt": 0.1})
    flat = subsuper.BoundCurve(kind="super", fn=lambda t, x: np.full_like(x, 0.9))
    rep = subsuper.certify_ordering(traj, flat, relation, slack=0.0)
    # the NaN fails the report, and a later finite violation does not
    # displace it as the worst
    assert not rep.passed
    assert math.isnan(rep.max_violation) and rep.worst_time == 1.0
    assert math.isnan(rep.rows[1][1]) and rep.rows[1][2] == 4.0
    assert cli._round12(rep.max_violation) is None
    assert same(rep, oracles.ordering_report(traj, g.x, flat, relation))


def test_nan_in_the_initial_frame_is_an_initial_ordering_error():
    frames = [np.full(5, 0.4), np.full(5, 0.4)]
    frames[0][1] = math.nan
    flat = subsuper.BoundCurve(kind="super", fn=lambda t, x: np.full_like(x, 0.9))
    with pytest.raises(subsuper.InitialOrderingError):
        subsuper.certify_ordering(_toy_traj(frames), flat, "above", slack=0.0)


def test_ordering_check_needs_the_runs_frame_times():
    traj = _toy_traj([np.full(5, 0.4), np.full(5, 0.4)])
    flat = subsuper.BoundCurve(kind="super", fn=lambda t, x: np.full_like(x, 0.9))
    check = subsuper.OrderingCheck(traj, flat, "above", slack=0.0)
    check.step(0.0, traj.frames[0])
    with pytest.raises(ValueError, match="stores t=1"):
        check.step(0.5, traj.frames[1])
