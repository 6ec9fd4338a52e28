"""Solver mechanics: grids, initial data, stepping, storage, and errors."""

import io
import math

import numpy as np
import pytest

from kpplab import coeff, equilibria, kppsolve

import oracles


def test_make_grid_keeps_spacing_exact():
    g = kppsolve.make_grid(-100.0, 400.0, 0.1)
    assert g.dx == pytest.approx(0.1, abs=1e-15)
    assert g.n == 5001
    assert g.x[0] == -100.0


def test_grid_validation():
    with pytest.raises(ValueError):
        kppsolve.Grid1D(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        kppsolve.Grid1D(1.0, 0.0, 10)


def test_init_heaviside_single_ramp_cell():
    g = kppsolve.make_grid(-2.0, 2.0, 0.5)
    f = kppsolve.init("heaviside", g, {})
    assert np.all(f.values[g.x <= -0.5] == 1.0)
    assert np.all(f.values[g.x >= 0.5] == 0.0)
    assert f.values[g.x == 0.0] == 0.5


def test_init_front_like_formula():
    g = kppsolve.make_grid(-5.0, 5.0, 0.5)
    f = kppsolve.init("front-like", g, {"mu": 2.0, "x0": 1.0})
    expect = np.minimum(1.0, np.exp(-2.0 * (g.x - 1.0)))
    assert np.allclose(f.values, expect, rtol=1e-15)


def test_init_compact_bump_support():
    g = kppsolve.make_grid(-5.0, 5.0, 0.1)
    f = kppsolve.init("compact-bump", g, {"lo": -1.0, "hi": 2.0, "height": 0.7})
    assert float(f.values.max()) == pytest.approx(0.7, abs=1e-12)
    assert np.all(f.values[(g.x <= -1.0) | (g.x >= 2.0)] == 0.0)
    with pytest.raises(ValueError):
        kppsolve.init("compact-bump", g, {"lo": -10.0, "hi": 0.0})


def test_init_rejects_unknown_kind_and_stray_params():
    g = kppsolve.make_grid(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        kppsolve.init("plateau", g, {})
    with pytest.raises(ValueError):
        kppsolve.init("heaviside", g, {"x0": 0.0, "slope": 2.0})


def test_homogeneous_run_matches_logistic_closed_form():
    p = coeff.make_constant(1.0)
    g = kppsolve.Grid1D(0.0, 4.0, 5)
    f = kppsolve.init("constant", g, {"value": 0.5})
    cfg = kppsolve.SolveConfig(dt=1e-3, margin=0.0)
    traj = kppsolve.solve(f, p, 5.0, cfg)
    ref = equilibria.logistic_solution(0.5, p, traj.times)
    err = float(np.max(np.abs(traj.frames[:, 2] - ref)))
    assert err < 5e-3
    # spatial homogeneity is preserved exactly
    assert float(np.max(traj.frames.max(axis=1) - traj.frames.min(axis=1))) < 1e-13


def test_first_order_in_time():
    p = coeff.make_periodic(1.0, 0.4, 3.0)
    g = kppsolve.Grid1D(0.0, 4.0, 5)
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        f = kppsolve.init("constant", g, {"value": 0.3})
        traj = kppsolve.solve(f, p, 4.0, kppsolve.SolveConfig(dt=dt, margin=0.0))
        ref = equilibria.logistic_solution(0.3, p, traj.times)
        errs.append(float(np.max(np.abs(traj.frames[:, 0] - ref))))
    order = math.log2(errs[0] / errs[2]) / 2.0
    assert 0.7 <= order <= 1.3, "time order %.3f from errors %s" % (order, errs)


def test_second_order_in_space():
    # Richardson on nested dyadic grids; time error is held far below the
    # spatial one by a tiny dt.
    p = coeff.make_constant(1.0)
    t_end = 0.25
    diffs = []
    for k in range(3):
        dx = 0.4 / 2 ** k
        g = kppsolve.make_grid(-10.0, 10.0, dx)
        f = kppsolve.init("compact-bump", g, {"lo": -4.0, "hi": 4.0})
        traj = kppsolve.solve(f, p, t_end,
                              kppsolve.SolveConfig(dt=6.25e-5, margin=0.0))
        diffs.append(traj.frames[-1][::2 ** k])
    e1 = float(np.max(np.abs(diffs[0] - diffs[1])))
    e2 = float(np.max(np.abs(diffs[1] - diffs[2])))
    order = math.log2(e1 / e2)
    assert 1.7 <= order <= 2.3, "space order %.3f (pair errors %g, %g)" % (
        order, e1, e2)


def test_constants_are_scheme_fixed_points():
    p = coeff.make_two_level()
    g = kppsolve.make_grid(0.0, 10.0, 0.25)
    ones = kppsolve.init("constant", g, {"value": 1.0})
    traj = kppsolve.solve(ones, p, 2.0, kppsolve.SolveConfig(dt=0.005, margin=0.0))
    assert float(np.max(np.abs(traj.frames - 1.0))) < 1e-13
    zeros = kppsolve.init("constant", g, {"value": 0.0})
    traj = kppsolve.solve(zeros, p, 2.0, kppsolve.SolveConfig(dt=0.005, margin=0.0))
    assert float(np.max(np.abs(traj.frames))) == 0.0


@pytest.mark.parametrize("n", [3, 4, 257])
@pytest.mark.parametrize("lam", [0.05, 40.0])
def test_diffusion_solve_matches_dense_mirror_ghost(n, lam):
    g = kppsolve.Grid1D(0.0, 1.0, n)
    dt = lam * g.dx ** 2
    lam = dt / g.dx ** 2
    mat = (np.diag(np.full(n, 1.0 + 2.0 * lam))
           + np.diag(np.full(n - 1, -lam), 1) + np.diag(np.full(n - 1, -lam), -1))
    mat[0, 1] = mat[-1, -2] = -2.0 * lam    # mirror ghost nodes
    b = np.random.default_rng(n).uniform(0.0, 1.0, n)
    ref = np.linalg.solve(mat, b)
    got = kppsolve._diffusion_ldlt(g, dt)(b.copy())
    assert float(np.max(np.abs(got - ref))) <= 1e-13 * float(np.max(np.abs(ref)))


def test_stored_frames_have_no_subnormals():
    # backward Euler spreads the step to every node at once, so the tail far
    # ahead of the front decays through the subnormal range
    p = coeff.make_constant(1.0)
    g = kppsolve.make_grid(-20.0, 150.0, 0.1)
    f = kppsolve.init("heaviside", g, {})
    traj = kppsolve.solve(f, p, 5.0, kppsolve.SolveConfig(
        dt=0.005, margin=0.0, store_stride=10))
    frames = traj.frames
    assert not np.any((frames != 0.0) & (np.abs(frames) < kppsolve.TINY))
    assert np.count_nonzero(frames[-1]) > g.n // 4


def test_flush_changes_only_subnormals():
    tiny = kppsolve.TINY
    sub = np.nextafter(0.0, 1.0)
    u = np.array([-1.0, -tiny, -tiny / 2, -sub, -0.0, 0.0, sub, tiny / 2,
                  np.nextafter(tiny, 0.0), tiny, 1.0, math.nan])
    out = kppsolve._flush_subnormals(u.copy())
    keep = ~(np.abs(u) < tiny)
    assert np.array_equal(out[keep], u[keep], equal_nan=True)
    assert np.all(out[~keep] == 0.0)
    assert np.all(np.diff(out[:-1]) >= 0.0)      # still non-decreasing


def test_step_size_gates():
    p = coeff.make_constant(2.0)
    g = kppsolve.make_grid(0.0, 5.0, 0.5)
    f = kppsolve.init("constant", g, {"value": 2.0})
    with pytest.raises(kppsolve.StepSizeError):
        kppsolve.solve(f, p, 0.2, kppsolve.SolveConfig(dt=0.2))   # dt*a*(2u-1) = 1.2 > 0.5
    mv = kppsolve.SolveConfig(dt=0.2, mu=1.0)
    f2 = kppsolve.init("constant", g, {"value": 0.5})
    with pytest.raises(kppsolve.StepSizeError, match="CFL"):
        kppsolve.solve(f2, p, 0.2, mv)   # c=3, c*dt/dx = 1.2 > 1
    # mid-run: the two-level spike 4 (peak 4, width 4^-5) lies inside one
    # step of 0.2 and no step midpoint sees it; dt * 4 = 0.8 > 0.5 there,
    # while the level-2 plateaus give 0.4
    two = coeff.make_two_level()
    l, L = oracles.two_level_table(4)
    dt = 0.2
    f3 = kppsolve.init("constant", g, {"value": 1.0})    # a fixed point: sup u = 1
    with pytest.raises(kppsolve.StepSizeError) as err:
        kppsolve.solve(f3, two, 20.0, kppsolve.SolveConfig(dt=dt, margin=0.0))
    u_sup = 1.0
    first = next(k for k in range(100)
                 if dt * two.max_on(k * dt, k * dt + dt) * max(1.0, 2.0 * u_sup - 1.0)
                 > 0.5 + 1e-12)
    t_trip = 0.0 + first * dt
    assert t_trip < l[4] < L[4] < t_trip + dt
    assert float(two(t_trip + 0.5 * dt)) == 2.0
    assert "reaction step too large at t=%g:" % t_trip in str(err.value)


def test_gate_reads_the_path_once_per_solve():
    vals = 1.5 + 0.5 * np.sin(np.arange(301) * 0.1)
    path = coeff.TabulatedPath(0.0, 0.01, vals).shift(0.37)
    calls = []
    max_on = path.max_on

    def counted(s, t):
        calls.append(np.shape(s))
        return max_on(s, t)

    path.max_on = counted
    g = kppsolve.make_grid(0.0, 5.0, 0.5)
    f = kppsolve.init("constant", g, {"value": 0.5})
    kppsolve.solve(f, path, 2.0, kppsolve.SolveConfig(dt=0.01, margin=0.0))
    assert calls == [(200,)]


def test_margin_abort_names_the_side():
    p = coeff.make_constant(1.0)
    g = kppsolve.make_grid(-20.0, 60.0, 0.2)
    f = kppsolve.init("heaviside", g, {})
    with pytest.raises(kppsolve.FrontMarginError) as err:
        kppsolve.solve(f, p, 40.0, kppsolve.SolveConfig(dt=0.01, margin=20.0))
    assert "right" in str(err.value)


def test_solve_span_and_coverage_validation():
    g = kppsolve.make_grid(0.0, 5.0, 0.5)
    f = kppsolve.init("constant", g, {"value": 0.5})
    with pytest.raises(ValueError):
        kppsolve.solve(f, coeff.make_constant(1.0), 1.0005,
                       kppsolve.SolveConfig(dt=0.01, margin=0.0))
    short = coeff.TabulatedPath(0.0, 0.1, np.full(11, 1.0))   # covers [0, 1]
    with pytest.raises(ValueError):
        kppsolve.solve(f, short, 2.0, kppsolve.SolveConfig(dt=0.01, margin=0.0))


def test_store_stride_and_frame_lookup():
    p = coeff.make_constant(1.0)
    g = kppsolve.make_grid(0.0, 5.0, 0.5)
    f = kppsolve.init("constant", g, {"value": 0.5})
    traj = kppsolve.solve(f, p, 1.0,
                          kppsolve.SolveConfig(dt=0.01, store_stride=25, margin=0.0))
    assert np.allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    fr = traj.frame_at(0.5)
    assert fr.t == 0.5
    with pytest.raises(KeyError):
        traj.frame_at(0.3)


def test_store_keeps_last_frame_when_stride_does_not_divide_steps():
    p = coeff.make_periodic(1.0, 0.5, 3.0)
    g = kppsolve.make_grid(-5.0, 5.0, 0.25)
    f = kppsolve.init("compact-bump", g, {"lo": -2.0, "hi": 2.0, "height": 0.8})
    t0, dt = 0.3, 0.01
    f.t = t0
    every = kppsolve.solve(f, p, t0 + 1.0,
                           kppsolve.SolveConfig(dt=dt, store_stride=1, margin=0.0))
    traj = kppsolve.solve(f, p, t0 + 1.0,
                          kppsolve.SolveConfig(dt=dt, store_stride=30, margin=0.0))
    steps = np.array([0, 30, 60, 90, 100])
    assert np.array_equal(traj.times, t0 + steps * dt)
    assert np.array_equal(traj.frames, every.frames[steps])
    assert traj.frames.flags.c_contiguous and traj.frames.flags.owndata


def _moving_trajectory():
    p = coeff.make_periodic(1.0, 0.3, 4.0)
    g = kppsolve.make_grid(-3.0, 3.0, 0.25)
    f = kppsolve.init("front-like", g, {"mu": 0.8})
    return kppsolve.solve(f, p, 1.0, kppsolve.SolveConfig(
        dt=0.005, mu=0.8, margin=0.0))


def _assert_same_trajectory(back, traj):
    assert back.frame == "moving" and back.mu == pytest.approx(0.8)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.frames, traj.frames)
    assert np.allclose(back.frame_shift, traj.frame_shift)
    assert back.grid.n == traj.grid.n and back.grid.x_lo == traj.grid.x_lo
    assert back.meta == traj.meta


def test_trajectory_binary_roundtrip(tmp_path):
    traj = _moving_trajectory()
    path = tmp_path / "run.bin"
    traj.to_binary(str(path))
    _assert_same_trajectory(kppsolve.Trajectory.from_binary(str(path)), traj)
    # os.PathLike arguments are accepted as paths too
    _assert_same_trajectory(kppsolve.Trajectory.from_binary(path), traj)
    with pytest.raises(ValueError):
        kppsolve.Trajectory.from_binary(io.BytesIO(b"NOPE" + b"\0" * 64))


def test_trajectory_binary_roundtrip_in_memory(tmp_path):
    traj = _moving_trajectory()
    buf = io.BytesIO()
    traj.to_binary(buf)
    path = tmp_path / "run.bin"
    traj.to_binary(path)
    assert buf.getvalue() == path.read_bytes()
    buf.seek(0)
    back = kppsolve.Trajectory.from_binary(buf)
    _assert_same_trajectory(back, traj)
    assert back.frames.flags.writeable
    with pytest.raises(ValueError):
        kppsolve.Trajectory.from_binary(io.BytesIO(buf.getvalue()[:-8]))
    # a damaged frame count: 2**40 frames would need 16 TiB
    bad = (buf.getvalue()[:4] + np.asarray([2 ** 40], "<i8").tobytes()
           + buf.getvalue()[12:])
    with pytest.raises(ValueError, match="shorter than its header"):
        kppsolve.Trajectory.from_binary(io.BytesIO(bad))


def test_trajectory_binary_reads_kpp1_without_run_record():
    traj = _moving_trajectory()
    kpp1 = (b"KPP1" + np.asarray([traj.times.size, traj.grid.n], "<i8").tobytes()
            + np.asarray([traj.grid.x_lo, traj.grid.dx, 1.0, 0.8], "<f8").tobytes()
            + b"".join(np.asarray(a, "<f8").tobytes()
                       for a in (traj.times, traj.frame_shift, traj.frames)))
    back = kppsolve.Trajectory.from_binary(io.BytesIO(kpp1))
    assert back.meta == {}
    back.meta = traj.meta
    _assert_same_trajectory(back, traj)


def test_solve_config_rejects_nonpositive_mu():
    for mu in (0, -1):
        with pytest.raises(ValueError, match="positive exponent mu"):
            kppsolve.SolveConfig(0.01, mu=mu)


def test_frame_follows_mu_through_binary_roundtrip():
    p = coeff.make_constant(1.0)
    g = kppsolve.make_grid(-3.0, 3.0, 0.25)
    f = kppsolve.init("front-like", g, {"mu": 0.8})
    for mu, frame in ((0.8, "moving"), (None, "fixed")):
        traj = kppsolve.solve(f, p, 0.1, kppsolve.SolveConfig(dt=0.005, mu=mu,
                                                               margin=0.0))
        buf = io.BytesIO()
        traj.to_binary(buf)
        buf.seek(0)
        back = kppsolve.Trajectory.from_binary(buf)
        assert traj.frame == back.frame == frame
        assert back.mu == mu


def test_trajectory_csv_layout():
    p = coeff.make_constant(1.0)
    g = kppsolve.make_grid(0.0, 2.0, 0.5)
    f = kppsolve.init("constant", g, {"value": 0.5})
    traj = kppsolve.solve(f, p, 0.2, kppsolve.SolveConfig(dt=0.01, margin=0.0))
    buf = io.StringIO()
    traj.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1].split(",")[0] == "t"
    assert len(lines) == 2 + traj.times.size
    assert len(lines[2].split(",")) == 1 + g.n


def test_moving_frame_shift_is_exact_integral():
    p = coeff.make_periodic(1.0, 0.5, 2 * math.pi)
    g = kppsolve.make_grid(-5.0, 30.0, 0.1)
    f = kppsolve.init("front-like", g, {"mu": 0.8})
    mu = 0.8
    traj = kppsolve.solve(f, p, 4.0, kppsolve.SolveConfig(dt=0.002, mu=mu,
                                                           margin=0.0))
    ts = traj.times
    closed = (mu * mu * ts + p.integral(np.zeros_like(ts), ts)) / mu
    assert np.allclose(traj.frame_shift, closed, atol=1e-12)


def test_moving_frame_keeps_exponential_front_in_view():
    # In the comoving frame the half-level point relaxes by an O(1) shift
    # and then hovers; the frame itself travels ~41 space units meanwhile.
    from kpplab import fronts

    p = coeff.make_constant(1.0)
    g = kppsolve.make_grid(-25.0, 40.0, 0.1)
    f = kppsolve.init("front-like", g, {"mu": 0.8})
    traj = kppsolve.solve(f, p, 20.0,
                          kppsolve.SolveConfig(dt=0.002, mu=0.8, margin=0.0,
                                               store_stride=500))
    xs = fronts.track(traj, levels=(0.5,)).xs(0.5)
    assert float(np.max(np.abs(xs - xs[0]))) < 3.0
    assert traj.frame_shift[-1] == pytest.approx((0.8 ** 2 + 1.0) / 0.8 * 20.0,
                                                 rel=1e-10)


def test_suggest_domain_scales_with_horizon():
    p = coeff.make_constant(1.0)
    d50 = kppsolve.suggest_domain(p, 50.0)
    d100 = kppsolve.suggest_domain(p, 100.0)
    assert d100 > d50
    assert d100 == pytest.approx(2.0 * 100.0 * 1.1 + 50.0, rel=1e-12)
