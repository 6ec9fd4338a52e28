"""Solver mechanics: grids, initial data, stepping, storage, and errors."""

import ctypes
import math
import platform
import subprocess
from fractions import Fraction

import numpy as np
import pytest

from kpplab import _kernel, coeff, equilibria, kppsolve

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


def _kernel_march(bounds, rates, nus, d, e, u):
    """The compiled march of the field u whose gate never trips (dt sup a
    is 0 on every step)."""
    return _kernel.layout(bounds, rates, nus, d, e, np.zeros_like(rates),
                          kppsolve.GATE_LIMIT, u)


def _kernel_step(march, k):
    """(field, sups per run) after step k of the march's field, made by
    kpp_steps as one call."""
    out = np.empty(march.arrays[0][-1])
    assert _kernel.steps(march, k, k + 1, out.ctypes.data) == k + 1
    return out, np.array(march.tops[:march.runs])


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
    # with reaction rate 0 the step is the diffusion solve alone
    march = _kernel_march([0, n], np.zeros((1, 1)), None,
                          *kppsolve._diffusion_ldlt([g], dt), b)
    got, _ = _kernel_step(march, 0)
    assert float(np.max(np.abs(got - ref))) <= 1e-13 * float(np.max(np.abs(ref)))


# stacked grids as (n, dx): one large grid, grids of mixed n and dx down to
# the 3-node minimum, and seven equal grids as a shift family marches them
FACTOR_GRIDS = [[(5001, 0.1)],
                [(1660, 0.137), (3, 0.5), (1661, 0.05), (4, 0.2), (97, 0.1)],
                [(3701, 0.1)] * 7]


def _diffusion_matrix(grids, dt):
    """The diagonal and off-diagonal of the stacked diffusion matrix with
    halved end rows, unfactored, 0 between grids."""
    diag, off = [], []
    for g in grids:
        lam = dt / g.dx ** 2
        w = np.ones(g.n)
        w[0] = w[-1] = 0.5
        diag.append(w * (1.0 + 2.0 * lam))
        off.append(np.append(np.full(g.n - 1, -lam), 0.0))
    return np.concatenate(diag), np.concatenate(off)[:-1]


@pytest.mark.parametrize("grids", FACTOR_GRIDS)
@pytest.mark.parametrize("dt", [0.001, 0.003125, 0.005, 0.05, 0.2])
def test_factor_is_dpttrf_bitwise(grids, dt):
    # each run's twisted factor is LAPACK dpttrf on the block of rows lo to
    # its twist row m, and on the block of rows m to hi - 1 flipped; the
    # twist pivot takes the top elimination, then the bottom one
    from scipy.linalg.lapack import dpttrf

    grids = [kppsolve.Grid1D(0.0, dx * (n - 1), n) for n, dx in grids]
    a, b = _diffusion_matrix(grids, dt)
    bounds = np.append(0, np.cumsum([g.n for g in grids]))
    d, e, r = a.copy(), b.copy(), np.empty_like(a)
    assert _kernel.factor(bounds, d, e, r) == 0
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        m = oracles.twist(lo, hi)
        top_d, top_e, info = dpttrf(a[lo:m + 1], b[lo:m])
        assert info == 0
        assert np.array_equal(_bits(d[lo:m]), _bits(top_d[:-1]))
        assert np.array_equal(_bits(e[lo:m]), _bits(top_e))
        bottom_d, bottom_e, info = dpttrf(a[m:hi][::-1], b[m:hi - 1][::-1])
        assert info == 0
        assert np.array_equal(_bits(d[m + 1:hi]), _bits(bottom_d[-2::-1]))
        assert np.array_equal(_bits(e[m:hi - 1]), _bits(bottom_e[::-1]))
        pivot = float(a[m]) - float(e[m - 1]) * float(b[m - 1])
        assert pivot == top_d[-1]
        assert _bits(d[m]) == _bits(pivot - float(e[m]) * float(b[m]))
    # the zero coupling between runs is left alone
    assert np.all(_bits(e[bounds[1:-1] - 1]) == 0)
    # the solver's factor is this one, with its pivots as reciprocals
    for got, ref in zip(kppsolve._diffusion_ldlt(grids, dt), (r, e)):
        assert np.array_equal(_bits(got), _bits(ref))


@pytest.mark.parametrize("grids", FACTOR_GRIDS)
@pytest.mark.parametrize("dt", [0.001, 0.003125, 0.005, 0.05, 0.2])
def test_reciprocal_pivots_round_toward_zero(grids, dt):
    # r is 1 / d rounded toward zero: r <= 1 / d < the next float up,
    # exactly, so y r never exceeds y / d in magnitude and no step makes a
    # field higher than dividing would
    grids = [kppsolve.Grid1D(0.0, dx * (n - 1), n) for n, dx in grids]
    d, e = _diffusion_matrix(grids, dt)
    r = np.empty_like(d)
    bounds = np.append(0, np.cumsum([g.n for g in grids]))
    assert _kernel.factor(bounds, d, e, r) == 0
    assert np.all(r > 0.0)
    for dk, rk in set(zip(d.tolist(), r.tolist())):
        assert Fraction(rk) * Fraction(dk) <= 1 < \
            Fraction(math.nextafter(rk, math.inf)) * Fraction(dk), (dk, rk)


@pytest.mark.parametrize("d, e, info", [
    ([1.0, -1.0, 1.0, 1.0], [0.5, 0.5, 0.5], 2),    # an interior pivot
    ([1.0, 0.25, 1.0], [0.5, 0.0], 2),              # made 0 by the elimination
    ([1.0, 1.0, 0.0], [0.0, 0.0], 3),               # the last pivot only
    ([2.0, 2.0, 2.0], [1.0, 1.0], 0),
])
def test_factor_reports_dpttrfs_info(d, e, info):
    from scipy.linalg.lapack import dpttrf

    d, e = np.array(d), np.array(e)
    assert dpttrf(d, e)[2] == info
    assert _kernel.factor([0, d.size], d, e, np.empty_like(d)) == info


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


# (x_lo, dx, n, Heaviside step x0): at dt = 0.001 the tail ahead of the
# step on each of the first three grids passes through the subnormals at
# every step.  Nine runs of very different lengths are swept in groups of
# 3 (shortest 190), 3 (shortest 3) and 3 (shortest 4); five in groups of 3
# and 2 (shortest 3).
KERNEL_GRIDS = [(-10.0, 0.5, 200, 0.0), (-8.0, 0.4, 210, -2.0),
                (-12.0, 0.6, 190, 1.5), (-5.0, 0.3, 57, -1.0),
                (-1.0, 1.0, 3, 0.0), (-9.0, 0.45, 120, 0.5),
                (-11.0, 0.5, 260, 1.0), (-3.0, 0.25, 31, -0.5),
                (-2.0, 0.7, 4, 0.0)]


# one step of the twisted solve differs from the dpttrf/dpttrs step on the
# same field by at most this many units in the last place of the step's
# largest entry (2 measured on these runs, of at most 260 nodes)
LAPACK_ULPS = 2
# the same distance on the 5001-node take-over grid (at most 5 measured
# over the take-over run's 20000 steps, and 4 or 5 at nearly all of them)
TAKEOVER_LAPACK_ULPS = 5


@pytest.mark.parametrize("runs", [1, 3, 5, 9])
@pytest.mark.parametrize("mu", [None, 0.8])
def test_kernel_step_is_the_reference_step_bitwise(runs, mu):
    from scipy.linalg.lapack import dpttrf

    dt, n_steps = 0.001, 200
    grids, fields = [], []
    for x_lo, dx, n, x0 in KERNEL_GRIDS[:runs]:
        grids.append(kppsolve.Grid1D(x_lo, x_lo + dx * (n - 1), n))
        fields.append(kppsolve.init("heaviside", grids[-1], {"x0": x0}).values)
    bounds = np.append(0, np.cumsum([g.n for g in grids]))
    p = coeff.make_periodic(1.0, 0.5, 0.07)
    mids = np.array([p.shift(0.03 * r)((np.arange(n_steps) + 0.5) * dt)
                     for r in range(runs)])
    nus = None if mu is None else \
        (mu * mu + mids) / mu * dt / np.array([[g.dx] for g in grids])
    r, e = kppsolve._diffusion_ldlt(grids, dt)
    lapack_d, lapack_e, _ = dpttrf(*_diffusion_matrix(grids, dt))
    ref = np.concatenate(fields)
    march = _kernel_march(bounds, dt * mids, nus, r, e, ref)
    for k in range(n_steps):
        nu_k = None if nus is None else nus[:, k]
        got, tops = _kernel_step(march, k)
        lap, _ = oracles.lapack_step(ref, bounds, dt * mids[:, k], nu_k,
                                     lapack_d, lapack_e)
        ref, ref_top, n_flushed = oracles.float_step(ref, bounds, dt * mids[:, k],
                                                     nu_k, r, e)
        assert np.array_equal(_bits(got), _bits(ref)), "step %d" % k
        assert np.abs(lap - ref).max() <= \
            LAPACK_ULPS * np.spacing(np.abs(ref).max()), "step %d" % k
        assert np.array_equal(_bits(tops),
                              _bits(np.maximum.reduceat(ref, bounds[:-1])))
        assert _bits(tops.max()) == _bits(ref_top)
        assert n_flushed > 0, "step %d" % k


def test_kernel_step_near_the_lapack_step_on_the_take_over_grid():
    # the criterion-01 run (Heaviside, a = 1, dx 0.1, dt 0.005) marched by
    # the kernel into its front phase; at a few of its frames one kernel
    # step is compared with the dpttrf/dpttrs step of the same field
    from scipy.linalg.lapack import dpttrf

    g, dt = kppsolve.make_grid(-100.0, 400.0, 0.1), 0.005
    bounds = np.array([0, g.n])
    r, e = kppsolve._diffusion_ldlt([g], dt)
    lapack_d, lapack_e, _ = dpttrf(*_diffusion_matrix([g], dt))
    frames = kppsolve.march(kppsolve.init("heaviside", g, {}),
                            coeff.make_constant(1.0), 27.0,
                            kppsolve.SolveConfig(dt=dt, margin=0.0,
                                                 store_stride=200))
    checked = 0
    for t, u in frames:
        if t not in (20.0, 23.0, 27.0):
            continue
        u = np.array(u)
        got, _ = _kernel_step(_kernel_march(bounds, np.full((1, 1), dt), None,
                                            r, e, u), 0)
        lap, _ = oracles.lapack_step(u, bounds, np.array([dt]), None,
                                     lapack_d, lapack_e)
        # the level 1/2 has moved from x = 0 by about 2 t
        assert 30.0 < g.x[np.argmax(got < 0.5)] < 55.0, "t=%g" % t
        assert np.abs(lap - got).max() <= \
            TAKEOVER_LAPACK_ULPS * np.spacing(np.abs(got).max()), "t=%g" % t
        checked += 1
    assert checked == 3


def test_oracle_fma_rounds_once():
    # (1 + 2^-30)(1 - 2^-30) - 1 is -2^-60; rounding the product first
    # gives 1 - 1 = 0
    x, y = 1.0 + 2.0 ** -30, 1.0 - 2.0 ** -30
    assert x * y - 1.0 == 0.0
    assert oracles.fma(x, y, -1.0) == -2.0 ** -60
    # the exact sum rounded once, on both of the oracle's routes: products
    # far from 1 in size, subnormal ones, and sums that cancel
    rng = np.random.default_rng(19)
    for _ in range(3000):
        scale = np.exp2(rng.integers([-600, -600, -1074], [500, 500, 1000]))
        a, b, c = (float(v) for v in rng.uniform(-1.0, 1.0, 3) * scale)
        if rng.uniform() < 0.3:
            c = -a * b
        exact = float(Fraction(a) * Fraction(b) + Fraction(c))
        assert _bits(oracles.fma(a, b, c)) == _bits(exact), (a, b, c)


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64", "i686"),
                    reason="the sweeps are built twice on x86 only")
def test_step_bits_do_not_depend_on_the_fma_clone(tmp_path):
    # the library built with the sweeps' default clone alone, which calls
    # libm's fma, makes the same steps bitwise as the package's library,
    # which runs the FMA clone wherever the CPU has FMA
    with open(_kernel._SOURCE) as fh:
        source = fh.read()
    clones = '__attribute__((target_clones("fma", "default")))'
    assert source.count(clones) == 1
    (tmp_path / "step.c").write_text(source.replace(clones, ""))
    done = subprocess.run(["cc", *_kernel.FLAGS, "-o",
                           str(tmp_path / "step.so"), str(tmp_path / "step.c"),
                           "-lm"],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    plain = ctypes.CDLL(str(tmp_path / "step.so"))
    plain.kpp_steps.argtypes = _kernel.steps.argtypes
    plain.kpp_steps.restype = _kernel.steps.restype
    dt, n_steps = 0.001, 100
    grids, fields = [], []
    for x_lo, dx, n, x0 in KERNEL_GRIDS[:3]:
        grids.append(kppsolve.Grid1D(x_lo, x_lo + dx * (n - 1), n))
        fields.append(kppsolve.init("heaviside", grids[-1], {"x0": x0}).values)
    bounds = np.append(0, np.cumsum([g.n for g in grids]))
    rates = np.full((3, n_steps), 2.0 * dt)
    for nus in (None, np.full((3, n_steps), 0.3)):
        outs = []
        for steps in (_kernel.steps, plain.kpp_steps):
            march = _kernel_march(bounds, rates, nus,
                                  *kppsolve._diffusion_ldlt(grids, dt),
                                  np.concatenate(fields))
            out = np.empty(bounds[-1])
            assert steps(march, 0, n_steps, out.ctypes.data) == n_steps
            outs.append(out)
        assert np.array_equal(_bits(outs[0]), _bits(outs[1]))


def test_take_over_run_never_rises_above_1():
    # the take-over grid from a Heaviside start under a = 1, every step to
    # t = 30: a step multiplies by 1 / d rounded toward zero, never by more
    # than 1 / d, so no step lifts the field above 1 (with the nearest
    # reciprocals it reached 1 + 4.4e-16)
    f = kppsolve.init("heaviside", kppsolve.make_grid(-100.0, 400.0, 0.1), {})
    config = kppsolve.SolveConfig(dt=0.005, store_stride=1)
    tops = [u.max() for _, u in kppsolve.march(f, coeff.ConstantPath(1.0),
                                               30.0, config)]
    assert len(tops) == 6001
    assert max(tops) <= 1.0


@pytest.mark.parametrize("ns", [(3,), (4,), (100,), (101,), (3, 4),
                                (100, 101), (3, 4, 5, 100, 101)])
@pytest.mark.parametrize("lam", [0.05, 0.5, 40.0])
def test_step_is_exactly_monotone(ns, lam):
    # with reaction rate 0 the step is halving, the twisted solve and the
    # flush; every multiplier -e of both eliminations and every pivot is
    # positive and rounding is monotone, so u <= v gives step(u) <= step(v)
    # entrywise with no tolerance, subnormal tails and twist rows next to
    # an end (n = 3 and 4) included
    rng = np.random.default_rng(len(ns) * 1000 + sum(ns) + int(lam * 100))
    grids = [kppsolve.Grid1D(0.0, n - 1.0, n) for n in ns]
    bounds = np.append(0, np.cumsum(ns))
    factor = kppsolve._diffusion_ldlt(grids, lam)
    rates = np.zeros((len(ns), 1))
    size = int(bounds[-1])
    for _ in range(60):
        u = rng.uniform(0.0, 1.0, size) ** rng.uniform(1.0, 40.0)
        tail = rng.uniform(0.0, 1.0, size) < 0.4
        u[tail] = rng.choice([0.0, 5e-324, 1e-310, 1e-300, 2.3e-308], tail.sum())
        step = rng.choice([0.0, 5e-324, np.spacing(1.0), 1e-3], size)
        v = np.where(rng.uniform(0.0, 1.0, size) < 0.5, u, np.nextafter(u + step, 2.0))
        assert np.all(u <= v)
        out_u, _ = _kernel_step(_kernel_march(bounds, rates, None, *factor, u), 0)
        out_v, _ = _kernel_step(_kernel_march(bounds, rates, None, *factor, v), 0)
        assert np.all(out_u <= out_v)
        assert np.all(out_u >= 0.0)


def _identity_step(values):
    """The compiled step with reaction rate 0 and the factor of the identity
    on the values between two zero end entries: only the flush acts."""
    u = np.concatenate([[0.0], values, [0.0]])
    march = _kernel_march([0, u.size], np.zeros((1, 1)), None,
                          np.ones(u.size), np.zeros(u.size - 1), u)
    out, (top,) = _kernel_step(march, 0)
    return out[1:-1], top


def test_flush_changes_only_subnormals():
    tiny = kppsolve.TINY
    sub = np.nextafter(0.0, 1.0)
    u = np.array([-1.0, -tiny, -tiny / 2, -sub, -0.0, 0.0, sub, tiny / 2,
                  np.nextafter(tiny, 0.0), tiny, 1.0])
    out, top = _identity_step(u)
    keep = ~(np.abs(u) < tiny)
    assert np.array_equal(_bits(out[keep]), _bits(u[keep]))
    assert np.array_equal(_bits(out[~keep]), _bits(np.zeros(np.sum(~keep))))
    assert np.all(np.diff(out) >= 0.0)      # still non-decreasing
    assert top == 1.0


def test_kernel_sup_is_ndarray_max():
    rng = np.random.default_rng(5)
    for values in (rng.uniform(-2.0, 1.0, 50), -rng.uniform(1.0, 2.0, 7)):
        out, top = _identity_step(values)
        assert _bits(top) == _bits(np.append(out, 0.0).max())   # the two end zeros
    march = _kernel_march([0, 4], np.zeros((1, 1)), None, np.ones(4),
                          np.zeros(3), [-1.0, -2.0, -3.0, 4.0])
    out, (top,) = _kernel_step(march, 0)
    assert top == out[-1] == 2.0         # the last entry, halved
    # a NaN anywhere spreads through the sweeps and is the sup, as in numpy
    for at in (0, 3, 6):
        values = np.linspace(0.0, 1.0, 7)
        values[at] = math.nan
        out, top = _identity_step(values)
        assert math.isnan(top) and np.isnan(out).all()
    # an overflow to -inf stays in its own run, whichever side of the other
    # run it is on: the other run is bitwise its one-run step, and each
    # run's sup is ndarray.max of its own output
    g = kppsolve.Grid1D(0.0, 1.0, 5)
    alone, (alone_top,) = _kernel_step(
        _kernel_march([0, 5], np.full((1, 1), 0.1), None,
                      *kppsolve._diffusion_ldlt([g], 0.01), np.full(5, 0.5)), 0)
    for fine, big in ((slice(0, 5), slice(5, 10)), (slice(5, 10), slice(0, 5))):
        u = np.full(10, 0.5)
        u[big] = 1e308
        march = _kernel_march([0, 5, 10], np.full((2, 1), 0.1), None,
                              *kppsolve._diffusion_ldlt([g, g], 0.01), u)
        out, tops = _kernel_step(march, 0)
        assert np.all(out[big] == -math.inf)
        assert np.array_equal(_bits(out[fine]), _bits(alone))
        assert _bits(tops[fine.start // 5]) == _bits(out[fine].max()) \
            == _bits(alone_top)
        assert tops[big.start // 5] == -math.inf


class _NanMidpoint:
    """a = 1, except NaN at the midpoint t = 0.105 of the step from 0.1."""
    t_lo, t_hi = -math.inf, math.inf

    def __call__(self, t):
        return np.where(np.abs(t - 0.105) < 1e-9, math.nan, 1.0)

    def max_on(self, s, t):
        return np.ones_like(s)


def test_nan_in_the_field_reaches_the_gate(monkeypatch):
    # a NaN rate at step 10 makes the field NaN; every later step's gate
    # reads sup u NaN, which passes, until the stored frame at t = 0.2 fails
    # the finiteness check; no run's gate trips, so none is read in Python
    calls = []
    check = kppsolve._check_step_bounds

    def recorded(a_max, t, dt, u_max, grid, config):
        calls.append((round(t, 9), u_max))
        return check(a_max, t, dt, u_max, grid, config)

    monkeypatch.setattr(kppsolve, "_check_step_bounds", recorded)
    f = kppsolve.init("heaviside", kppsolve.make_grid(-5.0, 5.0, 0.5), {})
    with pytest.raises(RuntimeError, match="non-finite field values at t=0.2"):
        kppsolve.solve(f, _NanMidpoint(), 1.0,
                       kppsolve.SolveConfig(dt=0.01, store_stride=20, margin=0.0))
    assert calls == []


def test_nan_sup_a_passes_both_gates():
    # a NaN sup a makes the gate NaN, and NaN > limit is false in C as in
    # Python: the compiled loop makes the step rather than stop at it
    class NanSup(_NanMidpoint):
        def __call__(self, t):
            return np.ones_like(t)

        def max_on(self, s, t):
            return np.where(np.abs(s - 0.1) < 1e-9, math.nan, 1.0)

    f = kppsolve.init("heaviside", kppsolve.make_grid(-5.0, 5.0, 0.5), {})
    config = kppsolve.SolveConfig(dt=0.01, store_stride=20, margin=0.0)
    traj = kppsolve.solve(f, NanSup(), 1.0, config)
    ref = kppsolve.solve(f, coeff.make_constant(1.0), 1.0, config)
    assert np.array_equal(_bits(traj.frames), _bits(ref.frames))


def test_nan_run_stays_in_its_own_run(monkeypatch):
    # a NaN run marched ahead of a normal one fails as it does alone; until
    # then the normal run's frames are bitwise its own march, and the NaN
    # run's sup u trips neither run's gate
    bad = kppsolve.init("heaviside", kppsolve.make_grid(-5.0, 5.0, 0.5), {})
    good = kppsolve.init("heaviside", kppsolve.make_grid(-6.0, 9.0, 0.25), {})
    p = coeff.make_constant(1.0)
    config = kppsolve.SolveConfig(dt=0.01, store_stride=10, margin=0.0)
    alone = [u for _, u in kppsolve.march(good, p, 1.0, config)]
    with pytest.raises(RuntimeError, match="non-finite field values at t=0.2"):
        for _ in kppsolve.march(bad, _NanMidpoint(), 1.0, config):
            pass
    calls = []
    check = kppsolve._check_step_bounds

    def recorded(a_max, t, dt, u_max, grid, config):
        calls.append((grid, u_max))
        return check(a_max, t, dt, u_max, grid, config)

    monkeypatch.setattr(kppsolve, "_check_step_bounds", recorded)
    frames = []
    with pytest.raises(RuntimeError, match="non-finite field values at t=0.2"):
        for _, (_, u) in kppsolve.march_runs([bad, good], [_NanMidpoint(), p],
                                             1.0, config):
            frames.append(u)
    assert len(frames) == 2                 # t = 0 and 0.1
    for u, ref in zip(frames, alone):
        assert np.array_equal(_bits(u), _bits(ref))
    assert calls == []


def test_kernel_source_compiles_without_warnings(tmp_path):
    # built as the package builds it, where -O2 lets the compiler see a
    # chain's state used before it is set
    done = subprocess.run(["cc", *_kernel.FLAGS, "-Wall", "-Wextra", "-Werror",
                           "-o", str(tmp_path / "step.so"), _kernel._SOURCE,
                           "-lm"],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "step.so").exists()


def test_library_exports_one_step_entry_point():
    for name in ("kpp_steps", "kpp_factor", "kpp_ar1"):
        assert hasattr(_kernel._lib, name), name
    assert not hasattr(_kernel._lib, "kpp_step")


@pytest.mark.parametrize("a_hi, trips", [
    (4.0 * kppsolve.GATE_LIMIT, False),
    (np.nextafter(4.0 * kppsolve.GATE_LIMIT, math.inf), True),
])
def test_gate_boundary_is_the_python_gates(a_hi, trips):
    # one step of 0.25 from u = 0.5, so max(1, 2 sup u - 1) = 1: the second
    # run's gate reads 0.25 * a_hi, exactly GATE_LIMIT or the float above it
    g = kppsolve.make_grid(0.0, 5.0, 0.5)
    fields = [kppsolve.init("constant", g, {"value": 0.5})] * 2
    paths = [coeff.make_constant(1.0), coeff.make_constant(a_hi)]
    config = kppsolve.SolveConfig(dt=0.25, margin=0.0)
    joint = kppsolve.march_runs(fields, paths, 0.25, config)
    if not trips:
        assert [t for t, _ in joint] == [0.0, 0.25]
        return
    kind, message = _error_of(kppsolve.march(fields[1], paths[1], 0.25, config))
    assert kind is kppsolve.StepSizeError
    assert message.startswith("reaction step too large at t=0:")
    assert _error_of(joint) == (kind, message)


@pytest.mark.parametrize("bounds, n, match", [
    ([1, 5, 10], 10, "offsets from 0"),
    ([0, 5, 3], 3, "at least 3 nodes"),             # runs out of order
    ([0, 5, 5, 10], 10, "at least 3 nodes"),        # an empty run
    ([0, 2, 10], 10, "at least 3 nodes"),
    ([0, 5, 10], 12, "factor's size"),
    ([[0, 5, 10]], 10, "offsets from 0"),
])
def test_layout_rejects_bounds_that_overrun_the_vector(bounds, n, match):
    runs = max(np.size(bounds) - 1, 1)
    with pytest.raises(ValueError, match=match):
        _kernel_march(bounds, np.zeros((runs, 1)), None, np.ones(n),
                      np.zeros(n - 1), np.zeros(n))


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
    assert traj.times[traj.index_at(0.5)] == 0.5
    with pytest.raises(KeyError):
        traj.index_at(0.3)


@pytest.mark.parametrize("stride", [2.5, -3, 0])
def test_store_stride_must_be_a_positive_integer(stride):
    # 2.5 used to label frames with the wrong times and leave rows of solve's
    # frames unwritten, -3 ended the run in "generator raised StopIteration"
    # and 0 stood for the default
    with pytest.raises(ValueError, match="store_stride"):
        kppsolve.SolveConfig(dt=0.01, store_stride=stride)
    assert kppsolve.SolveConfig(dt=0.01, store_stride=np.int64(3)).store_stride == 3


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


def test_solve_config_rejects_nonpositive_mu():
    for mu in (0, -1):
        with pytest.raises(ValueError, match="positive exponent mu"):
            kppsolve.SolveConfig(0.01, mu=mu)


@pytest.mark.parametrize("name", ["dt", "mu", "margin"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_solve_config_rejects_non_finite_values(name, value):
    # dt=nan and margin=nan used to pass and fail inside march, naming no key
    keys = dict({"dt": 0.01}, **{name: value})
    with pytest.raises(ValueError, match="^%s must be finite, not %s$" % (name, value)):
        kppsolve.SolveConfig(**keys)


def test_frame_follows_mu():
    p = coeff.make_constant(1.0)
    g = kppsolve.make_grid(-3.0, 3.0, 0.25)
    f = kppsolve.init("front-like", g, {"mu": 0.8})
    for mu, frame in ((0.8, "moving"), (None, "fixed")):
        traj = kppsolve.solve(f, p, 0.1, kppsolve.SolveConfig(dt=0.005, mu=mu,
                                                               margin=0.0))
        assert traj.frame == frame
        assert traj.mu == mu


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


# -- several runs marched as one block-diagonal system --------------------

def _bits(u):
    return np.asarray(u).view(np.int64)


def _assert_joint_equals_alone(fields, paths, t_end, config):
    """Every view march_runs yields is bitwise the frame of that run's own
    march, at every stored time; returns the number of stored frames."""
    joint = list(kppsolve.march_runs(fields, paths, t_end, config))
    for r, (f, p) in enumerate(zip(fields, paths)):
        alone = list(kppsolve.march(f, p, t_end, config))
        assert [t for t, _ in alone] == [t for t, _ in joint]
        for (_, u), (_, us) in zip(alone, joint):
            assert np.array_equal(_bits(us[r]), _bits(u))
    return len(joint)


def test_march_runs_is_each_run_alone_on_different_grids():
    p = coeff.make_periodic(1.0, 0.5, 3.0)
    grids = [kppsolve.make_grid(-10.0, 40.0, 0.1),
             kppsolve.make_grid(-5.0, 20.0, 0.25),
             kppsolve.make_grid(-10.0, 30.0, 0.2)]
    fields = [kppsolve.init("heaviside", grids[0], {}),
              kppsolve.init("compact-bump", grids[1], {"lo": -2.0, "hi": 2.0}),
              kppsolve.init("front-like", grids[2], {"mu": 0.7})]
    paths = [p, p.shift(1.1), p.shift(2.4)]
    config = kppsolve.SolveConfig(dt=0.005, store_stride=90, margin=0.0)
    assert _assert_joint_equals_alone(fields, paths, 4.0, config) == 10


def test_march_runs_is_each_run_alone_in_the_moving_frame():
    p = coeff.make_periodic(1.0, 0.3, 4.0)
    grids = [kppsolve.make_grid(-15.0, 25.0, 0.1),
             kppsolve.make_grid(-20.0, 20.0, 0.125)]
    fields = [kppsolve.init("front-like", g, {"mu": 0.8}) for g in grids]
    config = kppsolve.SolveConfig(dt=0.002, mu=0.8, store_stride=200, margin=0.0)
    assert _assert_joint_equals_alone(fields, [p, p.shift(0.7)], 2.0, config) == 6


def _error_of(frames):
    with pytest.raises((kppsolve.StepSizeError, kppsolve.FrontMarginError)) as err:
        for _ in frames:
            pass
    return type(err.value), str(err.value)


@pytest.mark.parametrize("case", ["margin", "reaction", "cfl"])
def test_march_runs_raises_the_failing_runs_own_error(case):
    # one run fails mid-run; the others would finish; the joint march
    # raises what the failing run raises alone, at the same t
    safe = coeff.make_constant(1.0)
    if case == "margin":
        fields = [kppsolve.init("heaviside", kppsolve.make_grid(-20.0, x_hi, 0.2), {})
                  for x_hi in (200.0, 60.0)]
        paths, t_end = [safe, safe], 40.0
        config = kppsolve.SolveConfig(dt=0.01, margin=20.0)
    elif case == "reaction":
        # the two-level spike of test_step_size_gates trips the gate mid-run
        g = kppsolve.make_grid(0.0, 5.0, 0.5)
        fields = [kppsolve.init("constant", g, {"value": 1.0})] * 2
        paths, t_end = [safe, coeff.make_two_level()], 20.0
        config = kppsolve.SolveConfig(dt=0.2, margin=0.0)
    else:
        # c = 1 + a(t) reaches 2.9 > dx / dt = 2.5 on the finer grid only
        grids = [kppsolve.make_grid(-5.0, 5.0, 0.1), kppsolve.make_grid(-5.0, 5.0, 0.05)]
        fields = [kppsolve.init("front-like", g, {"mu": 1.0}) for g in grids]
        p = coeff.make_periodic(1.0, 0.9, 4.0)
        paths, t_end = [p, p], 4.0
        config = kppsolve.SolveConfig(dt=0.02, mu=1.0, margin=0.0)
    kind, message = _error_of(kppsolve.march(fields[1], paths[1], t_end, config))
    assert " at t=0:" not in message and "t=0;" not in message
    assert _error_of(kppsolve.march_runs(fields, paths, t_end, config)) == (kind, message)
    # the first run finishes alone
    for _ in kppsolve.march(fields[0], paths[0], t_end, config):
        pass


def test_a_step_the_kernel_refuses_never_passes_silently(monkeypatch):
    # should the Python gates ever pass a step the compiled gate refused,
    # the march stops there instead of yielding an unmade frame
    monkeypatch.setattr(kppsolve, "_check_step_bounds", lambda *args: None)
    g = kppsolve.make_grid(0.0, 5.0, 0.5)
    f = kppsolve.init("constant", g, {"value": 2.0})
    with pytest.raises(RuntimeError, match="refused the step from t=0,"):
        kppsolve.solve(f, coeff.make_constant(2.0), 0.2,
                       kppsolve.SolveConfig(dt=0.2))


def test_march_runs_gates_each_run_on_its_own_sups(monkeypatch):
    # run A: a = 2, u = 0.5; run B: a = 1, u = 1.5.  A gate with the largest
    # dt sup a and sup u of both would read 0.4 * 2 = 0.8 > 0.5 while run
    # B's sup u stays above 1.125; each run's own gate reads at most 0.4
    g = kppsolve.make_grid(0.0, 5.0, 0.5)
    fields = [kppsolve.init("constant", g, {"value": v}) for v in (0.5, 1.5)]
    paths = [coeff.make_constant(2.0), coeff.make_constant(1.0)]
    calls = []
    check = kppsolve._check_step_bounds

    def recorded(a_max, t, dt, u_max, grid, config):
        calls.append(round(t, 9))
        return check(a_max, t, dt, u_max, grid, config)

    monkeypatch.setattr(kppsolve, "_check_step_bounds", recorded)
    strided = kppsolve.SolveConfig(dt=0.2, store_stride=7, margin=0.0)
    assert _assert_joint_equals_alone(fields, paths, 6.0, strided) == 6
    # no run's own gate trips, so none is read in Python
    assert calls == []
    every = kppsolve.SolveConfig(dt=0.2, store_stride=1, margin=0.0)
    frames = dict(kppsolve.march_runs(fields, paths, 6.0, every))
    for t, us in kppsolve.march_runs(fields, paths, 6.0, strided):
        for u, ref in zip(us, frames[t]):
            assert np.array_equal(_bits(u), _bits(ref))


def test_march_runs_frames_survive_a_consumer_that_drops_them():
    # the march steps on from the last frame it yielded, so that frame must
    # outlive the consumer's references to it; 2 x 1001 nodes keep the
    # buffers out of numpy's small-block cache
    p = coeff.make_periodic(1.0, 0.5, 3.0)
    g = kppsolve.make_grid(-10.0, 40.0, 0.05)
    fields = [kppsolve.init("heaviside", g, {}),
              kppsolve.init("front-like", g, {"mu": 0.7})]
    paths = [p, p.shift(1.1)]
    config = kppsolve.SolveConfig(dt=0.005, store_stride=20, margin=0.0)
    alone = [[u for _, u in kppsolve.march(f, q, 1.0, config)]
             for f, q in zip(fields, paths)]
    frames = kppsolve.march_runs(fields, paths, 1.0, config)
    for j in range(len(alone[0])):
        if j % 3:
            next(frames)
            continue
        _, us = next(frames)
        for u, ref in zip(us, alone):
            assert np.array_equal(_bits(u), _bits(ref[j]))
        del us
    with pytest.raises(StopIteration):
        next(frames)


def test_march_runs_yields_read_only_views_and_checks_its_input():
    p = coeff.make_constant(1.0)
    g = kppsolve.make_grid(-5.0, 5.0, 0.5)
    fields = [kppsolve.init("heaviside", g, {}), kppsolve.init("constant", g, {})]
    config = kppsolve.SolveConfig(dt=0.01, store_stride=10, margin=0.0)
    held = list(kppsolve.march_runs(fields, [p, p], 0.3, config))
    for _, us in held:
        for u in us:
            with pytest.raises(ValueError, match="read-only"):
                u[0] = 1.0
            with pytest.raises(ValueError):
                u.flags.writeable = True
    assert np.array_equal(held[0][1][1], fields[1].values)
    late = kppsolve.Field(g, fields[0].values, 0.1)
    with pytest.raises(ValueError, match="start time"):
        next(kppsolve.march_runs([fields[0], late], [p, p], 0.3, config))
    with pytest.raises(ValueError, match="one path per"):
        next(kppsolve.march_runs(fields, [p], 0.3, config))
