"""Solver mechanics: grids, initial data, stepping, storage, and errors."""

import ctypes
import math
import os
import platform
import subprocess
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from kpplab import _kernel, coeff, equilibria, fronts, kppsolve

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


def _kernel_march(bounds, rates, nus, r, e, f, u):
    """The compiled march of the field u whose gate never trips (dt sup a
    is 0 on every step)."""
    return _kernel.layout(bounds, rates, nus, r, e, f, np.zeros_like(rates),
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
    # each block [p, q) of a run, with twist row m, is LAPACK dpttrf on the
    # rows p to m and on the rows m to q - 1 flipped; the twist pivot takes
    # the top elimination, then the bottom one.  The whole factor, fill
    # multipliers (flushed to 0 below the smallest normal float) and
    # separator and interface pivots included, is the elimination written
    # out in Python floats (oracles.factor).
    from scipy.linalg.lapack import dpttrf

    grids = [kppsolve.Grid1D(0.0, dx * (n - 1), n) for n, dx in grids]
    a, b = _diffusion_matrix(grids, dt)
    bounds = np.append(0, np.cumsum([g.n for g in grids]))
    d, e = a.copy(), b.copy()
    f, r = np.empty(_kernel.fills(bounds)), np.empty_like(a)
    assert _kernel.factor(bounds, d, e, f, r) == 0
    for got, ref in zip((d, e, f), oracles.factor(bounds.tolist(), a, b)):
        assert np.array_equal(_bits(got), _bits(np.array(ref)))
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        _, halves = oracles.run_blocks(lo, hi)
        for side, (t, blocks) in enumerate(halves):
            for l, (p, q) in enumerate(blocks):
                if p == q:
                    continue
                m = oracles.twist(p, q)
                twist = float(a[m])
                if m > p:
                    top_d, top_e, info = dpttrf(a[p:m + 1], b[p:m])
                    assert info == 0
                    assert np.array_equal(_bits(d[p:m]), _bits(top_d[:-1]))
                    assert np.array_equal(_bits(e[p:m]), _bits(top_e))
                    twist -= float(e[m - 1]) * float(b[m - 1])
                    assert twist == top_d[-1]
                if m < q - 1:
                    bottom_d, bottom_e, info = dpttrf(a[m:q][::-1],
                                                      b[m:q - 1][::-1])
                    assert info == 0
                    assert np.array_equal(_bits(d[m + 1:q]),
                                          _bits(bottom_d[-2::-1]))
                    assert np.array_equal(_bits(e[m:q - 1]),
                                          _bits(bottom_e[::-1]))
                    twist -= float(e[m]) * float(b[m])
                assert _bits(d[m]) == _bits(twist)
    # pivots positive, multipliers and fill multipliers nonpositive, and
    # the zero coupling between runs left alone
    assert np.all(d > 0.0) and np.all(e <= 0.0) and np.all(f <= 0.0)
    assert np.all(_bits(e[bounds[1:-1] - 1]) == 0)
    # the solver's factor is this one, with its pivots as reciprocals
    for got, ref in zip(kppsolve._diffusion_ldlt(grids, dt), (r, e, f)):
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
    assert _kernel.factor(bounds, d, e, np.empty(_kernel.fills(bounds)), r) == 0
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
    assert _kernel.factor([0, d.size], d, e, np.empty(d.size + 2),
                          np.empty_like(d)) == info


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
# every step.  Runs of very different lengths, down to the 3-node minimum;
# the last five, of 5 to 9 nodes, have the interface row, the twist rows
# and the ends next to each other.
KERNEL_GRIDS = [(-10.0, 0.5, 200, 0.0), (-8.0, 0.4, 210, -2.0),
                (-12.0, 0.6, 190, 1.5), (-5.0, 0.3, 57, -1.0),
                (-1.0, 1.0, 3, 0.0), (-9.0, 0.45, 120, 0.5),
                (-11.0, 0.5, 260, 1.0), (-3.0, 0.25, 31, -0.5),
                (-2.0, 0.7, 4, 0.0), (-1.0, 0.5, 5, 0.0),
                (-1.5, 0.5, 6, 0.25), (-1.5, 0.5, 7, 0.0),
                (-2.0, 0.5, 8, -0.5), (-2.0, 0.5, 9, 0.0)]


# one step of the solver's solve differs from the dpttrf/dpttrs step on
# the same field by at most this many units in the last place of the
# step's largest entry (2 measured on these runs, of at most 260 nodes, in
# the eight-chain order as in the two-chain one before it)
LAPACK_ULPS = 2
# the same distance on the 5001-node take-over grid (at most 6 measured at
# every 200th step of the take-over run's 20000; 5 in the two-chain order)
TAKEOVER_LAPACK_ULPS = 6


@pytest.mark.parametrize("runs", [1, 3, 5, 9, 14])
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
    factor = kppsolve._diffusion_ldlt(grids, dt)
    lapack_d, lapack_e, _ = dpttrf(*_diffusion_matrix(grids, dt))
    ref = np.concatenate(fields)
    march = _kernel_march(bounds, dt * mids, nus, *factor, ref)
    for k in range(n_steps):
        nu_k = None if nus is None else nus[:, k]
        got, tops = _kernel_step(march, k)
        lap, _ = oracles.lapack_step(ref, bounds, dt * mids[:, k], nu_k,
                                     lapack_d, lapack_e)
        ref, ref_top, n_ftz, n_flushed = oracles.float_step(
            ref, bounds, dt * mids[:, k], nu_k, *factor)
        assert np.array_equal(_bits(got), _bits(ref)), "step %d" % k
        assert np.abs(lap - ref).max() <= \
            LAPACK_ULPS * np.spacing(np.abs(ref).max()), "step %d" % k
        assert np.array_equal(_bits(tops),
                              _bits(np.maximum.reduceat(ref, bounds[:-1])))
        assert _bits(tops.max()) == _bits(ref_top)
        # the tails cross the underflow range at every step: under FTZ the
        # operations make the 0s there, and the flush after the solve finds
        # no subnormal left; elsewhere it is the flush that makes them
        if oracles.FTZ:
            assert n_ftz > 0 and n_flushed == 0, "step %d" % k
        else:
            assert n_ftz == 0 and n_flushed > 0, "step %d" % k


def test_kernel_step_near_the_lapack_step_on_the_take_over_grid():
    # the criterion-01 run (Heaviside, a = 1, dx 0.1, dt 0.005) marched by
    # the kernel into its front phase; at a few of its frames one kernel
    # step is compared with the dpttrf/dpttrs step of the same field
    from scipy.linalg.lapack import dpttrf

    g, dt = kppsolve.make_grid(-100.0, 400.0, 0.1), 0.005
    bounds = np.array([0, g.n])
    factor = kppsolve._diffusion_ldlt([g], dt)
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
                                            *factor, u), 0)
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


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="steps run under flush-to-zero on x86-64 only")
def test_step_bits_do_not_depend_on_libms_fma():
    # the test above with glibc told that the CPU has no FMA (its
    # glibc.cpu.hwcaps tunable, from glibc 2.33), so that libm's fma, which
    # the default clone calls, is glibc's software one: under flush-to-zero
    # alone it loses the low parts of its split operands near 2^-1000
    env = dict(os.environ, GLIBC_TUNABLES="glibc.cpu.hwcaps=-AVX2,-FMA,-FMA4")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "%s::test_step_bits_do_not_depend_on_the_fma_clone" % __file__],
        env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert "1 passed" in done.stdout


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


# the take-over run marched to t = 30 (6000 steps) by the kernel is below
# the one-chain dpttrf/dpttrs march of the same steps by at most this
# (1.68e-13 measured; 4.95e-13 after all 20000 steps), and its plateau
# below 1 by at most TAKEOVER_PLATEAU (3.3e-16 measured, where the LAPACK
# march sits at 1): the bias of the reciprocal pivots rounded toward zero
TAKEOVER_DRIFT = 3.4e-13
TAKEOVER_PLATEAU = 6.7e-16


def test_take_over_drift_from_the_lapack_march_is_bounded():
    from scipy.linalg.lapack import dpttrf

    g, dt = kppsolve.make_grid(-100.0, 400.0, 0.1), 0.005
    bounds = np.array([0, g.n])
    lapack_d, lapack_e, _ = dpttrf(*_diffusion_matrix([g], dt))
    f = kppsolve.init("heaviside", g, {})
    *_, (t, got) = kppsolve.march(f, coeff.make_constant(1.0), 30.0,
                                  kppsolve.SolveConfig(dt=dt, margin=0.0,
                                                       store_stride=6000))
    assert t == 30.0
    ref = f.values.copy()
    for _ in range(6000):
        ref, _ = oracles.lapack_step(ref, bounds, np.array([dt]), None,
                                     lapack_d, lapack_e)
    assert np.all(got - ref <= 0.0)
    assert np.abs(got - ref).max() <= TAKEOVER_DRIFT
    assert 1.0 - TAKEOVER_PLATEAU <= got.max() <= 1.0


def _split_run(n_extra=0):
    """A Heaviside run of N_SPLIT + n_extra nodes, which march sweeps on two
    threads where two CPUs are allowed."""
    n = _kernel.N_SPLIT + n_extra
    g = kppsolve.Grid1D(-50.0, -50.0 + 0.1 * (n - 1), n)
    return kppsolve.init("heaviside", g, {})


@pytest.mark.parametrize("mu", [None, 1.0])
def test_split_march_is_the_one_thread_march_bitwise(monkeypatch, mu):
    # the same run marched with the CPUs this process has, two or more of
    # which split it, and with one CPU allowed, which does not: every frame
    # is the same, bit for bit, whatever the thread count
    f, p = _split_run(7), coeff.make_periodic(1.0, 0.5, 0.07)
    config = kppsolve.SolveConfig(dt=0.005, mu=mu, margin=0.0, store_stride=37)
    split = [u for _, u in kppsolve.march(f, p, 10.0, config)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    alone = [u for _, u in kppsolve.march(f, p, 10.0, config)]
    assert len(split) == len(alone) == 56
    for u, v in zip(split, alone):
        assert np.array_equal(_bits(u), _bits(v))


class _SpikeFrom1:
    """a = 1, with sup a = 1000 on every step from t = 1, so the gate
    refuses the step from t = 1."""
    t_lo, t_hi = -math.inf, math.inf

    def __call__(self, t):
        return np.ones_like(t)

    def max_on(self, s, t):
        return np.where(np.asarray(s) >= 1.0 - 1e-9, 1000.0, 1.0)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts the threads in /proc/self/task")
def test_no_thread_outlives_a_split_march():
    def counts():
        return len(os.listdir("/proc/self/task")), threading.active_count()

    f, p = _split_run(1), coeff.make_constant(1.0)
    config = kppsolve.SolveConfig(dt=0.005, margin=0.0, store_stride=20)
    before = counts()
    assert len(list(kppsolve.march(f, p, 2.0, config))) == 21
    frames = kppsolve.march(f, p, 2.0, config)
    next(frames), next(frames), next(frames)
    frames.close()
    with pytest.raises(kppsolve.StepSizeError, match="at t=1:"):
        for _ in kppsolve.march(f, _SpikeFrom1(), 2.0, config):
            pass
    # the front reaches the right margin, [30, 50], at about t = 12
    g = kppsolve.Grid1D(-250.0, 50.0, f.grid.n)
    near = kppsolve.init("heaviside", g, {})
    with pytest.raises(kppsolve.FrontMarginError, match="right"):
        for _ in kppsolve.march(near, p, 40.0, kppsolve.SolveConfig(
                dt=0.005, margin=20.0, store_stride=20)):
            pass
    assert counts() == before


# a C program that marches one run of `n` nodes with the march split and
# not split, in calls of 50 steps, in the fixed and the moving frame, and
# prints "equal" when both give the same bits.  ThreadSanitizer cannot run
# the loader's choice between the sweeps' clones (an ifunc resolver runs
# before its runtime is set up), so the program builds them once, for any
# CPU.
_RACE_PROGRAM = r"""
#define target_clones(...) used
#include "%(source)s"
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

enum { N = %(n)d, STEPS = 300, STRIDE = 50 };

static void run(int split, int moving, double *res)
{
    static double d[N], e[N], f[N + 2], u[N], spare[N], out[N];
    static double rates[STEPS], nus[STEPS], dta[STEPS];
    ptrdiff_t bounds[2] = {0, N};
    double tops[1] = {1.0}, lam = 0.5;

    for (ptrdiff_t i = 0; i < N; i++) {
        d[i] = 1.0 + 2.0 * lam;
        e[i] = -lam;
        u[i] = i < N / 3 ? 1.0 : 0.0;
    }
    d[0] = d[N - 1] = 0.5 * (1.0 + 2.0 * lam);
    if (kpp_factor(1, bounds, d, e, f, d) != 0)
        exit(3);
    for (ptrdiff_t k = 0; k < STEPS; k++) {
        rates[k] = 0.005;
        nus[k] = 0.1;
        dta[k] = 0.0;
    }
    struct kpp_march m = {1, STEPS, bounds, rates, moving ? nus : NULL, d, e,
                          f, dta, 0.5, spare, u, tops, split};
    for (ptrdiff_t k = 0; k < STEPS; k += STRIDE) {
        if (kpp_steps(&m, k, k + STRIDE, out) != k + STRIDE)
            exit(2);
        memcpy(u, out, sizeof u);
        m.u = u;
    }
    memcpy(res, u, sizeof u);
}

int main(void)
{
    static double a[N], b[N];

    for (int moving = 0; moving < 2; moving++) {
        run(1, moving, a);
        run(0, moving, b);
        if (memcmp(a, b, sizeof a) != 0) {
            puts("differ");
            return 1;
        }
    }
    puts("equal");
    return 0;
}
"""


def test_split_sweeps_have_no_data_race(tmp_path):
    # ThreadSanitizer watches every access of the two threads of a split
    # march; the test is skipped only where such a build cannot be made
    program = tmp_path / "race.c"
    program.write_text(_RACE_PROGRAM % {"source": _kernel._SOURCE,
                                      "n": _kernel.N_SPLIT + 11})
    done = subprocess.run(["cc", "-fsanitize=thread", "-pthread", "-O1", "-g",
                           "-ffp-contract=off", "-o", str(tmp_path / "race"),
                           str(program), "-lm"], capture_output=True, text=True)
    if done.returncode != 0:
        pytest.skip("no ThreadSanitizer build: %s" % done.stderr[-300:])
    run = subprocess.run([str(tmp_path / "race")], capture_output=True,
                         text=True, timeout=600)
    assert "ThreadSanitizer" not in run.stderr, run.stderr
    assert run.returncode == 0 and run.stdout.split() == ["equal"], \
        run.stdout + run.stderr


@pytest.mark.parametrize("ns", [(3,), (4,), (5,), (6,), (7,), (8,), (9,),
                                (100,), (101,), (3, 4), (100, 101),
                                (3, 4, 5, 100, 101), (5, 6, 7, 8, 9)])
@pytest.mark.parametrize("lam", [0.05, 0.5, 40.0])
def test_step_is_exactly_monotone(ns, lam):
    # with reaction rate 0 the step is halving, the twisted solve and the
    # flush; every multiplier -e of both eliminations and every pivot is
    # positive and rounding is monotone, so u <= v gives step(u) <= step(v)
    # entrywise with no tolerance, subnormal tails and twist rows next to
    # an end, and the interface and twist rows next to each other and to
    # the ends (n = 3 to 9) included
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
                          np.ones(u.size), np.zeros(u.size - 1),
                          np.zeros(u.size + 2), u)
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


def test_oracle_flushes_products_as_the_kernel_does():
    # each row of a step with reaction rate 0 and the identity's factor
    # with r = b is u b: products that Python rounds to +-TINY, some from
    # below _EDGE (a signed 0 under FTZ), some from between _EDGE and TINY
    # (TINY, as x86 decides tininess after rounding), some from above
    rng = np.random.default_rng(23)
    a = np.ldexp(rng.uniform(1.0, 2.0, 400), -511) * \
        rng.choice([-1.0, 1.0], 400)
    b = np.abs(kppsolve.TINY / a) * \
        (1.0 + rng.integers(-3, 4, 400) * 2.0 ** -53)
    exact = [abs(Fraction(p) * Fraction(q)) for p, q in zip(a, b)]
    assert sum(e < oracles._EDGE and p * q == kppsolve.TINY
               for e, p, q in zip(exact, np.abs(a), b)) > 10
    assert sum(oracles._EDGE <= e < kppsolve.TINY for e in exact) > 10
    u = np.concatenate([[0.0], a, [0.0]])
    march = _kernel_march([0, u.size], np.zeros((1, 1)), None,
                          np.concatenate([[1.0], b, [1.0]]),
                          np.zeros(u.size - 1), np.zeros(u.size + 2), u)
    got, _ = _kernel_step(march, 0)
    op = oracles.Arithmetic()
    ref = [op.mul(float(p), float(q)) for p, q in zip(a, b)]
    ref = np.array([0.0 if abs(v) < kppsolve.TINY else v for v in ref])
    assert np.array_equal(_bits(got[1:-1]), _bits(ref))
    assert (op.flushed > 10) == oracles.FTZ


@pytest.mark.parametrize("mu", [None, 0.8])
def test_subnormal_initial_data_steps_as_the_oracle(mu):
    # the caller's field may hold subnormals: a front-like tail through
    # the whole subnormal range, and TINY / 8, -TINY / 8 and the least
    # subnormal written into Heaviside tails.  Under FTZ the first
    # operation on each makes a signed 0, and the flush after the solve
    # makes every -0.0 a 0.0: the first stepped frame holds neither
    dt, n_steps = 0.001, 20
    grids, fields = [], []
    for x_lo, dx, n, x0 in KERNEL_GRIDS[:3]:
        grids.append(kppsolve.Grid1D(x_lo, x_lo + dx * (n - 1), n))
        fields.append(kppsolve.init("heaviside", grids[-1], {"x0": x0}).values)
    fields[0] = kppsolve.init("front-like", grids[0],
                              {"mu": 8.0, "x0": -60.0}).values
    fields[1][150::7] = kppsolve.TINY / 8
    fields[1][153::7] = -kppsolve.TINY / 8
    fields[2][120::5] = np.nextafter(0.0, 1.0)
    u = np.concatenate(fields)
    assert np.count_nonzero((u != 0.0) & (np.abs(u) < kppsolve.TINY)) > 20
    bounds = np.append(0, np.cumsum([g.n for g in grids]))
    rates = np.full((3, n_steps), 2.0 * dt)
    nus = None if mu is None else np.full((3, n_steps), 0.3)
    factor = kppsolve._diffusion_ldlt(grids, dt)
    march, ref = _kernel_march(bounds, rates, nus, *factor, u), u
    for k in range(n_steps):
        got, _ = _kernel_step(march, k)
        ref, _, n_ftz, n_flushed = oracles.float_step(
            ref, bounds, rates[:, k], None if nus is None else nus[:, k],
            *factor)
        assert np.array_equal(_bits(got), _bits(ref)), "step %d" % k
        if k == 0:
            assert not np.any((np.abs(got) < kppsolve.TINY) &
                              (_bits(got) != 0))
            assert n_ftz > 20 if oracles.FTZ else n_flushed > 20


def test_a_march_leaves_the_callers_floating_point_mode():
    # kpp_steps flushes underflow on x86-64 only for the length of a call,
    # on both threads of a split march, and restores the caller's mode on
    # every return: numpy and Python go on making subnormals after a split
    # march, a march refused at a step and a check that marches on a
    # worker thread, on the calling thread and on a thread that marched
    def gradual():
        return (np.float64(kppsolve.TINY) / 2.0 != 0.0 and
                math.ldexp(1.0, -1070) != 0.0)

    assert gradual()
    take_over = kppsolve.make_grid(-100.0, 400.0, 0.1)
    assert take_over.n >= _kernel.N_SPLIT
    for _ in kppsolve.march(kppsolve.init("heaviside", take_over, {}),
                            coeff.make_constant(1.0), 2.0,
                            kppsolve.SolveConfig(dt=0.005, store_stride=100)):
        pass
    assert gradual()
    # the spike case of test_step_size_gates, refused at its spike
    f = kppsolve.init("constant", kppsolve.make_grid(0.0, 5.0, 0.5),
                      {"value": 1.0})
    with pytest.raises(kppsolve.StepSizeError):
        kppsolve.solve(f, coeff.make_two_level(), 20.0,
                       kppsolve.SolveConfig(dt=0.2, margin=0.0))
    assert gradual()
    fronts.subadditivity_check(coeff.make_constant(1.0), [2.0, 4.0], dx=0.2,
                               dt=0.01, margin=30.0)
    assert gradual()
    seen = []

    def worker():
        for _ in kppsolve.march(_split_run(), coeff.make_constant(1.0), 1.0,
                                kppsolve.SolveConfig(dt=0.005, margin=0.0,
                                                     store_stride=50)):
            pass
        seen.append(gradual())

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    assert seen == [True]
    assert gradual()


def test_kernel_sup_is_ndarray_max():
    rng = np.random.default_rng(5)
    for values in (rng.uniform(-2.0, 1.0, 50), -rng.uniform(1.0, 2.0, 7)):
        out, top = _identity_step(values)
        assert _bits(top) == _bits(np.append(out, 0.0).max())   # the two end zeros
    march = _kernel_march([0, 4], np.zeros((1, 1)), None, np.ones(4),
                          np.zeros(3), np.zeros(6), [-1.0, -2.0, -3.0, 4.0])
    out, (top,) = _kernel_step(march, 0)
    assert top == out[-1] == 2.0         # the last entry, halved
    # a NaN anywhere spreads through the sweeps and is the sup, as in numpy:
    # in each block of a run of 43 nodes (interface row 21, separators 10
    # and 32, twist rows 4, 15, 26 and 37), on those rows, next to them
    # and at the ends
    for at in (0, 2, 4, 9, 10, 11, 15, 20, 21, 22, 26, 31, 32, 33, 37, 42):
        values = np.linspace(0.0, 1.0, 41)
        u = np.concatenate([[0.0], values, [0.0]])
        u[at] = math.nan
        march = _kernel_march([0, u.size], np.zeros((1, 1)), None,
                              np.ones(u.size), np.zeros(u.size - 1),
                              np.zeros(u.size + 2), u)
        out, (top,) = _kernel_step(march, 0)
        assert math.isnan(top) and np.isnan(out).all(), at
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
                      np.zeros(n - 1), np.zeros(n + 2 * runs), np.zeros(n))


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
