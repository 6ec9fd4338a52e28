"""Memory held by trajectories: the frames exist once per solve, per binary
read or write, and per verifier call; the verifiers' copy-free reductions
give the same floats as the elementwise expressions they replace.

Each peak is measured with tracemalloc, which sees numpy's array buffers,
and compared with frames.nbytes of a trajectory on the certify grid
(2001 nodes, 801 frames, about 12 MiB).  A second copy of the frames
anywhere in the call shows as a ratio near 2 (near 1 for a write).
"""

import tracemalloc

import numpy as np
import pytest

from kpplab import coeff, equilibria, fronts, kppsolve


@pytest.fixture(scope="module")
def case():
    path = coeff.make_constant(1.0)
    grid = kppsolve.make_grid(-60.0, 140.0, 0.1)
    field0 = kppsolve.init("constant", grid, {"value": 0.5})
    config = kppsolve.SolveConfig(dt=0.005, store_stride=10, margin=0.0)
    return path, field0, config


@pytest.fixture(scope="module")
def traj(case):
    path, field0, config = case
    return kppsolve.solve(field0, path, 40.0, config)


def peak_ratio(traj, fn):
    """Peak traced allocation during fn(), in units of traj.frames.nbytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / traj.frames.nbytes


def test_trajectory_is_large_enough(traj):
    assert traj.frames.shape == (801, 2001)
    assert traj.frames.nbytes >= 2 ** 20


def test_solve_stores_frames_once(case, traj):
    path, field0, config = case
    assert peak_ratio(traj, lambda: kppsolve.solve(field0, path, 40.0, config)) <= 1.1


def test_to_binary_writes_without_a_copy(traj, tmp_path):
    out = tmp_path / "run.kpp2"
    assert peak_ratio(traj, lambda: traj.to_binary(out)) <= 0.1


def test_from_binary_reads_frames_once(traj, tmp_path):
    out = tmp_path / "run.kpp2"
    traj.to_binary(out)
    assert peak_ratio(traj, lambda: kppsolve.Trajectory.from_binary(out)) <= 1.1


def test_verify_stability_decay_makes_no_frame_copy(case, traj):
    path = case[0]
    assert peak_ratio(
        traj, lambda: equilibria.verify_stability_decay(traj, path)) <= 0.1


def test_tail_uniformity_makes_no_frame_copy(traj):
    x_hi = traj.grid.x_hi
    assert peak_ratio(traj, lambda: fronts.tail_uniformity(
        traj, [0.0, x_hi], (0.0, 40.0))) <= 0.1


# entries below 0.5, where 1 - u can round; in [0.5, 2], where u - 1 and
# 1 - u are exact; and above 2, where u - 1 rounds once u >= 2**53
RANGES = pytest.mark.parametrize("lo, hi", [(1e-3, 0.5), (0.5, 2.0),
                                            (2.0, 2.0 ** 54)])


def frames_in(lo, hi, seed, n_frames=40, n_nodes=60):
    """Frames with entries log-uniform in [lo, hi]."""
    rng = np.random.default_rng(seed)
    return np.exp(rng.uniform(np.log(lo), np.log(hi), (n_frames, n_nodes)))


@RANGES
def test_stability_deviations_equal_the_abs_expression(lo, hi):
    frames = frames_in(lo, hi, 7)
    traj = kppsolve.Trajectory(grid=kppsolve.Grid1D(0.0, 1.0, frames.shape[1]),
                               times=np.linspace(0.0, 1.0, frames.shape[0]),
                               frames=frames)
    report = equilibria.verify_stability_decay(
        traj, coeff.make_constant(1.0), bound=equilibria.stability_bound(lo, hi),
        slack=0.0)
    assert np.array_equal(report.deviations, np.max(np.abs(frames - 1.0), axis=1))


@RANGES
def test_tail_deviations_equal_the_abs_expression(lo, hi):
    grid = kppsolve.Grid1D(-10.0, 10.0, 60)
    times = np.linspace(0.0, 3.9, 40)
    probes, window = [-9.9, -3.0, 0.0, 10.0], (0.5, 2.0)
    rows = (times >= window[0] - 1e-12) & (times <= window[1] + 1e-12)
    for seed in range(20):
        frames = frames_in(lo, hi, seed)
        traj = kppsolve.Trajectory(grid=grid, times=times, frames=frames)
        expect = [np.max(np.abs(frames[rows][:, grid.x <= p] - 1.0))
                  for p in probes]
        assert fronts.tail_uniformity(traj, probes, window).deviations == \
            tuple(expect)
