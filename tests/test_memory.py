"""Memory held by trajectories: the frames exist once per solve, not at
all in a verifier call, and not at all in the stability, certify and
takeover commands, which check each frame as kppsolve.march yields it; the
verifiers' copy-free reductions give the same floats as the elementwise
expressions they replace.

Each peak is measured with tracemalloc, which sees numpy's array buffers,
and compared with frames.nbytes of a trajectory on the certify grid
(2001 nodes, 801 frames, about 12 MiB).  A second copy of the frames
anywhere in the call shows as a ratio near 2; a command that stored its
run would show a ratio of at least 1.
"""

import tracemalloc

import numpy as np
import pytest

from kpplab import cli, coeff, equilibria, kppsolve, subsuper


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


def test_verify_stability_decay_makes_no_frame_copy(case, traj):
    path = case[0]
    assert peak_ratio(
        traj, lambda: equilibria.verify_stability_decay(traj, path)) <= 0.1


# the memory-test grid and run as command configs: 801 frames of 2001 nodes
GRID_CFG = {"path_kind": "constant", "path_value": 1.0, "x_lo": -60.0,
            "x_hi": 140.0, "dx": 0.1, "dt": 0.005, "t_end": 40.0,
            "stride_time": 0.05}
COMMANDS = {
    "stability": (cli.cmd_stability, {"margin": 0.0, "u0_inf": 0.5,
                                      "u0_sup": 2.0}),
    "certify": (cli.cmd_certify, {"mu": 0.8, "mu_tilde": 1.0,
                                  "span": [0.0, 40.0]}),
    "takeover": (cli.cmd_takeover, {"u0_kind": "heaviside", "h": 0.5}),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_holds_no_trajectory(name, traj):
    command, keys = COMMANDS[name]
    cfg = dict(GRID_CFG, **keys)
    code, _ = command(dict(cfg))
    assert code == cli.EXIT_OK
    assert peak_ratio(traj, lambda: command(dict(cfg))) <= 0.1


def test_marched_frames_are_read_only_and_never_rewritten(case):
    path, field0, config = case
    held = [u for _, u in kppsolve.march(field0, path, 1.0, config)]
    for u in held:
        with pytest.raises(ValueError, match="read-only"):
            u[0] = 1.0
    assert np.array_equal(held, kppsolve.solve(field0, path, 1.0, config).frames)


def test_certify_initial_ordering_fails_before_any_step(monkeypatch):
    def no_step(*args):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(kppsolve, "_steps", no_step)
    cfg = dict(GRID_CFG, **COMMANDS["certify"][1], slack=-1.0)
    with pytest.raises(subsuper.InitialOrderingError):
        cli.cmd_certify(cfg)


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
