"""Randomized scheme-property battery shared by the property tests and the
acceptance suite.

Each case draws a grid, a coefficient path, a step size respecting the
scheme's gates, and initial data, then advances a short run and measures
violations of the discrete comparison principle, the maximum principle,
and monotone-in-x preservation.  All draws are seeded; any failure is
reproducible from the case index.
"""

import numpy as np

from kpplab import coeff, kppsolve


def random_path(rng):
    kind = rng.choice(["constant", "periodic", "two-level", "tabulated"])
    if kind == "constant":
        return coeff.make_constant(float(rng.uniform(0.3, 2.5)))
    if kind == "periodic":
        mean = float(rng.uniform(0.8, 2.0))
        amp = float(rng.uniform(0.1, 0.9)) * mean
        return coeff.make_periodic(mean, amp, float(rng.uniform(1.0, 20.0)))
    if kind == "two-level":
        return coeff.make_two_level()
    n = int(rng.integers(20, 60))
    vals = rng.uniform(0.3, 2.5, size=n)
    return coeff.TabulatedPath(0.0, float(rng.uniform(0.2, 1.0)), vals)


def random_grid(rng):
    n = int(rng.integers(31, 121))
    x_lo = float(rng.uniform(-20.0, 0.0))
    dx = float(rng.uniform(0.05, 0.3))
    return kppsolve.Grid1D(x_lo, x_lo + (n - 1) * dx, n)


def random_fields(rng, grid):
    """An ordered pair u0 <= v0 of nonnegative bounded initial data."""
    x = grid.x
    base = rng.uniform(0.0, 1.2)
    wob = rng.uniform(0.0, 0.6)
    u = np.clip(base + wob * np.sin(rng.uniform(0.2, 2.0) * x
                                    + rng.uniform(0, 6.3)), 0.0, 1.8)
    gap = rng.uniform(0.0, 0.5, size=x.size)
    v = u + gap
    return u, v


def _case_config(rng, path, grid, u_max, t0):
    horizon = float(rng.uniform(0.5, 2.0))
    steps = int(rng.integers(3, 12))
    dt_raw = horizon / steps
    a_max = path.max_on(t0, t0 + horizon)
    gate = 0.4 / (a_max * max(1.0, 2.0 * u_max - 1.0))
    moving = bool(rng.random() < 0.3)
    mu = float(rng.uniform(0.5, 1.5)) if moving else None
    dt = min(dt_raw, gate)
    if moving:
        c_max = (mu * mu + a_max) / mu
        dt = min(dt, 0.9 * grid.dx / c_max)
    # every step is stored so the checks see each one
    cfg = kppsolve.SolveConfig(dt=dt, mu=mu, margin=0.0, store_stride=1)
    return cfg, steps


def run_battery(n_cases, seed=1234):
    """Worst violations over n_cases random runs.

    Returns a dict with keys comparison, maximum, monotone; values are the
    largest observed violation (0 means exact at double precision).
    """
    rng = np.random.default_rng(seed)
    worst = {"comparison": 0.0, "maximum": 0.0, "monotone": 0.0}
    for case in range(n_cases):
        path = random_path(rng)
        grid = random_grid(rng)
        u0, v0 = random_fields(rng, grid)
        mono0 = np.sort(rng.uniform(0.0, 1.5, size=grid.n))[::-1].copy()
        u_max = max(float(v0.max()), float(mono0.max()), 1.0)
        cfg, steps = _case_config(rng, path, grid, u_max, 0.0)
        cap = max(1.0, u_max)
        t_end = steps * cfg.dt

        def run(values):
            # frame 0 is the initial data
            traj = kppsolve.solve(kppsolve.Field(grid, values), path, t_end, cfg)
            return traj.frames[1:]

        us, vs, ms = run(u0), run(v0), run(mono0)
        for fu, fv, fm in zip(us, vs, ms):
            worst["comparison"] = max(worst["comparison"],
                                      float(np.max(fu - fv)))
            over = max(float(fu.max()), float(fv.max())) - cap
            under = -min(float(fu.min()), float(fv.min()))
            worst["maximum"] = max(worst["maximum"], over, under)
            worst["monotone"] = max(worst["monotone"],
                                    float(np.max(np.diff(fm))))
    return worst
