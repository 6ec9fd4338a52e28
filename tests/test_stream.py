"""Stored and live runs give the same verdicts.

The stability, certify and takeover commands check each frame as
kppsolve.march yields it.  Every check a command sets up is recorded with
its arguments; the function form of that check, applied to solve()'s
Trajectory of the same run, must give a report equal to the live one in
every float, array and row.
"""

import dataclasses
import math

import numpy as np
import pytest

from kpplab import cli, equilibria, fronts, kppsolve, subsuper

# each check class with the function form that runs it on a Trajectory
FUNCTION_FORMS = [
    (equilibria, "StabilityCheck", equilibria.verify_stability_decay),
    (subsuper, "OrderingCheck", subsuper.certify_ordering),
    (fronts, "FrontTracker", fronts.track),
    (fronts, "TakeoverCheck", fronts.takeover_verify),
]

CONFIGS = {
    "stability": (cli.cmd_stability, {
        "path_kind": "periodic", "x_lo": 0.0, "x_hi": 50.0, "dx": 0.5,
        "dt": 0.01, "t_end": 5.0, "stride_time": 0.1, "margin": 0.0,
        "u0_inf": 0.5, "u0_sup": 2.0}),
    "certify": (cli.cmd_certify, {
        "path_kind": "constant", "x_lo": -20.0, "x_hi": 40.0, "dx": 0.25,
        "dt": 0.01, "t_end": 4.0, "stride_time": 0.1, "mu": 0.8,
        "mu_tilde": 1.0, "span": [0.0, 4.0]}),
    "takeover": (cli.cmd_takeover, {
        "path_kind": "constant", "x_lo": -20.0, "x_hi": 60.0, "dx": 0.25,
        "dt": 0.01, "t_end": 12.0, "stride_time": 0.5, "u0_kind": "heaviside",
        "fit_window": [2.0, 12.0], "h": 1.2, "t_checks": [6.0, 12.0],
        "inner_level": 0.95}),
}


def same(a, b):
    """Equal in every field, NaN equal to NaN."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b, equal_nan=True)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def live_run(monkeypatch, command, cfg):
    """The command's checks as (function form, arguments after the run),
    its live reports, and the arguments of its one march call."""
    checks, reports, marches = [], [], []
    with monkeypatch.context() as m:
        for owner, name, form in FUNCTION_FORMS:
            def recorded(*args, _cls=getattr(owner, name), _form=form, **kwargs):
                checks.append((_form, args[1:], kwargs))
                return _cls(*args, **kwargs)
            m.setattr(owner, name, recorded)
        march, verify = kppsolve.march, kppsolve.verify
        m.setattr(kppsolve, "march",
                  lambda *args: marches.append(args) or march(*args))
        m.setattr(kppsolve, "verify",
                  lambda *args: reports.extend(verify(*args)) or reports)
        code, _ = command(dict(cfg))
    assert code == cli.EXIT_OK
    assert len(marches) == 1 and len(reports) == len(checks) > 0
    return checks, reports, marches[0]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_stored_and_live_runs_give_the_same_reports(name, monkeypatch):
    command, cfg = CONFIGS[name]
    checks, reports, run_args = live_run(monkeypatch, command, cfg)
    stored = kppsolve.solve(*run_args)
    for (form, args, kwargs), live in zip(checks, reports):
        assert same(form(stored, *args, **kwargs), live), form.__name__
