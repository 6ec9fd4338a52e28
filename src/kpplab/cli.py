"""Config-driven experiment commands emitting CSV/JSON artifacts.

Subcommands: mean | takeover | interval | stability | certify | sweep.
Every command reads one flat JSON object (--config) with optional
--set key=value overrides, rejects unknown keys outright, and writes a
self-describing JSON artifact (resolved config, seed, version) plus CSV
companions where a curve is involved.  Exit codes: 0 the claim checked
out, 2 usage or configuration error, 3 inconclusive (horizon or margin
too small to decide), 4 the claim is violated.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import coeff
from . import equilibria
from . import fronts
from . import kppsolve
from . import subsuper

__all__ = ["main", "cmd_mean", "cmd_takeover", "cmd_interval",
           "cmd_stability", "cmd_certify", "cmd_sweep", "ConfigError"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_VIOLATED = 4


class ConfigError(ValueError):
    """Bad or missing configuration keys; maps to the usage exit code."""


PATH_KEYS = {
    "path_kind", "path_value", "path_mean", "path_amplitude", "path_period",
    "seed", "noise_kappa", "noise_sigma", "noise_xi_max", "noise_dt",
    "path_t_lo", "path_t_hi", "tail_tol",
}
GRID_KEYS = {"x_lo", "x_hi", "dx"}
SOLVE_KEYS = {"dt", "t_end", "margin", "stride_time"}
U0_KEYS = {"u0_kind", "u0_x0", "u0_mu", "u0_height", "u0_lo", "u0_hi",
           "u0_value"}
OUT_KEYS = {"out_dir", "label"}

COMMAND_KEYS = {
    "mean": PATH_KEYS | OUT_KEYS | {"r_min", "horizon", "stride"},
    "takeover": PATH_KEYS | GRID_KEYS | SOLVE_KEYS | U0_KEYS | OUT_KEYS
        | {"level", "burn_in", "fit_window", "h", "t_checks", "r_min",
           "outer_tol", "inner_level"},
    "interval": PATH_KEYS | GRID_KEYS | SOLVE_KEYS | U0_KEYS | OUT_KEYS
        | {"c_grid", "shift_set", "t_probe", "thresholds"},
    "stability": PATH_KEYS | GRID_KEYS | SOLVE_KEYS | OUT_KEYS
        | {"u0_inf", "u0_sup", "u0_wavelength", "slack"},
    "certify": PATH_KEYS | GRID_KEYS | SOLVE_KEYS | OUT_KEYS
        | {"mu", "mu_tilde", "delta", "d", "span", "r_min", "slack"},
    "sweep": OUT_KEYS | {"sweep_command", "sweep_key", "sweep_values", "base"},
}


def _require(cfg, key, command):
    if key not in cfg:
        raise ConfigError("command %r needs config key %r" % (command, key))
    return cfg[key]


def _floats(cfg, **keys):
    """Keyword arguments {name: float(cfg[key])} for the keys the config
    sets; a key left out or null leaves the library's default in force."""
    return {name: float(cfg[key]) for name, key in keys.items()
            if cfg.get(key) is not None}


def _validate_keys(cfg, command):
    if command not in COMMAND_KEYS:
        raise ConfigError("unknown command %r" % command)
    allowed = COMMAND_KEYS[command]
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ConfigError("unknown config keys for %r: %s"
                          % (command, ", ".join(unknown)))


def path_from_config(cfg):
    """Build the coefficient path named by path_kind (default 'constant')."""
    kind = cfg.get("path_kind", "constant")
    if kind == "constant":
        return coeff.make_constant(float(cfg.get("path_value", 1.0)))
    if kind == "periodic":
        return coeff.make_periodic(float(cfg.get("path_mean", 1.0)),
                                   float(cfg.get("path_amplitude", 0.5)),
                                   float(cfg.get("path_period", 2 * math.pi)))
    if kind == "two-level":
        return coeff.make_two_level()
    if kind == "noise-equilibrium":
        # the raw noise is not a valid coefficient (it can be negative);
        # the equation always sees the positive equilibrium built from it
        if "seed" not in cfg:
            raise ConfigError("path_kind %r needs a seed" % kind)
        t_lo = float(cfg.get("path_t_lo", 0.0))
        t_hi = float(cfg.get("path_t_hi", 100.0))
        tol = _floats(cfg, tail_tol="tail_tol")

        def noise_from(history):
            return coeff.make_noise(int(cfg["seed"]), t_lo=t_lo - history, t_hi=t_hi,
                                    **_floats(cfg, kappa="noise_kappa",
                                              sigma="noise_sigma",
                                              xi_max="noise_xi_max",
                                              dt="noise_dt"))
        # 120 time units of history unless this realization's horizon needs
        # more; then enough for any realization, since xi > -xi_max
        noise = noise_from(120.0)
        if equilibria.truncation_horizon(noise, **tol) > 120.0:
            noise = noise_from(equilibria.truncation_horizon(
                noise, xi_inf=-noise.xi_max, **tol))
        return coeff.equilibrium_path(noise, t_lo, t_hi, **tol)
    raise ConfigError("unknown path_kind %r" % kind)


def _solve_setup(cfg, command):
    """(path, grid, solve config, t_end) of a command that runs one solve,
    after checking its keys."""
    _validate_keys(cfg, command)
    path = path_from_config(cfg)
    x_lo = float(_require(cfg, "x_lo", command))
    x_hi = float(_require(cfg, "x_hi", command))
    dx = float(_require(cfg, "dx", command))
    grid = kppsolve.make_grid(x_lo, x_hi, dx)
    dt = float(_require(cfg, "dt", command))
    stride = cfg.get("stride_time")
    stride = max(1, int(round(float(stride) / dt))) if stride else None
    config = kppsolve.SolveConfig(dt=dt, store_stride=stride,
                                  **_floats(cfg, margin="margin"))
    t_end = float(_require(cfg, "t_end", command))
    if t_end <= 0:
        raise ConfigError("t_end must be positive")
    return path, grid, config, t_end


def _u0_from_config(cfg, default_kind):
    """Initial-data spec {"kind": ..., <init params>} from the u0_* keys."""
    u0 = {"kind": cfg.get("u0_kind", default_kind)}
    for key, name in (("u0_x0", "x0"), ("u0_mu", "mu"), ("u0_height", "height"),
                      ("u0_lo", "lo"), ("u0_hi", "hi"), ("u0_value", "value")):
        if key in cfg:
            u0[name] = cfg[key]
    return u0


def _round12(obj):
    """Recursively round floats to 12 significant digits for stable output;
    non-finite floats become None (JSON null), keeping artifacts strict JSON."""
    if isinstance(obj, float):
        return float("%.12g" % obj) if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return _round12(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _round12(obj.tolist())
    return obj


def _write_artifact(cfg, command, results, *tables):
    """The command's JSON artifact; with out_dir set it is written as
    <label>.json, and each (suffix, table) pair of `tables` as
    <label><suffix>.csv through the table's to_csv.  The stored config
    leaves out_dir out: where a run is written is not part of it, so the
    same run gives the same bytes in any directory."""
    artifact = {
        "command": command,
        "version": __version__,
        "seed": cfg.get("seed"),
        "config": _round12({k: v for k, v in cfg.items() if k != "out_dir"}),
        "results": _round12(results),
    }
    out_dir = cfg.get("out_dir")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        name = cfg.get("label", command)
        path = os.path.join(out_dir, "%s.json" % name)
        with open(path, "w") as fh:
            json.dump(artifact, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        for suffix, table in tables:
            table.to_csv(os.path.join(out_dir, "%s%s.csv" % (name, suffix)))
    return artifact


def cmd_mean(cfg):
    _validate_keys(cfg, "mean")
    path = path_from_config(cfg)
    r_min = float(_require(cfg, "r_min", "mean"))
    horizon = _require(cfg, "horizon", "mean")
    if not (isinstance(horizon, (list, tuple)) and len(horizon) == 2):
        raise ConfigError("horizon must be a [start, end] pair")
    stride = cfg.get("stride")
    est = coeff.estimate_means(path, r_min, tuple(float(h) for h in horizon),
                               stride=float(stride) if stride else None)
    results = {
        "a_lower_est": est.a_lower_est, "a_hat_est": est.a_hat_est,
        "a_upper_est": est.a_upper_est, "speed_band": list(est.speed_band),
        "takeover_speed": est.takeover_speed, "n_windows": est.n_windows,
        "window_lengths": list(est.lengths),
    }
    code = EXIT_OK
    if not est.a_lower_est <= est.a_hat_est <= est.a_upper_est:
        code = EXIT_VIOLATED
    return code, _write_artifact(cfg, "mean", results)


def cmd_takeover(cfg):
    path, grid, config, t_end = _solve_setup(cfg, "takeover")
    u0 = _u0_from_config(cfg, "heaviside")
    field0 = kppsolve.init(u0.pop("kind"), grid, u0)
    try:
        traj = kppsolve.solve(field0, path, t_end, config)
    except kppsolve.FrontMarginError as exc:
        return EXIT_INCONCLUSIVE, _write_artifact(cfg, "takeover",
                                                  {"aborted": str(exc)})
    level = float(cfg.get("level", 0.5))
    trace = fronts.track(traj, levels=(level, 0.25) if level == 0.5 else (level,))
    try:
        est = fronts.estimate_speed(
            trace, level=level, **_floats(cfg, burn_in="burn_in"),
            window=tuple(cfg["fit_window"]) if "fit_window" in cfg else None)
    except ValueError as exc:
        return EXIT_INCONCLUSIVE, _write_artifact(cfg, "takeover",
                                                  {"aborted": str(exc)})
    results = {
        "speed": est.speed, "stderr": est.stderr, "window": list(est.window),
        "residual_rms": est.residual_rms, "endpoint_rate": est.endpoint_rate,
        "n_samples": est.n_samples, "level": est.level,
    }
    code = EXIT_OK
    if "h" in cfg:
        t_checks = cfg.get("t_checks") or [float(traj.times[-1])]
        report = fronts.takeover_verify(
            traj, path, float(cfg["h"]), [float(t) for t in t_checks],
            **_floats(cfg, r_min="r_min", outer_tol="outer_tol",
                      inner_level="inner_level"))
        results["takeover"] = {
            "passed": report.passed, "c_hat": report.c_hat, "h": report.h,
            "rows": [list(r) for r in report.rows],
        }
        if not report.passed:
            code = EXIT_VIOLATED
    return code, _write_artifact(cfg, "takeover", results, ("_trace", trace))


def cmd_interval(cfg):
    _validate_keys(cfg, "interval")
    path = path_from_config(cfg)
    c_grid = _require(cfg, "c_grid", "interval")
    shift_set = _require(cfg, "shift_set", "interval")
    t_probe = float(_require(cfg, "t_probe", "interval"))
    u0 = _u0_from_config(cfg, "front-like")
    domain = None
    if "x_lo" in cfg or "x_hi" in cfg:
        domain = (float(_require(cfg, "x_lo", "interval")),
                  float(_require(cfg, "x_hi", "interval")))
    kwargs = _floats(cfg, dx="dx", dt="dt", margin="margin")
    if "thresholds" in cfg:
        kwargs["thresholds"] = tuple(cfg["thresholds"])
    interval = fronts.probe_speed_interval(path, u0, c_grid, shift_set, t_probe,
                                           domain=domain, **kwargs)
    results = interval.to_dict()
    found = math.isfinite(interval.c_lo) and math.isfinite(interval.c_hi) \
        and interval.c_lo <= interval.c_hi
    code = EXIT_OK if (interval.monotone and found) else EXIT_INCONCLUSIVE
    return code, _write_artifact(cfg, "interval", results)


def cmd_stability(cfg):
    path, grid, config, t_end = _solve_setup(cfg, "stability")
    u0_inf = float(_require(cfg, "u0_inf", "stability"))
    u0_sup = float(_require(cfg, "u0_sup", "stability"))
    if not 0 < u0_inf <= u0_sup:
        raise ConfigError("need 0 < u0_inf <= u0_sup")
    wavelength = float(cfg.get("u0_wavelength", 25.0))
    mid = 0.5 * (u0_inf + u0_sup)
    amp = 0.5 * (u0_sup - u0_inf)
    vals = mid + amp * np.sin(2 * math.pi * grid.x / wavelength)
    field0 = kppsolve.init("custom-samples", grid, {"values": vals})
    traj = kppsolve.solve(field0, path, t_end, config)
    report = equilibria.verify_stability_decay(
        traj, path, bound=equilibria.stability_bound(u0_inf, u0_sup),
        **_floats(cfg, slack="slack"))
    results = {
        "passed": report.passed, "max_violation": report.max_violation,
        "worst_time": report.worst_time, "prefactor": report.prefactor,
        "slack": report.slack,
    }
    return (EXIT_OK if report.passed else EXIT_VIOLATED,
            _write_artifact(cfg, "stability", results, ("", report)))


def cmd_certify(cfg):
    path, grid, config, t_end = _solve_setup(cfg, "certify")
    mu = float(_require(cfg, "mu", "certify"))
    mu_tilde = float(_require(cfg, "mu_tilde", "certify"))
    span = tuple(float(s) for s in cfg.get("span", (0.0, t_end)))
    params = subsuper.make_wave_params(
        path, mu, mu_tilde, span,
        **_floats(cfg, delta="delta", d="d", r_min="r_min"))
    upper = subsuper.supersolution(path, mu)
    lower = subsuper.lower_solution(path, params)
    field0 = kppsolve.init("custom-samples", grid,
                           {"values": upper(0.0, grid.x)})
    traj = kppsolve.solve(field0, path, t_end, config)
    slack = _floats(cfg, slack="slack")
    above = subsuper.certify_ordering(traj, upper, "above", **slack)
    below = subsuper.certify_ordering(traj, lower, "below", **slack)
    results = {
        "params": {"mu": mu, "mu_tilde": mu_tilde, "delta": params.delta,
                   "d": params.d, "B_norm": params.B.B_norm,
                   "block_length": params.B.T},
        "above": {"passed": above.passed, "max_violation": above.max_violation,
                  "worst_time": above.worst_time, "slack": above.slack},
        "below": {"passed": below.passed, "max_violation": below.max_violation,
                  "worst_time": below.worst_time, "slack": below.slack},
    }
    passed = above.passed and below.passed
    return (EXIT_OK if passed else EXIT_VIOLATED,
            _write_artifact(cfg, "certify", results,
                            ("_above", above), ("_below", below)))


def _numeric_leaves(results, prefix=""):
    """(dotted key, value) for every numeric, non-bool value in nested
    result dicts; lists and nulls (non-finite results) are left out."""
    for k, v in results.items():
        if isinstance(v, dict):
            yield from _numeric_leaves(v, prefix + k + ".")
        elif isinstance(v, (int, float)) and not isinstance(v, bool):
            yield prefix + k, v


def _sweep_summary(cells):
    """{key: {min, median, max, count}} over the cells for every numeric
    result key, count being the number of cells that report it."""
    values = {}
    for cell in cells:
        for k, v in _numeric_leaves(cell["results"]):
            values.setdefault(k, []).append(v)
    return {k: {"min": min(v), "median": float(np.median(v)), "max": max(v),
                "count": len(v)} for k, v in values.items()}


def cmd_sweep(cfg):
    _validate_keys(cfg, "sweep")
    sub = _require(cfg, "sweep_command", "sweep")
    if sub not in COMMAND_KEYS or sub == "sweep":
        raise ConfigError("sweep_command must be a non-sweep command")
    key = cfg.get("sweep_key", "seed")
    values = _require(cfg, "sweep_values", "sweep")
    base = dict(_require(cfg, "base", "sweep"))
    if key not in COMMAND_KEYS[sub]:
        raise ConfigError("sweep_key %r is not a config key of %r" % (key, sub))
    base.pop("out_dir", None)   # cells stay in memory; only the sweep writes
    runner = COMMANDS[sub]
    outcomes = [runner({**base, key: value}) for value in values]
    cells = {}
    for value, (code, artifact) in zip(values, outcomes):
        cells["%s=%s" % (key, value)] = {"exit_code": code,
                                         "results": artifact["results"]}
    results = {"command": sub, "key": key,
               "cells": {k: cells[k] for k in sorted(cells)},
               "summary": _sweep_summary(cells.values())}
    worst = max(code for code, _ in outcomes)
    return worst, _write_artifact(dict(cfg, base=base), "sweep", results)


COMMANDS = {
    "mean": cmd_mean, "takeover": cmd_takeover, "interval": cmd_interval,
    "stability": cmd_stability, "certify": cmd_certify, "sweep": cmd_sweep,
}


def _parse_override(text):
    if "=" not in text:
        raise ConfigError("override %r is not key=value" % text)
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kpplab",
        description="Spreading-speed and stability experiments for the "
                    "time-dependent logistic reaction-diffusion equation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help="run the %s command" % name)
        p.add_argument("--config", help="flat JSON config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                       help="override a config key (repeatable)")
        p.add_argument("--out-dir", help="artifact directory")
    return parser


def load_config(args):
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold one JSON object")
        cfg.update(loaded)
    for item in args.set:
        key, value = _parse_override(item)
        cfg[key] = value
    if args.out_dir:
        cfg["out_dir"] = args.out_dir
    return cfg


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        code, artifact = COMMANDS[args.command](cfg)
    except (ConfigError, subsuper.InitialOrderingError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except kppsolve.FrontMarginError as exc:
        print("inconclusive: %s" % exc, file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (ValueError, KeyError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    summary = {k: v for k, v in artifact["results"].items()
               if not isinstance(v, (dict, list))}
    print(json.dumps({"command": args.command, "exit_code": code,
                      **_round12(summary)}, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
