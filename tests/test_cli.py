"""Command surface: config validation, artifacts, exit codes, sweeps."""

import json
import math
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import kpplab
from kpplab import cli, coeff


def test_unknown_keys_are_rejected():
    with pytest.raises(cli.ConfigError, match="bogus"):
        cli.cmd_mean({"r_min": 5.0, "horizon": [0, 50], "bogus": 1})


def test_missing_required_key():
    with pytest.raises(cli.ConfigError, match="horizon"):
        cli.cmd_mean({"r_min": 5.0})
    with pytest.raises(cli.ConfigError, match="pair"):
        cli.cmd_mean({"r_min": 5.0, "horizon": 50})


def test_path_from_config_kinds():
    assert cli.path_from_config({})(3.0) == 1.0
    assert cli.path_from_config({"path_kind": "constant",
                                 "path_value": 2.5})(0.0) == 2.5
    p = cli.path_from_config({"path_kind": "periodic", "path_mean": 1.0,
                              "path_amplitude": 0.5, "path_period": 4.0})
    assert p(0.0) == pytest.approx(1.0)
    two = cli.path_from_config({"path_kind": "two-level"})
    assert two.min_on(0.0, 300.0) > 0          # spikes dip but stay positive
    assert two.describe()["kind"] == "two-level"
    with pytest.raises(cli.ConfigError, match="seed"):
        cli.path_from_config({"path_kind": "noise-equilibrium"})
    with pytest.raises(cli.ConfigError, match="path_kind"):
        cli.path_from_config({"path_kind": "sawtooth"})


def test_noise_equilibrium_path_is_positive():
    eq = cli.path_from_config({"path_kind": "noise-equilibrium", "seed": 3,
                               "path_t_hi": 20.0})
    assert eq.min_on(0.0, 20.0) > 0.3
    assert eq.describe()["kind"] == "noise-equilibrium"


def test_noise_history_covers_the_truncation_horizon():
    # this realization's truncation horizon is 151.8, past the usual 120
    # units of noise history, so the history grows to the worst case
    cfg = {"path_kind": "noise-equilibrium", "seed": 3, "noise_sigma": 1.0,
           "noise_xi_max": 0.9, "r_min": 5.0, "horizon": [0, 100]}
    code, artifact = cli.cmd_mean(cfg)
    assert code == cli.EXIT_OK
    assert cli.path_from_config(cfg).meta["t_trunc"] > 120.0


def test_cmd_mean_artifact(tmp_path):
    code, artifact = cli.cmd_mean({
        "path_kind": "two-level", "r_min": 5.0, "horizon": [0, 300],
        "out_dir": str(tmp_path), "label": "m",
    })
    assert code == cli.EXIT_OK
    on_disk = json.loads((tmp_path / "m.json").read_text())
    assert on_disk["command"] == "mean"
    assert on_disk["version"]
    assert on_disk["config"]["r_min"] == 5.0
    res = on_disk["results"]
    assert res["a_lower_est"] <= res["a_hat_est"] <= res["a_upper_est"]
    assert res["takeover_speed"] == pytest.approx(
        2.0 * res["a_hat_est"] ** 0.5, rel=1e-9)
    assert artifact["results"]["n_windows"] >= 1


MEAN_CFG = {"path_kind": "two-level", "r_min": 5.0, "horizon": [0, 300]}


@pytest.mark.parametrize("command, cfg", [
    ("mean", MEAN_CFG),
    # a sweep ignores out_dir in its base config, so it is not stored either
    ("sweep", {"sweep_command": "mean", "sweep_key": "r_min",
               "sweep_values": [5.0], "base": dict(MEAN_CFG)}),
])
def test_artifact_bytes_do_not_depend_on_out_dir(tmp_path, command, cfg):
    for name in ("a", "b"):
        out = str(tmp_path / name)
        run = dict(cfg, out_dir=out, label="m")
        if "base" in run:
            run["base"] = dict(run["base"], out_dir=out)
        cli.COMMANDS[command](run)
    first = (tmp_path / "a" / "m.json").read_bytes()
    assert first == (tmp_path / "b" / "m.json").read_bytes()
    assert "out_dir" not in json.loads(first)["config"]


def test_main_config_file_and_overrides(tmp_path, capsys):
    cfg_file = tmp_path / "mean.json"
    cfg_file.write_text(json.dumps({"r_min": 5.0, "horizon": [0, 50]}))
    code = cli.main(["mean", "--config", str(cfg_file), "--set", "r_min=2",
                     "--out-dir", str(tmp_path)])
    assert code == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    summary = json.loads(line)
    assert summary["command"] == "mean"
    assert summary["a_hat_est"] == pytest.approx(1.0)
    on_disk = json.loads((tmp_path / "mean.json").read_text())
    assert on_disk["config"]["r_min"] == 2      # override wins over the file


def test_main_usage_errors(tmp_path, capsys):
    assert cli.main(["mean", "--set", "bogus=1"]) == cli.EXIT_USAGE
    assert "error:" in capsys.readouterr().err
    missing = tmp_path / "missing.json"
    assert cli.main(["mean", "--config", str(missing)]) == cli.EXIT_USAGE


_SHAPE_BASE = {
    "mean": {"r_min": 2.0, "horizon": [0, 20]},
    "takeover": {"x_lo": -10.0, "x_hi": 30.0, "dx": 0.5, "dt": 0.05,
                 "t_end": 2.0},
    "interval": {"c_grid": [2.0], "shift_set": [0.0], "t_probe": 2.0},
    "certify": {"x_lo": -10.0, "x_hi": 30.0, "dx": 0.5, "dt": 0.05,
                "t_end": 2.0, "mu": 0.8, "mu_tilde": 1.0},
    "sweep": {"sweep_command": "mean", "sweep_values": [1.0],
              "base": {"r_min": 2.0, "horizon": [0, 20]}},
}


@pytest.mark.parametrize("command, override", [
    ("takeover", "dx=null"), ("takeover", "dx=[1]"), ("takeover", "dt={}"),
    ("interval", "c_grid=2"), ("sweep", "sweep_values=3"),
    ("sweep", "sweep_values=[]"),
    ("takeover", "fit_window=3"), ("interval", "thresholds=0.5"),
    ("certify", "span=4"), ("mean", "r_min=abc"), ("mean", "seed=1.5"),
    ("mean", "seed=-1"),
])
def test_misshapen_value_is_a_usage_error_naming_the_key(command, override,
                                                         tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(_SHAPE_BASE[command]))
    code = cli.main([command, "--config", str(cfg_file), "--set", override])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert repr(override.split("=")[0]) in err


@pytest.mark.parametrize("stride", ["0", "-1", "nan"])
def test_mean_rejects_a_stride_that_is_not_positive(stride, capsys):
    code = cli.main(["mean", "--set", "r_min=5", "--set", "horizon=[0,50]",
                     "--set", "stride=" + stride])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: stride must be")


@pytest.mark.parametrize("command, overrides", [
    ("takeover", ["dx=0"]),
    ("takeover", ["dt=0", "stride_time=0.5"]),
    ("takeover", ["x_hi=1e309"]),
    ("takeover", ["x_lo=-1e309"]),
    ("interval", ["dx=0"]),
    ("mean", ["horizon=[0,1e309]"]),
    ("takeover", ["t_end=1e309"]),
    ("takeover", ["stride_time=1e309"]),
    ("takeover", ["stride_time=-5"]),
    ("takeover", ["stride_time=0"]),
    ("takeover", ["x_lo=0", "x_hi=1e17", "dx=0.5"]),
])
def test_degenerate_grid_step_or_horizon_is_a_usage_error(command, overrides,
                                                          tmp_path, capsys):
    # each used to end in a ZeroDivisionError, OverflowError or MemoryError
    # traceback, or (a stride_time of -5) to store every step
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(_SHAPE_BASE[command]))
    argv = [command, "--config", str(cfg_file)]
    for override in overrides:
        argv += ["--set", override]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("label", ["../../escape", "sub/run", "..", ".", ""])
def test_label_must_be_a_plain_file_name(label, tmp_path, capsys):
    out_dir = tmp_path / "a" / "b"
    code = cli.main(["mean", "--set", "r_min=5", "--set", "horizon=[0,50]",
                     "--set", "label=" + json.dumps(label),
                     "--out-dir", str(out_dir)])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: label must be a plain")
    assert list(tmp_path.rglob("*.json")) == []
    code = cli.main(["mean", "--set", "r_min=5", "--set", "horizon=[0,50]",
                     "--set", "label=plain", "--out-dir", str(out_dir)])
    assert code == cli.EXIT_OK
    assert [p.name for p in tmp_path.rglob("*.json")] == ["plain.json"]


def test_parse_override_forms():
    assert cli._parse_override("x=1.5") == ("x", 1.5)
    assert cli._parse_override("horizon=[0,50]") == ("horizon", [0, 50])
    assert cli._parse_override("u0_kind=heaviside") == ("u0_kind", "heaviside")
    with pytest.raises(cli.ConfigError):
        cli._parse_override("naked")


def _takeover_cfg(**extra):
    cfg = {
        "x_lo": -30.0, "x_hi": 120.0, "dx": 0.2, "dt": 0.01,
        "t_end": 40.0, "stride_time": 0.5, "fit_window": [20.0, 40.0],
    }
    cfg.update(extra)
    return cfg


def test_cmd_takeover_speed_and_trace(tmp_path):
    code, artifact = cli.cmd_takeover(_takeover_cfg(out_dir=str(tmp_path),
                                                    label="tk"))
    assert code == cli.EXIT_OK
    assert 1.8 <= artifact["results"]["speed"] <= 2.0
    trace_lines = (tmp_path / "tk_trace.csv").read_text().strip().splitlines()
    assert trace_lines[1] == "t,x_half,x_quarter"
    assert len(trace_lines) == 2 + 81       # header x2, then one row per 0.5 tu


def test_cmd_takeover_margin_abort_is_inconclusive():
    code, artifact = cli.cmd_takeover(_takeover_cfg(x_hi=60.0))
    assert code == cli.EXIT_INCONCLUSIVE
    assert "aborted" in artifact["results"]


def test_cmd_takeover_short_window_is_inconclusive():
    code, artifact = cli.cmd_takeover(_takeover_cfg(fit_window=[35.0, 40.0]))
    assert code == cli.EXIT_INCONCLUSIVE
    assert "10 time units" in artifact["results"]["aborted"]


def test_cmd_takeover_with_verification(tmp_path):
    code, artifact = cli.cmd_takeover(_takeover_cfg(
        x_hi=160.0, t_end=50.0, h=0.7, t_checks=[20.0, 50.0]))
    assert code == cli.EXIT_OK
    tk = artifact["results"]["takeover"]
    assert tk["passed"] and tk["c_hat"] == pytest.approx(2.0, abs=1e-9)


def test_cmd_interval_exit_codes():
    code, artifact = cli.cmd_interval({
        "c_grid": [1.4, 2.4], "shift_set": [0.0], "t_probe": 30.0,
        "dx": 0.2, "dt": 0.01,
    })
    assert code == cli.EXIT_OK
    res = artifact["results"]
    assert res["per_c"]["1.4"] == "spread"
    assert res["per_c"]["2.4"] == "vanish"
    assert res["c_lo"] == pytest.approx(1.4)
    assert res["c_hi"] == pytest.approx(2.4)
    # a grid of near-critical speeds only cannot bracket: inconclusive
    code2, artifact2 = cli.cmd_interval({
        "c_grid": [1.95, 2.05], "shift_set": [0.0], "t_probe": 30.0,
        "dx": 0.2, "dt": 0.01,
    })
    assert code2 == cli.EXIT_INCONCLUSIVE


_INTERVAL_ARGV = ["interval", "--set", "dx=0.2", "--set", "dt=0.01",
                  "--set", "c_grid=[1.5,2.5]", "--set", "shift_set=[0]",
                  "--set", "t_probe=10"]


def test_cmd_interval_default_thresholds_are_inconclusive_at_t_probe_10():
    assert cli.main(_INTERVAL_ARGV) == cli.EXIT_INCONCLUSIVE


@pytest.mark.parametrize("thresholds", ["[0.05,0.9]", "[0.5,0.5]", "[0.9,0]",
                                        "[1e309,0.05]", "[0.9,NaN]"])
def test_cmd_interval_thresholds_out_of_order_are_a_usage_error(thresholds,
                                                                capsys):
    # swapped, the thresholds used to call 1.5 a spread speed and exit 0
    # where the default ones exit 3
    assert cli.main(_INTERVAL_ARGV + ["--set", "thresholds=" + thresholds]) \
        == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: thresholds must be")


def test_cmd_takeover_empty_t_checks_is_a_usage_error(tmp_path, capsys):
    # an empty list used to become one check at t_end
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(_SHAPE_BASE["takeover"]))
    assert cli.main(["takeover", "--config", str(cfg_file), "--set", "h=0.7",
                     "--set", "t_checks=[]"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: need at least one check time\n"


def test_cmd_interval_passes_u0_value():
    # constant data 0.3 under a = 1 follows the logistic curve, reaching
    # 0.3 / (0.7 e^-1 + 0.3) ~ 0.538 at t = 1: neither spread nor vanish
    code, artifact = cli.cmd_interval({
        "c_grid": [1.0], "shift_set": [0.0], "t_probe": 1.0,
        "dx": 0.2, "dt": 0.01, "x_lo": -10.0, "x_hi": 20.0, "margin": 5.0,
        "u0_kind": "constant", "u0_value": 0.3,
    })
    assert code == cli.EXIT_INCONCLUSIVE
    res = artifact["results"]
    assert res["per_c"] == {"1": "undecided"}
    want = 0.3 / (0.7 * math.exp(-1.0) + 0.3)
    m_in, m_out = res["decisions"]["c=1,shift=0"]
    assert m_in == pytest.approx(want, abs=5e-3)
    assert m_out == pytest.approx(want, abs=5e-3)


def test_interval_artifact_is_strict_json(tmp_path):
    # every probe speed vanishes, so c_lo is undecided
    code, artifact = cli.cmd_interval({
        "c_grid": [3.5], "shift_set": [0.0], "t_probe": 10.0,
        "dx": 0.2, "dt": 0.01, "out_dir": str(tmp_path), "label": "iv",
    })
    assert code == cli.EXIT_INCONCLUSIVE

    def reject(name):
        raise ValueError("non-finite constant %s in artifact" % name)

    on_disk = json.loads((tmp_path / "iv.json").read_text(),
                         parse_constant=reject)
    assert on_disk["results"]["per_c"] == {"3.5": "vanish"}
    assert on_disk["results"]["c_lo"] is None
    assert on_disk["results"]["c_hi"] == pytest.approx(3.5)
    assert artifact["results"]["c_lo"] is None


def test_cmd_stability_end_to_end(tmp_path):
    code, artifact = cli.cmd_stability({
        "x_lo": 0.0, "x_hi": 50.0, "dx": 0.1, "dt": 0.002, "t_end": 10.0,
        "stride_time": 0.5, "u0_inf": 0.5, "u0_sup": 2.0,
        "out_dir": str(tmp_path), "label": "st",
    })
    assert code == cli.EXIT_OK
    assert artifact["results"]["passed"] is True
    assert artifact["results"]["prefactor"] == pytest.approx(2.0)
    lines = (tmp_path / "st.csv").read_text().strip().splitlines()
    assert lines[0] == "t,sup_dist,bound,violation"
    assert len(lines) == 22
    with pytest.raises(cli.ConfigError, match="u0_inf"):
        cli.cmd_stability({"x_lo": 0.0, "x_hi": 50.0, "dx": 0.1, "dt": 0.002,
                           "t_end": 1.0, "u0_inf": -1.0, "u0_sup": 2.0})


def _certify_cfg(**extra):
    cfg = {
        "x_lo": -40.0, "x_hi": 60.0, "dx": 0.1, "dt": 0.005, "t_end": 2.0,
        "stride_time": 0.5, "mu": 0.8, "mu_tilde": 1.0, "span": [0.0, 8.0],
    }
    cfg.update(extra)
    return cfg


def test_cmd_certify_passes_with_scheme_slack(tmp_path):
    code, artifact = cli.cmd_certify(_certify_cfg(out_dir=str(tmp_path),
                                                  label="ct"))
    assert code == cli.EXIT_OK
    res = artifact["results"]
    assert res["above"]["passed"] and res["below"]["passed"]
    assert (tmp_path / "ct_above.csv").exists()
    assert (tmp_path / "ct_below.csv").exists()


def test_cmd_certify_zero_slack_is_violated():
    code, artifact = cli.cmd_certify(_certify_cfg(slack=0.0))
    assert code == cli.EXIT_VIOLATED


def test_certify_artifact_does_not_follow_rounding_noise(tmp_path, monkeypatch):
    # both orderings' worst excess here is rounding, below 1e-12, and its
    # time and place are the argmax of noise: the artifact reports them as
    # null and nan, and a change of 1e-16 in the field keeps its bytes
    from kpplab import kppsolve

    march, changed = kppsolve.march, []

    def perturbed(*args):
        for t, u in march(*args):
            v = u + 1e-16 * np.abs(u) if t > 0 else u
            changed.append(np.count_nonzero(v != u))
            yield t, v

    cli.cmd_certify(_certify_cfg(out_dir=str(tmp_path / "a"), label="ct"))
    monkeypatch.setattr(kppsolve, "march", perturbed)
    cli.cmd_certify(_certify_cfg(out_dir=str(tmp_path / "b"), label="ct"))
    assert sum(changed) > 0
    got = (tmp_path / "b" / "ct.json").read_bytes()
    assert got == (tmp_path / "a" / "ct.json").read_bytes()
    results = json.loads(got)["results"]
    for side in ("above", "below"):
        assert results[side]["max_violation"] <= 1e-12
        assert results[side]["worst_time"] is None
        rows = (tmp_path / "b" / ("ct_%s.csv" % side)).read_text().split()[1:]
        assert rows and all(row.endswith(",nan") for row in rows)


def test_null_keys_take_library_defaults():
    code, artifact = cli.cmd_certify(_certify_cfg(slack=None, delta=None, d=None))
    code_left_out, artifact_left_out = cli.cmd_certify(_certify_cfg())
    assert code == code_left_out
    assert artifact["results"] == artifact_left_out["results"]


_NOISE_TAKEOVER = {
    "path_kind": "noise-equilibrium", "seed": 3, "path_t_hi": 20.0,
    "x_lo": -20.0, "x_hi": 80.0, "dx": 0.2, "dt": 0.01, "t_end": 20.0,
    "stride_time": 0.5, "fit_window": [5.0, 20.0], "h": 0.5,
}


@pytest.mark.parametrize("command, cfg, defaults", [
    ("takeover", _NOISE_TAKEOVER,
     {"noise_kappa": 1.0, "noise_sigma": 0.5, "noise_xi_max": 0.75,
      "noise_dt": 1e-3, "tail_tol": 1e-8, "margin": 50.0, "r_min": 5.0,
      "outer_tol": 1e-3, "inner_level": 0.99}),
    ("interval", {"c_grid": [1.4, 2.4], "shift_set": [0.0], "t_probe": 10.0},
     {"dx": 0.1, "dt": 0.005, "margin": 50.0, "thresholds": [0.9, 0.05]}),
    ("certify", _certify_cfg(), {"margin": 50.0, "r_min": 1.0}),
], ids=["takeover", "interval", "certify"])
def test_left_out_keys_take_library_defaults(command, cfg, defaults):
    code, artifact = cli.COMMANDS[command](dict(cfg))
    code_full, artifact_full = cli.COMMANDS[command]({**cfg, **defaults})
    assert code == code_full
    assert artifact["results"] == artifact_full["results"]


def test_cmd_sweep_deterministic_merge(tmp_path):
    cfg = {
        "sweep_command": "mean", "sweep_key": "path_value",
        "sweep_values": [0.5, 1.0, 2.0],
        "base": {"r_min": 2.0, "horizon": [0, 20]},
        "out_dir": str(tmp_path), "label": "sw",
    }
    code, artifact = cli.cmd_sweep(cfg)
    assert code == cli.EXIT_OK
    cells = artifact["results"]["cells"]
    assert sorted(cells) == ["path_value=0.5", "path_value=1.0",
                             "path_value=2.0"]
    for val in (0.5, 1.0, 2.0):
        cell = cells["path_value=%s" % val]
        assert cell["exit_code"] == 0
        assert cell["results"]["a_hat_est"] == pytest.approx(val)
    # a rerun writes the same bytes
    on_disk = (tmp_path / "sw.json").read_text()
    _, artifact2 = cli.cmd_sweep(cfg)
    assert json.dumps(artifact2["results"], sort_keys=True) == \
        json.dumps(artifact["results"], sort_keys=True)
    assert (tmp_path / "sw.json").read_text() == on_disk



def test_cmd_sweep_summarises_numeric_result_keys():
    cfg = {
        "sweep_command": "mean", "sweep_key": "seed", "sweep_values": [4, 5, 6],
        "base": {"path_kind": "noise-equilibrium", "path_t_hi": 20.0,
                 "noise_dt": 0.01, "r_min": 2.0, "horizon": [0, 20]},
    }
    _, artifact = cli.cmd_sweep(cfg)
    results = artifact["results"]
    summary = results["summary"]
    cells = list(results["cells"].values())
    # speed_band and window_lengths are lists: not scalars, not summarised
    assert sorted(summary) == ["a_hat_est", "a_lower_est", "a_upper_est",
                               "n_windows", "takeover_speed"]
    for key, row in summary.items():
        vals = sorted(c["results"][key] for c in cells)
        assert row == {"min": vals[0], "median": vals[1], "max": vals[2],
                       "count": 3}
    assert summary["a_lower_est"]["min"] < summary["a_lower_est"]["max"]
    # nulls and bools are left out; nested results get dotted keys
    cells[0]["results"].update(a_hat_est=None, passed=True,
                               takeover={"c_hat": 2.0, "passed": False})
    summary = cli._sweep_summary(cells)
    assert summary["a_hat_est"]["count"] == 2
    assert "passed" not in summary and "takeover.passed" not in summary
    assert summary["takeover.c_hat"] == {"min": 2.0, "median": 2.0, "max": 2.0,
                                         "count": 1}


def test_cmd_sweep_validation():
    with pytest.raises(cli.ConfigError, match="non-sweep"):
        cli.cmd_sweep({"sweep_command": "sweep", "sweep_values": [1],
                       "base": {}})
    with pytest.raises(cli.ConfigError, match="sweep_key"):
        cli.cmd_sweep({"sweep_command": "mean", "sweep_key": "dt",
                       "sweep_values": [1], "base": {}})


_NOISE_MEAN = ["mean", "--set", "path_kind=noise-equilibrium", "--set", "seed=1",
               "--set", "r_min=5"]


def test_noise_equilibrium_past_its_range_names_the_horizon(capsys):
    # one shift for all weights: past about 750 time units the early ones
    # underflow, which must be a usage error and not a division by zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(_NOISE_MEAN + ["--set", "path_t_hi=1600",
                                       "--set", "horizon=[0,1600]"])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "[0, 1600]" in err


def test_noise_equilibrium_within_its_range_is_unchanged(capsys):
    assert cli.main(_NOISE_MEAN + ["--set", "path_t_hi=700",
                                   "--set", "horizon=[0,700]"]) == cli.EXIT_OK
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # the values this build gave before the underflow guard existed
    assert (summary["a_lower_est"], summary["a_hat_est"],
            summary["a_upper_est"]) == (0.657602157589, 0.99327059099,
                                        1.31295005433)


def test_module_is_executable():
    out = subprocess.run(
        [sys.executable, "-m", "kpplab.cli", "mean", "--set", "r_min=2",
         "--set", "horizon=[0,20]"],
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    assert summary["a_hat_est"] == pytest.approx(1.0)


def _fresh_process_prints(code):
    # a fresh process: the test oracles load scipy.integrate, and with it
    # scipy.linalg, into this one
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_import_loads_no_scipy():
    assert _fresh_process_prints(
        "import sys, kpplab, kpplab.cli; print(sum(m.split('.')[0] == 'scipy' "
        "for m in sys.modules))") == ["0"]


_WITHOUT_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError("scipy is made unimportable", name=name)

sys.meta_path.insert(0, NoScipy())
try:
    import scipy
except ImportError:
    print("blocked")
import kpplab.cli
from kpplab import coeff, kppsolve
field = kppsolve.init("heaviside", kppsolve.make_grid(-5.0, 5.0, 0.5), {})
frames = list(kppsolve.march(field, coeff.make_constant(1.0), 0.1,
                             kppsolve.SolveConfig(dt=0.01)))
noise = coeff.NoisePath(1, 1.0, 0.5, 0.5, 1e-3, 0.0, 1.0)
print(len(frames), noise.values.size)
"""


def test_runs_without_scipy():
    assert _fresh_process_prints(_WITHOUT_SCIPY) == ["blocked", "2", "1001"]


_PACKAGE = os.path.dirname(os.path.abspath(kpplab.__file__))


def _import_cli(package_root, **env):
    """Import kpplab.cli from package_root in a fresh process with the
    environment changes env; prints where the compiled step came from."""
    return subprocess.run(
        [sys.executable, "-c", "import kpplab.cli; from kpplab import _kernel; "
         "print(_kernel.LIBRARY)"],
        env=dict(os.environ, PYTHONPATH=package_root, **env),
        capture_output=True, text=True, timeout=120)


def _cold_copy(tmp_path):
    """A copy of the package with no cache; returns its root."""
    shutil.copytree(_PACKAGE, tmp_path / "kpplab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return str(tmp_path)


def test_warm_cache_imports_without_a_compiler():
    from kpplab import _kernel     # built or found by this process's import

    assert os.path.dirname(_kernel.LIBRARY) == os.path.join(_PACKAGE, "__pycache__")
    assert not [f for f in os.listdir(_PACKAGE) if f.endswith(".so")]
    out = _import_cli(os.path.dirname(_PACKAGE), PATH="")
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [_kernel.LIBRARY]


def test_cold_package_without_a_compiler_raises_import_error(tmp_path):
    out = _import_cli(_cold_copy(tmp_path), PATH="")
    assert out.returncode != 0
    assert "ImportError" in out.stderr and "'cc " in out.stderr


def test_unwritable_cache_builds_the_step_for_the_process(tmp_path):
    root = _cold_copy(tmp_path)
    (tmp_path / "kpplab" / "__pycache__").write_text("")   # not a directory
    out = _import_cli(root, PYTHONDONTWRITEBYTECODE="1")
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["None"]


def test_cold_build_prunes_older_libraries_and_a_warm_import_does_not(tmp_path):
    root = _cold_copy(tmp_path)
    cache = tmp_path / "kpplab" / "__pycache__"
    cache.mkdir()
    stale, partial = cache / "_step-00000000.so", cache / "tmpbuild.so"
    stale.write_bytes(b"")
    partial.write_bytes(b"")
    out = _import_cli(root)
    assert out.returncode == 0, out.stderr
    library = out.stdout.split()[0]
    assert os.path.dirname(library) == str(cache) and os.path.exists(library)
    assert not stale.exists() and partial.exists()
    stale.write_bytes(b"")
    out = _import_cli(root)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [library] and stale.exists()


def test_every_exported_name_resolves():
    import importlib
    import pkgutil

    import kpplab

    names = ["kpplab"] + ["kpplab." + m.name
                          for m in pkgutil.iter_modules(kpplab.__path__)]
    for name in names:
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ())
                   if not hasattr(module, n)]
        assert not missing, "%s.__all__ names %s" % (name, missing)
