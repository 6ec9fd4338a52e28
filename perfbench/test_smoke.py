"""Smoke test of the benchmark: run with `python -m pytest perfbench/test_smoke.py`.

For every workload it runs the benchmark in smoke mode, checks that every
metric BENCHMARK.json names is printed with its unit and that no operation
failed, and checks that the exact per-operation counts repeat across two
traced runs.  Kept out of the library's test suite: it takes one to two
minutes.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

COUNTS = ["kppsolve.solves", "kppsolve.node_steps", "kppsolve.frames_stored",
          "subsuper.frames_checked"]


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    return lines[:-1], result["metrics"]


def _check_printed(lines, metrics, specs):
    assert set(metrics) == {m["name"] for m in specs}
    for m in specs:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]]
                   and line.split()[2] == m["unit"] for line in lines), m


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke(workload):
    lines, metrics = _run(workload, 0)
    _check_printed(lines, metrics, SPEC["end_to_end"])

    lines, first = _run(workload, 1)
    _check_printed(lines, first, SPEC["per_layer"])
    _, second = _run(workload, 1)
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name
