"""kpplab benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload takeover-front --seed 1 --seconds 30 --trace 0

Workloads are defined in workloads.py.  With --trace 0 the run measures the
end-to-end metrics (command_s, setup_s, peak_rss_mib) with no wrappers
installed.  With --trace 1 every other operation runs with the outside-in
tracer of spans.py installed; the traced operations give the per-layer
metrics and the untraced ones the tracing overhead.  --smoke runs one
operation per mode and at most one set-up probe, for the smoke test.

Every metric is printed as "<name> <value> <unit>"; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The full record (environment, every operation's timing and result
values, and in traced runs every span) goes to
perfbench/results/<workload>-seed<seed>-trace<t>.json.

The library is imported from ../src; when that source tree is missing the
run exits with a non-zero code before printing any result.
"""

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
RESULTS = os.path.join(HERE, "results")

# the seed used while building the benchmark, and one kept back from it so
# that a claimed gain can be checked on inputs it was not tuned on
DEFAULT_SEED = 1
HELDOUT_SEED = 90210

SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120.0


def import_library():
    """Put the checkout's src/ first on sys.path and import kpplab from it."""
    if not os.path.isfile(os.path.join(SRC, "kpplab", "__init__.py")):
        raise SystemExit("error: no kpplab source tree at %s" % SRC)
    sys.path.insert(0, SRC)
    import kpplab
    if not os.path.abspath(kpplab.__file__).startswith(SRC + os.sep):
        raise SystemExit("error: kpplab imported from %s, not from %s"
                         % (kpplab.__file__, SRC))


def set_up(workload, seed):
    """Build the inputs and run the warm-up once; returns the inputs."""
    inputs = workload.inputs(seed)
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as out_dir:
        workload.op(workload.warm_inputs(seed), out_dir)
    return inputs


def probe_setup(name, seed):
    """Seconds from starting a fresh process to its first timed operation.

    The child imports everything, builds the inputs, runs the warm-up,
    prints one line and exits; interpreter shutdown is not counted.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise SystemExit("error: set-up probe failed with exit code %d" % code)
    return elapsed


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def measure(workload, inputs, seconds, tracer, smoke):
    """Closed loop: one operation at a time until the time is used up.

    An operation starts only if the median operation so far would still end
    inside `seconds`.  With a tracer, even-numbered operations are traced.
    """
    import spans

    min_ops = 2 if tracer else 1
    ops = []
    t0 = time.perf_counter()
    while True:
        traced = tracer is not None and len(ops) % 2 == 0
        mark = len(tracer.spans) if tracer else 0
        with tempfile.TemporaryDirectory(dir=OUT) as out_dir:
            with tracer.installed() if traced else contextlib.nullcontext():
                start = time.perf_counter()
                try:
                    values, problems = workload.op(inputs, out_dir)
                except Exception as exc:  # count the failure and go on
                    values, problems = {}, ["raised %s: %s"
                                            % (type(exc).__name__, exc)]
                dur = time.perf_counter() - start
            nbytes = _dir_bytes(out_dir)
        rec = {"seconds": dur, "traced": traced, "values": values,
               "problems": problems}
        if traced:
            rec["layers"] = spans.layer_metrics(tracer.spans[mark:], nbytes)
        ops.append(rec)
        if len(ops) < min_ops:
            continue
        if smoke:
            break
        typical = statistics.median(op["seconds"] for op in ops)
        if time.perf_counter() - t0 + typical > seconds:
            break
    return ops


def _read(path, default="unknown"):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return default


def environment():
    import numpy
    import scipy
    import workloads

    model = "unknown"
    for line in _read("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        if not index.startswith("index"):
            continue
        level = _read(os.path.join(base, index, "level"))
        kind = _read(os.path.join(base, index, "type"))
        key = "L%s%s" % (level, {"Data": "d", "Instruction": "i"}.get(kind, ""))
        caches[key] = _read(os.path.join(base, index, "size"))
    llc = caches[max(caches)] if caches else "unknown"
    return {
        "nproc": workloads.nproc(), "cpu_count": os.cpu_count(),
        "cpu_model": model, "caches": caches, "last_level_cache": llc,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
    }


def _fmt(value):
    return repr(value) if isinstance(value, float) else str(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed (default %d; held-out seed %d)"
                             % (DEFAULT_SEED, HELDOUT_SEED))
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one operation per mode and at most one set-up probe")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_library()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    workload = workloads.WORKLOADS[args.workload]

    if args.setup_probe:
        set_up(workload, args.seed)
        print("ready", flush=True)
        return 0

    load_start = os.getloadavg()
    env = environment()
    # set-up time is an end-to-end metric, so traced runs skip the probes
    setup_samples = [probe_setup(workload.name, args.seed)
                     for _ in range(0 if args.trace else
                                    1 if args.smoke else SETUP_PROBES)]
    inputs = set_up(workload, args.seed)
    tracer = spans.Tracer() if args.trace else None
    ops = measure(workload, inputs, args.seconds, tracer, args.smoke)
    env["loadavg_start"] = list(load_start)
    env["loadavg_end"] = list(os.getloadavg())

    failed = sum(1 for op in ops if op["problems"])
    plain = [op["seconds"] for op in ops if not op["traced"]]
    ok_plain = [op["seconds"] for op in ops
                if not op["traced"] and not op["problems"]]
    if args.trace:
        traced = [op for op in ops if op["traced"]]
        metrics = {name: statistics.median(op["layers"][name] for op in traced)
                   for name in spans.UNITS if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (
            statistics.median(op["seconds"] for op in traced)
            - statistics.median(plain))
        units = spans.UNITS
    else:
        metrics = {
            "command_s": statistics.median(ok_plain or plain),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mib": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"command_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

    print("workload %s seed %d trace %d" % (workload.name, args.seed, args.trace))
    print("env " + " ".join("%s=%s" % kv for kv in sorted(env.items())))
    for i, op in enumerate(ops):
        print("op %d %.4f s%s %s%s" % (
            i, op["seconds"], " traced" if op["traced"] else "",
            " ".join("%s=%s" % (k, _fmt(v)) for k, v in op["values"].items()),
            "  FAILED: " + "; ".join(op["problems"]) if op["problems"] else ""))
    notes = {
        "command_s": "(median of %d operations)" % len(ok_plain or plain),
        "setup_s": "(median of %d set-ups)" % len(setup_samples),
        "kppsolve.stored_mib": "(last-level cache %s)" % env["last_level_cache"],
        "trace.overhead_s": "(traced minus untraced median, %d and %d ops)"
                            % (len(ops) - len(plain), len(plain)),
    }
    for name, value in metrics.items():
        line = "%s %s %s %s" % (name, _fmt(value), units[name],
                                notes.get(name, ""))
        print(line.rstrip())
    print("failed_frac %s (%d of %d operations)"
          % (_fmt(failed / len(ops)), failed, len(ops)))

    os.makedirs(RESULTS, exist_ok=True)
    record = {
        "workload": workload.name, "seed": args.seed,
        "default_seed": DEFAULT_SEED, "heldout_seed": HELDOUT_SEED,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "inputs": inputs, "env": env, "setup_samples": setup_samples,
        "ops": ops, "metrics": metrics,
        "spans": [dataclasses.asdict(s) for s in tracer.spans] if tracer else [],
    }
    name = "%s-seed%d-trace%d.json" % (workload.name, args.seed, args.trace)
    with open(os.path.join(RESULTS, name), "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
