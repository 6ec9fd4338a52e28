"""The benchmark's outside-in tracer must still find every traced attribute.

perfbench/spans.py wraps library attributes by name (read through
``owner.__dict__``); renaming or deleting one breaks the benchmark.  This
checks the contract in seconds instead of in a full benchmark run.
"""

import importlib.util
import pathlib

from kpplab import coeff, kppsolve

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_target():
    spans = _load_spans()
    originals = [owner.__dict__[attr] for owner, attr, _ in spans.TARGETS]
    tracer = spans.Tracer()
    with tracer.installed():
        for (owner, attr, _), fn in zip(spans.TARGETS, originals):
            assert owner.__dict__[attr] is not fn, attr
        # the tracer unpacks solve's positional (field, path, t_end, config)
        grid = kppsolve.make_grid(0.0, 2.0, 0.5)
        field0 = kppsolve.init("constant", grid, {"value": 0.5})
        kppsolve.solve(field0, coeff.make_constant(1.0), 0.1,
                       kppsolve.SolveConfig(dt=0.05, margin=0.0))
    for (owner, attr, _), fn in zip(spans.TARGETS, originals):
        assert owner.__dict__[attr] is fn, attr
    (solve_span,) = [s for s in tracer.spans if s.name == "kppsolve.solve"]
    assert solve_span.attrs["steps"] == 2
    assert solve_span.attrs["frames"] == 2
