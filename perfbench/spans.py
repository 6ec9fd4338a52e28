"""Outside-in tracing of the kpplab layers.

The library is not changed.  `Tracer.installed()` replaces module attributes
(and one method) with wrappers that record a span per call, and puts the
originals back on exit.  Callers look these names up through the module at
call time (`cli` and `fronts` call `kppsolve.solve`, `subadditivity_check`
calls the module global `track`, `coeff.equilibrium_path` calls
`equilibria.equilibrium_values`), so the wrappers see those calls too,
including the ones made from pool threads.

A span holds its name, start, end, parent and thread.  Spans stay in memory;
`layer_metrics` turns the spans of one operation into per-layer numbers.
"""

import contextlib
import itertools
import math
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from kpplab import cli, coeff, equilibria, fronts, kppsolve, subsuper

TINY = np.finfo(float).tiny

# (owner, attribute, span name); the owner is a module or, for the one
# method, its class
TARGETS = [
    (kppsolve, "solve", "kppsolve.solve"),
    (fronts, "subadditivity_check", "fronts.subadditivity"),
    (fronts, "track", "fronts.track"),
    (fronts, "estimate_speed", "fronts.fit"),
    (fronts, "takeover_verify", "fronts.fit"),
    (fronts.FrontTrace, "position_at", "fronts.fit"),
    (coeff, "make_constant", "coeff.path"),
    (coeff, "make_periodic", "coeff.path"),
    (coeff, "make_two_level", "coeff.path"),
    (coeff, "make_noise", "coeff.path"),
    (coeff, "equilibrium_path", "coeff.path"),
    (coeff, "estimate_means", "coeff.means"),
    (equilibria, "equilibrium_values", "equilibria.history"),
    (equilibria, "verify_stability_decay", "equilibria.verify"),
    (subsuper, "make_wave_params", "subsuper.params"),
    (subsuper, "certify_ordering", "subsuper.certify"),
    (cli, "cmd_takeover", "cli.command"),
    (cli, "cmd_stability", "cli.command"),
    (cli, "cmd_certify", "cli.command"),
]

# per-layer metrics: name -> unit, in the order they are printed
UNITS = {
    "kppsolve.solve_s": "s",
    "kppsolve.us_per_step": "us",
    "kppsolve.ns_per_node_step": "ns",
    "kppsolve.subnormal_share": "share",
    "kppsolve.solves": "count",
    "kppsolve.node_steps": "count",
    "kppsolve.frames_stored": "count",
    "kppsolve.stored_mib": "MiB",
    "fronts.fanout_wall_s": "s",
    "fronts.fanout_solve_sum_s": "s",
    "fronts.fanout_overlap": "ratio",
    "fronts.threads_used": "count",
    "fronts.self_s": "s",
    "fronts.track_s": "s",
    "fronts.fit_s": "s",
    "coeff.path_build_s": "s",
    "coeff.means_s": "s",
    "equilibria.history_s": "s",
    "equilibria.verify_s": "s",
    "subsuper.params_s": "s",
    "subsuper.certify_s": "s",
    "subsuper.frames_checked": "count",
    "cli.self_s": "s",
    "cli.artifact_bytes": "B",
    "trace.overhead_s": "s",
}


@dataclass
class Span:
    id: int
    name: str
    parent: int
    thread: int
    thread_name: str
    start: float
    end: float = None
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            # a pool thread: its caller is blocked in the fan-out, so the
            # innermost span open on the operation's thread is the parent
            root = self._root
            parent = root[-1].id if root else None
        thread = threading.current_thread()
        span = Span(next(self._ids), name, parent, thread.ident, thread.name,
                    time.perf_counter())
        stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _wrap(self, fn, name):
        after = {"kppsolve.solve": self._solve_counts,
                 "subsuper.certify": self._certify_counts}.get(name)

        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(span, args, result)
            return result

        return wrapper

    def _solve_counts(self, span, args, traj):
        # counted in a span of its own, beside the solve, so the count is
        # not charged to the solve or to its caller's self time
        stats = self._open("trace.stats")
        try:
            init_field, _, t_end, config = args[:4]
            steps = int(round((t_end - float(init_field.t)) / config.dt))
            frames = traj.frames
            span.attrs.update(
                steps=steps, node_steps=steps * traj.grid.n,
                frames=int(frames.shape[0]), entries=int(frames.size),
                bytes=int(frames.nbytes),
                subnormals=int(np.count_nonzero((frames > 0)
                                                & (frames < TINY))))
        finally:
            self._close(stats)

    def _certify_counts(self, span, args, report):
        span.attrs["frames"] = len(report.rows)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in TARGETS]
        self._root = self._stack()
        try:
            for (owner, attr, name), (_, _, fn) in zip(TARGETS, saved):
                setattr(owner, attr, self._wrap(fn, name))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)
            self._root = None


def _union_length(intervals):
    total, reached = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        total += max(0.0, hi - max(lo, reached))
        reached = max(reached, hi)
    return total


def _self_time(span, children):
    """Span duration minus the part of it that its child spans cover.

    Children lie inside their parent: pool threads end before the fan-out
    that started them returns."""
    return span.dur - _union_length([(c.start, c.end) for c in children])


def layer_metrics(spans, artifact_bytes):
    """Per-layer numbers for one operation from its spans."""
    by_name = {}
    children = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        children.setdefault(s.parent, []).append(s)

    def total(name):
        return sum((s.dur for s in by_name.get(name, ())), 0.0)

    def attr(name, key):
        return sum(s.attrs[key] for s in by_name.get(name, ()))

    solves = by_name.get("kppsolve.solve", [])
    solve_s = total("kppsolve.solve")
    steps = attr("kppsolve.solve", "steps")
    node_steps = attr("kppsolve.solve", "node_steps")
    entries = attr("kppsolve.solve", "entries")

    fan_wall = fan_sum = 0.0
    threads_used = 0
    for sub in by_name.get("fronts.subadditivity", ()):
        pooled = [c for c in children.get(sub.id, ())
                  if c.thread != sub.thread and c.name == "kppsolve.solve"]
        fan_wall += _union_length([(c.start, c.end) for c in pooled])
        fan_sum += sum(c.dur for c in pooled)
        # pool threads are named <executor>_<k>; count threads per pool
        pools = {}
        for c in pooled:
            pools.setdefault(c.thread_name.rpartition("_")[0],
                             set()).add(c.thread_name)
        threads_used = max([threads_used] + [len(v) for v in pools.values()])

    def self_total(name):
        return sum((_self_time(s, children.get(s.id, ()))
                    for s in by_name.get(name, ())), 0.0)

    return {
        "kppsolve.solve_s": solve_s,
        "kppsolve.us_per_step": 1e6 * solve_s / steps if steps else 0.0,
        "kppsolve.ns_per_node_step":
            1e9 * solve_s / node_steps if node_steps else 0.0,
        "kppsolve.subnormal_share":
            attr("kppsolve.solve", "subnormals") / entries if entries else 0.0,
        "kppsolve.solves": len(solves),
        "kppsolve.node_steps": node_steps,
        "kppsolve.frames_stored": attr("kppsolve.solve", "frames"),
        "kppsolve.stored_mib": attr("kppsolve.solve", "bytes") / 2.0 ** 20,
        "fronts.fanout_wall_s": fan_wall,
        "fronts.fanout_solve_sum_s": fan_sum,
        "fronts.fanout_overlap": fan_sum / fan_wall if fan_wall else 0.0,
        "fronts.threads_used": threads_used,
        "fronts.self_s": self_total("fronts.subadditivity"),
        "fronts.track_s": total("fronts.track"),
        "fronts.fit_s": total("fronts.fit"),
        "coeff.path_build_s": total("coeff.path"),
        "coeff.means_s": total("coeff.means"),
        "equilibria.history_s": total("equilibria.history"),
        "equilibria.verify_s": total("equilibria.verify"),
        "subsuper.params_s": total("subsuper.params"),
        "subsuper.certify_s": total("subsuper.certify"),
        "subsuper.frames_checked": attr("subsuper.certify", "frames"),
        "cli.self_s": self_total("cli.command"),
        "cli.artifact_bytes": artifact_bytes,
    }
