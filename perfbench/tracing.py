"""Per-layer spans for the traced benchmark run.

A ``Tracer`` wraps the public functions of each sltlab module, and the
``labels`` method of every hypothesis type, at every place the name is looked
up: a module that did ``from .learners import erm`` holds its own reference,
so each module dictionary holding the function gets the wrapper.  Each call
records one span (name, start, end, parent, thread) with the work count of
that boundary.  Parents are kept per thread, because at ``workers=2`` the
trials run on pool threads.  Self time is a span's duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

# Span name -> (module, attribute) of a module-level function.
FUNCTIONS = {
    "core.enumerate_class": ("sltlab.core", "enumerate_class"),
    "learners.erm": ("sltlab.learners", "erm"),
    "learners.srm": ("sltlab.learners", "srm"),
    "learners.memorizer": ("sltlab.learners", "memorizer"),
    "distributions.draw_sample": ("sltlab.distributions", "draw_sample"),
    "distributions.true_risk": ("sltlab.distributions", "true_risk"),
    "distributions.min_risk_in_class": ("sltlab.distributions", "min_risk_in_class"),
    "experiments.verify_learnability": ("sltlab.experiments", "verify_learnability"),
    "experiments.verify_uniform_convergence": ("sltlab.experiments", "verify_uniform_convergence"),
    "experiments.tradeoff_sweep": ("sltlab.experiments", "tradeoff_sweep"),
    "experiments.binomial_bounds": ("sltlab.experiments", "binomial_bounds"),
    "experiments.nfl_exact": ("sltlab.experiments", "nfl_exact"),
    "shattering.vc_dimension": ("sltlab.shattering", "vc_dimension"),
    "shattering.sine_shatter_witness": ("sltlab.shattering", "sine_shatter_witness"),
    "jsonio.dump": ("sltlab.jsonio", "dump"),
    "jsonio.write_csv": ("sltlab.jsonio", "write_csv"),
    "jsonio.sha256_file": ("sltlab.jsonio", "sha256_file"),
    "cli.run": ("sltlab.cli", "run"),
    "cli.merge_config": ("sltlab.cli", "merge_config"),
}

HARNESSES = (
    "experiments.verify_learnability",
    "experiments.verify_uniform_convergence",
    "experiments.tradeoff_sweep",
)

# Work count recorded with a span, from (args, kwargs, result).  Harness
# spans record their process CPU seconds instead.
AMOUNTS = {
    "core.enumerate_class": lambda a, k, out: len(out),
    "core.labels": lambda a, k, out: len(out),
    "core.from_csv": lambda a, k, out: out.m,
    "core.to_csv": lambda a, k, out: a[0].m,
    "distributions.draw_sample": lambda a, k, out: out.m,
    "jsonio.write_csv": lambda a, k, out: len(a[2] if len(a) > 2 else k["rows"]),
    "jsonio.sha256_file": lambda a, k, out: os.path.getsize(a[0]),
    "shattering.vc_dimension": lambda a, k, out: out.subsets_tested,
}

# (metric, unit, better) reported by the traced run, in output order.
PER_LAYER = [
    ("core.enumerate_class.calls", "count", "lower"),
    ("core.enumerate_class.members", "count", "lower"),
    ("core.enumerate_class.self_s", "s", "lower"),
    ("core.labels.calls", "count", "lower"),
    ("core.labels.rows", "rows", "lower"),
    ("core.labels.self_s", "s", "lower"),
    ("core.from_csv.rows", "rows", "lower"),
    ("core.from_csv.self_s", "s", "lower"),
    ("core.to_csv.rows", "rows", "lower"),
    ("core.to_csv.self_s", "s", "lower"),
    ("learners.erm.calls", "count", "lower"),
    ("learners.erm.self_s", "s", "lower"),
    ("learners.erm.labels_per_call", "count", "lower"),
    ("learners.srm.calls", "count", "lower"),
    ("learners.srm.self_s", "s", "lower"),
    ("learners.memorizer.calls", "count", "lower"),
    ("learners.memorizer.self_s", "s", "lower"),
    ("distributions.draw_sample.calls", "count", "lower"),
    ("distributions.draw_sample.rows", "rows", "lower"),
    ("distributions.draw_sample.self_s", "s", "lower"),
    ("distributions.true_risk.calls", "count", "lower"),
    ("distributions.true_risk.self_s", "s", "lower"),
    ("distributions.min_risk_in_class.calls", "count", "lower"),
    ("distributions.min_risk_in_class.self_s", "s", "lower"),
    ("experiments.verify_learnability.self_s", "s", "lower"),
    ("experiments.verify_uniform_convergence.self_s", "s", "lower"),
    ("experiments.tradeoff_sweep.self_s", "s", "lower"),
    ("experiments.harness.cpu_per_wall", "ratio", "higher"),
    ("experiments.binomial_bounds.calls", "count", "lower"),
    ("experiments.binomial_bounds.self_s", "s", "lower"),
    ("experiments.nfl_exact.calls", "count", "lower"),
    ("experiments.nfl_exact.self_s", "s", "lower"),
    ("shattering.vc_dimension.calls", "count", "lower"),
    ("shattering.vc_dimension.self_s", "s", "lower"),
    ("shattering.subsets_tested", "count", "lower"),
    ("shattering.subsets_per_s", "1/s", "higher"),
    ("shattering.sine_shatter_witness.self_s", "s", "lower"),
    ("jsonio.dump.self_s", "s", "lower"),
    ("jsonio.write_csv.rows", "rows", "lower"),
    ("jsonio.write_csv.self_s", "s", "lower"),
    ("jsonio.sha256_file.self_s", "s", "lower"),
    ("jsonio.bytes_hashed", "B", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("cli.merge_config.self_s", "s", "lower"),
    ("setup.import_numpy_s", "s", "lower"),
    ("setup.import_scipy_stats_s", "s", "lower"),
    ("setup.import_sltlab_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.blocking_self_s", "s", "lower"),
    ("speed.factor", "ratio", "lower"),
]


class Tracer:
    """Installs span-recording wrappers into the loaded sltlab modules."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        amount = AMOUNTS.get(name)
        cpu = name in HARNESSES
        local, spans, ids = self._local, self.spans, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            frame = [next(ids), 0.0]  # span id, time spent in child spans
            stack.append(frame)
            c0 = time.process_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            dur = t1 - t0
            if parent is not None:
                parent[1] += dur
            if cpu:
                n = time.process_time() - c0
            else:
                n = amount(args, kwargs, out) if amount else 0
            spans.append((frame[0], name, t0, t1, parent[0] if parent else None,
                          threading.get_ident(), dur - frame[1], n))
            return out

        return wrapper

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every tracked function wherever a sltlab module refers to it."""
        from sltlab import core

        modules = [m for k, m in sys.modules.items() if k == "sltlab" or k.startswith("sltlab.")]
        for name, (modname, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapped)
        sample = core.LabeledSample
        self._replace(sample, "from_csv",
                      classmethod(self._wrap("core.from_csv", sample.__dict__["from_csv"].__func__)))
        self._replace(sample, "to_csv", self._wrap("core.to_csv", sample.__dict__["to_csv"]))
        pending = list(core.Hypothesis.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "labels" in cls.__dict__:
                self._replace(cls, "labels", self._wrap("core.labels", cls.__dict__["labels"]))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def reset(self) -> None:
        self.spans.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times of the spans recorded since reset."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        amount: dict[str, float] = defaultdict(float)
        dur: dict[str, float] = defaultdict(float)
        name_of = {s[0]: s[1] for s in self.spans}
        main = threading.main_thread().ident
        blocking = 0.0
        labels_under_erm = 0
        for _, name, t0, t1, parent, thread, own, n in self.spans:
            calls[name] += 1
            self_s[name] += own
            amount[name] += n
            dur[name] += t1 - t0
            if thread == main:
                blocking += own
            if name == "core.labels" and name_of.get(parent) == "learners.erm":
                labels_under_erm += 1
        harness_cpu = sum(amount[h] for h in HARNESSES)
        harness_wall = sum(dur[h] for h in HARNESSES)
        vc_wall = dur["shattering.vc_dimension"]
        out = {}
        for metric, _, _ in PER_LAYER:
            layer, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = calls[layer]
            elif field == "self_s":
                out[metric] = self_s[layer]
            elif field in ("rows", "members"):
                out[metric] = amount[layer]
        out.update({
            "learners.erm.labels_per_call":
                labels_under_erm / calls["learners.erm"] if calls["learners.erm"] else 0.0,
            "experiments.harness.cpu_per_wall":
                harness_cpu / harness_wall if harness_wall else 0.0,
            "shattering.subsets_tested": amount["shattering.vc_dimension"],
            "shattering.subsets_per_s":
                amount["shattering.vc_dimension"] / vc_wall if vc_wall else 0.0,
            "jsonio.bytes_hashed": amount["jsonio.sha256_file"],
            "trace.blocking_self_s": blocking,
        })
        return out


def dump_spans(spans: list[tuple], path) -> None:
    """Write spans as JSON, times in seconds from the first span's start."""
    origin = min((s[2] for s in spans), default=0.0)
    names = sorted({s[1] for s in spans})
    threads = sorted({s[5] for s in spans})
    rows = [[sid, names.index(name), t0 - origin, t1 - origin, parent, threads.index(thread)]
            for sid, name, t0, t1, parent, thread, _, _ in sorted(spans)]
    with open(path, "w") as fh:
        json.dump({"names": names,
                   "columns": ["id", "name", "start_s", "end_s", "parent", "thread"],
                   "spans": rows}, fh)
