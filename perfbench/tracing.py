"""Spans and counts at wildriff's layer boundaries, recorded from outside.

The tracer replaces module attributes with timing wrappers.  It patches the
name the *caller* looks up (`refit.warm_up`, `cli.generate`, ...), because
`refit` and `cli` import those functions by name; patching the defining
module would record nothing.  Fit and predict spans come from wrapping the
trainer's `fit_fn` and each returned handle's `predict`.

`refit.run_round` runs inside a `ThreadPoolExecutor`, which does not carry
context variables, so spans are tagged with the operation index held on the
tracer (operations run one at a time) and a span that opens on a thread
with nothing open takes the main thread's innermost open span as its
parent.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import statistics
import threading
import time
import weakref
from collections import defaultdict
from typing import NamedTuple

# Per-layer metrics, each reported as the median over the run's operations
# of its per-operation value.
PER_LAYER_UNITS = {
    "trainers.fit.calls": "count",
    "trainers.fit.rows": "count",
    "trainers.fit.busy_s": "s",
    "trainers.predict.calls": "count",
    "trainers.predict.rows": "count",
    "trainers.predict.busy_s": "s",
    "core.warm_up.busy_s": "s",
    "sampling.srswor.calls": "count",
    "sampling.srswor.busy_s": "s",
    "metrics.calls": "count",
    "metrics.busy_s": "s",
    "refit.run_round.calls": "count",
    "refit.run_round.busy_s": "s",
    "refit.rounds.wall_s": "s",
    "refit.rounds.concurrency": "ratio",
    "refit.estimate_radius.busy_s": "s",
    "refit.pilot_error_proxy.busy_s": "s",
    "refit.assembly.share": "ratio",
    "refit.self_s": "s",
    "synth.generate.busy_s": "s",
    "synth.population_excess_risk.share": "ratio",
    "cli.self.share": "ratio",
    "cli.output_bytes": "bytes",
    "trace.eval_s_p50": "s",
}


class Span(NamedTuple):
    id: int
    parent: int
    op: int
    name: str
    start: float
    end: float
    thread: int
    size: int   # rows for fit/predict, bytes for file writes, else 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = self._stack()
        self.t0 = time.perf_counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, size=None):
        """`fn` recording a span `name`; `size(args)` gives the span's size."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main[-1] if self._main else 0
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, parent, self.op, name, start, end,
                                       threading.get_ident(), size(args) if size else 0))

        return traced

    def trainer(self, trainer):
        """A copy of `trainer` whose fits and predictions record spans."""
        fit_fn = trainer.fit_fn
        wrap = self.wrap

        def fit(dataset, seed):
            handle = fit_fn(dataset, seed)
            # A weak reference: a handle holding its own bound method would
            # form a cycle that only the cyclic collector frees.
            ref, predict = weakref.ref(handle), type(handle).predict
            handle.predict = wrap("trainers.predict", lambda xs: predict(ref(), xs),
                                  lambda a: len(a[0]))
            return handle

        return dataclasses.replace(trainer, fit_fn=wrap("trainers.fit", fit, lambda a: a[0].n))

    def install(self, wildriff) -> list:
        """Patch the names `wildriff.refit` and `wildriff.cli` look up.

        Returns the names it did not find.
        """
        refit, cli = wildriff.refit, wildriff.cli
        patches = {
            (refit, "warm_up"): "core.warm_up",
            (refit, "srswor"): "sampling.srswor",
            (refit, "wild_responses"): "metrics.wild_responses",
            (refit, "wild_optimism"): "metrics.wild_optimism",
            (refit, "empirical_norm"): "metrics.empirical_norm",
            (refit, "run_round"): "refit.run_round",
            (refit, "_run_rounds"): "refit.rounds",
            (refit, "estimate_radius"): "refit.estimate_radius",
            (refit, "pilot_error_proxy"): "refit.pilot_error_proxy",
            (refit, "_assemble_report"): "refit.assemble_report",
            (refit, "evaluate_with_state"): "refit.evaluate",
            (cli, "generate"): "synth.generate",
            (cli, "population_excess_risk"): "synth.population_excess_risk",
        }
        # A boundary that a later version renames or removes is reported
        # as missing (its metrics read 0) rather than failing the run.
        missing = [f"{module.__name__}.{attr}" for module, attr in
                   [*patches, (cli, "_atomic_write_text"), (cli, "make_trainer")]
                   if not hasattr(module, attr)]
        for (module, attr), name in patches.items():
            if hasattr(module, attr):
                setattr(module, attr, self.wrap(name, getattr(module, attr)))
        if hasattr(refit, "evaluate_with_state") and hasattr(cli, "evaluate_with_state"):
            cli.evaluate_with_state = refit.evaluate_with_state
        if hasattr(cli, "_atomic_write_text"):
            cli._atomic_write_text = self.wrap("cli.write_file", cli._atomic_write_text,
                                               lambda a: len(a[1].encode("utf-8")))
        if hasattr(cli, "make_trainer"):
            make_trainer = cli.make_trainer
            cli.make_trainer = lambda name, params=None: self.trainer(make_trainer(name, params))
        return missing

    def dump(self, path) -> None:
        """Write every span as one JSON line, times in seconds from tracer start."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "op": s.op, "name": s.name,
                    "start": s.start - self.t0, "end": s.end - self.t0,
                    "thread": s.thread, "size": s.size,
                }) + "\n")

    def metrics(self, walls) -> dict:
        """Every per-layer metric: the median of its per-operation values.

        ``walls[i]`` is the wall time of operation i.
        """
        by_op = defaultdict(list)
        for s in self.spans:
            by_op[s.op].append(s)
        per_op = [op_metrics(by_op[op], wall) for op, wall in enumerate(walls)]
        out = {name: statistics.median_low(m[name] for m in per_op)
               for name in PER_LAYER_UNITS if name != "trace.eval_s_p50"}
        out["trace.eval_s_p50"] = statistics.median(walls)
        return out


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_time(spans, layer: str) -> float:
    """Summed span time of a layer minus the part its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    total = 0.0
    for s in spans:
        if s.layer == layer:
            kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]]
            total += (s.end - s.start) - _covered((a, b) for a, b in kids if b > a)
    return total


def op_metrics(spans, wall: float) -> dict:
    """Per-layer metrics of one operation's spans; `wall` is its wall time."""
    calls, busy, size = defaultdict(int), defaultdict(float), defaultdict(int)
    for s in spans:
        calls[s.name] += 1
        busy[s.name] += s.end - s.start
        size[s.name] += s.size
    metric_names = [n for n in calls if n.startswith("metrics.")]
    evaluate_busy = busy["refit.evaluate"]
    rounds_wall = busy["refit.rounds"]
    return {
        "trainers.fit.calls": calls["trainers.fit"],
        "trainers.fit.rows": size["trainers.fit"],
        "trainers.fit.busy_s": busy["trainers.fit"],
        "trainers.predict.calls": calls["trainers.predict"],
        "trainers.predict.rows": size["trainers.predict"],
        "trainers.predict.busy_s": busy["trainers.predict"],
        "core.warm_up.busy_s": busy["core.warm_up"],
        "sampling.srswor.calls": calls["sampling.srswor"],
        "sampling.srswor.busy_s": busy["sampling.srswor"],
        "metrics.calls": sum(calls[n] for n in metric_names),
        "metrics.busy_s": sum(busy[n] for n in metric_names),
        "refit.run_round.calls": calls["refit.run_round"],
        "refit.run_round.busy_s": busy["refit.run_round"],
        "refit.rounds.wall_s": rounds_wall,
        "refit.rounds.concurrency": busy["refit.run_round"] / rounds_wall if rounds_wall else 0.0,
        "refit.estimate_radius.busy_s": busy["refit.estimate_radius"],
        "refit.pilot_error_proxy.busy_s": busy["refit.pilot_error_proxy"],
        "refit.assembly.share": ((busy["refit.estimate_radius"] + busy["refit.assemble_report"])
                                 / evaluate_busy if evaluate_busy else 0.0),
        "refit.self_s": self_time(spans, "refit"),
        "synth.generate.busy_s": busy["synth.generate"],
        "synth.population_excess_risk.share": busy["synth.population_excess_risk"] / wall,
        "cli.self.share": self_time(spans, "cli") / wall,
        "cli.output_bytes": size["cli.write_file"],
    }
