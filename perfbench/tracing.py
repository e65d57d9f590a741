"""Per-layer timing of cemkit, measured from outside the package.

Nothing in `src/cemkit` is edited. A traced run instead rebinds names in
the package's module namespaces to timing stand-ins:

- `harness.RngStream` becomes `TimedRngStream`, which times `random`
  (layer `model`);
- `harness.make_objective` returns an `Objective` whose `fn` and
  `batch_fn` are timing wrappers (layer `objectives`);
- the engine modules' `TraceRecorder` becomes `TimedTraceRecorder`
  (layer `trace`) and `window.SampleWindow` becomes `TimedSampleWindow`
  (the window's decide step);
- `run_variant`, `analyze`, `parse_config`, the replicate loops
  (`alpha_sweep`, `run_experiment`, `compare_variants`) and the table
  writers are wrapped as spans.

Spans nest. Each span's self time is its duration minus the durations of
the spans directly inside it, tracked with one running counter
(`Tracer.inner`): a span remembers the counter on entry, and on exit
replaces whatever its children added with its own duration. Draw,
evaluate and record are leaves, so an engine's self time is its
`run_variant` time minus the draw, evaluate and record time inside it.
Window decide time deliberately does not count as a child: it is part of
the window engine's self time, reported on its own as well.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List

ENGINES = ("batch", "window", "memoryless")


class Tracer:
    """Accumulated span times and counts of one traced process."""

    def __init__(self) -> None:
        self.inner = 0.0
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        # Leaf layers, updated on every step; plain attributes keep the
        # per-call cost of tracing small.
        self.draw_s = 0.0
        self.draw_calls = 0
        self.eval_s = 0.0
        self.eval_calls = 0
        self.eval_rows = 0
        self.record_s = 0.0
        self.record_calls = 0
        self.decide_s = 0.0
        self.decisions = 0  # SampleWindow.threshold calls: one per post-warm-up step
        self.updates: Dict[str, int] = defaultdict(int)
        self.steps: Dict[str, int] = defaultdict(int)
        self.snapshots = 0
        self.snapshot_bytes = 0
        self.snapshots_analyzed = 0
        self.output_bytes = 0
        # Fingerprint of every RunTrace the engines return, in order.
        self.runs = hashlib.sha256()

    def span(self, name: str, fn: Callable) -> Callable:
        """Wrap `fn` so each call is a span named `name`."""

        def wrapped(*args, **kwargs):
            return self.run_span(name, fn, *args, **kwargs)

        return wrapped

    def run_span(self, name: str, fn: Callable, *args, **kwargs):
        c0 = self.inner
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            d = perf_counter() - t0
            self.self_s[name] += d - (self.inner - c0)
            self.total_s[name] += d
            self.inner = c0 + d


def timed_objective(tracer: Tracer, obj):
    """Copy of `obj` whose `fn` and `batch_fn` time and count every call."""
    fn = obj.fn
    batch_fn = obj.batch_fn

    def timed_fn(bits):
        t0 = perf_counter()
        value = fn(bits)
        d = perf_counter() - t0
        tracer.eval_s += d
        tracer.inner += d
        tracer.eval_calls += 1
        tracer.eval_rows += 1
        return value

    def timed_batch_fn(batch):
        t0 = perf_counter()
        values = batch_fn(batch)
        d = perf_counter() - t0
        tracer.eval_s += d
        tracer.inner += d
        tracer.eval_calls += 1
        tracer.eval_rows += len(batch)
        return values

    return dataclasses.replace(
        obj, fn=timed_fn, batch_fn=None if batch_fn is None else timed_batch_fn
    )


def make_classes(tracer: Tracer, model, trace, window):
    """Timing subclasses of RngStream, TraceRecorder and SampleWindow bound to `tracer`."""
    RngStream = model.RngStream
    TraceRecorder = trace.TraceRecorder
    SampleWindow = window.SampleWindow
    base_random = RngStream.random

    class TimedRngStream(RngStream):
        def random(self, size=None):
            t0 = perf_counter()
            out = base_random(self, size)
            d = perf_counter() - t0
            tracer.draw_s += d
            tracer.inner += d
            tracer.draw_calls += 1
            return out

    def recorded(t0):
        d = perf_counter() - t0
        tracer.record_s += d
        tracer.inner += d
        tracer.record_calls += 1

    class TimedTraceRecorder(TraceRecorder):
        def __init__(self, *args, **kwargs):
            t0 = perf_counter()
            TraceRecorder.__init__(self, *args, **kwargs)
            recorded(t0)

        def offer_best(self, bits, value, draw_index):
            t0 = perf_counter()
            TraceRecorder.offer_best(self, bits, value, draw_index)
            recorded(t0)

        def maybe_snapshot(self, step, gamma, delta):
            t0 = perf_counter()
            TraceRecorder.maybe_snapshot(self, step, gamma, delta)
            recorded(t0)

        def update_applied(self, new_params, elites=1):
            t0 = perf_counter()
            TraceRecorder.update_applied(self, new_params, elites)
            recorded(t0)
            tracer.updates[self.variant] += 1

        def finish(self, steps, gamma, delta):
            t0 = perf_counter()
            run = TraceRecorder.finish(self, steps, gamma, delta)
            recorded(t0)
            tracer.steps[run.variant] += run.steps
            tracer.snapshots += len(run.snapshots)
            tracer.snapshot_bytes += sum(
                s.params.nbytes + s.sign_changes.nbytes for s in run.snapshots
            )
            return run

    class TimedSampleWindow(SampleWindow):
        def append(self, sample):
            t0 = perf_counter()
            SampleWindow.append(self, sample)
            tracer.decide_s += perf_counter() - t0

        def evict_oldest(self):
            t0 = perf_counter()
            out = SampleWindow.evict_oldest(self)
            tracer.decide_s += perf_counter() - t0
            return out

        def threshold(self, rho):
            t0 = perf_counter()
            out = SampleWindow.threshold(self, rho)
            tracer.decide_s += perf_counter() - t0
            tracer.decisions += 1
            return out

    return TimedRngStream, TimedTraceRecorder, TimedSampleWindow


def install(tracer: Tracer) -> None:
    """Rebind cemkit's module-level names to timing stand-ins for this process."""
    from cemkit import batch, cli, harness, memoryless, model, trace, window

    rng_cls, recorder_cls, window_cls = make_classes(tracer, model, trace, window)
    for engine in (batch, window, memoryless):
        engine.TraceRecorder = recorder_cls
    window.SampleWindow = window_cls
    harness.RngStream = rng_cls

    make = harness.make_objective
    harness.make_objective = tracer.span(
        "make", lambda spec: timed_objective(tracer, make(spec))
    )
    harness.parse_config = tracer.span("parse", harness.parse_config)

    run_variant = harness.run_variant

    def traced_run_variant(cfg, obj, rng):
        run = tracer.run_span("engine." + cfg.variant, run_variant, cfg, obj, rng)
        tracer.runs.update(fingerprint(run))
        return run

    harness.run_variant = traced_run_variant

    analyze = harness.analyze

    def traced_analyze(run, obj, eps_binary=1e-3):
        tracer.snapshots_analyzed += len(run.snapshots)
        return tracer.run_span("analyze", analyze, run, obj, eps_binary)

    harness.analyze = traced_analyze
    # The replicate loops and table writers, as the in-process workloads
    # (through harness) and the CLI (through its own imported names) call them.
    for name in ("alpha_sweep", "run_experiment"):
        setattr(harness, name, tracer.span("harness", getattr(harness, name)))
    cli.compare_variants = tracer.span("harness", cli.compare_variants)
    for module, name in ((harness, "sweep_to_csv"), (harness, "results_to_csv"), (cli, "compare_to_csv")):
        setattr(module, name, serializer(tracer, getattr(module, name)))


def fingerprint(run) -> bytes:
    """The outcome of one run: counts, final state and best sample, exactly."""
    best = run.best
    head = (
        f"{run.variant},{run.steps},{run.update_count},{run.elite_decisions},"
        f"{run.first_hit_step},{run.gamma_final!r},{best.value!r},{best.draw_index};"
    )
    return head.encode() + run.final_params.probs.tobytes() + run.sign_changes.tobytes()


def serializer(tracer: Tracer, fn: Callable) -> Callable:
    """Span around a table writer that also counts the bytes it returns."""

    def wrapped(rows):
        text = tracer.run_span("serialize", fn, rows)
        tracer.output_bytes += len(text.encode("utf-8"))
        return text

    return wrapped


def layer_metrics(tracer: Tracer, wall_s: float) -> Dict[str, float]:
    """Per-layer times, counts and accounting checks of one traced unit.

    The span named "root" covers the whole measured workload; its self
    time is the part of the run no layer span covers.
    """
    t = tracer
    engine_total = sum(t.total_s["engine." + e] for e in ENGINES)
    engine_self = sum(t.self_s["engine." + e] for e in ENGINES)
    leaves = t.draw_s + t.eval_s + t.record_s
    return {
        "model.draw_s": t.draw_s,
        "model.draw_calls": t.draw_calls,
        "objectives.evaluate_s": t.eval_s,
        "objectives.evaluate_calls": t.eval_calls,
        "objectives.evaluate_rows": t.eval_rows,
        "objectives.make_s": t.total_s["make"],
        "harness.parse_s": t.self_s["parse"],
        "cli.import_s": t.total_s["import"],
        "window.self_s": t.self_s["engine.window"],
        "window.decide_s": t.decide_s,
        "window.elite_ratio": _ratio(t.updates["window"], t.decisions),
        "window.elite_count": t.updates["window"],
        "window.decisions": t.decisions,
        "memoryless.self_s": t.self_s["engine.memoryless"],
        "memoryless.elite_ratio": _ratio(t.updates["memoryless"], t.steps["memoryless"]),
        "memoryless.elite_count": t.updates["memoryless"],
        "memoryless.decisions": t.steps["memoryless"],
        "batch.self_s": t.self_s["engine.batch"],
        "batch.generations": t.updates["batch"],
        "trace.record_s": t.record_s,
        "trace.record_calls": t.record_calls,
        "trace.updates": sum(t.updates.values()),
        "trace.snapshots": t.snapshots,
        "trace.snapshot_bytes": t.snapshot_bytes,
        "diagnostics.analyze_s": t.total_s["analyze"],
        "diagnostics.snapshots_analyzed": t.snapshots_analyzed,
        "harness.overhead_s": t.self_s["harness"],
        "harness.serialize_s": t.total_s["serialize"],
        "harness.output_bytes": t.output_bytes,
        "engine.wall_s": engine_total,
        "accounting.engine_unaccounted_frac": _ratio(engine_total - engine_self - leaves, engine_total),
        "accounting.unaccounted_frac": t.self_s["root"] / wall_s,
    }


def _ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


# Every per-layer metric a traced run prints, with its unit.
LAYER_UNITS: Dict[str, str] = {
    "model.draw_s": "s",
    "model.draw_calls": "count",
    "objectives.evaluate_s": "s",
    "objectives.evaluate_calls": "count",
    "objectives.evaluate_rows": "count",
    "objectives.make_s": "s",
    "harness.parse_s": "s",
    "cli.import_s": "s",
    "window.self_s": "s",
    "window.decide_s": "s",
    "window.elite_ratio": "ratio",
    "window.elite_count": "count",
    "window.decisions": "count",
    "memoryless.self_s": "s",
    "memoryless.elite_ratio": "ratio",
    "memoryless.elite_count": "count",
    "memoryless.decisions": "count",
    "batch.self_s": "s",
    "batch.generations": "count",
    "trace.record_s": "s",
    "trace.record_calls": "count",
    "trace.updates": "count",
    "trace.snapshots": "count",
    "trace.snapshot_bytes": "bytes",
    "diagnostics.analyze_s": "s",
    "diagnostics.snapshots_analyzed": "count",
    "harness.overhead_s": "s",
    "harness.serialize_s": "s",
    "harness.output_bytes": "bytes",
    "engine.wall_s": "s",
    "accounting.engine_unaccounted_frac": "ratio",
    "accounting.unaccounted_frac": "ratio",
    "trace_overhead_frac": "ratio",
}

# Count metrics must repeat exactly across traced runs of one input.
COUNT_METRICS: List[str] = [
    "model.draw_calls",
    "objectives.evaluate_calls",
    "objectives.evaluate_rows",
    "window.elite_ratio",
    "window.elite_count",
    "window.decisions",
    "memoryless.elite_ratio",
    "memoryless.elite_count",
    "memoryless.decisions",
    "batch.generations",
    "trace.record_calls",
    "trace.updates",
    "trace.snapshots",
    "trace.snapshot_bytes",
    "diagnostics.snapshots_analyzed",
    "harness.output_bytes",
]
