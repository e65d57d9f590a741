"""Smoke test of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest perfbench -q

Checks that every metric BENCHMARK.json names is printed with its unit,
that the timing wrappers return exactly what the wrapped calls return,
and that the timing subclasses bound into the engine modules leave the
RunTrace unchanged.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cemkit import harness, model, parse_config, trace, window  # noqa: E402
from cemkit import ProblemSpec, make_objective  # noqa: E402


def _declared(kind):
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace_on", [False, True])
def test_every_metric_printed_with_unit(workload, trace_on, capsys):
    correct, attempted, failed, metrics, notes = run.measure(
        workload, seed=3, seconds=0, trace=trace_on, replicates=1
    )
    assert correct, notes
    assert attempted >= 1 and failed == 0
    declared = _declared("per_layer" if trace_on else "end_to_end")
    units = run.LAYER_UNITS if trace_on else run.END_TO_END_UNITS
    assert set(metrics) == set(declared)
    assert {k: units[k] for k in metrics} == declared
    if not trace_on:
        assert all(v > 0 for v in metrics.values())


SPECS = [
    ProblemSpec(kind="onemax", n=12),
    ProblemSpec(kind="leading_ones", n=12),
    ProblemSpec(kind="weighted_linear", n=12, weights=tuple(np.linspace(-1, 2, 12))),
    ProblemSpec(kind="trap_k", n=12, k=4),
    ProblemSpec(kind="maxcut", n=12, edges=((0, 1), (1, 2), (2, 3), (3, 11), (5, 7), (0, 9))),
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
def test_timed_objective_returns_identical_values(spec):
    obj = make_objective(spec)
    timed = tracing.timed_objective(tracing.Tracer(), obj)
    bits = (np.random.default_rng(5).random((50, spec.n)) < 0.5).astype(np.uint8)
    assert [timed.fn(b) for b in bits] == [obj.fn(b) for b in bits]
    assert np.array_equal(timed.evaluate_many(bits), obj.evaluate_many(bits))
    assert (timed.optimal_value, timed.name) == (obj.optimal_value, obj.name)


def test_timed_rng_stream_returns_identical_draws():
    tracer = tracing.Tracer()
    timed_cls, _, _ = tracing.make_classes(tracer, model, trace, window)
    a, b = model.RngStream(11), timed_cls(11)
    for size in (None, 7, (3, 5)):
        assert np.array_equal(np.asarray(a.random(size)), np.asarray(b.random(size)))
    assert tracer.draw_calls == 3


def _assert_same_trace(x, y):
    for f in ("variant", "n", "rho", "alpha", "alpha1", "steps", "update_count",
              "elite_decisions", "first_hit_step", "gamma_final"):
        assert getattr(x, f) == getattr(y, f), f
    assert np.array_equal(x.sign_changes, y.sign_changes)
    assert np.array_equal(x.p0.probs, y.p0.probs)
    assert (x.best.value, x.best.draw_index) == (y.best.value, y.best.draw_index)
    assert np.array_equal(x.best.bits, y.best.bits)
    assert len(x.snapshots) == len(y.snapshots)
    for s, t in zip(x.snapshots, y.snapshots):
        assert (s.step, s.gamma, s.delta, s.best_value, s.update_count, s.elite_decisions) == (
            t.step, t.gamma, t.delta, t.best_value, t.update_count, t.elite_decisions)
        assert np.array_equal(s.params, t.params)
        assert np.array_equal(s.sign_changes, t.sign_changes)


@pytest.mark.parametrize("variant", ["batch", "window", "memoryless"])
def test_injected_classes_leave_run_trace_unchanged(variant, monkeypatch):
    from cemkit import batch, memoryless

    cfg = parse_config({
        "problem": {"kind": "trap_k", "n": 10, "k": 5},
        "variant": variant, "N": 30, "T": 10, "K": 900, "snapshot_stride": 7,
    })
    obj = make_objective(cfg.problem)
    plain = harness.run_variant(cfg, obj, model.RngStream(4))

    tracer = tracing.Tracer()
    rng_cls, recorder_cls, window_cls = tracing.make_classes(tracer, model, trace, window)
    for engine in (batch, window, memoryless):
        monkeypatch.setattr(engine, "TraceRecorder", recorder_cls)
    monkeypatch.setattr(window, "SampleWindow", window_cls)
    traced = harness.run_variant(cfg, tracing.timed_objective(tracer, obj), rng_cls(4))

    _assert_same_trace(plain, traced)
    assert tracer.record_calls > 0 and tracer.eval_rows == traced.steps
    assert tracer.updates[variant] == traced.update_count
    assert (tracer.decisions > 0) == (variant == "window")
