"""The online engines' value memo (model.run_online).

An online run keeps a memo from a row's bytes to its value, up to
model._MEMO_ROWS rows, and calls `fn` once per distinct row. Its outputs
are those of a run that calls `fn` on every step: the same run under a
recorder that overrides update_applied, under which the memo stores no row.
"""

import math
from dataclasses import replace

import pytest

from cemkit import (
    BernoulliParams,
    DomainError,
    MemorylessConfig,
    Objective,
    OnlineConfig,
    ProblemSpec,
    RngStream,
    TraceRecorder,
    draw_sample,
    make_objective,
    run_memoryless,
    run_online_window,
)
from cemkit import memoryless, model
from cemkit import window as window_module

PROBLEMS = {
    "onemax": ProblemSpec(kind="onemax", n=6),
    "leading_ones": ProblemSpec(kind="leading_ones", n=6),
    "trap_k": ProblemSpec(kind="trap_k", n=6, k=3),
    "maxcut": ProblemSpec(
        kind="maxcut", n=6, edges=((0, 1), (0, 3), (1, 2), (1, 5), (2, 3), (3, 4), (4, 5), (2, 5))
    ),
    # Values that are not integers.
    "weighted_linear": ProblemSpec(kind="weighted_linear", n=6, weights=(1.5, -0.25, 2.0, 0.75, -1.0, 0.1)),
}
ENGINES = {
    "window": (run_online_window, OnlineConfig, window_module),
    "memoryless": (run_memoryless, MemorylessConfig, memoryless),
}


def outcome(run):
    """Everything a RunTrace holds, in comparable form."""
    snapshots = [
        (
            s.step, s.gamma, s.delta, s.best_value, s.update_count, s.elite_decisions,
            s.params.tobytes(), s.sign_changes.tobytes(),
        )
        for s in run.snapshots
    ]
    return (
        run.variant, run.n, run.steps, run.update_count, run.elite_decisions,
        run.first_hit_step, run.gamma_final, run.best.value, run.best.draw_index,
        run.best.bits.tobytes(), run.final_params.probs.tobytes(),
        run.sign_changes.tobytes(), snapshots,
    )


def counted(obj):
    """Copy of `obj` whose fn logs the bytes of every row it is called on."""
    calls = []

    def fn(bits):
        calls.append(bits.tobytes())
        return obj.fn(bits)

    return replace(obj, fn=fn), calls


class PerStepRecorder(TraceRecorder):
    """A stand-in that overrides update_applied and not updates_applied,
    as a timing tool's may: its memo stores no row and it takes no stretch."""

    def update_applied(self, new_params, elites=1):
        TraceRecorder.update_applied(self, new_params, elites)


def drawn_rows(engine, cfg, obj, seed):
    """The bytes of every step's row, replayed with draw_sample from the
    parameters before each step (the snapshots of a stride-1 run)."""
    run = engine(replace(cfg, snapshot_stride=1), obj, RngStream(seed))
    rng = RngStream(seed)
    return [
        draw_sample(BernoulliParams(run.snapshots[t].params), rng).tobytes()
        for t in range(run.steps)
    ]


@pytest.mark.parametrize("stride", [None, 1])
@pytest.mark.parametrize("eps_conv", [None, 1e-3])
@pytest.mark.parametrize("problem", sorted(PROBLEMS))
@pytest.mark.parametrize("variant", sorted(ENGINES))
def test_memo_run_equals_per_step_run(monkeypatch, variant, problem, eps_conv, stride):
    engine, config, module = ENGINES[variant]
    cfg = config(N=20, rho=0.1, alpha=0.5, K=600, eps_conv=eps_conv, snapshot_stride=stride)
    obj = make_objective(PROBLEMS[problem])
    memo_obj, memo_calls = counted(obj)
    memo_run = engine(cfg, memo_obj, RngStream(11))
    monkeypatch.setattr(module, "TraceRecorder", PerStepRecorder)
    step_obj, step_calls = counted(obj)
    step_run = engine(cfg, step_obj, RngStream(11))
    assert outcome(memo_run) == outcome(step_run)
    # The per-step run calls fn on every step, the memo run once per row.
    assert len(step_calls) == step_run.steps
    assert memo_calls == list(dict.fromkeys(step_calls))
    assert len(memo_calls) < memo_run.steps and len(memo_calls) <= 2**obj.n
    assert (memo_run.steps < cfg.K) == (eps_conv is not None)


class SnapshotRecorder(TraceRecorder):
    """A stand-in that overrides maybe_snapshot alone, which an online
    run never calls: its runs keep the memo."""

    def maybe_snapshot(self, step, gamma, delta):
        TraceRecorder.maybe_snapshot(self, step, gamma, delta)


@pytest.mark.parametrize("stride", [None, 1])
@pytest.mark.parametrize("problem", ["trap_k", "weighted_linear"])
@pytest.mark.parametrize("variant", sorted(ENGINES))
def test_snapshot_stand_in_keeps_the_memo(monkeypatch, variant, problem, stride):
    engine, config, module = ENGINES[variant]
    cfg = config(N=20, rho=0.1, alpha=0.5, K=600, snapshot_stride=stride)
    obj = make_objective(PROBLEMS[problem])
    plain_obj, plain_calls = counted(obj)
    plain = engine(cfg, plain_obj, RngStream(11))
    monkeypatch.setattr(module, "TraceRecorder", SnapshotRecorder)
    stand_in_obj, stand_in_calls = counted(obj)
    run = engine(cfg, stand_in_obj, RngStream(11))
    assert outcome(run) == outcome(plain)
    # fn is called once per distinct row, as in the plain run.
    assert stand_in_calls == plain_calls == list(dict.fromkeys(plain_calls))
    assert len(stand_in_calls) < run.steps


ONEMAX_6 = make_objective(PROBLEMS["onemax"])


@pytest.mark.parametrize("cap", [0, 5, 2**6])
def test_memo_row_cap(monkeypatch, cap):
    # The memo stores the first `cap` distinct rows and no more: a later
    # new row is evaluated on each of its draws. At cap 0 fn is called
    # on every step.
    monkeypatch.setattr(model, "_MEMO_ROWS", cap)
    cfg = MemorylessConfig(N=20, rho=0.1, alpha=0.1, K=1000)
    obj, calls = counted(ONEMAX_6)
    run = run_memoryless(cfg, obj, RngStream(3))
    rows = drawn_rows(run_memoryless, cfg, ONEMAX_6, 3)
    stored, expected = set(), []
    for row in rows:
        if row not in stored:
            expected.append(row)
            if len(stored) < cap:
                stored.add(row)
    assert calls == expected
    # The first row turned away is drawn again, so storing it would show.
    distinct = list(dict.fromkeys(rows))
    assert cap == 2**6 > len(distinct) or rows.count(distinct[cap]) > 1
    assert (len(calls) == run.steps) == (cap == 0)
    assert (calls == list(dict.fromkeys(calls))) == (cap == 2**6)


@pytest.mark.parametrize("variant", sorted(ENGINES))
def test_non_finite_value_raises_at_its_first_draw(variant):
    # The row fn first sees last is drawn long after the memo's first
    # hit. An objective that is NaN on that row alone raises at the
    # row's first draw, after as many fn calls as the plain run made.
    engine, config, _ = ENGINES[variant]
    cfg = config(N=20, rho=0.1, alpha=0.3, K=600)
    obj, calls = counted(ONEMAX_6)
    engine(cfg, obj, RngStream(4))
    rows = drawn_rows(engine, cfg, ONEMAX_6, 4)
    bad = calls[-1]
    draw = rows.index(bad)
    assert draw > len(calls)

    def fn(bits):
        return math.nan if bits.tobytes() == bad else float(bits.sum())

    nan_obj, nan_calls = counted(Objective(name="nan_row", n=6, fn=fn))
    with pytest.raises(DomainError) as info:
        engine(cfg, nan_obj, RngStream(4))
    assert str(info.value) == f"{variant}: objective returned the non-finite value nan at draw {draw}"
    assert nan_calls == calls

