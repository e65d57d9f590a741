"""Block draws in the online engines, and block-folded trace recording.

The window and memoryless engines draw their uniforms in blocks of rows
(inside model.run_online) and evaluate one consumed row at a time with
`Objective.fn`. Nothing a run returns may depend on the block size, the
objective is called exactly once per step outside a window's settled
stretches and never inside one, and a non-finite value is reported at
the draw that produced it. Likewise, no engine's RunTrace
may depend on the size of the TraceRecorder's update-log block.
"""

import math

import numpy as np
import pytest

from cemkit import (
    BatchConfig,
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
    online_update,
    run_batch,
    run_memoryless,
    run_online_window,
)
from cemkit import model, trace

TRAP = make_objective(ProblemSpec(kind="trap_k", n=10, k=5))
DEFAULT_VALUES = model._DRAW_BLOCK_VALUES
DEFAULT_LOG_VALUES = trace._LOG_BLOCK_VALUES


def default_rows(n):
    return max(1, DEFAULT_VALUES // n)


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


def run_with_rows(monkeypatch, rows, engine, cfg, obj, seed):
    """Run with blocks of `rows` rows (None: the default size)."""
    values = DEFAULT_VALUES if rows is None else rows * obj.n
    monkeypatch.setattr(model, "_DRAW_BLOCK_VALUES", values)
    return engine(cfg, obj, RngStream(seed))


def window(**kw):
    return run_online_window, OnlineConfig(**{"N": 20, "rho": 0.1, "alpha": 0.5, "K": 999, **kw})


def memoryless(**kw):
    return run_memoryless, MemorylessConfig(**{"N": 20, "rho": 0.1, "alpha": 0.5, "K": 999, **kw})


# K = 999 is a multiple of none of the block sizes tried.
CASES = {
    "window": window(),
    # Settled on one row early: most draw blocks are finished in stretches.
    "window_settled": window(alpha=0.9),
    "window_stride1": window(snapshot_stride=1),
    "window_stride7": window(snapshot_stride=7),
    "window_warm_up_only": window(N=50, K=30),
    "window_K_equals_N": window(N=50, K=50, snapshot_stride=1),
    "memoryless_gauss": memoryless(snapshot_stride=1),
    "memoryless_uniform": memoryless(estimator="uniform_model", snapshot_stride=7),
    "memoryless_constant": memoryless(estimator="constant", delta0=0.4),
}

# eps_conv stops that fall inside a block of 7 rows and of the default size.
EPS_CASES = {
    "window_eps": (window(alpha=0.3, eps_conv=0.05, snapshot_stride=7), 2),
    "memoryless_eps": (memoryless(alpha=0.3, eps_conv=0.05, snapshot_stride=1), 0),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_trace_does_not_depend_on_block_size(monkeypatch, case):
    engine, cfg = CASES[case]
    runs = [run_with_rows(monkeypatch, rows, engine, cfg, TRAP, 3) for rows in (1, 2, 7, None)]
    assert runs[0].steps == cfg.K
    for run in runs[1:]:
        assert outcome(run) == outcome(runs[0])


@pytest.mark.parametrize("case", sorted(EPS_CASES))
def test_eps_conv_stop_inside_a_block(monkeypatch, case):
    (engine, cfg), seed = EPS_CASES[case]
    runs = [run_with_rows(monkeypatch, rows, engine, cfg, TRAP, seed) for rows in (1, 2, 7, None)]
    steps = runs[0].steps
    assert steps < cfg.K and steps % 7 and steps % default_rows(TRAP.n)
    for run in runs[1:]:
        assert outcome(run) == outcome(runs[0])


def batch(**kw):
    return run_batch, BatchConfig(**{"N": 20, "rho": 0.1, "alpha": 0.5, "T": 49, **kw})


# (engine and config, seed); the _eps cases stop early.
LOG_CASES = {
    "window": (window(), 3),
    "window_stride1": (window(snapshot_stride=1), 3),
    "window_eps": EPS_CASES["window_eps"],
    "memoryless": (memoryless(), 3),
    "memoryless_stride1": (memoryless(snapshot_stride=1), 3),
    "memoryless_eps": EPS_CASES["memoryless_eps"],
    "batch": (batch(eps_conv=None), 3),
    "batch_eps": (batch(alpha=0.7), 3),
}


@pytest.mark.parametrize("case", sorted(LOG_CASES))
def test_run_trace_does_not_depend_on_log_block_size(monkeypatch, case):
    (engine, cfg), seed = LOG_CASES[case]
    runs = []
    for rows in (1, 2, 3, None):
        values = DEFAULT_LOG_VALUES if rows is None else rows * TRAP.n
        monkeypatch.setattr(trace, "_LOG_BLOCK_VALUES", values)
        runs.append(engine(cfg, TRAP, RngStream(seed)))
    budget = cfg.T * cfg.N if engine is run_batch else cfg.K
    assert (runs[0].steps < budget) == case.endswith("_eps")
    for run in runs[1:]:
        assert outcome(run) == outcome(runs[0])


def counted(obj):
    """Copy of `obj` that counts fn calls and has a batch_fn that must not run."""
    calls = []

    def fn(bits):
        calls.append(1)
        return obj.fn(bits)

    def batch_fn(batch):
        raise AssertionError("online engines evaluate with fn")

    return Objective(obj.name, obj.n, fn, batch_fn, obj.optimal_bits, obj.optimal_value), calls


def watch_stretches(mp):
    """A list that gets the row count of every updates_applied call (one
    settled stretch each) of the runs started after."""
    stretch_rows = []
    updates_applied = TraceRecorder.updates_applied

    def spy(self, params, step, gamma, delta):
        stretch_rows.append(len(params))
        updates_applied(self, params, step, gamma, delta)

    mp.setattr(TraceRecorder, "updates_applied", spy)
    return stretch_rows


@pytest.mark.parametrize(
    "case", ["window", "memoryless_gauss", "window_eps", "memoryless_eps", "window_settled"]
)
def test_fn_called_once_per_step(monkeypatch, case):
    # Once per step outside a settled stretch; a stretch row calls none.
    (engine, cfg), seed = EPS_CASES[case] if case in EPS_CASES else (CASES[case], 3)
    stretch_rows = watch_stretches(monkeypatch)
    obj, calls = counted(TRAP)
    run = engine(cfg, obj, RngStream(seed))
    assert len(calls) + sum(stretch_rows) == run.steps
    if case in EPS_CASES:
        assert run.steps < cfg.K
    if case == "window_settled":
        assert sum(stretch_rows) > run.steps // 2


def nan_at(draw, n=10):
    """Objective that returns NaN on its call number draw + 1: at draw
    `draw` when no settled stretch, which calls it on none of its rows,
    comes before that draw."""
    calls = []

    def fn(bits):
        calls.append(1)
        return math.nan if len(calls) == draw + 1 else float(bits.sum())

    return Objective(name="nan_at", n=n, fn=fn)


B = default_rows(10)


@pytest.mark.parametrize("draw", [0, B - 1, B, B + 1])
@pytest.mark.parametrize(
    "variant, engine, cfg",
    [
        # At alpha 0.1 the window takes no stretch within these draws; at
        # 0.5 it takes one from draw B on.
        ("window", run_online_window, OnlineConfig(N=20, rho=0.1, alpha=0.1, K=3 * B)),
        ("memoryless", run_memoryless, MemorylessConfig(N=20, rho=0.1, alpha=0.5, K=3 * B)),
    ],
)
def test_non_finite_value_named_at_its_draw(monkeypatch, variant, engine, cfg, draw):
    stretch_rows = watch_stretches(monkeypatch)
    with pytest.raises(DomainError) as info:
        engine(cfg, nan_at(draw), RngStream(1))
    assert not stretch_rows
    assert str(info.value) == (
        f"{variant}: objective returned the non-finite value nan at draw {draw}"
    )


@pytest.mark.parametrize("update_rate", [0.05, 0.3, 0.95])
@pytest.mark.parametrize("rows", [1, 3, None])
def test_sampler_rows_equal_per_step_draws(monkeypatch, rows, update_rate):
    # A scripted elite rule updates at random steps, rarely, often or
    # nearly always. Every row fn is handed must equal a fresh
    # draw_sample at that step, replayed with online_update at the same
    # steps, and no row may change later.
    n, count = 6, 200
    monkeypatch.setattr(model, "_DRAW_BLOCK_VALUES", DEFAULT_VALUES if rows is None else rows * n)
    script = (np.random.default_rng(9).random(count) < update_rate).tolist()
    cfg = OnlineConfig(N=20, rho=0.1, alpha=0.5, K=count)
    params, reference, expected = BernoulliParams.uniform_init(n), RngStream(4), []
    for elite in script:
        expected.append(draw_sample(params, reference))
        if elite:
            params = online_update(expected[-1], params, cfg.alpha1)
    kept = []

    def fn(bits):
        want = expected[len(kept)]
        assert bits.dtype == np.uint8 and np.array_equal(bits, want)
        kept.append(bits)
        return float(bits.sum())

    run = model.run_online(
        "window", cfg, Objective(name="keep_rows", n=n, fn=fn), RngStream(4),
        TraceRecorder, lambda t, value: script[t], lambda: (None, None),
    )
    assert len(kept) == run.steps == count and run.update_count == sum(script)
    assert run.final_params.probs.tobytes() == params.probs.tobytes()
    for row, want in zip(kept, expected):
        assert row.dtype == np.uint8 and np.array_equal(row, want)
