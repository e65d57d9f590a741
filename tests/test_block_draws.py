"""Block draws in the online engines, and block-folded trace recording.

The window and memoryless engines draw their uniforms in blocks of rows
(inside model.run_online) and evaluate one consumed row at a time with
`Objective.fn`. Nothing a run returns may depend on the block size, the
objective is called once per distinct row outside a window's settled
stretches (the run's value memo answers repeated rows) and never inside
one, and a non-finite value is reported at the draw that produced it.
Likewise, no engine's RunTrace may depend on the size of the
TraceRecorder's update-log block.
"""

import math
from dataclasses import replace

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
DEFAULT_SETTLED_VALUES = model._SETTLED_BLOCK_VALUES


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


@pytest.mark.parametrize("case", ["window_settled", "window_stride1", "window_stride7"])
def test_run_trace_does_not_depend_on_settled_block_growth(monkeypatch, case):
    # A stretch that takes its whole block doubles the next settled
    # block, up to _SETTLED_BLOCK_VALUES // n rows. A cap at or below one
    # draw block turns the growth off; caps of 4 and 40 rows cut it short
    # early or late. Every run equals the default's, at draw blocks of
    # 1 row and of the default size.
    engine, cfg = CASES[case]
    cfg = replace(cfg, alpha=0.9, K=3000)
    stretches = watch_stretches(monkeypatch)
    runs = []
    for rows in (1, None):
        for cap in (1, 4, 40, None):
            values = DEFAULT_SETTLED_VALUES if cap is None else cap * TRAP.n
            monkeypatch.setattr(model, "_SETTLED_BLOCK_VALUES", values)
            runs.append(run_with_rows(monkeypatch, rows, engine, cfg, TRAP, 3))
            if cap is None:
                # Growth on: some stretch is longer than a draw block.
                assert max(m for _, m in stretches) > (1 if rows == 1 else default_rows(TRAP.n))
            stretches.clear()
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
        calls.append(bits.tobytes())
        return obj.fn(bits)

    def batch_fn(batch):
        raise AssertionError("online engines evaluate with fn")

    return Objective(obj.name, obj.n, fn, batch_fn, obj.optimal_bits, obj.optimal_value), calls


def drawn_rows(engine, cfg, obj, seed):
    """The bytes of every step's row, replayed with draw_sample from the
    parameters before each step (the snapshots of a stride-1 run)."""
    run = engine(replace(cfg, snapshot_stride=1), obj, RngStream(seed))
    rng = RngStream(seed)
    return [
        draw_sample(BernoulliParams(run.snapshots[t].params), rng).tobytes()
        for t in range(run.steps)
    ]


def watch_stretches(mp):
    """A list that gets (first step, row count) of every updates_applied
    call (one settled stretch each) of the runs started after."""
    stretches = []
    updates_applied = TraceRecorder.updates_applied

    def spy(self, params, step, gamma, delta):
        stretches.append((step, len(params)))
        updates_applied(self, params, step, gamma, delta)

    mp.setattr(TraceRecorder, "updates_applied", spy)
    return stretches


TRAP_6 = make_objective(ProblemSpec(kind="trap_k", n=6, k=3))
# At n = 6 most steps repeat a row the run has already evaluated.
SMALL_CASES = {"window_memo": window(), "memoryless_memo": memoryless()}


@pytest.mark.parametrize(
    "case",
    ["window", "memoryless_gauss", "window_eps", "memoryless_eps", "window_settled", *SMALL_CASES],
)
def test_fn_called_once_per_step(monkeypatch, case):
    # fn is called on the first draw of each row outside a settled
    # stretch, and on no other step: a stretch row and a repeated row
    # (the run's value memo) take no call. The calls, the memo hits and
    # the stretches tile the run's steps.
    if case in SMALL_CASES:
        (engine, cfg), seed, problem = SMALL_CASES[case], 3, TRAP_6
    else:
        (engine, cfg), seed = EPS_CASES[case] if case in EPS_CASES else (CASES[case], 3)
        problem = TRAP
    stretches = watch_stretches(monkeypatch)
    obj, calls = counted(problem)
    run = engine(cfg, obj, RngStream(seed))
    stretch_steps = {t for first, m in stretches for t in range(first, first + m)}
    stretches.clear()
    rows = drawn_rows(engine, cfg, problem, seed)
    loop_rows = [row for t, row in enumerate(rows) if t not in stretch_steps]
    assert calls == list(dict.fromkeys(loop_rows))
    assert len(loop_rows) + len(stretch_steps) == len(rows) == run.steps
    assert len(calls) < run.steps
    if case in EPS_CASES:
        assert run.steps < cfg.K
    if case == "window_settled":
        assert len(stretch_steps) > run.steps // 2
    if case in SMALL_CASES:
        assert run.steps == cfg.K and len(calls) <= 2**problem.n


B = default_rows(10)


@pytest.mark.parametrize("draw", [0, B - 1, B, B + 1])
@pytest.mark.parametrize(
    "variant, engine, cfg",
    [
        # The window takes no stretch within these draws (asserted).
        ("window", run_online_window, OnlineConfig(N=20, rho=0.1, alpha=0.1, K=3 * B)),
        ("memoryless", run_memoryless, MemorylessConfig(N=20, rho=0.1, alpha=0.5, K=3 * B)),
    ],
)
def test_non_finite_value_named_at_its_draw(monkeypatch, variant, engine, cfg, draw):
    # n = 200 in blocks of B rows: the same block edges as n = 10 at the
    # default size, and rows that do not repeat. The objective is NaN on
    # the row replayed at draw `draw` alone and onemax elsewhere, so it
    # agrees with onemax on every earlier row.
    n = 200
    monkeypatch.setattr(model, "_DRAW_BLOCK_VALUES", B * n)
    onemax = Objective(name="onemax", n=n, fn=lambda bits: float(bits.sum()))
    rows = drawn_rows(engine, cfg, onemax, 1)
    assert rows.index(rows[draw]) == draw

    def fn(bits):
        return math.nan if bits.tobytes() == rows[draw] else float(bits.sum())

    stretch_rows = watch_stretches(monkeypatch)
    with pytest.raises(DomainError) as info:
        engine(cfg, Objective(name="nan_row", n=n, fn=fn), RngStream(1))
    assert not stretch_rows
    assert str(info.value) == (
        f"{variant}: objective returned the non-finite value nan at draw {draw}"
    )


@pytest.mark.parametrize("update_rate", [0.05, 0.3, 0.95])
@pytest.mark.parametrize("rows", [1, 3, None])
def test_sampler_rows_equal_per_step_draws(monkeypatch, rows, update_rate):
    # A scripted elite rule updates at random steps, rarely, often or
    # nearly always. fn is handed the row of each step that draws a row
    # for the first time (the run's value memo answers the others), and
    # that row must equal a fresh draw_sample at that step, replayed
    # with online_update at the same steps; no row may change later.
    n, count = 6, 200
    monkeypatch.setattr(model, "_DRAW_BLOCK_VALUES", DEFAULT_VALUES if rows is None else rows * n)
    script = (np.random.default_rng(9).random(count) < update_rate).tolist()
    cfg = OnlineConfig(N=20, rho=0.1, alpha=0.5, K=count)
    params, reference, expected = BernoulliParams.uniform_init(n), RngStream(4), []
    for elite in script:
        expected.append(draw_sample(params, reference))
        if elite:
            params = online_update(expected[-1], params, cfg.alpha1)
    first_steps = list({row.tobytes(): t for t, row in reversed(list(enumerate(expected)))}.values())
    kept, decided = [], []

    def fn(bits):
        want = expected[len(decided)]
        assert bits.dtype == np.uint8 and np.array_equal(bits, want)
        kept.append(bits)
        return float(bits.sum())

    def is_elite(t, value):
        assert t == len(decided) and value == expected[t].sum()
        decided.append(t)
        return script[t]

    run = model.run_online(
        "window", cfg, Objective(name="keep_rows", n=n, fn=fn), RngStream(4),
        TraceRecorder, is_elite, lambda: (None, None),
    )
    assert len(decided) == run.steps == count and run.update_count == sum(script)
    assert len(kept) == len(first_steps) < count
    assert run.final_params.probs.tobytes() == params.probs.tobytes()
    for row, t in zip(kept, sorted(first_steps)):
        assert row.dtype == np.uint8 and np.array_equal(row, expected[t])
