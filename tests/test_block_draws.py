"""Block draws in the online engines.

The window and memoryless engines draw their uniforms in blocks of rows
(model.BlockSampler) and evaluate one consumed row at a time with
`Objective.fn`. Nothing a run returns may depend on the block size, the
objective is called exactly once per step, and a non-finite value is
reported at the draw that produced it.
"""

import math

import numpy as np
import pytest

from cemkit import (
    BernoulliParams,
    DomainError,
    MemorylessConfig,
    Objective,
    OnlineConfig,
    ProblemSpec,
    RngStream,
    draw_sample,
    make_objective,
    run_memoryless,
    run_online_window,
)
from cemkit import model
from cemkit.model import BlockSampler

TRAP = make_objective(ProblemSpec(kind="trap_k", n=10, k=5))
DEFAULT_VALUES = model._DRAW_BLOCK_VALUES


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


def counted(obj):
    """Copy of `obj` that counts fn calls and has a batch_fn that must not run."""
    calls = []

    def fn(bits):
        calls.append(1)
        return obj.fn(bits)

    def batch_fn(batch):
        raise AssertionError("online engines evaluate with fn")

    return Objective(obj.name, obj.n, fn, batch_fn, obj.optimal_bits, obj.optimal_value), calls


@pytest.mark.parametrize("case", ["window", "memoryless_gauss", "window_eps", "memoryless_eps"])
def test_fn_called_once_per_step(case):
    (engine, cfg), seed = EPS_CASES[case] if case in EPS_CASES else (CASES[case], 3)
    obj, calls = counted(TRAP)
    run = engine(cfg, obj, RngStream(seed))
    assert len(calls) == run.steps
    if case in EPS_CASES:
        assert run.steps < cfg.K


def nan_at(draw, n=10):
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
        ("window", run_online_window, OnlineConfig(N=20, rho=0.1, alpha=0.5, K=3 * B)),
        ("memoryless", run_memoryless, MemorylessConfig(N=20, rho=0.1, alpha=0.5, K=3 * B)),
    ],
)
def test_non_finite_value_named_at_its_draw(variant, engine, cfg, draw):
    with pytest.raises(DomainError) as info:
        engine(cfg, nan_at(draw), RngStream(1))
    assert str(info.value) == (
        f"{variant}: objective returned the non-finite value nan at draw {draw}"
    )


@pytest.mark.parametrize("update_rate", [0.05, 0.3, 0.95])
@pytest.mark.parametrize("rows", [1, 3, None])
def test_sampler_rows_equal_per_step_draws(monkeypatch, rows, update_rate):
    # Probabilities change at random steps, rarely, often or nearly
    # always; every row must equal a fresh draw_sample at that step, and
    # no returned row may change later.
    n, count = 6, 200
    monkeypatch.setattr(model, "_DRAW_BLOCK_VALUES", DEFAULT_VALUES if rows is None else rows * n)
    changes = np.random.default_rng(9)
    probs = np.full(n, 0.5)
    sampler = BlockSampler(RngStream(4), probs, count)
    reference = RngStream(4)
    returned, expected = [], []
    for _ in range(count):
        row = sampler.next()
        want = draw_sample(BernoulliParams(probs), reference)
        assert row.dtype == np.uint8 and np.array_equal(row, want)
        returned.append(row)
        expected.append(want)
        if changes.random() < update_rate:
            probs = changes.random(n)
            sampler.set_probs(probs)
    for row, want in zip(returned, expected):
        assert np.array_equal(row, want)
    with pytest.raises(IndexError):
        sampler.next()
