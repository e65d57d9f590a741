"""A non-finite objective value stops every engine, and every exhaustive
scan, with DomainError."""

import json
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
    RngStream,
    draw_sample,
    elite_probability_exhaustive,
    enumerate_optimum,
    run_batch,
    run_memoryless,
    run_online_window,
)
from cemkit import cli, harness


def _nan_when_first_pair_set(n=6):
    """NaN whenever bits 0 and 1 are both set, onemax otherwise."""

    def fn(bits):
        return math.nan if bits[0] and bits[1] else float(bits.sum())

    return Objective(name="nan_pair", n=n, fn=fn)


def _first_nan_draw(variant, run, cfg, seed, n=6):
    """The first draw whose row sets bits 0 and 1, replayed with
    draw_sample. A run on plain onemax agrees with the NaN one on every
    row before that draw; its snapshots give the parameters each row is
    drawn from: one per step for an online run at stride 1, one per
    generation of N rows for batch."""
    onemax = Objective(name="onemax", n=n, fn=lambda bits: float(bits.sum()))
    per = cfg.N if variant == "batch" else 1
    twin = run(cfg if variant == "batch" else replace(cfg, snapshot_stride=1), onemax, RngStream(seed))
    rng = RngStream(seed)
    for t in range(twin.steps):
        bits = draw_sample(BernoulliParams(twin.snapshots[t // per].params), rng)
        if bits[0] and bits[1]:
            return t
    return None


# At n = 6 and K = 500 most online steps repeat a row: the value memo answers them.
@pytest.mark.parametrize(
    "variant, run, cfg",
    [
        ("batch", run_batch, BatchConfig(N=20, rho=0.1, alpha=0.7, T=10)),
        ("window", run_online_window, OnlineConfig(N=20, rho=0.1, alpha=0.7, K=500)),
        ("memoryless", run_memoryless, MemorylessConfig(N=20, rho=0.1, alpha=0.7, K=500)),
    ],
)
def test_engine_names_variant_draw_and_value(variant, run, cfg):
    with pytest.raises(DomainError) as info:
        run(cfg, _nan_when_first_pair_set(), RngStream(5))
    draw = _first_nan_draw(variant, run, cfg, 5)
    assert draw > 0
    assert str(info.value) == (
        f"{variant}: objective returned the non-finite value nan at draw {draw}"
    )


def test_cli_exits_1_with_the_message_on_stderr(capsys, tmp_path, monkeypatch):
    # Config checks keep every built-in objective finite (weights whose
    # sums overflow are a config error), so the CLI gets an objective
    # that returns inf once bits 0 and 1 are both drawn.
    def infinite_when_first_pair_set(spec):
        return Objective(
            name="inf_pair",
            n=spec.n,
            fn=lambda bits: math.inf if bits[0] and bits[1] else float(bits.sum()),
        )

    monkeypatch.setattr(harness, "_cached_objective", infinite_when_first_pair_set)
    cfg = {
        "problem": {"kind": "onemax", "n": 3},
        "variant": "window",
        "N": 20,
        "K": 200,
        "replicates": 2,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = cli.main(["run", "--config", str(path)])
    out = capsys.readouterr()
    assert code == 1 and out.out == ""
    assert out.err.startswith("error: window: objective returned the non-finite value inf at draw ")


def _nan_when_first_bit_set(with_batch_fn):
    """NaN on the rows with x_0 = 1, onemax otherwise: over n = 3 the
    finite rows reach 2.0 at 011, and row 4 (100) is the first NaN."""

    def fn(bits):
        return math.nan if bits[0] else float(bits.sum())

    def batch_fn(rows):
        return np.where(rows[:, 0] == 1, math.nan, rows.sum(axis=1))

    return Objective(name="nan_x0", n=3, fn=fn, batch_fn=batch_fn if with_batch_fn else None)


SCANS = {
    "enumerate_optimum": enumerate_optimum,
    # At gamma 1.0 the NaN rows would count as non-elite.
    "elite_probability_exhaustive": lambda obj: elite_probability_exhaustive(
        BernoulliParams.uniform_init(obj.n), obj, 1.0
    ),
}


@pytest.mark.parametrize("with_batch_fn", [False, True], ids=["fn", "batch_fn"])
@pytest.mark.parametrize("scan", SCANS)
def test_exhaustive_scan_names_the_non_finite_row(scan, with_batch_fn):
    obj = _nan_when_first_bit_set(with_batch_fn)
    with pytest.raises(DomainError) as info:
        SCANS[scan](obj)
    assert str(info.value) == "nan_x0: objective returned the non-finite value nan at row 4"
