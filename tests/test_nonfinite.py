"""A non-finite objective value stops every engine with DomainError."""

import json
import math

import numpy as np
import pytest

from cemkit import (
    BatchConfig,
    DomainError,
    MemorylessConfig,
    Objective,
    OnlineConfig,
    RngStream,
    run_batch,
    run_memoryless,
    run_online_window,
)
from cemkit import cli, harness


def _nan_when_first_pair_set(n=6):
    """NaN whenever bits 0 and 1 are both set, onemax otherwise; logs every call."""
    calls = []

    def fn(bits):
        calls.append(np.array(bits, copy=True))
        return math.nan if bits[0] and bits[1] else float(bits.sum())

    return Objective(name="nan_pair", n=n, fn=fn), calls


def _first_nan_draw(calls):
    return next(i for i, bits in enumerate(calls) if bits[0] and bits[1])


@pytest.mark.parametrize(
    "variant, run, cfg",
    [
        ("batch", run_batch, BatchConfig(N=20, rho=0.1, alpha=0.7, T=10)),
        ("window", run_online_window, OnlineConfig(N=20, rho=0.1, alpha=0.7, K=500)),
        ("memoryless", run_memoryless, MemorylessConfig(N=20, rho=0.1, alpha=0.7, K=500)),
    ],
)
def test_engine_names_variant_draw_and_value(variant, run, cfg):
    obj, calls = _nan_when_first_pair_set()
    with pytest.raises(DomainError) as info:
        run(cfg, obj, RngStream(5))
    draw = _first_nan_draw(calls)
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
