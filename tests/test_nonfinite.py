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
from cemkit import cli


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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_cli_exits_1_with_the_message_on_stderr(capsys, tmp_path):
    # 1e308 + 1e308 overflows to inf once bits 0 and 1 are both drawn.
    cfg = {
        "problem": {"kind": "weighted_linear", "n": 3, "weights": [1e308, 1e308, 1.0]},
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
