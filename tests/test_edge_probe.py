"""Edge probe: a config that parse_config accepts runs to the end.

Each numeric field goes to the edges of its accepted range, one field at
a time, on a small base config, for each variant; the problem edges are
probed on the same base. Every config goes through run_experiment,
alpha_sweep and compare_variants and the writers of their tables. Each
call must either run to the end or fail with a ConfigError: at
parse_config, or, for the calls that run other settings than the
config's own, before any replicate starts.
"""

import pytest

from cemkit import ConfigError, alpha_sweep, compare_variants, harness, parse_config, run_experiment
from cemkit.harness import (
    compare_to_csv,
    compare_to_json,
    results_to_csv,
    results_to_json,
    sweep_to_csv,
    sweep_to_json,
)

TINY = 5e-324  # the smallest positive float
SUBNORMAL = 1e-310
BELOW_HALF = 0.49999999999999994  # the largest float below 0.5
BELOW_ONE = 0.9999999999999999  # the largest float below 1

# A small problem with a known optimum, and budgets matched for compare.
BASE = {
    "problem": {"kind": "onemax", "n": 8},
    "N": 20, "T": 2, "K": 40, "rho": 0.1, "alpha": 0.5,
    "replicates": 2, "base_seed": 3,
}

# Overrides of BASE, each a field of the config file (N, T and K move
# together, so that compare's budgets still match).
FIELD_EDGES = [
    *({"alpha": a} for a in (TINY, SUBNORMAL, 2.0**-60, 1.0)),
    *({"rho": r} for r in (TINY, 2.0**-60, 0.5, BELOW_ONE)),
    {"N": 1, "T": 40, "K": 40},
    {"N": 1, "T": 1, "K": 1},
    {"N": 2, "T": 1, "K": 2, "rho": BELOW_ONE},
    {"N": 40, "T": 1, "K": 40},
    {"snapshot_stride": 1},
    {"snapshot_stride": 41},
    {"snapshot_stride": 2**62},
    *({"eps_conv": e} for e in (TINY, 2.0**-60, 0.25, BELOW_HALF)),
    *({"eps_binary": e} for e in (TINY, 2.0**-60, BELOW_HALF)),
    *({"beta": b} for b in (0.0, TINY, 1.0)),
    *({"delta_min": d} for d in (TINY, 1e308)),
    *({"delta_init": d} for d in (TINY, 1e308)),
    *({"delta0": d} for d in (TINY, 1e308)),
    *({"estimator": "constant", "delta0": d} for d in (TINY, 1e308)),
    {"estimator": "uniform_model", "delta_min": 1e308},
    {"delta0_mode": "calibrated", "rho": BELOW_ONE},
    *({"gamma0": g} for g in (-1e308, -TINY, 1e308)),
    {"replicates": 1},
    {"base_seed": 0},
    {"base_seed": 2**63},
]

PROBLEM_EDGES = [
    {"kind": "onemax", "n": 1},
    {"kind": "leading_ones", "n": 1},
    {"kind": "trap_k", "n": 2, "k": 2},
    {"kind": "trap_k", "n": 6, "k": 6},
    {"kind": "weighted_linear", "n": 3, "weights": [0.0, 0.0, 0.0]},
    {"kind": "weighted_linear", "n": 3, "weights": [TINY, -TINY, SUBNORMAL]},
    {"kind": "maxcut", "n": 2, "edges": [[0, 1]]},
]

CASES = [pytest.param(edge, id=repr(edge)) for edge in FIELD_EDGES] + [
    pytest.param({"problem": p}, id=repr(p)) for p in PROBLEM_EDGES
]


def _sweep(cfg):
    # The config's own alpha, checked by parse_config, and the largest.
    return alpha_sweep(cfg, alphas=(cfg.alpha, 1.0))


ENTRIES = {
    "run_experiment": (run_experiment, (results_to_csv, results_to_json)),
    "alpha_sweep": (_sweep, (sweep_to_csv, sweep_to_json)),
    "compare_variants": (compare_variants, (compare_to_csv, compare_to_json)),
}


@pytest.mark.parametrize("variant", ["batch", "window", "memoryless"])
@pytest.mark.parametrize("edge", CASES)
def test_accepted_config_runs_to_the_end(monkeypatch, edge, variant):
    try:
        cfg = parse_config({**BASE, **edge, "variant": variant})
    except ConfigError:
        return
    replicates = []
    run_one = harness._run_one

    def counted(cfg, obj, r):
        replicates.append(r)
        return run_one(cfg, obj, r)

    monkeypatch.setattr(harness, "_run_one", counted)
    for name, (entry, writers) in ENTRIES.items():
        replicates.clear()
        try:
            rows = entry(cfg)
        except ConfigError:
            # compare runs every variant, so it refuses what another
            # variant's checks refuse (an alpha whose online step
            # underflows, an N not above 1/rho for memoryless); nothing
            # may run before that.
            assert name == "compare_variants" and not replicates, name
            continue
        assert len(rows) == {"run_experiment": cfg.replicates, "alpha_sweep": 2, "compare_variants": 3}[name]
        for write in writers:
            assert write(rows)
