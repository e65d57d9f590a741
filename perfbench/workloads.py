"""The benchmark's three workloads: inputs from a seed, and one unit of work each.

A unit is the fixed piece of work that is timed and whose output table is
checked against its reference digest:

- online_trap: `alpha_sweep` for window and for memoryless on trap_5_10,
  output the two sweep CSVs;
- batch_onemax: `run_experiment` for batch on onemax_100, output the
  results CSV;
- cli_maxcut: `python -m cemkit compare` on a seed-generated maxcut_20
  instance, output the compare CSV the CLI writes.

Every input derives from the workload seed reduced modulo
REFERENCE_SEEDS, the number of seeds whose reference digests were
recorded, so every run's output can be checked byte for byte.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from typing import Dict, List

WORKLOADS = ("online_trap", "batch_onemax", "cli_maxcut")
REFERENCE_SEEDS = 64
ALPHAS = (0.9, 0.5, 0.2, 0.05)

# Replicates per unit, sized so one unit takes a few seconds on a 2-core
# machine and a run repeats it several times.
REPLICATES = {"online_trap": 1, "batch_onemax": 250, "cli_maxcut": 10}

MAXCUT_N = 20
MAXCUT_EDGES = 60


def seed_index(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def configs(workload: str, seed: int, replicates: int) -> List[Dict]:
    """The experiment configs one unit of `workload` runs, as plain dicts."""
    rnd = random.Random(f"{workload}:{seed_index(seed)}")
    base_seed = rnd.randrange(1_000_000)
    if workload == "online_trap":
        common = {
            "problem": {"kind": "trap_k", "n": 10, "k": 5},
            "N": 100,
            "rho": 0.1,
            "K": 5000,
            "replicates": replicates,
            "base_seed": base_seed,
            "alphas": list(ALPHAS),
            "jobs": 1,
        }
        return [dict(common, variant=v) for v in ("window", "memoryless")]
    if workload == "batch_onemax":
        return [
            {
                "problem": {"kind": "onemax", "n": 100},
                "variant": "batch",
                "N": 100,
                "rho": 0.1,
                "T": 50,
                "replicates": replicates,
                "base_seed": base_seed,
                "jobs": 1,
            }
        ]
    if workload == "cli_maxcut":
        pairs = list(itertools.combinations(range(MAXCUT_N), 2))
        edges = sorted(rnd.sample(pairs, MAXCUT_EDGES))
        return [
            {
                "problem": {"kind": "maxcut", "n": MAXCUT_N, "edges": [list(e) for e in edges]},
                "N": 100,
                "rho": 0.1,
                "T": 30,
                "K": 3000,
                "snapshot_stride": 1,
                "replicates": replicates,
                "base_seed": base_seed,
                "jobs": 1,
            }
        ]
    raise ValueError(f"unknown workload {workload!r}")


def operations(workload: str, replicates: int) -> int:
    """Operations one unit attempts: replicates run, or CLI invocations."""
    if workload == "online_trap":
        return 2 * len(ALPHAS) * replicates
    if workload == "batch_onemax":
        return replicates
    return 1


def run_unit(workload: str, cfgs, harness):
    """Run one in-process unit; returns (output table, evaluations or None).

    `harness` is the cemkit.harness module; its functions are looked up on
    it at call time, so a traced run's stand-ins (tracing.install) are
    used. The evaluation count is known without tracing only where the
    harness hands back per-replicate rows.
    """
    if workload == "online_trap":
        text = ""
        for cfg in cfgs:
            text += harness.sweep_to_csv(harness.alpha_sweep(cfg, None, 1))
        return text, None
    (cfg,) = cfgs
    rows = harness.run_experiment(cfg, 1)
    return harness.results_to_csv(rows), sum(r.steps for r in rows)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
