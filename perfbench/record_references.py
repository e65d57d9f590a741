"""Record the reference digests of every workload, per seed.

    python3 perfbench/record_references.py

Writes perfbench/references.json. For each workload and each seed index
0..REFERENCE_SEEDS-1 it runs one traced and one untraced unit at the
sizes in workloads.REPLICATES and stores the SHA-256 of the output table
(`digest`, which both units must agree on) and of the traced unit's run
fingerprints (`run_digest`, see tracing.fingerprint). Run it only at a
commit whose outputs are the reference: the benchmark fails any unit
that differs from them by a single byte.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def record_one(task):
    workload, seed = task
    with run.work_dir(f"record-{workload}-{seed}") as work:
        runner = run.Runner(workload, seed, workloads.REPLICATES[workload], work)
        traced = runner.traced()
        plain = runner.plain()
    if traced["digest"] != plain["digest"]:
        raise RuntimeError(f"{workload} seed {seed}: traced and untraced tables differ")
    return traced["digest"], traced["run_digest"]


def main() -> None:
    tasks = [(w, s) for w in workloads.WORKLOADS for s in range(workloads.REFERENCE_SEEDS)]
    # Two units at a time, one per core of a 2-core machine.
    with ThreadPoolExecutor(2) as pool:
        results = list(pool.map(record_one, tasks))
    n = workloads.REFERENCE_SEEDS
    record = {"reference_seeds": n, "replicates": workloads.REPLICATES}
    for k, key in enumerate(run.DIGESTS):
        record[key] = {w: [r[k] for r in results[i * n:(i + 1) * n]] for i, w in enumerate(workloads.WORKLOADS)}
    with open(HERE / "references.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
