"""Compare the CLI's outputs at a git ref with those of the working tree.

    python3 scripts/byte_identity.py REF

Extracts `git archive REF` into a temporary directory, then runs the same
CLI commands against both source trees: `run`, `compare`, `sweep-alpha`
and `calibrate-delta0` (at 10000 repetitions), each as CSV and as JSON,
plus `config-dump`, over two fixed grids of configs: nine commands on each
of 166 configs, 1494 triples. The valid grid covers five problem kinds x three
variants x snapshot_stride 1 and default x eps_conv set and unset (60
configs); the memoryless configs cycle through the three delta
estimators, a pinned gamma0 and a delta_min above 0. Twelve more valid
configs, six problems each for window and for memoryless, reach the
edges of the online engines' block draws, of the trap kernel's byte
lanes and of the trace's storage blocks: onemax with n = 8200 (one row
per draw block and per trace log block), trap_k with n = 100 (ten rows
per draw block), a maxcut with n = 20 shaped like the benchmark's
`cli_maxcut` (60 edges, N=100, T=30, K=3000, snapshot_stride 1), trap_k
with n = 256, k = 128 (the widest one-byte lanes) and with n = 258,
k = 129 (the narrowest two-byte lanes), and onemax with n = 20,
K = 8000 and snapshot_stride 1 (about twenty snapshot storage blocks).
One more valid batch config runs at alpha = 1 with the grid [1.0, 0.2],
where the per-update step is 1 and the miss bound's tail sum is 0.
Three window configs on trap_k with n = 10, k = 5 at alpha = 0.9,
N = 100 and K = 5000 settle early, so most of their steps are finished
in settled stretches: at snapshot_stride 1, at the default stride, and
with eps_conv = 1e-60, which stops the runs inside a stretch. Four more
window configs on the same problem run at alpha = 0.2 and 0.05, each at
snapshot_stride 1 and at the default stride: their stretches start
while the ones of the settled row still creep toward their fixed points.
Two more window configs on onemax with n = 100 at alpha = 0.2, at
snapshot_stride 1 and at the default stride, are wide: a draw block holds
ten rows, so their first stretches are short and dozens of ones creep in
each. Five more window configs at alpha = 0.9 grow their settled blocks:
a stretch that takes its whole block doubles the next one, up to the cap
(1638 rows at n = 10). On trap_k with n = 10, k = 5, N = 100 and
K = 20000, at snapshot_stride 1 and at the default stride, the runs reach
the cap and end inside a block cut short by K; with eps_conv = 1e-60 they
stop inside a doubled block; at K = 3100 and snapshot_stride 7 they end
inside a doubled block of 1632 rows. On onemax with n = 100 and K = 5000
the blocks double from ten rows to the cap of 163.
Forty more configs repeat rows on most steps, so that the online engines'
value memo answers most of them: every problem kind at n = 8, where
K = 1040 = T * N holds at least 4 * 2^n steps, each as window and as
memoryless, at snapshot_stride 1 and default and with eps_conv set and
unset. Eight more configs on trap_k with n = 10, k = 5 at alpha = 0.9,
N = 82 and K = 5002 = T * N (which ends within a draw block), window
and memoryless, at snapshot_stride 7 and 150 and with eps_conv = 1e-12
set and unset, leave stride steps pending across draw blocks, settled
stretches and early stops.
The rejected grid (31 configs) gives each variant one out-of-range
value of a key that variant reads, so the ref rejects it too; it guards
the text of the config checks. Every (stdout, stderr, exit code) triple
must be equal, every command on a valid config must exit 0 and every
command on a rejected one 2, or the script prints what differs and
exits 1.

Each config runs in its own interpreter per tree, which calls
`cemkit.cli.main` once per command with PYTHONPATH set to that tree's
`src`; two such interpreters run at a time. Configs are written once and read by both trees from the same
paths, so error messages that name a path compare equal too.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKERS = 2

PROBLEMS = [
    {"kind": "onemax", "n": 10},
    {"kind": "leading_ones", "n": 8},
    {"kind": "trap_k", "n": 10, "k": 5},
    {
        "kind": "maxcut", "n": 10,
        "edges": [[0, 1], [0, 4], [1, 2], [1, 7], [2, 3], [2, 8], [3, 4], [3, 9],
                  [4, 5], [5, 6], [5, 9], [6, 7], [6, 2], [7, 8], [8, 9], [9, 0]],
    },
    {"kind": "weighted_linear", "n": 8, "weights": [1.5, -0.25, 2.0, 0.75, -1.0, 3.0, 0.5, 1.25]},
]
VARIANTS = ("batch", "window", "memoryless")
ESTIMATORS = (
    {"estimator": "gauss_model"},
    {"estimator": "uniform_model", "delta_init": 0.05},
    {"estimator": "constant", "delta0": 0.3},
    {"estimator": "uniform_model", "gamma0": 3.0},
    {"estimator": "gauss_model", "delta_min": 0.1},
)
# One out-of-range value per config of the rejected grid, and the variants
# that read the key.
BAD_KEYS = [
    ({"N": 0}, VARIANTS),
    ({"rho": 0.0}, VARIANTS),
    ({"rho": 1.0}, VARIANTS),
    ({"alpha": 0.0}, VARIANTS),
    ({"alpha": 1.5}, VARIANTS),
    ({"eps_conv": 0.5}, VARIANTS),
    ({"T": 0}, ("batch",)),
    ({"K": 0}, ("window", "memoryless")),
    ({"snapshot_stride": 0}, ("window", "memoryless")),
    ({"N": 5}, ("memoryless",)),
    ({"estimator": "bogus"}, ("memoryless",)),
    ({"estimator": "constant"}, ("memoryless",)),
    ({"beta": 7.0}, ("memoryless",)),
    ({"delta0": -1.0}, ("memoryless",)),
    ({"delta0_mode": "weird"}, ("memoryless",)),
    ({"delta_init": -0.5}, ("memoryless",)),
    ({"delta_min": -0.5}, ("memoryless",)),
]
MAXCUT_20 = {
    "kind": "maxcut", "n": 20,
    "edges": [list(e) for e in sorted(
        random.Random("byte_identity:maxcut_20").sample(list(itertools.combinations(range(20), 2)), 60)
    )],
}
# (problem, settings) of the edge configs; each runs as window and as memoryless.
EDGES = [
    ({"kind": "onemax", "n": 8200}, {}),
    ({"kind": "trap_k", "n": 100, "k": 5}, {}),
    (MAXCUT_20, {"N": 100, "T": 30, "K": 3000, "snapshot_stride": 1}),
    ({"kind": "trap_k", "n": 256, "k": 128}, {}),
    ({"kind": "trap_k", "n": 258, "k": 129}, {}),
    ({"kind": "onemax", "n": 20}, {"T": 400, "K": 8000, "snapshot_stride": 1}),
]
# Problems with 2^n <= K // 4 at K = 1040: their online runs mostly repeat rows.
MEMO_PROBLEMS = [
    {"kind": "onemax", "n": 8},
    {"kind": "leading_ones", "n": 8},
    {"kind": "trap_k", "n": 8, "k": 4},
    {"kind": "maxcut", "n": 8,
     "edges": [[0, 1], [0, 5], [1, 2], [1, 6], [2, 3], [2, 7], [3, 4], [4, 5], [5, 6], [6, 7], [7, 0]]},
    PROBLEMS[4],
]
COMMANDS = (
    ["run"],
    ["run", "--format", "json"],
    ["compare"],
    ["compare", "--format", "json"],
    ["sweep-alpha"],
    ["sweep-alpha", "--format", "json"],
    ["calibrate-delta0", "--reps", "10000"],
    ["calibrate-delta0", "--reps", "10000", "--format", "json"],
    ["config-dump"],
)


def grid():
    """The 135 valid configs, each a plain dict ready for json.dump."""
    memoryless = itertools.cycle(ESTIMATORS)
    out = []
    for i, (problem, variant, stride, eps) in enumerate(
        itertools.product(PROBLEMS, VARIANTS, (1, None), (0.01, None))
    ):
        cfg = {
            "problem": problem, "variant": variant,
            "N": 20, "rho": 0.1, "alpha": 0.7, "T": 15, "K": 300,
            "replicates": 3, "base_seed": 100 + 7 * i, "alphas": [0.7, 0.2],
            "snapshot_stride": stride, "eps_conv": eps, "jobs": 1,
        }
        if variant == "memoryless":
            cfg.update(next(memoryless))
        out.append(cfg)
    for i, ((problem, settings), variant) in enumerate(
        itertools.product(EDGES, ("window", "memoryless"))
    ):
        out.append({
            "problem": problem, "variant": variant,
            "N": 20, "rho": 0.1, "alpha": 0.7, "T": 15, "K": 300,
            "replicates": 3, "base_seed": 900 + 7 * i, "alphas": [0.7, 0.2], "jobs": 1,
            **settings,
        })
    out.append({
        "problem": PROBLEMS[0], "variant": "batch",
        "N": 20, "rho": 0.1, "alpha": 1.0, "T": 15, "K": 300,
        "replicates": 3, "base_seed": 2000, "alphas": [1.0, 0.2], "jobs": 1,
    })
    for i, settings in enumerate(({"snapshot_stride": 1}, {}, {"eps_conv": 1e-60})):
        out.append({
            "problem": PROBLEMS[2], "variant": "window",
            "N": 100, "rho": 0.1, "alpha": 0.9, "T": 50, "K": 5000,
            "replicates": 3, "base_seed": 3000 + 7 * i, "alphas": [0.9, 0.5], "jobs": 1,
            **settings,
        })
    # Their stretches start while the ones of the settled row still creep
    # toward their fixed points.
    for i, (alpha, stride) in enumerate(itertools.product((0.2, 0.05), (1, None))):
        out.append({
            "problem": PROBLEMS[2], "variant": "window",
            "N": 100, "rho": 0.1, "alpha": alpha, "T": 50, "K": 5000,
            "replicates": 3, "base_seed": 3100 + 7 * i, "alphas": [alpha, 0.5], "jobs": 1,
            "snapshot_stride": stride,
        })
    # Wide: ten rows per draw block, so many short stretches, each with
    # dozens of ones still creeping.
    for i, stride in enumerate((1, None)):
        out.append({
            "problem": {"kind": "onemax", "n": 100}, "variant": "window",
            "N": 100, "rho": 0.1, "alpha": 0.2, "T": 50, "K": 5000,
            "replicates": 3, "base_seed": 3150 + 7 * i, "alphas": [0.2, 0.5], "jobs": 1,
            "snapshot_stride": stride,
        })
    # Settled blocks double while stretches take them whole, up to
    # _SETTLED_BLOCK_VALUES values (1638 rows at n = 10, 163 at n = 100).
    # At K = 20000 the runs reach the cap and end inside a block cut short
    # by K; eps_conv = 1e-60 stops them inside a doubled block; K = 3100
    # ends inside a doubled block of 1632 rows; onemax with n = 100 at
    # alpha 0.9 doubles up to its cap on a wide problem.
    for i, settings in enumerate((
        {"snapshot_stride": 1}, {}, {"eps_conv": 1e-60}, {"T": 31, "K": 3100, "snapshot_stride": 7},
        {"problem": {"kind": "onemax", "n": 100}, "T": 50, "K": 5000},
    )):
        out.append({
            "problem": PROBLEMS[2], "variant": "window",
            "N": 100, "rho": 0.1, "alpha": 0.9, "T": 200, "K": 20000,
            "replicates": 3, "base_seed": 3300 + 7 * i, "alphas": [0.9, 0.5], "jobs": 1,
            **settings,
        })
    # K = 5002 = 82 * 61 ends within a draw block and is a multiple of
    # neither stride, and strides 7 and 150 leave stride steps pending
    # across draw blocks, settled stretches and early stops.
    for i, (variant, stride, eps) in enumerate(
        itertools.product(("window", "memoryless"), (7, 150), (1e-12, None))
    ):
        out.append({
            "problem": PROBLEMS[2], "variant": variant,
            "N": 82, "rho": 0.1, "alpha": 0.9, "T": 61, "K": 5002,
            "replicates": 3, "base_seed": 3200 + 7 * i, "alphas": [0.9, 0.2], "jobs": 1,
            "snapshot_stride": stride, "eps_conv": eps,
        })
    for i, (problem, variant, stride, eps) in enumerate(
        itertools.product(MEMO_PROBLEMS, ("window", "memoryless"), (1, None), (0.01, None))
    ):
        out.append({
            "problem": problem, "variant": variant,
            "N": 20, "rho": 0.1, "alpha": 0.7, "T": 52, "K": 1040,
            "replicates": 3, "base_seed": 4000 + 7 * i, "alphas": [0.7, 0.2], "jobs": 1,
            "snapshot_stride": stride, "eps_conv": eps,
        })
    return out


def rejected_grid():
    """The 31 rejected configs: a valid one with one key out of range."""
    out = []
    for i, (bad, variants) in enumerate(BAD_KEYS):
        for variant in variants:
            cfg = {
                "problem": PROBLEMS[i % len(PROBLEMS)], "variant": variant,
                "N": 20, "rho": 0.1, "alpha": 0.7, "T": 15, "K": 300,
                "replicates": 3, "base_seed": 5, "alphas": [0.7, 0.2], "jobs": 1,
            }
            out.append({**cfg, **bad})
    return out


def worker(config: str) -> None:
    """Run every command on one config in this interpreter; print the triples as JSON."""
    from cemkit import cli

    triples = []
    for argv in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main([argv[0], "--config", config, *argv[1:]])
            except SystemExit as exc:  # argparse rejects its input this way
                code = exc.code
        triples.append([" ".join(argv), out.getvalue(), err.getvalue(), code])
    json.dump({"cemkit": cli.__file__, "triples": triples}, sys.stdout)


def run_tree(tree: Path, config: Path):
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker", str(config)],
        env=env, cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {config} in {tree} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout)
    if not Path(result["cemkit"]).resolve().is_relative_to(tree.resolve()):
        raise RuntimeError(f"worker in {tree} imported cemkit from {result['cemkit']}")
    return result["triples"]


def first_difference(a, b, ref: str) -> str:
    if not isinstance(a, str) or not isinstance(b, str):
        return f"{ref} {a!r} != working tree {b!r}"
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(itertools.zip_longest(lines_a, lines_b)):
        if x != y:
            return f"line {i + 1}: {ref} {x!r:.160} != working tree {y!r:.160}"
    return f"line endings differ ({len(a)} vs {len(b)} characters)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", nargs="?", help="git ref to compare the working tree against")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        worker(args.worker)
        return 0
    if args.ref is None:
        parser.error("REF is required")

    tmp = Path(tempfile.mkdtemp(prefix="byte_identity_"))
    try:
        ref_tree = tmp / "ref"
        ref_tree.mkdir()
        archive = subprocess.run(
            ["git", "-C", str(REPO), "archive", args.ref], capture_output=True, check=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(ref_tree)], input=archive, check=True)
        configs, exits = [], []
        for name, cfgs, code in (("config", grid(), 0), ("rejected", rejected_grid(), 2)):
            for i, cfg in enumerate(cfgs):
                path = tmp / f"{name}_{i:02d}.json"
                path.write_text(json.dumps(cfg, indent=1) + "\n")
                configs.append(path)
                exits.append(code)

        tasks = [(tree, c) for c in configs for tree in (ref_tree, REPO)]
        with ThreadPoolExecutor(WORKERS) as pool:
            results = list(pool.map(lambda t: run_tree(*t), tasks))

        compared = differ = failed = 0
        for k, (path, code) in enumerate(zip(configs, exits)):
            ref, new = results[2 * k], results[2 * k + 1]
            for (cmd, *want), (_, *got) in zip(ref, new):
                compared += 1
                if want != got:
                    differ += 1
                    print(f"DIFFERS: {cmd} on {path.name}")
                    for name, a, b in zip(("stdout", "stderr", "exit"), want, got):
                        if a != b:
                            print(f"  {name}: {first_difference(a, b, args.ref)}")
                if want[2] != code or got[2] != code:
                    failed += 1
                    print(f"EXIT {want[2]}/{got[2]} (want {code}): {cmd} on {path.name}: "
                          f"{got[1].strip()!r:.200}")
        print(f"{compared} triples over {len(configs)} configs: {compared - differ} identical, "
              f"{differ} differ, {failed} with an unexpected exit code")
        return 1 if differ or failed else 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
