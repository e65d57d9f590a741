"""cemkit benchmark: run one workload for a while and print its metrics.

    python3 perfbench/run.py --workload online_trap --seed 1 --seconds 55 --trace 0

Run from a checkout of the repository; the package is imported from its
`src` directory. Each unit of work runs in a fresh interpreter (see
worker.py), one at a time, so every unit pays and reports its own
set-up. With `--trace 0` the run first does one traced unit, which
supplies the evaluation count and a second output digest, then repeats
untraced units for `--seconds` and prints the end-to-end metrics as
medians over the units: `ref_wall_s` and `ref_evals_per_s`, the timed
part scaled to a reference machine speed (speed.py; README.md says why),
`setup_s` and `peak_rss_mb`. With `--trace 1` it alternates traced and
untraced units and prints the per-layer metrics.

Every unit's output table must match the digest recorded for the seed
(references.json). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A checkout without
`src/cemkit` exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import COUNT_METRICS, LAYER_UNITS  # noqa: E402

# A run stops starting units, and kills one still running, this long after
# it began, so it always ends within the three minutes a caller allows.
DEADLINE_S = 165.0
# A run gives up after this many failed units.
MAX_FAILED_UNITS = 3

# Table digest of every unit; run digest (tracing.fingerprint) of traced units.
DIGESTS = ("digest", "run_digest")

END_TO_END_UNITS = {"ref_wall_s": "s", "ref_evals_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class UnitFailed(Exception):
    pass


class Runner:
    """Starts unit processes in a scratch directory inside the checkout."""

    def __init__(self, workload: str, seed: int, replicates: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.replicates = replicates
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.config = work / "config.json"
        self.out = work / "out.csv"
        self.deadline = perf_counter() + DEADLINE_S
        if workload == "cli_maxcut":
            (cfg,) = workloads.configs(workload, seed, replicates)
            self.config.write_text(json.dumps(cfg), encoding="utf-8")

    def spawn(self, argv, ready: bool = False) -> dict:
        """Run one process; returns its JSON result with parent-side timings.

        The result carries `proc_wall_s` (start to exit), `setup_s` (start
        to the `ready` line, when asked for) and `peak_rss_mb` from the
        kernel's accounting of the reaped process.
        """
        err_path = self.work / "stderr.txt"
        with open(err_path, "w") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv],
                stdout=subprocess.PIPE,
                stderr=err,
                env=self.env,
                cwd=ROOT,
                text=True,
            )
            timer = threading.Timer(max(0.0, self.deadline - t0), proc.kill)
            timer.start()
            try:
                setup_s = None
                if ready:
                    line = proc.stdout.readline()
                    setup_s = perf_counter() - t0
                    if line != "ready\n":
                        setup_s = None
                out = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                wall = perf_counter() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
        if proc.returncode != 0 or (ready and setup_s is None):
            tail = err_path.read_text(errors="replace")[-2000:]
            raise UnitFailed(f"{' '.join(argv)} exited with {proc.returncode}\n{tail}")
        lines = out.splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
        result.update(proc_wall_s=wall, setup_s=setup_s, peak_rss_mb=usage.ru_maxrss / 1024.0)
        return result

    def _worker(self, mode: str, ready: bool) -> dict:
        argv = [
            str(HERE / "worker.py"), mode,
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--replicates", str(self.replicates),
            "--config", str(self.config),
            "--out", str(self.out),
        ]
        return self.spawn(argv, ready=ready)

    def plain(self) -> dict:
        """One untraced unit: wall_s, calib_s, setup_s, peak_rss_mb, digest, evals."""
        if self.workload != "cli_maxcut":
            return self._worker("plain", ready=True)
        probe = self._worker("setup", ready=True)
        self._remove_out()
        res = self.spawn(["-m", "cemkit", "compare", "--config", str(self.config), "--out", str(self.out)])
        digest = workloads.digest(self.out.read_bytes())
        calib_s = (probe["calib_s"] + self._worker("calib", ready=False)["calib_s"]) / 2
        # The CLI is one process, timed from outside; its timed part is what
        # is left after the set-up that the probe just before it measured.
        res.update(
            wall_s=res["proc_wall_s"] - probe["setup_s"],
            setup_s=probe["setup_s"],
            calib_s=calib_s,
            digest=digest,
            evals=None,
        )
        return res

    def traced(self) -> dict:
        """One traced unit: per-layer metrics, wall_s, calib_s, digest."""
        ready = self.workload != "cli_maxcut"
        self._remove_out()
        return self._worker("traced", ready=ready)

    def _remove_out(self) -> None:
        if self.out.exists():
            self.out.unlink()


def load_references() -> dict:
    with open(HERE / "references.json", encoding="utf-8") as fh:
        return json.load(fh)


def measure(workload: str, seed: int, seconds: float, trace: bool, replicates=None, references=None):
    """Run the workload; returns (correct, attempted, failed, metrics, notes).

    `replicates` other than the recorded size is for the self-test: there
    is no reference digest for it, so outputs are checked only for
    agreement between units.
    """
    if replicates is None:
        replicates = workloads.REPLICATES[workload]
    expected = {}
    if references is not None and references["replicates"][workload] == replicates:
        i = workloads.seed_index(seed)
        expected = {key: references[key][workload][i] for key in DIGESTS}
    with work_dir(str(os.getpid())) as work:
        return _measure(Runner(workload, seed, replicates, work), seconds, trace, expected)


@contextlib.contextmanager
def work_dir(name: str):
    """A scratch directory inside the checkout, removed afterwards."""
    work = ROOT / ".perfbench_work" / name
    work.mkdir(parents=True, exist_ok=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def _measure(runner: Runner, seconds: float, trace: bool, expected):
    ops = workloads.operations(runner.workload, runner.replicates)
    state = {"attempted": 0, "failed": 0, "notes": []}
    seen = {key: set() for key in DIGESTS}

    def fail(note: str) -> None:
        state["failed"] += ops
        state["notes"].append(note)

    def attempt(kind: str):
        state["attempted"] += ops
        try:
            res = runner.traced() if kind == "traced" else runner.plain()
        except (UnitFailed, OSError, ValueError) as exc:
            fail(f"{kind} unit failed: {exc}")
            return None
        wrong = [key for key in DIGESTS if key in res and key in expected and res[key] != expected[key]]
        if wrong:
            # Still timed: the unit ran, but its output is not the program's.
            fail(f"{kind} unit {', '.join(wrong)} differs from the reference")
        for key in DIGESTS:
            if key in res:
                seen[key].add(res[key])
        return res

    # Byte-compile the package once, so the first unit's set-up does not pay for it.
    runner.spawn(["-c", "import cemkit.cli"])
    plain, traced = [], []
    if not trace:
        first = attempt("traced")
        if first is not None:
            traced.append(first)
    t0 = perf_counter()
    last = 0.0
    while perf_counter() < runner.deadline and state["failed"] < MAX_FAILED_UNITS * ops:
        elapsed = perf_counter() - t0
        if trace:
            kind = "traced" if len(traced) <= len(plain) else "plain"
            done = len(traced) >= 2 and len(plain) >= 1
        else:
            kind = "plain"
            done = len(plain) >= 1
        if done and elapsed + last > seconds:
            break
        u0 = perf_counter()
        res = attempt(kind)
        last = perf_counter() - u0
        if res is not None:
            (traced if kind == "traced" else plain).append(res)

    notes = state["notes"]
    for key, values in seen.items():
        if len(values) > 1:
            notes.append(f"units disagree on {key}: {sorted(values)}")
    counts = [tuple(r["layers"][m] for m in COUNT_METRICS) for r in traced]
    if len(set(counts)) > 1:
        notes.append("count metrics differ between traced units")
    if not plain or not traced:
        raise SystemExit("benchmark: no unit completed\n" + "\n".join(notes))
    evals = traced[0]["evals"]
    for r in traced:
        if r["evals"] != r["layers"]["objectives.evaluate_rows"]:
            notes.append(f"traced steps {r['evals']} != evaluated rows {r['layers']['objectives.evaluate_rows']}")
    # Only batch_onemax's untraced units can count their evaluations.
    for r in plain:
        if r["evals"] is not None and r["evals"] != evals:
            notes.append(f"untraced evaluations {r['evals']} != traced {evals}")
    if runner.workload == "cli_maxcut":
        # A traced CLI unit has no set-up probe of its own, and times the
        # reference loop in its own process after the CLI has run.
        setup_s = statistics.median(r["setup_s"] for r in plain)
        for r in traced:
            r["wall_s"] = r["proc_wall_s"] - setup_s - r["calib_s"]
    for r in plain + traced:
        r["ref_wall_s"] = speed.scaled(r["wall_s"], r["calib_s"])

    if trace:
        metrics = {}
        for name in LAYER_UNITS:
            if name in COUNT_METRICS:
                metrics[name] = traced[0]["layers"][name]
            elif name != "trace_overhead_frac":
                metrics[name] = statistics.median(r["layers"][name] for r in traced)
        metrics["trace_overhead_frac"] = median_of("ref_wall_s", traced) / median_of("ref_wall_s", plain) - 1.0
    else:
        wall = median_of("ref_wall_s", plain)
        metrics = {
            "ref_wall_s": wall,
            "ref_evals_per_s": evals / wall,
            "setup_s": median_of("setup_s", plain),
            "peak_rss_mb": median_of("peak_rss_mb", plain),
        }
    correct = state["failed"] == 0 and not notes
    info = [f"units: {len(plain)} untraced, {len(traced)} traced"] + [
        f"untraced {key}: min {min(r[key] for r in plain)!r}, median {median_of(key, plain)!r}"
        for key in ("wall_s", "calib_s", "ref_wall_s")
    ]
    info.append(f"unscaled evals_per_s {evals / median_of('wall_s', plain)!r} 1/s")
    return correct, state["attempted"], state["failed"], metrics, notes + info


def median_of(key: str, units) -> float:
    return statistics.median(r[key] for r in units)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "cemkit" / "__init__.py").is_file():
        print(f"benchmark: no cemkit package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    correct, attempted, failed, metrics, notes = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), references=load_references()
    )
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    for note in notes:
        print(f"# {note}")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(f"failed_frac {failed / attempted!r} ({failed}/{attempted} operations)")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
