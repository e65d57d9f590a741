"""One unit of a workload in a fresh interpreter; started by run.py.

Modes:
  plain   set up (import, parse_config, make_objective), print `ready`,
          run one untraced in-process unit and print its result as JSON
  traced  the same, or for cli_maxcut `cli.main(["compare", ...])`, with
          cemkit's layers timed from outside (see tracing.py)
  setup   cli_maxcut's set-up alone: import cemkit.cli, load_config,
          make_objective, print `ready`, time the reference loop and exit
  calib   time the reference loop alone (after a cli_maxcut unit)

The parent times set-up from starting this process to reading `ready`,
and reads peak memory from the kernel when it reaps the process. The
`plain` and `traced` modes time the reference loop (speed.py) just
before and just after the timed part, and report the mean as `calib_s`.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import sys
from time import perf_counter

import workloads


def _ready() -> None:
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def _set_up(args, harness):
    """Parse the unit's configs and build its objective, then say so."""
    cfgs = [harness.parse_config(c) for c in workloads.configs(args.workload, args.seed, args.replicates)]
    harness.make_objective(cfgs[0].problem)
    _ready()
    return cfgs


def _plain(args) -> dict:
    from cemkit import harness

    cfgs = _set_up(args, harness)
    before = _calibrate()
    t0 = perf_counter()
    text, evals = workloads.run_unit(args.workload, cfgs, harness)
    wall = perf_counter() - t0
    return {
        "wall_s": wall,
        "calib_s": (before + _calibrate()) / 2,
        "digest": workloads.digest(text.encode("utf-8")),
        "evals": evals,
    }


def _traced(args) -> dict:
    import tracing

    tracer = tracing.Tracer()
    calib = []
    if args.workload == "cli_maxcut":
        # The CLI imports numpy inside the timed part, so the reference
        # loop runs only after it.
        t0 = perf_counter()
        tracer.run_span("root", _traced_cli, tracer, args)
        wall = perf_counter() - t0
        with open(args.out, "rb") as fh:
            out_digest = workloads.digest(fh.read())
    else:
        harness = _timed_import(tracer, "cemkit.harness")
        tracing.install(tracer)
        cfgs = _set_up(args, harness)
        calib.append(_calibrate())
        t0 = perf_counter()
        text, _ = tracer.run_span("root", workloads.run_unit, args.workload, cfgs, harness)
        wall = perf_counter() - t0
        out_digest = workloads.digest(text.encode("utf-8"))
    calib.append(_calibrate())
    return {
        "wall_s": wall,
        "calib_s": sum(calib) / len(calib),
        "digest": out_digest,
        "run_digest": tracer.runs.hexdigest(),
        # Evaluations are the summed RunTrace.steps.
        "evals": sum(tracer.steps.values()),
        "layers": tracing.layer_metrics(tracer, wall),
    }


def _timed_import(tracer, name: str):
    return tracer.run_span("import", importlib.import_module, name)


def _traced_cli(tracer, args) -> None:
    import tracing

    cli = _timed_import(tracer, "cemkit.cli")
    tracing.install(tracer)
    argv = ["compare", "--config", args.config, "--out", args.out]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"cemkit compare exited with {code}")


def _setup(args) -> dict:
    from cemkit import cli, make_objective

    cfg = cli.load_config(args.config)
    make_objective(cfg.problem)
    _ready()
    return _calib(args)


def _calib(args) -> dict:
    return {"calib_s": _calibrate()}


def _calibrate() -> float:
    # Imported late: it imports numpy, which belongs to cemkit's set-up.
    import speed

    return speed.calibrate()


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("plain", "traced", "setup", "calib"))
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--replicates", type=int, required=True)
    p.add_argument("--config", help="config file (cli_maxcut)")
    p.add_argument("--out", help="output file (cli_maxcut)")
    args = p.parse_args()
    result = {"plain": _plain, "traced": _traced, "setup": _setup, "calib": _calib}[args.mode](args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
