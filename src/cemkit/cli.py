"""Command-line front end.

Subcommands:
  run              execute the configured experiment, emit per-replicate rows
  sweep-alpha      rerun the experiment across a grid of alphas
  compare          all three variants at a matched evaluation budget
  calibrate-delta0 Monte Carlo calibration of the delta0 scale constants
  config-dump      print the fully resolved config (defaults filled in)

Exit codes: 0 success, 1 runtime error, 2 configuration error.
Data goes to --out when given, stdout otherwise.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace
from typing import List, Optional

from .errors import ConfigError
from .harness import (
    ExperimentConfig,
    compare_to_csv,
    compare_to_json,
    compare_variants,
    config_to_dict,
    csv_text,
    default_config_dict,
    json_text,
    load_config,
    results_to_csv,
    results_to_json,
    run_experiment,
    alpha_sweep,
    sweep_to_csv,
    sweep_to_json,
)
from .memoryless import delta0_gauss
from .model import RngStream, elite_count
from .oracles import MIN_REPS, order_gap_mc

CALIBRATION_SCHEMA = "cemkit-calibration-v1"


def _add_common(p: argparse.ArgumentParser, config_required: bool, jobs: bool = True) -> None:
    p.add_argument("--config", required=config_required, help="path to a JSON experiment config")
    p.add_argument("--seed", type=int, default=None, help="override base_seed")
    if jobs:
        p.add_argument("--jobs", type=int, default=None, help="worker processes (default: config, then 1)")
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default=None, help="output format (default: config, then csv)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cemkit",
        description="Cross-entropy optimizer experiments over Bernoulli bit-vector models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment, one row per replicate")
    _add_common(p_run, config_required=True)

    p_sweep = sub.add_parser("sweep-alpha", help="hit-rate summary across an alpha grid")
    _add_common(p_sweep, config_required=True)
    p_sweep.add_argument(
        "--alphas",
        default=None,
        help="comma-separated alpha grid, e.g. 0.9,0.5,0.2,0.05 (default: config 'alphas')",
    )

    p_cmp = sub.add_parser("compare", help="compare the three variants at matched budget")
    _add_common(p_cmp, config_required=True)

    p_cal = sub.add_parser(
        "calibrate-delta0", help="Monte Carlo scales behind the delta estimators"
    )
    _add_common(p_cal, config_required=False, jobs=False)
    p_cal.add_argument("--reps", type=int, default=1_000_000, help="Monte Carlo repetitions")

    p_dump = sub.add_parser("config-dump", help="print the fully resolved config")
    p_dump.add_argument("--config", default=None, help="config to resolve (default: pure defaults)")
    p_dump.add_argument("--out", default=None, help="output file (default: stdout)")

    return parser


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise RuntimeError(f"cannot write {out}: {exc}") from exc
        print(f"wrote {out}")


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, base_seed=args.seed)
    if args.jobs is not None:
        cfg = replace(cfg, jobs=args.jobs)
    if args.out is not None:
        cfg = replace(cfg, output_path=args.out)
    if args.format is not None:
        cfg = replace(cfg, output_format=args.format)
    return cfg


def _write(cfg: ExperimentConfig, rows: List, to_csv, to_json) -> int:
    """Emit a result table in the config's format to its output path."""
    _emit(to_csv(rows) if cfg.output_format == "csv" else to_json(rows), cfg.output_path)
    return 0


def _cmd_run(args) -> int:
    cfg = _load(args)
    return _write(cfg, run_experiment(cfg), results_to_csv, results_to_json)


def _parse_alphas(raw: str) -> List[float]:
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"alphas: expected comma-separated numbers, got {raw!r}") from exc


def _cmd_sweep(args) -> int:
    cfg = _load(args)
    alphas = _parse_alphas(args.alphas) if args.alphas is not None else None
    return _write(cfg, alpha_sweep(cfg, alphas), sweep_to_csv, sweep_to_json)


def _cmd_compare(args) -> int:
    cfg = _load(args)
    return _write(cfg, compare_variants(cfg), compare_to_csv, compare_to_json)


def _cmd_calibrate(args) -> int:
    # Without --config, the ExperimentConfig defaults stand in for one.
    cfg = ExperimentConfig if args.config is None else load_config(args.config)
    n_pop, rho = cfg.N, cfg.rho
    seed = cfg.base_seed if args.seed is None else args.seed
    fmt = args.format or cfg.output_format
    out = args.out if args.out is not None else cfg.output_path
    reps = args.reps
    if reps < MIN_REPS:
        raise ConfigError(f"reps: must be >= {MIN_REPS} for a usable estimate, got {reps}")
    if seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {seed}")
    # The gap below the ceil(rho*N)-th largest of N values needs that rank
    # below N, and the Gaussian delta0 needs 1 - rho + 1/N below 1.
    if n_pop * rho <= 1.0 or elite_count(n_pop, rho) >= n_pop:
        raise ConfigError(
            f"N: calibration needs N > 1/rho and ceil(rho*N) < N, got N={n_pop}, rho={rho}"
        )

    # Location and scale cancel in the ratio, so U(0,1) and N(0,1) settle
    # delta0 for every uniform and every Gaussian.
    uniform = order_gap_mc(("uniform", 0.0, 1.0), n_pop, rho, reps, RngStream(seed))
    normal = order_gap_mc(("normal", 0.0, 1.0), n_pop, rho, reps, RngStream(seed + 1))
    nominal = delta0_gauss(n_pop, rho, mode="nominal")
    groups = {
        name: {k: v for k, v in asdict(est).items() if k != "samples"}  # samples == reps
        for name, est in (("uniform01", uniform), ("normal01", normal))
    }
    groups["uniform01"].update(model_gap=1.0 / (n_pop + 1), model_absdiff=1.0 / 3.0)
    flat = {
        "N": n_pop,
        "rho": rho,
        "reps": reps,
        "seed": seed,
        "delta0_gauss_nominal": nominal,
        "delta0_gauss_calibrated": delta0_gauss(n_pop, rho, mode="calibrated"),
        "delta0_gauss_empirical": normal.ratio,
        "nominal_over_empirical": nominal / normal.ratio,
    }
    if fmt == "json":
        text = json_text({"schema": CALIBRATION_SCHEMA, **flat, **groups})
    else:
        flat.update((f"{g}.{k}", v) for g, group in groups.items() for k, v in group.items())
        text = csv_text(CALIBRATION_SCHEMA, ("key", "value"), sorted(flat.items()))
    _emit(text, out)
    return 0


def _cmd_dump(args) -> int:
    if args.config is not None:
        data = config_to_dict(load_config(args.config))
    else:
        data = default_config_dict()
    _emit(json_text(data), args.out)
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep-alpha": _cmd_sweep,
    "compare": _cmd_compare,
    "calibrate-delta0": _cmd_calibrate,
    "config-dump": _cmd_dump,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
