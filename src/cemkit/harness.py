"""Experiment harness: configs, seeded replicates, and result tables.

A single JSON config file describes one experiment; replicate r always
runs with seed base_seed + r, so (config, base_seed) pins every output
byte. Result tables exist in three shapes - per-replicate rows, the
alpha sweep summary, and the variant comparison - each serialized to
CSV (versioned header comment) or a JSON mirror of the same fields.

Wall-clock time is measured per replicate and kept on the in-memory row
for interactive use, but never written to output files: files are part
of the reproducibility contract and must be byte-identical across
reruns of the same config and seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
import time
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import cache, lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Union, get_args, get_origin, get_type_hints

from .batch import BatchConfig, run_batch
from .diagnostics import analyze, miss_probability_bound, phi
from .errors import ConfigError
from .memoryless import MemorylessConfig, ThresholdKnobs, run_memoryless
from .model import BernoulliParams, Objective, RngStream
from .objectives import ProblemSpec, make_objective
from .trace import RunTrace
from .window import OnlineConfig, run_online_window

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "SweepRow",
    "CompareRow",
    "VARIANTS",
    "parse_config",
    "load_config",
    "config_to_dict",
    "default_config_dict",
    "run_variant",
    "run_experiment",
    "alpha_sweep",
    "compare_variants",
    "wilson_interval",
    "results_to_csv",
    "results_to_json",
    "sweep_to_csv",
    "sweep_to_json",
    "compare_to_csv",
    "compare_to_json",
    "json_text",
    "csv_text",
]

VARIANTS = ("batch", "window", "memoryless")
FORMATS = ("csv", "json")

NEVER = "never"

RESULTS_SCHEMA = "cemkit-results-v1"
SWEEP_SCHEMA = "cemkit-sweep-v1"
COMPARE_SCHEMA = "cemkit-compare-v1"

# Engine config class and runner per variant; the engine configs take
# their knobs from the ExperimentConfig fields of the same name.
_ENGINES = {
    "batch": (BatchConfig, run_batch),
    "window": (OnlineConfig, run_online_window),
    "memoryless": (MemorylessConfig, run_memoryless),
}


@dataclass(frozen=True)
class ExperimentConfig(ThresholdKnobs):
    """One experiment: a problem, a variant, its knobs, and the seeds.

    T counts batch generations, K counts online samples; both are kept
    so a config can serve `compare` unchanged, where the budgets must
    match (T*N == K). Fields the selected variant does not read are
    unused, but parse_config range-checks them all the same. The
    memoryless walk's knobs and their checks come from ThresholdKnobs.

    The fields are the config file's schema, keyed by name; a field with
    a "block" in its metadata sits in that nested object (output.path).
    """

    problem: ProblemSpec
    variant: str = "batch"
    N: int = 100
    rho: float = 0.1
    alpha: float = 0.7
    T: int = 50
    K: int = 5000
    replicates: int = 100
    base_seed: int = 12345
    eps_conv: Optional[float] = None
    eps_binary: float = 1e-3
    snapshot_stride: Optional[int] = None
    alphas: Optional[Tuple[float, ...]] = None
    jobs: int = 1
    output_path: Optional[str] = field(default=None, metadata={"block": "output"})
    output_format: str = field(default="csv", metadata={"block": "output"})

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant: must be one of {VARIANTS}, got {self.variant!r}")
        if self.replicates < 1:
            raise ConfigError(f"replicates: must be >= 1, got {self.replicates}")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed: must be >= 0, got {self.base_seed}")
        if not 0.0 < self.eps_binary < 0.5:
            raise ConfigError(f"eps_binary: must be in (0,0.5), got {self.eps_binary}")
        if self.jobs < 1:
            raise ConfigError(f"jobs: must be >= 1, got {self.jobs}")
        if self.output_format not in FORMATS:
            raise ConfigError(f"output_format: must be one of {FORMATS}, got {self.output_format!r}")
        if self.alphas is not None:
            if len(self.alphas) == 0:
                raise ConfigError("alphas: must be non-empty when given")
            for a in self.alphas:
                if not 0.0 < a <= 1.0:
                    raise ConfigError(f"alphas: every entry must be in (0,1], got {a}")
        super().__post_init__()


@dataclass
class ResultRow:
    """One replicate's outcome. wall_clock never reaches output files."""

    replicate: int
    seed: int
    variant: str
    steps: int
    first_hit: Optional[int]
    best_value: float
    converged_binary: bool
    converged_step: Optional[int]
    sign_changes_total: int
    envelope_violations: int
    wall_clock: float


@dataclass
class SweepRow:
    """Summary for one alpha value in a sweep."""

    alpha: float
    replicates: int
    hits: int
    hit_rate: float
    ci_low: float
    ci_high: float
    miss_rate: float
    miss_bound: float


@dataclass
class CompareRow:
    """Summary for one variant at a matched budget."""

    variant: str
    replicates: int
    budget: int
    hits: int
    hit_rate: float
    mean_first_hit: Optional[float]
    n_converged: int
    mean_converged_step: Optional[float]


# ---------------------------------------------------------------------------
# Config plumbing

@cache
def _schema(cls) -> Tuple:
    """(field, resolved type) pairs of a config dataclass, resolved once."""
    hints = get_type_hints(cls)
    return tuple((f, hints[f.name]) for f in fields(cls))


def _coerce(value, tp, name: str):
    """Check a JSON value against a field type; never converts silently.

    int takes an integer or a whole float, float any finite number (bools
    are neither), str a string, a tuple a list, a dataclass an object.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if tp is int:
        if number and (isinstance(value, int) or value.is_integer()):
            return int(value)
        raise ConfigError(f"{name}: must be an integer, got {value!r}")
    if tp is float:
        # The bound rejects nan, the infinities, and ints too big for a float.
        if number and abs(value) <= sys.float_info.max:
            return float(value)
        raise ConfigError(f"{name}: must be a finite number, got {value!r}")
    if tp is str:
        if isinstance(value, str):
            return value
        raise ConfigError(f"{name}: must be a string, got {value!r}")
    if is_dataclass(tp):
        return _build(tp, value, name)
    args = get_args(tp)
    if get_origin(tp) is Union:  # Optional[X]
        return None if value is None else _coerce(value, args[0], name)
    # Tuple[X, ...] or a fixed-length Tuple[X, Y]
    if not isinstance(value, list):
        raise ConfigError(f"{name}: must be a list, got {value!r}")
    if args[-1] is Ellipsis:
        args = (args[0],) * len(value)
    elif len(value) != len(args):
        raise ConfigError(f"{name}: entry {value!r} must have {len(args)} items")
    return tuple(_coerce(v, a, name) for v, a in zip(value, args))


def _object(data, name: str, keys) -> Dict:
    """`data`, checked to be a JSON object with no keys outside `keys`."""
    if not isinstance(data, dict):
        raise ConfigError(f"{name}: must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - set(keys)
    if unknown:
        raise ConfigError(f"{name}: unknown field(s) {sorted(unknown)}")
    return data


def _build(cls, data, name: str):
    """Construct a config dataclass from the JSON object found at `name`."""
    schema = _schema(cls)
    blocks = {f.metadata.get("block") for f, _ in schema} - {None}
    values = dict(_object(data, name, blocks | {f.name for f, _ in schema if "block" not in f.metadata}))
    for block in blocks & set(values):
        members = [f.name[len(block) + 1:] for f, _ in schema if f.metadata.get("block") == block]
        values.update((f"{block}_{k}", v) for k, v in _object(values.pop(block), block, members).items())
    kwargs = {}
    for f, tp in schema:
        if f.name in values:
            kwargs[f.name] = _coerce(values[f.name], tp, f.name)
        elif f.default is MISSING:
            raise ConfigError(f"{f.name}: required")
    return cls(**kwargs)


def parse_config(data: Dict) -> ExperimentConfig:
    """Build and validate an ExperimentConfig from a plain dict.

    Unknown keys are errors: configs are part of the reproducibility
    record and a silently ignored typo would poison it. The objective
    (cached for the run) and the selected variant's engine config are
    built here so their constraint violations surface at parse time.
    So are the batch and window configs, which have no cross-field
    rule: their range checks then cover T, K and snapshot_stride
    whichever variant reads them. They are built at alpha 1, because
    the step alpha1 is the running variant's own: a subnormal alpha
    underflows the online step alpha/ceil(rho*N) but is batch's step
    as it is, so batch accepts it.
    """
    cfg = _build(ExperimentConfig, data, "config")
    _cached_objective(cfg.problem)
    _variant_config(cfg)
    for variant in ("batch", "window"):
        _variant_config(replace(cfg, alpha=1.0), variant)
    return cfg


def _unique_keys(pairs) -> Dict:
    """A JSON object's pairs as a dict; a key given twice is an error
    (json.load would keep the last value without a word)."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"{key}: repeated key in a JSON object")
        data[key] = value
    return data


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config: cannot decode {path} as UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc
    return parse_config(data)


def _to_json(value, keep_none: bool = False):
    """Plain JSON data of a field value; tuples become lists."""
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    if not is_dataclass(value):
        return value
    out: Dict = {}
    for f, _ in _schema(type(value)):
        v, block = getattr(value, f.name), f.metadata.get("block")
        if v is not None or keep_none:
            into = out.setdefault(block, {}) if block else out
            into[f.name[len(block) + 1:] if block else f.name] = _to_json(v)
    return out


def config_to_dict(cfg: ExperimentConfig) -> Dict:
    """Full, explicit dict form of a config (the config-dump payload).

    Every top-level field appears, null or not; the nested problem
    object lists only the keys that are set.
    """
    return _to_json(cfg, keep_none=True)


def default_config_dict() -> Dict:
    """Defaults with a placeholder problem, for `config-dump` without -c."""
    return config_to_dict(ExperimentConfig(problem=ProblemSpec(kind="onemax", n=20)))


# ---------------------------------------------------------------------------
# Execution

@lru_cache(maxsize=8)
def _cached_objective(spec: ProblemSpec) -> Objective:
    # MaxCut metadata costs an enumeration; build each instance once per
    # process.
    return make_objective(spec)


def _variant_config(cfg: ExperimentConfig, variant: Optional[str] = None):
    """The engine config of `variant` (default cfg.variant) built from cfg."""
    # Unset (None) knobs keep the engine's own default; for batch that
    # is eps_conv=1e-6, the early stop on full absorption.
    cls = _ENGINES[variant or cfg.variant][0]
    knobs = {f.name: getattr(cfg, f.name, None) for f in fields(cls)}
    return cls(**{k: v for k, v in knobs.items() if v is not None})


def run_variant(cfg: ExperimentConfig, obj: Objective, rng: RngStream) -> RunTrace:
    """Run the configured variant once."""
    return _ENGINES[cfg.variant][1](_variant_config(cfg), obj, rng)


def _run_one(cfg: ExperimentConfig, obj: Objective, r: int) -> ResultRow:
    seed = cfg.base_seed + r
    rng = RngStream(seed)
    t0 = time.perf_counter()
    trace = run_variant(cfg, obj, rng)
    wall = time.perf_counter() - t0
    report = analyze(trace, obj, cfg.eps_binary)
    assert trace.best is not None
    return ResultRow(
        replicate=r,
        seed=seed,
        variant=trace.variant,
        steps=trace.steps,
        first_hit=trace.first_hit_step,
        best_value=trace.best.value,
        converged_binary=report.converged_binary,
        converged_step=report.converged_step,
        sign_changes_total=int(trace.sign_changes.sum()),
        envelope_violations=report.envelope_violations,
        wall_clock=wall,
    )


def _replicate_task(payload: Tuple[ExperimentConfig, int]) -> ResultRow:
    cfg, r = payload
    return _run_one(cfg, _cached_objective(cfg.problem), r)


def run_experiment(cfg: ExperimentConfig, jobs: Optional[int] = None) -> List[ResultRow]:
    """Execute all replicates; rows come back in replicate order.

    jobs > 1 fans replicates out to min(jobs, replicates) worker
    processes, as a pool starts all its workers at once; results are
    identical to the sequential run because each replicate owns its
    seed and rows are collected in submission order.
    """
    n_jobs = cfg.jobs if jobs is None else jobs
    if n_jobs < 1:
        raise ConfigError(f"jobs: must be >= 1, got {n_jobs}")
    _variant_config(cfg)  # the engine config's checks run before any replicate
    workers = min(n_jobs, cfg.replicates)
    if workers == 1:
        obj = _cached_objective(cfg.problem)
        return [_run_one(cfg, obj, r) for r in range(cfg.replicates)]
    # Imported on this path only: the process pool's modules would slow
    # every start-up, and sequential runs never use them.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_replicate_task, [(cfg, r) for r in range(cfg.replicates)]))


def wilson_interval(hits: int, n: int, z: float = 1.959963984540054) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion (default 95%)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= hits <= n:
        raise ValueError(f"hits must be in [0, {n}], got {hits}")
    p_hat = hits / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p_hat + z2 / (2 * n)) / denom
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / n + z2 / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _run_cells(
    cfg: ExperimentConfig, cells: Sequence[ExperimentConfig], what: str, jobs: Optional[int]
) -> Tuple[Objective, List[List[ResultRow]]]:
    """The objective and each cell's replicate rows, for a summary table.

    Every cell's engine config is built, and the problem must have a
    known optimum, before any replicate runs.
    """
    for sub in cells:
        _variant_config(sub)
    obj = _cached_objective(cfg.problem)
    if obj.optimal_bits is None or obj.optimal_value is None:
        raise ConfigError(f"problem: {what} requires a problem with known optimum")
    return obj, [run_experiment(sub, jobs) for sub in cells]


def alpha_sweep(
    cfg: ExperimentConfig, alphas: Optional[Sequence[float]] = None, jobs: Optional[int] = None
) -> List[SweepRow]:
    """Replicate batches at several alphas, same seeds for each alpha.

    Needs a problem with known optimum: the summary is the hit rate with
    a 95% Wilson interval, next to the theoretical miss bound for the
    per-update step size in force: exp(-phi1*h(alpha1)) at the uniform
    start. A grid passed in is checked as the config's `alphas`.
    """
    cfg = cfg if alphas is None else replace(cfg, alphas=tuple(alphas))
    if cfg.alphas is None:
        raise ConfigError("alphas: required for an alpha sweep")
    cells = [replace(cfg, alpha=float(a), alphas=None) for a in cfg.alphas]
    obj, results = _run_cells(cfg, cells, "alpha sweep", jobs)
    phi1 = phi(BernoulliParams.uniform_init(obj.n), obj.optimal_bits)
    out: List[SweepRow] = []
    for sub, rows in zip(cells, results):
        hits = sum(1 for row in rows if row.first_hit is not None)
        n = len(rows)
        lo, hi = wilson_interval(hits, n)
        out.append(
            SweepRow(
                alpha=sub.alpha,
                replicates=n,
                hits=hits,
                hit_rate=hits / n,
                ci_low=lo,
                ci_high=hi,
                miss_rate=(n - hits) / n,
                miss_bound=miss_probability_bound(phi1, _variant_config(sub).alpha1, obj.n),
            )
        )
    return out


def compare_variants(cfg: ExperimentConfig, jobs: Optional[int] = None) -> List[CompareRow]:
    """All three variants on the same problem, same seeds, same budget.

    Refuses configs whose evaluation budgets differ: the batch side
    spends T*N evaluations, the online sides spend K, and a comparison
    is only fair when those are equal.
    """
    if cfg.T * cfg.N != cfg.K:
        raise ConfigError(
            f"K: matched budgets require T*N == K, got T*N={cfg.T * cfg.N} and K={cfg.K}"
        )
    cells = [replace(cfg, variant=v) for v in VARIANTS]
    _, results = _run_cells(cfg, cells, "variant comparison", jobs)
    out: List[CompareRow] = []
    for sub, rows in zip(cells, results):
        hits = [row.first_hit for row in rows if row.first_hit is not None]
        conv = [row.converged_step for row in rows if row.converged_step is not None]
        out.append(
            CompareRow(
                variant=sub.variant,
                replicates=len(rows),
                budget=cfg.K,
                hits=len(hits),
                hit_rate=len(hits) / len(rows),
                mean_first_hit=(sum(hits) / len(hits)) if hits else None,
                n_converged=len(conv),
                mean_converged_step=(sum(conv) / len(conv)) if conv else None,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Serialization

def _cell(v) -> str:
    if v is None:
        return NEVER
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _json_value(v):
    return NEVER if v is None else v


def json_text(data) -> str:
    """The text of a JSON output: sorted keys, two-space indent, final newline."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def csv_text(schema: str, header: Sequence[str], rows) -> str:
    """The text of a CSV output: a `# schema` line, the header, one line per row."""
    buf = io.StringIO()
    buf.write(f"# {schema}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(v) for v in row] for row in rows)
    return buf.getvalue()


def _table(schema: str, row_cls, fmt: str, rows: List) -> str:
    """One result table; columns are the row class's fields minus wall_clock."""
    cols = [f.name for f in fields(row_cls) if f.name != "wall_clock"]
    if fmt == "json":
        data = [{c: _json_value(getattr(r, c)) for c in cols} for r in rows]
        return json_text({"schema": schema, "rows": data})
    return csv_text(schema, cols, ([getattr(r, c) for c in cols] for r in rows))


def results_to_csv(rows: List[ResultRow]) -> str:
    return _table(RESULTS_SCHEMA, ResultRow, "csv", rows)


def results_to_json(rows: List[ResultRow]) -> str:
    return _table(RESULTS_SCHEMA, ResultRow, "json", rows)


def sweep_to_csv(rows: List[SweepRow]) -> str:
    return _table(SWEEP_SCHEMA, SweepRow, "csv", rows)


def sweep_to_json(rows: List[SweepRow]) -> str:
    return _table(SWEEP_SCHEMA, SweepRow, "json", rows)


def compare_to_csv(rows: List[CompareRow]) -> str:
    return _table(COMPARE_SCHEMA, CompareRow, "csv", rows)


def compare_to_json(rows: List[CompareRow]) -> str:
    return _table(COMPARE_SCHEMA, CompareRow, "json", rows)
