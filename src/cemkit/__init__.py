"""Cross-entropy optimization over Bernoulli bit-vector models.

Three engines (generational batch, sliding-window online, memoryless
online), a zoo of binary benchmark objectives, convergence diagnostics,
Monte Carlo oracles, and a seeded experiment harness with a CLI.
"""

from .batch import BatchConfig, GenerationResult, batch_update, elite_threshold, run_batch
from .diagnostics import (
    ConvergenceReport,
    analyze,
    geometric_tail_sum,
    miss_probability_bound,
    param_envelope,
    phi,
)
from .errors import CapacityError, ConfigError, DimensionError, DomainError
from .harness import (
    CompareRow,
    ExperimentConfig,
    ResultRow,
    SweepRow,
    alpha_sweep,
    compare_variants,
    load_config,
    parse_config,
    run_experiment,
    run_variant,
    wilson_interval,
)
from .memoryless import (
    MemorylessConfig,
    ThresholdState,
    delta0_gauss,
    delta0_uniform,
    delta_update,
    run_memoryless,
    threshold_step,
)
from .model import (
    BernoulliParams,
    EvaluatedSample,
    Objective,
    RngStream,
    draw_sample,
    elite_count,
    evaluate,
    is_binary_converged,
    negated,
)
from .normal import normal_cdf, normal_ppf
from .objectives import ProblemSpec, enumerate_optimum, make_objective
from .oracles import (
    GapEstimate,
    calibrate_delta0_gauss,
    elite_probability_exhaustive,
    exhaustive_success_prob,
    order_gap_mc,
)
from .trace import RunTrace, SnapshotTable, TraceRecorder, TraceSnapshot
from .window import OnlineConfig, SampleWindow, online_update, run_online_window, window_step

__version__ = "0.1.0"

__all__ = [
    "BatchConfig",
    "GenerationResult",
    "batch_update",
    "elite_threshold",
    "run_batch",
    "ConvergenceReport",
    "analyze",
    "geometric_tail_sum",
    "miss_probability_bound",
    "param_envelope",
    "phi",
    "CapacityError",
    "ConfigError",
    "DimensionError",
    "DomainError",
    "CompareRow",
    "ExperimentConfig",
    "ResultRow",
    "SweepRow",
    "alpha_sweep",
    "compare_variants",
    "load_config",
    "parse_config",
    "run_experiment",
    "run_variant",
    "wilson_interval",
    "MemorylessConfig",
    "ThresholdState",
    "delta0_gauss",
    "delta0_uniform",
    "delta_update",
    "run_memoryless",
    "threshold_step",
    "BernoulliParams",
    "EvaluatedSample",
    "Objective",
    "RngStream",
    "draw_sample",
    "elite_count",
    "evaluate",
    "is_binary_converged",
    "negated",
    "normal_cdf",
    "normal_ppf",
    "ProblemSpec",
    "enumerate_optimum",
    "make_objective",
    "GapEstimate",
    "calibrate_delta0_gauss",
    "elite_probability_exhaustive",
    "exhaustive_success_prob",
    "order_gap_mc",
    "RunTrace",
    "SnapshotTable",
    "TraceRecorder",
    "TraceSnapshot",
    "OnlineConfig",
    "SampleWindow",
    "online_update",
    "run_online_window",
    "window_step",
    "__version__",
]
