"""Generational cross-entropy engine.

Each generation draws N samples, keeps the top ceil(rho*N) by objective
value, and moves the Bernoulli parameters toward the elite mean with
smoothing factor alpha. This is the reference algorithm the online
variants are measured against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .errors import ConfigError
from .model import (
    BernoulliParams,
    EvaluatedSample,
    Objective,
    RngStream,
    check_run_settings,
    elite_count,
    is_binary_converged,
    non_finite_value,
)
from .trace import RunTrace, TraceRecorder

__all__ = [
    "BatchConfig",
    "GenerationResult",
    "elite_threshold",
    "batch_update",
    "batch_generation",
    "run_batch",
]


@dataclass(frozen=True)
class BatchConfig:
    """Settings for one generational run.

    p0 = None means the standard all-0.5 start. eps_conv controls the
    early stop on full 0/1 absorption; set it to None to always run all
    T generations. Early stopping never changes best-so-far: a sampler
    absorbed to within 1e-6 of a single point cannot produce anything
    new in practice.
    """

    N: int
    rho: float
    alpha: float
    T: int
    p0: Optional[BernoulliParams] = None
    eps_conv: Optional[float] = 1e-6

    def __post_init__(self) -> None:
        check_run_settings(self, "T")


@dataclass(frozen=True)
class GenerationResult:
    """Outcome of a single generation."""

    gamma: float
    elite: List[EvaluatedSample]
    new_params: BernoulliParams
    best: EvaluatedSample


def elite_threshold(values: Sequence[float], rho: float) -> float:
    """The ceil(rho*N)-th largest value, 1-indexed from the top.

    Duplicates count separately in the ranking, so a list with ties can
    return a value shared by several samples.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0:
        raise ValueError("values must be non-empty")
    k = elite_count(vals.size, rho)
    # k-th largest = element at index size-k of the ascending sort.
    return float(np.sort(vals, kind="stable")[vals.size - k])


def batch_update(
    elite: Sequence[np.ndarray],
    params: BernoulliParams,
    alpha: float,
    n_b: int,
) -> BernoulliParams:
    """Smoothed move toward the elite mean: (1-alpha)*p + alpha*mean(elite).

    Exactly the first n_b vectors enter the mean; callers pass elites in
    descending objective order, so threshold ties beyond rank n_b are
    dropped and the normalization stays a true average.
    """
    if len(elite) == 0:
        raise ValueError("elite set is empty")
    if n_b < 1:
        raise ValueError(f"n_b must be >= 1, got {n_b}")
    if len(elite) < n_b:
        raise ValueError(f"need at least n_b={n_b} elite vectors, got {len(elite)}")
    mat = np.asarray(elite[:n_b], dtype=np.float64)
    p_prime = mat.sum(axis=0) / n_b
    return BernoulliParams((1.0 - alpha) * params.probs + alpha * p_prime)


def batch_generation(
    params: BernoulliParams,
    obj: Objective,
    rng: RngStream,
    N: int,
    rho: float,
    alpha: float,
    draw_base: int = 0,
) -> GenerationResult:
    """Draw N samples, pick the elite and produce the updated parameters.

    Sorting is by value descending with draw order breaking exact ties,
    so a rerun with the same stream reproduces the same elite set. A
    non-finite objective value raises DomainError naming its draw.
    """
    n_b = elite_count(N, rho)
    bits = (rng.random((N, obj.n)) < params.probs).astype(np.uint8)
    values = obj.evaluate_many(bits)
    finite = np.isfinite(values)
    if not finite.all():
        i = int(finite.argmin())
        raise non_finite_value("batch", draw_base + i, float(values[i]))
    order = np.lexsort((np.arange(N), -values))
    gamma = float(values[order[n_b - 1]])
    elite = [
        EvaluatedSample(bits=bits[i].copy(), value=float(values[i]), draw_index=draw_base + int(i))
        for i in order[:n_b]
    ]
    new_params = batch_update([s.bits for s in elite], params, alpha, n_b)
    top = int(order[0])
    best = EvaluatedSample(bits=bits[top].copy(), value=float(values[top]), draw_index=draw_base + top)
    return GenerationResult(gamma=gamma, elite=elite, new_params=new_params, best=best)


def run_batch(config: BatchConfig, obj: Objective, rng: RngStream) -> RunTrace:
    """Run up to T generations, recording one trace snapshot per generation.

    Trace step counts are in objective evaluations, so generation t ends
    at step (t+1)*N.
    """
    params = config.p0 if config.p0 is not None else BernoulliParams.uniform_init(obj.n)
    if params.n != obj.n:
        raise ConfigError(f"p0: dimension {params.n} does not match objective dimension {obj.n}")
    n_b = elite_count(config.N, config.rho)
    recorder = TraceRecorder(
        variant="batch",
        params0=params,
        rho=config.rho,
        alpha=config.alpha,
        alpha1=config.alpha,
        snapshot_stride=config.N,
        optimal_value=obj.optimal_value,
    )
    gamma: Optional[float] = None
    steps = 0
    for t in range(config.T):
        gen = batch_generation(
            params, obj, rng, config.N, config.rho, config.alpha, draw_base=steps
        )
        steps += config.N
        params = gen.new_params
        gamma = gen.gamma
        recorder.offer_best(gen.best.bits, gen.best.value, gen.best.draw_index)
        recorder.update_applied(params.probs, elites=n_b)
        recorder.maybe_snapshot(steps, gamma, None)
        if config.eps_conv is not None and is_binary_converged(params, config.eps_conv):
            break
    return recorder.finish(steps, gamma, None)
