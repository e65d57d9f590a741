"""Brute-force and Monte Carlo oracles.

Nothing here is needed to run an optimizer. These are the independent
routes the tests and the delta0 calibration lean on: order-statistic
gaps at the elite boundary estimated by simulation, exact probability
sums by full enumeration, and the elite probability under a given
parameter vector. Kept deliberately plain - sample means, sample
variances, no variance reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .model import BernoulliParams, Objective, RngStream, check_finite, elite_count
from .objectives import _all_rows

__all__ = [
    "GapEstimate",
    "order_gap_mc",
    "exhaustive_success_prob",
    "elite_probability_exhaustive",
]

_ENUM_MAX_N = 20
# Rows simulated per batch of the Monte Carlo loop. A code constant,
# not a knob: estimates must not depend on how the loop is blocked.
_MC_CHUNK = 4096
# Fewest repetitions order_gap_mc accepts.
MIN_REPS = 10_000


@dataclass(frozen=True)
class GapEstimate:
    """Monte Carlo estimate of the two scales behind the delta estimators.

    mean_gap is E of the (positive) difference between the Ne-th and
    (Ne+1)-th largest of N draws, the expected threshold gap at the
    elite boundary. mean_absdiff is E|X - Y| for two independent draws.
    ratio = mean_gap / mean_absdiff is the empirical delta0.
    """

    mean_gap: float
    se_gap: float
    mean_absdiff: float
    se_absdiff: float
    ratio: float
    samples: int


def _draw(dist: Tuple, rng: RngStream, size) -> np.ndarray:
    if dist[0] == "uniform":
        _, a, b = dist
        if not b > a:
            raise ValueError(f"uniform bounds need b > a, got {dist!r}")
        return rng.uniform(a, b, size)
    if dist[0] == "normal":
        _, mu, sigma = dist
        if not sigma > 0:
            raise ValueError(f"normal sigma must be > 0, got {dist!r}")
        return rng.normal(mu, sigma, size)
    raise ValueError(f"unknown distribution {dist!r}; use ('uniform',a,b) or ('normal',mu,sigma)")


def order_gap_mc(
    dist: Tuple, N: int, rho: float, reps: int, rng: RngStream
) -> GapEstimate:
    """Estimate the elite-boundary gap and E|X - Y| for one distribution.

    Each rep draws N values and records the gap between the Ne-th and
    (Ne+1)-th largest, Ne = ceil(rho*N); a separate independent pair per
    rep feeds the absolute-difference mean. Standard errors are plain
    sample-variance estimates. Fixed seed means bit-identical output.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0,1), got {rho}")
    if N * rho <= 1.0:
        raise ValueError(f"need N > 1/rho, got N={N}, rho={rho}")
    n_e = elite_count(N, rho)
    if n_e >= N:
        raise ValueError(f"gap rank {n_e}+1 exceeds N={N}")
    if reps < MIN_REPS:
        raise ValueError(f"reps must be >= {MIN_REPS} for a usable estimate, got {reps}")

    sum_gap = 0.0
    sumsq_gap = 0.0
    sum_ad = 0.0
    sumsq_ad = 0.0
    done = 0
    # Ascending order: index N-n_e is the n_e-th largest.
    ranks = (N - n_e - 1, N - n_e)
    while done < reps:
        m = min(_MC_CHUNK, reps - done)
        batch = _draw(dist, rng, (m, N))
        part = np.partition(batch, ranks, axis=1)
        gaps = part[:, ranks[1]] - part[:, ranks[0]]
        pairs = _draw(dist, rng, (m, 2))
        absdiff = np.abs(pairs[:, 0] - pairs[:, 1])
        sum_gap += float(gaps.sum())
        sumsq_gap += float((gaps * gaps).sum())
        sum_ad += float(absdiff.sum())
        sumsq_ad += float((absdiff * absdiff).sum())
        done += m

    mean_gap = sum_gap / reps
    mean_ad = sum_ad / reps
    var_gap = max(0.0, (sumsq_gap - reps * mean_gap * mean_gap) / (reps - 1))
    var_ad = max(0.0, (sumsq_ad - reps * mean_ad * mean_ad) / (reps - 1))
    return GapEstimate(
        mean_gap=mean_gap,
        se_gap=math.sqrt(var_gap / reps),
        mean_absdiff=mean_ad,
        se_absdiff=math.sqrt(var_ad / reps),
        ratio=mean_gap / mean_ad,
        samples=reps,
    )


def _chunk_probs(params: BernoulliParams, rows: np.ndarray) -> np.ndarray:
    p = params.probs
    return np.prod(np.where(rows == 1, p, 1.0 - p), axis=1)


def exhaustive_success_prob(params: BernoulliParams, x_star: np.ndarray) -> float:
    """Pr(draw == x_star) by summing over all 2^n outcomes.

    The same number as diagnostics.phi, reached by the long route on
    purpose: full enumeration shares no code path with the product
    formula it is used to check.
    """
    n = params.n
    blocks = _all_rows(n, _ENUM_MAX_N, "outcomes")
    x = np.asarray(x_star, dtype=np.uint8)
    if x.shape != params.probs.shape:
        raise ValueError(f"target of length {x.size}, params of length {n}")
    acc = 0.0
    for _, rows in blocks:
        match = np.all(rows == x, axis=1)
        if np.any(match):
            acc += float(_chunk_probs(params, rows[match]).sum())
    return acc


def elite_probability_exhaustive(
    params: BernoulliParams, obj: Objective, gamma: float
) -> float:
    """Pr(f(draw) >= gamma) by full enumeration, for small n.

    Backs the exact per-step drift identity of the threshold walk:
    E[gamma step] = delta * (q*(1-rho) - (1-q)*rho) with q this value.
    A non-finite value raises DomainError naming its row, as in
    objectives.enumerate_optimum.
    """
    n = params.n
    blocks = _all_rows(n, _ENUM_MAX_N, "outcomes")
    if obj.n != n:
        raise ValueError(f"objective dimension {obj.n} does not match params dimension {n}")
    acc = 0.0
    for start, rows in blocks:
        values = obj.evaluate_many(rows)
        check_finite(obj.name, values, start, "row")
        mask = values >= gamma
        if np.any(mask):
            acc += float(_chunk_probs(params, rows[mask]).sum())
    return acc
