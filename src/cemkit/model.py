"""Core domain types shared by all optimizer variants.

Everything operates on dense 0/1 bit vectors of a fixed dimension n.
Objective values are maximized throughout; wrap an objective with
`negated` to minimize instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DimensionError, DomainError

__all__ = [
    "BernoulliParams",
    "EvaluatedSample",
    "Objective",
    "RngStream",
    "draw_sample",
    "evaluate",
    "is_binary_converged",
    "elite_count",
    "check_run_settings",
    "non_finite_value",
    "negated",
]


@dataclass(frozen=True)
class BernoulliParams:
    """Parameter vector of a product-of-Bernoullis sampling distribution.

    probs[i] is the probability that bit i equals 1. Entries stay in
    [0, 1] for the lifetime of a run; every update rule in this package
    is a convex combination of the current vector and a point in {0,1}^n,
    so that invariant is preserved by construction.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("probs must be a non-empty 1-d vector")
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValueError("probs entries must lie in [0, 1]")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @property
    def n(self) -> int:
        return int(self.probs.size)

    @classmethod
    def uniform_init(cls, n: int) -> "BernoulliParams":
        """The standard all-0.5 initial vector."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return cls(np.full(n, 0.5))


@dataclass(slots=True)
class EvaluatedSample:
    """A drawn bit vector together with its cached objective value."""

    bits: np.ndarray
    value: float
    draw_index: int


@dataclass(frozen=True)
class Objective:
    """Deterministic evaluator on {0,1}^n, with optional known-optimum metadata.

    `fn` maps a single bit vector to a float. `batch_fn`, when present,
    maps an (m, n) uint8 matrix to an (m,) float vector and must agree
    with `fn` row by row; engines and brute-force scans use it as a fast
    path. Optimum metadata enables hit-rate diagnostics and is absent for
    problems whose optimum is not known.
    """

    name: str
    n: int
    fn: Callable[[np.ndarray], float]
    batch_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    optimal_bits: Optional[np.ndarray] = None
    optimal_value: Optional[float] = None

    def __call__(self, bits: np.ndarray) -> float:
        return float(self.fn(bits))

    def evaluate_many(self, batch: np.ndarray) -> np.ndarray:
        """Evaluate every row of an (m, n) bit matrix."""
        batch = np.asarray(batch)
        if batch.ndim != 2 or batch.shape[1] != self.n:
            raise DimensionError(
                f"batch shape {batch.shape} incompatible with dimension {self.n}"
            )
        if self.batch_fn is not None:
            return np.asarray(self.batch_fn(batch), dtype=np.float64)
        return np.array([self.fn(row) for row in batch], dtype=np.float64)


def negated(obj: Objective) -> Objective:
    """Minimization wrapper: flips the sign of an objective and its metadata."""
    return replace(
        obj,
        name=f"neg_{obj.name}",
        fn=lambda bits: -float(obj.fn(bits)),
        batch_fn=(None if obj.batch_fn is None else (lambda b: -np.asarray(obj.batch_fn(b)))),
        optimal_bits=None,
        optimal_value=None,
    )


class RngStream:
    """Deterministic pseudo-random stream (PCG64) with an explicit seed.

    Two streams built from equal seeds produce identical draw sequences,
    which makes every run in this package bit-exactly reproducible.
    """

    def __init__(self, seed: int):
        seed = int(seed)
        if seed < 0:
            raise ValueError("seed must be a non-negative integer")
        self.seed = seed
        self._gen = np.random.default_rng(seed)

    def random(self, size=None):
        """Uniform draws on [0, 1)."""
        return self._gen.random(size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size)


def draw_sample(params: BernoulliParams, rng: RngStream) -> np.ndarray:
    """Draw one bit vector: bit i is 1 with probability probs[i], independently."""
    return (rng.random(params.n) < params.probs).astype(np.uint8)


def evaluate(obj: Objective, bits: np.ndarray, draw_index: int = 0) -> EvaluatedSample:
    """Evaluate a bit vector, caching the objective value with it."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 1 or bits.size != obj.n:
        raise DimensionError(f"bit vector of length {bits.size}, objective expects {obj.n}")
    return EvaluatedSample(bits=bits, value=float(obj.fn(bits)), draw_index=draw_index)


def is_binary_converged(params: BernoulliParams, eps: float) -> bool:
    """True iff every component is within eps of 0 or of 1."""
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 0.5)")
    p = params.probs
    return bool(np.all((p <= eps) | (p >= 1.0 - eps)))


def elite_count(n_samples: int, rho: float) -> int:
    """Elite-set size: ceil(rho * n_samples), at least 1.

    The tiny subtraction guards against float products that land a hair
    above an exact integer (e.g. 0.07 * 100 -> 7.000000000000001).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    return max(1, math.ceil(rho * n_samples - 1e-12))


def check_run_settings(cfg, budget: str) -> None:
    """Range checks shared by the batch, window and memoryless engine configs.

    `budget` names the run-length field, "T" (generations) or "K"
    (samples). snapshot_stride is checked where the config has one.
    """
    if cfg.N < 1:
        raise ConfigError(f"N: must be >= 1, got {cfg.N}")
    if not 0.0 < cfg.rho < 1.0:
        raise ConfigError(f"rho: elite fraction must be in (0,1), got {cfg.rho}")
    if not 0.0 < cfg.alpha <= 1.0:
        raise ConfigError(f"alpha: smoothing factor must be in (0,1], got {cfg.alpha}")
    steps = getattr(cfg, budget)
    if steps < 1:
        raise ConfigError(f"{budget}: must be >= 1, got {steps}")
    # Interior start: absorption analysis assumes no component begins
    # already frozen at 0 or 1.
    if cfg.p0 is not None and (np.any(cfg.p0.probs <= 0.0) or np.any(cfg.p0.probs >= 1.0)):
        raise ConfigError("p0: initial probabilities must lie strictly in (0,1)")
    if cfg.eps_conv is not None and not 0.0 < cfg.eps_conv < 0.5:
        raise ConfigError(f"eps_conv: must be in (0,0.5) or None, got {cfg.eps_conv}")
    stride = getattr(cfg, "snapshot_stride", None)
    if stride is not None and stride < 1:
        raise ConfigError(f"snapshot_stride: must be >= 1, got {stride}")


def non_finite_value(variant: str, draw_index: int, value: float) -> DomainError:
    """The error an engine raises when the objective returns NaN or an infinity."""
    return DomainError(
        f"{variant}: objective returned the non-finite value {value!r} at draw {draw_index}"
    )
