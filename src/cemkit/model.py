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
    "BlockSampler",
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

    `fn` maps a single bit vector to a float; the online engines call it
    once per sample. `batch_fn`, when present, maps an (m, n) uint8
    matrix to an (m,) float vector; the batch engine and brute-force
    scans use it as a fast path. The two agree row by row: exactly for
    the integer-valued families (onemax, leading_ones, trap_k, maxcut),
    and for weighted_linear only up to rounding, because a matrix
    product may sum the terms in another order than `w @ x`. Optimum
    metadata enables hit-rate diagnostics and is absent for problems
    whose optimum is not known.
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


# Uniforms the online engines draw per block (whole rows, at least one).
# Outputs do not depend on it.
_DRAW_BLOCK_VALUES = 1 << 10


class BlockSampler:
    """Bit vectors for a per-sample engine, drawn from uniforms in blocks.

    next() returns the next of `count` rows: bit i is 1 iff its uniform
    is below probs[i]. PCG64's random((B, n)) gives the same numbers as
    B calls of random(n), so every row equals what draw_sample would
    return at that step, whatever the block size.

    The rows of a block become bits in one comparison with the current
    probabilities. set_probs discards the bits of the rows not yet
    returned; the next row is then compared alone, because an engine
    that has just updated often updates again at once (the window
    engine does on most steps after absorption), and only if no update
    follows are the remaining rows compared together. Bits are always
    new arrays, so a row already returned never changes. The probs
    arrays are kept, not copied: pass a new array to set_probs instead
    of changing one in place.
    """

    def __init__(self, rng: RngStream, probs: np.ndarray, count: int):
        self._rng = rng
        self._probs = probs
        self._undrawn = count
        self._block_rows = max(1, _DRAW_BLOCK_VALUES // probs.size)
        self._u = np.empty((0, probs.size))
        self._next = 0  # row of _u that next() returns
        self._bits: Optional[np.ndarray] = None  # rows _first: of _u, or None
        self._first = 0
        self._updated = False

    def next(self) -> np.ndarray:
        r = self._next
        if r == len(self._u):
            if self._undrawn == 0:
                raise IndexError("all rows of the sampler are used")
            m = min(self._block_rows, self._undrawn)
            self._undrawn -= m
            self._u = self._rng.random((m, self._probs.size))
            self._bits = None
            r = 0
        self._next = r + 1
        if self._bits is not None:
            return self._bits[r - self._first]
        if self._updated:
            self._updated = False
            return (self._u[r] < self._probs).astype(np.uint8)
        self._first = r
        self._bits = (self._u[r:] < self._probs).astype(np.uint8)
        return self._bits[0]

    def set_probs(self, probs: np.ndarray) -> None:
        """Draw the rows still to come from `probs`."""
        self._probs = probs
        self._bits = None
        self._updated = True


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
