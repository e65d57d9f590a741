"""Online cross-entropy, memoryless variant.

No sample buffer at all: the elite threshold gamma performs a random
walk, moving up by (1-rho)*delta after an elite sample and down by
rho*delta otherwise, which balances exactly when the elite probability
is rho. The step scale delta is either a user constant or an
exponentially forgetting estimate delta0 * E|f_t - f_{t+1}| built from
consecutive value differences, with delta0 supplied by a uniform or a
Gaussian order-statistic model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import ConfigError, DomainError
from .model import (
    Objective,
    OnlineConfig,
    RngStream,
    check_finite,
    run_online,
)
from .normal import normal_ppf
from .trace import RunTrace, TraceRecorder

__all__ = [
    "ThresholdState",
    "ThresholdKnobs",
    "MemorylessConfig",
    "ESTIMATORS",
    "DELTA0_MODES",
    "GAUSS_NOMINAL_COEFF",
    "GAUSS_CALIBRATED_COEFF",
    "threshold_step",
    "delta0_uniform",
    "delta0_gauss",
    "delta_update",
    "run_memoryless",
    "run_threshold_stream",
]

ESTIMATORS = ("constant", "uniform_model", "gauss_model")
DELTA0_MODES = ("nominal", "calibrated")

# Coefficients multiplying the quantile difference
# ppf(1-rho+1/N) - ppf(1-rho) in delta0_gauss. The nominal constant is
# 2*sqrt(pi). Working through E|X-Y| = 2*sigma/sqrt(pi) for independent
# X, Y ~ N(mu, sigma^2) gives (quantile difference)*sqrt(pi)/2 for the
# gap-to-absdiff ratio instead, which the Monte Carlo oracle in
# oracles.py confirms. The two differ by a factor of exactly 4; both
# stay selectable because the choice only rescales the walk and the
# running estimator absorbs scale anyway.
GAUSS_NOMINAL_COEFF = 2.0 * math.sqrt(math.pi)
GAUSS_CALIBRATED_COEFF = math.sqrt(math.pi) / 2.0


@dataclass(frozen=True)
class ThresholdState:
    """Scalar threshold-walk state plus the delta-estimator scratch.

    gamma = None starts the walk at the first value it sees. prev_value
    is the previous sample's objective value, needed by the
    |f_t - f_{t+1}| estimator; None until the first sample primes it.
    """

    gamma: Optional[float]
    delta: float
    estimator: str = "constant"
    beta: float = 0.1
    delta0: float = 1.0
    delta_min: float = 0.0
    prev_value: Optional[float] = None

    def __post_init__(self) -> None:
        # Each range is written so that NaN fails it too (every comparison
        # with NaN is False), and the upper bound inf keeps infinities out.
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"estimator: unknown estimator {self.estimator!r}")
        if self.gamma is not None and not -math.inf < self.gamma < math.inf:
            raise ConfigError(f"gamma: must be None or finite, got {self.gamma}")
        # delta0 before delta: the constant estimator's delta is delta0.
        if not 0.0 < self.delta0 < math.inf:
            raise ConfigError(f"delta0: must be > 0, got {self.delta0}")
        if not 0.0 <= self.delta < math.inf:
            raise ConfigError(f"delta: must be >= 0, got {self.delta}")
        # beta = 0 is allowed and freezes delta at its current value.
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta: must be in [0,1], got {self.beta}")
        if not 0.0 <= self.delta_min < math.inf:
            raise ConfigError(f"delta_min: must be >= 0, got {self.delta_min}")


def threshold_step(state: ThresholdState, is_elite: bool, rho: float) -> ThresholdState:
    """Move gamma one walk step; delta is untouched here."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0,1), got {rho}")
    if state.gamma is None:
        raise ValueError("gamma: threshold_step needs a set gamma, got None")
    if is_elite:
        return replace(state, gamma=state.gamma + (1.0 - rho) * state.delta)
    return replace(state, gamma=state.gamma - rho * state.delta)


def delta0_uniform(N: int) -> float:
    """Scale constant for values uniform on an interval: 3/(N+1)."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    return 3.0 / (N + 1)


def delta0_gauss(N: int, rho: float, mode: str = "nominal") -> float:
    """Scale constant for Gaussian values, from the order-statistic model.

    Both modes multiply the quantile difference
    ppf(1-rho+1/N) - ppf(1-rho); see the coefficient comment above for
    why two multipliers exist. Requires N > 1/rho so the upper quantile
    argument stays below 1.
    """
    if mode not in DELTA0_MODES:
        raise ConfigError(f"delta0_mode: unknown mode {mode!r}")
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0,1), got {rho}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    hi = 1.0 - rho + 1.0 / N
    if hi >= 1.0:
        raise DomainError(f"1-rho+1/N = {hi} is not below 1; need N > 1/rho")
    diff = normal_ppf(hi) - normal_ppf(1.0 - rho)
    coeff = GAUSS_NOMINAL_COEFF if mode == "nominal" else GAUSS_CALIBRATED_COEFF
    return coeff * diff


def delta_update(state: ThresholdState, f_new: float) -> ThresholdState:
    """Exponential-forgetting delta estimate from consecutive value gaps.

    delta <- (1-beta)*delta + beta*delta0*|f_new - prev_value|, clamped
    below at delta_min. A state whose prev_value is still unset is only
    primed: the first sample contributes no difference.
    """
    if state.estimator == "constant":
        raise ConfigError("estimator: delta_update does not apply to the constant estimator")
    if state.prev_value is None:
        return replace(state, prev_value=f_new)
    new_delta = (1.0 - state.beta) * state.delta + state.beta * state.delta0 * abs(
        f_new - state.prev_value
    )
    if new_delta < state.delta_min:
        new_delta = state.delta_min
    return replace(state, delta=new_delta, prev_value=f_new)


@dataclass(frozen=True, kw_only=True)
class ThresholdKnobs:
    """The memoryless walk's settings, with their range checks.

    gamma0 = None starts the threshold at the first sample's value,
    which makes step one elite and adapts to the objective's scale;
    pass a float to pin it. delta0 = None takes the model value
    (uniform or Gaussian formula); a delta0 given with a model estimator
    overrides the formula, which is also the hook for distributions
    neither model fits.

    gauss_model is the default estimator because typical objective
    value distributions here are bell-shaped sums; the uniform model
    under-sizes delta on such problems, the threshold lags the
    improving samples, and the run absorbs prematurely.
    """

    gamma0: Optional[float] = None
    estimator: str = "gauss_model"
    beta: float = 0.1
    delta0: Optional[float] = None
    delta0_mode: str = "nominal"
    delta_init: float = 0.0
    delta_min: float = 0.0

    def __post_init__(self) -> None:
        if self.gamma0 is not None and not math.isfinite(self.gamma0):
            raise ConfigError(f"gamma0: must be finite, got {self.gamma0}")
        if self.delta0_mode not in DELTA0_MODES:
            raise ConfigError(f"delta0_mode: unknown mode {self.delta0_mode!r}")
        if not 0.0 <= self.delta_init < math.inf:
            raise ConfigError(f"delta_init: must be >= 0, got {self.delta_init}")
        # The walk state checks estimator, delta0 (when set), beta and delta_min.
        ThresholdState(
            gamma=None, delta=0.0, estimator=self.estimator, beta=self.beta,
            delta0=1.0 if self.delta0 is None else self.delta0, delta_min=self.delta_min,
        )


@dataclass(frozen=True, kw_only=True)
class MemorylessConfig(OnlineConfig, ThresholdKnobs):
    """Settings for a memoryless run of K samples.

    N is nominal only: it enters the step size alpha1 = alpha/ceil(rho*N)
    and the delta0 formulas, no buffer of that size exists. N > 1/rho is
    required (the Gaussian delta0 precondition, enforced uniformly so a
    config stays valid under an estimator switch). The constant
    estimator has no model and requires an explicit delta0.
    """

    def __post_init__(self) -> None:
        OnlineConfig.__post_init__(self)
        if self.N * self.rho <= 1.0:
            raise ConfigError(
                f"N: need N > 1/rho for the memoryless variant, got N={self.N}, rho={self.rho}"
            )
        if self.estimator == "constant" and self.delta0 is None:
            raise ConfigError("delta0: required for the constant estimator")
        ThresholdKnobs.__post_init__(self)

    def resolved_delta0(self) -> float:
        """The scale constant actually used: explicit value or the model's."""
        if self.delta0 is not None:
            return self.delta0
        if self.estimator == "uniform_model":
            return delta0_uniform(self.N)
        return delta0_gauss(self.N, self.rho, self.delta0_mode)

    def initial_state(self, gamma: Optional[float]) -> ThresholdState:
        """The walk's state at threshold gamma; the constant estimator's
        delta is delta0 itself, the others start at delta_init."""
        d0 = self.resolved_delta0()
        return ThresholdState(
            gamma=gamma,
            delta=d0 if self.estimator == "constant" else self.delta_init,
            estimator=self.estimator,
            beta=self.beta,
            delta0=d0,
            delta_min=self.delta_min,
        )


def _walk(state: ThresholdState, rho: float) -> Tuple[Callable, Callable]:
    """The memoryless elite rule, started from `state`.

    Returns step(t, value), which decides whether value is elite
    (f >= gamma), walks gamma and re-estimates delta unless the
    estimator is constant, and read(), which returns (gamma, delta).
    A None gamma takes the first value, which is then elite. The
    arithmetic is threshold_step and delta_update on plain floats;
    tests check it against them.
    """
    gamma, delta, prev_value = state.gamma, state.delta, state.prev_value
    ewma = state.estimator != "constant"
    forget, gain, delta_min = 1.0 - state.beta, state.beta * state.delta0, state.delta_min
    up = 1.0 - rho

    def step(t: int, value: float) -> bool:
        nonlocal gamma, delta, prev_value
        if gamma is None:
            gamma = value
        elite = value >= gamma
        if elite:
            gamma += up * delta
        else:
            gamma -= rho * delta
        if ewma:
            if prev_value is not None:
                delta = forget * delta + gain * abs(value - prev_value)
                if delta < delta_min:
                    delta = delta_min
            prev_value = value
        return elite

    return step, lambda: (gamma, delta)


def run_memoryless(config: MemorylessConfig, obj: Objective, rng: RngStream) -> RunTrace:
    """Run K per-sample steps of the memoryless variant.

    The shared online loop (model.run_online) with the threshold walk as
    its elite rule, started from config.initial_state(config.gamma0).
    State is a handful of scalars plus the parameter vector, independent
    of N and K. A non-finite objective value raises DomainError naming
    its draw.
    """
    step, read = _walk(config.initial_state(config.gamma0), config.rho)
    return run_online("memoryless", config, obj, rng, TraceRecorder, step, read)


def run_threshold_stream(
    values: np.ndarray, state: ThresholdState, rho: float
) -> Tuple[int, ThresholdState]:
    """Threshold dynamics alone over a fixed value stream.

    No sampling and no parameter updates: the memoryless walk (the
    same step as run_memoryless) over the values. Returns the elite
    count and the final state. This is the frozen-sampler experiment
    used to check that the long-run elite fraction settles at rho. A
    non-finite value raises DomainError naming its index.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0,1), got {rho}")
    arr = np.asarray(values, dtype=np.float64)
    check_finite("threshold_stream", arr)
    vals = arr.tolist()
    step, read = _walk(state, rho)
    n_elite = sum(map(step, range(len(vals)), vals))
    gamma, delta = read()
    # The walk keeps each value as prev_value unless delta is constant.
    prev = vals[-1] if vals and state.estimator != "constant" else state.prev_value
    return n_elite, replace(state, gamma=gamma, delta=delta, prev_value=prev)
