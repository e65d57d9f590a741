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
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigError, DomainError
from .model import (
    BernoulliParams,
    BlockSampler,
    Objective,
    RngStream,
    check_run_settings,
    elite_count,
    non_finite_value,
)
from .normal import normal_ppf
from .trace import RunTrace, TraceRecorder

__all__ = [
    "ThresholdState",
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

    prev_value is the previous sample's objective value, needed by the
    |f_t - f_{t+1}| estimator; None until the first sample primes it.
    """

    gamma: float
    delta: float
    estimator: str = "constant"
    beta: float = 0.1
    delta0: float = 1.0
    delta_min: float = 0.0
    prev_value: Optional[float] = None

    def __post_init__(self) -> None:
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"estimator: unknown estimator {self.estimator!r}")
        if self.delta < 0.0:
            raise ConfigError(f"delta: must be >= 0, got {self.delta}")
        # beta = 0 is allowed and freezes delta at its current value.
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta: must be in [0,1], got {self.beta}")
        if self.delta0 <= 0.0:
            raise ConfigError(f"delta0: must be > 0, got {self.delta0}")
        if self.delta_min < 0.0:
            raise ConfigError(f"delta_min: must be >= 0, got {self.delta_min}")


def threshold_step(state: ThresholdState, is_elite: bool, rho: float) -> ThresholdState:
    """Move gamma one walk step; delta is untouched here."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0,1), got {rho}")
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


@dataclass(frozen=True)
class MemorylessConfig:
    """Settings for a memoryless run of K samples.

    N is nominal only: it enters the step size alpha/ceil(rho*N) and the
    delta0 formulas, no buffer of that size exists. N > 1/rho is
    required (the Gaussian delta0 precondition, enforced uniformly so a
    config stays valid under an estimator switch).

    gamma0 = None starts the threshold at the first sample's value,
    which makes step one elite and adapts to the objective's scale;
    pass a float to pin it. delta0 = None takes the model value
    (uniform or Gaussian formula); the constant estimator has no model
    and requires an explicit delta0. A user-supplied delta0 with a
    model estimator overrides the formula, which is also the hook for
    distributions neither model fits.

    gauss_model is the default estimator because typical objective
    value distributions here are bell-shaped sums; the uniform model
    under-sizes delta on such problems, the threshold lags the
    improving samples, and the run absorbs prematurely.
    """

    N: int
    rho: float
    alpha: float
    K: int
    p0: Optional[BernoulliParams] = None
    gamma0: Optional[float] = None
    estimator: str = "gauss_model"
    beta: float = 0.1
    delta0: Optional[float] = None
    delta0_mode: str = "nominal"
    delta_init: float = 0.0
    delta_min: float = 0.0
    eps_conv: Optional[float] = None
    snapshot_stride: Optional[int] = None

    def __post_init__(self) -> None:
        check_run_settings(self, "K")
        if self.N * self.rho <= 1.0:
            raise ConfigError(
                f"N: need N > 1/rho for the memoryless variant, got N={self.N}, rho={self.rho}"
            )
        if self.gamma0 is not None and not math.isfinite(self.gamma0):
            raise ConfigError(f"gamma0: must be finite, got {self.gamma0}")
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"estimator: unknown estimator {self.estimator!r}")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta: must be in [0,1], got {self.beta}")
        if self.estimator == "constant" and self.delta0 is None:
            raise ConfigError("delta0: required for the constant estimator")
        if self.delta0 is not None and self.delta0 <= 0.0:
            raise ConfigError(f"delta0: must be > 0, got {self.delta0}")
        if self.delta0_mode not in DELTA0_MODES:
            raise ConfigError(f"delta0_mode: unknown mode {self.delta0_mode!r}")
        if self.delta_init < 0.0:
            raise ConfigError(f"delta_init: must be >= 0, got {self.delta_init}")
        if self.delta_min < 0.0:
            raise ConfigError(f"delta_min: must be >= 0, got {self.delta_min}")

    def resolved_delta0(self) -> float:
        """The scale constant actually used: explicit value or the model's."""
        if self.delta0 is not None:
            return self.delta0
        if self.estimator == "uniform_model":
            return delta0_uniform(self.N)
        return delta0_gauss(self.N, self.rho, self.delta0_mode)

    def initial_state(self, gamma: float) -> ThresholdState:
        if self.estimator == "constant":
            d0 = self.resolved_delta0()
            return ThresholdState(
                gamma=gamma, delta=d0, estimator="constant", beta=self.beta, delta0=d0,
                delta_min=self.delta_min,
            )
        return ThresholdState(
            gamma=gamma,
            delta=self.delta_init,
            estimator=self.estimator,
            beta=self.beta,
            delta0=self.resolved_delta0(),
            delta_min=self.delta_min,
        )


def run_memoryless(config: MemorylessConfig, obj: Objective, rng: RngStream) -> RunTrace:
    """Run K per-sample steps of the memoryless variant.

    Per sample: draw (from a BlockSampler, the same bits as one draw
    per step) and evaluate with obj.fn, decide elite by f >= gamma,
    move the parameters on elite and gamma either way, then feed the
    value to the delta estimator. State is a handful of scalars plus the parameter
    vector, independent of N and K. A non-finite objective value raises
    DomainError naming its draw.
    """
    params0 = config.p0 if config.p0 is not None else BernoulliParams.uniform_init(obj.n)
    if params0.n != obj.n:
        raise ConfigError(f"p0: dimension {params0.n} does not match objective dimension {obj.n}")
    n_b = elite_count(config.N, config.rho)
    alpha1 = config.alpha / n_b
    stride = config.snapshot_stride if config.snapshot_stride is not None else config.N
    recorder = TraceRecorder(
        variant="memoryless",
        params0=params0,
        rho=config.rho,
        alpha=config.alpha,
        alpha1=alpha1,
        snapshot_stride=stride,
        optimal_value=obj.optimal_value,
    )
    probs = params0.probs.copy()
    fn = obj.fn
    rho = config.rho
    eps = config.eps_conv
    ewma = config.estimator != "constant"
    beta = config.beta
    delta0 = config.resolved_delta0()
    delta_min = config.delta_min
    gamma = config.gamma0
    delta = delta0 if config.estimator == "constant" else config.delta_init
    prev_value: Optional[float] = None
    sampler = BlockSampler(rng, probs, config.K)
    next_bits = sampler.next
    steps = 0
    for t in range(config.K):
        bits = next_bits()
        value = float(fn(bits))
        if not math.isfinite(value):
            raise non_finite_value("memoryless", t, value)
        if gamma is None:
            gamma = value
        recorder.offer_best(bits, value, t)
        if value >= gamma:
            is_elite = True
            probs = (1.0 - alpha1) * probs + alpha1 * bits
            sampler.set_probs(probs)
            recorder.update_applied(probs)
            gamma = gamma + (1.0 - rho) * delta
        else:
            is_elite = False
            gamma = gamma - rho * delta
        if ewma:
            if prev_value is None:
                prev_value = value
            else:
                delta = (1.0 - beta) * delta + beta * delta0 * abs(value - prev_value)
                if delta < delta_min:
                    delta = delta_min
                prev_value = value
        steps = t + 1
        recorder.maybe_snapshot(steps, gamma, delta)
        if (
            eps is not None
            and is_elite
            and bool(np.all((probs <= eps) | (probs >= 1.0 - eps)))
        ):
            break
    return recorder.finish(steps, gamma, delta)


def run_threshold_stream(
    values: np.ndarray, state: ThresholdState, rho: float
) -> Tuple[int, ThresholdState]:
    """Threshold dynamics alone over a fixed value stream.

    No sampling and no parameter updates: each value is tested against
    gamma, gamma walks, delta is re-estimated when the estimator is not
    constant. Returns the elite count and the final state. This is the
    frozen-sampler experiment used to check that the long-run elite
    fraction settles at rho; the arithmetic is inlined for speed and is
    verified against threshold_step/delta_update replay in tests.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0,1), got {rho}")
    gamma = state.gamma
    delta = state.delta
    ewma = state.estimator != "constant"
    beta = state.beta
    delta0 = state.delta0
    delta_min = state.delta_min
    prev_value = state.prev_value
    n_elite = 0
    up = 1.0 - rho
    for value in np.asarray(values, dtype=np.float64).tolist():
        if value >= gamma:
            n_elite += 1
            gamma += up * delta
        else:
            gamma -= rho * delta
        if ewma:
            if prev_value is None:
                prev_value = value
            else:
                delta = (1.0 - beta) * delta + beta * delta0 * abs(value - prev_value)
                if delta < delta_min:
                    delta = delta_min
                prev_value = value
    final = replace(state, gamma=gamma, delta=delta, prev_value=prev_value)
    return n_elite, final
