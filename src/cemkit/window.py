"""Online cross-entropy, sliding-window variant.

One sample arrives per step. The elite decision compares the newest
value against the ceil(rho*N)-th largest value in a window of the last
N samples (newest included), and an elite sample moves the parameters
by the per-sample step alpha1 = alpha/ceil(rho*N). The first N draws
only fill the window; no update happens during that warm-up.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from math import isfinite
from typing import Deque, List, Optional, Tuple

import numpy as np

from .errors import ConfigError, DimensionError
from .model import (
    BernoulliParams,
    BlockSampler,
    EvaluatedSample,
    Objective,
    RngStream,
    check_run_settings,
    elite_count,
    non_finite_value,
)
from .trace import RunTrace, TraceRecorder

__all__ = [
    "SampleWindow",
    "OnlineConfig",
    "online_update",
    "window_step",
    "run_online_window",
]


class SampleWindow:
    """FIFO buffer of the last N evaluated samples with a sorted value index.

    The deque gives O(1) eviction of the oldest entry; the parallel
    sorted list of values gives O(log N) rank lookups and insertions,
    keeping the per-step cost at O(log N) comparisons after warm-up.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: Deque[EvaluatedSample] = deque()
        self._sorted_values: List[float] = []

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> Tuple[EvaluatedSample, ...]:
        return tuple(self._entries)

    def append(self, sample: EvaluatedSample) -> None:
        if self._entries and sample.draw_index <= self._entries[-1].draw_index:
            raise ValueError("draw_index must be strictly increasing within a window")
        self._entries.append(sample)
        insort(self._sorted_values, sample.value)

    def evict_oldest(self) -> EvaluatedSample:
        oldest = self._entries.popleft()
        i = bisect_left(self._sorted_values, oldest.value)
        del self._sorted_values[i]
        return oldest

    def threshold(self, rho: float) -> float:
        """ceil(rho*N)-th largest value currently in the buffer."""
        m = len(self._sorted_values)
        if m == 0:
            raise ValueError("window is empty")
        k = elite_count(m, rho)
        return self._sorted_values[m - k]

    def threshold_resort(self, rho: float) -> float:
        """Same rank statistic by full re-sort; the slow oracle the sorted
        index is checked against in tests."""
        vals = sorted((s.value for s in self._entries), reverse=True)
        return vals[elite_count(len(vals), rho) - 1]


@dataclass(frozen=True)
class OnlineConfig:
    """Settings for a sliding-window run of K samples.

    K may be any positive count; runs with K <= N never leave warm-up
    and return p0 untouched. eps_conv = None (the default) runs all K
    steps faithfully; setting it stops early on 0/1 absorption.
    """

    N: int
    rho: float
    alpha: float
    K: int
    p0: Optional[BernoulliParams] = None
    eps_conv: Optional[float] = None
    snapshot_stride: Optional[int] = None

    def __post_init__(self) -> None:
        check_run_settings(self, "K")


def online_update(x: np.ndarray, params: BernoulliParams, alpha1: float) -> BernoulliParams:
    """Convex step toward a single sample: (1-alpha1)*p + alpha1*x."""
    if not 0.0 < alpha1 <= 1.0:
        raise ValueError(f"alpha1 must be in (0,1], got {alpha1}")
    x = np.asarray(x)
    if x.shape != params.probs.shape:
        raise DimensionError(f"sample of length {x.size}, params of length {params.n}")
    return BernoulliParams((1.0 - alpha1) * params.probs + alpha1 * x)


def window_step(
    window: SampleWindow, x_new: EvaluatedSample, rho: float
) -> Tuple[Optional[float], bool]:
    """Per-sample elite decision. Call with x_new already appended.

    While the buffer holds at most N entries nothing happens yet: no
    eviction, no threshold, not elite (warm-up). Once it overflows, the
    oldest entry is evicted and the newest is elite iff its value is at
    least the ceil(rho*N)-th largest among the N that remain. The >=
    test means a newcomer strictly above the whole window is always
    elite.
    """
    if len(window) <= window.capacity:
        return None, False
    window.evict_oldest()
    gamma = window.threshold(rho)
    return gamma, x_new.value >= gamma


def run_online_window(config: OnlineConfig, obj: Objective, rng: RngStream) -> RunTrace:
    """Run K per-sample steps of the sliding-window variant.

    Bits come from a BlockSampler (the same bits as one draw per step)
    and each is evaluated with obj.fn as it is consumed. A non-finite
    objective value raises DomainError naming its draw.
    """
    params0 = config.p0 if config.p0 is not None else BernoulliParams.uniform_init(obj.n)
    if params0.n != obj.n:
        raise ConfigError(f"p0: dimension {params0.n} does not match objective dimension {obj.n}")
    n_b = elite_count(config.N, config.rho)
    alpha1 = config.alpha / n_b
    stride = config.snapshot_stride if config.snapshot_stride is not None else config.N
    recorder = TraceRecorder(
        variant="window",
        params0=params0,
        rho=config.rho,
        alpha=config.alpha,
        alpha1=alpha1,
        snapshot_stride=stride,
        optimal_value=obj.optimal_value,
    )
    # The window holds one extra slot so appending the newest sample can
    # precede the overflow test, as the update order requires.
    window = SampleWindow(config.N)
    probs = params0.probs.copy()
    fn = obj.fn
    eps = config.eps_conv
    gamma: Optional[float] = None
    sampler = BlockSampler(rng, probs, config.K)
    next_bits = sampler.next
    steps = 0
    for t in range(config.K):
        bits = next_bits()
        value = float(fn(bits))
        if not isfinite(value):
            raise non_finite_value("window", t, value)
        sample = EvaluatedSample(bits=bits, value=value, draw_index=t)
        window.append(sample)
        g, is_elite = window_step(window, sample, config.rho)
        if g is not None:
            gamma = g
        recorder.offer_best(sample.bits, sample.value, t)
        if is_elite:
            probs = (1.0 - alpha1) * probs + alpha1 * bits
            sampler.set_probs(probs)
            recorder.update_applied(probs)
        steps = t + 1
        recorder.maybe_snapshot(steps, gamma, None)
        if (
            eps is not None
            and is_elite
            and bool(np.all((probs <= eps) | (probs >= 1.0 - eps)))
        ):
            break
    return recorder.finish(steps, gamma, None)
