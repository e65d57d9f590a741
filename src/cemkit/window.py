"""Online cross-entropy, sliding-window variant.

One sample arrives per step. The elite decision compares the newest
value against the ceil(rho*N)-th largest value in a window of the last
N values (newest included), and an elite sample moves the parameters
by the per-sample step alpha1 = alpha/ceil(rho*N). The first N draws
only fill the window; no update happens during that warm-up.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from typing import Deque, List, Optional, Tuple

import numpy as np

from .errors import DimensionError
from .model import (
    BernoulliParams,
    Objective,
    OnlineConfig,
    RngStream,
    elite_count,
    run_online,
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
    """FIFO buffer of the last N sample values with a sorted index.

    The deque gives O(1) eviction of the oldest value; the parallel
    sorted list gives O(log N) rank lookups and insertions, keeping the
    per-step cost at O(log N) comparisons after warm-up. The deque holds
    values in draw order, so the oldest is always on the left.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._values: Deque[float] = deque()
        self._sorted_values: List[float] = []
        # The size m and the rho the cached rank was computed for: after
        # warm-up the size stays N, so elite_count runs once per window.
        self._m = 0
        self._rho: Optional[float] = None
        self._rank = 0

    def __len__(self) -> int:
        return len(self._values)

    def append(self, value: float) -> None:
        self._values.append(value)
        insort(self._sorted_values, value)

    def evict_oldest(self) -> float:
        oldest = self._values.popleft()
        del self._sorted_values[bisect_left(self._sorted_values, oldest)]
        return oldest

    def push(self, value: float) -> None:
        """append(value), then evict_oldest() once the buffer holds more
        than capacity values: one call per sample, with the same deque
        and the same sorted list, bit for bit.

        When the evicted value equals the new one and is nonzero, the
        sorted list is left as it is: equal nonzero floats have identical
        bits, so inserting one and deleting the other gives the same list.
        Zeros always take the full path, because 0.0 == -0.0 and the two
        are told apart by their position in the list.
        """
        values = self._values
        values.append(value)
        if len(values) <= self.capacity:
            insort(self._sorted_values, value)
            return
        oldest = values.popleft()
        if oldest != value or not value:
            ranked = self._sorted_values
            insort(ranked, value)
            del ranked[bisect_left(ranked, oldest)]

    def holds_one_value(self) -> bool:
        """Whether the full buffer holds one nonzero value v in every slot,
        bit for bit.

        Equal nonzero floats have identical bits. Pushing v then changes
        neither the deque nor the sorted list, and v is every rank
        statistic, so a sample of value v is elite with threshold v.
        """
        ranked = self._sorted_values
        return len(ranked) == self.capacity and ranked[0] == ranked[-1] and ranked[0] != 0.0

    def threshold(self, rho: float) -> float:
        """ceil(rho*N)-th largest value currently in the buffer."""
        m = len(self._sorted_values)
        if m != self._m or rho != self._rho:
            if m == 0:
                raise ValueError("window is empty")
            self._m, self._rho, self._rank = m, rho, elite_count(m, rho)
        return self._sorted_values[m - self._rank]

    def threshold_resort(self, rho: float) -> float:
        """Same rank statistic by full re-sort; the slow oracle the sorted
        index is checked against in tests."""
        vals = sorted(self._values, reverse=True)
        return vals[elite_count(len(vals), rho) - 1]


def online_update(x: np.ndarray, params: BernoulliParams, alpha1: float) -> BernoulliParams:
    """Convex step toward a single sample: (1-alpha1)*p + alpha1*x."""
    if not 0.0 < alpha1 <= 1.0:
        raise ValueError(f"alpha1 must be in (0,1], got {alpha1}")
    x = np.asarray(x)
    if x.shape != params.probs.shape:
        raise DimensionError(f"sample of length {x.size}, params of length {params.n}")
    return BernoulliParams((1.0 - alpha1) * params.probs + alpha1 * x)


def window_step(window: SampleWindow, value: float, rho: float) -> Tuple[Optional[float], bool]:
    """Per-sample elite decision. Call with the newest value already appended.

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
    return gamma, value >= gamma


def run_online_window(config: OnlineConfig, obj: Objective, rng: RngStream) -> RunTrace:
    """Run K per-sample steps of the sliding-window variant.

    The shared online loop (model.run_online) with the window's elite
    rule: window_step, inlined as one push and, after warm-up, one
    threshold per sample. The window's holds_one_value is the loop's
    settled test: once the buffer holds N copies of one nonzero value,
    the loop may finish the samples that repeat it in bulk, without
    calling fn or this rule, which they would leave unchanged. Whether it
    does is the recorder's call (see run_online), whatever the window
    class. A non-finite objective value raises DomainError naming its
    draw.
    """
    window = SampleWindow(config.N)
    push, threshold = window.push, window.threshold
    N, rho = config.N, config.rho
    gamma: Optional[float] = None

    def is_elite(t: int, value: float) -> bool:
        nonlocal gamma
        # The newest value goes in before the oldest comes out, as the
        # update order requires; the window overflows from draw N on.
        push(value)
        if t < N:
            return False
        gamma = threshold(rho)
        return value >= gamma

    return run_online(
        "window", config, obj, rng, TraceRecorder, is_elite, lambda: (gamma, None),
        window.holds_one_value,
    )
