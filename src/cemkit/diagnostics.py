"""Convergence diagnostics computed from run traces.

Three closed-form quantities and one report builder:

* param_envelope - the reachable band for each parameter after a given
  number of updates of step size alpha1, from the worst case of pushing
  toward 0 (bound p0*(1-alpha1)^u) or toward 1 every time.
* phi - the probability that one fresh draw under given parameters
  equals a designated target vector.
* miss_probability_bound - the tail factor exp(-phi1 * h(alpha1)) with
  h(a) = sum_{t>=1} (1-a)^(n*t) = 1/(1-(1-a)^n) - 1, bounding how much
  probability of never generating the target survives an infinite run.

A report over a finished trace checks every snapshot against the
envelope (violations indicate a broken update rule, zero is the only
acceptable count), locates 0/1 absorption, and carries the sign-change
counts accumulated by the recorder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import DimensionError, DomainError
from .model import BernoulliParams, Objective
from .trace import RunTrace

__all__ = [
    "ConvergenceReport",
    "phi",
    "param_envelope",
    "geometric_tail_sum",
    "miss_probability_bound",
    "analyze",
]

# Slack when testing snapshot parameters against the closed-form band;
# covers float rounding in long products, nothing more.
ENVELOPE_TOL = 1e-9


def phi(params: BernoulliParams, x_star: np.ndarray) -> float:
    """Probability that a single draw under params equals x_star exactly."""
    x = np.asarray(x_star)
    if x.shape != params.probs.shape:
        raise DimensionError(f"target of length {x.size}, params of length {params.n}")
    p = params.probs
    return float(np.prod(np.where(x == 1, p, 1.0 - p)))


def param_envelope(
    p0: BernoulliParams, alpha1: float, updates: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Reachable [lo, hi] band for every component after `updates` updates."""
    if not 0.0 < alpha1 <= 1.0:
        raise ValueError(f"alpha1 must be in (0,1], got {alpha1}")
    if updates < 0:
        raise ValueError(f"updates must be >= 0, got {updates}")
    shrink = (1.0 - alpha1) ** updates
    lo = p0.probs * shrink
    hi = lo + (1.0 - shrink)
    return lo, hi


def geometric_tail_sum(alpha1: float, n: int) -> float:
    """h(alpha1) = sum over t >= 1 of (1-alpha1)^(n*t), in closed form."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < alpha1 < 1.0:
        raise DomainError(f"alpha1 must be in (0,1), got {alpha1}")
    r = (1.0 - alpha1) ** n
    return 1.0 / (1.0 - r) - 1.0


def miss_probability_bound(phi1: float, alpha1: float, n: int) -> float:
    """The factor exp(-phi1 * h(alpha1)).

    Multiply by the first-step miss probability 1 - phi1 to get the full
    bound on the probability of never generating the target. alpha1 = 0
    is rejected: h diverges there and the bound degenerates to 0 in the
    limit, which callers should report rather than compute.
    """
    if not 0.0 < phi1 <= 1.0:
        raise DomainError(f"phi1 must be in (0,1], got {phi1}")
    return math.exp(-phi1 * geometric_tail_sum(alpha1, n))


@dataclass
class ConvergenceReport:
    """What a finished run says about the two convergence claims:
    absorption to a 0/1 vector, and generating the known optimum."""

    variant: str
    converged_binary: bool
    converged_step: Optional[int]
    final_params: BernoulliParams
    optimum_known: bool
    optimum_generated: Optional[bool]
    first_hit_step: Optional[int]
    sign_changes: np.ndarray
    envelope_violations: int
    phi_series: Optional[List[Tuple[int, float]]]
    miss_bound: Optional[float]

    def to_dict(self) -> Dict:
        return {
            "variant": self.variant,
            "converged_binary": self.converged_binary,
            "converged_step": self.converged_step,
            "optimum_known": self.optimum_known,
            "optimum_generated": self.optimum_generated,
            "first_hit_step": self.first_hit_step,
            "sign_changes": [int(c) for c in self.sign_changes],
            "envelope_violations": self.envelope_violations,
            "phi_series": None
            if self.phi_series is None
            else [[s, v] for s, v in self.phi_series],
            "miss_bound": self.miss_bound,
        }


def analyze(trace: RunTrace, obj: Objective, eps_binary: float = 1e-3) -> ConvergenceReport:
    """Build the convergence report for one finished trace.

    Envelope checking uses each snapshot's recorded update count, not
    its raw step index: parameters only move on updates, so the band
    after u updates is the correct comparison at any step. Absorption
    is located at snapshot resolution (the first snapshot where every
    component sits within eps_binary of 0 or 1). Optimum-related fields
    are None when the objective carries no optimum metadata.

    Snapshots are checked by array operations on the trace's blocks of
    parameter rows, about 2^16 values at a time; param_envelope and phi are the
    per-snapshot specification these operations reproduce exactly.
    """
    if not 0.0 < eps_binary < 0.5:
        raise ValueError(f"eps_binary must be in (0,0.5), got {eps_binary}")
    if not 0.0 < trace.alpha1 <= 1.0:
        raise ValueError(f"alpha1 must be in (0,1], got {trace.alpha1}")
    snaps = trace.snapshots
    optimum_known = obj.optimal_bits is not None and obj.optimal_value is not None
    if optimum_known:
        x_star = np.asarray(obj.optimal_bits)
        if x_star.shape != (trace.n,):
            raise DimensionError(f"target of length {x_star.size}, params of length {trace.n}")

    # The band of param_envelope for every snapshot. The shrink factor
    # is Python's ** (as in param_envelope), once per update count.
    shrink_of = {u: (1.0 - trace.alpha1) ** u for u in set(snaps.update_count)}
    shrink = np.array([shrink_of[u] for u in snaps.update_count])[:, None]
    violations = 0
    first_absorbed: Optional[int] = None
    phis: List[float] = []
    # One storage block at a time bounds the scratch memory of long traces.
    start = 0
    for p in snaps.param_blocks():
        s = shrink[start : start + len(p)]
        lo = trace.p0.probs * s
        hi = lo + (1.0 - s)
        violations += int(np.count_nonzero((p < lo - ENVELOPE_TOL) | (p > hi + ENVELOPE_TOL)))
        if first_absorbed is None:
            absorbed = np.all((p <= eps_binary) | (p >= 1.0 - eps_binary), axis=1)
            if absorbed.any():
                first_absorbed = start + int(absorbed.argmax())
        if optimum_known:
            phis += np.prod(np.where(x_star == 1, p, 1.0 - p), axis=1).tolist()
        start += len(p)
    converged_step = None if first_absorbed is None else snaps.step[first_absorbed]

    phi_series: Optional[List[Tuple[int, float]]] = None
    miss_bound: Optional[float] = None
    optimum_generated: Optional[bool] = None
    if optimum_known:
        phi_series = list(zip(snaps.step, phis))
        phi1 = phi_series[0][1]
        if phi1 > 0.0:
            if trace.alpha1 >= 1.0:
                # h -> 0 as alpha1 -> 1: nothing survives the first step.
                miss_bound = 1.0 - phi1
            else:
                miss_bound = (1.0 - phi1) * miss_probability_bound(phi1, trace.alpha1, trace.n)
        optimum_generated = trace.first_hit_step is not None

    return ConvergenceReport(
        variant=trace.variant,
        converged_binary=converged_step is not None,
        converged_step=converged_step,
        final_params=trace.final_params,
        optimum_known=optimum_known,
        optimum_generated=optimum_generated,
        first_hit_step=trace.first_hit_step,
        sign_changes=trace.sign_changes.copy(),
        envelope_violations=violations,
        phi_series=phi_series,
        miss_bound=miss_bound,
    )
