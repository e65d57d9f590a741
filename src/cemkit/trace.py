"""Run traces: per-step bookkeeping shared by all optimizer variants.

A TraceRecorder accumulates events as an engine runs and is frozen into
a RunTrace at the end. Engines report three kinds of events: a parameter
update was applied, a sample was evaluated (candidate for best-so-far),
and a step boundary was reached (candidate for a snapshot).

Step counts are always in units of objective evaluations, so traces from
batch and online runs with equal budgets line up point for point.

Snapshots are stored by column (SnapshotTable): the parameter vectors
and sign-change counts of a run are the rows of fixed-size arrays, so
diagnostics check a run with a few array operations per block.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, List, Optional

import numpy as np

from .model import BernoulliParams, EvaluatedSample

__all__ = ["TraceSnapshot", "SnapshotTable", "RunTrace", "TraceRecorder"]

# A sample counts as hitting the optimum when its value is within this
# tolerance of the known optimal value.
HIT_TOL = 1e-9


@dataclass(frozen=True)
class TraceSnapshot:
    """State of a run after `step` objective evaluations."""

    step: int
    params: np.ndarray
    gamma: Optional[float]
    delta: Optional[float]
    best_value: Optional[float]
    update_count: int
    sign_changes: np.ndarray
    elite_decisions: int


# Parameter values per storage block of a SnapshotTable (whole
# snapshots, at least one). Blocks are added as they fill and never
# move, so appending a snapshot never copies the earlier ones.
_BLOCK_VALUES = 1 << 16
_SCALAR_COLUMNS = ("step", "gamma", "delta", "best_value", "update_count", "elite_decisions")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class SnapshotTable(Sequence[TraceSnapshot]):
    """The snapshots of one run, stored by column.

    Parameter vectors and cumulative sign-change counts are the rows of
    float64 and int64 blocks of block_rows snapshots each (about 2^16
    values); the scalar fields are plain lists, so None stays None.
    Items are TraceSnapshots whose arrays are read-only views of one
    row. A RunTrace holds the sealed() form: read-only views of the
    filled rows, scalar columns as tuples.
    """

    def __init__(self, n: int):
        self.block_rows = max(1, _BLOCK_VALUES // n)
        self._params: List[np.ndarray] = []
        self._sign_changes: List[np.ndarray] = []
        self.step: List[int] = []
        self.gamma: List[Optional[float]] = []
        self.delta: List[Optional[float]] = []
        self.best_value: List[Optional[float]] = []
        self.update_count: List[int] = []
        self.elite_decisions: List[int] = []

    def __len__(self) -> int:
        return len(self.step)

    def _filled(self, blocks: List[np.ndarray]) -> List[np.ndarray]:
        # Read-only views of the rows written so far.
        return [_read_only(b[: len(self) - k * self.block_rows]) for k, b in enumerate(blocks)]

    def param_blocks(self) -> List[np.ndarray]:
        """The (S, n) parameter vectors as consecutive read-only blocks of rows."""
        return self._filled(self._params)

    def __getitem__(self, i: int) -> TraceSnapshot:
        i = range(len(self.step))[i]
        k, r = divmod(i, self.block_rows)
        return TraceSnapshot(
            self.step[i], _read_only(self._params[k][r]), self.gamma[i], self.delta[i],
            self.best_value[i], self.update_count[i], _read_only(self._sign_changes[k][r]),
            self.elite_decisions[i],
        )

    def __iter__(self) -> Iterator[TraceSnapshot]:
        params = chain.from_iterable(self._filled(self._params))
        signs = chain.from_iterable(self._filled(self._sign_changes))
        columns = (
            self.step, params, self.gamma, self.delta, self.best_value,
            self.update_count, signs, self.elite_decisions,
        )
        return (TraceSnapshot(*row) for row in zip(*columns))

    def append(
        self,
        step: int,
        params: np.ndarray,
        gamma: Optional[float],
        delta: Optional[float],
        best_value: Optional[float],
        update_count: int,
        sign_changes: np.ndarray,
        elite_decisions: int,
    ) -> None:
        """Copy one snapshot into the next row."""
        k, r = divmod(len(self.step), self.block_rows)
        if r == 0:
            self._params.append(np.empty((self.block_rows, params.size)))
            self._sign_changes.append(np.empty((self.block_rows, params.size), dtype=np.int64))
        self._params[k][r] = params
        self._sign_changes[k][r] = sign_changes
        self.step.append(step)
        self.gamma.append(gamma)
        self.delta.append(delta)
        self.best_value.append(best_value)
        self.update_count.append(update_count)
        self.elite_decisions.append(elite_decisions)

    def sealed(self) -> "SnapshotTable":
        """Read-only views of the filled rows and tuple columns of this table.

        No data is copied: a row is written once, so later appends here
        never reach the sealed table.
        """
        out = SnapshotTable.__new__(SnapshotTable)
        out.block_rows = self.block_rows
        out._params, out._sign_changes = self.param_blocks(), self._filled(self._sign_changes)
        for name in _SCALAR_COLUMNS:
            setattr(out, name, tuple(getattr(self, name)))
        return out


@dataclass
class RunTrace:
    """Complete record of one optimizer run."""

    variant: str
    n: int
    p0: BernoulliParams
    rho: float
    alpha: float
    alpha1: float
    steps: int
    update_count: int
    elite_decisions: int
    sign_changes: np.ndarray
    best: Optional[EvaluatedSample]
    first_hit_step: Optional[int]
    gamma_final: Optional[float]
    snapshots: SnapshotTable

    @property
    def final_params(self) -> BernoulliParams:
        # finish() always appends a closing snapshot, so this is total.
        return BernoulliParams(self.snapshots[-1].params)


class TraceRecorder:
    """Mutable accumulator an engine drives while it runs.

    Sign-change counting follows the convention that a zero step is not
    an event and does not reset direction: component i logs a change
    when the sign of its nonzero increment differs from the sign of its
    previous nonzero increment.
    """

    def __init__(
        self,
        variant: str,
        params0: BernoulliParams,
        rho: float,
        alpha: float,
        alpha1: float,
        snapshot_stride: int,
        optimal_value: Optional[float] = None,
    ):
        if snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")
        self.variant = variant
        self.p0 = params0
        self.rho = rho
        self.alpha = alpha
        self.alpha1 = alpha1
        self.stride = snapshot_stride
        self.optimal_value = optimal_value

        self._params = params0.probs.copy()
        # Sign (-1.0, 0.0 or 1.0) of each component's last nonzero step.
        self._last_sign = np.zeros(params0.n)
        self.sign_changes = np.zeros(params0.n, dtype=np.int64)
        self.update_count = 0
        self.elite_decisions = 0
        self.best: Optional[EvaluatedSample] = None
        self.first_hit_step: Optional[int] = None
        self._snapshots = SnapshotTable(params0.n)
        self._snapshot(step=0, gamma=None, delta=None)

    def update_applied(self, new_params: np.ndarray, elites: int = 1) -> None:
        """Record one parameter update covering `elites` elite samples."""
        sign = np.sign(new_params - self._params)
        # Opposite nonzero signs multiply to -1; a zero on either side gives 0.
        self.sign_changes += sign * self._last_sign < 0.0
        np.copyto(self._last_sign, sign, where=sign != 0.0)
        self._params[:] = new_params
        self.update_count += 1
        self.elite_decisions += elites

    def offer_best(self, bits: np.ndarray, value: float, draw_index: int) -> None:
        """Candidate best-so-far; earliest draw wins ties."""
        if self.best is None or value > self.best.value:
            self.best = EvaluatedSample(bits=bits.copy(), value=value, draw_index=draw_index)
        if (
            self.first_hit_step is None
            and self.optimal_value is not None
            and value >= self.optimal_value - HIT_TOL
        ):
            self.first_hit_step = draw_index

    def maybe_snapshot(self, step: int, gamma: Optional[float], delta: Optional[float]) -> None:
        if step % self.stride == 0:
            self._snapshot(step, gamma, delta)

    def _snapshot(self, step: int, gamma: Optional[float], delta: Optional[float]) -> None:
        self._snapshots.append(
            step,
            self._params,
            gamma,
            delta,
            None if self.best is None else self.best.value,
            self.update_count,
            self.sign_changes,
            self.elite_decisions,
        )

    def finish(self, steps: int, gamma: Optional[float], delta: Optional[float]) -> RunTrace:
        """Seal the recorder into a RunTrace with its own read-only snapshots."""
        if self._snapshots.step[-1] != steps:
            self._snapshot(steps, gamma, delta)
        return RunTrace(
            variant=self.variant,
            n=self.p0.n,
            p0=self.p0,
            rho=self.rho,
            alpha=self.alpha,
            alpha1=self.alpha1,
            steps=steps,
            update_count=self.update_count,
            elite_decisions=self.elite_decisions,
            sign_changes=self.sign_changes.copy(),
            best=self.best,
            first_hit_step=self.first_hit_step,
            gamma_final=gamma,
            snapshots=self._snapshots.sealed(),
        )
