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
from typing import Iterator, List, Optional, Tuple

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
# move, so appending a snapshot never copies the earlier ones. analyze
# works one block at a time, so a 64 KB block keeps its temporaries in
# cache.
_BLOCK_VALUES = 1 << 13
# Parameter values per block of a TraceRecorder's update log (whole
# updates, at least one). The log and the pending snapshots are folded
# into sign-change counts and table rows once per block.
_LOG_BLOCK_VALUES = 1 << 13
_SCALAR_COLUMNS = ("step", "gamma", "delta", "best_value", "update_count", "elite_decisions")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class SnapshotTable(Sequence[TraceSnapshot]):
    """The snapshots of one run, stored by column.

    Parameter vectors and cumulative sign-change counts are the rows of
    float64 and int64 blocks of block_rows snapshots each (about 2^13
    values, 64 KB a block); the scalar fields are plain lists, so None
    stays None. A snapshot's scalars are appended first and its rows
    written later (extend): the table holds the `written` snapshots
    whose rows are written, and a recorder's table may hold the scalars
    of pending snapshots past them.
    Items are TraceSnapshots whose arrays are read-only views of one
    row. A RunTrace holds the sealed() form: read-only views of the
    filled rows, scalar columns as tuples.
    """

    def __init__(self, n: int):
        self.block_rows = max(1, _BLOCK_VALUES // n)
        self.written = 0
        self._params: List[np.ndarray] = []
        self._sign_changes: List[np.ndarray] = []
        self.step: List[int] = []
        self.gamma: List[Optional[float]] = []
        self.delta: List[Optional[float]] = []
        self.best_value: List[Optional[float]] = []
        self.update_count: List[int] = []
        self.elite_decisions: List[int] = []

    def __len__(self) -> int:
        return self.written

    def _filled(self, blocks: List[np.ndarray]) -> List[np.ndarray]:
        # Read-only views of the rows written so far.
        return [_read_only(b[: self.written - k * self.block_rows]) for k, b in enumerate(blocks)]

    def param_blocks(self) -> List[np.ndarray]:
        """The (S, n) parameter vectors as consecutive read-only blocks of rows."""
        return self._filled(self._params)

    def __getitem__(self, i):
        """The snapshot at index i, or a list of them for a slice."""
        if isinstance(i, slice):
            return [self[j] for j in range(self.written)[i]]
        try:
            i = range(self.written)[i]
        except IndexError:
            raise IndexError(f"snapshot index {i} out of range for {self.written} snapshots") from None
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

    def extend(self, params: np.ndarray, sign_changes: np.ndarray) -> None:
        """Write the rows of the (m, n) params and sign_changes as those
        of the next m snapshots, whose scalars are already appended."""
        done, m = self.written, len(params)
        i = 0
        while i < m:
            k, r = divmod(done + i, self.block_rows)
            if r == 0:
                self._params.append(np.empty((self.block_rows, params.shape[1])))
                self._sign_changes.append(np.empty((self.block_rows, params.shape[1]), dtype=np.int64))
            j = min(m, i + self.block_rows - r)
            self._params[k][r : r + j - i] = params[i:j]
            self._sign_changes[k][r : r + j - i] = sign_changes[i:j]
            i = j
        self.written = done + m

    def sealed(self) -> "SnapshotTable":
        """Read-only views of the written rows and tuple columns of this table.

        No snapshot may be pending: a recorder folds before it seals. No
        data is copied: a row is written once, so later appends here
        never reach the sealed table.
        """
        out = SnapshotTable.__new__(SnapshotTable)
        out.block_rows, out.written = self.block_rows, self.written
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

    Recording a step costs almost nothing: an update copies its
    parameter vector into the next row of a fixed-size log block, and a
    snapshot appends its scalars to the SnapshotTable's columns;
    stride_snapshots appends many with one list.extend per column but
    gamma and delta, which it appends from the given pairs. The
    snapshots past the table's written rows are pending; a pending
    snapshot's log row follows from its update count. The sign changes
    and the pending snapshots' rows are worked out by one array-wide
    fold (_fold) when the log block fills, when one log block of
    snapshots is pending, and on every read of sign_changes or
    _snapshots, so no result depends on the block size. Between calls
    fewer than one log block of updates and of snapshots is pending.
    updates_applied records a settled stretch without the log: it folds
    what is pending, takes the stretch's sign changes from its first
    row, and writes only its stride snapshots' rows into the table, so
    a stretch of any length costs O(n) plus those rows.
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

        n = params0.n
        self._log_rows = max(1, _LOG_BLOCK_VALUES // n)
        # Row 0 holds the parameters before the block's first update;
        # rows 1.._rows the updates logged since the last fold.
        self._log = np.empty((self._log_rows + 1, n))
        self._log[0] = params0.probs
        self._rows = 0
        # Index arrays of the fold's gather, one per log row and one per
        # component, built once: held = signs[rows, self._columns].
        self._row_index = np.arange(self._log_rows + 1)[:, None]
        self._columns = np.arange(n)
        # Sign (-1.0, 0.0 or 1.0) of each component's last nonzero step,
        # and the change counts, as of log row 0.
        self._last_sign = np.zeros(n)
        self._sign_changes = np.zeros(n, dtype=np.int64)
        self.update_count = 0
        self.elite_decisions = 0
        self.best: Optional[EvaluatedSample] = None
        self.first_hit_step: Optional[int] = None
        self._table = SnapshotTable(n)
        self._snapshot(step=0, gamma=None, delta=None)

    @property
    def sign_changes(self) -> np.ndarray:
        """Per-component sign-change counts over every update so far."""
        self._fold()
        return self._sign_changes

    @property
    def _snapshots(self) -> SnapshotTable:
        """The snapshots taken so far."""
        self._fold()
        return self._table

    def update_applied(self, new_params: np.ndarray, elites: int = 1) -> None:
        """Record one parameter update covering `elites` elite samples."""
        rows = self._rows = self._rows + 1
        self._log[rows] = new_params
        self.update_count += 1
        self.elite_decisions += elites
        if rows == self._log_rows:
            self._fold()

    def updates_applied(
        self, params: np.ndarray, step: int, gamma: Optional[float], delta: Optional[float]
    ) -> None:
        """Record the m >= 1 rows of one settled stretch as m updates of
        one elite sample each, made at steps step+1 .. step+m, with the
        snapshot of each stride step among them taken at gamma and delta:
        the same record as update_applied(row) and then maybe_snapshot(s,
        gamma, delta) for the row of each step s in turn.

        Precondition: each row is the one before it (the last update
        recorded, for the first) moved toward one x in {0,1}^n by the
        rounded map p -> fl(fl(p*(1 - alpha1)) + alpha1*x_i). That map
        is monotone, so a component moves at the first row or never,
        and never turns: the stretch's sign changes all fall on its
        first row, and the counts are constant after it. So the record
        costs O(n) plus the stride-step rows, whatever m is; no row goes
        into the update log.
        """
        self._fold()
        table, stride, m = self._table, self.stride, len(params)
        signs = np.sign(params[0] - self._log[0])
        self._sign_changes = self._sign_changes + (signs * self._last_sign < 0.0)
        self._last_sign = np.where(signs != 0.0, signs, self._last_sign)
        # Snapshot steps s in (step, step + m]; at step s the counts have
        # grown by s - step.
        first, stop = (step // stride + 1) * stride, step + m + 1
        steps = range(first, stop, stride)
        updates, elites = self.update_count - step, self.elite_decisions - step
        table.step.extend(steps)
        table.gamma.extend([gamma] * len(steps))
        table.delta.extend([delta] * len(steps))
        table.best_value.extend([None if self.best is None else self.best.value] * len(steps))
        table.update_count.extend(range(updates + first, updates + stop, stride))
        table.elite_decisions.extend(range(elites + first, elites + stop, stride))
        table.extend(
            params[first - step - 1 :: stride],
            np.broadcast_to(self._sign_changes, (len(steps), params.shape[1])),
        )
        self._log[0] = params[-1]
        self.update_count += m
        self.elite_decisions += m

    def _fold(self) -> None:
        """Count the sign changes of the logged updates and write the
        pending snapshots' rows into the table, then start a new block."""
        r = self._rows
        log = self._log[: r + 1]
        # Row 0: the carried last nonzero sign; row i: the sign of update i.
        signs = np.empty_like(log)
        signs[0] = self._last_sign
        np.sign(log[1:] - log[:-1], out=signs[1:])
        # Last nonzero sign up to each row, by forward-filling row indices.
        rows = np.where(signs != 0.0, self._row_index[: r + 1], 0)
        np.maximum.accumulate(rows, axis=0, out=rows)
        held = signs[rows, self._columns]
        # Opposite nonzero signs multiply to -1; a zero on either side gives 0.
        counts = np.empty(log.shape, dtype=np.int64)
        counts[0] = self._sign_changes
        np.cumsum(signs[1:] * held[:-1] < 0.0, axis=0, out=counts[1:])
        counts[1:] += counts[0]
        # A pending snapshot's log row is its update count less the count
        # at log row 0.
        table = self._table
        at = np.array(table.update_count[table.written :], dtype=np.intp) - (self.update_count - r)
        table.extend(log[at], counts[at])
        self._last_sign = held[r]
        self._sign_changes = counts[r]
        self._log[0] = log[r]
        self._rows = 0

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

    def stride_snapshots(
        self, step: int, states: Sequence[Tuple[Optional[float], Optional[float]]]
    ) -> None:
        """Record the snapshots of the last len(states) stride steps up
        to step, the i-th at (gamma, delta) = states[i]: the same record
        as maybe_snapshot(s, *states[i]) for each of those steps s in
        turn, with no tuple built per snapshot.
        """
        table, stride, m = self._table, self.stride, len(states)
        last = step - step % stride
        table.step.extend(range(last - (m - 1) * stride, last + 1, stride))
        for gamma, delta in states:
            table.gamma.append(gamma)
            table.delta.append(delta)
        table.best_value.extend([None if self.best is None else self.best.value] * m)
        table.update_count.extend([self.update_count] * m)
        table.elite_decisions.extend([self.elite_decisions] * m)
        if len(table.step) - table.written >= self._log_rows:
            self._fold()

    def _snapshot(self, step: int, gamma: Optional[float], delta: Optional[float]) -> None:
        table = self._table
        table.step.append(step)
        table.gamma.append(gamma)
        table.delta.append(delta)
        table.best_value.append(None if self.best is None else self.best.value)
        table.update_count.append(self.update_count)
        table.elite_decisions.append(self.elite_decisions)
        if len(table.step) - table.written >= self._log_rows:
            self._fold()

    def finish(self, steps: int, gamma: Optional[float], delta: Optional[float]) -> RunTrace:
        """Seal the recorder into a RunTrace with its own read-only snapshots."""
        if self._table.step[-1] != steps:
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
