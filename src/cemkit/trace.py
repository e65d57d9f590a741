"""Run traces: per-step bookkeeping shared by all optimizer variants.

A TraceRecorder accumulates events as an engine runs and is frozen into
a RunTrace at the end. Engines report three kinds of events: a parameter
update was applied, a sample was evaluated (candidate for best-so-far),
and a step boundary was reached (candidate for a snapshot).

Step counts are always in units of objective evaluations, so traces from
batch and online runs with equal budgets line up point for point.

Snapshots are stored by column (SnapshotTable): the parameter vectors
and sign-change counts of a run are the rows of fixed-size arrays, one
row per distinct update count, so diagnostics check a run with a few
array operations per block.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Iterator, List, Optional, Tuple

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


# Parameter values per storage block of a SnapshotTable (whole rows, at
# least one). Blocks are added as they fill and never move, so
# appending a row never copies the earlier ones. analyze
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

    A snapshot's parameter vector and cumulative sign-change counts are
    those after its update count, so the table stores them once per
    distinct update count: one row of a float64 and of an int64 block of
    block_rows rows each (about 2^13 values, 64 KB a block). Update
    counts never decrease along a run, so the snapshots of one row are
    consecutive: row k serves the snapshots from row_starts[k] up to the
    next row's first. The scalar fields are plain lists, one entry per
    snapshot, so None stays None. A snapshot's scalars are appended
    first and its row written later (extend): the table holds the
    `written` snapshots whose rows are written, and a recorder's table
    may hold the scalars of pending snapshots past them.
    Items are TraceSnapshots whose arrays are read-only views of their
    row. A RunTrace holds the sealed() form: read-only views of the
    filled rows, the other columns as tuples.
    """

    def __init__(self, n: int):
        self.block_rows = max(1, _BLOCK_VALUES // n)
        self.written = 0
        self.row_starts: List[int] = []
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
        # Read-only views of the rows stored so far.
        rows = len(self.row_starts)
        return [_read_only(b[: rows - k * self.block_rows]) for k, b in enumerate(blocks)]

    def param_blocks(self) -> List[np.ndarray]:
        """The stored parameter rows, one per distinct update count, as
        consecutive read-only blocks."""
        return self._filled(self._params)

    def runs(self) -> List[int]:
        """The number of snapshots of each stored row."""
        starts = self.row_starts
        return [end - start for start, end in zip(starts, [*starts[1:], self.written])]

    def __getitem__(self, i):
        """The snapshot at index i, or a list of them for a slice."""
        if isinstance(i, slice):
            return [self[j] for j in range(self.written)[i]]
        try:
            i = range(self.written)[i]
        except IndexError:
            raise IndexError(f"snapshot index {i} out of range for {self.written} snapshots") from None
        k, r = divmod(bisect_right(self.row_starts, i) - 1, self.block_rows)
        return TraceSnapshot(
            self.step[i], _read_only(self._params[k][r]), self.gamma[i], self.delta[i],
            self.best_value[i], self.update_count[i], _read_only(self._sign_changes[k][r]),
            self.elite_decisions[i],
        )

    def __iter__(self) -> Iterator[TraceSnapshot]:
        runs = self.runs()
        params = chain.from_iterable(map(repeat, chain.from_iterable(self._filled(self._params)), runs))
        signs = chain.from_iterable(map(repeat, chain.from_iterable(self._filled(self._sign_changes)), runs))
        columns = (
            self.step, params, self.gamma, self.delta, self.best_value,
            self.update_count, signs, self.elite_decisions,
        )
        return (TraceSnapshot(*row) for row in zip(*columns))

    def extend(self, params: np.ndarray, sign_changes: np.ndarray, starts: Iterable[int]) -> None:
        """Write the rows of every pending snapshot, whose scalars are
        already appended: the m rows of the (m, n) params and
        sign_changes are the next stored rows, the i-th first taken by
        snapshot starts[i], and pending snapshots before starts[0] take
        the last stored row."""
        done, m = len(self.row_starts), len(params)
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
        self.row_starts.extend(starts)
        self.written = len(self.step)

    def sealed(self) -> "SnapshotTable":
        """Read-only views of the stored rows and tuple columns of this table.

        No snapshot may be pending: a recorder folds before it seals. No
        data is copied: a row is written once, so later appends here
        never reach the sealed table.
        """
        out = SnapshotTable.__new__(SnapshotTable)
        out.block_rows, out.written = self.block_rows, self.written
        out.row_starts = tuple(self.row_starts)
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
    stride step appends its (state, update count) pair to the pending
    list, which run_online fills directly. stride_snapshots drains that
    list into the SnapshotTable's columns with one list.extend per
    column; the recorder drains it itself before each change to what a
    snapshot records but its update count (a new best in offer_best, an
    update of more than one elite sample), before each fold and at
    finish, so each drained snapshot gets the best and the counts of
    its own step. maybe_snapshot and finish append one snapshot's
    scalars to the table directly. The table's snapshots past its
    written ones are pending too; a pending snapshot's log row follows
    from its update count. The sign changes and the rows of the pending
    snapshots' distinct update counts are worked out by one array-wide
    fold (_fold) when the log block fills, when one log block of
    snapshots is pending (at a block_end call, for the pending list),
    and on every read of sign_changes or _snapshots, so no result
    depends on the block size. A fold with no update logged and no
    snapshot pending does nothing. updates_applied records a settled
    stretch without the log: it folds what is pending, takes the
    stretch's sign changes from its first row, and writes only its
    stride snapshots' rows into the table, so a stretch of any length
    costs O(n) plus those rows.
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
        # ((gamma, delta), update_count) of each stride step after the
        # table's last snapshot, in step order, not yet drained.
        self.pending: List[Tuple[Tuple[Optional[float], Optional[float]], int]] = []
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
        if elites != 1 and self.pending:
            # A drained snapshot takes its elite count from its update count.
            self.stride_snapshots()
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
        # grown by s - step, so each has a row of its own.
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
            range(table.written, len(table.step)),
        )
        self._log[0] = params[-1]
        self.update_count += m
        self.elite_decisions += m

    def _fold(self) -> None:
        """Drain the pending list, count the sign changes of the logged
        updates and write the rows of the pending snapshots' new update
        counts into the table, then start a new block."""
        if self.pending:
            self.stride_snapshots()
        r, table = self._rows, self._table
        if not r and table.written == len(table.step):
            return
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
        # A pending snapshot whose update count differs from the one
        # before it (for the first, from the last written snapshot's)
        # takes a new row: its log row, its update count less the count
        # at log row 0.
        done = table.written
        counted = table.update_count[done - 1 :] if done else [-1, *table.update_count]
        updates = np.array(counted, dtype=np.intp)
        new = (updates[1:] != updates[:-1]).nonzero()[0]
        at = updates[new + 1] - (self.update_count - r)
        table.extend(log[at], counts[at], (new + done).tolist())
        self._last_sign = held[r]
        self._sign_changes = counts[r]
        self._log[0] = log[r]
        self._rows = 0

    def block_end(self) -> None:
        """Fold once a log block of snapshots is pending. run_online
        calls this at each end of a draw block, so fewer than a log
        block of snapshots is pending after it, and at most that and a
        block's stride steps before the next."""
        table = self._table
        if len(self.pending) + len(table.step) - table.written >= self._log_rows:
            self._fold()

    def stride_snapshots(self) -> None:
        """Append the scalars of the pending stride snapshots to the
        table, with one list.extend per column, and empty the list.

        Each is the stride step after the one before it (the first:
        after the table's last snapshot) and keeps its own update count.
        Its elite count is that count plus the recorder's elite
        decisions in excess of its updates, and its best value the
        recorder's: the recorder drains before an update of more than
        one elite sample and before a new best, so neither has moved
        since the snapshot's step.
        """
        pending, table, stride = self.pending, self._table, self.stride
        m = len(pending)
        states, updates = zip(*pending)
        gammas, deltas = zip(*states)
        first = (table.step[-1] // stride + 1) * stride
        table.step.extend(range(first, first + m * stride, stride))
        table.gamma.extend(gammas)
        table.delta.extend(deltas)
        table.best_value.extend([None if self.best is None else self.best.value] * m)
        table.update_count.extend(updates)
        extra = self.elite_decisions - self.update_count
        table.elite_decisions.extend([u + extra for u in updates] if extra else updates)
        pending.clear()

    def offer_best(self, bits: np.ndarray, value: float, draw_index: int) -> None:
        """Candidate best-so-far; earliest draw wins ties."""
        if self.best is None or value > self.best.value:
            if self.pending:
                self.stride_snapshots()
            self.best = EvaluatedSample(bits=bits.copy(), value=value, draw_index=draw_index)
        if (
            self.first_hit_step is None
            and self.optimal_value is not None
            and value >= self.optimal_value - HIT_TOL
        ):
            self.first_hit_step = draw_index

    def maybe_snapshot(self, step: int, gamma: Optional[float], delta: Optional[float]) -> None:
        if step % self.stride == 0:
            if self.pending:
                self.stride_snapshots()
            self._snapshot(step, gamma, delta)

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
        if self.pending:
            self.stride_snapshots()
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
