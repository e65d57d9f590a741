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
# A snapshot on a TraceRecorder's pending list:
# (step, (gamma, delta), best_value, update_count, elite_decisions).
_Entry = Tuple[int, Tuple[Optional[float], Optional[float]], Optional[float], int, int]


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
    snapshot, so None stays None. extend appends snapshots' scalars and
    their new rows together.
    Items are TraceSnapshots whose arrays are read-only views of their
    row. A RunTrace holds the sealed() form: read-only views of the
    filled rows, the other columns as tuples.
    """

    def __init__(self, n: int):
        self.block_rows = max(1, _BLOCK_VALUES // n)
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
        return len(self.step)

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
        return [end - start for start, end in zip(starts, [*starts[1:], len(self)])]

    def __getitem__(self, i):
        """The snapshot at index i, or a list of them for a slice."""
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        try:
            i = range(len(self))[i]
        except IndexError:
            raise IndexError(f"snapshot index {i} out of range for {len(self)} snapshots") from None
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

    def extend(
        self, scalars: Sequence[Iterable], params: np.ndarray, sign_changes: np.ndarray,
        starts: Iterable[int],
    ) -> None:
        """Append snapshots: scalars holds their columns in the order of
        TraceSnapshot's scalar fields, the m rows of the (m, n) params
        and sign_changes are the next stored rows, the i-th first taken
        by snapshot starts[i], and new snapshots before starts[0] take
        the last stored row."""
        done, m = len(self.row_starts), len(params)
        self.row_starts.extend(starts)
        for name, column in zip(_SCALAR_COLUMNS, scalars):
            getattr(self, name).extend(column)
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

    def sealed(self) -> "SnapshotTable":
        """Read-only views of the stored rows and tuple columns of this table.

        No data is copied: a row is written once, so later appends here
        never reach the sealed table.
        """
        out = SnapshotTable.__new__(SnapshotTable)
        out.block_rows = self.block_rows
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
    snapshot appends its own (step, (gamma, delta), best value, update
    count, elite count) entry to the pending list. run_online fills that
    list directly; maybe_snapshot and finish append to it too, as does
    the constructor for the snapshot of step 0. An entry carries every
    scalar of its snapshot, so nothing the recorder does later changes
    it, and a pending entry's log row follows from its update count.
    One array-wide fold (_fold) counts the sign changes of the logged
    updates and moves the pending entries into the SnapshotTable with
    the rows of their distinct update counts; it is the one place that
    does so. It runs when the log block fills, when one log block of
    entries is pending (block_end), and on every read of sign_changes or
    _snapshots, so no result depends on the block size. A fold with no
    update logged and no entry pending does nothing. updates_applied
    records a settled stretch without the log or the list: it folds
    what is pending, takes the stretch's sign changes from its first
    row, and writes only its stride snapshots and their rows into the
    table, so a stretch of any length costs O(n) plus those rows.
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
        # The snapshots after the table's last, in step order.
        self.pending: List[_Entry] = [self._entry(0, None, None)]
        self.block_end()

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

    def _entry(self, step: int, gamma: Optional[float], delta: Optional[float]) -> _Entry:
        """The pending entry of a snapshot of the recorder as it is now."""
        best = None if self.best is None else self.best.value
        return step, (gamma, delta), best, self.update_count, self.elite_decisions

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
        into the update log. It folds first, so no pending entry comes
        before the snapshots it writes.
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
        done, k = len(table), len(steps)
        updates, elites = self.update_count - step, self.elite_decisions - step
        best = None if self.best is None else self.best.value
        table.extend(
            (
                steps, [gamma] * k, [delta] * k, [best] * k,
                range(updates + first, updates + stop, stride),
                range(elites + first, elites + stop, stride),
            ),
            params[first - step - 1 :: stride],
            np.broadcast_to(self._sign_changes, (k, params.shape[1])),
            range(done, done + k),
        )
        self._log[0] = params[-1]
        self.update_count += m
        self.elite_decisions += m

    def _fold(self) -> None:
        """Count the sign changes of the logged updates, move the pending
        entries into the table with the rows of their new update counts,
        then start a new block."""
        r, pending, table = self._rows, self.pending, self._table
        if not r and not pending:
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
        if pending:
            steps, states, bests, updates, elites = zip(*pending)
            # An entry whose update count differs from the one before it
            # (for the first, from the table's last snapshot's) takes a
            # new row: its log row, its update count less the count at
            # log row 0.
            last = table.update_count[-1] if table.update_count else -1
            counted = np.array([last, *updates], dtype=np.intp)
            new = (counted[1:] != counted[:-1]).nonzero()[0]
            at = counted[new + 1] - (self.update_count - r)
            columns = (steps, *zip(*states), bests, updates, elites)
            table.extend(columns, log[at], counts[at], (new + len(table)).tolist())
            pending.clear()
        self._last_sign = held[r]
        self._sign_changes = counts[r]
        self._log[0] = log[r]
        self._rows = 0

    def block_end(self) -> None:
        """Fold once a log block of entries is pending. run_online calls
        this at each end of a draw block, and the constructor and
        maybe_snapshot after each entry they add, so fewer than a log
        block of entries is pending after it, and at most that and a
        draw block's stride steps before the next."""
        if len(self.pending) >= self._log_rows:
            self._fold()

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
            self.pending.append(self._entry(step, gamma, delta))
            self.block_end()

    def finish(self, steps: int, gamma: Optional[float], delta: Optional[float]) -> RunTrace:
        """Seal the recorder into a RunTrace with its own read-only snapshots."""
        pending = self.pending
        if (pending[-1][0] if pending else self._table.step[-1]) != steps:
            pending.append(self._entry(steps, gamma, delta))
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
