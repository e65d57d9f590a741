"""The block fold of TraceRecorder against a plain-Python recorder.

TraceRecorder logs each update as one row of a fixed-size block and
works out sign changes and snapshot rows once per block. Whatever the
block size, every snapshot and every count must equal what a recorder
that applies the sign-change rule one update at a time produces. The
engine-level tests replay every engine through its pure update
functions and that reference recorder.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cemkit import (
    BatchConfig,
    BernoulliParams,
    MemorylessConfig,
    Objective,
    OnlineConfig,
    ProblemSpec,
    RngStream,
    SampleWindow,
    TraceRecorder,
    analyze,
    batch_update,
    delta_update,
    draw_sample,
    elite_count,
    is_binary_converged,
    make_objective,
    online_update,
    run_batch,
    run_memoryless,
    run_online_window,
    threshold_step,
    window_step,
)
from cemkit import batch, memoryless
from cemkit import window as window_module
from cemkit import model as model_module
from cemkit import trace as trace_module

DEFAULT_LOG_VALUES = trace_module._LOG_BLOCK_VALUES
LOG_ROWS = [1, 2, 3, None]


def set_log_rows(mp, rows, n):
    """Log blocks of `rows` updates for vectors of length n (None: the default)."""
    mp.setattr(trace_module, "_LOG_BLOCK_VALUES", DEFAULT_LOG_VALUES if rows is None else rows * n)


class ReferenceRecorder:
    """The recorder's rules applied one event at a time in plain Python.

    finish() returns the same tuple as outcome(run) for a RunTrace.
    """

    def __init__(self, variant, p0, stride, optimal_value=None):
        self.variant = variant
        self.stride = stride
        self.optimal_value = optimal_value
        self.params = [float(v) for v in p0]
        self.last = [0] * len(self.params)
        self.counts = [0] * len(self.params)
        self.update_count = 0
        self.elite_decisions = 0
        self.best = None
        self.first_hit_step = None
        self.snapshots = []
        self._snapshot(0, None, None)

    def update_applied(self, new_params, elites=1):
        new = [float(v) for v in new_params]
        for i, (old, v) in enumerate(zip(self.params, new)):
            s = (v > old) - (v < old)
            if s:
                self.counts[i] += self.last[i] != 0 and s != self.last[i]
                self.last[i] = s
        self.params = new
        self.update_count += 1
        self.elite_decisions += elites

    def offer_best(self, bits, value, draw_index):
        if self.best is None or value > self.best[0]:
            self.best = (value, draw_index, bits.tobytes())
        if (
            self.first_hit_step is None
            and self.optimal_value is not None
            and value >= self.optimal_value - trace_module.HIT_TOL
        ):
            self.first_hit_step = draw_index

    def maybe_snapshot(self, step, gamma, delta):
        if step % self.stride == 0:
            self._snapshot(step, gamma, delta)

    def _snapshot(self, step, gamma, delta):
        self.snapshots.append((
            step, gamma, delta, None if self.best is None else self.best[0],
            self.update_count, self.elite_decisions,
            np.array(self.params).tobytes(), np.array(self.counts, dtype=np.int64).tobytes(),
        ))

    def finish(self, steps, gamma, delta):
        if self.snapshots[-1][0] != steps:
            self._snapshot(steps, gamma, delta)
        best = (None, None, None) if self.best is None else self.best
        return (
            self.variant, len(self.params), steps, self.update_count, self.elite_decisions,
            self.first_hit_step, gamma, *best, self.snapshots[-1][6],
            np.array(self.counts, dtype=np.int64).tobytes(), list(self.snapshots),
        )


def snapshot_rows(table):
    return [
        (
            s.step, s.gamma, s.delta, s.best_value, s.update_count, s.elite_decisions,
            s.params.tobytes(), s.sign_changes.tobytes(),
        )
        for s in table
    ]


def outcome(run):
    """Everything a RunTrace holds, in comparable form."""
    best = (None, None, None) if run.best is None else (
        run.best.value, run.best.draw_index, run.best.bits.tobytes())
    return (
        run.variant, run.n, run.steps, run.update_count, run.elite_decisions,
        run.first_hit_step, run.gamma_final, *best, run.final_params.probs.tobytes(),
        run.sign_changes.tobytes(), snapshot_rows(run.snapshots),
    )


def recorders(n, stride, optimal_value=2.0, cls=TraceRecorder):
    p0 = np.full(n, 0.5)
    rec = cls(
        variant="test", params0=BernoulliParams(p0), rho=0.1, alpha=0.5, alpha1=0.5,
        snapshot_stride=stride, optimal_value=optimal_value,
    )
    return rec, ReferenceRecorder("test", p0, stride, optimal_value)


def random_events(n, steps, seed):
    """Per step: new params or None, a best offer or None, gamma, delta.

    Updates move a random subset of components, repeat the last row
    exactly (a zero step everywhere), or move only component 0 after
    the other components have stopped moving halfway through.
    """
    rng = np.random.default_rng(seed)
    params = np.full(n, 0.5)
    events = []
    for step in range(1, steps + 1):
        new = None
        u = rng.random()
        if u < 0.15:
            new = params.copy()
        elif u < 0.85:
            new = params.copy()
            moving = rng.random(n) < 0.6
            if step > steps // 2:
                moving[1:] = False
            new[moving] = rng.uniform(size=int(moving.sum()))
            params = new
        offer = None
        if rng.random() < 0.2:
            offer = (rng.integers(0, 2, n).astype(np.uint8), float(rng.integers(0, 3)), step - 1)
        gamma = None if step % 4 == 0 else 0.5 * step
        delta = None if step % 3 else 0.25 * step
        events.append((new, offer, gamma, delta))
    return events


def feed(recs, events, first_step=1):
    for step, (new, offer, gamma, delta) in enumerate(events, first_step):
        for rec in recs:
            if new is not None:
                rec.update_applied(new, elites=step % 3 + 1)
            if offer is not None:
                rec.offer_best(*offer)
            rec.maybe_snapshot(step, gamma, delta)


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("rows", LOG_ROWS)
def test_fold_matches_reference_for_random_updates(monkeypatch, rows, stride):
    n, steps = 4, 700
    set_log_rows(monkeypatch, rows, n)
    rec, ref = recorders(n, stride)
    feed((rec, ref), random_events(n, steps, seed=rows or 0))
    want = ref.finish(steps, 1.5, None)
    assert outcome(rec.finish(steps, 1.5, None)) == want
    # Components 1.. stop moving halfway through: their counts are final by then.
    half = next(s for s in want[-1] if s[0] >= steps // 2)
    final = np.frombuffer(want[-2], np.int64)
    assert np.array_equal(np.frombuffer(half[-1], np.int64)[1:], final[1:])
    assert final[0] > final[1:].max() > 0


def pending(rec):
    """The steps of the pending snapshots: the table's rows past those written."""
    table = rec._table
    return table.step[table.written :]


def pending_rows(rec):
    """The log row of each pending snapshot: its update count less the
    count at log row 0."""
    table = rec._table
    return [u - (rec.update_count - rec._rows) for u in table.update_count[table.written :]]


def test_fold_on_a_snapshot_step(monkeypatch):
    n = 3
    set_log_rows(monkeypatch, 2, n)
    rec, ref = recorders(n, stride=2)
    updates = [np.array([0.6, 0.4, 0.5]), np.array([0.5, 0.5, 0.5]), np.array([0.7, 0.5, 0.4])]
    for step, new in enumerate(updates, 1):
        for r in (rec, ref):
            r.update_applied(new)
        if step == 2:
            # The second update filled the two-row block and folded it
            # before the snapshot of the same step was taken.
            assert rec._rows == 0 and not pending(rec)
        for r in (rec, ref):
            r.maybe_snapshot(step, float(step), None)
        if step == 2:
            # That snapshot refers to row 0, the carried last update.
            assert pending(rec) == [2] and pending_rows(rec) == [0]
    assert snapshot_rows(rec._snapshots) == ref.snapshots
    assert rec.sign_changes.tolist() == ref.counts == [2, 1, 0]
    assert outcome(rec.finish(3, 3.0, None)) == ref.finish(3, 3.0, None)


def test_pending_snapshots_fold_without_updates(monkeypatch):
    n = 2
    set_log_rows(monkeypatch, 3, n)
    rec, ref = recorders(n, stride=1)
    events = [(None, None, float(step), None) for step in range(1, 11)]
    events[4] = (np.array([0.9, 0.1]), None, 5.0, None)
    feed((rec, ref), events)
    assert outcome(rec.finish(10, 0.0, None)) == ref.finish(10, 0.0, None)


@pytest.mark.parametrize("rows", LOG_ROWS)
def test_mid_run_reads_fold_first(monkeypatch, rows):
    n, steps = 5, 400
    set_log_rows(monkeypatch, rows, n)
    rec, ref = recorders(n, stride=2)
    events = random_events(n, steps, seed=11)
    for start in range(0, steps, 37):
        feed((rec, ref), events[start : start + 37], first_step=start + 1)
        counts = rec.sign_changes
        assert counts.dtype == np.int64 and counts.tolist() == ref.counts
        assert snapshot_rows(rec._snapshots) == ref.snapshots
    assert outcome(rec.finish(steps, None, 2.0)) == ref.finish(steps, None, 2.0)


@pytest.mark.parametrize("rows", LOG_ROWS)
def test_recording_after_finish(monkeypatch, rows):
    n = 3
    set_log_rows(monkeypatch, rows, n)
    rec, ref = recorders(n, stride=3)
    events = random_events(n, 300, seed=5)
    feed((rec, ref), events[:100])
    first = rec.finish(100, 1.0, None)
    before = outcome(first)
    assert before == ref.finish(100, 1.0, None)
    feed((rec, ref), events[100:], first_step=101)
    assert outcome(rec.finish(300, 2.0, None)) == ref.finish(300, 2.0, None)
    assert outcome(first) == before


def test_long_run_holds_at_most_one_block(monkeypatch):
    # A K=50,000 memoryless run at the default stride fills the update
    # log and the pending snapshots many times over; neither may ever
    # hold more than one block of rows. (A call adds at most one
    # snapshot here, since the stride N exceeds a draw block's rows.)
    seen = {"folds": 0, "rows": 0, "pending": 0}

    class Watched(TraceRecorder):
        def _fold(self):
            seen["folds"] += 1
            seen["rows"] = max(seen["rows"], self._rows)
            seen["pending"] = max(seen["pending"], len(pending(self)))
            TraceRecorder._fold(self)

    obj = make_objective(ProblemSpec(kind="onemax", n=40))
    cfg = MemorylessConfig(N=40, rho=0.1, alpha=0.05, K=50_000, estimator="uniform_model")
    monkeypatch.setattr(memoryless, "TraceRecorder", Watched)
    run = run_memoryless(cfg, obj, RngStream(2))
    block = DEFAULT_LOG_VALUES // obj.n
    assert run.update_count > 2 * block and len(run.snapshots) > 2 * block
    assert seen["rows"] == block and seen["pending"] <= block
    assert seen["folds"] >= run.update_count // block


# The bulk form: updates_applied records a settled stretch of
# single-elite updates, one step each, with the stride snapshots among
# them, in O(n) plus those snapshots' rows.

class FoldWatch(TraceRecorder):
    """Notes (log rows, pending snapshots) at each fold inside
    updates_applied, and checks what each such call leaves: no log row,
    no pending snapshot, and the stretch's last row as log row 0."""

    def __init__(self, *args, **kwargs):
        self.folds, self.in_bulk = [], False
        TraceRecorder.__init__(self, *args, **kwargs)

    def updates_applied(self, params, step, gamma, delta):
        self.in_bulk = True
        TraceRecorder.updates_applied(self, params, step, gamma, delta)
        self.in_bulk = False
        assert self._rows == 0 and not pending(self)
        assert self._log[0].tobytes() == params[-1].tobytes()

    def _fold(self):
        if self.in_bulk:
            self.folds.append((self._rows, len(pending(self))))
        TraceRecorder._fold(self)


# alpha1 = 1 keeps none of the old parameters, 0.07 stalls the ones
# below 1, and 2^-54 rounds 1 - alpha1 to 1.0.
STRETCH_ALPHA1 = [1.0, 0.5, 0.07, 2.0**-54]


def stretch_rows(rng, start, length):
    """length rows of a settled stretch from the parameters start: each
    the one before it moved toward one random x by run_online's update
    p * keep + toward(x), at an alpha1 drawn from STRETCH_ALPHA1."""
    start = np.asarray(start, dtype=float)
    x = rng.integers(0, 2, start.size)
    alpha1 = STRETCH_ALPHA1[rng.integers(len(STRETCH_ALPHA1))]
    keep, toward = np.full(start.size, 1.0 - alpha1), np.array([0.0, alpha1]).take
    rows = [start]
    for _ in range(length):
        rows.append(rows[-1] * keep + toward(x))
    return np.array(rows[1:])


def record_stretches(mp, log_rows, stride, before, lengths, seed, n=4):
    """Feed the events `before`, then per length a stretch of that many
    rows and three random events: the stretches to one recorder through
    updates_applied, and to a second one and the reference a row at a
    time. All three must agree at the end; returns the first's folds."""
    set_log_rows(mp, log_rows, n)
    bulk, ref = recorders(n, stride, cls=FoldWatch)
    calls, _ = recorders(n, stride)
    rng = np.random.default_rng(seed)
    feed((bulk, calls, ref), before)
    step = len(before)
    for length in lengths:
        params, gamma = stretch_rows(rng, ref.params, length), 0.5 * step
        bulk.updates_applied(params, step, gamma, None)
        for s, row in enumerate(params, step + 1):
            for rec in (calls, ref):
                rec.update_applied(row)
                rec.maybe_snapshot(s, gamma, None)
        step += length
        feed((bulk, calls, ref), random_events(n, 3, seed + step), first_step=step + 1)
        step += 3
    want = ref.finish(step, 1.5, None)
    assert outcome(bulk.finish(step, 1.5, None)) == want
    assert outcome(calls.finish(step, 1.5, None)) == want
    return bulk.folds


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    log_rows=st.sampled_from(LOG_ROWS),
    stride=st.sampled_from([1, 3, 7, 20]),
    before=st.integers(0, 45),
    lengths=st.lists(st.integers(1, 80), min_size=1, max_size=3),
    seed=st.integers(0, 30),
)
def test_bulk_updates_match_per_call_recording(log_rows, stride, before, lengths, seed):
    with pytest.MonkeyPatch.context() as mp:
        folds = record_stretches(mp, log_rows, stride, random_events(4, before, seed), lengths, seed)
    # Each call folds once, at its start: fewer than a block of updates
    # and of snapshots is pending between calls.
    block = DEFAULT_LOG_VALUES // 4 if log_rows is None else log_rows
    assert len(folds) == len(lengths)
    assert all(rows < block and held < block for rows, held in folds)


@pytest.mark.parametrize("stride, before, moving, length, folds", [
    # Updates on every step before the stretch: before % 3 log rows and
    # the snapshots since the last full log block are pending.
    (7, 14, True, 10, [(2, 1)]),
    # The ninth update filled the log block and folded it, snapshot 7 too.
    (7, 9, True, 10, [(0, 0)]),
    (1, 1, True, 10, [(1, 2)]),
    # No updates before it: only snapshots are pending.
    (1, 1, False, 1, [(0, 2)]),
    (3, 4, False, 2, [(0, 2)]),
], ids=["7-14-log", "7-9-log", "1-1-log", "1-1-pending", "3-4-pending"])
def test_bulk_updates_fold_full_blocks(monkeypatch, stride, before, moving, length, folds):
    # With a three-row log block, a stretch no longer fills the log: it
    # folds what is pending before it once, at its start, writes its own
    # stride snapshots' rows straight into the table, and leaves nothing
    # pending (FoldWatch).
    rng = np.random.default_rng(before)
    events = [
        (rng.random(4) if moving else None, None, float(step), None) for step in range(1, before + 1)
    ]
    assert record_stretches(monkeypatch, 3, stride, events, [length], seed=1) == folds


# updates_applied rests on one claim: run_online's update, iterated
# toward one x, moves each component monotonically, and a component that
# does not move at the first step never moves. The edges: 0.0 and 1.0,
# subnormals, the smallest normal, and 1 - k * 2^-53, where a one's
# step p * (1 - alpha1) + alpha1 may round to no move.
MONOTONE_EDGES = [0.0, 5e-324, 2.0**-1050, 2.0**-1022, 0.5, 1.0 - 7 * 2.0**-53, 1.0 - 2.0**-53, 1.0]


@settings(max_examples=200, deadline=None)
@example(starts=MONOTONE_EDGES, alpha1=1.0)
@example(starts=MONOTONE_EDGES, alpha1=0.07)
@example(starts=MONOTONE_EDGES, alpha1=2.0**-54)
@example(starts=MONOTONE_EDGES, alpha1=5e-324)
@given(
    starts=st.lists(
        st.sampled_from(MONOTONE_EDGES)
        | st.integers(1, 2**10).map(lambda k: 1.0 - k * 2.0**-53)
        | st.floats(0.0, 1.0),
        min_size=1, max_size=8,
    ),
    alpha1=st.sampled_from([1.0, 0.07, 2.0**-54]) | st.floats(0.0, 1.0, exclude_min=True),
)
def test_stretch_update_is_monotone(starts, alpha1):
    # Each start once toward x_i = 0 and once toward x_i = 1, 300 steps.
    probs = np.array(starts * 2)
    x = np.repeat([0, 1], len(starts))
    keep, toward = np.full(probs.size, 1.0 - alpha1), np.array([0.0, alpha1]).take
    path = [probs]
    for _ in range(300):
        path.append(path[-1] * keep + toward(x))
    steps = np.diff(np.array(path), axis=0)
    first = np.sign(steps[0])
    # No step goes against the first one's sign, and a component still at
    # the first step stays still.
    assert np.all(steps * first >= 0.0)
    assert not steps[:, first == 0.0].any()


@pytest.mark.parametrize("pending_before", [False, True], ids=["folded", "pending"])
@pytest.mark.parametrize("stride", [1, 7, 100])
def test_stretch_equals_per_call_recording(stride, pending_before):
    # A 300-row stretch at alpha1 = 0.07 from the edge starts, each toward
    # 0 and toward 1, after updates that leave every component's last
    # step with a random sign: one recorder takes it with updates_applied,
    # a second one row at a time with update_applied and, at stride steps,
    # stride_snapshots, as run_online's loop records a step; the
    # reference as well. Before it, 40 updates are either folded (a read
    # of sign_changes) or left pending with their snapshots.
    n, alpha1, before = 2 * len(MONOTONE_EDGES), 0.07, 40
    start = np.array(MONOTONE_EDGES * 2)
    x = np.repeat([0, 1], len(MONOTONE_EDGES))
    bulk, ref = recorders(n, stride)
    calls, _ = recorders(n, stride)
    rng = np.random.default_rng(stride)
    for s in range(1, before + 1):
        row = start if s == before else rng.random(n)
        for rec in (bulk, calls):
            rec.update_applied(row)
            if s % stride == 0:
                rec.stride_snapshots(s, [(float(s), None)])
        ref.update_applied(row)
        ref.maybe_snapshot(s, float(s), None)
    if not pending_before:
        bulk.sign_changes
    assert (bulk._rows > 0) == pending_before
    keep, toward = np.full(n, 1.0 - alpha1), np.array([0.0, alpha1]).take
    rows = [start]
    for _ in range(300):
        rows.append(rows[-1] * keep + toward(x))
    params = np.array(rows[1:])
    bulk.updates_applied(params, before, 2.5, None)
    for s, row in enumerate(params, before + 1):
        calls.update_applied(row)
        if s % stride == 0:
            calls.stride_snapshots(s, [(2.5, None)])
        ref.update_applied(row)
        ref.maybe_snapshot(s, 2.5, None)
    # Some components turn at the stretch's first row, some never move.
    moved = params[0] != start
    assert moved.any() and not moved.all() and max(ref.counts) > 0
    assert bulk.sign_changes.tolist() == calls.sign_changes.tolist() == ref.counts
    assert snapshot_rows(bulk._snapshots) == snapshot_rows(calls._snapshots) == ref.snapshots
    steps = before + len(params)
    want = ref.finish(steps, 2.5, None)
    assert outcome(bulk.finish(steps, 2.5, None)) == outcome(calls.finish(steps, 2.5, None)) == want


# The bulk form of maybe_snapshot: stride_snapshots(step, states) takes
# the snapshots of the last len(states) stride steps up to step, as
# run_online hands them over: at block ends, and before each call that
# changes the recorder's counts or best.

def snapshot_state(step):
    return (None if step % 4 == 0 else 0.5 * step, None if step % 3 else 0.25 * step)


OPS = st.one_of(
    st.tuples(st.just("steps"), st.integers(0, 12)),
    st.tuples(st.just("update"), st.integers(1, 3)),
    st.tuples(st.just("offer"), st.integers(0, 3)),
    st.tuples(st.just("stretch"), st.integers(1, 15)),
    st.tuples(st.sampled_from(["flush", "read"]), st.just(0)),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    log_rows=st.sampled_from(LOG_ROWS),
    table_rows=st.sampled_from([1, 2, 5, None]),
    stride=st.sampled_from([1, 2, 5]),
    ops=st.lists(OPS, max_size=40),
    seed=st.integers(0, 30),
)
def test_bulk_snapshots_match_per_call_recording(log_rows, table_rows, stride, ops, seed):
    # One recorder gets its stride snapshots through stride_snapshots
    # and its stretches through updates_applied; a second one and the
    # reference get one call per step. update_applied, offer_best and
    # updates_applied interleave with them, and the small log, pending
    # and table blocks fill and fold at every kind of edge.
    n = 3
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        set_log_rows(mp, log_rows, n)
        if table_rows is not None:
            mp.setattr(trace_module, "_BLOCK_VALUES", table_rows * n)
        bulk, ref = recorders(n, stride)
        calls, _ = recorders(n, stride)
        states, step = [], 0

        def flush():
            bulk.stride_snapshots(step, states)
            states.clear()

        for op, k in ops:
            if op == "steps":
                for s in range(step + 1, step + k + 1):
                    if s % stride == 0:
                        states.append(snapshot_state(s))
                    for rec in (calls, ref):
                        rec.maybe_snapshot(s, *snapshot_state(s))
                step += k
            elif op == "update":
                flush()
                row = rng.random(n)
                for rec in (bulk, calls, ref):
                    rec.update_applied(row, elites=k)
            elif op == "offer":
                flush()
                offer = (rng.integers(0, 2, n).astype(np.uint8), float(k), step)
                for rec in (bulk, calls, ref):
                    rec.offer_best(*offer)
            elif op == "stretch":
                flush()
                params, gamma = stretch_rows(rng, ref.params, k), 0.5 * step
                bulk.updates_applied(params, step, gamma, None)
                for s, row in enumerate(params, step + 1):
                    for rec in (calls, ref):
                        rec.update_applied(row)
                        rec.maybe_snapshot(s, gamma, None)
                step += k
            elif op == "flush":
                flush()
            else:
                flush()
                assert snapshot_rows(bulk._snapshots) == ref.snapshots
            # Between calls, neither the log nor the pending snapshots hold a full block.
            assert bulk._rows < bulk._log_rows and len(pending(bulk)) < bulk._log_rows
        flush()
        want = ref.finish(step, 1.5, None)
        assert outcome(bulk.finish(step, 1.5, None)) == want
        assert outcome(calls.finish(step, 1.5, None)) == want


def test_bulk_snapshots_fold_full_pending_blocks(monkeypatch):
    # Ten stride steps handed over in one call, after the snapshot of
    # step 0, go pending together and fold at once: one call's
    # snapshots may take the pending count past the three-row block.
    # Later ones refer to log row 0 until the next update.
    n = 2
    set_log_rows(monkeypatch, 3, n)
    rec, ref = recorders(n, stride=2, cls=FoldWatch)
    folds = []
    fold = FoldWatch._fold

    def watched(self):
        folds.append(pending(self))
        fold(self)

    monkeypatch.setattr(FoldWatch, "_fold", watched)
    rec.update_applied(np.array([0.75, 0.25]))
    ref.update_applied(np.array([0.75, 0.25]))
    for s in range(1, 22):
        ref.maybe_snapshot(s, *snapshot_state(s))
    rec.stride_snapshots(21, [snapshot_state(s) for s in range(2, 21, 2)])
    assert folds == [list(range(0, 21, 2))]
    for s in range(22, 26):
        ref.maybe_snapshot(s, *snapshot_state(s))
    rec.stride_snapshots(25, [snapshot_state(22), snapshot_state(24)])
    rec.stride_snapshots(25, [])
    assert len(folds) == 1 and pending(rec) == [22, 24] and pending_rows(rec) == [0, 0]
    assert outcome(rec.finish(25, 1.0, None)) == ref.finish(25, 1.0, None)


@pytest.mark.parametrize("eps_conv", [None, 1e-3])
@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("hook", ["maybe_snapshot", "stride_snapshots"])
@pytest.mark.parametrize("variant", ["window", "memoryless"])
def test_snapshot_hook_sees_every_stride_step(monkeypatch, variant, hook, stride, eps_conv):
    # An online run records its stride snapshots through stride_snapshots
    # under every recorder class, and never calls maybe_snapshot. A class
    # that overrides stride_snapshots alone gets every stride step through
    # it, but those of a settled window's stretches, which updates_applied
    # takes. A class that overrides maybe_snapshot alone gets no call, and
    # still takes its stretches when the window settles. Both runs equal
    # the plain run, also when eps_conv stops them early.
    seen, direct, stretched = [], [], []

    class Overriding(TraceRecorder):
        pass

    def per_step(self, step, gamma, delta):
        seen.append(step)
        TraceRecorder.maybe_snapshot(self, step, gamma, delta)

    def bulk(self, step, states):
        seen.extend(range(step - step % self.stride - (len(states) - 1) * self.stride, step + 1, self.stride))
        TraceRecorder.stride_snapshots(self, step, states)

    setattr(Overriding, hook, per_step if hook == "maybe_snapshot" else bulk)
    base = TraceRecorder.maybe_snapshot

    def spy(self, step, gamma, delta):
        direct.append(step)
        base(self, step, gamma, delta)

    updates_applied = TraceRecorder.updates_applied

    def stretch_spy(self, params, step, gamma, delta):
        stretched.extend(s for s in range(step + 1, step + len(params) + 1) if s % self.stride == 0)
        updates_applied(self, params, step, gamma, delta)

    monkeypatch.setattr(TraceRecorder, "maybe_snapshot", spy)
    monkeypatch.setattr(TraceRecorder, "updates_applied", stretch_spy)
    engine, _ = ENGINES[variant]
    module = window_module if variant == "window" else memoryless
    config = OnlineConfig if variant == "window" else MemorylessConfig
    cfg = config(N=20, rho=0.1, alpha=0.5, K=700, snapshot_stride=stride, eps_conv=eps_conv)
    plain = engine(cfg, OBJECTIVES["trap"], RngStream(4))
    monkeypatch.setattr(module, "TraceRecorder", Overriding)
    # Here eps_conv stops a window run before it settles.
    settles = variant == "window" and eps_conv is None
    assert bool(stretched) == settles
    plain_stretched = stretched[:]
    del direct[:], stretched[:]
    run = engine(cfg, OBJECTIVES["trap"], RngStream(4))
    assert outcome(run) == outcome(plain)
    assert (run.steps < cfg.K) == (eps_conv is not None)
    assert stretched == plain_stretched
    assert direct == []
    if hook == "stride_snapshots":
        assert sorted(seen + stretched) == list(range(stride, run.steps + 1, stride))
        assert len(seen) >= 50 // stride
    else:
        assert seen == []


# Engine-level oracle: each engine against a replay of its pure functions.

OBJECTIVES = {
    "onemax": make_objective(ProblemSpec(kind="onemax", n=5)),
    "trap": make_objective(ProblemSpec(kind="trap_k", n=6, k=3)),
    "leading_ones": make_objective(ProblemSpec(kind="leading_ones", n=4)),
}


def replay_window(cfg, obj, rng):
    params = BernoulliParams.uniform_init(obj.n)
    alpha1 = cfg.alpha / elite_count(cfg.N, cfg.rho)
    rec = ReferenceRecorder("window", params.probs, cfg.snapshot_stride or cfg.N, obj.optimal_value)
    window = SampleWindow(cfg.N)
    gamma, steps = None, 0
    for t in range(cfg.K):
        bits = draw_sample(params, rng)
        value = float(obj.fn(bits))
        window.append(value)
        g, elite = window_step(window, value, cfg.rho)
        gamma = gamma if g is None else g
        rec.offer_best(bits, value, t)
        if elite:
            params = online_update(bits, params, alpha1)
            rec.update_applied(params.probs)
        steps = t + 1
        rec.maybe_snapshot(steps, gamma, None)
        if cfg.eps_conv is not None and elite and is_binary_converged(params, cfg.eps_conv):
            break
    return rec.finish(steps, gamma, None)


def replay_memoryless(cfg, obj, rng):
    params = BernoulliParams.uniform_init(obj.n)
    alpha1 = cfg.alpha / elite_count(cfg.N, cfg.rho)
    rec = ReferenceRecorder("memoryless", params.probs, cfg.snapshot_stride or cfg.N, obj.optimal_value)
    state, steps = None, 0
    for t in range(cfg.K):
        bits = draw_sample(params, rng)
        value = float(obj.fn(bits))
        if state is None:
            state = cfg.initial_state(value if cfg.gamma0 is None else cfg.gamma0)
        rec.offer_best(bits, value, t)
        elite = value >= state.gamma
        if elite:
            params = online_update(bits, params, alpha1)
            rec.update_applied(params.probs)
        state = threshold_step(state, elite, cfg.rho)
        if state.estimator != "constant":
            state = delta_update(state, value)
        steps = t + 1
        rec.maybe_snapshot(steps, state.gamma, state.delta)
        if cfg.eps_conv is not None and elite and is_binary_converged(params, cfg.eps_conv):
            break
    return rec.finish(steps, state.gamma, state.delta)


def replay_batch(cfg, obj, rng):
    params = BernoulliParams.uniform_init(obj.n)
    n_b = elite_count(cfg.N, cfg.rho)
    rec = ReferenceRecorder("batch", params.probs, cfg.N, obj.optimal_value)
    gamma, steps = None, 0
    for _ in range(cfg.T):
        bits = (rng.random((cfg.N, obj.n)) < params.probs).astype(np.uint8)
        values = obj.evaluate_many(bits)
        order = np.lexsort((np.arange(cfg.N), -values))
        gamma = float(values[order[n_b - 1]])
        params = batch_update([bits[i] for i in order[:n_b]], params, cfg.alpha, n_b)
        top = int(order[0])
        rec.offer_best(bits[top], float(values[top]), steps + top)
        rec.update_applied(params.probs, elites=n_b)
        steps += cfg.N
        rec.maybe_snapshot(steps, gamma, None)
        if cfg.eps_conv is not None and is_binary_converged(params, cfg.eps_conv):
            break
    return rec.finish(steps, gamma, None)


ENGINES = {
    "window": (run_online_window, replay_window),
    "memoryless": (run_memoryless, replay_memoryless),
    "batch": (run_batch, replay_batch),
}


@st.composite
def engine_cases(draw):
    variant = draw(st.sampled_from(sorted(ENGINES)))
    obj = draw(st.sampled_from(sorted(OBJECTIVES)))
    rho = draw(st.sampled_from([0.1, 0.2, 0.3]))
    N = draw(st.integers(11, 30))
    alpha = draw(st.sampled_from([0.2, 0.5, 0.9]))
    eps = draw(st.sampled_from([None, 0.05]))
    if variant == "batch":
        cfg = BatchConfig(N=N, rho=rho, alpha=alpha, T=draw(st.integers(1, 12)), eps_conv=eps)
    else:
        common = dict(
            N=N, rho=rho, alpha=alpha, K=draw(st.integers(1, 300)), eps_conv=eps,
            snapshot_stride=draw(st.sampled_from([None, 1, 3])),
        )
        if variant == "window":
            cfg = OnlineConfig(**common)
        else:
            cfg = MemorylessConfig(
                **common, estimator=draw(st.sampled_from(["gauss_model", "uniform_model", "constant"])),
                delta0=0.5 if common["eps_conv"] is None else 0.3,
                gamma0=draw(st.one_of(st.none(), st.floats(-1.0, 6.0))),
                delta_min=draw(st.sampled_from([0.0, 0.05, 0.3])),
                beta=draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])),
            )
    return variant, obj, cfg, draw(st.sampled_from(LOG_ROWS)), draw(st.integers(0, 50))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=engine_cases())
def test_engines_match_pure_function_replay(case):
    variant, obj_name, cfg, rows, seed = case
    obj = OBJECTIVES[obj_name]
    engine, replay = ENGINES[variant]
    with pytest.MonkeyPatch.context() as mp:
        set_log_rows(mp, rows, obj.n)
        run = engine(cfg, obj, RngStream(seed))
    assert outcome(run) == replay(cfg, obj, RngStream(seed))
    for block in run.snapshots.param_blocks():
        assert np.all((block >= 0.0) & (block <= 1.0))
    assert analyze(run, obj).envelope_violations == 0


# Edges the strategy above never reaches: alpha1 = 1, so none of the old
# parameters is kept (ceil(rho*N) = 1, which memoryless rejects); one row
# per draw block and per log block (n = 8200); K shorter than one draw
# block.
EDGE_CASES = {
    "alpha1_one": (OBJECTIVES["trap"], dict(N=5, rho=0.1, alpha=1.0, K=200, snapshot_stride=1)),
    "one_row_blocks": (make_objective(ProblemSpec(kind="onemax", n=8200)),
                       dict(N=20, rho=0.1, alpha=0.5, K=150)),
    "K_within_one_block": (OBJECTIVES["onemax"], dict(N=20, rho=0.1, alpha=0.5, K=150, snapshot_stride=3)),
}


@pytest.mark.parametrize("case, variant", [
    ("alpha1_one", "window"),
    ("one_row_blocks", "window"),
    ("one_row_blocks", "memoryless"),
    ("K_within_one_block", "window"),
    ("K_within_one_block", "memoryless"),
])
def test_engine_edges_match_pure_function_replay(case, variant):
    obj, settings = EDGE_CASES[case]
    cfg = OnlineConfig(**settings) if variant == "window" else MemorylessConfig(**settings)
    draw_rows = max(1, model_module._DRAW_BLOCK_VALUES // obj.n)
    if case == "alpha1_one":
        assert cfg.alpha1 == 1.0
    elif case == "one_row_blocks":
        assert draw_rows == max(1, DEFAULT_LOG_VALUES // obj.n) == 1
    else:
        assert cfg.K < draw_rows
    engine, replay = ENGINES[variant]
    run = engine(cfg, obj, RngStream(7))
    assert run.steps == cfg.K and run.update_count > 0
    assert outcome(run) == replay(cfg, obj, RngStream(7))


# An objective whose values are 0.0 or -0.0, by the parity of the ones.
# The two compare equal, so every sample is elite and only the window's
# sorted index, which keeps equal values in arrival order, decides which
# zero is the threshold. No CLI objective produces -0.0.
SIGNED_ZEROS = Objective(name="signed_zeros", n=6, fn=lambda bits: -0.0 if int(bits.sum()) % 2 else 0.0)


@pytest.mark.parametrize("stride", [None, 1])
def test_window_on_signed_zeros_matches_replay(stride):
    cfg = OnlineConfig(N=20, rho=0.1, alpha=0.05, K=400, snapshot_stride=stride)
    run = run_online_window(cfg, SIGNED_ZEROS, RngStream(5))
    ref = replay_window(cfg, SIGNED_ZEROS, RngStream(5))
    assert outcome(run) == ref
    # == cannot tell 0.0 from -0.0; repr can.
    gammas = [repr(s.gamma) for s in run.snapshots]
    assert gammas == [repr(row[1]) for row in ref[-1]]
    assert repr(run.gamma_final) == repr(ref[6])
    if stride == 1:
        assert {"0.0", "-0.0"} <= set(gammas)


# Settled window runs: once the window holds N copies of one nonzero
# value and the last step was elite, run_online finishes draw blocks in
# stretches (TraceRecorder.updates_applied), whether or not the ones of
# the last elite row have reached their fixed points.

TRAP_5_10 = make_objective(ProblemSpec(kind="trap_k", n=10, k=5))


def watch_window(mp):
    """(step, rows) of every updates_applied call, and a one-item list
    counting SampleWindow.threshold calls, for window runs started after."""
    stretches, thresholds = [], [0]
    updates_applied = TraceRecorder.updates_applied

    def spy(self, params, step, gamma, delta):
        stretches.append((step, len(params)))
        updates_applied(self, params, step, gamma, delta)

    class CountingWindow(SampleWindow):
        def threshold(self, rho):
            thresholds[0] += 1
            return SampleWindow.threshold(self, rho)

    mp.setattr(TraceRecorder, "updates_applied", spy)
    mp.setattr(window_module, "SampleWindow", CountingWindow)
    return stretches, thresholds


def ends_at(stretches, step):
    """True if a stretch ended right before `step`."""
    return any(first + rows == step for first, rows in stretches)


def watch_attempts(mp):
    """(probs, x, alpha1, m) of every settled-stretch attempt of the runs
    started after: the parameters and row it starts from, and the rows
    it takes."""
    attempts = []
    settled_stretch = model_module._settled_stretch

    def spy(u, probs, x, keep, alpha1, eps):
        params, m, absorbed = settled_stretch(u, probs, x, keep, alpha1, eps)
        attempts.append((probs.copy(), x.copy(), alpha1, m))
        return params, m, absorbed

    mp.setattr(model_module, "_settled_stretch", spy)
    return attempts


def creeping_rows(attempts):
    """Rows taken by stretches that start while a one of x still moves:
    p*(1 - alpha1) + alpha1 != p."""
    return sum(
        m for probs, x, alpha1, m in attempts
        if (probs[x == 1] * (1.0 - alpha1) + alpha1 != probs[x == 1]).any()
    )


# Seed 0 settles on the all-zero row, seed 3 on a row whose ones stall at
# 1 - 5 * 2^-53.
@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("stride", [None, 1])
def test_settled_window_matches_replay(monkeypatch, stride, seed):
    cfg = OnlineConfig(N=100, rho=0.1, alpha=0.9, K=5000, snapshot_stride=stride)
    stretches, thresholds = watch_window(monkeypatch)
    run = run_online_window(cfg, TRAP_5_10, RngStream(seed))
    assert outcome(run) == replay_window(cfg, TRAP_5_10, RngStream(seed))
    # Every post-warm-up step is a threshold call or a stretch row, and
    # most of them are stretch rows.
    bulk = sum(rows for _, rows in stretches)
    assert thresholds[0] + bulk == cfg.K - cfg.N and thresholds[0] < bulk // 5
    high = run.final_params.probs[run.final_params.probs > 0.5]
    assert high.size == (5 if seed == 3 else 0) and np.all(high == 1.0 - 5 * 2.0**-53)


def test_settled_window_below_one_matches_replay(monkeypatch):
    # A maxcut_20 shaped like the CLI benchmark's: at alpha1 = 0.07 the
    # ones stall at 1 - 7 * 2^-53, a fixed point below 1.
    pairs = [(i, j) for i in range(20) for j in range(i + 1, 20)]
    edges = [pairs[k] for k in np.random.default_rng(20).choice(len(pairs), 60, replace=False)]
    obj = make_objective(ProblemSpec(kind="maxcut", n=20, edges=tuple(sorted(edges))))
    cfg = OnlineConfig(N=100, rho=0.1, alpha=0.7, K=3000, snapshot_stride=1)
    stretches, thresholds = watch_window(monkeypatch)
    attempts = watch_attempts(monkeypatch)
    run = run_online_window(cfg, obj, RngStream(1))
    assert outcome(run) == replay_window(cfg, obj, RngStream(1))
    # Stretches that waited for the ones' fixed points took 1878 rows here.
    assert sum(rows for _, rows in stretches) > 1878 + 250
    assert creeping_rows(attempts) > 250
    high = run.final_params.probs[run.final_params.probs > 0.5]
    assert high.size and np.all(high == 1.0 - 7 * 2.0**-53)


# trap_5_10's seed-1 run at alpha 0.2 settles on x = 0000011111 at step
# 1530, while its ones still sit about 4.5e-6 below 1; they reach their
# fixed points about 1100 steps later.
@pytest.mark.parametrize("stride", [None, 1])
def test_creeping_window_matches_replay(monkeypatch, stride):
    cfg = OnlineConfig(N=100, rho=0.1, alpha=0.2, K=5000, snapshot_stride=stride)
    stretches, thresholds = watch_window(monkeypatch)
    attempts = watch_attempts(monkeypatch)
    run = run_online_window(cfg, TRAP_5_10, RngStream(1))
    assert outcome(run) == replay_window(cfg, TRAP_5_10, RngStream(1))
    bulk = sum(rows for _, rows in stretches)
    assert thresholds[0] + bulk == cfg.K - cfg.N and bulk > 3400
    assert stretches[0][0] == 1530 and creeping_rows(attempts) > 1000


ONEMAX_100 = make_objective(ProblemSpec(kind="onemax", n=100))


# onemax_100's seed-1 run at alpha 0.2 is wide: a draw block holds ten
# rows. It first settles at step 3180, and each stretch that takes its
# whole block doubles the next one, up to 163 rows
# (_SETTLED_BLOCK_VALUES // n), so 17 stretches take its 1717 stretch
# rows, most with dozens of ones still creeping.
@pytest.mark.parametrize("stride", [None, 1])
def test_wide_creeping_window_matches_replay(monkeypatch, stride):
    cfg = OnlineConfig(N=100, rho=0.1, alpha=0.2, K=5000, snapshot_stride=stride)
    stretches, thresholds = watch_window(monkeypatch)
    attempts = watch_attempts(monkeypatch)
    run = run_online_window(cfg, ONEMAX_100, RngStream(1))
    assert outcome(run) == replay_window(cfg, ONEMAX_100, RngStream(1))
    bulk = sum(rows for _, rows in stretches)
    assert thresholds[0] + bulk == cfg.K - cfg.N and bulk > 1500
    cap = model_module._SETTLED_BLOCK_VALUES // ONEMAX_100.n
    assert stretches[0] == (3180, 10) and max(rows for _, rows in stretches) == cap
    assert len(attempts) < 30 and creeping_rows(attempts) > 1000


def test_eps_conv_stop_inside_a_stretch(monkeypatch):
    # The zeros fall below eps = 1e-60 in the middle of a draw block.
    cfg = OnlineConfig(N=100, rho=0.1, alpha=0.9, K=5000, eps_conv=1e-60)
    stretches, _ = watch_window(monkeypatch)
    run = run_online_window(cfg, TRAP_5_10, RngStream(0))
    assert outcome(run) == replay_window(cfg, TRAP_5_10, RngStream(0))
    draw_rows = model_module._DRAW_BLOCK_VALUES // TRAP_5_10.n
    assert run.steps < cfg.K and (run.steps - cfg.N) % draw_rows
    assert ends_at(stretches, run.steps)


class PatchedStream(RngStream):
    """RngStream with the uniforms at given positions of its flat
    sequence replaced, however the draws are blocked."""

    def __init__(self, seed, patches):
        super().__init__(seed)
        self.patches, self.drawn = patches, 0

    def random(self, size=None):
        u = super().random(size)
        flat = u.reshape(-1)
        for at, value in self.patches.items():
            if 0 <= at - self.drawn < flat.size:
                flat[at - self.drawn] = value
        self.drawn += flat.size
        return u


# Scores only its first five bits, as trap_k with n = k = 5.
TRAP_5 = make_objective(ProblemSpec(kind="trap_k", n=5, k=5))
BLIND_5_10 = Objective(name="blind_5_10", n=10, fn=lambda bits: TRAP_5.fn(bits[:5]))


# At alpha 0.9, trap_5_10's seed-3 run is settled at x = 1111100000 from
# step 714 on, and step 1774 is row 40 of a stretch. The largest float
# below 1 draws a 0 at a one stalled below 1; 0.0 draws a 1 at a zero
# still above 0. blind_5_10's seed-1 run is settled at x = 0000001111
# there, and a 1 at bit 5 leaves the value as it was: only the draw check
# sees that row. At alpha 0.2, trap_5_10's seed-1 run is settled at
# x = 0000011111 from step 1530 on, and step 1570 is row 40 of a stretch
# in which bit 6 still climbs toward 1.
@pytest.mark.parametrize("obj, alpha, seed, at, component, u", [
    (TRAP_5_10, 0.9, 3, 1774, 2, np.nextafter(1.0, 0.0)),
    (TRAP_5_10, 0.9, 3, 1774, 7, 0.0),
    (BLIND_5_10, 0.9, 1, 1774, 5, 0.0),
    (TRAP_5_10, 0.2, 1, 1570, 6, np.nextafter(1.0, 0.0)),
], ids=["high", "low", "same_value", "moving"])
def test_patched_uniform_breaks_a_stretch(monkeypatch, obj, alpha, seed, at, component, u):
    cfg = OnlineConfig(N=100, rho=0.1, alpha=alpha, K=5000)
    patches = {at * obj.n + component: u}
    stretches, _ = watch_window(monkeypatch)
    run = run_online_window(cfg, obj, PatchedStream(seed, patches))
    assert outcome(run) == replay_window(cfg, obj, PatchedStream(seed, patches))
    assert ends_at(stretches, at) and any(first > at for first, _ in stretches)


def test_settled_blocks_double_up_to_the_cap(monkeypatch):
    # The "high" run above at K = 20000: a stretch that takes its whole
    # block doubles the next block, up to _SETTLED_BLOCK_VALUES // n rows.
    # The patched uniform breaks the stretch of a doubled block at step
    # 1774, the next block drops back to a draw block's rows, and the
    # doubling starts over until the cap, which later stretches keep.
    cfg = OnlineConfig(N=100, rho=0.1, alpha=0.9, K=20000)
    patches = {1774 * TRAP_5_10.n + 2: np.nextafter(1.0, 0.0)}
    events = []

    class Blocks(PatchedStream):
        def random(self, size=None):
            events.append(("block", size[0]))
            return PatchedStream.random(self, size)

    settled_stretch = model_module._settled_stretch

    def spy(u, *args):
        params, m, absorbed = settled_stretch(u, *args)
        events.append(("stretch", m))
        return params, m, absorbed

    monkeypatch.setattr(model_module, "_settled_stretch", spy)
    run = run_online_window(cfg, TRAP_5_10, Blocks(3, patches))
    assert outcome(run) == replay_window(cfg, TRAP_5_10, PatchedStream(3, patches))
    block = model_module._DRAW_BLOCK_VALUES // TRAP_5_10.n
    cap = model_module._SETTLED_BLOCK_VALUES // TRAP_5_10.n
    want, t = block, 0
    for kind, k in events:
        if kind == "block":
            assert k == min(want, cfg.K - t)
            size, want, t = k, block, t + k
        else:
            want = min(2 * size, cap) if k == size else block
    assert t == cfg.K and ("block", cap) in events
    # The break: 550 rows of an 816-row block.
    assert events[events.index(("stretch", 550)) - 1 :][:3] == [("block", 816), ("stretch", 550), ("block", block)]


@pytest.mark.parametrize("below, breaks", [(False, True), (True, False)], ids=["at", "below"])
def test_moving_one_drawn_against_its_own_path(monkeypatch, below, breaks):
    # Step 1570 of the alpha-0.2 run above: bit 6 is then well above its
    # value at the stretch's start. A uniform equal to its parameter at
    # that step draws a 0 and breaks the stretch there; the float just
    # below draws the 1 of x, and the stretch goes on.
    cfg = OnlineConfig(N=100, rho=0.1, alpha=0.2, K=5000, snapshot_stride=1)
    at, component = 1570, 6
    snapshots = run_online_window(cfg, TRAP_5_10, RngStream(1)).snapshots
    p = snapshots[at].params[component]
    assert np.nextafter(p, 0.0) > snapshots[1530].params[component]
    patches = {at * TRAP_5_10.n + component: np.nextafter(p, 0.0) if below else p}
    stretches, _ = watch_window(monkeypatch)
    run = run_online_window(cfg, TRAP_5_10, PatchedStream(1, patches))
    assert outcome(run) == replay_window(cfg, TRAP_5_10, PatchedStream(1, patches))
    assert ends_at(stretches, at) == breaks
    assert any(first < at < first + rows for first, rows in stretches) == (not breaks)


@pytest.mark.parametrize("alpha, seed", [(0.9, 3), (0.2, 1)])
def test_stretch_rows_call_no_fn(monkeypatch, alpha, seed):
    # fn is called on the first draw of each row outside a stretch, and
    # on no other step: stretch rows and repeated rows (the run's value
    # memo) take no call. The rows replayed with draw_sample show that
    # the calls, the memo hits and the stretches tile the run's steps in
    # order.
    cfg = OnlineConfig(N=100, rho=0.1, alpha=alpha, K=5000)
    events = []
    updates_applied = TraceRecorder.updates_applied

    def spy(self, params, step, gamma, delta):
        events.append((step, len(params)))
        updates_applied(self, params, step, gamma, delta)

    def fn(bits):
        events.append(bits.tobytes())
        return TRAP_5_10.fn(bits)

    monkeypatch.setattr(TraceRecorder, "updates_applied", spy)
    obj = Objective("counted", TRAP_5_10.n, fn, None, TRAP_5_10.optimal_bits, TRAP_5_10.optimal_value)
    run = run_online_window(cfg, obj, RngStream(seed))
    rows = []

    def drawn(bits):
        rows.append(bits.tobytes())
        return TRAP_5_10.fn(bits)

    replayed = Objective("drawn", TRAP_5_10.n, drawn, None, TRAP_5_10.optimal_bits, TRAP_5_10.optimal_value)
    assert outcome(run) == replay_window(cfg, replayed, RngStream(seed))
    seen, steps, t = set(), [], 0
    for event in events:
        if isinstance(event, bytes):
            # The steps before a call repeat rows already seen: memo hits.
            while rows[t] in seen:
                steps.append("hit")
                t += 1
            assert event == rows[t]
            seen.add(event)
            steps.append("call")
            t += 1
        else:
            first, m = event
            while t < first:
                assert rows[t] in seen
                steps.append("hit")
                t += 1
            assert t == first and rows[t : t + m] == [rows[t - 1]] * m
            steps += ["stretch"] * m
            t += m
    steps += ["hit"] * (len(rows) - t)
    assert all(row in seen for row in rows[t:])
    assert len(steps) == run.steps == cfg.K
    assert steps.count("call") == len(seen) < cfg.K // 2
    assert steps.count("hit") > 0 and steps.count("stretch") > 0


# alpha1 = 2^-54 rounds 1 - alpha1 to 1.0, so a one at 0.5 stays put;
# 1.0 is a start a one can reach with keep = 0.0.
EDGE_STARTS = [0.5, 1.0 - 2.0**-53, 1.0]


@settings(max_examples=60, deadline=None)
@example(starts=EDGE_STARTS, zeros=[0.3], alpha1=1.0, rows=70)
@example(starts=EDGE_STARTS, zeros=[0.3], alpha1=0.07, rows=70)
@example(starts=EDGE_STARTS, zeros=[0.3], alpha1=5e-16, rows=70)
@example(starts=EDGE_STARTS, zeros=[0.3], alpha1=2.0**-54, rows=70)
@given(
    starts=st.lists(
        st.sampled_from(EDGE_STARTS) | st.floats(2.0**-60, 1.0),
        min_size=1, max_size=6,
    ),
    zeros=st.lists(st.floats(0.0, 0.999), max_size=3),
    alpha1=st.sampled_from([1.0, 0.07, 5e-16, 2.0**-54]) | st.floats(2.0**-60, 1.0),
    rows=st.integers(1, 70),
)
def test_stretch_path_equals_numpy_update(starts, zeros, alpha1, rows):
    # The ones' paths, worked out with Python floats, and the zeros'
    # accumulated products equal run_online's update row after row, bit
    # for bit. Uniforms of 0.0 at the ones and just below 1 at the zeros
    # draw x on every row, so the whole block is taken.
    probs = np.array(starts + zeros)
    x = np.array([1] * len(starts) + [0] * len(zeros), dtype=np.uint8)
    keep = np.full(probs.size, 1.0 - alpha1)
    u = np.tile(np.where(x == 1, 0.0, np.nextafter(1.0, 0.0)), (rows, 1))
    params, m, absorbed = model_module._settled_stretch(u, probs, x, keep, alpha1, None)
    assert m == rows and not absorbed
    toward = np.array([0.0, alpha1]).take
    expected = [probs]
    for _ in range(rows):
        expected.append(expected[-1] * keep + toward(x))
    assert params[: rows + 1].tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("variant", ["batch", "window", "memoryless", "window_settled"])
def test_engines_build_their_module_recorder_and_window(monkeypatch, variant):
    # A run takes TraceRecorder (and the window engine SampleWindow) from
    # its engine module's namespace at call time, so a stand-in bound
    # there sees every event of the run; timing tools rely on it. The
    # recorder overrides its bulk hook too, so stretches stay on.
    calls = {"finish": 0, "updates": 0, "bulk": 0, "threshold": 0}

    class CountingRecorder(TraceRecorder):
        def update_applied(self, new_params, elites=1):
            calls["updates"] += 1
            TraceRecorder.update_applied(self, new_params, elites)

        def updates_applied(self, params, step, gamma, delta):
            calls["bulk"] += len(params)
            TraceRecorder.updates_applied(self, params, step, gamma, delta)

        def finish(self, steps, gamma, delta):
            calls["finish"] += 1
            return TraceRecorder.finish(self, steps, gamma, delta)

    class CountingWindow(SampleWindow):
        def threshold(self, rho):
            calls["threshold"] += 1
            return SampleWindow.threshold(self, rho)

    engine = variant.removesuffix("_settled")
    engine_module = {"batch": batch, "window": window_module, "memoryless": memoryless}[engine]
    monkeypatch.setattr(engine_module, "TraceRecorder", CountingRecorder)
    monkeypatch.setattr(window_module, "SampleWindow", CountingWindow)
    N, K = 20, 150
    cfg = {
        "batch": BatchConfig(N=N, rho=0.1, alpha=0.5, T=5),
        "window": OnlineConfig(N=N, rho=0.1, alpha=0.5, K=K),
        "memoryless": MemorylessConfig(N=N, rho=0.1, alpha=0.5, K=K),
        # Long enough to settle on the all-ones row: most steps are stretch rows.
        "window_settled": OnlineConfig(N=N, rho=0.1, alpha=0.5, K=1000),
    }[variant]
    run = ENGINES[engine][0](cfg, OBJECTIVES["onemax"], RngStream(3))
    assert calls["finish"] == 1
    assert calls["updates"] + calls["bulk"] == run.update_count > 0
    # Each post-warm-up window step is a threshold call or a stretch row.
    assert calls["threshold"] + calls["bulk"] == (cfg.K - N if engine == "window" else 0)
    assert (calls["bulk"] > run.steps // 2) == (variant == "window_settled")


@pytest.mark.parametrize("stand_in", ["recorder", "window"])
def test_per_step_stand_in_takes_no_stretch(monkeypatch, stand_in):
    # The recorder alone decides whether a run takes stretches. A recorder
    # that overrides per-step hooks and not their bulk form, as a timing
    # tool's may, sees one call per update: the run takes no stretch. A
    # window stand-in beside the plain recorder changes nothing: the run
    # takes its stretches. Either way the outcome is the plain run's.
    cfg = OnlineConfig(N=100, rho=0.1, alpha=0.9, K=5000)
    plain = run_online_window(cfg, TRAP_5_10, RngStream(3))
    calls = {"updates": 0, "threshold": 0, "bulk": 0}
    updates_applied = TraceRecorder.updates_applied

    def spy(self, params, step, gamma, delta):
        calls["bulk"] += len(params)
        updates_applied(self, params, step, gamma, delta)

    class CountingRecorder(TraceRecorder):
        def update_applied(self, new_params, elites=1):
            calls["updates"] += 1
            TraceRecorder.update_applied(self, new_params, elites)

    class CountingWindow(SampleWindow):
        def threshold(self, rho):
            calls["threshold"] += 1
            return SampleWindow.threshold(self, rho)

    monkeypatch.setattr(TraceRecorder, "updates_applied", spy)
    if stand_in == "recorder":
        monkeypatch.setattr(window_module, "TraceRecorder", CountingRecorder)
    else:
        monkeypatch.setattr(window_module, "SampleWindow", CountingWindow)
    run = run_online_window(cfg, TRAP_5_10, RngStream(3))
    assert outcome(run) == outcome(plain)
    if stand_in == "recorder":
        assert calls["bulk"] == 0
        assert calls["updates"] == run.update_count > (cfg.K - cfg.N) // 2
    else:
        # Every post-warm-up step is a threshold call or a stretch row,
        # and most of them are stretch rows.
        assert calls["threshold"] + calls["bulk"] == cfg.K - cfg.N
        assert calls["bulk"] > (cfg.K - cfg.N) // 2


def test_bulk_covers():
    class Base:
        def bulk(self): ...
        def step(self): ...

    class Step(Base):
        def step(self): ...

    class Both(Step):
        def bulk(self): ...

    class Below(Both): ...

    for cls, covered in ((Base, True), (Step, False), (Both, True), (Below, True)):
        assert model_module.bulk_covers(cls, "bulk", "step") is covered
