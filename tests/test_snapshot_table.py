"""Column storage of trace snapshots: the SnapshotTable contract."""

import numpy as np
import pytest

from cemkit import BernoulliParams, SnapshotTable, TraceRecorder, TraceSnapshot
from cemkit import trace as trace_module

FIELDS = ("step", "gamma", "delta", "best_value", "update_count", "elite_decisions")


@pytest.fixture(autouse=True)
def small_blocks(monkeypatch):
    """Four snapshots per block at n=3, so short runs span many blocks."""
    monkeypatch.setattr(trace_module, "_BLOCK_VALUES", 12)


def _recorder(p0, stride=1):
    return TraceRecorder(
        variant="test", params0=BernoulliParams(np.asarray(p0, dtype=float)),
        rho=0.1, alpha=0.5, alpha1=0.5, snapshot_stride=stride, optimal_value=9.0,
    )


def _drive(rec, steps, rng):
    """Feed a recorder updates, best offers and snapshots; return the
    TraceSnapshots its state implies at each snapshot, and the last params."""
    params = rec.p0.probs.copy()
    expected = [TraceSnapshot(0, params.copy(), None, None, None, 0, np.zeros(params.size, np.int64), 0)]
    for step in range(1, steps + 1):
        if step % 3:
            params = rng.uniform(size=params.size)
            rec.update_applied(params, elites=step % 4 + 1)
        if step % 5 == 0:
            rec.offer_best(np.ones(params.size, np.uint8), float(step % 11), step - 1)
        gamma = None if step % 4 == 0 else 0.5 * step
        delta = None if step % 2 else 0.25 * step
        rec.maybe_snapshot(step, gamma, delta)
        if step % rec.stride == 0:
            best = None if rec.best is None else rec.best.value
            expected.append(TraceSnapshot(
                step, params.copy(), gamma, delta, best, rec.update_count,
                rec.sign_changes.copy(), rec.elite_decisions,
            ))
    return expected, params


def _assert_same(got, want):
    for f in FIELDS:
        assert getattr(got, f) == getattr(want, f), f
        assert (getattr(got, f) is None) == (getattr(want, f) is None), f
    assert np.array_equal(got.params, want.params)
    assert got.params.dtype == np.float64
    assert np.array_equal(got.sign_changes, want.sign_changes)
    assert got.sign_changes.dtype == np.int64


@pytest.mark.parametrize("stride", [1, 3])
def test_recorder_matches_snapshot_list_across_blocks(stride):
    rec = _recorder([0.5, 0.2, 0.9], stride=stride)
    expected, params = _drive(rec, 400, np.random.default_rng(1))
    trace = rec.finish(400, gamma=1.0, delta=None)
    if 400 % stride:
        expected.append(TraceSnapshot(400, params, 1.0, None, rec.best.value, rec.update_count,
                                      rec.sign_changes.copy(), rec.elite_decisions))
    snaps = trace.snapshots
    assert snaps.block_rows == 4 and len(snaps) == len(expected) > 100
    for got, want in zip(snaps, expected):
        _assert_same(got, want)
    _assert_same(snaps[-1], expected[-1])
    _assert_same(snaps[-len(expected)], expected[0])
    assert [s.step for s in snaps] == [s.step for s in expected]
    assert snaps.step == tuple(s.step for s in expected)
    assert np.array_equal(np.concatenate(snaps.param_blocks()), np.stack([s.params for s in expected]))
    assert np.array_equal(trace.final_params.probs, expected[-1].params)
    with pytest.raises(IndexError):
        snaps[len(expected)]


def test_table_adds_blocks_and_keeps_every_row():
    count = 4 * 6 + 1
    table = SnapshotTable(3)
    rows = [np.array([i, -i, 0.5], dtype=float) for i in range(count)]
    for i, row in enumerate(rows):
        # A row's scalars come first; it counts once its arrays are written.
        for name, value in zip(FIELDS, (i, None, float(i), None, i, 3 * i)):
            getattr(table, name).append(value)
        assert len(table) == i
        table.extend(row[None], np.array([[i, 2 * i, 0]]))
    assert len(table) == count
    blocks = table.param_blocks()
    assert [len(b) for b in blocks] == [4] * 6 + [1]
    assert np.array_equal(np.concatenate(blocks), np.stack(rows))
    assert [s.sign_changes[1] for s in table] == [2 * i for i in range(count)]
    assert [s.delta for s in table] == [float(i) for i in range(count)]
    assert table[-1].gamma is None and table[-1].elite_decisions == 3 * (count - 1)
    assert table[5].step == 5 and table[-count].best_value is None
    assert np.array_equal(table[9].params, rows[9])


def test_sealed_arrays_are_read_only():
    rec = _recorder([0.5, 0.5])
    rec.update_applied(np.array([0.6, 0.4]))
    rec.maybe_snapshot(1, gamma=None, delta=None)
    trace = rec.finish(1, gamma=None, delta=None)
    first = trace.snapshots[0]
    with pytest.raises(ValueError):
        first.params[0] = 0.9
    with pytest.raises(ValueError):
        first.sign_changes[0] = 5
    with pytest.raises(ValueError):
        trace.snapshots.param_blocks()[0][1, 1] = 0.0
    assert np.array_equal(first.params, [0.5, 0.5])


def test_live_rows_are_read_only_and_survive_new_blocks():
    rec = _recorder([0.5])
    rec.maybe_snapshot(1, gamma=None, delta=None)
    early = rec._snapshots[0]
    with pytest.raises(ValueError):
        early.params[0] = 0.1
    for step in range(2, 200):
        rec.update_applied(np.array([step / 300]))
        rec.maybe_snapshot(step, gamma=None, delta=None)
    assert early.params[0] == 0.5
    assert rec._snapshots[0].params[0] == 0.5


def test_sealed_trace_ignores_later_recording():
    rec = _recorder([0.5, 0.5])
    rec.update_applied(np.array([0.6, 0.4]))
    rec.maybe_snapshot(1, gamma=2.0, delta=None)
    trace = rec.finish(1, gamma=2.0, delta=None)
    before = [(s.step, s.gamma, s.update_count, s.params.copy(), s.sign_changes.copy())
              for s in trace.snapshots]
    blocks_before = [b.copy() for b in trace.snapshots.param_blocks()]
    for step in range(2, 200):
        rec.update_applied(np.array([0.6, 0.4]) if step % 2 else np.array([0.5, 0.5]))
        rec.maybe_snapshot(step, gamma=float(step), delta=1.0)
    rec.finish(200, gamma=0.0, delta=1.0)
    after = list(trace.snapshots)
    assert len(after) == len(before) == 2
    for (step, gamma, count, params, signs), snap in zip(before, after):
        assert (snap.step, snap.gamma, snap.update_count) == (step, gamma, count)
        assert np.array_equal(snap.params, params)
        assert np.array_equal(snap.sign_changes, signs)
    assert trace.final_params.probs.tolist() == [0.6, 0.4]
    blocks_after = trace.snapshots.param_blocks()
    assert len(blocks_after) == len(blocks_before) == 1
    assert np.array_equal(blocks_after[0], blocks_before[0])


def test_slices_and_out_of_range_indices():
    # A slice gives a list of TraceSnapshots, as a Sequence does; an index
    # out of range raises an IndexError naming it and the snapshot count.
    rec = _recorder([0.5, 0.2, 0.9])
    expected, _ = _drive(rec, 30, np.random.default_rng(2))
    snaps = rec.finish(30, gamma=None, delta=None).snapshots
    assert len(snaps) == len(expected) == 31
    for part in (slice(1, 3), slice(None, None, -4), slice(-5, None), slice(3, 29, 5), slice(40, 50)):
        got, want = snaps[part], expected[part]
        assert isinstance(got, list) and len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    assert [s.step for s in rec._snapshots[1:3]] == [1, 2]
    for i in (31, -32, 100):
        with pytest.raises(IndexError, match=f"^snapshot index {i} out of range for 31 snapshots$"):
            snaps[i]
