"""Trace recording: sign-change accounting, best-so-far, snapshots."""

import numpy as np
import pytest

from cemkit import (
    BernoulliParams,
    OnlineConfig,
    ProblemSpec,
    RngStream,
    TraceRecorder,
    make_objective,
    run_online_window,
)


def _recorder(p0, stride=1, optimal_value=None):
    return TraceRecorder(
        variant="test", params0=BernoulliParams(np.asarray(p0, dtype=float)),
        rho=0.1, alpha=0.5, alpha1=0.5, snapshot_stride=stride,
        optimal_value=optimal_value,
    )


class TestSignChanges:
    def test_same_direction_never_counts(self):
        rec = _recorder([0.5])
        rec.update_applied(np.array([0.6]))
        rec.update_applied(np.array([0.7]))
        assert rec.sign_changes[0] == 0

    def test_direction_flip_counts(self):
        rec = _recorder([0.5])
        rec.update_applied(np.array([0.6]))   # up
        rec.update_applied(np.array([0.55]))  # down: one change
        rec.update_applied(np.array([0.65]))  # up: two
        assert rec.sign_changes[0] == 2

    def test_zero_step_is_not_an_event_and_keeps_direction(self):
        # up, hold, up must count zero changes: the hold neither counts
        # nor resets the remembered direction.
        rec = _recorder([0.5])
        rec.update_applied(np.array([0.6]))
        rec.update_applied(np.array([0.6]))
        rec.update_applied(np.array([0.7]))
        assert rec.sign_changes[0] == 0
        # up, hold, down is still exactly one change.
        rec2 = _recorder([0.5])
        rec2.update_applied(np.array([0.6]))
        rec2.update_applied(np.array([0.6]))
        rec2.update_applied(np.array([0.5]))
        assert rec2.sign_changes[0] == 1

    def test_first_move_sets_direction_without_counting(self):
        rec = _recorder([0.5])
        rec.update_applied(np.array([0.4]))
        assert rec.sign_changes[0] == 0

    def test_components_are_independent(self):
        rec = _recorder([0.5, 0.5])
        rec.update_applied(np.array([0.6, 0.4]))
        rec.update_applied(np.array([0.7, 0.5]))  # up/up: change only in [1]
        assert list(rec.sign_changes) == [0, 1]


class TestOfferBest:
    def test_strictly_greater_replaces(self):
        rec = _recorder([0.5])
        rec.offer_best(np.array([1]), 1.0, 0)
        rec.offer_best(np.array([0]), 2.0, 1)
        assert rec.best.value == 2.0
        assert rec.best.draw_index == 1

    def test_tie_keeps_earliest(self):
        rec = _recorder([0.5])
        rec.offer_best(np.array([1]), 2.0, 0)
        rec.offer_best(np.array([0]), 2.0, 5)
        assert rec.best.draw_index == 0

    def test_best_bits_are_copied(self):
        rec = _recorder([0.5])
        bits = np.array([1], dtype=np.uint8)
        rec.offer_best(bits, 1.0, 0)
        bits[0] = 0
        assert rec.best.bits[0] == 1

    def test_first_hit_within_tolerance(self):
        rec = _recorder([0.5], optimal_value=3.0)
        rec.offer_best(np.array([1]), 2.0, 0)
        assert rec.first_hit_step is None
        rec.offer_best(np.array([1]), 3.0 - 1e-10, 4)
        assert rec.first_hit_step == 4
        rec.offer_best(np.array([1]), 3.0, 9)
        assert rec.first_hit_step == 4  # first hit sticks

    def test_no_optimum_no_hit(self):
        rec = _recorder([0.5])
        rec.offer_best(np.array([1]), 100.0, 0)
        assert rec.first_hit_step is None


class TestSnapshots:
    def test_stride_and_forced_finish(self):
        rec = _recorder([0.5], stride=3)
        for step in range(1, 8):
            rec.maybe_snapshot(step, gamma=None, delta=None)
        trace = rec.finish(7, gamma=1.5, delta=None)
        assert [s.step for s in trace.snapshots] == [0, 3, 6, 7]
        assert trace.snapshots[-1].gamma == 1.5

    def test_finish_does_not_duplicate_final_step(self):
        rec = _recorder([0.5], stride=2)
        rec.maybe_snapshot(2, gamma=0.5, delta=None)
        trace = rec.finish(2, gamma=0.5, delta=None)
        assert [s.step for s in trace.snapshots] == [0, 2]

    def test_snapshot_carries_update_count(self):
        rec = _recorder([0.5], stride=1)
        rec.update_applied(np.array([0.6]))
        rec.maybe_snapshot(1, gamma=None, delta=None)
        assert rec._snapshots[-1].update_count == 1

    def test_elites_argument_accumulates(self):
        rec = _recorder([0.5])
        rec.update_applied(np.array([0.6]), elites=10)
        rec.update_applied(np.array([0.7]), elites=10)
        assert rec.update_count == 2
        assert rec.elite_decisions == 20

    def test_final_params_property(self):
        rec = _recorder([0.5])
        rec.update_applied(np.array([0.8]))
        trace = rec.finish(1, gamma=None, delta=None)
        assert trace.final_params.probs[0] == 0.8


def test_sign_changes_stabilize_at_doubling_horizons():
    # Convergence keeps the per-component counts finite: with the run
    # absorbing well before 2500 steps, doubling the horizon again must
    # add no new sign changes in at least 99% of components.
    obj = make_objective(ProblemSpec(kind="onemax", n=10))
    stable = 0
    total = 0
    for r in range(10):
        counts = {}
        for K in (2500, 5000):
            cfg = OnlineConfig(N=100, rho=0.1, alpha=0.7, K=K)
            counts[K] = run_online_window(cfg, obj, RngStream(800 + r)).sign_changes
        stable += int(np.sum(counts[5000] == counts[2500]))
        total += 10
    assert stable >= 0.99 * total


def test_sign_changes_match_scalar_rule_over_random_updates():
    # Per component, in plain Python: a nonzero step whose sign differs
    # from the previous nonzero step's counts; zero steps are ignored.
    rng = np.random.default_rng(17)
    n = 6
    rec = _recorder(np.full(n, 0.5))
    p = np.full(n, 0.5)
    last = [0] * n
    counts = [0] * n
    for _ in range(500):
        new = p.copy()
        moving = rng.random(n) < 0.6
        new[moving] = rng.uniform(size=int(moving.sum()))
        rec.update_applied(new)
        for i in range(n):
            s = int(new[i] > p[i]) - int(new[i] < p[i])
            if s:
                counts[i] += last[i] != 0 and s != last[i]
                last[i] = s
        p = new
    assert rec.sign_changes.tolist() == counts
    assert rec.sign_changes.dtype == np.int64
