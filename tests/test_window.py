"""Sliding-window engine: buffer mechanics, per-sample updates, full runs."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cemkit import (
    BernoulliParams,
    ConfigError,
    DimensionError,
    OnlineConfig,
    ProblemSpec,
    RngStream,
    SampleWindow,
    elite_count,
    make_objective,
    online_update,
    run_online_window,
    window_step,
)


class TestSampleWindow:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SampleWindow(0)

    def test_evict_oldest_with_duplicate_values(self):
        # Values that tell the entries apart, out of sorted order: eviction
        # returns them first in, first out, duplicates included.
        values = [5.0, 8.0, 5.0, 3.0]
        win = SampleWindow(4)
        for v in values:
            win.append(v)
        assert win.evict_oldest() == 5.0
        # One copy of 5.0 must remain in the rank index.
        assert win.threshold(0.5) == 5.0
        assert [win.evict_oldest() for _ in range(3)] == values[1:]
        assert len(win) == 0

    def test_threshold_empty(self):
        with pytest.raises(ValueError):
            SampleWindow(3).threshold(0.5)

    def test_incremental_matches_resort(self):
        rng = np.random.default_rng(14)
        for _ in range(3):
            win = SampleWindow(40)
            vals = rng.normal(0, 1, 2000)
            for v in vals:
                win.append(v)
                if len(win) > 40:
                    win.evict_oldest()
                    assert win.threshold(0.1) == win.threshold_resort(0.1)

    def test_threshold_at_every_size_and_rho_matches_resort(self):
        # The rank is cached per (size, rho): calls at a changing size,
        # filling and then draining, or with another rho, recompute it.
        rng = np.random.default_rng(3)
        win = SampleWindow(30)
        for v in rng.normal(0, 1, 30):
            win.append(v)
            for rho in (0.1, 0.5, 0.5, 0.1):
                assert win.threshold(rho) == win.threshold_resort(rho)
        while len(win) > 1:
            win.evict_oldest()
            for rho in (0.5, 0.1, 0.1):
                assert win.threshold(rho) == win.threshold_resort(rho)
        win.evict_oldest()
        with pytest.raises(ValueError):
            win.threshold(0.1)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        capacity=st.integers(1, 6),
        rho=st.sampled_from([0.1, 0.3, 0.5, 0.9]),
        stream=st.lists(
            st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]), st.floats(-3.0, 3.0)),
            max_size=60,
        ),
    )
    def test_push_matches_append_then_evict(self, capacity, rho, stream):
        # push skips the sorted index when the evicted value equals the new
        # one; ties and signed zeros must still leave both buffers exactly
        # as append plus evict_oldest leaves them, sign of zero included.
        def bits(values):
            return [struct.pack("d", v) for v in values]

        pushed, twin = SampleWindow(capacity), SampleWindow(capacity)
        for v in stream:
            pushed.push(v)
            twin.append(v)
            if len(twin) > capacity:
                twin.evict_oldest()
            assert bits(pushed._values) == bits(twin._values)
            assert bits(pushed._sorted_values) == bits(twin._sorted_values)
            assert pushed.threshold(rho) == pushed.threshold_resort(rho)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        capacity=st.integers(1, 6),
        stream=st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5]), max_size=30),
    )
    def test_holds_one_value(self, capacity, stream):
        # True exactly for a full buffer whose slots all hold the same
        # nonzero bits v. Pushing v again leaves both buffers as they
        # are, and v is every rank statistic.
        def bits(values):
            return [struct.pack("d", v) for v in values]

        window = SampleWindow(capacity)
        for v in stream:
            window.push(v)
            full_of_v = len(window) == capacity and set(bits(window._values)) == set(bits([v]))
            settled = window.holds_one_value()
            assert settled is (full_of_v and v != 0.0)
            if not settled:
                continue
            before = bits(window._values), bits(window._sorted_values)
            window.push(v)
            assert (bits(window._values), bits(window._sorted_values)) == before
            assert all(window.threshold(rho) == v for rho in (0.1, 0.5, 0.9))


class TestWindowStep:
    def test_warm_up_is_silent(self):
        win = SampleWindow(3)
        for i in range(3):
            win.append(float(i))
            assert window_step(win, float(i), 0.5) == (None, False)
        assert len(win) == 3

    def test_hand_example_elite(self):
        # Buffer after eviction {5,9,2,7} with 7 newest, rho=0.5:
        # gamma = 2nd largest = 7, and 7 >= 7 is elite.
        win = SampleWindow(4)
        for v in [3.0, 5.0, 9.0, 2.0]:
            win.append(v)
        win.append(7.0)
        gamma, is_elite = window_step(win, 7.0, 0.5)
        assert gamma == 7.0
        assert is_elite

    def test_hand_example_not_elite(self):
        # Same history but newest value 1: remaining {5,9,2,1} gives
        # gamma = 5 and 1 < 5.
        win = SampleWindow(4)
        for v in [3.0, 5.0, 9.0, 2.0]:
            win.append(v)
        win.append(1.0)
        gamma, is_elite = window_step(win, 1.0, 0.5)
        assert gamma == 5.0
        assert not is_elite

    def test_strictly_better_newcomer_is_always_elite(self):
        win = SampleWindow(3)
        for v in [1.0, 2.0, 3.0]:
            win.append(v)
        win.append(99.0)
        _, is_elite = window_step(win, 99.0, 0.3)
        assert is_elite


class TestOnlineUpdate:
    def test_hand_example(self):
        # (1-0.1)*(0.2, 0.8) + 0.1*(1, 0) = (0.28, 0.72).
        p = BernoulliParams(np.array([0.2, 0.8]))
        out = online_update(np.array([1, 0]), p, 0.1)
        assert np.allclose(out.probs, [0.28, 0.72], atol=1e-12)

    def test_alpha1_domain(self):
        p = BernoulliParams(np.array([0.5]))
        for a in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                online_update(np.array([1]), p, a)

    def test_dimension_mismatch(self):
        p = BernoulliParams(np.array([0.5, 0.5]))
        with pytest.raises(DimensionError):
            online_update(np.array([1]), p, 0.1)


class TestOnlineConfig:
    def test_field_errors(self):
        good = dict(N=10, rho=0.1, alpha=0.5, K=100)
        for field, bad in [("N", 0), ("rho", 0.0), ("alpha", 1.2), ("K", 0),
                           ("eps_conv", 0.7), ("snapshot_stride", 0)]:
            with pytest.raises(ConfigError, match=f"^{field}:"):
                OnlineConfig(**{**good, field: bad})


class TestRunOnlineWindow:
    def test_warm_up_only_run_leaves_p0(self):
        obj = make_objective(ProblemSpec(kind="onemax", n=5))
        cfg = OnlineConfig(N=50, rho=0.1, alpha=0.5, K=50)
        trace = run_online_window(cfg, obj, RngStream(4))
        assert trace.update_count == 0
        assert trace.elite_decisions == 0
        assert np.array_equal(trace.final_params.probs, np.full(5, 0.5))

    def test_alpha1_definition(self):
        obj = make_objective(ProblemSpec(kind="onemax", n=5))
        cfg = OnlineConfig(N=100, rho=0.1, alpha=0.7, K=10)
        trace = run_online_window(cfg, obj, RngStream(4))
        assert trace.alpha1 == 0.7 / elite_count(100, 0.1)

    def test_engine_matches_pure_function_replay(self):
        # The hot loop inlines the parameter update; replay the same
        # stream through online_update/window_step and demand identical
        # floats everywhere.
        obj = make_objective(ProblemSpec(kind="onemax", n=8))
        cfg = OnlineConfig(N=20, rho=0.1, alpha=0.6, K=300)
        trace = run_online_window(cfg, obj, RngStream(31))

        rng = RngStream(31)
        params = BernoulliParams.uniform_init(8)
        alpha1 = 0.6 / elite_count(20, 0.1)
        win = SampleWindow(20)
        elites = 0
        gamma = None
        for t in range(300):
            bits = (rng.random(8) < params.probs).astype(np.uint8)
            value = float(obj.fn(bits))
            win.append(value)
            g, is_elite = window_step(win, value, 0.1)
            if g is not None:
                gamma = g
            if is_elite:
                params = online_update(bits, params, alpha1)
                elites += 1
        assert np.array_equal(trace.final_params.probs, params.probs)
        assert trace.elite_decisions == elites
        assert trace.update_count == elites
        assert trace.gamma_final == gamma

    def test_early_stop_opt_in(self):
        obj = make_objective(ProblemSpec(kind="onemax", n=4))
        cfg = OnlineConfig(N=20, rho=0.1, alpha=1.0, K=50_000, eps_conv=0.05)
        trace = run_online_window(cfg, obj, RngStream(6))
        assert trace.steps < 50_000
        final = trace.final_params.probs
        assert np.all((final <= 0.05) | (final >= 0.95))

    def test_elite_count_sanity_band(self):
        # With a continuous objective and a small step, each post-warm-up
        # decision is elite with probability near rho, so the total sits
        # in the binomial(K-N, rho) 3-sigma band. Window overlap
        # correlates decisions and drift biases them slightly high, so
        # this is a band check, not an exact one.
        w = tuple(float(x) for x in np.random.default_rng(123).normal(0, 1, 30))
        obj = make_objective(ProblemSpec(kind="weighted_linear", n=30, weights=w))
        K, N, rho = 5000, 100, 0.1
        mean = rho * (K - N)
        sd = math.sqrt((K - N) * rho * (1 - rho))
        for r in range(20):
            cfg = OnlineConfig(N=N, rho=rho, alpha=0.05, K=K)
            trace = run_online_window(cfg, obj, RngStream(600 + r))
            assert abs(trace.elite_decisions - mean) < 3 * sd, r

    def test_elite_free_gaps_grow_logarithmically(self):
        # Frozen sampler: feed iid values straight into the buffer. The
        # longest run without an elite decision should scale like log of
        # the stream length, nowhere near linearly.
        def max_gap(length, seed):
            vals = RngStream(seed).random(length)
            win = SampleWindow(100)
            last = None
            worst = 0
            for t, v in enumerate(vals.tolist()):
                win.append(v)
                _, is_elite = window_step(win, v, 0.1)
                if is_elite:
                    if last is not None:
                        worst = max(worst, t - last)
                    last = t
            return worst

        for seed in (70, 71, 72):
            short = max_gap(1_000, seed)
            long = max_gap(100_000, seed)
            assert long <= 10 * math.log(100_000) + 20
            # 100x more samples, far less than 100x the gap.
            assert long <= 5 * short
