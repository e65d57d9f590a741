"""Closed-form diagnostics and the per-run convergence report."""

import math

import numpy as np
import pytest

from cemkit import (
    BatchConfig,
    BernoulliParams,
    DimensionError,
    DomainError,
    OnlineConfig,
    ProblemSpec,
    RngStream,
    analyze,
    geometric_tail_sum,
    make_objective,
    miss_probability_bound,
    negated,
    param_envelope,
    phi,
    phi_series,
    run_batch,
    run_online_window,
)


class TestPhi:
    def test_uniform_half(self):
        p = BernoulliParams(np.array([0.5, 0.5]))
        assert phi(p, np.array([1, 1])) == pytest.approx(0.25, abs=1e-15)

    def test_hand_example(self):
        # 0.9 * (1-0.1) * 0.5 = 0.405.
        p = BernoulliParams(np.array([0.9, 0.1, 0.5]))
        assert phi(p, np.array([1, 0, 1])) == pytest.approx(0.405, abs=1e-12)

    def test_dimension_mismatch(self):
        p = BernoulliParams(np.array([0.5, 0.5]))
        with pytest.raises(DimensionError):
            phi(p, np.array([1]))


class TestParamEnvelope:
    def test_hand_example(self):
        # After 2 updates at alpha1=0.1: lo = 0.5*0.81 = 0.405,
        # hi = 0.405 + 1 - 0.81 = 0.595.
        p0 = BernoulliParams(np.array([0.5, 0.5]))
        lo, hi = param_envelope(p0, 0.1, 2)
        assert np.allclose(lo, 0.405, atol=1e-12)
        assert np.allclose(hi, 0.595, atol=1e-12)

    def test_zero_updates_is_degenerate(self):
        p0 = BernoulliParams(np.array([0.3, 0.8]))
        lo, hi = param_envelope(p0, 0.2, 0)
        assert np.array_equal(lo, p0.probs)
        assert np.array_equal(hi, p0.probs)

    def test_domain(self):
        p0 = BernoulliParams(np.array([0.5]))
        with pytest.raises(ValueError):
            param_envelope(p0, 0.0, 1)
        with pytest.raises(ValueError):
            param_envelope(p0, 0.5, -1)

    def test_update_always_stays_inside(self):
        # Any convex chain toward points in {0,1} is bracketed by the
        # all-the-way-down and all-the-way-up worst cases.
        rng = np.random.default_rng(3)
        p0 = BernoulliParams(rng.uniform(0.2, 0.8, 6))
        alpha1 = 0.15
        p = p0.probs.copy()
        for u in range(1, 40):
            x = rng.integers(0, 2, 6)
            p = (1 - alpha1) * p + alpha1 * x
            lo, hi = param_envelope(p0, alpha1, u)
            assert np.all(p >= lo - 1e-12) and np.all(p <= hi + 1e-12)


class TestGeometricTailSum:
    def test_hand_value(self):
        assert geometric_tail_sum(0.007, 10) == pytest.approx(
            13.741509111709831, abs=1e-12
        )

    def test_matches_direct_summation(self):
        a, n = 0.05, 4
        direct = sum((1 - a) ** (n * t) for t in range(1, 5000))
        assert geometric_tail_sum(a, n) == pytest.approx(direct, abs=1e-10)

    def test_domain(self):
        for a in (0.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                geometric_tail_sum(a, 5)
        with pytest.raises(ValueError):
            geometric_tail_sum(0.5, 0)
        # alpha1 = 1 is in the domain: (1 - 1)^n = 0 leaves an empty tail.
        for n in (1, 5, 1100):
            assert geometric_tail_sum(1.0, n) == 0.0

    @pytest.mark.parametrize("a", [2.0 ** -54, 5e-17, 1e-20, 2.0 ** -80])
    @pytest.mark.parametrize("n", [1, 60, 5000])
    def test_step_below_half_ulp_of_one(self, a, n):
        # 1 - a rounds to 1, so (1 - a)^n is 1.0; h is still about
        # 1/(n*a) - 1, not a division by zero or inf.
        assert 1.0 - a == 1.0
        assert geometric_tail_sum(a, n) == pytest.approx(1.0 / (n * a) - 1.0, rel=1e-12)


class TestMissProbabilityBound:
    def test_hand_value(self):
        # exp(-2^-10 * 13.741509111709831) with h as above.
        assert miss_probability_bound(2.0 ** -10, 0.007, 10) == pytest.approx(
            0.9866701968086818, abs=1e-12
        )

    def test_certain_first_step(self):
        # phi1 = 1 still yields exp(-h) < 1; the caller's (1 - phi1)
        # factor is what zeroes the bound.
        assert 0.0 < miss_probability_bound(1.0, 0.5, 3) < 1.0

    def test_domain(self):
        for phi1, a in ((-0.1, 0.1), (1.2, 0.1), (0.5, 0.0), (0.5, -0.2), (0.5, 1.3)):
            with pytest.raises(DomainError):
                miss_probability_bound(phi1, a, 5)
        # phi1 = 0 (2^-n underflowed) and alpha1 = 1 (empty tail) both
        # leave the factor at exactly 1.
        for a in (1.0, 0.5, 1e-3):
            assert miss_probability_bound(0.0, a, 5) == 1.0
        for p in (0.0, 2.0 ** -5, 0.5, 1.0):
            assert miss_probability_bound(p, 1.0, 5) == 1.0

    def test_step_below_half_ulp_of_one(self):
        # h(5e-17) at n = 60 is about 3.3e14, so the factor is finite and
        # just below 1.
        phi1 = 2.0 ** -60
        bound = miss_probability_bound(phi1, 5e-17, 60)
        assert bound == pytest.approx(math.exp(-phi1 / (60 * 5e-17)), rel=1e-12)
        assert 0.9996 < bound < 1.0

    def test_shrinks_with_smaller_alpha1(self):
        # Smaller steps keep phi_t away from 0 longer, so the bound on
        # never generating the optimum drops.
        phi1 = 2.0 ** -8
        bounds = [miss_probability_bound(phi1, a, 8) for a in (0.5, 0.1, 0.01, 0.001)]
        assert all(x > y for x, y in zip(bounds, bounds[1:]))


class TestAnalyze:
    def test_batch_report(self):
        obj = make_objective(ProblemSpec(kind="onemax", n=6))
        cfg = BatchConfig(N=30, rho=0.1, alpha=0.7, T=30, eps_conv=1e-3)
        trace = run_batch(cfg, obj, RngStream(12))
        rep = analyze(trace, obj)
        assert rep.envelope_violations == 0
        assert rep.optimum_known
        # phi at step 0 is 2^-6 under the uniform start.
        assert phi_series(trace, obj.optimal_bits)[0] == (0, pytest.approx(2.0 ** -6, abs=1e-15))
        if rep.converged_binary:
            assert rep.converged_step is not None
        assert rep.miss_bound is not None

    def test_miss_bound_composition(self):
        obj = make_objective(ProblemSpec(kind="onemax", n=6))
        cfg = OnlineConfig(N=20, rho=0.1, alpha=0.6, K=100)
        trace = run_online_window(cfg, obj, RngStream(12))
        rep = analyze(trace, obj)
        phi1 = 2.0 ** -6
        expect = (1 - phi1) * miss_probability_bound(phi1, trace.alpha1, 6)
        assert rep.miss_bound == pytest.approx(expect, abs=1e-15)

    def test_miss_bound_degenerates_at_alpha1_one(self):
        # Batch with alpha=1 has per-update step 1: the tail sum is
        # empty and only the first generation can miss.
        obj = make_objective(ProblemSpec(kind="onemax", n=4))
        cfg = BatchConfig(N=10, rho=0.5, alpha=1.0, T=3, eps_conv=None)
        trace = run_batch(cfg, obj, RngStream(1))
        rep = analyze(trace, obj)
        assert rep.miss_bound == pytest.approx(1.0 - 2.0 ** -4, abs=1e-15)

    def test_miss_bound_at_underflowed_phi1(self):
        # phi1 = 2^-1100 is 0.0 in floats: the bound is 1, not missing.
        obj = make_objective(ProblemSpec(kind="onemax", n=1100))
        cfg = BatchConfig(N=20, rho=0.1, alpha=0.7, T=2, eps_conv=None)
        trace = run_batch(cfg, obj, RngStream(5))
        rep = analyze(trace, obj)
        assert phi_series(trace, obj.optimal_bits)[0][1] == 0.0
        assert rep.miss_bound == 1.0

    def test_miss_bound_at_step_below_half_ulp_of_one(self):
        # alpha = 5e-16 with ceil(rho*N) = 10 gives alpha1 of about
        # 5e-17, where 1 - alpha1 rounds to 1.
        obj = make_objective(ProblemSpec(kind="onemax", n=60))
        cfg = OnlineConfig(N=100, rho=0.1, alpha=5e-16, K=150)
        trace = run_online_window(cfg, obj, RngStream(3))
        assert 1.0 - trace.alpha1 == 1.0
        rep = analyze(trace, obj)
        phi1 = 2.0 ** -60
        assert math.isfinite(rep.miss_bound)
        assert rep.miss_bound == (1 - phi1) * miss_probability_bound(phi1, trace.alpha1, 60)

    def test_unknown_optimum_leaves_fields_none(self):
        obj = negated(make_objective(ProblemSpec(kind="onemax", n=5)))
        cfg = OnlineConfig(N=20, rho=0.1, alpha=0.5, K=60)
        trace = run_online_window(cfg, obj, RngStream(4))
        rep = analyze(trace, obj)
        assert not rep.optimum_known
        assert rep.miss_bound is None
        assert rep.optimum_generated is None

    def test_converged_step_at_snapshot_resolution(self):
        obj = make_objective(ProblemSpec(kind="onemax", n=4))
        cfg = BatchConfig(N=30, rho=0.1, alpha=1.0, T=100, eps_conv=1e-3)
        trace = run_batch(cfg, obj, RngStream(3))
        rep = analyze(trace, obj)
        assert rep.converged_binary
        assert rep.converged_step % 30 == 0
        assert rep.converged_step <= trace.steps

    def test_eps_binary_domain(self):
        obj = make_objective(ProblemSpec(kind="onemax", n=4))
        cfg = BatchConfig(N=10, rho=0.2, alpha=0.5, T=2, eps_conv=None)
        trace = run_batch(cfg, obj, RngStream(0))
        with pytest.raises(ValueError):
            analyze(trace, obj, eps_binary=0.5)
