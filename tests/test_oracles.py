"""Brute-force and Monte Carlo oracles."""

import math

import numpy as np
import pytest

from cemkit import (
    BernoulliParams,
    CapacityError,
    ProblemSpec,
    RngStream,
    ThresholdState,
    elite_probability_exhaustive,
    exhaustive_success_prob,
    make_objective,
    order_gap_mc,
    phi,
    threshold_step,
)


class TestExhaustiveSuccessProb:
    def test_hand_values(self):
        p = BernoulliParams(np.array([0.5, 0.5]))
        assert exhaustive_success_prob(p, np.array([1, 0])) == pytest.approx(0.25, abs=1e-15)
        p = BernoulliParams(np.array([0.9, 0.2]))
        # 0.9 * 0.2 = 0.18.
        assert exhaustive_success_prob(p, np.array([1, 1])) == pytest.approx(0.18, abs=1e-12)

    def test_agrees_with_product_formula(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(1, 13))
            p = BernoulliParams(rng.random(n))
            x = rng.integers(0, 2, n)
            assert exhaustive_success_prob(p, x) == pytest.approx(
                phi(p, x), abs=1e-12
            )

    def test_capacity_and_shape(self):
        with pytest.raises(CapacityError):
            exhaustive_success_prob(BernoulliParams(np.full(21, 0.5)), np.zeros(21))
        with pytest.raises(ValueError):
            exhaustive_success_prob(BernoulliParams(np.full(3, 0.5)), np.zeros(2))


class TestEliteProbabilityExhaustive:
    def test_binomial_tail(self):
        # Under p=0.5 the objective value is Binomial(4, 1/2):
        # P(f >= 2) = (6+4+1)/16 = 11/16.
        obj = make_objective(ProblemSpec(kind="onemax", n=4))
        p = BernoulliParams.uniform_init(4)
        assert elite_probability_exhaustive(p, obj, 2.0) == pytest.approx(
            11.0 / 16.0, abs=1e-12
        )
        assert elite_probability_exhaustive(p, obj, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert elite_probability_exhaustive(p, obj, 5.0) == 0.0

    def test_dimension_and_capacity(self):
        obj = make_objective(ProblemSpec(kind="onemax", n=4))
        with pytest.raises(ValueError):
            elite_probability_exhaustive(BernoulliParams(np.full(3, 0.5)), obj, 1.0)
        big = make_objective(ProblemSpec(kind="onemax", n=21))
        with pytest.raises(CapacityError):
            elite_probability_exhaustive(BernoulliParams(np.full(21, 0.5)), big, 1.0)

    def test_drift_identity_against_sampling(self):
        # q = P(f >= gamma) from enumeration must match the sampled
        # elite fraction, and the expected threshold step is then
        # delta * (q*(1-rho) - (1-q)*rho) by the walk's two branches.
        rng = np.random.default_rng(40)
        obj = make_objective(ProblemSpec(kind="onemax", n=8))
        p = BernoulliParams(rng.uniform(0.2, 0.8, 8))
        gamma, rho, delta = 4.5, 0.1, 0.3
        q = elite_probability_exhaustive(p, obj, gamma)

        m = 20_000
        bits = (rng.random((m, 8)) < p.probs).astype(np.uint8)
        frac = float(np.mean(obj.evaluate_many(bits) >= gamma))
        assert abs(frac - q) < 4 * math.sqrt(q * (1 - q) / m)

        st = ThresholdState(gamma=gamma, delta=delta)
        up = threshold_step(st, True, rho).gamma - gamma
        down = threshold_step(st, False, rho).gamma - gamma
        drift = q * up + (1 - q) * down
        assert drift == pytest.approx(delta * (q * (1 - rho) - (1 - q) * rho), abs=1e-12)


class TestOrderGapMc:
    def test_validation(self):
        rng = RngStream(0)
        with pytest.raises(ValueError):
            order_gap_mc(("uniform", 0.0, 1.0), 100, 1.5, 10_000, rng)
        with pytest.raises(ValueError):
            order_gap_mc(("uniform", 0.0, 1.0), 5, 0.1, 10_000, rng)  # N <= 1/rho
        with pytest.raises(ValueError):
            order_gap_mc(("uniform", 0.0, 1.0), 100, 0.1, 999, rng)
        with pytest.raises(ValueError):
            order_gap_mc(("uniform", 1.0, 0.0), 100, 0.1, 10_000, rng)
        with pytest.raises(ValueError):
            order_gap_mc(("normal", 0.0, -1.0), 100, 0.1, 10_000, rng)
        with pytest.raises(ValueError):
            order_gap_mc(("cauchy", 0.0, 1.0), 100, 0.1, 10_000, rng)

    def test_deterministic(self):
        a = order_gap_mc(("normal", 0.0, 1.0), 50, 0.2, 10_000, RngStream(5))
        b = order_gap_mc(("normal", 0.0, 1.0), 50, 0.2, 10_000, RngStream(5))
        assert a == b
        assert a.samples == 10_000

    def test_uniform_spacing_theory(self):
        # Adjacent uniform order statistics are (b-a)/(N+1) apart in
        # expectation at every rank, and E|X-Y| = (b-a)/3; check within
        # 5 reported standard errors.
        est = order_gap_mc(("uniform", 0.0, 1.0), 100, 0.1, 20_000, RngStream(6))
        assert abs(est.mean_gap - 1.0 / 101.0) < 5 * est.se_gap
        assert abs(est.mean_absdiff - 1.0 / 3.0) < 5 * est.se_absdiff
        assert est.ratio == est.mean_gap / est.mean_absdiff

    def test_scale_invariant_ratio(self):
        # The gap and E|X-Y| both scale linearly with (b-a), so the
        # ratio is the same for any interval, up to Monte Carlo noise.
        unit = order_gap_mc(("uniform", 0.0, 1.0), 50, 0.2, 50_000, RngStream(7))
        wide = order_gap_mc(("uniform", -3.0, 5.0), 50, 0.2, 50_000, RngStream(8))
        assert unit.ratio == pytest.approx(wide.ratio, rel=0.1)
