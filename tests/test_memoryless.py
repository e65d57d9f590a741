"""Memoryless engine: threshold walk, delta estimators, full runs."""

import math
from dataclasses import replace

import numpy as np
import pytest

from cemkit import (
    BernoulliParams,
    ConfigError,
    DomainError,
    MemorylessConfig,
    ProblemSpec,
    RngStream,
    ThresholdState,
    delta0_gauss,
    delta0_uniform,
    delta_update,
    elite_count,
    make_objective,
    normal_ppf,
    run_memoryless,
    threshold_step,
)
from cemkit.memoryless import (
    DELTA0_MODES,
    ESTIMATORS,
    GAUSS_CALIBRATED_COEFF,
    GAUSS_NOMINAL_COEFF,
    run_threshold_stream,
)
from cemkit.window import online_update


class TestThresholdStep:
    def test_hand_example(self):
        st = ThresholdState(gamma=5.0, delta=2.0)
        # Elite: 5 + 0.9*2 = 6.8. Otherwise: 5 - 0.1*2 = 4.8.
        assert threshold_step(st, True, 0.1).gamma == pytest.approx(6.8, abs=1e-12)
        assert threshold_step(st, False, 0.1).gamma == pytest.approx(4.8, abs=1e-12)

    def test_zero_delta_freezes_gamma(self):
        st = ThresholdState(gamma=5.0, delta=0.0)
        assert threshold_step(st, True, 0.1).gamma == 5.0
        assert threshold_step(st, False, 0.1).gamma == 5.0

    def test_delta_untouched(self):
        st = ThresholdState(gamma=1.0, delta=0.3)
        assert threshold_step(st, True, 0.2).delta == 0.3

    def test_rho_domain(self):
        st = ThresholdState(gamma=0.0, delta=1.0)
        for rho in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                threshold_step(st, True, rho)

    def test_unset_gamma_rejected(self):
        # gamma = None is a valid start for the walk, but one step of it
        # needs a threshold to move.
        st = ThresholdState(gamma=None, delta=1.0)
        with pytest.raises(ValueError, match="^gamma:"):
            threshold_step(st, True, 0.1)


class TestDelta0Models:
    def test_uniform_hand_values(self):
        assert delta0_uniform(99) == pytest.approx(0.03, abs=1e-15)
        assert delta0_uniform(2) == 1.0
        with pytest.raises(ValueError):
            delta0_uniform(0)

    def test_gauss_nominal_value(self):
        # 2*sqrt(pi) * (ppf(0.91) - ppf(0.90))
        expect = 2.0 * math.sqrt(math.pi) * (normal_ppf(0.91) - normal_ppf(0.90))
        assert delta0_gauss(100, 0.1, "nominal") == pytest.approx(expect, abs=1e-15)
        assert delta0_gauss(100, 0.1, "nominal") == pytest.approx(
            0.20987083020331804, abs=1e-12
        )

    def test_gauss_calibrated_is_quarter_of_nominal(self):
        nominal = delta0_gauss(100, 0.1, "nominal")
        cal = delta0_gauss(100, 0.1, "calibrated")
        assert cal == pytest.approx(nominal / 4.0, abs=1e-15)
        assert cal == pytest.approx(0.05246770755082951, abs=1e-12)

    def test_gauss_needs_n_above_inverse_rho(self):
        # 1 - rho + 1/N must stay below 1.
        with pytest.raises(DomainError):
            delta0_gauss(10, 0.1)
        with pytest.raises(DomainError):
            delta0_gauss(9, 0.1)
        delta0_gauss(11, 0.1)

    def test_gauss_mode_validation(self):
        with pytest.raises(ConfigError, match="^delta0_mode:"):
            delta0_gauss(100, 0.1, "empirical")

    def test_coefficients(self):
        assert GAUSS_NOMINAL_COEFF == pytest.approx(2.0 * math.sqrt(math.pi), abs=1e-15)
        assert GAUSS_NOMINAL_COEFF == pytest.approx(4.0 * GAUSS_CALIBRATED_COEFF, abs=1e-15)
        assert ESTIMATORS == ("constant", "uniform_model", "gauss_model")
        assert DELTA0_MODES == ("nominal", "calibrated")


class TestDeltaUpdate:
    def _state(self, **kw):
        base = dict(gamma=0.0, delta=1.0, estimator="uniform_model",
                    beta=0.5, delta0=0.03, prev_value=10.0)
        base.update(kw)
        return ThresholdState(**base)

    def test_hand_example(self):
        # 0.5*1 + 0.5*0.03*|14-10| = 0.5 + 0.06 = 0.56.
        out = delta_update(self._state(), 14.0)
        assert out.delta == pytest.approx(0.56, abs=1e-12)
        assert out.prev_value == 14.0

    def test_beta_zero_freezes_delta(self):
        out = delta_update(self._state(beta=0.0), 14.0)
        assert out.delta == 1.0
        assert out.prev_value == 14.0

    def test_priming_first_sample(self):
        out = delta_update(self._state(prev_value=None), 7.0)
        assert out.delta == 1.0
        assert out.prev_value == 7.0

    def test_clamped_below(self):
        out = delta_update(self._state(delta_min=0.7), 14.0)
        assert out.delta == 0.7

    def test_constant_estimator_rejected(self):
        st = ThresholdState(gamma=0.0, delta=1.0, estimator="constant")
        with pytest.raises(ConfigError, match="^estimator:"):
            delta_update(st, 1.0)


class TestThresholdState:
    def test_validation(self):
        with pytest.raises(ConfigError, match="^estimator:"):
            ThresholdState(gamma=0.0, delta=1.0, estimator="ewma")
        with pytest.raises(ConfigError, match="^beta:"):
            ThresholdState(gamma=0.0, delta=1.0, beta=1.5)
        # NaN passes every plain `x < 0` test, and inf passes them all.
        for field, bad in [("delta", -1.0), ("delta", math.nan), ("delta", math.inf),
                           ("delta0", 0.0), ("delta0", math.nan), ("delta0", math.inf),
                           ("delta_min", -0.1), ("delta_min", math.nan), ("delta_min", math.inf),
                           ("gamma", math.nan), ("gamma", math.inf), ("gamma", -math.inf)]:
            with pytest.raises(ConfigError, match=f"^{field}:"):
                ThresholdState(**{"gamma": 0.0, "delta": 1.0, field: bad})


class TestMemorylessConfig:
    def _cfg(self, **kw):
        base = dict(N=100, rho=0.1, alpha=0.7, K=1000)
        base.update(kw)
        return MemorylessConfig(**base)

    def test_requires_n_above_inverse_rho(self):
        with pytest.raises(ConfigError, match="^N:"):
            self._cfg(N=10)
        with pytest.raises(ConfigError, match="^N:"):
            self._cfg(N=5, rho=0.2)
        self._cfg(N=11)

    def test_constant_estimator_needs_delta0(self):
        with pytest.raises(ConfigError, match="^delta0:"):
            self._cfg(estimator="constant")
        self._cfg(estimator="constant", delta0=0.5)

    def test_resolved_delta0(self):
        assert self._cfg(estimator="uniform_model").resolved_delta0() == delta0_uniform(100)
        assert self._cfg(estimator="gauss_model").resolved_delta0() == delta0_gauss(100, 0.1)
        assert self._cfg(delta0_mode="calibrated").resolved_delta0() == delta0_gauss(
            100, 0.1, "calibrated"
        )
        # Explicit delta0 overrides the model.
        assert self._cfg(delta0=0.42).resolved_delta0() == 0.42

    def test_initial_state_constant(self):
        st = self._cfg(estimator="constant", delta0=0.5).initial_state(3.0)
        assert st.gamma == 3.0
        assert st.delta == 0.5

    def test_initial_state_model(self):
        st = self._cfg(delta_init=0.2).initial_state(1.0)
        assert st.delta == 0.2
        assert st.delta0 == delta0_gauss(100, 0.1)

    def test_misc_validation(self):
        for field, bad in [("gamma0", math.inf), ("delta_init", -0.1), ("estimator", "none"),
                           ("delta_init", math.nan), ("delta_init", math.inf),
                           ("delta0", math.nan), ("delta0", math.inf), ("delta0", -1.0),
                           ("delta_min", math.nan), ("delta_min", math.inf),
                           ("beta", math.nan), ("delta0_mode", "median")]:
            with pytest.raises(ConfigError, match=f"^{field}:"):
                self._cfg(**{field: bad})
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="^delta0:"):
                self._cfg(estimator="constant", delta0=bad)


class TestRunMemoryless:
    CONSTANT_PROBLEM = ProblemSpec(kind="weighted_linear", n=3, weights=(0.0, 0.0, 0.0))

    def _staircase_cfg(self, K, gamma0=1.0):
        # Constant objective value 0 with rho=0.25 and delta=0.25:
        # non-elite steps lower gamma by 1/16. All quantities are dyadic
        # so the walk is float-exact.
        return MemorylessConfig(
            N=5, rho=0.25, alpha=0.5, K=K, gamma0=gamma0,
            estimator="constant", delta0=0.25,
        )

    def test_staircase_descends_to_value(self):
        obj = make_objective(self.CONSTANT_PROBLEM)
        # gamma needs 16 non-elite steps to fall from 1.0 to 0.0.
        trace = run_memoryless(self._staircase_cfg(16), obj, RngStream(0))
        assert trace.elite_decisions == 0
        assert trace.gamma_final == 0.0

    def test_staircase_first_elite_then_cycle(self):
        obj = make_objective(self.CONSTANT_PROBLEM)
        # Step 17 is elite (0 >= 0), pushing gamma to 0.75*0.25 = 0.1875,
        # then 3 non-elite steps return it to 0: elite every 4th step.
        trace = run_memoryless(self._staircase_cfg(17), obj, RngStream(0))
        assert trace.elite_decisions == 1
        assert trace.gamma_final == 0.1875
        trace = run_memoryless(self._staircase_cfg(36), obj, RngStream(0))
        assert trace.elite_decisions == 5
        assert trace.gamma_final == 0.0

    def test_gamma0_none_starts_at_first_value(self):
        obj = make_objective(self.CONSTANT_PROBLEM)
        # First sample sets gamma to its own value, so it is elite; the
        # cycle then repeats every 4 steps: elites at steps 1, 5, 9.
        trace = run_memoryless(self._staircase_cfg(9, gamma0=None), obj, RngStream(0))
        assert trace.elite_decisions == 3

    def test_engine_matches_pure_function_replay(self):
        obj = make_objective(ProblemSpec(kind="onemax", n=8))
        cfg = MemorylessConfig(N=20, rho=0.1, alpha=0.6, K=300, estimator="gauss_model")
        trace = run_memoryless(cfg, obj, RngStream(13))

        rng = RngStream(13)
        params = BernoulliParams.uniform_init(8)
        alpha1 = 0.6 / elite_count(20, 0.1)
        st = None
        elites = 0
        for t in range(300):
            bits = (rng.random(8) < params.probs).astype(np.uint8)
            v = float(obj.fn(bits))
            if st is None:
                st = cfg.initial_state(v)
            is_elite = v >= st.gamma
            if is_elite:
                params = online_update(bits, params, alpha1)
                elites += 1
            st = threshold_step(st, is_elite, 0.1)
            st = delta_update(st, v)
        assert np.array_equal(trace.final_params.probs, params.probs)
        assert trace.elite_decisions == elites
        assert trace.gamma_final == st.gamma
        assert trace.snapshots[-1].delta == st.delta

    def test_early_stop_opt_in(self):
        obj = make_objective(ProblemSpec(kind="onemax", n=4))
        cfg = MemorylessConfig(N=20, rho=0.1, alpha=1.0, K=50_000, eps_conv=0.05)
        trace = run_memoryless(cfg, obj, RngStream(8))
        assert trace.steps < 50_000
        final = trace.final_params.probs
        assert np.all((final <= 0.05) | (final >= 0.95))

    def test_deterministic(self):
        obj = make_objective(ProblemSpec(kind="onemax", n=10))
        cfg = MemorylessConfig(N=25, rho=0.2, alpha=0.6, K=400)
        a = run_memoryless(cfg, obj, RngStream(55))
        b = run_memoryless(cfg, obj, RngStream(55))
        assert np.array_equal(a.final_params.probs, b.final_params.probs)
        assert a.gamma_final == b.gamma_final


class TestRunThresholdStream:
    def test_matches_pure_function_replay(self):
        vals = RngStream(99).normal(0.0, 1.0, 500)
        # gamma = None starts the walk at the first value.
        for gamma in (float(vals[0]), None):
            st0 = ThresholdState(
                gamma=gamma, delta=0.0, estimator="gauss_model",
                beta=0.1, delta0=delta0_gauss(100, 0.1),
            )
            n_elite, fin = run_threshold_stream(vals, st0, 0.1)

            st = st0
            count = 0
            for v in vals.tolist():
                if st.gamma is None:
                    st = replace(st, gamma=v)
                is_elite = v >= st.gamma
                count += is_elite
                st = threshold_step(st, is_elite, 0.1)
                st = delta_update(st, v)
            assert n_elite == count
            assert fin.gamma == st.gamma
            assert fin.delta == st.delta
            assert fin.prev_value == st.prev_value

    def test_constant_estimator_keeps_delta(self):
        vals = RngStream(3).random(200)
        st0 = ThresholdState(gamma=0.5, delta=0.05, estimator="constant")
        _, fin = run_threshold_stream(vals, st0, 0.2)
        assert fin.delta == 0.05
        assert fin.prev_value is None

    def test_rho_domain(self):
        st = ThresholdState(gamma=0.0, delta=1.0)
        with pytest.raises(ValueError):
            run_threshold_stream(np.zeros(5), st, 0.0)

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_non_finite_value_rejected(self, estimator):
        # The constant walk would count NaN as non-elite; the model
        # estimators would carry it into delta.
        st = ThresholdState(gamma=0.0, delta=0.1, estimator=estimator)
        with pytest.raises(DomainError, match=r"non-finite value nan at draw 1$"):
            run_threshold_stream([1.0, math.nan, 3.0, 0.5], st, 0.1)
        with pytest.raises(DomainError, match=r"non-finite value -inf at draw 2$"):
            run_threshold_stream([1.0, 2.0, -math.inf, math.nan], st, 0.1)
