"""Generational engine: threshold rank, smoothed update, full runs."""

import numpy as np
import pytest

from cemkit import (
    BatchConfig,
    BernoulliParams,
    ConfigError,
    ProblemSpec,
    RngStream,
    batch_update,
    elite_count,
    elite_threshold,
    make_objective,
    run_batch,
)
from cemkit.batch import batch_generation


class TestEliteThreshold:
    def test_hand_examples(self):
        # ceil(0.4*5) = 2, 2nd largest of {9,7,7,3,1} is 7.
        assert elite_threshold([9, 7, 7, 3, 1], 0.4) == 7.0
        # ceil(0.01*5) = 1 floors at rank 1: the maximum.
        assert elite_threshold([9, 7, 7, 3, 1], 0.01) == 9.0

    def test_constant_list(self):
        assert elite_threshold([3.5] * 7, 0.3) == 3.5

    def test_empty(self):
        with pytest.raises(ValueError):
            elite_threshold([], 0.1)

    def test_matches_sort_oracle(self):
        # Duplicates count separately in the rank, same as a full
        # descending sort indexed at ceil(rho*N)-1.
        rng = np.random.default_rng(10)
        for _ in range(1000):
            size = int(rng.integers(1, 50))
            if rng.random() < 0.5:
                vals = rng.integers(0, 8, size) * 0.5  # heavy ties
            else:
                vals = rng.normal(0, 1, size)
            rho = float(rng.uniform(0.005, 0.99))
            expect = sorted(vals, reverse=True)[elite_count(size, rho) - 1]
            assert elite_threshold(vals, rho) == expect


class TestBatchUpdate:
    def test_hand_example(self):
        # Elite mean of (1,0,1) and (1,1,0) is (1, 0.5, 0.5);
        # 0.6*0.5 + 0.4*(1, 0.5, 0.5) = (0.7, 0.5, 0.5).
        elite = [np.array([1, 0, 1]), np.array([1, 1, 0])]
        p = BernoulliParams(np.array([0.5, 0.5, 0.5]))
        out = batch_update(elite, p, alpha=0.4, n_b=2)
        assert np.allclose(out.probs, [0.7, 0.5, 0.5], atol=1e-12)

    def test_truncates_to_n_b(self):
        # A third vector beyond rank n_b must not enter the mean.
        elite = [np.array([1, 1]), np.array([1, 1]), np.array([0, 0])]
        p = BernoulliParams(np.array([0.5, 0.5]))
        out = batch_update(elite, p, alpha=1.0, n_b=2)
        assert np.array_equal(out.probs, [1.0, 1.0])

    def test_errors(self):
        p = BernoulliParams(np.array([0.5]))
        with pytest.raises(ValueError):
            batch_update([], p, 0.5, 1)
        with pytest.raises(ValueError):
            batch_update([np.array([1])], p, 0.5, 0)
        with pytest.raises(ValueError):
            batch_update([np.array([1])], p, 0.5, 2)


class TestBatchGeneration:
    def test_deterministic(self):
        obj = make_objective(ProblemSpec(kind="onemax", n=8))
        p = BernoulliParams.uniform_init(8)
        a = batch_generation(p, obj, RngStream(5), N=30, rho=0.2, alpha=0.5)
        b = batch_generation(p, obj, RngStream(5), N=30, rho=0.2, alpha=0.5)
        assert np.array_equal(a.new_params.probs, b.new_params.probs)
        assert a.gamma == b.gamma
        assert a.best.value == b.best.value

    def test_gamma_is_elite_threshold(self):
        obj = make_objective(ProblemSpec(kind="onemax", n=10))
        p = BernoulliParams.uniform_init(10)
        gen = batch_generation(p, obj, RngStream(17), N=40, rho=0.15, alpha=0.5)
        bits = (RngStream(17).random((40, 10)) < p.probs).astype(np.uint8)
        values = obj.evaluate_many(bits)
        assert gen.gamma == elite_threshold(values, 0.15)
        assert gen.best.value == values.max()

    def test_elite_values_reevaluate(self):
        # The update must be the mean of the top n_b rows by value, each
        # value the objective of its row.
        obj = make_objective(ProblemSpec(kind="trap_k", n=10, k=5))
        p = BernoulliParams.uniform_init(10)
        gen = batch_generation(p, obj, RngStream(23), N=50, rho=0.1, alpha=0.7)
        bits = (RngStream(23).random((50, 10)) < p.probs).astype(np.uint8)
        values = np.array([obj(row) for row in bits])
        order = np.lexsort((np.arange(50), -values))
        n_b = elite_count(50, 0.1)
        assert (values[order[:n_b]] >= gen.gamma).all()
        expect = batch_update(list(bits[order[:n_b]]), p, 0.7, n_b)
        assert np.array_equal(gen.new_params.probs, expect.probs)
        assert gen.best.value == obj(gen.best.bits)

    def test_ties_break_by_draw_order(self):
        # A constant objective ties every sample, so the elite must be
        # exactly the first draws and gamma the shared value.
        obj = make_objective(ProblemSpec(kind="weighted_linear", n=3, weights=(0.0,) * 3))
        p = BernoulliParams.uniform_init(3)
        gen = batch_generation(p, obj, RngStream(1), N=5, rho=0.4, alpha=0.5, draw_base=10)
        bits = (RngStream(1).random((5, 3)) < p.probs).astype(np.uint8)
        first = batch_update(list(bits[:2]), p, 0.5, 2)
        assert np.array_equal(gen.new_params.probs, first.probs)
        # The check can tell the first two rows from any other pair.
        others = {batch_update([bits[i], bits[j]], p, 0.5, 2).probs.tobytes()
                  for i in range(5) for j in range(i + 1, 5) if (i, j) != (0, 1)}
        assert first.probs.tobytes() not in others
        assert gen.gamma == 0.0
        assert gen.best.draw_index == 10


class TestBatchConfig:
    def test_field_errors(self):
        good = dict(N=10, rho=0.1, alpha=0.5, T=5)
        for field, bad in [("N", 0), ("rho", 1.0), ("rho", 0.0), ("alpha", 0.0),
                           ("alpha", 1.5), ("T", 0), ("eps_conv", 0.6)]:
            with pytest.raises(ConfigError, match=f"^{field}:"):
                BatchConfig(**{**good, field: bad})

    def test_p0_must_be_interior(self):
        with pytest.raises(ConfigError, match="^p0:"):
            BatchConfig(N=10, rho=0.1, alpha=0.5, T=5,
                        p0=BernoulliParams(np.array([0.5, 1.0])))

    def test_alpha_one_allowed(self):
        BatchConfig(N=10, rho=0.1, alpha=1.0, T=5)


class TestRunBatch:
    def test_trace_accounting(self):
        obj = make_objective(ProblemSpec(kind="onemax", n=6))
        cfg = BatchConfig(N=20, rho=0.2, alpha=0.3, T=7, eps_conv=None)
        trace = run_batch(cfg, obj, RngStream(9))
        assert trace.variant == "batch"
        assert trace.steps == 7 * 20
        assert trace.update_count == 7
        assert trace.elite_decisions == 7 * elite_count(20, 0.2)
        # One snapshot at step 0 plus one per generation.
        assert [s.step for s in trace.snapshots] == [i * 20 for i in range(8)]
        assert trace.alpha1 == cfg.alpha

    def test_early_stop_on_absorption(self):
        # alpha = 1 replaces p with the elite mean each generation, so
        # components hit 0/1 fast on a tiny problem.
        obj = make_objective(ProblemSpec(kind="onemax", n=4))
        cfg = BatchConfig(N=30, rho=0.1, alpha=1.0, T=500, eps_conv=0.01)
        trace = run_batch(cfg, obj, RngStream(2))
        assert trace.steps < 500 * 30
        assert trace.snapshots[-1].step == trace.steps
        final = trace.final_params.probs
        assert np.all((final <= 0.01) | (final >= 0.99))

    def test_p0_dimension_mismatch(self):
        obj = make_objective(ProblemSpec(kind="onemax", n=6))
        cfg = BatchConfig(N=10, rho=0.1, alpha=0.5, T=2,
                          p0=BernoulliParams.uniform_init(5))
        with pytest.raises(ConfigError, match="^p0:"):
            run_batch(cfg, obj, RngStream(0))

    def test_deterministic_full_run(self):
        obj = make_objective(ProblemSpec(kind="onemax", n=10))
        cfg = BatchConfig(N=25, rho=0.2, alpha=0.6, T=10, eps_conv=None)
        a = run_batch(cfg, obj, RngStream(77))
        b = run_batch(cfg, obj, RngStream(77))
        assert np.array_equal(a.final_params.probs, b.final_params.probs)
        assert a.best.value == b.best.value
        assert a.first_hit_step == b.first_hit_step
