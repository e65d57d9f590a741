"""Core types: parameter vectors, sampling, objectives, seeded streams."""

import numpy as np
import pytest

from cemkit import (
    BatchConfig,
    BernoulliParams,
    ConfigError,
    DimensionError,
    MemorylessConfig,
    Objective,
    RngStream,
    draw_sample,
    elite_count,
    enumerate_optimum,
    is_binary_converged,
    make_objective,
    negated,
    ProblemSpec,
)
from cemkit import window
from cemkit.model import OnlineConfig, RunSettings, is_absorbed
from cemkit.trace import TraceRecorder


class TestBernoulliParams:
    def test_valid_vector(self):
        p = BernoulliParams(np.array([0.0, 0.5, 1.0]))
        assert p.n == 3
        assert p.probs.dtype == np.float64

    def test_copies_input(self):
        src = np.array([0.1, 0.2])
        p = BernoulliParams(src)
        src[0] = 0.9
        assert p.probs[0] == 0.1

    def test_readonly(self):
        p = BernoulliParams(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            p.probs[0] = 0.3

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            BernoulliParams(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            BernoulliParams(np.array([]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            BernoulliParams(np.array([-0.1, 0.5]))
        with pytest.raises(ValueError):
            BernoulliParams(np.array([0.5, 1.1]))
        with pytest.raises(ValueError):
            BernoulliParams(np.array([0.5, np.nan]))

    def test_uniform_init(self):
        p = BernoulliParams.uniform_init(4)
        assert np.array_equal(p.probs, np.full(4, 0.5))
        with pytest.raises(ValueError):
            BernoulliParams.uniform_init(0)


class TestRngStream:
    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            RngStream(-1)

    @pytest.mark.parametrize("seed", [3.7, "5", True])
    def test_rejects_a_seed_that_is_not_an_integer(self, seed):
        # int() would turn these into 3, 5 and 1: other seeds' streams.
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            RngStream(seed)

    def test_numpy_integer_seed(self):
        assert np.array_equal(RngStream(np.int64(7)).random(10), RngStream(7).random(10))

    def test_same_seed_same_stream(self):
        a = RngStream(7).random(100)
        b = RngStream(7).random(100)
        assert np.array_equal(a, b)

    def test_matrix_draw_matches_sequential(self):
        # Engines draw (N, n) matrices in one call; replicating a run
        # sample by sample must consume the stream identically.
        mat = RngStream(11).random((5, 8))
        seq = RngStream(11)
        rows = np.stack([seq.random(8) for _ in range(5)])
        assert np.array_equal(mat, rows)


class TestDrawSample:
    def test_deterministic(self):
        p = BernoulliParams(np.array([0.3, 0.6, 0.9]))
        x = draw_sample(p, RngStream(3))
        y = draw_sample(p, RngStream(3))
        assert np.array_equal(x, y)
        assert x.dtype == np.uint8

    def test_degenerate_probabilities(self):
        # random() is in [0, 1), so p=1 always fires and p=0 never does.
        p = BernoulliParams(np.array([1.0, 0.0, 1.0, 0.0]))
        rng = RngStream(0)
        for _ in range(50):
            assert np.array_equal(draw_sample(p, rng), [1, 0, 1, 0])

    def test_empirical_mean(self):
        rng0 = np.random.default_rng(42)
        probs = rng0.uniform(0.05, 0.95, 20)
        p = BernoulliParams(probs)
        rng = RngStream(1234)
        total = np.zeros(20)
        m = 100_000
        for _ in range(m):
            total += draw_sample(p, rng)
        # 4 sigma at p=0.5 and m=1e5 is about 0.0063.
        assert np.all(np.abs(total / m - probs) < 0.01)


class TestObjective:
    def test_evaluate_many_matches_single(self):
        obj = make_objective(ProblemSpec(kind="onemax", n=6))
        batch = (np.random.default_rng(5).random((20, 6)) < 0.5).astype(np.uint8)
        vals = obj.evaluate_many(batch)
        assert np.array_equal(vals, [obj(row) for row in batch])

    def test_evaluate_many_without_batch_fn(self):
        obj = Objective(name="parity", n=3, fn=lambda x: float(np.sum(x) % 2))
        vals = obj.evaluate_many([[1, 1, 0], [1, 0, 0]])
        assert np.array_equal(vals, [0.0, 1.0])

    def test_evaluate_many_shape_check(self):
        obj = make_objective(ProblemSpec(kind="onemax", n=4))
        with pytest.raises(DimensionError):
            obj.evaluate_many(np.zeros((3, 5), dtype=np.uint8))
        with pytest.raises(DimensionError):
            obj.evaluate_many(np.zeros(4, dtype=np.uint8))

    def test_evaluate_many_rejects_values_of_another_shape(self):
        # One value too many used to pass, and enumerate_optimum then
        # reported 99.0, which no row has.
        def one_too_many(rows):
            return np.append(rows.sum(axis=1), 99.0)

        def pairs(x):
            return np.array([1.0, 2.0])

        for obj in (
            Objective(name="extra", n=3, fn=lambda x: float(np.sum(x)), batch_fn=one_too_many),
            Objective(name="pairs", n=3, fn=pairs),
        ):
            with pytest.raises(DimensionError, match=f"^{obj.name}: 2 rows gave values of shape"):
                obj.evaluate_many(np.zeros((2, 3), dtype=np.uint8))
            with pytest.raises(DimensionError, match=f"^{obj.name}: "):
                enumerate_optimum(obj)

    def test_negated_flips_values_and_drops_metadata(self):
        obj = make_objective(ProblemSpec(kind="onemax", n=3))
        neg = negated(obj)
        assert neg([1, 1, 0]) == -2.0
        assert np.array_equal(neg.evaluate_many([[1, 1, 1]]), [-3.0])
        assert neg.optimal_bits is None and neg.optimal_value is None


class TestIsBinaryConverged:
    def test_detects_absorption(self):
        assert is_binary_converged(BernoulliParams(np.array([0.0005, 0.9999])), 1e-3)
        assert not is_binary_converged(BernoulliParams(np.array([0.0005, 0.9])), 1e-3)

    def test_is_absorbed_matches_the_all_form(self):
        # The engines' early-stop test against the definition, with
        # entries at 0, 1, exactly eps and 1 - eps and just inside them.
        rng = np.random.default_rng(3)
        for eps in (1e-6, 1e-3, 0.1, 0.49):
            edge = np.array([0.0, 1.0, eps, 1.0 - eps, np.nextafter(eps, 1.0),
                             np.nextafter(1.0 - eps, 0.0), 0.5])
            for _ in range(200):
                p = rng.choice(edge, size=int(rng.integers(1, 6)))
                expected = bool(np.all((p <= eps) | (p >= 1.0 - eps)))
                assert is_absorbed(p, eps) is expected
                assert is_binary_converged(BernoulliParams(p), eps) is expected

    def test_eps_domain(self):
        p = BernoulliParams(np.array([0.5]))
        for eps in (0.0, 0.5, -0.1, 1.0):
            with pytest.raises(ValueError):
                is_binary_converged(p, eps)


class TestEliteCount:
    def test_hand_values(self):
        assert elite_count(100, 0.1) == 10
        assert elite_count(5, 0.4) == 2
        assert elite_count(3, 0.5) == 2   # ceil(1.5)
        assert elite_count(10, 0.01) == 1  # floor at 1

    def test_float_product_slop(self):
        # 0.07 * 100 = 7.000000000000001 in floats; must not round to 8.
        assert elite_count(100, 0.07) == 7
        assert elite_count(1000, 0.003) == 3

    def test_domain(self):
        with pytest.raises(ValueError):
            elite_count(0, 0.1)
        with pytest.raises(ValueError):
            elite_count(10, 0.0)
        with pytest.raises(ValueError):
            elite_count(10, 1.0)


class TestRunSettings:
    # N=20, rho=0.1: ceil(rho*N) = 2 elite samples per window or generation.
    ENGINES = {
        "batch": lambda **kw: BatchConfig(N=20, rho=0.1, alpha=0.6, T=5, **kw),
        "window": lambda **kw: OnlineConfig(N=20, rho=0.1, alpha=0.6, K=100, **kw),
        "memoryless": lambda **kw: MemorylessConfig(N=20, rho=0.1, alpha=0.6, K=100, **kw),
    }

    def test_every_engine_config_is_run_settings(self):
        assert window.OnlineConfig is OnlineConfig
        for make in self.ENGINES.values():
            assert isinstance(make(), RunSettings)
        with pytest.raises(TypeError):
            OnlineConfig(20, 0.1, 0.6, 100)

    def test_alpha1(self):
        # Batch moves by alpha once per generation; the online variants
        # by alpha/ceil(rho*N) per elite sample.
        assert self.ENGINES["batch"]().alpha1 == 0.6
        assert self.ENGINES["window"]().alpha1 == 0.6 / 2
        assert self.ENGINES["memoryless"]().alpha1 == 0.6 / 2

    def test_stride(self):
        assert self.ENGINES["batch"]().stride == 20
        for variant in ("window", "memoryless"):
            assert self.ENGINES[variant]().stride == 20
            assert self.ENGINES[variant](snapshot_stride=7).stride == 7

    @pytest.mark.parametrize("variant", ["batch", "window", "memoryless"])
    def test_start_builds_the_class_passed_in(self, variant):
        class Recorder(TraceRecorder):
            pass

        obj = make_objective(ProblemSpec(kind="onemax", n=6))
        cfg = self.ENGINES[variant]()
        rec = cfg.start(variant, obj, Recorder)
        assert type(rec) is Recorder
        assert np.array_equal(rec.p0.probs, np.full(6, 0.5))
        assert (rec.variant, rec.rho, rec.alpha) == (variant, 0.1, 0.6)
        assert (rec.alpha1, rec.stride) == (cfg.alpha1, cfg.stride)
        assert rec.optimal_value == 6.0
        p0 = BernoulliParams(np.linspace(0.2, 0.8, 6))
        assert self.ENGINES[variant](p0=p0).start(variant, obj, Recorder).p0 is p0

    @pytest.mark.parametrize("variant", ["batch", "window", "memoryless"])
    def test_start_rejects_a_p0_of_another_dimension(self, variant):
        obj = make_objective(ProblemSpec(kind="onemax", n=6))
        cfg = self.ENGINES[variant](p0=BernoulliParams.uniform_init(5))
        with pytest.raises(ConfigError, match="^p0: dimension 5 does not match objective dimension 6$"):
            cfg.start(variant, obj, TraceRecorder)
