"""Benchmark objective families and the exhaustive optimum scan."""

import numpy as np
import pytest

from cemkit import (
    CapacityError,
    ConfigError,
    ProblemSpec,
    enumerate_optimum,
    make_objective,
)
from cemkit.objectives import KINDS


def test_kinds_registry():
    assert KINDS == ("onemax", "leading_ones", "weighted_linear", "trap_k", "maxcut")


class TestOneMax:
    def test_values(self):
        obj = make_objective(ProblemSpec(kind="onemax", n=5))
        assert obj([0, 0, 0, 0, 0]) == 0.0
        assert obj([1, 0, 1, 1, 0]) == 3.0

    def test_metadata(self):
        obj = make_objective(ProblemSpec(kind="onemax", n=5))
        assert np.array_equal(obj.optimal_bits, np.ones(5))
        assert obj.optimal_value == 5.0


class TestLeadingOnes:
    def test_values(self):
        obj = make_objective(ProblemSpec(kind="leading_ones", n=4))
        assert obj([1, 1, 0, 1]) == 2.0  # prefix stops at the first 0
        assert obj([0, 1, 1, 1]) == 0.0
        assert obj([1, 1, 1, 1]) == 4.0

    def test_batch_matches_single(self):
        obj = make_objective(ProblemSpec(kind="leading_ones", n=7))
        batch = (np.random.default_rng(2).random((40, 7)) < 0.5).astype(np.uint8)
        assert np.array_equal(obj.evaluate_many(batch), [obj(r) for r in batch])


class TestWeightedLinear:
    def test_values_and_metadata(self):
        obj = make_objective(
            ProblemSpec(kind="weighted_linear", n=3, weights=(2.0, -1.0, 0.5))
        )
        assert obj([1, 1, 1]) == pytest.approx(1.5, abs=1e-12)
        # Maximizer sets exactly the positive coefficients.
        assert np.array_equal(obj.optimal_bits, [1, 0, 1])
        assert obj.optimal_value == pytest.approx(2.5, abs=1e-12)

    def test_zero_weight_gets_bit_zero(self):
        obj = make_objective(ProblemSpec(kind="weighted_linear", n=2, weights=(0.0, 1.0)))
        assert np.array_equal(obj.optimal_bits, [0, 1])

    def test_weights_required_and_sized(self):
        with pytest.raises(ConfigError, match="^weights:"):
            make_objective(ProblemSpec(kind="weighted_linear", n=3))
        with pytest.raises(ConfigError, match="^weights:"):
            make_objective(ProblemSpec(kind="weighted_linear", n=3, weights=(1.0, 2.0)))


class TestTrapK:
    def test_block_scores(self):
        obj = make_objective(ProblemSpec(kind="trap_k", n=10, k=5))
        assert obj([1] * 10) == 10.0
        # All-zero block scores k-1 = 4, so zeros give 8.
        assert obj([0] * 10) == 8.0
        # One block full (5), other with 3 ones scores 5-1-3 = 1.
        assert obj([1, 1, 1, 1, 1, 1, 1, 1, 0, 0]) == 6.0

    def test_deceptive_neighborhood(self):
        # Every single-bit flip away from all-zeros scores worse: the
        # local gradient points away from the global optimum.
        obj = make_objective(ProblemSpec(kind="trap_k", n=10, k=5))
        base = obj([0] * 10)
        for i in range(10):
            bits = np.zeros(10, dtype=np.uint8)
            bits[i] = 1
            assert obj(bits) < base

    def test_metadata(self):
        obj = make_objective(ProblemSpec(kind="trap_k", n=10, k=5))
        assert np.array_equal(obj.optimal_bits, np.ones(10))
        assert obj.optimal_value == 10.0

    def test_k_validation(self):
        with pytest.raises(ConfigError, match="^k:"):
            make_objective(ProblemSpec(kind="trap_k", n=10))
        with pytest.raises(ConfigError, match="^k:"):
            make_objective(ProblemSpec(kind="trap_k", n=10, k=1))
        with pytest.raises(ConfigError, match="^k:"):
            make_objective(ProblemSpec(kind="trap_k", n=10, k=3))


class TestMaxCut:
    TRIANGLE = ((0, 1), (1, 2), (0, 2))

    def test_cut_values(self):
        obj = make_objective(ProblemSpec(kind="maxcut", n=3, edges=self.TRIANGLE))
        assert obj([0, 0, 0]) == 0.0
        assert obj([0, 1, 0]) == 2.0  # edges (0,1) and (1,2) cross

    def test_enumerated_metadata(self):
        # A triangle cannot have all 3 edges cut; the best is 2.
        obj = make_objective(ProblemSpec(kind="maxcut", n=3, edges=self.TRIANGLE))
        assert obj.optimal_value == 2.0
        assert obj(obj.optimal_bits) == 2.0

    @pytest.mark.parametrize("n", [2, 3, 8, 11, 17])
    def test_metadata_equals_full_scan(self, n):
        # Every cut ties with its complement, so this also checks that
        # the lexicographically smallest maximizer is kept. Repeated and
        # reversed edges count as often as they are listed; n=17 spans
        # several blocks of the split table.
        rng = np.random.default_rng(n)
        for _ in range(4):
            pairs = [tuple(int(v) for v in rng.choice(n, 2, replace=False)) for _ in range(2 * n)]
            obj = make_objective(ProblemSpec(kind="maxcut", n=n, edges=tuple(pairs)))
            bits, value = enumerate_optimum(obj)
            assert np.array_equal(obj.optimal_bits, bits)
            assert obj.optimal_value == value

    def test_large_n_skips_enumeration(self):
        obj = make_objective(ProblemSpec(kind="maxcut", n=26, edges=((0, 25),)))
        assert obj.optimal_bits is None and obj.optimal_value is None
        assert obj([0] * 25 + [1]) == 1.0

    def test_edge_validation(self):
        with pytest.raises(ConfigError, match="^edges:"):
            make_objective(ProblemSpec(kind="maxcut", n=3))
        with pytest.raises(ConfigError, match="^edges:"):
            make_objective(ProblemSpec(kind="maxcut", n=3, edges=((0, 0),)))
        with pytest.raises(ConfigError, match="^edges:"):
            make_objective(ProblemSpec(kind="maxcut", n=3, edges=((0, 3),)))
        with pytest.raises(ConfigError, match="^edges:"):
            make_objective(ProblemSpec(kind="maxcut", n=3, edges=((0, 1, 2),)))


@pytest.mark.parametrize(
    "spec, key",
    [
        (ProblemSpec(kind="onemax", n=6, k=3), "k"),
        (ProblemSpec(kind="onemax", n=6, weights=(1.0, 2.0)), "weights"),
        (ProblemSpec(kind="leading_ones", n=4, edges=((0, 1),)), "edges"),
        (ProblemSpec(kind="maxcut", n=4, edges=((0, 1),), k=2), "k"),
        (ProblemSpec(kind="trap_k", n=4, k=2, weights=(1.0,) * 4), "weights"),
        (ProblemSpec(kind="weighted_linear", n=2, weights=(1.0, 2.0), edges=()), "edges"),
    ],
)
def test_keys_of_another_kind_rejected(spec, key):
    with pytest.raises(ConfigError, match=f"^{key}: only "):
        make_objective(spec)


def test_unknown_kind_and_bad_n():
    with pytest.raises(ConfigError, match="^kind:"):
        make_objective(ProblemSpec(kind="twomax", n=5))
    with pytest.raises(ConfigError, match="^n:"):
        make_objective(ProblemSpec(kind="onemax", n=0))


class TestEnumerateOptimum:
    def test_matches_analytic_optimum(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            w = tuple(float(x) for x in rng.normal(0, 1, 10))
            obj = make_objective(ProblemSpec(kind="weighted_linear", n=10, weights=w))
            bits, value = enumerate_optimum(obj)
            assert np.array_equal(bits, obj.optimal_bits)
            assert value == pytest.approx(obj.optimal_value, abs=1e-12)

    def test_tie_breaks_lexicographically_smallest(self):
        # All-zero weights tie every vector at 0; the scan must return
        # the all-zero vector, not an arbitrary winner.
        obj = make_objective(ProblemSpec(kind="weighted_linear", n=3, weights=(0.0, 0.0, 0.0)))
        bits, value = enumerate_optimum(obj)
        assert np.array_equal(bits, [0, 0, 0])
        assert value == 0.0

    def test_spans_chunk_boundaries(self):
        # n=15 forces multiple enumeration chunks; plant the optimum in
        # a late chunk via leading_ones (optimum is the last integer).
        obj = make_objective(ProblemSpec(kind="leading_ones", n=15))
        bits, value = enumerate_optimum(obj)
        assert np.array_equal(bits, np.ones(15))
        assert value == 15.0

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            enumerate_optimum(make_objective(ProblemSpec(kind="onemax", n=25)))


def _rows(n, seed, per_density=50):
    """Random rows at several densities, plus all-zeros and all-ones."""
    rng = np.random.default_rng(seed)
    dense = [(rng.random((per_density, n)) < p).astype(np.uint8) for p in (0.1, 0.5, 0.9, 0.99)]
    return np.vstack([np.zeros((1, n), np.uint8), np.ones((1, n), np.uint8), *dense])


@pytest.mark.parametrize(
    "spec",
    [
        ProblemSpec(kind="onemax", n=1),
        ProblemSpec(kind="onemax", n=100),
        ProblemSpec(kind="leading_ones", n=1),
        ProblemSpec(kind="leading_ones", n=13),
        ProblemSpec(kind="leading_ones", n=100),
        ProblemSpec(kind="trap_k", n=2, k=2),
        ProblemSpec(kind="trap_k", n=10, k=5),
        ProblemSpec(kind="trap_k", n=12, k=3),
        ProblemSpec(kind="trap_k", n=40, k=8),
        ProblemSpec(kind="trap_k", n=100, k=5),
        # The single-row trap kernel widens its byte lanes as k grows:
        # one byte up to k=128, two from k=129, so k=255 and k=256 too.
        ProblemSpec(kind="trap_k", n=256, k=128),
        ProblemSpec(kind="trap_k", n=258, k=129),
        ProblemSpec(kind="trap_k", n=510, k=255),
        ProblemSpec(kind="trap_k", n=512, k=256),
        ProblemSpec(kind="trap_k", n=1000, k=4),
        ProblemSpec(kind="trap_k", n=64, k=2),
        # Wide enough that masks built by summing one term per block or
        # per lane would take seconds.
        ProblemSpec(kind="trap_k", n=200_000, k=2),
        ProblemSpec(kind="maxcut", n=10, edges=((0, 1), (1, 2), (2, 9), (3, 7), (4, 5), (9, 0))),
        ProblemSpec(kind="maxcut", n=30, edges=tuple((i, (7 * i + 3) % 30) for i in range(30))),
        # Repeated and reversed edges count as often as listed; vertex 7
        # is on no edge.
        ProblemSpec(
            kind="maxcut", n=8, edges=((0, 1), (1, 0), (0, 1), (2, 5), (5, 2), (3, 4), (6, 3))
        ),
    ],
    ids=lambda s: f"{s.kind}_{s.n}" + (f"_k{s.k}" if s.k else ""),
)
def test_fn_equals_batch_fn_bit_for_bit(spec):
    # The online engines evaluate with fn, the batch engine with batch_fn:
    # for the integer-valued families the two must give the same floats.
    obj = make_objective(spec)
    # Five rows per density keep the widest case's batch temporaries small.
    rows = _rows(spec.n, spec.n, 50 if spec.n <= 1000 else 5)
    single = np.array([obj.fn(r) for r in rows], dtype=np.float64)
    assert np.array_equal(single, obj.batch_fn(rows))


@pytest.mark.parametrize("k", [2, 5, 128, 129, 255, 256])
def test_trap_fn_at_the_full_block_boundary(k):
    # A block's count lane sits exactly at the full mark when it holds k
    # ones and one below it with k - 1: every block at k - 1, every block
    # at k, and the two alternating, with the zero of a k - 1 block at
    # every offset in turn. One-byte lanes up to k=128, two from k=129.
    blocks = 6
    n = blocks * k
    obj = make_objective(ProblemSpec(kind="trap_k", n=n, k=k))
    shapes = {"all k-1": [False] * blocks, "all k": [True] * blocks,
              "k first": [m % 2 == 0 for m in range(blocks)],
              "k-1 first": [m % 2 == 1 for m in range(blocks)]}
    for name, full in shapes.items():
        rows = np.ones((k, n), np.uint8)
        for r in range(k):
            for m in range(blocks):
                if not full[m]:
                    rows[r, m * k + (r + m) % k] = 0
        single = np.array([obj.fn(row) for row in rows], dtype=np.float64)
        assert np.array_equal(single, obj.batch_fn(rows)), name
        assert np.all(single == k * sum(full)), name


@pytest.mark.parametrize(
    "spec",
    [
        ProblemSpec(kind="onemax", n=12),
        ProblemSpec(kind="leading_ones", n=12),
        ProblemSpec(kind="weighted_linear", n=12, weights=tuple(range(-6, 6))),
        ProblemSpec(kind="trap_k", n=12, k=3),
        ProblemSpec(kind="trap_k", n=12, k=12),
        ProblemSpec(kind="maxcut", n=12, edges=tuple((i, (5 * i + 1) % 12) for i in range(12))),
    ],
    ids=lambda s: f"{s.kind}_{s.n}" + (f"_k{s.k}" if s.k else ""),
)
def test_fn_takes_any_form_of_a_0_1_row(spec):
    # fn reads a row's bytes: every form of the same 0/1 row must give
    # the value of its contiguous uint8 form.
    obj = make_objective(spec)
    rows = _rows(spec.n, 7)
    fortran = np.asfortranarray(rows)
    strided = np.zeros((len(rows), 2 * spec.n), np.uint8)
    strided[:, ::2] = rows
    for i, row in enumerate(rows):
        expected = obj.fn(row)
        forms = [
            row.astype(bool),
            row.astype(np.int64),
            row.tolist(),
            fortran[i],
            strided[i, ::2],
        ]
        assert not forms[3].flags.contiguous and not forms[4].flags.contiguous
        for form in forms:
            value = obj.fn(form)
            assert type(value) is float and value == expected


def test_weighted_linear_fn_and_batch_fn_agree_within_rounding():
    w = tuple(float(x) for x in np.random.default_rng(5).normal(size=100))
    obj = make_objective(ProblemSpec(kind="weighted_linear", n=100, weights=w))
    rows = _rows(100, 6)
    single = np.array([obj.fn(r) for r in rows])
    assert np.allclose(single, obj.batch_fn(rows), rtol=1e-12, atol=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "weights",
    [(1e308, 1e308, 1.0), (-1e308, 1.0, -1e308), (1.0, float("nan"), 2.0), (float("inf"), 0.0, 1.0)],
)
def test_weights_with_non_finite_extremes_rejected(weights):
    with pytest.raises(ConfigError, match="^weights:"):
        make_objective(ProblemSpec(kind="weighted_linear", n=3, weights=weights))
