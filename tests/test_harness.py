"""Experiment harness: config plumbing, replicate execution, tables."""

import json
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cemkit import harness
from cemkit import (
    BatchConfig,
    ConfigError,
    ExperimentConfig,
    MemorylessConfig,
    OnlineConfig,
    ProblemSpec,
    ResultRow,
    SweepRow,
    CompareRow,
    alpha_sweep,
    compare_variants,
    load_config,
    miss_probability_bound,
    parse_config,
    run_experiment,
    run_variant,
    wilson_interval,
)
from cemkit.harness import (
    _variant_config,
    compare_to_csv,
    compare_to_json,
    config_to_dict,
    default_config_dict,
    results_to_csv,
    results_to_json,
    sweep_to_csv,
    sweep_to_json,
)
from cemkit.memoryless import DELTA0_MODES, ESTIMATORS
from cemkit.model import RngStream, elite_count
from cemkit.objectives import make_objective

ONEMAX6 = {"problem": {"kind": "onemax", "n": 6}}

# (variant, key, out-of-range value, message): keys the variant does not read.
UNREAD_KEYS = [
    ("batch", "snapshot_stride", -5, "snapshot_stride: must be >= 1, got -5"),
    ("batch", "K", 0, "K: must be >= 1, got 0"),
    ("window", "T", -3, "T: must be >= 1, got -3"),
    ("memoryless", "T", 0, "T: must be >= 1, got 0"),
    ("batch", "estimator", "bogus", "estimator: unknown estimator 'bogus'"),
    ("window", "estimator", "bogus", "estimator: unknown estimator 'bogus'"),
    ("batch", "beta", 7.0, "beta: must be in [0,1], got 7.0"),
    ("window", "beta", 7.0, "beta: must be in [0,1], got 7.0"),
    ("batch", "delta0_mode", "weird", "delta0_mode: unknown mode 'weird'"),
    ("window", "delta0_mode", "weird", "delta0_mode: unknown mode 'weird'"),
]


def _fast(**kw):
    base = dict(
        problem=ProblemSpec(kind="onemax", n=6),
        variant="batch", N=20, rho=0.1, alpha=0.7, T=5, K=100,
        replicates=3, base_seed=77,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def _finite(lo, hi, **kw):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, **kw)


def _maybe(strategy):
    return st.none() | strategy


@st.composite
def _problems(draw):
    kind = draw(st.sampled_from(["onemax", "leading_ones", "weighted_linear", "trap_k", "maxcut"]))
    if kind == "trap_k":
        k = draw(st.integers(2, 4))
        return ProblemSpec(kind=kind, n=k * draw(st.integers(1, 3)), k=k)
    if kind == "maxcut":
        n = draw(st.integers(2, 8))
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
        return ProblemSpec(kind=kind, n=n, edges=tuple(draw(st.lists(pairs, min_size=1, max_size=10))))
    n = draw(st.integers(1, 12))
    if kind == "weighted_linear":
        weights = draw(st.lists(_finite(-1e6, 1e6), min_size=n, max_size=n))
        return ProblemSpec(kind=kind, n=n, weights=tuple(weights))
    return ProblemSpec(kind=kind, n=n)


@st.composite
def _configs(draw):
    """Valid ExperimentConfigs of every variant (memoryless needs N*rho > 1,
    and an online variant's step alpha/ceil(rho*N) must not underflow
    to 0.0)."""
    estimator = draw(st.sampled_from(ESTIMATORS))
    variant = draw(st.sampled_from(["batch", "window", "memoryless"]))
    N, rho = draw(st.integers(20, 500)), draw(_finite(0.06, 0.95))
    alphas = _finite(0.0, 1.0, exclude_min=True)
    if variant != "batch":
        alphas = alphas.filter(lambda a: a / elite_count(N, rho) > 0.0)
    return ExperimentConfig(
        problem=draw(_problems()),
        variant=variant,
        N=N,
        rho=rho,
        alpha=draw(alphas),
        T=draw(st.integers(1, 1000)),
        K=draw(st.integers(1, 100_000)),
        replicates=draw(st.integers(1, 1000)),
        base_seed=draw(st.integers(0, 2**63)),
        estimator=estimator,
        beta=draw(_finite(0.0, 1.0)),
        gamma0=draw(_maybe(_finite(-1e9, 1e9))),
        delta0=draw(_finite(0.0, 1e3, exclude_min=True) if estimator == "constant"
                    else _maybe(_finite(0.0, 1e3, exclude_min=True))),
        delta0_mode=draw(st.sampled_from(DELTA0_MODES)),
        delta_init=draw(_finite(0.0, 1e3)),
        delta_min=draw(_finite(0.0, 1e3)),
        eps_conv=draw(_maybe(_finite(0.0, 0.5, exclude_min=True, exclude_max=True))),
        eps_binary=draw(_finite(0.0, 0.5, exclude_min=True, exclude_max=True)),
        snapshot_stride=draw(_maybe(st.integers(1, 1000))),
        alphas=draw(_maybe(st.lists(_finite(0.0, 1.0, exclude_min=True), min_size=1, max_size=4).map(tuple))),
        jobs=draw(st.integers(1, 8)),
        output_path=draw(_maybe(st.text(max_size=12))),
        output_format=draw(st.sampled_from(["csv", "json"])),
    )


class TestParseConfig:
    def test_minimal_fills_defaults(self):
        cfg = parse_config(ONEMAX6)
        assert cfg.variant == "batch"
        assert cfg.N == 100 and cfg.rho == 0.1 and cfg.alpha == 0.7
        assert cfg.replicates == 100 and cfg.base_seed == 12345
        assert cfg.estimator == "gauss_model"
        assert cfg.output_format == "csv"

    def test_unknown_key_is_an_error(self):
        with pytest.raises(ConfigError, match="alpa"):
            parse_config({**ONEMAX6, "alpa": 0.5})

    def test_unknown_problem_key(self):
        with pytest.raises(ConfigError, match="m_edges"):
            parse_config({"problem": {"kind": "onemax", "n": 6, "m_edges": 3}})

    def test_problem_required(self):
        with pytest.raises(ConfigError, match="^problem:"):
            parse_config({"variant": "batch"})

    def test_problem_must_be_object(self):
        with pytest.raises(ConfigError, match="^problem:"):
            parse_config({"problem": "onemax"})

    def test_output_block(self):
        cfg = parse_config({**ONEMAX6, "output": {"path": "x.csv", "format": "json"}})
        assert cfg.output_path == "x.csv"
        assert cfg.output_format == "json"
        with pytest.raises(ConfigError, match="^output:"):
            parse_config({**ONEMAX6, "output": "x.csv"})
        with pytest.raises(ConfigError, match="^output:"):
            parse_config({**ONEMAX6, "output": {"file": "x.csv"}})

    def test_variant_validation(self):
        with pytest.raises(ConfigError, match="^variant:"):
            parse_config({**ONEMAX6, "variant": "genetic"})

    def test_engine_constraints_surface_at_parse(self):
        # The memoryless N > 1/rho rule must reject the config here,
        # not halfway through replicate 0.
        with pytest.raises(ConfigError, match="^N:"):
            parse_config({**ONEMAX6, "variant": "memoryless", "N": 5, "rho": 0.1})

    def test_problem_constraints_surface_at_parse(self):
        with pytest.raises(ConfigError, match="^k:"):
            parse_config({"problem": {"kind": "trap_k", "n": 10, "k": 3}})

    def test_alphas_validated(self):
        with pytest.raises(ConfigError, match="^alphas:"):
            parse_config({**ONEMAX6, "alphas": []})
        with pytest.raises(ConfigError, match="^alphas:"):
            parse_config({**ONEMAX6, "alphas": [0.5, 0.0]})

    def test_weights_and_edges_coerced(self):
        cfg = parse_config(
            {"problem": {"kind": "maxcut", "n": 3, "edges": [[0, 1], [1, 2]]}}
        )
        assert cfg.problem.edges == ((0, 1), (1, 2))

    @pytest.mark.parametrize(
        "patch, field",
        [
            ({"N": 100.7}, "N"),
            ({"replicates": True}, "replicates"),
            ({"T": "5"}, "T"),
            ({"base_seed": 3.5}, "base_seed"),
            ({"alphas": "0.5"}, "alphas"),
            ({"N": None}, "N"),
            ({"output": None}, "output"),
            ({"problem": {"kind": "onemax", "n": 6.9}}, "n"),
            ({"problem": {"kind": "maxcut", "n": 3, "edges": [[0, 1, 2]]}}, "edges"),
            ({"problem": {"kind": "weighted_linear", "n": 2, "weights": "12"}}, "weights"),
            ({"estimator": 3}, "estimator"),
            ({"variant": "memoryless", "N": 20, "delta_init": float("nan")}, "delta_init"),
            (
                {"variant": "memoryless", "N": 20, "estimator": "constant", "delta0": float("nan")},
                "delta0",
            ),
            ({"delta_min": float("inf")}, "delta_min"),
        ],
    )
    def test_strict_coercion_names_the_field(self, patch, field):
        # No silent int()/float() casts: a bool, a fractional or string
        # number, a null or a non-finite float is an error naming the field.
        with pytest.raises(ConfigError, match=f"^{field}:"):
            parse_config({**ONEMAX6, **patch})

    @pytest.mark.parametrize(
        "variant, key, value, message",
        [pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in UNREAD_KEYS],
    )
    def test_keys_the_variant_does_not_read_are_checked(self, variant, key, value, message):
        # Same text as the engine config that reads the key.
        with pytest.raises(ConfigError) as exc:
            parse_config({**ONEMAX6, "variant": variant, key: value})
        assert str(exc.value) == message

    def test_cross_field_rules_stay_with_memoryless(self):
        # N > 1/rho and the constant estimator's delta0 bind only the
        # memoryless variant.
        for variant in ("batch", "window"):
            parse_config({**ONEMAX6, "variant": variant, "N": 5, "estimator": "constant"})

    def test_every_engine_field_is_a_config_key(self):
        # _variant_config fills an engine config from the keys of the same
        # name; p0 alone has no key (the start is always all-0.5).
        keys = {f.name for f in fields(ExperimentConfig)}
        for cls in (BatchConfig, OnlineConfig, MemorylessConfig):
            assert {f.name for f in fields(cls)} - keys == {"p0"}

    def test_whole_numbers_accepted(self):
        cfg = parse_config({**ONEMAX6, "alpha": 1, "N": 100.0})
        assert cfg.alpha == 1.0 and type(cfg.alpha) is float
        assert cfg.N == 100 and type(cfg.N) is int


class TestLoadConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(p))

    def test_round_trip(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({**ONEMAX6, "variant": "window", "K": 400}))
        cfg = load_config(str(p))
        assert cfg.variant == "window" and cfg.K == 400


class TestConfigDict:
    def test_round_trips_through_parse(self):
        cfg = _fast(variant="memoryless", delta0=0.3, estimator="constant")
        assert parse_config(config_to_dict(cfg)) == cfg

    def test_default_dump_is_parseable(self):
        assert parse_config(default_config_dict()).problem.kind == "onemax"

    @settings(max_examples=60, deadline=None)
    @given(cfg=_configs())
    def test_round_trip_property(self, cfg):
        assert parse_config(config_to_dict(cfg)) == cfg
        assert parse_config(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

    def test_batch_eps_conv_fallback(self):
        # Batch runs always stop on full absorption unless told otherwise.
        vc = _variant_config(_fast(eps_conv=None))
        assert vc.eps_conv == 1e-6
        vc = _variant_config(_fast(eps_conv=1e-2))
        assert vc.eps_conv == 1e-2


class TestRunExperiment:
    def test_rows_and_seeding(self):
        rows = run_experiment(_fast())
        assert [r.replicate for r in rows] == [0, 1, 2]
        assert [r.seed for r in rows] == [77, 78, 79]
        assert all(r.variant == "batch" for r in rows)
        assert all(r.steps <= 5 * 20 for r in rows)
        assert all(r.wall_clock >= 0.0 for r in rows)
        assert all(r.envelope_violations == 0 for r in rows)

    def test_deterministic_modulo_wall_clock(self):
        def strip(rows):
            return [
                {k: v for k, v in vars(r).items() if k != "wall_clock"} for r in rows
            ]

        assert strip(run_experiment(_fast())) == strip(run_experiment(_fast()))

    def test_parallel_equals_sequential(self):
        cfg = _fast(replicates=4)
        seq = run_experiment(cfg, jobs=1)
        par = run_experiment(cfg, jobs=2)
        for a, b in zip(seq, par):
            d1 = {k: v for k, v in vars(a).items() if k != "wall_clock"}
            d2 = {k: v for k, v in vars(b).items() if k != "wall_clock"}
            assert d1 == d2

    def test_no_more_workers_than_replicates(self, monkeypatch):
        # A pool starts all its workers at once. This stand-in records the
        # worker count and runs the replicates in-process, starting none.
        import concurrent.futures

        built = []

        class RecordingPool:
            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        two = run_experiment(_fast(replicates=2), jobs=8)
        assert built == [2]
        one = run_experiment(_fast(replicates=1), jobs=4)
        assert built == [2]
        assert [r.seed for r in two] == [77, 78] and [r.seed for r in one] == [77]

    def test_run_variant_dispatch(self):
        obj = make_objective(ProblemSpec(kind="onemax", n=6))
        for variant in ("batch", "window", "memoryless"):
            trace = run_variant(_fast(variant=variant), obj, RngStream(1))
            assert trace.variant == variant


class TestWilsonInterval:
    def test_zero_and_full(self):
        lo, hi = wilson_interval(0, 100)
        assert lo <= 1e-15
        assert 0.03 < hi < 0.05  # known value 0.03699...
        lo, hi = wilson_interval(100, 100)
        assert hi == 1.0
        assert 0.95 < lo < 0.97

    def test_symmetric_at_half(self):
        lo, hi = wilson_interval(50, 100)
        assert lo + hi == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_hits(self):
        assert wilson_interval(60, 100)[0] > wilson_interval(50, 100)[0]

    def test_domain(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)
        with pytest.raises(ValueError):
            wilson_interval(-1, 4)


class TestAlphaSweep:
    def test_rows_align_with_grid(self):
        cfg = _fast(variant="window", K=200, replicates=5)
        rows = alpha_sweep(cfg, alphas=(0.9, 0.1))
        assert [r.alpha for r in rows] == [0.9, 0.1]
        for r in rows:
            assert r.replicates == 5
            assert r.hit_rate == r.hits / 5
            assert r.miss_rate == pytest.approx(1.0 - r.hit_rate, abs=1e-12)
            assert r.ci_low <= r.hit_rate <= r.ci_high

    def test_miss_bound_column_definition(self):
        # The column is the tail factor exp(-phi1*h) at the uniform
        # start with the per-sample step alpha/ceil(rho*N).
        cfg = _fast(variant="window", K=200, replicates=2)
        rows = alpha_sweep(cfg, alphas=(0.5,))
        alpha1 = 0.5 / elite_count(20, 0.1)
        assert rows[0].miss_bound == pytest.approx(
            miss_probability_bound(2.0 ** -6, alpha1, 6), abs=1e-15
        )

    def test_same_seeds_across_cells(self):
        # Both cells replay replicate seeds base_seed..base_seed+R-1, so
        # a degenerate one-point grid gives identical summaries.
        cfg = _fast(variant="window", K=200, replicates=4)
        a = alpha_sweep(cfg, alphas=(0.7,))[0]
        b = alpha_sweep(cfg, alphas=(0.7,))[0]
        assert a == b

    def test_every_alpha_checked_before_running(self, monkeypatch):
        monkeypatch.setattr(harness, "run_experiment", _no_runs)
        with pytest.raises(ConfigError, match="^alphas:"):
            alpha_sweep(_fast(variant="window", K=200), alphas=(0.9, 1.5))

    def test_requires_grid_and_optimum(self):
        with pytest.raises(ConfigError, match="^alphas:"):
            alpha_sweep(_fast())
        no_opt = _fast(problem=ProblemSpec(kind="maxcut", n=26, edges=((0, 1),)))
        with pytest.raises(ConfigError, match="^problem:"):
            alpha_sweep(no_opt, alphas=(0.5,))


def _no_runs(*args, **kwargs):
    raise AssertionError("a replicate ran before every cell was validated")


class TestCompareVariants:
    def test_every_variant_checked_before_running(self, monkeypatch):
        # Batch and window accept N=5, rho=0.1; memoryless needs N > 1/rho.
        monkeypatch.setattr(harness, "run_experiment", _no_runs)
        with pytest.raises(ConfigError, match="^N:"):
            compare_variants(_fast(N=5, rho=0.1, T=20, K=100))

    def test_budget_mismatch_refused(self):
        with pytest.raises(ConfigError, match="^K:"):
            compare_variants(_fast(T=5, N=20, K=999))

    def test_requires_optimum(self, monkeypatch):
        monkeypatch.setattr(harness, "run_experiment", _no_runs)
        no_opt = _fast(problem=ProblemSpec(kind="maxcut", n=26, edges=((0, 1),)))
        with pytest.raises(ConfigError) as exc:
            compare_variants(no_opt)
        assert str(exc.value) == "problem: variant comparison requires a problem with known optimum"

    def test_rows_in_variant_order(self):
        rows = compare_variants(_fast(T=5, N=20, K=100))
        assert [r.variant for r in rows] == ["batch", "window", "memoryless"]
        for r in rows:
            assert r.budget == 100
            assert r.replicates == 3
            assert 0 <= r.hits <= 3

    def test_matched_budget_baseline(self):
        # Frozen regression bar: on OneMax n=20 at the default knobs all
        # three variants find the optimum in at least 90% of replicates
        # (measured at first calibration: batch 100, window 98,
        # memoryless 99 out of 100).
        cfg = ExperimentConfig(
            problem=ProblemSpec(kind="onemax", n=20),
            variant="batch", N=100, rho=0.1, alpha=0.7, T=50, K=5000,
            replicates=100, base_seed=4200, eps_conv=1e-3,
        )
        rows = compare_variants(cfg)
        for r in rows:
            assert r.hits >= 90, (r.variant, r.hits)
            assert r.mean_first_hit is not None


# The smallest positive float. The online step alpha/ceil(rho*N)
# underflows to 0.0 for it; the batch step is alpha itself.
TINY_ALPHA = 5e-324


class TestUnderflowingStep:
    def test_engine_configs_share_the_check(self):
        common = dict(N=20, rho=0.1, alpha=TINY_ALPHA)
        for cls in (OnlineConfig, MemorylessConfig):
            with pytest.raises(ConfigError, match="^alpha: per-update step alpha1 underflows"):
                cls(**common, K=5)
            # Twice the smallest float halves to the smallest float.
            assert cls(**{**common, "alpha": 2 * TINY_ALPHA}, K=5).alpha1 == TINY_ALPHA
        assert BatchConfig(**common, T=5).alpha1 == TINY_ALPHA

    @pytest.mark.parametrize("variant", ["batch", "window", "memoryless"])
    def test_parse_config_agrees_with_the_engines(self, variant):
        # parse_config checks the step of the variant that runs, as
        # run_experiment does: batch takes the config, the online ones don't.
        data = config_to_dict(_fast(variant=variant, alpha=TINY_ALPHA))
        if variant == "batch":
            assert parse_config(data).alpha == TINY_ALPHA
            return
        with pytest.raises(ConfigError, match="^alpha: per-update step alpha1 underflows"):
            parse_config(data)

    @pytest.mark.parametrize("variant", ["batch", "window", "memoryless"])
    @pytest.mark.parametrize("entry", ["run_experiment", "alpha_sweep", "compare_variants"])
    def test_online_step_rejected_before_any_replicate(self, monkeypatch, variant, entry):
        cfg = _fast(variant=variant, alpha=TINY_ALPHA, replicates=2)
        call = {
            "run_experiment": lambda: run_experiment(cfg),
            "alpha_sweep": lambda: alpha_sweep(cfg, alphas=(0.5, TINY_ALPHA)),
            "compare_variants": lambda: compare_variants(cfg),
        }[entry]
        if variant == "batch" and entry != "compare_variants":
            # The parameters never move, so every replicate runs to T.
            rows = call()
            if entry == "run_experiment":
                assert [r.steps for r in rows] == [cfg.T * cfg.N] * 2
            else:
                assert [(r.alpha, r.replicates) for r in rows] == [(0.5, 2), (TINY_ALPHA, 2)]
            return
        monkeypatch.setattr(harness, "_run_one", _no_runs)
        with pytest.raises(ConfigError, match="^alpha: per-update step alpha1 underflows"):
            call()


class TestSerialization:
    ROW = ResultRow(
        replicate=0, seed=42, variant="batch", steps=100, first_hit=None,
        best_value=7.0, converged_binary=True, converged_step=80,
        sign_changes_total=3, envelope_violations=0, wall_clock=0.5,
    )

    def test_results_csv_bytes(self):
        # Byte-frozen: versioned comment, header, one row. None becomes
        # the "never" sentinel and wall_clock never appears.
        expect = (
            "# cemkit-results-v1\n"
            "replicate,seed,variant,steps,first_hit,best_value,"
            "converged_binary,converged_step,sign_changes_total,envelope_violations\n"
            "0,42,batch,100,never,7.0,true,80,3,0\n"
        )
        assert results_to_csv([self.ROW]) == expect

    def test_results_json_bytes(self):
        # Byte-frozen: sorted keys, two-space indent, trailing newline.
        expect = (
            '{\n  "rows": [\n    {\n      "best_value": 7.0,\n'
            '      "converged_binary": true,\n      "converged_step": 80,\n'
            '      "envelope_violations": 0,\n      "first_hit": "never",\n'
            '      "replicate": 0,\n      "seed": 42,\n      "sign_changes_total": 3,\n'
            '      "steps": 100,\n      "variant": "batch"\n    }\n  ],\n'
            '  "schema": "cemkit-results-v1"\n}\n'
        )
        assert results_to_json([self.ROW]) == expect

    def test_results_json(self):
        text = results_to_json([self.ROW])
        assert text.endswith("\n")
        data = json.loads(text)
        assert data["schema"] == "cemkit-results-v1"
        row = data["rows"][0]
        assert row["first_hit"] == "never"
        assert row["converged_binary"] is True
        assert "wall_clock" not in row

    def test_sweep_csv_bytes(self):
        row = SweepRow(
            alpha=0.5, replicates=4, hits=2, hit_rate=0.5, ci_low=0.15,
            ci_high=0.85, miss_rate=0.5, miss_bound=0.25,
        )
        expect = (
            "# cemkit-sweep-v1\n"
            "alpha,replicates,hits,hit_rate,ci_low,ci_high,miss_rate,miss_bound\n"
            "0.5,4,2,0.5,0.15,0.85,0.5,0.25\n"
        )
        assert sweep_to_csv([row]) == expect

    def test_compare_tables(self):
        row = CompareRow(
            variant="window", replicates=3, budget=100, hits=0, hit_rate=0.0,
            mean_first_hit=None, n_converged=1, mean_converged_step=60.0,
        )
        text = compare_to_csv([row])
        assert text.splitlines()[0] == "# cemkit-compare-v1"
        assert text.splitlines()[2] == "window,3,100,0,0.0,never,1,60.0"
        data = json.loads(compare_to_json([row]))
        assert data["rows"][0]["mean_first_hit"] == "never"

    def test_float_repr_round_trips(self):
        row = SweepRow(
            alpha=0.1, replicates=1, hits=1, hit_rate=1.0,
            ci_low=0.20655410786359822, ci_high=1.0, miss_rate=0.0, miss_bound=0.25,
        )
        cell = sweep_to_csv([row]).splitlines()[2].split(",")[4]
        assert float(cell) == 0.20655410786359822
