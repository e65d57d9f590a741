"""Release gate: one test per contract item, slowest items a few minutes.

Each test prints a verdict line straight to the terminal (bypassing
capture) before asserting, so a full run always shows the ten verdicts:

    [acceptance] criterion N (name): PASS|FAIL

Exact items use hard tolerances. Statistical items run frozen seeds and
assert the property bar, with the values measured at first calibration
noted in comments; a library change that shifts the underlying streams
is expected to show up here first.
"""

import json
import math

import numpy as np
import pytest

from cemkit import (
    BernoulliParams,
    ExperimentConfig,
    ProblemSpec,
    RngStream,
    SampleWindow,
    ThresholdState,
    alpha_sweep,
    batch_update,
    cli,
    delta0_gauss,
    elite_count,
    elite_threshold,
    exhaustive_success_prob,
    normal_ppf,
    online_update,
    order_gap_mc,
    phi,
    run_experiment,
    threshold_step,
    window_step,
)
from cemkit.memoryless import delta_update, run_threshold_stream


def _verdict(capsys, num, name, ok, extra=""):
    tail = f" ({extra})" if extra else ""
    line = f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'}{tail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_01_update_rules(capsys):
    errs = []

    got = elite_threshold([9, 7, 7, 3, 1], 0.4)
    if abs(got - 7.0) > 1e-12:
        errs.append(f"elite_threshold rank example: {got}")
    got = elite_threshold([9, 7, 7, 3, 1], 0.01)
    if abs(got - 9.0) > 1e-12:
        errs.append(f"elite_threshold top example: {got}")

    p = batch_update(
        [np.array([1, 0, 1]), np.array([1, 1, 0])],
        BernoulliParams([0.5, 0.5, 0.5]),
        alpha=0.4,
        n_b=2,
    )
    if np.max(np.abs(p.probs - [0.7, 0.5, 0.5])) > 1e-12:
        errs.append(f"batch_update: {p.probs}")

    p = online_update(np.array([1, 0]), BernoulliParams([0.2, 0.8]), alpha1=0.1)
    if np.max(np.abs(p.probs - [0.28, 0.72])) > 1e-12:
        errs.append(f"online_update: {p.probs}")

    st = ThresholdState(gamma=5.0, delta=2.0, estimator="constant", delta0=2.0)
    up = threshold_step(st, True, 0.1)
    if abs(up.gamma - 6.8) > 1e-12:
        errs.append(f"threshold_step elite: {up.gamma}")
    down = threshold_step(st, False, 0.1)
    if abs(down.gamma - 4.8) > 1e-12:
        errs.append(f"threshold_step non-elite: {down.gamma}")

    st = ThresholdState(
        gamma=0.0, delta=1.0, estimator="gauss_model", beta=0.5, delta0=0.03,
        prev_value=10.0,
    )
    st = delta_update(st, 14.0)
    if abs(st.delta - 0.56) > 1e-12:
        errs.append(f"delta_update: {st.delta}")

    rng = np.random.default_rng(1)
    for i in range(10_000):
        size = int(rng.integers(1, 51))
        if i % 2:
            vals = rng.integers(0, 8, size).astype(float)  # force ties
        else:
            vals = rng.normal(0.0, 1.0, size)
        rho = float(rng.uniform(0.01, 0.99))
        want = sorted(vals, reverse=True)[elite_count(size, rho) - 1]
        if elite_threshold(vals, rho) != want:
            errs.append(f"sort oracle mismatch at list {i}")
            break

    _verdict(capsys, 1, "update rules", not errs, "; ".join(errs))


def test_criterion_02_envelope_soundness(capsys):
    total = 0
    for variant in ("batch", "window", "memoryless"):
        cfg = ExperimentConfig(
            problem=ProblemSpec(kind="onemax", n=10),
            variant=variant, replicates=100, base_seed=2000,
        )
        total += sum(r.envelope_violations for r in run_experiment(cfg))
    _verdict(capsys, 2, "envelope soundness", total == 0,
             f"{total} violations over 300 runs")


def test_criterion_03_phi_oracle(capsys):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        params = BernoulliParams(rng.uniform(0.01, 0.99, n))
        x_star = rng.integers(0, 2, n).astype(np.uint8)
        worst = max(worst, abs(phi(params, x_star) - exhaustive_success_prob(params, x_star)))
    _verdict(capsys, 3, "phi oracle equivalence", worst <= 1e-12,
             f"max |diff| = {worst:.2e}")


def test_criterion_04_window_vs_resort(capsys):
    mismatches = 0
    for s in range(10):
        rng = RngStream(1300 + s)
        values = rng.random(10_000)
        w = SampleWindow(100)
        for v in values.tolist():
            w.append(v)
            gamma, _ = window_step(w, v, 0.1)
            if gamma is not None and gamma != w.threshold_resort(0.1):
                mismatches += 1
    _verdict(capsys, 4, "window vs resort oracle", mismatches == 0,
             f"{mismatches} mismatches over 10 streams")


def test_criterion_05_binary_absorption(capsys):
    # Frozen regression bar. Measured at first calibration: 100/100 for
    # every variant with these seeds.
    counts = {}
    for variant in ("batch", "window", "memoryless"):
        cfg = ExperimentConfig(
            problem=ProblemSpec(kind="onemax", n=20),
            variant=variant, N=100, rho=0.1, alpha=0.7, T=500, K=50_000,
            replicates=100, base_seed=5000, eps_conv=1e-3,
        )
        counts[variant] = sum(r.converged_binary for r in run_experiment(cfg))
    ok = all(c >= 95 for c in counts.values())
    _verdict(capsys, 5, "binary absorption", ok,
             ", ".join(f"{v}={c}/100" for v, c in counts.items()))


def test_criterion_06_alpha_dependence(capsys):
    # Measured at first calibration: hits (26, 35, 38, 86) of 200 as
    # alpha falls through the grid.
    cfg = ExperimentConfig(
        problem=ProblemSpec(kind="trap_k", n=10, k=5),
        variant="window", N=100, rho=0.1, alpha=0.7, K=5000,
        replicates=200, base_seed=9100,
    )
    rows = alpha_sweep(cfg, alphas=(0.9, 0.5, 0.2, 0.05))

    hard = 0
    soft = 0
    for prev, nxt in zip(rows, rows[1:]):
        if nxt.hit_rate >= prev.hit_rate:
            continue
        if nxt.ci_high >= prev.ci_low:
            soft += 1
        else:
            hard += 1

    bound_ok = True
    for r in rows:
        sigma = math.sqrt(r.miss_bound * (1.0 - r.miss_bound) / r.replicates)
        if r.miss_rate > r.miss_bound + 3.0 * sigma:
            bound_ok = False

    ok = hard == 0 and soft <= 1 and bound_ok
    _verdict(capsys, 6, "alpha dependence", ok,
             "hits " + "/".join(str(r.hits) for r in rows)
             + f", hard={hard}, soft={soft}, bound_ok={bound_ok}")


def test_criterion_07_uniform_constants(capsys):
    est = order_gap_mc(("uniform", 0.0, 1.0), 100, 0.1, 10**6, RngStream(42))
    rel_gap = abs(est.mean_gap - 1.0 / 101.0) * 101.0
    rel_ad = abs(est.mean_absdiff - 1.0 / 3.0) * 3.0
    # Measured: rel_gap 2e-4, rel_ad 3e-4.
    _verdict(capsys, 7, "uniform constants", rel_gap < 0.01 and rel_ad < 0.01,
             f"gap off by {rel_gap:.2%}, absdiff off by {rel_ad:.2%}")


def test_criterion_08_gaussian_constants(capsys):
    est = order_gap_mc(("normal", 0.0, 1.0), 100, 0.1, 10**6, RngStream(43))
    qdiff = normal_ppf(0.91) - normal_ppf(0.90)
    rel_gap = abs(est.mean_gap - qdiff) / qdiff
    rel_ad = abs(est.mean_absdiff - 2.0 / math.sqrt(math.pi)) / (2.0 / math.sqrt(math.pi))
    # The quantile difference is the N -> inf gap; at N=100 the true
    # mean gap sits about 4.4% below it, inside the 5% allowance.
    ratio = delta0_gauss(100, 0.1, "nominal") / est.ratio

    # Both scale constants must keep the threshold walk at its target
    # elite fraction (the criterion-9 property). Measured fractions:
    # nominal 0.1033, calibrated 0.1011.
    vals = RngStream(31).normal(0.0, 1.0, 10**6)
    fracs = {}
    for mode in ("nominal", "calibrated"):
        st = ThresholdState(
            gamma=0.0, delta=0.0, estimator="gauss_model", beta=0.1,
            delta0=delta0_gauss(100, 0.1, mode),
        )
        n_elite, _ = run_threshold_stream(vals, st, 0.1)
        fracs[mode] = n_elite / 1e6
    modes_ok = all(abs(f - 0.1) <= 0.02 for f in fracs.values())

    ok = rel_gap < 0.05 and rel_ad < 0.01 and modes_ok
    _verdict(capsys, 8, "gaussian constants", ok,
             f"gap off by {rel_gap:.2%}, absdiff off by {rel_ad:.2%}, "
             f"closed-form/empirical delta0 = {ratio:.4f}, "
             f"fracs nominal={fracs['nominal']:.4f} "
             f"calibrated={fracs['calibrated']:.4f}")


def test_criterion_09_elite_fraction_equilibrium(capsys):
    # Measured fractions: 0.0500, 0.1000, 0.2000.
    vals = RngStream(7).normal(0.0, 1.0, 10**6)
    fracs = {}
    for rho in (0.05, 0.1, 0.2):
        st = ThresholdState(gamma=0.0, delta=0.2, estimator="constant", delta0=0.2)
        n_elite, _ = run_threshold_stream(vals, st, rho)
        fracs[rho] = n_elite / 1e6
    ok = all(abs(f - rho) <= 0.02 for rho, f in fracs.items())
    _verdict(capsys, 9, "elite fraction equilibrium", ok,
             ", ".join(f"rho={r}: {f:.4f}" for r, f in fracs.items()))


def test_criterion_10_reproducibility(capsys, tmp_path):
    cfg = {
        "problem": {"kind": "onemax", "n": 8},
        "variant": "batch", "N": 30, "T": 10,
        "replicates": 5, "base_seed": 99,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    ok = True
    for fmt in ("csv", "json"):
        a = tmp_path / f"a.{fmt}"
        b = tmp_path / f"b.{fmt}"
        for dest in (a, b):
            code = cli.main([
                "run", "--config", str(cfg_path),
                "--format", fmt, "--out", str(dest),
            ])
            ok = ok and code == 0
        ok = ok and a.read_bytes() == b.read_bytes()
    capsys.readouterr()  # swallow the CLI's "wrote ..." lines
    _verdict(capsys, 10, "reproducibility", ok)
