"""`analyze` and `phi_series` against the per-snapshot loop they replaced.

The oracle walks the snapshots one by one with the scalar specification:
param_envelope for the band at each snapshot's update count, phi for
each snapshot's chance of drawing the optimum, and the first snapshot
whose every component is within eps_binary of 0 or 1. Every field of
the report and every phi of the series must come out equal, not merely
close, also when the trace is stored in many blocks of rows.
"""

from bisect import bisect_right

import numpy as np
import pytest

from cemkit import (
    BatchConfig,
    BernoulliParams,
    DimensionError,
    MemorylessConfig,
    OnlineConfig,
    ProblemSpec,
    RngStream,
    TraceRecorder,
    analyze,
    make_objective,
    miss_probability_bound,
    param_envelope,
    phi,
    phi_series as phi_series_of,
    run_batch,
    run_memoryless,
    run_online_window,
)
from cemkit import trace as trace_module
from cemkit.diagnostics import ENVELOPE_TOL


def _oracle(trace, obj, eps_binary=1e-3):
    violations = 0
    converged_step = None
    for snap in trace.snapshots:
        lo, hi = param_envelope(trace.p0, trace.alpha1, snap.update_count)
        p = snap.params
        violations += int(np.count_nonzero((p < lo - ENVELOPE_TOL) | (p > hi + ENVELOPE_TOL)))
        if converged_step is None and bool(np.all((p <= eps_binary) | (p >= 1.0 - eps_binary))):
            converged_step = snap.step
    x_star = np.asarray(obj.optimal_bits)
    phi_series = [(s.step, phi(BernoulliParams(s.params), x_star)) for s in trace.snapshots]
    phi1 = phi_series[0][1]
    if trace.alpha1 >= 1.0:
        miss_bound = 1.0 - phi1
    else:
        miss_bound = (1.0 - phi1) * miss_probability_bound(phi1, trace.alpha1, trace.n)
    return violations, converged_step, phi_series, miss_bound


def _assert_matches_oracle(trace, obj):
    rep = analyze(trace, obj)
    violations, converged_step, phi_series, miss_bound = _oracle(trace, obj)
    assert rep.envelope_violations == violations
    assert rep.converged_step == converged_step
    assert rep.converged_binary == (converged_step is not None)
    series = phi_series_of(trace, obj.optimal_bits)
    assert len(series) == len(phi_series)
    for (step, value), (want_step, want_value) in zip(series, phi_series):
        assert type(step) is int and type(value) is float
        assert (step, value) == (want_step, want_value)
    assert rep.miss_bound == miss_bound
    return rep


OBJECTIVES = {
    "onemax_8": ProblemSpec(kind="onemax", n=8),
    "trap_10_5": ProblemSpec(kind="trap_k", n=10, k=5),
}


@pytest.fixture
def block_size(request, monkeypatch):
    """Parameter values per storage block; None keeps the default (two
    blocks for the stride-1 online runs here, one for the others)."""
    if request.param is not None:
        monkeypatch.setattr(trace_module, "_BLOCK_VALUES", request.param)
    return request.param


def _run(variant, stride, obj, rng):
    if variant == "batch":
        return run_batch(BatchConfig(N=30, rho=0.1, alpha=0.7, T=40, eps_conv=None), obj, rng)
    engine, cls = {
        "window": (run_online_window, OnlineConfig),
        "memoryless": (run_memoryless, MemorylessConfig),
    }[variant]
    return engine(cls(N=30, rho=0.1, alpha=0.7, K=1200, snapshot_stride=stride), obj, rng)


@pytest.mark.parametrize("block_size", [None, 999], indirect=True)
@pytest.mark.parametrize("problem", sorted(OBJECTIVES))
@pytest.mark.parametrize(
    "variant, stride",
    [("batch", None)] + [(v, k) for k in (1, 7, None) for v in ("window", "memoryless")],
)
def test_engine_traces_match_oracle(problem, variant, stride, block_size):
    obj = make_objective(OBJECTIVES[problem])
    trace = _run(variant, stride, obj, RngStream(21))
    assert trace.variant == variant
    if stride is not None:
        assert trace.snapshots.step[1] == stride
    _assert_matches_oracle(trace, obj)


@pytest.mark.parametrize("variant, alpha", [("window", 0.03), ("memoryless", 0.2)])
def test_long_trace_absorbing_past_its_first_storage_block(monkeypatch, variant, alpha):
    # A stride-1 run of 4000 steps on n=8 stores one row per distinct
    # update count: 146 rows for memoryless, about 3100 for window. At 40
    # rows a block both span three blocks or more, and both runs first
    # absorb past the first one, so analyze must carry its search across
    # blocks.
    monkeypatch.setattr(trace_module, "_BLOCK_VALUES", 40 * 8)
    obj = make_objective(ProblemSpec(kind="onemax", n=8))
    engine, cls = {
        "window": (run_online_window, OnlineConfig),
        "memoryless": (run_memoryless, MemorylessConfig),
    }[variant]
    trace = engine(cls(N=30, rho=0.1, alpha=alpha, K=4000, snapshot_stride=1), obj, RngStream(21))
    snaps = trace.snapshots
    assert snaps.block_rows == 40 and len(snaps.param_blocks()) >= 3
    rep = _assert_matches_oracle(trace, obj)
    first_absorbed = snaps.step.index(rep.converged_step)
    assert bisect_right(snaps.row_starts, first_absorbed) - 1 >= snaps.block_rows


@pytest.mark.parametrize("block_size", [None, 1, 20], indirect=True)
def test_hand_built_trace_with_violations_and_late_absorption(block_size):
    obj = make_objective(ProblemSpec(kind="onemax", n=4))
    p0 = BernoulliParams(np.array([0.5, 0.3, 0.7, 0.5]))
    alpha1 = 0.2
    rec = TraceRecorder(
        variant="hand", params0=p0, rho=0.1, alpha=0.8, alpha1=alpha1,
        snapshot_stride=1, optimal_value=4.0,
    )
    rng = np.random.default_rng(8)
    p = p0.probs.copy()
    step = 0

    def snap(new=None):
        nonlocal step, p
        step += 1
        if new is not None:
            p = np.asarray(new, dtype=float)
            rec.update_applied(p)
        rec.maybe_snapshot(step, gamma=None if step % 3 else float(step), delta=None)

    for _ in range(7):
        snap((1 - alpha1) * p + alpha1 * rng.integers(0, 2, 4))
    # Update 8 puts component 1 exactly on the band's lower tolerance edge
    # (inside), and components 0 and 2 one ulp past the lower and upper
    # edges (violations). (1-0.2)**8 and a vectorized np.power differ in
    # the last bit on some platforms; the one-ulp cases then disagree,
    # which is why the band uses Python's ** as param_envelope does.
    lo, hi = param_envelope(p0, alpha1, 8)
    snap([np.nextafter(lo[0] - ENVELOPE_TOL, -1.0), lo[1] - ENVELOPE_TOL,
          np.nextafter(hi[2] + ENVELOPE_TOL, 2.0), 0.5])
    # Update 9 puts component 3 exactly on the upper edge (inside).
    hi9 = param_envelope(p0, alpha1, 9)[1]
    snap([0.5, 0.5, 0.5, hi9[3] + ENVELOPE_TOL])
    snap()
    snap()
    snap([0.99, 0.01, 0.5, 0.5])  # jump far outside the band: two violations
    for _ in range(30):
        snap((1 - alpha1) * p + alpha1 * np.array([1, 0, 1, 1]))
    snap([0.5, 0.5, 0.5, 0.5])  # leaves absorption again
    snap([1.0, 0.0, 1.0, 1.0])
    trace = rec.finish(step, gamma=None, delta=None)

    rep = _assert_matches_oracle(trace, obj)
    assert rep.envelope_violations >= 3
    absorbed_at = trace.snapshots.step.index(rep.converged_step)
    assert len(trace.snapshots) - 10 < absorbed_at < len(trace.snapshots) - 2
    edge = trace.snapshots[8]
    assert edge.update_count == 8
    assert edge.params[1] == lo[1] - ENVELOPE_TOL
    assert trace.snapshots[9].params[3] == hi9[3] + ENVELOPE_TOL


def test_rejects_bad_step_size_and_mismatched_target():
    obj = make_objective(ProblemSpec(kind="onemax", n=4))
    for alpha1 in (0.0, 1.5):
        rec = TraceRecorder(
            variant="hand", params0=BernoulliParams.uniform_init(4), rho=0.1,
            alpha=0.5, alpha1=alpha1, snapshot_stride=1,
        )
        with pytest.raises(ValueError, match="alpha1"):
            analyze(rec.finish(0, gamma=None, delta=None), obj)
    trace = run_online_window(OnlineConfig(N=10, rho=0.1, alpha=0.5, K=30), obj, RngStream(2))
    with pytest.raises(DimensionError):
        analyze(trace, make_objective(ProblemSpec(kind="onemax", n=5)))
    with pytest.raises(DimensionError):
        phi_series_of(trace, np.ones(5, dtype=np.uint8))


@pytest.mark.parametrize("block_size", [None, 1, 20], indirect=True)
def test_violations_count_once_per_snapshot_of_a_shared_row(block_size):
    # Snapshots without an update between them share a stored row; a row
    # outside the band counts its violations once per snapshot of it,
    # and the first absorbed row gives its first snapshot's step.
    obj = make_objective(ProblemSpec(kind="onemax", n=3))
    p0 = BernoulliParams(np.array([0.5, 0.5, 0.5]))
    rec = TraceRecorder(
        variant="hand", params0=p0, rho=0.1, alpha=0.5, alpha1=0.1,
        snapshot_stride=1, optimal_value=3.0,
    )
    rows = [[0.45, 0.55, 0.5], [0.99, 0.01, 0.5], [0.5, 0.5, 0.5], [1.0, 1.0, 0.0], [0.99, 0.9, 0.2]]
    step = 0
    for row, repeats in zip(rows, [1, 4, 2, 3, 2]):
        rec.update_applied(np.array(row))
        for _ in range(repeats):
            step += 1
            rec.maybe_snapshot(step, gamma=None, delta=None)
    trace = rec.finish(step, gamma=None, delta=None)
    assert len(trace.snapshots.row_starts) == len(rows) + 1 < len(trace.snapshots)
    rep = _assert_matches_oracle(trace, obj)
    # The band after u updates is 0.5 * 0.9**u +- (1 - 0.9**u) / 2: the
    # row after two updates leaves it in two components over four
    # snapshots, the rows after four and five in all three over three
    # and two. The row after four absorbs first, at step 8.
    assert rep.envelope_violations == 2 * 4 + 3 * 3 + 3 * 2
    assert rep.converged_step == 8
