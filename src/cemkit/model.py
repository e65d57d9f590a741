"""Core domain types shared by all optimizer variants, the settings
every engine config extends (RunSettings, and OnlineConfig for the two
online variants), and the per-sample loop (run_online) they share.

Everything operates on dense 0/1 bit vectors of a fixed dimension n.
Objective values are maximized throughout; wrap an objective with
`negated` to minimize instead.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, DimensionError, DomainError

if TYPE_CHECKING:
    from .trace import RunTrace

__all__ = [
    "BernoulliParams",
    "EvaluatedSample",
    "Objective",
    "RngStream",
    "draw_sample",
    "is_binary_converged",
    "is_absorbed",
    "elite_count",
    "RunSettings",
    "OnlineConfig",
    "check_finite",
    "bulk_covers",
    "run_online",
    "negated",
]


@dataclass(frozen=True)
class BernoulliParams:
    """Parameter vector of a product-of-Bernoullis sampling distribution.

    probs[i] is the probability that bit i equals 1. Entries stay in
    [0, 1] for the lifetime of a run; every update rule in this package
    is a convex combination of the current vector and a point in {0,1}^n,
    so that invariant is preserved by construction.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("probs must be a non-empty 1-d vector")
        # Written so that NaN fails too: every comparison with it is False.
        if not ((arr >= 0.0) & (arr <= 1.0)).all():
            raise ValueError("probs entries must lie in [0, 1]")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @property
    def n(self) -> int:
        return int(self.probs.size)

    @classmethod
    def uniform_init(cls, n: int) -> "BernoulliParams":
        """The standard all-0.5 initial vector."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return cls(np.full(n, 0.5))


@dataclass(slots=True)
class EvaluatedSample:
    """A drawn bit vector together with its cached objective value."""

    bits: np.ndarray
    value: float
    draw_index: int


@dataclass(frozen=True)
class Objective:
    """Deterministic evaluator on {0,1}^n, with optional known-optimum metadata.

    `fn` maps a single bit vector to a float, and must give the same
    value whenever it is called on the same row. The online engines call
    it once per distinct row of a run, on the row's first draw: a run
    keeps a value memo for the rows it repeats, and the rows of a
    window's settled stretch repeat a row already evaluated (see
    run_online). `batch_fn`,
    when present, maps an (m, n) uint8 matrix to an (m,) float vector;
    the batch engine and brute-force scans use it as a fast path. The
    two agree row by row: exactly for the integer-valued families
    (onemax, leading_ones, trap_k, maxcut), and for weighted_linear only
    up to rounding, because a matrix product may sum the terms in
    another order than `w @ x`. Optimum metadata enables hit-rate
    diagnostics and is absent for problems whose optimum is not known.
    """

    name: str
    n: int
    fn: Callable[[np.ndarray], float]
    batch_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    optimal_bits: Optional[np.ndarray] = None
    optimal_value: Optional[float] = None

    def __call__(self, bits: np.ndarray) -> float:
        return float(self.fn(bits))

    def evaluate_many(self, batch: np.ndarray) -> np.ndarray:
        """Evaluate every row of an (m, n) bit matrix: an (m,) vector, or
        DimensionError naming the objective when its values have another
        shape."""
        batch = np.asarray(batch)
        if batch.ndim != 2 or batch.shape[1] != self.n:
            raise DimensionError(
                f"batch shape {batch.shape} incompatible with dimension {self.n}"
            )
        if self.batch_fn is None:
            values = np.array([self.fn(row) for row in batch], dtype=np.float64)
        else:
            values = np.asarray(self.batch_fn(batch), dtype=np.float64)
        if values.shape != (len(batch),):
            raise DimensionError(f"{self.name}: {len(batch)} rows gave values of shape {values.shape}")
        return values


def negated(obj: Objective) -> Objective:
    """Minimization wrapper: flips the sign of an objective and its metadata."""
    return replace(
        obj,
        name=f"neg_{obj.name}",
        fn=lambda bits: -float(obj.fn(bits)),
        batch_fn=(None if obj.batch_fn is None else (lambda b: -np.asarray(obj.batch_fn(b)))),
        optimal_bits=None,
        optimal_value=None,
    )


class RngStream:
    """Deterministic pseudo-random stream (PCG64) with an explicit seed.

    Two streams built from equal seeds produce identical draw sequences,
    which makes every run in this package bit-exactly reproducible.
    """

    def __init__(self, seed: int):
        # Python and numpy integers only: a float, a string or a bool is
        # refused, not turned into some other seed's stream.
        if isinstance(seed, (bool, np.bool_)) or not hasattr(seed, "__index__") or seed < 0:
            raise ValueError("seed must be a non-negative integer")
        self._gen = np.random.default_rng(operator.index(seed))

    def random(self, size=None):
        """Uniform draws on [0, 1)."""
        return self._gen.random(size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size)


# Uniforms the online engines draw per block (whole rows, at least one),
# and at most per settled block, whose size doubles while a window run's
# stretches take whole blocks. Outputs depend on neither.
_DRAW_BLOCK_VALUES = 1 << 10
_SETTLED_BLOCK_VALUES = 1 << 14

# Rows an online run's value memo holds at most; later new rows are
# evaluated but not stored. Outputs do not depend on it.
_MEMO_ROWS = 1 << 16


def draw_sample(params: BernoulliParams, rng: RngStream) -> np.ndarray:
    """Draw one bit vector: bit i is 1 with probability probs[i], independently."""
    return (rng.random(params.n) < params.probs).astype(np.uint8)


def is_binary_converged(params: BernoulliParams, eps: float) -> bool:
    """True iff every component is within eps of 0 or of 1."""
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 0.5)")
    return is_absorbed(params.probs, eps)


def is_absorbed(probs: np.ndarray, eps: float) -> bool:
    """is_binary_converged on a bare vector, without the eps check: the
    engines' early-stop test. No entry lies strictly between eps and
    1 - eps; for non-NaN entries that is np.all((p <= eps) | (p >= 1 - eps))."""
    return not ((probs > eps) & (probs < 1.0 - eps)).any()


def elite_count(n_samples: int, rho: float) -> int:
    """Elite-set size: ceil(rho * n_samples), at least 1.

    The tiny subtraction guards against float products that land a hair
    above an exact integer (e.g. 0.07 * 100 -> 7.000000000000001).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    return max(1, math.ceil(rho * n_samples - 1e-12))


@dataclass(frozen=True, kw_only=True)
class RunSettings:
    """Settings every engine reads: N, rho, alpha, the start p0 and the
    early stop eps_conv, with their range checks.

    p0 = None means the standard all-0.5 start. eps_conv set stops a run
    early on full 0/1 absorption. Each engine config adds its budget and
    defines alpha1, the step of one update, which must not underflow to
    0.0, and stride, the evaluations between trace snapshots.
    """

    N: int
    rho: float
    alpha: float
    p0: Optional[BernoulliParams] = None
    eps_conv: Optional[float] = None

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ConfigError(f"N: must be >= 1, got {self.N}")
        if not 0.0 < self.rho < 1.0:
            raise ConfigError(f"rho: elite fraction must be in (0,1), got {self.rho}")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"alpha: smoothing factor must be in (0,1], got {self.alpha}")
        # alpha1 is the engine config's own; an online step alpha/ceil(rho*N)
        # underflows to 0.0 for a subnormal alpha.
        if not self.alpha1 > 0.0:
            raise ConfigError(f"alpha: per-update step alpha1 underflows to 0.0, got {self.alpha}")
        # Interior start: absorption analysis assumes no component begins
        # already frozen at 0 or 1.
        if self.p0 is not None and (np.any(self.p0.probs <= 0.0) or np.any(self.p0.probs >= 1.0)):
            raise ConfigError("p0: initial probabilities must lie strictly in (0,1)")
        if self.eps_conv is not None and not 0.0 < self.eps_conv < 0.5:
            raise ConfigError(f"eps_conv: must be in (0,0.5) or None, got {self.eps_conv}")

    def start(self, variant: str, obj: Objective, recorder_class: type):
        """A recorder_class instance for a run of `variant` on obj.

        Its p0 is the run's first parameter vector: self.p0, or the
        all-0.5 start when unset. A p0 whose dimension is not obj's
        raises ConfigError. Engines pass their module's TraceRecorder, so
        a stand-in bound there is the one a run uses.
        """
        params0 = self.p0 if self.p0 is not None else BernoulliParams.uniform_init(obj.n)
        if params0.n != obj.n:
            raise ConfigError(f"p0: dimension {params0.n} does not match objective dimension {obj.n}")
        return recorder_class(
            variant=variant,
            params0=params0,
            rho=self.rho,
            alpha=self.alpha,
            alpha1=self.alpha1,
            snapshot_stride=self.stride,
            optimal_value=obj.optimal_value,
        )


@dataclass(frozen=True, kw_only=True)
class OnlineConfig(RunSettings):
    """Settings for an online run of K samples (run_online).

    K may be any positive count; a window run with K <= N never leaves
    warm-up and returns p0 untouched. eps_conv = None (the default) runs
    all K steps faithfully. An elite sample moves the parameters by
    alpha1 = alpha/ceil(rho*N); a snapshot is taken every
    snapshot_stride steps, N when unset.
    """

    K: int
    snapshot_stride: Optional[int] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.K < 1:
            raise ConfigError(f"K: must be >= 1, got {self.K}")
        if self.snapshot_stride is not None and self.snapshot_stride < 1:
            raise ConfigError(f"snapshot_stride: must be >= 1, got {self.snapshot_stride}")

    @property
    def alpha1(self) -> float:
        return self.alpha / elite_count(self.N, self.rho)

    @property
    def stride(self) -> int:
        return self.snapshot_stride or self.N


def check_finite(who: str, values: Sequence[float], first: int = 0, at: str = "draw") -> None:
    """The check for NaN and infinities in objective values: the first
    non-finite entry i raises DomainError naming who asked (an engine, or
    the objective a scan runs), the value, and its draw (or scanned row)
    first + i."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        raise DomainError(
            f"{who}: objective returned the non-finite value {float(values[i])!r} at {at} {first + i}"
        )


def _settled_stretch(u, probs, x, keep, alpha1, eps):
    """The leading rows of a draw block that a settled run takes at x.

    x is the last row drawn, the last step was elite, and the elite rule
    keeps taking x without changing its state. Every further step at x
    moves each component toward x_i: a zero by a factor keep, built for
    all rows with one np.multiply.accumulate, and a one along
    p <- p*keep + alpha1, worked out with Python floats, which round as
    run_online's update does (two IEEE double operations, no FMA), for
    the ones not yet at their fixed point. params holds the parameters
    before each taken row and after the last, rounded as that update
    rounds them. A row is taken while it draws x against the parameters
    before it and no earlier row absorbed the run under eps. The ones
    still moving are held at 1.0, where every row draws 1, until the
    other columns have fixed the row where the draws break; their paths
    are then worked out, and checked, only up to that row.

    Returns (params, m, absorbed): m rows taken, their parameters
    params[1 : m + 1]; absorbed whether the parameters after row m - 1
    stop the run.
    """
    ones = x.view(bool)
    moving = np.flatnonzero(ones & (probs * keep + alpha1 != probs))
    params = np.empty((len(u) + 1, probs.size))
    params[0] = probs
    params[0, moving] = 1.0
    params[1:] = np.where(ones, 1.0, keep)
    np.multiply.accumulate(params, axis=0, out=params)
    differ = np.flatnonzero(np.less(u, params[:-1]) != ones)
    m = int(differ[0]) // probs.size if differ.size else len(u)
    k = 1.0 - alpha1
    for j in moving.tolist():
        if not m:
            break
        p = probs.item(j)
        path = [p]
        for uj in u[:m, j].tolist():
            if not uj < p:
                break
            p = p * k + alpha1
            path.append(p)
        m = len(path) - 1
        params[: m + 1, j] = path
    absorbed = False
    if eps is not None and m:
        after = params[1 : m + 1]
        inside = ((after > eps) & (after < 1.0 - eps)).any(axis=1)
        if not inside.all():
            m, absorbed = int(inside.argmin()) + 1, True
    return params, m, absorbed


def bulk_covers(cls: type, bulk: str, per_step: str) -> bool:
    """Whether cls's method `bulk` stands in for its method `per_step`.

    It does when the class that defines `bulk` (the first in cls's MRO)
    is the class, or a subclass of the class, that defines per_step. A
    subclass that overrides the per-step method, to count or time its
    calls say, and leaves `bulk` as it is gets every per-step call: the
    bulk path, which skips them, is off for it.
    """

    def owner(name: str) -> type:
        return next(c for c in cls.__mro__ if name in vars(c))

    return issubclass(owner(bulk), owner(per_step))


def run_online(
    variant: str,
    config: OnlineConfig,
    obj: Objective,
    rng: RngStream,
    recorder_class: type,
    is_elite: Callable[[int, float], bool],
    state: Callable[[], Tuple[Optional[float], Optional[float]]],
    settled: Optional[Callable[[], bool]] = None,
) -> "RunTrace":
    """Run K per-sample steps of an online variant: the loop both share.

    Per step: take a bit vector, evaluate it with obj.fn (except on the
    rows of a settled stretch and on memo hits, below), and ask the
    variant's elite rule is_elite(t, value) about it. An elite sample
    moves the parameters by config.alpha1 toward itself. state()
    returns the rule's (gamma, delta); it is read at snapshot steps and
    at the end. A non-finite objective value raises DomainError naming
    the variant and its draw. recorder_class is the engine module's
    TraceRecorder (see RunSettings.start); its offer_best sees only the
    values that beat every earlier one, which are all that can change
    the best sample or the first hit.

    Uniforms are drawn in blocks of whole rows: _DRAW_BLOCK_VALUES // n
    of them, or more for a settled block (below). PCG64's random((B, n))
    gives the same numbers as B calls of random(n), so each row equals
    what draw_sample would return at that step, whatever the block
    size. A new block is compared with the current probabilities in
    one go; after an update only the next row is compared, because an
    update is often followed by another (the window engine's usually
    is), and if no update follows, the rest of the block is compared
    together. Each comparison is a new array whose rows are passed on
    as uint8 views, so a row already handed out never changes.

    Value memo. A run keeps a memo from a row's bytes to its value, so
    fn is called once per distinct row. The first draw of a row goes
    through fn, the non-finite check and offer_best, and only a finite
    value is stored, while the memo holds fewer than _MEMO_ROWS rows.
    A later draw takes the stored value, which is what fn would return,
    because obj is deterministic; it is finite and cannot be a new best.

    Settled stretches. settled(), when given, tells whether the rule
    now holds a value v such that, after an elite step of value v,
    every further step of value v is elite and leaves the rule's state
    and state() as they are. A run is settled at a new block when the
    last step was elite, at row x, and settled() is true; v is then
    x's value. The block's leading rows are handled as one stretch
    (_settled_stretch): a row is taken only while it draws x against
    its own parameters, which the stretch works out as the loop's
    update rounds them, whether or not the ones of x have reached their
    fixed points. A taken row equals x bit for bit, and obj is
    deterministic, so its value is v: finite, elite and not a new best.
    fn, is_elite and offer_best are not called for it, and the recorder
    takes the stretch with one updates_applied call, in O(n) plus its
    stride snapshots. The rest of the block goes through the loop,
    starting with the row that broke the stretch. A stretch that takes
    its whole block leaves the run settled, and the next block has twice
    its rows, up to _SETTLED_BLOCK_VALUES // n; a break drops the next
    block back to a draw block. So a run that stays settled takes its
    steps in a few long stretches, and an attempt that breaks early
    draws and checks at most twice the rows the last one took. The
    window engine passes its holds_one_value test; the memoryless rule,
    whose threshold moves on every step, passes none.

    Snapshots in bulk. At each stride step the loop appends the entry
    (t + 1, state(), best, count, count) to the recorder's pending list,
    count being the recorder's update count and also its elite count,
    since each online update is one elite sample; it calls the recorder
    for no snapshot otherwise. An entry carries every scalar of its
    snapshot, so a later best or update leaves it as it is, and only the
    recorder's fold moves it into the table. At each block end the loop
    calls the recorder's block_end, which folds only once a log block of
    entries is pending, so a stride-1 run holds at most a log block and
    a block of steps of them.

    The recorder class is the one switch, and it switches only what a
    counting tool counts: a recorder_class that overrides update_applied
    and not updates_applied (bulk_covers) takes no stretch, and its memo
    stores no row. So it still sees one fn call per step and one
    update_applied call per update, and the run's window sees every push
    and threshold call. Stride snapshots go on the pending list under
    every recorder class, and its _fold moves them into the table; the
    loop never calls maybe_snapshot.

    config is an OnlineConfig or a MemorylessConfig; eps_conv set stops
    the run early on 0/1 absorption.
    """
    recorder = config.start(variant, obj, recorder_class)
    memo_rows = _MEMO_ROWS
    if not bulk_covers(recorder_class, "updates_applied", "update_applied"):
        settled, memo_rows = None, 0
    alpha1, stride, K = config.alpha1, config.stride, config.K
    offer_best, update_applied = recorder.offer_best, recorder.update_applied
    pending, block_end = recorder.pending, recorder.block_end
    probs = recorder.p0.probs.copy()
    n = probs.size
    memo = {}  # row bytes -> value
    fn = obj.fn
    isfinite = math.isfinite
    random, less, uint8 = rng.random, np.less, np.uint8
    # probs * keep + toward(bits) is (1 - alpha1) * probs + alpha1 * bits
    # to the bit: alpha1 * 1 and alpha1 * 0 are exact.
    keep = np.full(n, 1.0 - alpha1)
    toward = np.array([0.0, alpha1]).take
    eps = config.eps_conv
    block_rows = max(1, _DRAW_BLOCK_VALUES // n)
    settled_rows = max(block_rows, _SETTLED_BLOCK_VALUES // n)
    # Rows of the next block: they double, up to settled_rows, after a
    # stretch that takes its whole block, and the next block then starts
    # settled again; after a break they drop back to block_rows.
    rows = block_rows
    best = -math.inf
    elite = False
    bits = None
    t = 0
    while t < K:
        start = t  # the step of the block's first row
        u = random((min(rows, K - t), n))
        end = start + len(u)
        bits_from = None  # bits of rows first.. of u
        if elite and settled is not None and settled():
            params, m, absorbed = _settled_stretch(u, probs, bits, keep, alpha1, eps)
            rows = min(2 * rows, settled_rows) if m == len(u) else block_rows
            if m:
                probs = params[m]
                recorder.updates_applied(params[1 : m + 1], t, *state())
                t += m
                if absorbed:
                    return recorder.finish(t, *state())
        for t in range(t, end):
            if bits_from is not None:
                bits = bits_from[t - first]
            elif elite:
                bits = less(u[t - start], probs).view(uint8)
            else:
                first = t
                bits_from = less(u[t - start :], probs).view(uint8)
                bits = bits_from[0]
            key = bits.tobytes()
            value = memo.get(key)
            if value is None:
                value = float(fn(bits))
                if not isfinite(value):
                    check_finite(variant, (value,), t)
                if value > best:
                    best = value
                    offer_best(bits, value, t)
                if len(memo) < memo_rows:
                    memo[key] = value
            elite = is_elite(t, value)
            if elite:
                probs = probs * keep + toward(bits)
                bits_from = None
                update_applied(probs)
            if (t + 1) % stride == 0:
                pending.append((t + 1, state(), best, recorder.update_count, recorder.update_count))
            if elite and eps is not None and is_absorbed(probs, eps):
                return recorder.finish(t + 1, *state())
        block_end()
        t = end
    return recorder.finish(K, *state())
