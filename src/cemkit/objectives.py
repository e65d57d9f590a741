"""Benchmark objective families on fixed-length bit vectors.

Each family is described by a ProblemSpec, a plain picklable record, and
realized as an Objective via make_objective. Keeping the spec and the
callable separate lets worker processes rebuild objectives locally
instead of shipping closures across process boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from .errors import CapacityError, ConfigError
from .model import Objective, check_finite

__all__ = [
    "ProblemSpec",
    "make_objective",
    "enumerate_optimum",
    "KINDS",
]

KINDS = ("onemax", "leading_ones", "weighted_linear", "trap_k", "maxcut")

# 2^24 rows of width <= 24 is the largest table worth materializing here.
_ENUM_MAX_N = 24
_ENUM_CHUNK = 1 << 14


@dataclass(frozen=True)
class ProblemSpec:
    """Declarative description of a benchmark instance.

    kind: one of KINDS.
    n: dimension.
    weights: coefficients for weighted_linear (length n).
    k: block size for trap_k (must divide n).
    edges: undirected edge list for maxcut, vertices in range(n).
    """

    kind: str
    n: int
    weights: Optional[Tuple[float, ...]] = None
    k: Optional[int] = None
    edges: Optional[Tuple[Tuple[int, int], ...]] = None


# The kind-specific keys of a ProblemSpec and the one kind that reads each.
_KIND_KEYS = {"weights": "weighted_linear", "k": "trap_k", "edges": "maxcut"}


def _validate(spec: ProblemSpec) -> None:
    if spec.kind not in KINDS:
        raise ConfigError(f"kind: unknown objective kind {spec.kind!r}")
    if spec.n < 1:
        raise ConfigError(f"n: dimension must be >= 1, got {spec.n}")
    for key, kind in _KIND_KEYS.items():
        if getattr(spec, key) is not None and spec.kind != kind:
            raise ConfigError(f"{key}: only {kind} takes {key}, got kind {spec.kind!r}")
    if spec.kind == "weighted_linear":
        if spec.weights is None:
            raise ConfigError("weights: required for weighted_linear")
        if len(spec.weights) != spec.n:
            raise ConfigError(
                f"weights: expected {spec.n} coefficients, got {len(spec.weights)}"
            )
        if not all(map(math.isfinite, spec.weights)):
            raise ConfigError(f"weights: coefficients must be finite, got {spec.weights!r}")
        # The largest and the smallest objective value must be finite too.
        positive = sum((w for w in spec.weights if w > 0.0), 0.0)
        negative = sum((w for w in spec.weights if w < 0.0), 0.0)
        if not (math.isfinite(positive) and math.isfinite(negative)):
            raise ConfigError(
                "weights: the sums of the positive and of the negative coefficients"
                f" must be finite, got {positive!r} and {negative!r}"
            )
    if spec.kind == "trap_k":
        if spec.k is None:
            raise ConfigError("k: required for trap_k")
        if spec.k < 2:
            raise ConfigError(f"k: block size must be >= 2, got {spec.k}")
        if spec.n % spec.k != 0:
            raise ConfigError(f"k: block size {spec.k} does not divide n={spec.n}")
    if spec.kind == "maxcut":
        if not spec.edges:
            raise ConfigError("edges: required and non-empty for maxcut")
        for e in spec.edges:
            if len(e) != 2:
                raise ConfigError(f"edges: entry {e!r} is not a pair")
            i, j = e
            if not (0 <= i < spec.n and 0 <= j < spec.n):
                raise ConfigError(f"edges: endpoint out of range in {e!r}")
            if i == j:
                raise ConfigError(f"edges: self-loop {e!r}")


def make_objective(spec: ProblemSpec) -> Objective:
    """Build the evaluator for a spec, attaching optimum metadata when known.

    Analytic optima are attached for onemax, leading_ones, weighted_linear
    and trap_k. For maxcut the optimum is found by exhaustive enumeration
    when n is small enough, otherwise the metadata is left unset.
    """
    _validate(spec)
    n = spec.n

    if spec.kind == "onemax":
        obj = Objective(
            name=f"onemax_{n}",
            n=n,
            fn=lambda x: float(np.count_nonzero(x)),
            batch_fn=lambda b: b.sum(axis=1).astype(np.float64),
            optimal_bits=np.ones(n, dtype=np.uint8),
            optimal_value=float(n),
        )
    elif spec.kind == "leading_ones":
        obj = Objective(
            name=f"leading_ones_{n}",
            n=n,
            fn=_leading_ones_one,
            batch_fn=lambda b: np.cumprod(b, axis=1).sum(axis=1).astype(np.float64),
            optimal_bits=np.ones(n, dtype=np.uint8),
            optimal_value=float(n),
        )
    elif spec.kind == "weighted_linear":
        w = np.asarray(spec.weights, dtype=np.float64)
        w.flags.writeable = False
        # Lexicographically smallest maximizer: zero coefficients get bit 0.
        best_bits = (w > 0.0).astype(np.uint8)
        obj = Objective(
            name=f"weighted_linear_{n}",
            n=n,
            fn=lambda x: float(w @ x),
            batch_fn=lambda b: (b @ w).astype(np.float64),
            optimal_bits=best_bits,
            optimal_value=float(w[w > 0.0].sum()),
        )
    elif spec.kind == "trap_k":
        k = int(spec.k)  # type: ignore[arg-type]
        obj = Objective(
            name=f"trap_{k}_{n}",
            n=n,
            fn=_trap_one(n, k),
            batch_fn=lambda b, _k=k: _trap_batch(b, _k),
            optimal_bits=np.ones(n, dtype=np.uint8),
            optimal_value=float(n),
        )
    else:  # maxcut
        edges = np.asarray(spec.edges, dtype=np.intp)
        edges.flags.writeable = False
        bits, value = _maxcut_optimum(n, edges) if n <= _ENUM_MAX_N else (None, None)
        obj = Objective(
            name=f"maxcut_{n}_{edges.shape[0]}",
            n=n,
            fn=_cut_one(edges),
            batch_fn=lambda b: (b[:, edges[:, 0]] != b[:, edges[:, 1]])
            .sum(axis=1)
            .astype(np.float64),
            optimal_bits=bits,
            optimal_value=value,
        )
    return obj


def _leading_ones_one(x: np.ndarray) -> float:
    stops = (np.asarray(x) != 1).tobytes()
    first = stops.find(1)
    return float(len(stops) if first < 0 else first)


def _trap_one(n: int, k: int) -> Callable[[np.ndarray], float]:
    """_trap_batch of one 0/1 row, from the row's bytes.

    The row is read as one little-endian integer with a lane of w bytes
    per bit. Multiplying by 1 + 2^(8w) + ... + 2^(8w(k-1)) puts in lane i
    the count of ones in bits i-k+1..i, so lane mk + k - 1 holds the
    count u of block m. Each such lane also gets 2^(8w-1) - k added: it
    then equals 2^(8w-1) if u == k (a full block) and is below it
    otherwise, so one AND with the top bit of every such lane and one
    bit count give the number of full blocks. w is the narrowest lane
    with 2^(8w-1) >= k, so no lane carries into the next. A block
    scores k - 1 - u, plus k + 1 if full. Every term is a small integer,
    so the value equals the batch's float sum exactly.
    """
    w = next(w for w in (1, 2, 4, 8) if k <= 1 << (8 * w - 1))
    lane = np.dtype(f"<u{w}")
    asarray, from_bytes = np.asarray, int.from_bytes

    def every_block(top: int) -> int:
        # top in the last lane of every block, built from one block's bytes.
        return from_bytes((bytes(w * (k - 1)) + top.to_bytes(w, "little")) * (n // k), "little")

    spread = from_bytes((1).to_bytes(w, "little") * k, "little")
    bias = every_block((1 << (8 * w - 1)) - k)
    tops = every_block(1 << (8 * w - 1))
    empty = n // k * (k - 1)  # the score of the all-zero row

    def trap_one(x):
        row = from_bytes(asarray(x, dtype=lane).tobytes(), "little")
        full = ((row * spread + bias) & tops).bit_count()
        return float(empty - row.bit_count() + (k + 1) * full)

    return trap_one


def _cut_one(edges: np.ndarray) -> Callable[[np.ndarray], float]:
    """Cut size of one 0/1 row, from the row's bytes.

    One take gathers every edge's first endpoint, then every second one,
    a byte each. Read as one integer, the XOR of its two halves has a 1
    bit exactly where an edge's endpoints differ, so the cut is its bit
    count.
    """
    ends = np.concatenate((edges[:, 0], edges[:, 1]))
    half = 8 * len(edges)
    low = (1 << half) - 1
    asarray, u8, from_bytes = np.asarray, np.uint8, int.from_bytes

    def cut_one(x):
        both = from_bytes(asarray(x, dtype=u8).take(ends).tobytes(), "little")
        return float(((both >> half) ^ (both & low)).bit_count())

    return cut_one


def _trap_batch(batch: np.ndarray, k: int) -> np.ndarray:
    """Concatenated deceptive trap: a block scores k when all ones,
    otherwise k - 1 - (ones in block), so all-zero blocks are the
    strong local attractor at k - 1."""
    m, n = batch.shape
    u = batch.reshape(m, n // k, k).sum(axis=2)
    per_block = np.where(u == k, float(k), k - 1.0 - u)
    return per_block.sum(axis=1).astype(np.float64)


def _bit_rows(n: int, start: int, count: int) -> np.ndarray:
    """Rows for integers [start, start+count), leftmost bit most significant."""
    ints = np.arange(start, start + count, dtype=np.uint64)[:, None]
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)[None, :]
    return ((ints >> shifts) & np.uint64(1)).astype(np.uint8)


def _all_rows(n: int, max_n: int, what: str) -> Iterator[Tuple[int, np.ndarray]]:
    """Every row of {0,1}^n in order, as (start, rows) blocks of up to
    _ENUM_CHUNK rows; n above max_n is refused here, not on first use."""
    if n > max_n:
        raise CapacityError(f"enumeration over 2^{n} {what} refused (max n={max_n})")
    total = 1 << n
    return (
        (start, _bit_rows(n, start, min(_ENUM_CHUNK, total - start)))
        for start in range(0, total, _ENUM_CHUNK)
    )


def _maxcut_optimum(n: int, edges: np.ndarray) -> Tuple[np.ndarray, float]:
    """enumerate_optimum for a cut, without evaluating 2^n rows.

    A cut counts x_u + x_v - 2 x_u x_v over the edges. Split x into its
    leading bits h and trailing bits l: the cut of every x is then
    own(h) + own(l) - 2 h.M.l, with M the edge counts between the
    halves, so the 2^n values come from two 2^(n/2)-row tables. Every
    term is a small integer, so the values are exact and the first
    maximum of the row-major (h, l) table is the lexicographically
    smallest maximizer.
    """
    m = n - n // 2  # leading bits
    counts = np.zeros((n, n))  # counts[u, v]: edges {u, v} with u < v
    np.add.at(counts, (edges.min(axis=1), edges.max(axis=1)), 1.0)
    degree = counts.sum(axis=0) + counts.sum(axis=1)

    def own(bits, part):
        return bits @ degree[part] - 2.0 * ((bits @ counts[part, part]) * bits).sum(axis=1)

    lead = _bit_rows(m, 0, 1 << m).astype(np.float64)
    trail = _bit_rows(n - m, 0, 1 << (n - m)).astype(np.float64)
    own_lead, own_trail = own(lead, slice(0, m)), own(trail, slice(m, n))
    cross = -2.0 * (lead @ counts[:m, m:])
    rows = max(1, _ENUM_CHUNK >> (n - m))
    best_value = -np.inf
    best_index = 0
    for start in range(0, len(lead), rows):
        block = own_lead[start : start + rows, None] + own_trail
        block += cross[start : start + rows] @ trail.T
        local = int(np.argmax(block))
        if block.flat[local] > best_value:
            best_value = float(block.flat[local])
            best_index = (start << (n - m)) + local
    return _bit_rows(n, best_index, 1)[0], best_value


def enumerate_optimum(obj: Objective) -> Tuple[np.ndarray, float]:
    """Exhaustive global optimum over all 2^n bit vectors.

    Returns the lexicographically smallest maximizer and its value.
    Refuses dimensions above 24; the table stops fitting in memory and
    the scan stops fitting in patience well before that matters. A
    non-finite value raises DomainError naming its row, the row i being
    the binary digits of i.
    """
    best_value = -np.inf
    best_index = 0
    for start, rows in _all_rows(obj.n, _ENUM_MAX_N, "points"):
        values = obj.evaluate_many(rows)
        check_finite(obj.name, values, start, "row")
        local = int(np.argmax(values))
        # Strict comparison keeps the first (lex-smallest) maximizer.
        if values[local] > best_value:
            best_value = float(values[local])
            best_index = start + local
    bits = _bit_rows(obj.n, best_index, 1)[0]
    return bits, best_value
