"""Weight distributions, dual transforms, and minimum-distance search.

Exact distributions are computed by Gray-code enumeration on whichever of a
cyclic code or its dual is smaller, with the transform bridging the two.
Distances of double circulant codes run over rotation-class representatives
of the message half, since rotating the message rotates the codeword.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .codes import BitVec, CyclicCode, DoubleCirculantCode, _rotl
from .gf2poly import BudgetExceededError, ring_mul_raw


@dataclass(frozen=True)
class WeightDistribution:
    n: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.n + 1:
            raise ValueError("need one count per weight 0..n")

    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class DistanceResult:
    value: int
    witness: BitVec
    exact: bool


def _gray_weights(basis: list[int], n: int) -> list[int]:
    """Weight histogram of the span of `basis`, one xor per step."""
    counts = [0] * (n + 1)
    counts[0] = 1
    word = 0
    for i in range(1, 1 << len(basis)):
        word ^= basis[(i & -i).bit_length() - 1]
        counts[word.bit_count()] += 1
    return counts


def weight_distribution(code: CyclicCode, dim_limit: int = 26,
                        route: str = "auto") -> WeightDistribution:
    """Exact weight distribution of a cyclic code.

    route picks the enumeration side: "direct" spans the code itself,
    "dual" spans the dual and transforms back, "auto" takes the smaller."""
    n = code.n
    dim = code.dim
    codim = n - dim
    if route == "auto":
        route = "direct" if dim <= codim else "dual"
    if route == "direct":
        if dim > dim_limit:
            raise BudgetExceededError(
                f"dimension {dim} exceeds enumeration limit {dim_limit}")
        return WeightDistribution(n, tuple(_gray_weights(code.basis(), n)))
    if route == "dual":
        if codim > dim_limit:
            raise BudgetExceededError(
                f"codimension {codim} exceeds enumeration limit {dim_limit}")
        dual = code.dual()
        dual_wd = WeightDistribution(n, tuple(_gray_weights(dual.basis(), n)))
        return macwilliams_transform(dual_wd, dual.dim)
    raise ValueError(f"unknown route {route!r}")


def _krawtchouk_row(n: int, j: int) -> list[int]:
    """K_j(i) for i = 0..n, exact integers."""
    return [sum((-1) ** l * math.comb(i, l) * math.comb(n - i, j - l)
                for l in range(0, j + 1)) for i in range(n + 1)]


def macwilliams_transform(wd: WeightDistribution, dim: int) -> WeightDistribution:
    """Weight distribution of the dual of a code of dimension `dim` whose
    distribution is wd.  All arithmetic is exact; inconsistent inputs raise."""
    n = wd.n
    size = 1 << dim
    if wd.total() != size:
        raise ValueError("distribution total does not match 2^dim")
    out = []
    for j in range(n + 1):
        row = _krawtchouk_row(n, j)
        s = sum(a * k for a, k in zip(wd.counts, row))
        if s % size:
            raise ValueError("transform produced a non-integer count")
        q = s // size
        if q < 0:
            raise ValueError("transform produced a negative count")
        out.append(q)
    return WeightDistribution(n, tuple(out))


def _necklace_positions(n: int, wmax: int | None = None):
    """Yield (weight, position tuple) for every nonzero binary necklace of
    length n (least rotation representatives), optionally weight-bounded."""
    a = [0] * (n + 1)
    cap = n if wmax is None else wmax

    def gen(t, p, ones):
        if t > n:
            if n % p == 0 and ones:
                yield ones, tuple(i - 1 for i in range(1, n + 1) if a[i])
        else:
            # weight never drops along a path, so both caps prune exactly
            a[t] = a[t - p]
            if ones + a[t] <= cap:
                yield from gen(t + 1, p, ones + a[t])
            if a[t - p] == 0 and ones < cap:
                a[t] = 1
                yield from gen(t + 1, t, ones + 1)
                a[t] = 0

    yield from gen(1, 1, 0)


@lru_cache(maxsize=16)
class _NecklaceKernel:
    """Precomputed rotation-class table for one (n, wmax); evaluates the
    minimum codeword weight of any circulant column in a few array passes."""

    def __init__(self, n: int, wmax: int | None = None):
        self.n = n
        rows = list(_necklace_positions(n, wmax))
        if not rows:
            raise ValueError("no nonzero messages under the weight cap")
        width = max(len(pos) for _, pos in rows)
        # unused slots point at a zero pad entry
        self.idx = np.full((len(rows), width), n, dtype=np.int64)
        self.msg_weight = np.empty(len(rows), dtype=np.uint64)
        self.msg_bits = np.empty(len(rows), dtype=np.uint64)
        for r, (w, pos) in enumerate(rows):
            self.idx[r, : len(pos)] = pos
            self.msg_weight[r] = w
            bits = 0
            for i in pos:
                bits |= 1 << i
            self.msg_bits[r] = bits
        self._rot = np.zeros(n + 1, dtype=np.uint64)

    def _weights(self, a_bits: int) -> np.ndarray:
        n = self.n
        rot = self._rot
        for j in range(n):
            rot[j] = _rotl(a_bits, j, n)
        acc = rot[self.idx[:, 0]]
        for c in range(1, self.idx.shape[1]):
            acc ^= rot[self.idx[:, c]]
        return np.bitwise_count(acc).astype(np.uint64) + self.msg_weight

    def min_weight(self, a_bits: int) -> tuple[int, int]:
        """(min codeword weight, witness message bits) over the table."""
        w = self._weights(a_bits)
        r = int(np.argmin(w))
        return int(w[r]), int(self.msg_bits[r])


def min_distance_exact(code: DoubleCirculantCode, limit: int = 28) -> DistanceResult:
    """Exact minimum distance by sweeping rotation-class representatives of
    the message half; work grows as 2^n / n."""
    n = code.n
    if n > limit:
        raise BudgetExceededError(
            f"exact distance enumerates 2^{n} messages; n <= {limit}. "
            "Use low_weight_search for a randomized witness.")
    kernel = _NecklaceKernel(n, None)
    d, msg = kernel.min_weight(code.a.bits)
    left = ring_mul_raw(msg, code.a.bits, n)
    return DistanceResult(d, BitVec(left | (msg << n), 2 * n), True)


def dc_weight_distribution(code: DoubleCirculantCode,
                           dim_limit: int = 26) -> WeightDistribution:
    """Full weight distribution of the [2n, n] code by message enumeration."""
    n = code.n
    if n > dim_limit:
        raise BudgetExceededError(
            f"dimension {n} exceeds enumeration limit {dim_limit}")
    counts = _gray_weights(code.generator_rows(), 2 * n)
    return WeightDistribution(2 * n, tuple(counts))


def low_weight_search(code: DoubleCirculantCode, w: int, effort: int = 200,
                      seed: int = 0) -> DistanceResult | None:
    """Randomized information-set search for a codeword of weight <= w.

    Rounds of column permutation plus elimination; round zero keeps the
    identity permutation, so single-bit messages are always examined.
    Finding nothing proves nothing.  Deterministic for a fixed seed."""
    n = code.n
    rng = random.Random(seed)
    rows0 = code.generator_rows()
    best = None
    best_wt = 2 * n + 1
    # the generator is already systematic on the right half: its rows are
    # the single-bit-message codewords, weight 1 + wt(a)
    for r in rows0:
        wt = r.bit_count()
        if 0 < wt < best_wt:
            best_wt = wt
            best = r
    cols = list(range(2 * n))
    for _ in range(max(1, effort)):
        perm = rng.sample(cols, len(cols))
        rows = list(rows0)
        rank_rows: list[tuple[int, int]] = []  # (pivot column bit, row)
        for c in perm:
            bit = 1 << c
            pivot = None
            for i, r in enumerate(rows):
                if r & bit:
                    pivot = i
                    break
            if pivot is None:
                continue
            prow = rows.pop(pivot)
            rows = [r ^ prow if r & bit else r for r in rows]
            rank_rows = [(b, r ^ prow if r & bit else r) for b, r in rank_rows]
            rank_rows.append((bit, prow))
            if not rows:
                break
        for _, r in rank_rows:
            wt = r.bit_count()
            if 0 < wt < best_wt:
                best_wt = wt
                best = r
    if best is not None and best_wt <= w:
        return DistanceResult(best_wt, BitVec(best, 2 * n), False)
    return None
