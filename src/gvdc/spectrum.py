"""Weight distributions, dual transforms, and minimum-distance search.

Exact distributions are computed by Gray-code enumeration on whichever of a
cyclic code or its dual is smaller, with the transform bridging the two.
The exact minimum distance of a double circulant code comes from one engine,
a two-sided search that raises a weight level on both halves of the code and
stops when a lower bound on every unseen codeword meets the best one found.
The engine takes many columns at once and searches each level for all of
them in one gather; a single column is a batch of one.
"""

from __future__ import annotations

import math
import random
import re
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, islice

import numpy as np

from .bounds import gv_guarantee
from .codes import BitVec, CyclicCode, DoubleCirculantCode
from .gf2poly import (BudgetExceededError, degree, divmod_raw, mod_raw,
                      ring_modulus, rotate, xgcd_raw)


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


# largest dimension that Gray-code enumeration takes on, for a cyclic code,
# its dual, or the message space of a double circulant code
ENUM_MAX_DIM = 26


def _gray_weights(basis, n: int) -> list[int]:
    """Weight histogram of the span of the iterable `basis`, one xor per
    step.  It reads ENUM_MAX_DIM + 1 vectors at most: more are refused."""
    basis = list(islice(basis, ENUM_MAX_DIM + 1))
    if len(basis) > ENUM_MAX_DIM:
        raise BudgetExceededError(f"a basis of more than {ENUM_MAX_DIM} "
                                  "vectors exceeds the enumeration limit")
    counts = [0] * (n + 1)
    counts[0] = 1
    word = 0
    for i in range(1, 1 << len(basis)):
        word ^= basis[(i & -i).bit_length() - 1]
        counts[word.bit_count()] += 1
    return counts


def weight_distribution(code: CyclicCode) -> WeightDistribution:
    """Exact weight distribution of a cyclic code, by enumerating whichever
    of it and its dual is smaller; _gray_weights takes it to ENUM_MAX_DIM."""
    n = code.n
    side = code if code.dim <= n - code.dim else code.dual()
    wd = WeightDistribution(n, tuple(_gray_weights(
        (side.g << i for i in range(side.dim)), n)))
    return wd if side is code else macwilliams_transform(wd, side.dim)


@lru_cache(maxsize=64)
def _krawtchouk_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """Entry [j][i] is K_j(i), the coefficient of z^j in
    (1 - z)^i (1 + z)^(n - i), for 0 <= i, j <= n.  Exact integers."""
    col = [math.comb(n, j) for j in range(n + 1)]
    cols = [col]
    for _ in range(n):
        # multiply by (1 - z) / (1 + z): divide exactly, then multiply
        quo = list(accumulate(col[:-1], lambda q, c: c - q))
        col = [a - b for a, b in zip(quo + [0], [0] + quo)]
        cols.append(col)
    return tuple(zip(*cols))


def macwilliams_transform(wd: WeightDistribution, dim: int) -> WeightDistribution:
    """Weight distribution of the dual of a code of dimension `dim` whose
    distribution is wd.  All arithmetic is exact; inconsistent inputs raise."""
    n = wd.n
    size = 1 << dim
    if wd.total() != size:
        raise ValueError("distribution total does not match 2^dim")
    out = []
    for row in _krawtchouk_matrix(n):
        s = sum(a * k for a, k in zip(wd.counts, row))
        if s % size:
            raise ValueError("transform produced a non-integer count")
        q = s // size
        if q < 0:
            raise ValueError("transform produced a negative count")
        out.append(q)
    return WeightDistribution(n, tuple(out))


# largest n at which _min_codewords runs uncapped, giving exact distance
EXACT_MAX_N = 28

# a column whose annihilator has more than 2^_K_BITS_MAX words is searched
# from the message side alone
_K_BITS_MAX = 16

# entries per block: (columns x rows) in a level of _min_codewords, (rows x
# annihilator) in its left-side cosets, uint64 words of elimination in
# low_weight_search
_BLOCK = 1 << 20


@lru_cache(maxsize=128)
def _necklace_level(n: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """The necklaces of length n and weight exactly t >= 1, as least
    rotations in lexicographic order: a (t, rows) array of their set
    positions and a (rows,) array of their bits.  A depth-first walk of
    the prenecklace tree (Fredricksen, Kessler and Maiorana) that drops a
    branch as soon as weight t is out of its reach."""
    # one byte per position: _min_codewords packs a word in a uint64, so
    # n <= 64
    a, rows = [0] * (n + 1), array("B")

    def walk(s, p, pos):
        if s > n:
            if n % p == 0:
                rows.extend(pos)
            return
        ones = len(pos)
        a[s] = bit = a[s - p]
        if ones + bit <= t <= ones + bit + n - s:
            walk(s + 1, p, pos + (s - 1,) if bit else pos)
        if bit == 0 and ones < t <= ones + 1 + n - s:
            a[s] = 1
            walk(s + 1, s, pos + (s - 1,))

    walk(1, 1, ())
    idx = np.frombuffer(rows, dtype=np.uint8).reshape(-1, t).T.astype(
        np.intp, order="C")
    bits = _xor_gather(np.uint64(1) << np.arange(n, dtype=np.uint64), idx)
    idx.flags.writeable = False
    bits.flags.writeable = False
    return idx, bits


def _xor_gather(table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Row-wise xor of table entries at the positions in each column of
    idx, for a (t, rows) idx.  The gather is along the first axis of
    table, so a (positions, columns) table gives (rows, columns)."""
    acc = table[idx[0]]
    for c in range(1, idx.shape[0]):
        acc ^= table[idx[c]]
    return acc


@lru_cache(maxsize=64)
def _divisor_split(n: int, g: int) -> tuple[int, np.ndarray, int,
                                            np.ndarray, tuple[int, ...]]:
    """What a column's search needs of its g = gcd(a, Z^n + 1) alone, with
    r = deg g: h = (Z^n + 1) / g; the 2^r multiples of h, the kernel
    K = <h>, word i being the xor of the h Z^j for the bits j of i; the
    first lightest nonzero word of K, or 0 when r = 0; rem, whose entry i
    is Z^i mod g; and the carries: entry i is 1 when Z^i div g is
    Z (Z^(i - 1) div g) + 1, else 0, with Z^-1 div g = 0."""
    h, r = divmod_raw(ring_modulus(n), g)[0], degree(g)
    kern = np.zeros(1, dtype=np.uint64)
    for j in range(r):
        kern = np.concatenate([kern, kern ^ np.uint64(h << j)])
    lightest = (int(kern[1 + np.bitwise_count(kern[1:]).argmin()])
                if kern.size > 1 else 0)
    # Z^i = q_i g + rem_i, from i = 0 up: z = Z rem_(i - 1), or 1 at
    # i = 0, has degree r exactly when g goes into it once more, and then
    # q_i = Z q_(i - 1) + 1
    carries, rems, z = [], [], 1
    for _ in range(n):
        carries.append(z >> r & 1)
        rems.append(z ^ g if carries[-1] else z)
        z = rems[-1] << 1
    rem = np.array(rems, dtype=np.uint64)
    kern.flags.writeable = False
    rem.flags.writeable = False
    return h, kern, lightest, rem, tuple(carries)


def _cofactor_table(n: int, g: int, b: np.ndarray) -> np.ndarray:
    """The (n, columns) table of (Z^i div g) b for a uint64 array b: as
    Z^i div g = Z (Z^(i - 1) div g) + carry i, row i is the xor of the
    b Z^(i - j) over the carries j <= i of _divisor_split(n, g)."""
    rot = rotate(b, np.arange(n, dtype=np.uint64)[:, None], n)
    rows = np.zeros_like(rot)
    for j in np.flatnonzero(_divisor_split(n, g)[4]):
        rows[j:] ^= rot[:n - j]
    return rows


@lru_cache(maxsize=256)
def _left_level(n: int, g: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """The necklaces of _necklace_level(n, t) that are multiples of g, in
    the same form and order.  A left half u is the sum of its Z^i, so it
    is a multiple of g exactly when the Z^i mod g sum to 0."""
    idx, bits = _necklace_level(n, t)
    keep = (_xor_gather(_divisor_split(n, g)[3], idx) == 0).nonzero()[0]
    if keep.size == bits.size:
        return idx, bits
    idx, bits = idx[:, keep], bits[keep]
    idx.flags.writeable = False
    bits.flags.writeable = False
    return idx, bits


def _coset_weights(x: np.ndarray, kern: np.ndarray) -> np.ndarray:
    """Entry-wise least weight of the coset x ^ K of a (rows, columns) x,
    in blocks of rows of at most _BLOCK (entries x kern) words."""
    if kern.size == 1:
        return np.bitwise_count(x)
    out = np.empty(x.shape, dtype=np.uint8)
    step = max(1, _BLOCK // (kern.size * x.shape[1]))
    for j in range(0, len(x), step):
        np.bitwise_count(x[j:j + step, :, None] ^ kern).min(
            axis=2, out=out[j:j + step])
    return out


def _check_engine(n: int, capped: bool) -> None:
    """Refuse a _min_codewords search past n = 64, as it packs each half of
    a codeword in one uint64 word, or uncapped past EXACT_MAX_N."""
    limit = 64 if capped else EXACT_MAX_N
    if n > limit:
        raise BudgetExceededError(
            f"the distance engine runs {'capped' if capped else 'uncapped'} "
            f"for n <= {limit}, not n = {n}")


def _min_codewords(n: int, columns, cap: int | None = None,
                   ) -> list[tuple[int, int]]:
    """For each column a of a sequence, the (weight, codeword) of a
    lightest nonzero codeword of the [2n, n] code with column a; the
    codeword packs x_L in its low n bits.  With a cap the weight is
    min(d, cap + 1), and the codeword is 0 above the cap.

    A two-sided search by weight level.  Every nonzero codeword has
    x_L = x_R a with x_R != 0, and rotating both halves keeps it a
    codeword of the same weight, so one rotation of each codeword is
    enough: the one whose right half, or whose left half, is a necklace.
    Let g = gcd(a, Z^n + 1), h = (Z^n + 1) / g, r = deg g and
    b = (a / g)^-1 mod h, which exists for every n because
    gcd(a / g, h) = 1.  The left halves are the multiples of g, and over
    a left half u the right halves are (u / g) b + K, where
    K = <h> = {k : k a = 0} has 2^r words.

    - Right level t: (m a, m) for every necklace m of weight t, which
      covers every codeword with wt(x_R) = t.
    - Left level t: (u, (u / g) b + k) for every necklace u = 0 mod g of
      weight t and every k in K, which covers every codeword with
      wt(x_L) = t; level 0 is (0, k) for k in K, k != 0.

    The levels run R1, L0, L1, R2, L2, R3, ...  After right levels up to
    t_R and left levels up to t_L, a codeword not yet seen has
    wt(x_R) >= t_R + 1 and wt(x_L) >= t_L + 1, so weight >= t_R + t_L + 2.
    A column's search stops once its best weight is at most that bound,
    and every search stops, under a cap, once the bound exceeds the cap.
    When r > _K_BITS_MAX, K is too large to list: only the right levels
    run, with bound t_R + 1.  Right level n sees every codeword, so the
    search always ends.  Ties go to the first strict improvement in level
    order, then to the first necklace of the level, then to the first
    word of K.
    _check_engine refuses, before any work, n > 64, as a half is packed
    in one uint64 word, and n > EXACT_MAX_N without a cap.

    Columns are searched together: those that share g in one group, and
    those searched from the right side alone in another.  Each level is
    one gather over the group's live columns and the level's necklaces,
    in chunks of at most _BLOCK entries.  A column's value and witness do
    not depend on the columns searched with it."""
    _check_engine(n, cap is not None)
    modulus = ring_modulus(n)
    groups: dict[int, list[int]] = {}
    cofactors = []
    for c, a in enumerate(columns):
        # s a = g (mod Z^n + 1), so s (a / g) = 1 (mod h)
        g, s = xgcd_raw(a, modulus)
        r = degree(g)
        # key 0, never a divisor, marks the right side alone
        groups.setdefault(g if r <= _K_BITS_MAX else 0, []).append(c)
        cofactors.append(s)
    out: list = [None] * len(cofactors)
    for g, members in groups.items():
        found = _search_group(n, g, [columns[c] for c in members],
                              [cofactors[c] for c in members], cap)
        for c, res in zip(members, found):
            out[c] = res
    return out


def _search_group(n: int, g: int, columns: list[int], cofactors: list[int],
                  cap: int | None) -> list[tuple[int, int]]:
    """_min_codewords on columns that share g = gcd(a, Z^n + 1), each with
    its s, s a = g (mod Z^n + 1); g = 0 runs the right levels alone."""
    count = len(columns)
    best, words = [2 * n + 1] * count, [0] * count
    kern, lightest = np.zeros(1, dtype=np.uint64), 0
    steps = ((0, t) for t in range(1, n + 1))
    # column c of tables[0] is column c's a Z^j, of tables[1] its
    # (Z^i div g) b: a necklace's xor over them is its right-level left
    # half, or its left-level right half
    tables = [rotate(np.array(columns, dtype=np.uint64),
                     np.arange(n, dtype=np.uint64)[:, None], n)]
    if g:
        h, kern, lightest, _, _ = _divisor_split(n, g)
        tables.append(_cofactor_table(n, g, np.array(
            [mod_raw(s, h) for s in cofactors], dtype=np.uint64)))
        steps = chain([(0, 1), (1, 0), (1, 1)], (
            (side, t) for t in range(2, n + 1) for side in (0, 1)))
    live = list(range(count))
    seen = [0, -1]  # highest right and left level searched
    for side, t in steps:
        bound = seen[0] + seen[1] + 2
        if cap is not None and bound > cap:
            break
        live = [k for k in live if best[k] > bound]
        if not live:
            break
        seen[side] = t
        if side and not t:
            # left level 0, the same word (0, k) for every column; K has no
            # nonzero word when r = 0
            if lightest:
                w = lightest.bit_count()
                for k in live:
                    if w < best[k]:
                        best[k], words[k] = w, lightest << n
            continue
        idx, bits = _left_level(n, g, t) if side else _necklace_level(n, t)
        if not bits.size:
            continue
        # columns per chunk: a left level's coset block has kern.size
        # words per entry of its gather
        table = tables[side]
        per = max(1, _BLOCK // (bits.size * (kern.size if side else 1)))
        for j in range(0, len(live), per):
            ks = live[j:j + per]
            # one column gathers from a 1-D table, numpy's fast path
            half = _xor_gather(table[:, ks[0]] if len(ks) == 1
                               else table[:, ks], idx).reshape(bits.size, -1)
            wts = _coset_weights(half, kern) if side else np.bitwise_count(
                half)
            for u, i in enumerate(wts.argmin(axis=0).tolist()):
                w, k = t + int(wts[i, u]), ks[u]
                if w < best[k]:
                    # a right level's near half is x_L; a left level's is
                    # one word of the coset of right halves, whose first
                    # lightest word is x_R
                    near, m = half[i, u], int(bits[i])
                    if side:
                        coset = near ^ kern
                        near = coset[np.bitwise_count(coset).argmin()]
                    best[k] = w
                    words[k] = m | int(near) << n if side else (
                        int(near) | m << n)
    if cap is not None:
        return [(w, x) if w <= cap else (cap + 1, 0)
                for w, x in zip(best, words)]
    return list(zip(best, words))


def min_distance_exact(code: DoubleCirculantCode) -> DistanceResult:
    """Exact minimum distance with a minimum-weight witness, by the
    search of _min_codewords, whose _check_engine takes n <= EXACT_MAX_N."""
    d, word = _min_codewords(code.n, [code.a.bits])[0]
    return DistanceResult(d, BitVec(word, 2 * code.n), True)


def dc_weight_distribution(code: DoubleCirculantCode) -> WeightDistribution:
    """Full weight distribution of the [2n, n] code by message enumeration."""
    n = code.n
    counts = _gray_weights((rotate(code.a.bits, i, n) | 1 << n + i
                            for i in range(n)), 2 * n)
    return WeightDistribution(2 * n, tuple(counts))


def _count_lane(n: int) -> int:
    """Bits of the lanes a search round's row weights are counted in: the
    fewest of 8, 16 and 32 that hold 2n."""
    return next(b for b in (8, 16, 32) if 2 * n < 1 << b)


def _round_words(n: int) -> int:
    """uint64 words _lightest_reduced_row allocates per round, at most:
    the column array and its temporary, 2n columns of ceil(n / 64) row
    words each; one row of those columns, 2n words; the weight count and
    its transpose, _count_lane(n) words each for each row word; and the
    step's flags, 9 words for each row word."""
    return (4 * n + 2 * _count_lane(n) + 9) * ((n + 63) // 64) + 2 * n


def _lightest_reduced_row(gen: np.ndarray,
                          perm: np.ndarray) -> tuple[int, int]:
    """(weight, word) of the first lightest row after Gauss-Jordan
    elimination of one generator in many rounds at once.

    gen is (2n, W): column c of the n generator rows packed into W uint64
    words, row r in bit r % 64 of word r // 64.  perm is (R, 2n): each
    round's column order.  Each round walks its columns in that order; at
    a column where one of its rows that is not yet a pivot row has a 1,
    the first such row becomes the pivot row and is xored into every
    other row with a 1 there.  Rows are ranked round by round, and within
    a round in the order their pivots were found; ties go to the first.

    The elimination runs on columns, cols[i, :, r] being round r's column
    perm[r, i].  A processed column never changes again: a pivot column
    is e_p, and a column found dependent has its 1s in pivot rows only,
    never in the free row a later pivot is taken from.  So step i reads
    column i as the rows with a 1 there, takes the lowest free one as the
    pivot p, and xors the other hit rows into each column from i on with
    a 1 in row p, which turns column i into e_p.  The row of pivot p has
    its first 1 at its pivot column, which ranks it.

    Every array the column loop touches is allocated once per call, and
    each step writes into them with out= (take in clip mode, which does
    not buffer its output); the indices are always in range."""
    m, words = gen.shape
    n, rounds = m // 2, perm.shape[0]
    cols = np.empty((m, words, rounds), dtype=np.uint64)
    tmp = np.empty_like(cols)
    by_round = tmp.reshape(m, rounds, words)
    np.take(gen, perm.T, axis=0, out=by_round, mode="clip")
    cols[...] = by_round.transpose(0, 2, 1)
    # rows that are not yet pivot rows
    free = np.zeros((words, rounds), dtype=np.uint64)
    for k in range(words):
        free[k] = (1 << min(64, n - 64 * k)) - 1
    piv = np.empty_like(free)
    low = np.empty_like(free)
    mask = np.empty_like(free)
    offset = np.empty_like(free)
    seen = np.empty(free.shape, dtype=bool)
    shift = np.empty(rounds, dtype=np.uint64)
    at = np.empty(rounds, dtype=np.intp)
    every = np.arange(rounds)
    # row p of each column from i on, as 0/1
    in_p = np.empty((m, rounds), dtype=np.uint64)
    for i in range(m):
        hit = cols[i]
        np.bitwise_and(hit, free, out=piv)
        np.negative(piv, out=low)
        np.bitwise_and(piv, low, out=piv)
        if words > 1:
            # the lowest free hit row is in the first word that has one
            np.not_equal(piv, 0, out=seen)
            np.logical_or.accumulate(seen, axis=0, out=seen)
            np.logical_not(seen, out=seen)
            np.multiply(piv[1:], seen[:-1], out=piv[1:])
        np.bitwise_xor(free, piv, out=free)
        # the hit rows other than the pivot row; a round without a pivot
        # reads no 1 in row p below, whatever this holds
        np.bitwise_xor(hit, piv, out=mask)
        # p's bit in its word, and 64 in every other word: a shift by 64
        # leaves 0
        np.subtract(piv, 1, out=offset)
        np.bitwise_count(offset, out=offset)
        rest = cols[i:]
        row = in_p[:m - i]
        if words > 1:
            np.argmin(offset, axis=0, out=at)
            np.min(offset, axis=0, out=shift)
            np.multiply(at, rounds, out=at)
            np.add(at, every, out=at)
            np.take(rest.reshape(m - i, -1), at, axis=1, out=row, mode="clip")
            np.right_shift(row, shift, out=row)
        else:
            np.right_shift(rest[:, 0], offset[0], out=row)
        np.bitwise_and(row, 1, out=row)
        t = tmp[:m - i]
        np.multiply(row[:, None], mask, out=t)
        np.bitwise_xor(rest, t, out=rest)
        if i >= n - 1 and not free.any():
            break
    # the row weights, counted down the columns in lanes: lane l of plane
    # k adds up row lane * l + k of each word, at most 2n < 2^lane
    lane = _count_lane(n)
    ones = np.uint64(sum(1 << b for b in range(0, 64, lane)))
    count = np.empty((lane, words, rounds), dtype=np.uint64)
    for k in range(lane):
        np.right_shift(cols, k, out=tmp)
        np.bitwise_and(tmp, ones, out=tmp)
        np.add.reduce(tmp, axis=0, out=count[k])
    wts = count.astype("<u8", copy=False).view(f"<u{lane // 8}").reshape(
        lane, words, rounds, 64 // lane)
    wts = wts.transpose(2, 1, 3, 0).reshape(rounds, 64 * words)[:, :n]
    r = int(wts.argmin()) // n
    wt = wts[r].min()
    bits = np.unpackbits(cols[:, :, r].astype("<u8").view(np.uint8),
                         axis=1, bitorder="little")
    ties = np.flatnonzero(wts[r] == wt)
    p = ties[bits[:, ties].argmax(axis=0).argmin()]
    return int(wt), sum(1 << int(c) for c in perm[r, bits[:, p] == 1])


# A draw of the search's column orders is written as one character, base +
# its top bits: base 0 while 2n < 256, so the text is latin-1 and CPython
# shares its one-character strings, else _PLANE, from plane 1 up, where re
# compiles a class fast (a BMP class gets a 64K map) and 2n < 2^20 fits
# below 0x10FFFF.  The generator alone takes n^2 / 4 bytes, 64 GiB there.
_PLANE = 0x10000
SEARCH_MAX_N = (1 << 19) - 1


@lru_cache(maxsize=8)
def _sample_pattern(m: int) -> tuple:
    """A pattern whose match on 32-bit outputs, each written as base + its
    top b = m.bit_length() bits, reads one rng.sample(range(m), m): group
    i + 1 is the output draw i takes.  Also base, the shifts from b bits
    to each draw's k, and the outputs a round takes on average.

    Draw i is randbelow(j) with j = m - i: it takes the top
    k = j.bit_length() bits of an output and draws again while they are
    >= j, 2^k / j outputs on average.  On the top b bits that is: an
    output is taken when below j << (b - k), else skipped."""
    b, base = m.bit_length(), 0 if m < 256 else _PLANE
    js = range(m, 0, -1)
    low, top = (re.escape(chr(base + c)) for c in (0, (1 << b) - 1))
    cuts = [base + (j << b - j.bit_length()) for j in js]
    pattern = re.compile("".join(f"[{re.escape(chr(c))}-{top}]*([{low}-"
                                 f"{re.escape(chr(c - 1))}])" for c in cuts))
    shift = np.array([b - j.bit_length() for j in js], dtype=np.uint8)
    return pattern, base, shift, sum((1 << j.bit_length()) / j for j in js)


def _column_orders(rng: random.Random, m: int, rounds: int, per_block: int):
    """Yield the column orders of `rounds` rounds in blocks of at most
    per_block rounds, each block an array of (rounds in block, m); row i
    of all blocks together is the i-th rng.sample(range(m), m).

    The outputs are drawn in bulk: rng.getrandbits(32 * count) holds count
    32-bit outputs, the first in its lowest bits, in the order sample's
    randbelow calls would take them.  One split by _sample_pattern(m) reads
    a block: per round an empty piece and its m draws, then the rest,
    carried to the next block.  A short split means the outputs ran out:
    draw more, split again.  A gap between matches, which real outputs
    never give, is refused alike.  Sample's pool steps run on the whole
    block at once.  rng ends past the last output drawn, not the last used."""
    pattern, base, shift, mean = _sample_pattern(m)
    width, codec = ("<u4", "utf-32-le") if base else ("u1", "latin-1")
    dtype = np.min_scalar_type(m - 1)
    text = ""
    for start in range(0, rounds, per_block):
        count = min(per_block, rounds - start)
        # hold what the rounds left to read take on average, 5% over
        parts, need = [], int(mean * count * 1.05) + 64
        while len(parts) != count * (m + 1) + 1 or any(parts[:-1:m + 1]):
            while (more := min(need - len(text), 1 << 16)) > 0:
                tops = np.frombuffer(rng.getrandbits(32 * more).to_bytes(
                    4 * more, "little"), dtype="<u4") >> 32 - m.bit_length()
                text += (tops + base).astype(width).tobytes().decode(codec)
            parts = pattern.split(text, count)
            need = len(text) + int(
                mean * (count - len(parts) // (m + 1)) * 1.05) + 64
        text, parts = parts.pop(), "".join(parts).encode(codec)
        draws = (np.frombuffer(parts, width) - base).reshape(count, m) >> shift
        # draw i takes pool[r] and moves pool[m - 1 - i], the last of the
        # m - i left, into its place; pool is (m, count), flat
        pool = np.repeat(np.arange(m, dtype=dtype), count)
        last = pool.reshape(m, count)
        at = draws.T * np.intp(count)
        at += np.arange(count)
        perm = np.empty((m, count), dtype=dtype)
        for i in range(m):
            perm[i] = pool.take(at[i])
            pool.put(at[i], last[m - 1 - i])
        yield perm.T


def search_settings(n: int, w: int | None = None,
                    effort: int | None = None) -> tuple[int, int]:
    """(w, effort) of low_weight_search at length n: w >= 0, gv_guarantee(n)
    by default, and effort >= 1, 200 by default.  n is checked first."""
    if n > SEARCH_MAX_N:
        raise BudgetExceededError(
            f"search mode is offered for n <= {SEARCH_MAX_N}, not n = {n}")
    if w is not None and w < 0:
        raise ValueError("w must be nonnegative")
    if effort is not None and effort < 1:
        raise ValueError("effort must be positive")
    return (gv_guarantee(n) if w is None else w,
            200 if effort is None else effort)


def low_weight_search(code: DoubleCirculantCode, w: int | None = None,
                      effort: int | None = None,
                      seed: int = 0) -> DistanceResult | None:
    """Randomized information-set search for a codeword of weight <= w;
    search_settings fills in w and effort, and checks them and n, first.

    The generator rows, the codewords of the single-bit messages, are
    examined first.  Then each of effort rounds, 200 by default, draws a
    column permutation and eliminates the generator on it; the reduced
    rows are examined in the order their pivots were found.  Ties go to
    the first strict improvement: generator rows, then rounds in order.
    Finding nothing proves nothing.  Deterministic for a fixed seed.

    Round i's column order is the i-th rng.sample(range(2n), 2n) of
    rng = random.Random(seed).  _column_orders replays those samples from
    bulk draws of the same generator, so the orders, and every value and
    witness, are sample's; the replay bounds n by SEARCH_MAX_N.

    Rounds are eliminated together, in blocks of as many rounds as fit in
    _BLOCK uint64 words at _round_words(n) a round, and at least one, so
    memory stays flat in effort.  Replaying a full block's column orders
    peaks 4.2 MiB higher at n = 61 and 3.5 MiB at n = 13 (tracemalloc).  A
    round takes its 2n columns of n row bits and a temporary as large, one
    row of them, and its row weights, counted in 8-bit lanes while 2n <= 255
    and in 16- or 32-bit lanes past that, never by unpacking every bit.
    This cannot change a value or a witness.  A round's pivots are the first
    n columns of its permutation that are independent on the code, whatever
    row each pivot is taken from, and after elimination the row of pivot p
    is the unique codeword with a 1 at p and 0 at every other pivot."""
    n = code.n
    w, effort = search_settings(n, w, effort)
    # the generator rows (Z^r a | e_r), the single-bit-message codewords,
    # all weigh 1 + wt(a), so the first is the first lightest
    best = code.a.bits | 1 << n
    best_wt = best.bit_count()
    # the generator column by column, row r in bit r % 64 of word r // 64:
    # row r has a_(c - r) at column c < n, so column c is reverse(a)
    # Z^(c + 1), and column n + r is e_r
    rev = int(f"{code.a.bits:0{n}b}"[::-1], 2)
    cols = [rotate(rev, c + 1, n) for c in range(n)]
    gen = np.array([[x >> k & (1 << 64) - 1 for k in range(0, n, 64)]
                    for x in cols + [1 << r for r in range(n)]],
                   dtype=np.uint64)
    per_block = max(1, _BLOCK // _round_words(n))
    for perm in _column_orders(random.Random(seed), 2 * n, effort, per_block):
        wt, word = _lightest_reduced_row(gen, perm)
        if wt < best_wt:
            best_wt, best = wt, word
    if best_wt <= w:
        return DistanceResult(best_wt, BitVec(best, 2 * n), False)
    return None
