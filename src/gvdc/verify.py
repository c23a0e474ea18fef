"""Empirical audits of every inequality in the bound chain, plus the
distance experiments for sampled and exhaustive circulant columns.

Each audit returns a LemmaReport whose status separates exact integer or
rational verification from high-precision numeric verification and from
sampled evidence, which is never treated as proof.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, repeat

import numpy as np

from . import bounds
from .bounds import CONSTANTS, ProofConstants
from .codes import (BitVec, CyclicCode, DoubleCirculantCode,
                    cyclic_from_vector, dc_sample, divisor_codes,
                    nonrepetition_codes)
from .gf2poly import (BudgetExceededError, degree, factorize, mod_raw,
                      ring_mul_raw, rotate)
from .numbertheory import _first_primes_from, is_prime, next_kasami_prime
from .spectrum import (ENUM_MAX_DIM, _check_engine, _gray_weights,
                       _min_codewords, low_weight_search, search_settings,
                       weight_distribution)

VERIFIED_EXACT = "verified-exact"
VERIFIED_NUMERIC = "verified-numeric"
VIOLATED = "violated"
INFORMATIVE = "informative-only"

# two-sided 99% normal quantile for the Wilson score interval
_WILSON_Z = 2.5758293035489004

# largest n for which the pair histogram enumerates every message: 4^n pairs
BRUTEFORCE_MAX_N = 14

# largest n for which the distance of every column is tabulated (2^n codes),
# and so the largest n with an exact Pr[d <= w]
TABLE_MAX_N = 16


@dataclass(frozen=True)
class LemmaReport:
    lemma: str
    parameters: dict
    status: str
    lhs: str
    rhs: str
    counterexample: str | None = None
    notes: str = ""

    def ok(self) -> bool:
        return self.status != VIOLATED


@dataclass(frozen=True)
class ExperimentRecord:
    n: int
    trial: int
    seed: int
    a_hex: str
    d_found: int | None
    exact: bool
    gv: int
    threshold_kind: str
    threshold: int


def _pairs_within(x, y, w: int) -> int:
    """Sum of x_i y_j over i + j <= w: with x and y counts by weight, the
    number of pairs of total weight at most w."""
    y_pref = list(accumulate(y))
    return sum(x[i] * y_pref[min(w - i, len(y) - 1)]
               for i in range(min(w, len(x) - 1) + 1))


def wilson_upper(successes: int, n: int) -> float:
    """Upper edge of the Wilson score interval for a binomial proportion."""
    if n <= 0:
        return 1.0
    ph = successes / n
    z2 = _WILSON_Z * _WILSON_Z
    centre = ph + z2 / (2 * n)
    rad = _WILSON_Z * math.sqrt(ph * (1 - ph) / n + z2 / (4 * n * n))
    return min(1.0, (centre + rad) / (1 + z2 / n))


def trial_seed(master: int, index: int) -> int:
    """Stable per-trial seed; independent of worker scheduling."""
    digest = hashlib.sha256(f"{master}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@lru_cache(maxsize=None)
def _wd_cached(code: CyclicCode):
    return weight_distribution(code)


@lru_cache(maxsize=8)
def _census_all(n: int) -> dict[int, tuple[int, ...]]:
    """Exact-generator census of the divisor codes of length n, keyed by
    generator in divisor_codes order: entry g counts, by weight, the
    vectors spanning exactly the code with generator g.  Code i holds the
    vectors spanning the codes j whose bits include i's, so its weight
    distribution is the sum of their rows, and the census is the Moebius
    inversion of those distributions: per factor, one pass subtracts each
    row with its bit from the row without it.  The distributions stay in
    _wd_cached for the sums that follow.  A lattice with a code whose
    dimension and codimension both exceed ENUM_MAX_DIM cannot be
    enumerated, and is refused before any code is listed: the
    codimensions are the subset sums of the factor degrees of Z^n + 1."""
    factors = factorize(n).factors
    sums = 1
    for f in factors:
        sums |= sums << degree(f)
    for codim in range(ENUM_MAX_DIM + 1, n - ENUM_MAX_DIM):
        if sums >> codim & 1:
            raise BudgetExceededError(
                f"Z^{n} + 1 has a divisor code of dimension {n - codim} and "
                f"codimension {codim}, both past the enumeration limit "
                f"{ENUM_MAX_DIM}")
    codes = divisor_codes(n)
    rows = [_wd_cached(code).counts for code in codes]
    for bit in (1 << k for k in range(len(factors))):
        for i in range(len(rows)):
            if not i & bit:
                rows[i] = tuple(a - b for a, b in zip(rows[i], rows[i | bit]))
    if any(c < 0 for row in rows for c in row):
        raise AssertionError("census went negative")
    return {code.g: row for code, row in zip(codes, rows)}


# ---------------------------------------------------------------------------
# membership distribution audit


def verify_lemma_cx(n: int) -> LemmaReport:
    """Exhaustive check that, over a uniform circulant column, the product
    x_R * a is uniform on the cyclic code spanned by x_R, and that the
    membership probability formula matches the observed counts for every
    word of length 2n.

    For each x_R the 2^n products x_R * a come from one call of the ring
    multiply on the array of every a, and are tallied by value.  Since
    |C(x_R)| divides 2^n, Pr[x_L] = count / 2^n equals 1/|C(x_R)| exactly
    when the count equals the multiplicity 2^n / |C(x_R)|, so the formula
    is checked as that integer equality.  Membership x_L = 0 mod g comes
    from the scalar remainder, once per distinct generator g, independent
    of the multiply.  A violation reports the first counterexample in x_R
    then x_L order."""
    if n % 2 == 0 or n > 10:
        raise ValueError("n must be odd and <= 10")
    size_n = 1 << n
    columns = np.arange(size_n)
    members: dict[int, np.ndarray] = {}
    for xr in range(size_n):
        c = cyclic_from_vector(BitVec(xr, n))
        counts = np.bincount(ring_mul_raw(xr, columns, n), minlength=size_n)
        mult = size_n // c.size()
        hit = counts[counts > 0]
        if not (len(hit) == c.size() and (hit == mult).all()):
            return LemmaReport(
                "membership-uniformity", {"n": n}, VIOLATED,
                f"support/multiplicity for x_R={xr:#x}", f"uniform {mult} on code",
                counterexample=f"x_R={xr:#x}")
        if c.g not in members:
            members[c.g] = np.array([mod_raw(xl, c.g) == 0
                                     for xl in range(size_n)])
        bad = np.flatnonzero(counts != np.where(members[c.g], mult, 0))
        if len(bad):
            xl = int(bad[0])
            expected = Fraction(1, c.size()) if members[c.g][xl] else Fraction(0)
            return LemmaReport(
                "membership-uniformity", {"n": n}, VIOLATED,
                str(Fraction(int(counts[xl]), size_n)), str(expected),
                counterexample=f"x_L={xl:#x} x_R={xr:#x}")
    return LemmaReport(
        "membership-uniformity", {"n": n}, VERIFIED_EXACT,
        f"all {size_n}^2 pairs", "uniform and formula-exact",
        notes=f"{size_n * size_n} products checked")


# ---------------------------------------------------------------------------
# expected codeword counts


def _weight_cap(n: int, w) -> int:
    """floor(w) capped at the length 2n of the codes; n >= 1, w >= 0."""
    if n < 1:
        raise ValueError(f"n must be >= 1, not {n}")
    W = bounds.weight_cap(2 * n, w)
    if W < 0:
        raise ValueError("w must be nonnegative")
    return W


def expected_count_exact(n: int, w) -> Fraction:
    """E[number of nonzero codewords of weight <= w] over a uniform column,
    from the divisor-lattice census: sum over codes D and generator weights
    j of census_j(D) * |{v in D : wt(v) <= w - j}| / |D|, zero word removed.
    The codes and their weight distributions are the census's own."""
    W = _weight_cap(n, w)
    total = Fraction(0)
    for g, census in _census_all(n).items():
        code = CyclicCode(n, g)
        pairs = _pairs_within(census, _wd_cached(code).counts, W)
        total += Fraction(pairs, code.size())
    return total - 1  # the zero word contributed exactly 1


@lru_cache(maxsize=8)
def _bruteforce_pair_hist(n: int) -> tuple[int, ...]:
    """Histogram over all (column a, message m != 0) pairs of the codeword
    weight wt(m a) + wt(m); 4^n work."""
    if n > BRUTEFORCE_MAX_N:
        raise BudgetExceededError(
            f"brute force enumerates 4^n pairs; n <= {BRUTEFORCE_MAX_N}")
    hist = [0] * (2 * n + 1)
    for a in range(1 << n):
        rows = DoubleCirculantCode(n, BitVec(a, n)).generator_rows()
        for w, c in enumerate(_gray_weights(rows, 2 * n)):
            hist[w] += c
    hist[0] -= 1 << n  # the zero message of every column
    return tuple(hist)


def expected_count_bruteforce(n: int, w) -> Fraction:
    """Same expectation as expected_count_exact, by enumerating every
    column and every message."""
    W = _weight_cap(n, w)
    hist = _bruteforce_pair_hist(n)
    return Fraction(sum(hist[: W + 1]), 1 << n)


@lru_cache(maxsize=6)
def dc_distance_table(n: int) -> tuple[int, ...]:
    """Exact minimum distance of every [2n, n] circulant-column code."""
    if n > TABLE_MAX_N:
        raise BudgetExceededError(
            f"exhaustive table needs 2^n codes; n <= {TABLE_MAX_N}")
    # for gcd(u, n) = 1, a(Z) -> a(Z^u) is a ring automorphism mod Z^n + 1
    # that permutes coordinates, and a rotation of the column rotates the
    # left half of every codeword: both map the codewords of column a onto
    # those of its image, weight for weight, so one search serves a whole
    # orbit of a -> Z^j a(Z^u).  Its representative is its least column.
    cols = np.arange(1 << n)
    least = cols.copy()
    for j in range(1, n):
        np.minimum(least, rotate(cols, j, n), out=least)
    # a(Z^u) is the image of a's low k bits or'ed with that of its high
    # bits, each read from a table of the 2^k or 2^(n - k) halves
    k = n // 2
    low, high = cols & ((1 << k) - 1), cols >> k
    rep = least.copy()
    for u in range(2, n):
        if math.gcd(u, n) == 1:
            to = 1 << (np.arange(n) * u % n)
            np.minimum(rep, least[_bits_to(cols[:1 << k], to[:k])[low]
                                  | _bits_to(cols[:1 << n - k], to[k:])[high]],
                       out=rep)
    reps, orbit = np.unique(rep, return_inverse=True)
    d = np.array([w for w, _ in _min_codewords(n, reps.tolist())])
    return tuple(d[orbit].tolist())


def _bits_to(x: np.ndarray, to: np.ndarray) -> np.ndarray:
    """Each x with its bit i moved to the one set bit of to[i]."""
    return ((x[:, None] >> np.arange(len(to))) & 1) @ to


@lru_cache(maxsize=6)
def _distance_cdf(n: int) -> tuple[int, ...]:
    """Entry w: the number of columns whose code has distance <= w."""
    counts = np.bincount(dc_distance_table(n), minlength=2 * n + 1)
    return tuple(accumulate(counts.tolist()))


def prob_positive_bruteforce(n: int, w) -> Fraction:
    """Exact probability that a uniform column keeps some nonzero codeword
    of weight <= w, read from dc_distance_table (n <= TABLE_MAX_N)."""
    W = _weight_cap(n, w)
    return Fraction(_distance_cdf(n)[W], 1 << n)


def _exact_report(lemma: str, params: dict, n: int, w, rhs) -> LemmaReport:
    """The exact Pr[d <= w] at length n against the bound rhs, which the
    caller computes first, so a bad input fails before the table is built."""
    lhs = prob_positive_bruteforce(n, w)
    bad = None if lhs <= rhs else f"n={n} w={w}"
    return LemmaReport(lemma, params, VIOLATED if bad else VERIFIED_EXACT,
                       str(lhs), str(rhs), counterexample=bad)


# ---------------------------------------------------------------------------
# orbit-weighted first moment bound


def orbit_bound_value(n: int, w) -> Fraction:
    """Exact value of the orbit-weighted expectation bound: the sum over
    nonzero words x of weight <= w of Pr[x is a codeword] / d(x), where
    d(x) is the period of x under the half-pair rotation.

    By Burnside's lemma this is the mean over the n rotations of the sum
    of Pr[x is a codeword] over the words x that each rotation fixes.
    Rotation by j fixes exactly the words whose halves are both
    e-periodic, e = gcd(j, n): the words (u R, v R) with u, v of length e
    and R = (Z^n + 1) / (Z^e + 1), of weight (n / e)(wt u + wt v).  Since
    gcd(v R, Z^n + 1) = R gcd(v, Z^e + 1), such a word is a codeword
    exactly as often as (u, v) is one at length e, so the sum over the
    words fixed by rotation j is the expected count at length e and
    weight cap floor(W / (n / e)).  The census behind the expected counts
    factors Z^e + 1, which takes odd e, so n must be odd."""
    W = _weight_cap(n, w)
    if n % 2 == 0:
        raise ValueError(f"the orbit bound takes odd n, not n = {n}")
    periods = Counter(math.gcd(j, n) for j in range(n))
    return sum((k * expected_count_exact(e, W // (n // e))
                for e, k in periods.items()), Fraction(0)) / n


def verify_orbit_bound(n: int, w) -> LemmaReport:
    """Exact comparison of Pr[some nonzero codeword of weight <= w] against
    the orbit-weighted expectation bound, for n <= TABLE_MAX_N."""
    return _exact_report("orbit-weighted-bound", {"n": n, "w": w}, n, w,
                         orbit_bound_value(n, w))


# ---------------------------------------------------------------------------
# level-decomposed pair sum bound


def _prime_power(p: int, m: int) -> int:
    """n = p^m, for an odd prime p and m >= 1, else a ValueError."""
    if not is_prime(p) or p == 2 or m < 1:
        raise ValueError("need an odd prime p and m >= 1")
    return p**m


def triple_sum_value(p: int, m: int, w) -> Fraction:
    """Exact value of the level sum: for each repetition level s < m and
    each non-repetition cyclic code C of length n/p^s, the pair count
    sum_{i+j <= w/p^s} A_i(C) A_j(C) / (|C| n / p^s)."""
    n = _prime_power(p, m)
    W = _weight_cap(n, w)
    total = Fraction(0)
    for s in range(m):
        ns = n // p**s
        ws = W // p**s
        for code in nonrepetition_codes(ns):
            counts = _wd_cached(code).counts
            total += Fraction(_pairs_within(counts, counts, ws),
                              code.size() * ns)
    return total


# a level-sum bound at or above this is not discriminating
_DISCRIMINATING = 0.9


def _level_reports(p: int, m: int, w, trials: int,
                   seed: int) -> list[LemmaReport]:
    """The level-sum audit at n = p^m of the one weight w, or with w None
    of every weight 1..2n.  p, m and trials are checked first; past
    TABLE_MAX_N so is n, by _check_engine, before any bound is
    computed.  Up to TABLE_MAX_N each report is exact.  Past it the sweep
    stops at the first bound that is not discriminating, and every weight
    is answered by one Monte Carlo pass over the same sampled columns: the
    distance search is capped at the largest w and decides d <= w exactly
    for every w up to the cap, so each hit count is exact."""
    n = _prime_power(p, m)
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    sampled = n > TABLE_MAX_N
    if sampled:
        _check_engine(n, capped=True)
    if w is not None:
        rhs_by_w = {w: triple_sum_value(p, m, w)}
    else:
        rhs_by_w = {}
        for v in range(1, 2 * n + 1):
            rhs = triple_sum_value(p, m, v)
            if sampled and float(rhs) >= _DISCRIMINATING:
                break
            rhs_by_w[v] = rhs
    if not sampled:
        return [_exact_report("level-pair-sum-bound", {"p": p, "m": m, "w": v},
                              n, v, rhs) for v, rhs in rhs_by_w.items()]
    if not rhs_by_w:
        return []
    _, columns = _sample_trials(n, seed, range(trials))
    dmins = [d for d, _ in _min_codewords(n, columns,
                                          math.floor(max(rhs_by_w)))]
    reports = []
    for v, rhs in rhs_by_w.items():
        hits = sum(1 for d in dmins if d <= v)
        upper = wilson_upper(hits, trials)
        if float(rhs) >= _DISCRIMINATING:
            note = (f"bound is above {_DISCRIMINATING} here and not "
                    "discriminating")
        else:
            note = (f"Wilson 99% upper edge "
                    f"{'below' if upper <= float(rhs) else 'ABOVE'} the bound "
                    f"({trials} samples, {hits} hits)")
        reports.append(LemmaReport(
            "level-pair-sum-bound",
            {"p": p, "m": m, "w": v, "trials": trials, "seed": seed},
            INFORMATIVE, f"{upper:.6f}", str(rhs), notes=note))
    return reports


def verify_triplesum(p: int, m: int, w, trials: int = 10_000,
                     seed: int = 0) -> LemmaReport:
    """Audit of the level-decomposed bound on Pr[distance <= w] at n = p^m.
    Exact for n <= TABLE_MAX_N; Monte Carlo with a 99% Wilson upper edge
    otherwise, reported as evidence only."""
    return _level_reports(p, m, w, trials, seed)[0]


def verify_triplesum_sweep(p: int, m: int, trials: int = 10_000,
                           seed: int = 0) -> list[LemmaReport]:
    """Level-sum audit across every weight w = 1..2n at n = p^m: exact for
    n <= TABLE_MAX_N, else one Monte Carlo pass shared by every w whose
    bound is still discriminating."""
    return _level_reports(p, m, None, trials, seed)


# ---------------------------------------------------------------------------
# syndrome count cap for repeated identity blocks


# the syndrome audit covers every shape with t r up to this
_REPETITION_MAX_TR = 18
# random instances drawn by the convolution-cap audit
_DISTRIB_SAMPLES = 20


def _poly_mul(x: list[int], y: list[int]) -> list[int]:
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                out[i + j] += a * b
    return out


def _syndrome_class_counts(r: int, t: int) -> np.ndarray:
    """Counts of the words of length t r by syndrome class and weight:
    entry [j, w] is the number of words of weight w whose t blocks of r
    bits XOR to any one fixed syndrome s of weight j.

    Bit k of s is the parity of the t bits at position k of the blocks,
    and the r positions are independent, so the count is the coefficient
    of z^w in E(z)^(r - j) O(z)^j, with E and O the even and odd parts of
    (1 + z)^t.  Exact integers; a count past int64 raises."""
    row = [math.comb(t, i) for i in range(t + 1)]
    even = [c if i % 2 == 0 else 0 for i, c in enumerate(row)]
    odd = [c if i % 2 else 0 for i, c in enumerate(row)]
    even_pow, odd_pow = [[1]], [[1]]
    for _ in range(r):
        even_pow.append(_poly_mul(even_pow[-1], even))
        odd_pow.append(_poly_mul(odd_pow[-1], odd))
    return np.array([_poly_mul(even_pow[r - j], odd_pow[j])
                     for j in range(r + 1)], dtype=np.int64)


def verify_repetition() -> LemmaReport:
    """Audit, on exact counts, of the syndrome count cap for every shape
    (r, t) with t r <= _REPETITION_MAX_TR, every weight, every syndrome.

    The counts come from the parity polynomials of
    _syndrome_class_counts, one row per syndrome weight; the tests check
    them against full enumeration of the words.  The cap is sqrt(2rt) Q
    with Q rational, so a count c is compared as c^2 <= 2rt Q^2, and a
    tight case is exact equality.  Cases are reported in (s, w) order, so
    a violation names the least syndrome s = 2^j - 1 of its class."""
    params = {"max_tr": _REPETITION_MAX_TR}
    # the greatest count^2 / cap^2, as a numerator and denominator
    worst = (0, 1)
    worst_at = None
    equalities = []
    for total in range(1, _REPETITION_MAX_TR + 1):
        for r in (d for d in range(1, total + 1) if total % d == 0):
            t = total // r
            qs = [bounds.repetition_cap_factor(r, t, w)
                  for w in range(total + 1)]
            tight: dict[int, list[int]] = {}
            for j, row in enumerate(_syndrome_class_counts(r, t).tolist()):
                for w, cnt in enumerate(row):
                    # count^2 / cap^2 = (count b)^2 / (2 total a^2), Q = a/b
                    num = (cnt * qs[w].denominator) ** 2
                    den = 2 * total * qs[w].numerator ** 2
                    if num > den:
                        return LemmaReport(
                            "syndrome-count-cap", params, VIOLATED,
                            str(cnt), f"{math.sqrt(2 * total) * qs[w]:.12g}",
                            counterexample=f"r={r} t={t} w={w} s={(1 << j) - 1}")
                    if num == den:
                        tight.setdefault(j, []).append(w)
                    if num * worst[1] > worst[0] * den:
                        worst = (num, den)
                        worst_at = (r, t)
            # only the first four tight cases are reported
            if tight and len(equalities) < 4:
                for s in range(1 << r):
                    equalities += [(r, t, w, s)
                                   for w in tight.get(s.bit_count(), ())]
                    if len(equalities) >= 4:
                        break
    ratio = math.sqrt(worst[0] / worst[1])
    return LemmaReport(
        "syndrome-count-cap", params, VERIFIED_NUMERIC,
        f"max count/cap ratio {ratio:.9f} at (r,t)={worst_at}",
        "1", notes=f"tight cases (r,t,w,s): {equalities[:4]}")


def _block_code_weights(r: int, t: int, cols: list[int],
                        extra: int) -> list[int]:
    """Weight distribution of the words (x1, x2), x1 of length extra and
    x2 of length t r, whose r parity rows vanish: row k checks the bits of
    x1 in cols[k] and bit k of every r-bit block of x2."""
    classes = _syndrome_class_counts(r, t)
    # the extra half by (syndrome, weight), convolved over weight with the
    # repeated-block half of the same syndrome
    x1 = np.arange(1 << extra, dtype=np.uint64)
    w1 = np.bitwise_count(x1).astype(np.int64)
    s1 = np.zeros_like(w1)
    for k in range(r):
        parity = np.bitwise_count(x1 & np.uint64(cols[k])) & 1
        s1 |= parity.astype(np.int64) << k
    ext = np.bincount(s1 * (extra + 1) + w1, minlength=(1 << r) * (extra + 1))
    ext = ext.reshape(1 << r, extra + 1)
    return sum(np.convolve(ext[s], classes[s.bit_count()])
               for s in range(1 << r)).tolist()


def verify_distrib_inequality(seed: int = 7) -> LemmaReport:
    """Random-instance audit of the convolution cap on the weight
    distribution of codes cut out by r parity rows on a repeated identity
    block plus arbitrary extra columns; checked for every i >= t r.

    The cap at i is sqrt(2rt) S_i with S_i = sum over j of
    repetition_cap_factor(r, t, j) C(extra, i - j), compared squared in
    rationals as for the syndrome count cap."""
    params = {"samples": _DISTRIB_SAMPLES, "seed": seed}
    rng = random.Random(seed)
    for trial in range(_DISTRIB_SAMPLES):
        r = rng.randint(1, 4)
        t = rng.randint(2, 4)
        tr = t * r
        extra = rng.randint(0, min(8, 16 - tr))
        cols = [rng.getrandbits(extra) for _ in range(r)]
        counts = _block_code_weights(r, t, cols, extra)
        qs = [bounds.repetition_cap_factor(r, t, j) for j in range(tr + 1)]
        ext = bounds.binomials(extra, extra)
        for i in range(tr, tr + extra + 1):
            # the cap is sqrt(2rt) times this rational sum
            cap_q = sum(qs[j] * ext[i - j]
                        for j in range(max(0, i - extra), min(tr, i) + 1))
            if counts[i] ** 2 > 2 * tr * cap_q ** 2:
                return LemmaReport(
                    "spectrum-convolution-cap", params, VIOLATED,
                    str(counts[i]), f"{math.sqrt(2 * tr) * cap_q:.12g}",
                    counterexample=f"trial={trial} r={r} t={t} extra={extra} i={i}")
    return LemmaReport(
        "spectrum-convolution-cap", params, VERIFIED_NUMERIC,
        f"{_DISTRIB_SAMPLES} random instances", "all within cap")


# ---------------------------------------------------------------------------
# numeric caps


def verify_kappa_numerics(consts: ProofConstants = CONSTANTS) -> LemmaReport:
    """Numeric audit of the refined spectrum estimate: the per-row overhead
    cap, the tail exponent maximum, their sum against 2/5, and the side
    conditions on t and the ball rate."""
    from ._mp import mpf, nstr

    primes = _first_primes_from(consts.prime_floor, 10)
    notes = [f"primes {primes[0]}..{primes[-1]}"]
    for p in primes:
        if not bounds.overhead_exponent_cap(p) < mpf(str(consts.beta_cap)):
            return LemmaReport("refined-spectrum-caps", {}, VIOLATED,
                               nstr(bounds.overhead_exponent_cap(p), 12),
                               str(consts.beta_cap), counterexample=f"p={p}")
        if not consts.copies ** 3 <= p:
            return LemmaReport("refined-spectrum-caps", {}, VIOLATED,
                               f"t^3={consts.copies ** 3}", f"p={p}",
                               counterexample=f"p={p}")
    fval, grid_max, gap = bounds.max_weight_tail_exponent(
        consts.kappa, consts.copies)
    checks = [
        (fval <= mpf(str(consts.f_cap)), f"f={nstr(fval, 10)} <= {consts.f_cap}"),
        (abs(gap) < mpf("1e-7"), f"grid refinement gap {nstr(gap, 3)}"),
        (consts.beta_cap + consts.f_cap <= 0.4,
         f"{consts.beta_cap}+{consts.f_cap} <= 2/5"),
        (Fraction(1) - Fraction(str(consts.beta_cap)) - Fraction(str(consts.f_cap))
         >= consts.weight_exponent,
         "conclusion exponent >= 3/5"),
        (bounds.ball_rate_ok(consts.prime_floor, consts=consts),
         "ball rate condition at the floor"),
    ]
    for ok, desc in checks:
        if not ok:
            return LemmaReport("refined-spectrum-caps", {}, VIOLATED,
                               desc, "required")
        notes.append(desc)
    return LemmaReport("refined-spectrum-caps", {"primes": 10},
                       VERIFIED_NUMERIC, "all caps hold", "required",
                       notes="; ".join(notes))


# the relative weights omega = w / 2n at which the split tail count is checked
_OMEGA_GRID = tuple(Fraction(k, 1000) for k in range(100, 125))


def verify_enumeration(n: int | None = None,
                       consts: ProofConstants = CONSTANTS) -> LemmaReport:
    """Exact big-integer audit of the split tail count: twice the sum of
    C(n,i) C(n,j) over i + j <= w, i < kappa n, against the nonzero ball of
    radius w in length 2n discounted by 2^(epsilon n).  The irrational
    discount is rounded up to the next integer exponent, which only makes
    the check harder.  The count is claimed from n_floor on; a smaller n
    is a ValueError."""
    from ._mp import mpf, nstr

    n = consts.n_floor if n is None else n
    if n < consts.n_floor:
        raise ValueError("the split tail count is claimed for "
                         f"n >= n_floor = {consts.n_floor}, not n = {n}")
    imax = math.ceil(consts.kappa * n) - 1
    eps_up = math.ceil(consts.epsilon * n)
    wmax = max(math.floor(2 * om * n) for om in _OMEGA_GRID)
    binom = bounds.binomials(n, min(wmax, n))
    pref2 = [0, *accumulate(bounds.binomials(2 * n, wmax))]
    margin = bounds.enumeration_margin(n, consts=consts)
    if margin < mpf(str(consts.epsilon)):
        return LemmaReport("split-tail-count", {"n": n}, VIOLATED,
                           nstr(margin, 10), str(consts.epsilon),
                           counterexample="analytic margin")
    for om in _OMEGA_GRID:
        w = math.floor(2 * om * n)
        lhs = 2 * _pairs_within(binom[:imax + 1], binom, w)
        ball = pref2[w + 1] - 1
        if lhs << eps_up > ball:
            return LemmaReport("split-tail-count", {"n": n}, VIOLATED,
                               str(lhs << eps_up), str(ball),
                               counterexample=f"omega={om}")
    return LemmaReport(
        "split-tail-count", {"n": n, "grid": len(_OMEGA_GRID)}, VERIFIED_EXACT,
        f"{len(_OMEGA_GRID)} grid points hold with exponent rounded up to {eps_up}",
        f"analytic margin {nstr(margin, 6)} >= {consts.epsilon}")


def verify_c2_and_series(consts: ProofConstants = CONSTANTS) -> LemmaReport:
    """Numeric audit of the class geometric sum cap, the repetition level
    series cap, and the final contraction of the whole chain."""
    from ._mp import mpf, nstr

    probe = [consts.prime_floor] + _first_primes_from(consts.prime_floor, 10)
    for p in probe:
        if not bounds.class_sum_bound(p, consts) <= mpf(str(consts.class_sum_cap)) + mpf("1e-12"):
            return LemmaReport("class-sum-and-series", {}, VIOLATED,
                               nstr(bounds.class_sum_bound(p, consts), 14),
                               str(consts.class_sum_cap),
                               counterexample=f"p={p}")
    for p in probe[1:]:
        for m in range(1, 7):
            cap = mpf(2) / p
            if not bounds.level_series_bound(p, m) <= cap:
                return LemmaReport("class-sum-and-series", {}, VIOLATED,
                                   nstr(bounds.level_series_bound(p, m), 12),
                                   nstr(cap, 12), counterexample=f"p={p} m={m}")
    # the contraction is rational once the cap value is taken at face value
    c2 = Fraction(str(consts.class_sum_cap))
    first_kasami = next_kasami_prime(consts.prime_floor)
    chain = consts.ball_fraction * c2 + 2 * c2 / first_kasami
    tail = consts.gamma() ** (first_kasami - 1)
    if not (chain < 1 and tail < mpf("1e-100")):
        return LemmaReport("class-sum-and-series", {}, VIOLATED,
                           str(chain), "1")
    return LemmaReport(
        "class-sum-and-series", {"primes": len(probe)}, VERIFIED_NUMERIC,
        f"chain value {float(chain):.12f}", "< 1",
        notes=(f"first prime probed {probe[1]}; geometric tail at "
               f"{first_kasami} is {nstr(tail, 3)} (< 1e-100)"))


# ---------------------------------------------------------------------------
# experiments


# wall time that forking a pool of workers, feeding it and shutting it
# down costs: 20-50 ms for two workers on a 2-core machine.  An experiment
# runs its trials in process until they have taken this long.
_POOL_START_S = 0.05

# exact trials per engine call, and trials per pool job under a budget
_TRIAL_BLOCK = 64


def _sample_trials(n: int, master_seed: int, indices) -> tuple[list, list]:
    """The trial seeds of the trial indices, and the columns they sample."""
    seeds = [trial_seed(master_seed, i) for i in indices]
    return seeds, [dc_sample(n, s).a.bits for s in seeds]


def _run_trials(n: int, master_seed: int, mode: str, search_weight, effort,
                indices: range, stop: float) -> list[tuple]:
    """(idx, seed, column bits, distance found) of each sampled trial in
    indices, in order, up to the first exact block or search trial that
    would start at or past stop, a time.monotonic() value.  Exact trials
    go to the engine _TRIAL_BLOCK at a time; search trials run one by
    one.  The in-process phase and every pool worker run this."""
    step = _TRIAL_BLOCK if mode == "exact" else 1
    rows = []
    for i in range(0, len(indices), step):
        if time.monotonic() >= stop:
            break
        block = indices[i:i + step]
        seeds, columns = _sample_trials(n, master_seed, block)
        if mode == "exact":
            found = [d for d, _ in _min_codewords(n, columns)]
        else:
            code = DoubleCirculantCode(n, BitVec(columns[0], n))
            res = low_weight_search(code, search_weight, effort=effort,
                                    seed=trial_seed(seeds[0], block[0]))
            found = [None if res is None else res.value]
        rows += zip(block, seeds, columns, found)
    return rows


def experiment_distance(n: int | None = None, p: int | None = None,
                        m: int | None = None, trials: int = 1000,
                        seed: int = 0, mode: str = "exact",
                        search_weight: int | None = None,
                        effort: int | None = None, exhaustive: bool = False,
                        workers: int = 1, max_seconds: float | None = None,
                        consts: ProofConstants = CONSTANTS,
                        ) -> tuple[list[ExperimentRecord], dict]:
    """Distance statistics for sampled (or all) circulant columns at
    length n, or p^m with m = 1 by default: give n or p, not both.

    Exact mode records each code's exact minimum distance, at the n
    _check_engine takes; search mode records the best witness
    low_weight_search(code, search_weight, effort) finds, and only it
    takes those two, filled in and checked with n by search_settings.

    Exact trials go to the distance engine in blocks of _TRIAL_BLOCK
    columns; search trials run one at a time.  Trials run in this process,
    in order, until they have taken as long as starting a pool costs
    (_POOL_START_S).  Only then, and only with workers > 1, are the
    remaining trials handed to a pool of at most `workers` processes,
    forked from this one so that they inherit the tables its trials
    built.  workers must be at least 1; records are identical for any
    worker count.  A max_seconds budget, a nonnegative number of
    seconds, is checked between blocks and between search trials: it
    stops scheduling further trials and marks the summary truncated; the
    finished trials are kept, and they are always a prefix of the trials.

    An exhaustive run is exact only: it reads every column's distance
    from dc_distance_table(n), with trial = column and seed 0, so its trial
    count is 2^n.  It ignores workers and max_seconds and is never
    truncated; the table is bounded by TABLE_MAX_N instead.  At n = 16,
    `gvdc experiment --n 16 --exhaustive` took about 0.5 s end to end on a
    shared 2-core machine, 0.03 s of it for the table."""
    if (n is None) == (p is None) or (m is not None and p is None):
        raise ValueError("give n, or p with an optional m, but not both")
    if n is None:
        n = _prime_power(p, 1 if m is None else m)
    if mode not in ("exact", "search"):
        raise ValueError("mode must be 'exact' or 'search'")
    if exhaustive and mode != "exact":
        raise ValueError("exhaustive runs are exact only")
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if mode == "exact" and (search_weight, effort) != (None, None):
        raise ValueError("a search weight or effort is a search-mode setting")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if max_seconds is not None and not max_seconds >= 0:
        raise ValueError(f"max_seconds must be nonnegative, not {max_seconds}")
    if mode == "exact":
        _check_engine(n, capped=False)
    else:
        search_weight, effort = search_settings(n, search_weight, effort)
    gv = bounds.gv_guarantee(n)
    try:
        kind, threshold = "simple", bounds.simple_threshold(n)
    except ValueError:
        kind, threshold = "main", bounds.main_threshold(n, consts)
    if exhaustive:
        rows = [(a, 0, a, d) for a, d in enumerate(dc_distance_table(n))]
        trials = len(rows)
    else:
        deadline = time.monotonic() + (math.inf if max_seconds is None
                                       else max_seconds)
        run = partial(_run_trials, n, seed, mode, search_weight, effort)
        # trials run here until they have cost what starting a pool would
        rows = run(range(trials), deadline if workers == 1 else
                   min(deadline, time.monotonic() + _POOL_START_S))
        if len(rows) < trials and time.monotonic() < deadline:
            # the rest on a pool, one job per worker; under a budget, jobs
            # of at most _TRIAL_BLOCK trials, each of which stops at the
            # deadline.  Jobs are collected in order up to the first short
            # one, so the records stay a prefix of the trials, and fall
            # short of them only past the deadline.  Fork is named because
            # it is not the default start method everywhere (Python 3.14
            # on Linux uses forkserver), and only forked workers inherit
            # the tables the trials above built instead of importing gvdc
            # again.
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            rest = range(len(rows), trials)
            chunk = -(-len(rest) // workers)
            if max_seconds is not None:
                chunk = min(chunk, _TRIAL_BLOCK)
            jobs = [rest[i:i + chunk] for i in range(0, len(rest), chunk)]
            with ProcessPoolExecutor(
                    max_workers=min(workers, len(jobs)),
                    mp_context=multiprocessing.get_context("fork")) as pool:
                for job, block in zip(jobs, pool.map(run, jobs,
                                                     repeat(deadline))):
                    rows += block
                    if len(block) < len(job):
                        break
                pool.shutdown(cancel_futures=True)
    records = [ExperimentRecord(n, idx, tseed, hex(a_bits), found,
                                mode == "exact", gv, kind, threshold)
               for idx, tseed, a_bits, found in rows]
    found_vals = sorted(r.d_found for r in records if r.d_found is not None)
    done = len(records)
    summary: dict = {
        "n": n, "mode": mode, "seed": seed, "exhaustive": exhaustive,
        "trials": trials, "completed": done,
        "truncated": done < trials, "vacuous": done == 0,
        "gv_guarantee": gv,
        "threshold_kind": kind, "threshold": threshold,
        "histogram": {str(k): v
                      for k, v in sorted(Counter(found_vals).items())},
        "none_found": sum(1 for r in records if r.d_found is None),
    }
    if found_vals:
        summary["d_min"] = found_vals[0]
        summary["d_max"] = found_vals[-1]
        summary["d_median"] = found_vals[len(found_vals) // 2]
    if mode == "exact" and done:
        at_most = sum(1 for v in found_vals if v <= threshold)
        summary["empirical_le_threshold"] = str(Fraction(at_most, done))
        if kind == "simple":
            bound = bounds.simple_prob_bound(n, threshold)
            summary["prob_bound"] = str(bound)
            if exhaustive:
                summary["prob_bound_holds"] = Fraction(at_most, done) <= bound
            else:
                summary["wilson_upper_99"] = round(wilson_upper(at_most, done), 9)
    return records, summary
