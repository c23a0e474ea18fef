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
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from mpmath import mpf, nstr

from . import bounds
from .bounds import CONSTANTS, ProofConstants
from .codes import (BitVec, CyclicCode, DoubleCirculantCode,
                    cyclic_from_vector, dc_sample, divisor_codes,
                    nonrepetition_codes)
from .gf2poly import BudgetExceededError, mod_raw, ring_modulus, ring_mul_raw
from .numbertheory import _first_primes_from, is_prime, next_kasami_prime
from .spectrum import (_gray_weights, _NecklaceKernel, low_weight_search,
                       weight_distribution)

VERIFIED_EXACT = "verified-exact"
VERIFIED_NUMERIC = "verified-numeric"
VIOLATED = "violated"
INFORMATIVE = "informative-only"

# two-sided 99% normal quantile for the Wilson score interval
_WILSON_Z = 2.5758293035489004


@dataclass(frozen=True)
class LemmaReport:
    lemma: str
    parameters: dict
    status: str
    lhs: str
    rhs: str
    counterexample: str | None = None
    runtime: float = 0.0
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


def wilson_upper(successes: int, n: int, z: float = _WILSON_Z) -> float:
    """Upper edge of the Wilson score interval for a binomial proportion."""
    if n <= 0:
        return 1.0
    ph = successes / n
    z2 = z * z
    centre = ph + z2 / (2 * n)
    rad = z * math.sqrt(ph * (1 - ph) / n + z2 / (4 * n * n))
    return min(1.0, (centre + rad) / (1 + z2 / n))


def trial_seed(master: int, index: int) -> int:
    """Stable per-trial seed; independent of worker scheduling."""
    digest = hashlib.sha256(f"{master}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@lru_cache(maxsize=32)
def _wd_cached(code: CyclicCode):
    return weight_distribution(code)


@lru_cache(maxsize=8)
def _census_all(n: int) -> dict[int, tuple[int, ...]]:
    """Exact-generator census for every divisor code of length n: entry g
    counts, by weight, the vectors spanning exactly the code with
    generator g."""
    order = sorted(divisor_codes(n), key=lambda c: c.dim)
    res: dict[int, tuple[int, ...]] = {}
    for code in order:
        counts = list(_wd_cached(code).counts)
        for other in order:
            if other.g != code.g and mod_raw(other.g, code.g) == 0:
                for j, c in enumerate(res[other.g]):
                    counts[j] -= c
        if any(c < 0 for c in counts):
            raise AssertionError("census went negative")
        res[code.g] = tuple(counts)
    return res


# ---------------------------------------------------------------------------
# membership distribution audit


def verify_lemma_cx(n: int) -> LemmaReport:
    """Exhaustive check that, over a uniform circulant column, the product
    x_R * a is uniform on the cyclic code spanned by x_R, and that the
    membership probability formula matches the observed counts for every
    word of length 2n."""
    if n % 2 == 0 or n > 10:
        raise ValueError("n must be odd and <= 10")
    t0 = time.monotonic()
    size_n = 1 << n
    for xr in range(size_n):
        c = cyclic_from_vector(BitVec(xr, n)) if xr else CyclicCode(n, ring_modulus(n))
        counts: dict[int, int] = {}
        for a in range(size_n):
            prod = ring_mul_raw(xr, a, n)
            counts[prod] = counts.get(prod, 0) + 1
        mult = size_n // c.size()
        uniform = len(counts) == c.size() and all(v == mult for v in counts.values())
        if not uniform:
            return LemmaReport(
                "membership-uniformity", {"n": n}, VIOLATED,
                f"support/multiplicity for x_R={xr:#x}", f"uniform {mult} on code",
                counterexample=f"x_R={xr:#x}", runtime=time.monotonic() - t0)
        for xl in range(size_n):
            expected = (Fraction(1, c.size())
                        if mod_raw(xl, c.g) == 0 else Fraction(0))
            observed = Fraction(counts.get(xl, 0), size_n)
            if expected != observed:
                return LemmaReport(
                    "membership-uniformity", {"n": n}, VIOLATED,
                    str(observed), str(expected),
                    counterexample=f"x_L={xl:#x} x_R={xr:#x}",
                    runtime=time.monotonic() - t0)
    return LemmaReport(
        "membership-uniformity", {"n": n}, VERIFIED_EXACT,
        f"all {size_n}^2 pairs", "uniform and formula-exact",
        runtime=time.monotonic() - t0,
        notes=f"{size_n * size_n} products checked")


# ---------------------------------------------------------------------------
# expected codeword counts


def expected_count_exact(n: int, w) -> Fraction:
    """E[number of nonzero codewords of weight <= w] over a uniform column,
    from the divisor-lattice census: sum over codes D and generator weights
    j of census_j(D) * |{v in D : wt(v) <= w - j}| / |D|, zero word removed."""
    W = min(math.floor(w), 2 * n)
    if W < 0:
        raise ValueError("w must be nonnegative")
    census = _census_all(n)
    total = Fraction(0)
    for code in divisor_codes(n):
        counts = _wd_cached(code).counts
        pref = [0] * (n + 2)
        for i in range(n + 1):
            pref[i + 1] = pref[i] + counts[i]
        g_counts = census[code.g]
        for j in range(min(n, W) + 1):
            if g_counts[j]:
                total += Fraction(g_counts[j] * pref[min(W - j, n) + 1],
                                  code.size())
    return total - 1  # the zero word contributed exactly 1


@lru_cache(maxsize=8)
def _bruteforce_pair_hist(n: int) -> tuple[int, ...]:
    """Histogram over all (column a, message m != 0) pairs of the codeword
    weight wt(m a) + wt(m); 4^n work."""
    if n > 14:
        raise BudgetExceededError("brute force enumerates 4^n pairs; n <= 14")
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
    W = min(math.floor(w), 2 * n)
    hist = _bruteforce_pair_hist(n)
    return Fraction(sum(hist[: W + 1]), 1 << n)


@lru_cache(maxsize=6)
def dc_distance_table(n: int) -> tuple[int, ...]:
    """Exact minimum distance of every [2n, n] circulant-column code."""
    if n > 16:
        raise BudgetExceededError("exhaustive table needs 2^n codes; n <= 16")
    kernel = _NecklaceKernel(n, None)
    return tuple(kernel.min_weight(a)[0] for a in range(1 << n))


def prob_positive_bruteforce(n: int, w) -> Fraction:
    """Exact probability that a uniform column keeps some nonzero codeword
    of weight <= w."""
    if n > 14:
        raise BudgetExceededError("n <= 14 for the exhaustive sweep")
    W = math.floor(w)
    table = dc_distance_table(n)
    return Fraction(sum(1 for d in table if d <= W), 1 << n)


# ---------------------------------------------------------------------------
# orbit-weighted first moment bound


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def orbit_bound_value(n: int, w) -> Fraction:
    """Exact value of the orbit-weighted expectation bound: the sum over
    nonzero words x of weight <= w of Pr[x is a codeword] / orbit_length(x),
    grouped by the period d of the half-pair rotation."""
    W = min(math.floor(w), 2 * n)
    from .codes import membership_probability

    def periodic_total(d: int) -> Fraction:
        # all nonzero x whose halves are both d-periodic, weight <= W
        if d == n:
            return expected_count_exact(n, W)
        rep = n // d
        tot = Fraction(0)
        for bl in range(1 << d):
            wl = bl.bit_count() * rep
            if wl > W:
                continue
            left = 0
            for i in range(rep):
                left |= bl << (i * d)
            for br in range(1 << d):
                if bl == 0 and br == 0:
                    continue
                wt = wl + br.bit_count() * rep
                if wt > W:
                    continue
                right = 0
                for i in range(rep):
                    right |= br << (i * d)
                tot += membership_probability(BitVec(left | (right << n), 2 * n))
        return tot

    divs = _divisors(n)
    totals = {d: periodic_total(d) for d in divs}
    exact_period: dict[int, Fraction] = {}
    for d in divs:
        exact_period[d] = totals[d] - sum(
            (exact_period[e] for e in divs if d % e == 0 and e < d),
            Fraction(0))
    return sum((exact_period[d] / d for d in divs), Fraction(0))


def verify_orbit_bound(n: int, w) -> LemmaReport:
    """Exact comparison of Pr[some nonzero codeword of weight <= w] against
    the orbit-weighted expectation bound."""
    if n > 14:
        raise ValueError("exact orbit audit is limited to n <= 14")
    t0 = time.monotonic()
    lhs = prob_positive_bruteforce(n, w)
    rhs = orbit_bound_value(n, w)
    status = VERIFIED_EXACT if lhs <= rhs else VIOLATED
    return LemmaReport(
        "orbit-weighted-bound", {"n": n, "w": w}, status,
        str(lhs), str(rhs), runtime=time.monotonic() - t0,
        counterexample=None if lhs <= rhs else f"n={n} w={w}")


# ---------------------------------------------------------------------------
# level-decomposed pair sum bound


def triple_sum_value(p: int, m: int, w) -> Fraction:
    """Exact value of the level sum: for each repetition level s < m and
    each non-repetition cyclic code C of length n/p^s, the pair count
    sum_{i+j <= w/p^s} A_i(C) A_j(C) / (|C| n / p^s)."""
    n = p**m
    total = Fraction(0)
    for s in range(m):
        ns = n // p**s
        ws = math.floor(Fraction(w) / p**s)
        if ws < 0:
            continue
        for code in nonrepetition_codes(ns):
            counts = _wd_cached(code).counts
            pref = [0] * (ns + 2)
            for i in range(ns + 1):
                pref[i + 1] = pref[i] + counts[i]
            inner = sum(counts[i] * pref[min(ws - i, ns) + 1]
                        for i in range(min(ws, ns) + 1))
            total += Fraction(inner, code.size() * ns)
    return total


# a level-sum bound at or above this is not discriminating
_DISCRIMINATING = 0.9


def _sampled_level_reports(p: int, m: int, rhs_by_w: dict, trials: int,
                           seed: int, t0: float) -> list[LemmaReport]:
    """Monte Carlo audit of the level sum at n = p^m for every w in
    rhs_by_w, all answered by one pass over the same sampled columns.  The
    kernel is capped at the largest w; its minimum is exact whenever it is
    at or below the cap, so each hit count is exact."""
    n = p**m
    kernel = _NecklaceKernel(n, math.floor(max(rhs_by_w)))
    dmins = [kernel.min_weight(dc_sample(n, trial_seed(seed, i)).a.bits)[0]
             for i in range(trials)]
    runtime = time.monotonic() - t0
    reports = []
    for w, rhs in sorted(rhs_by_w.items()):
        hits = sum(1 for d in dmins if d <= w)
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
            {"p": p, "m": m, "w": w, "trials": trials, "seed": seed},
            INFORMATIVE, f"{upper:.6f}", str(rhs), runtime=runtime,
            notes=note))
    return reports


def verify_triplesum(p: int, m: int, w, trials: int = 10_000,
                     seed: int = 0) -> LemmaReport:
    """Audit of the level-decomposed bound on Pr[distance <= w] at n = p^m.
    Exact for n <= 14; Monte Carlo with a 99% Wilson upper edge otherwise,
    reported as evidence only."""
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    n = p**m
    t0 = time.monotonic()
    rhs = triple_sum_value(p, m, w)
    if n > 14:
        return _sampled_level_reports(p, m, {w: rhs}, trials, seed, t0)[0]
    lhs = prob_positive_bruteforce(n, w)
    status = VERIFIED_EXACT if lhs <= rhs else VIOLATED
    return LemmaReport("level-pair-sum-bound", {"p": p, "m": m, "w": w},
                       status, str(lhs), str(rhs),
                       runtime=time.monotonic() - t0,
                       counterexample=None if lhs <= rhs else f"n={n} w={w}")


def verify_triplesum_sweep(p: int, m: int, trials: int = 10_000,
                           seed: int = 0) -> list[LemmaReport]:
    """Level-sum audit across every weight at n = p^m.  Exact for n <= 14.
    Larger n: one Monte Carlo pass shared by every w whose bound is still
    discriminating."""
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    n = p**m
    if n <= 14:
        return [verify_triplesum(p, m, w) for w in range(1, 2 * n + 1)]
    t0 = time.monotonic()
    rhs_by_w = {}
    for w in range(1, 2 * n + 1):
        rhs = triple_sum_value(p, m, w)
        if float(rhs) >= _DISCRIMINATING:
            break
        rhs_by_w[w] = rhs
    if not rhs_by_w:
        return []
    return _sampled_level_reports(p, m, rhs_by_w, trials, seed, t0)


# ---------------------------------------------------------------------------
# syndrome count cap for repeated identity blocks


def verify_repetition(max_tr: int = 18) -> LemmaReport:
    """Exhaustive audit of the syndrome count cap for every shape (r, t)
    with t r <= max_tr, every weight, every syndrome."""
    t0 = time.monotonic()
    worst_ratio = 0.0
    worst_at = None
    equalities = []
    for total in range(1, max_tr + 1):
        for r in _divisors(total):
            t = total // r
            x = np.arange(1 << total, dtype=np.uint64)
            mask = np.uint64((1 << r) - 1)
            syn = x & mask
            for c in range(1, t):
                syn = syn ^ ((x >> np.uint64(c * r)) & mask)
            wts = np.bitwise_count(x).astype(np.int64)
            flat = syn.astype(np.int64) * (total + 1) + wts
            counts = np.bincount(flat, minlength=(1 << r) * (total + 1))
            counts = counts.reshape(1 << r, total + 1)
            caps = [bounds.repetition_bound(r, t, w) for w in range(total + 1)]
            caps_f = np.array([float(c) for c in caps])
            ratios = counts / caps_f
            peak = float(ratios.max())
            if peak > worst_ratio:
                worst_ratio = peak
                worst_at = (r, t)
            # near or past the cap in float: recheck against mpf exactly
            sus = np.argwhere(ratios > 1 - 1e-9)
            for s_idx, w_idx in sus:
                cnt = int(counts[s_idx, w_idx])
                if mpf(cnt) > caps[w_idx]:
                    return LemmaReport(
                        "syndrome-count-cap", {"max_tr": max_tr}, VIOLATED,
                        str(cnt), nstr(caps[w_idx], 12),
                        counterexample=f"r={r} t={t} w={w_idx} s={s_idx}",
                        runtime=time.monotonic() - t0)
                if mpf(cnt) == caps[w_idx]:
                    equalities.append((r, t, int(w_idx), int(s_idx)))
    return LemmaReport(
        "syndrome-count-cap", {"max_tr": max_tr}, VERIFIED_NUMERIC,
        f"max count/cap ratio {worst_ratio:.9f} at (r,t)={worst_at}",
        "1", runtime=time.monotonic() - t0,
        notes=f"tight cases (r,t,w,s): {equalities[:4]}")


def verify_distrib_inequality(samples: int = 20, seed: int = 7) -> LemmaReport:
    """Random-instance audit of the convolution cap on the weight
    distribution of codes cut out by r parity rows on a repeated identity
    block plus arbitrary extra columns; checked for every i >= t r."""
    t0 = time.monotonic()
    rng = random.Random(seed)
    from mpmath import sqrt

    for trial in range(samples):
        r = rng.randint(1, 4)
        t = rng.randint(2, 4)
        tr = t * r
        extra = rng.randint(0, min(8, 16 - tr))
        n = tr + extra
        cols = [rng.getrandbits(extra) for _ in range(r)]
        # weight histogram of the repeated-block half, per syndrome
        hist = [[0] * (tr + 1) for _ in range(1 << r)]
        rmask = (1 << r) - 1
        for x2 in range(1 << tr):
            s = 0
            for c in range(t):
                s ^= (x2 >> (c * r)) & rmask
            hist[s][x2.bit_count()] += 1
        counts = [0] * (n + 1)
        for x1 in range(1 << extra):
            s1 = 0
            for k in range(r):
                s1 |= ((x1 & cols[k]).bit_count() & 1) << k
            w1 = x1.bit_count()
            row = hist[s1]
            for w2 in range(tr + 1):
                if row[w2]:
                    counts[w1 + w2] += row[w2]
        lead = sqrt(2 * tr)
        for i in range(tr, n + 1):
            cap = mpf(0)
            for j in range(max(0, i - extra), min(tr, i) + 1):
                om = mpf(j) / tr
                cap += ((1 + abs(1 - 2 * om) ** t) / 2) ** r \
                    * math.comb(tr, j) * math.comb(extra, i - j)
            cap *= lead
            if mpf(counts[i]) > cap:
                return LemmaReport(
                    "spectrum-convolution-cap",
                    {"samples": samples, "seed": seed}, VIOLATED,
                    str(counts[i]), nstr(cap, 12),
                    counterexample=f"trial={trial} r={r} t={t} extra={extra} i={i}",
                    runtime=time.monotonic() - t0)
    return LemmaReport(
        "spectrum-convolution-cap", {"samples": samples, "seed": seed},
        VERIFIED_NUMERIC, f"{samples} random instances", "all within cap",
        runtime=time.monotonic() - t0)


# ---------------------------------------------------------------------------
# numeric caps


def verify_kappa_numerics(consts: ProofConstants = CONSTANTS) -> LemmaReport:
    """Numeric audit of the refined spectrum estimate: the per-row overhead
    cap, the tail exponent maximum, their sum against 2/5, and the side
    conditions on t and the ball rate."""
    t0 = time.monotonic()
    primes = _first_primes_from(consts.prime_floor, 10)
    notes = [f"primes {primes[0]}..{primes[-1]}"]
    for p in primes:
        if not bounds.overhead_exponent_cap(p) < mpf(str(consts.beta_cap)):
            return LemmaReport("refined-spectrum-caps", {}, VIOLATED,
                               nstr(bounds.overhead_exponent_cap(p), 12),
                               str(consts.beta_cap), counterexample=f"p={p}",
                               runtime=time.monotonic() - t0)
        if not consts.copies ** 3 <= p:
            return LemmaReport("refined-spectrum-caps", {}, VIOLATED,
                               f"t^3={consts.copies ** 3}", f"p={p}",
                               counterexample=f"p={p}",
                               runtime=time.monotonic() - t0)
    fval, grid_max, gap = bounds.max_weight_tail_exponent(
        consts.kappa, consts.copies, detail=True)
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
                               desc, "required", runtime=time.monotonic() - t0)
        notes.append(desc)
    return LemmaReport("refined-spectrum-caps", {"primes": 10},
                       VERIFIED_NUMERIC, "all caps hold", "required",
                       runtime=time.monotonic() - t0, notes="; ".join(notes))


def verify_enumeration(n: int | None = None, omega_grid=None,
                       consts: ProofConstants = CONSTANTS) -> LemmaReport:
    """Exact big-integer audit of the split tail count: twice the sum of
    C(n,i) C(n,j) over i + j <= w, i < kappa n, against the nonzero ball of
    radius w in length 2n discounted by 2^(epsilon n).  The irrational
    discount is rounded up to the next integer exponent, which only makes
    the check harder."""
    t0 = time.monotonic()
    n = consts.n_floor if n is None else n
    if omega_grid is None:
        omega_grid = [Fraction(k, 1000) for k in range(100, 125)]
    imax = math.ceil(consts.kappa * n) - 1
    eps_up = math.ceil(consts.epsilon * n)
    wmax = max(math.floor(2 * om * n) for om in omega_grid)
    binom = [math.comb(n, k) for k in range(min(wmax, n) + 1)]
    pref = [0]
    for b in binom:
        pref.append(pref[-1] + b)
    pref2 = [0]
    for k in range(wmax + 1):
        pref2.append(pref2[-1] + math.comb(2 * n, k))
    margin = bounds.enumeration_margin(n, consts=consts)
    if margin < mpf(str(consts.epsilon)):
        return LemmaReport("split-tail-count", {"n": n}, VIOLATED,
                           nstr(margin, 10), str(consts.epsilon),
                           counterexample="analytic margin",
                           runtime=time.monotonic() - t0)
    for om in omega_grid:
        w = math.floor(2 * Fraction(om) * n)
        lhs = 2 * sum(binom[i] * pref[min(w - i, len(binom) - 1) + 1]
                      for i in range(min(imax, w) + 1))
        ball = pref2[w + 1] - 1
        if lhs << eps_up > ball:
            return LemmaReport("split-tail-count", {"n": n}, VIOLATED,
                               str(lhs << eps_up), str(ball),
                               counterexample=f"omega={om}",
                               runtime=time.monotonic() - t0)
    return LemmaReport(
        "split-tail-count", {"n": n, "grid": len(omega_grid)}, VERIFIED_EXACT,
        f"{len(omega_grid)} grid points hold with exponent rounded up to {eps_up}",
        f"analytic margin {nstr(margin, 6)} >= {consts.epsilon}",
        runtime=time.monotonic() - t0)


def verify_c2_and_series(consts: ProofConstants = CONSTANTS) -> LemmaReport:
    """Numeric audit of the class geometric sum cap, the repetition level
    series cap, and the final contraction of the whole chain."""
    t0 = time.monotonic()
    probe = [consts.prime_floor] + _first_primes_from(consts.prime_floor, 10)
    for p in probe:
        if not bounds.class_sum_bound(p, consts) <= mpf(str(consts.class_sum_cap)) + mpf("1e-12"):
            return LemmaReport("class-sum-and-series", {}, VIOLATED,
                               nstr(bounds.class_sum_bound(p, consts), 14),
                               str(consts.class_sum_cap),
                               counterexample=f"p={p}",
                               runtime=time.monotonic() - t0)
    for p in probe[1:]:
        for m in range(1, 7):
            cap = mpf(2) / p
            if not bounds.level_series_bound(p, m) <= cap:
                return LemmaReport("class-sum-and-series", {}, VIOLATED,
                                   nstr(bounds.level_series_bound(p, m), 12),
                                   nstr(cap, 12), counterexample=f"p={p} m={m}",
                                   runtime=time.monotonic() - t0)
    p0 = _first_primes_from(consts.prime_floor, 1)[0]
    # the contraction is rational once the cap value is taken at face value
    c2 = Fraction(str(consts.class_sum_cap))
    first_kasami = next_kasami_prime(consts.prime_floor)
    chain = consts.ball_fraction * c2 + 2 * c2 / first_kasami
    tail = bounds.CONSTANTS.gamma() ** (first_kasami - 1)
    if not (chain < 1 and tail < mpf("1e-100")):
        return LemmaReport("class-sum-and-series", {}, VIOLATED,
                           str(chain), "1", runtime=time.monotonic() - t0)
    return LemmaReport(
        "class-sum-and-series", {"primes": len(probe)}, VERIFIED_NUMERIC,
        f"chain value {float(chain):.12f}", "< 1",
        runtime=time.monotonic() - t0,
        notes=(f"first prime probed {p0}; geometric tail at {first_kasami} is "
               f"{nstr(tail, 3)} (< 1e-100)"))


# ---------------------------------------------------------------------------
# experiments


def _resolve_threshold(n: int,
                       consts: ProofConstants = CONSTANTS) -> tuple[str, int]:
    try:
        return "simple", bounds.simple_threshold(n)
    except ValueError:
        return "main", bounds.main_threshold(n, b=consts.ball_fraction)


def _run_trial_block(args) -> list[tuple]:
    """Worker body: evaluate one contiguous block of trials."""
    (n, indices, master_seed, mode, search_weight, effort, exhaustive) = args
    out = []
    kernel = _NecklaceKernel(n, None) if mode == "exact" else None
    for idx in indices:
        if exhaustive:
            a_bits, tseed = idx, 0
        else:
            tseed = trial_seed(master_seed, idx)
            a_bits = dc_sample(n, tseed).a.bits
        if mode == "exact":
            d, _ = kernel.min_weight(a_bits)
            found: int | None = int(d)
        else:
            code = DoubleCirculantCode(n, BitVec(a_bits, n))
            res = low_weight_search(code, search_weight, effort=effort,
                                    seed=trial_seed(tseed, idx))
            found = res.value if res is not None else None
        out.append((idx, tseed, a_bits, found))
    return out


def experiment_distance(n: int | None = None, p: int | None = None,
                        m: int = 1, trials: int = 1000, seed: int = 0,
                        mode: str = "exact", search_weight: int | None = None,
                        effort: int = 200, exhaustive: bool = False,
                        workers: int = 1, max_seconds: float | None = None,
                        consts: ProofConstants = CONSTANTS,
                        ) -> tuple[list[ExperimentRecord], dict]:
    """Distance statistics for sampled (or all) circulant columns.

    Exact mode sweeps rotation classes per code; search mode records the
    best randomized witness at or below search_weight, which defaults to
    the volume-argument guarantee.  Records are identical for any worker
    count.  A max_seconds budget stops scheduling further trials and marks
    the summary truncated; finished trials are kept."""
    if n is None:
        if p is None:
            raise ValueError("give n, or p (optionally with m)")
        n = p**m
    if mode not in ("exact", "search"):
        raise ValueError("mode must be 'exact' or 'search'")
    if mode == "exact" and n > 28:
        raise BudgetExceededError("exact mode sweeps 2^n/n classes; n <= 28")
    if exhaustive and n > 16:
        raise BudgetExceededError("exhaustive runs need 2^n codes; n <= 16")
    gv = bounds.gv_guarantee(n)
    kind, threshold = _resolve_threshold(n, consts)
    if search_weight is None:
        search_weight = gv
    count = (1 << n) if exhaustive else trials
    in_process = workers <= 1 or count < 4
    t0 = time.monotonic()
    # one block per worker; under a budget, blocks of at most 64 trials,
    # and the deadline is checked before each block is run or collected
    chunk = -(-count // (1 if in_process else workers))
    if max_seconds is not None:
        chunk = min(chunk, 64)
    jobs = [(n, range(i, min(i + chunk, count)), seed, mode, search_weight,
             effort, exhaustive) for i in range(0, count, max(1, chunk))]
    truncated = False
    blocks = []
    with (nullcontext() if in_process
          else ProcessPoolExecutor(max_workers=workers)) as pool:
        pending = (jobs if pool is None
                   else [pool.submit(_run_trial_block, job) for job in jobs])
        for job in pending:
            if max_seconds is not None and time.monotonic() - t0 > max_seconds:
                truncated = True
                break
            blocks.append(_run_trial_block(job) if pool is None
                          else job.result())
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    rows = sorted(r for block in blocks for r in block)
    records = [ExperimentRecord(n, idx, tseed, hex(a_bits), found,
                                mode == "exact", gv, kind, threshold)
               for idx, tseed, a_bits, found in rows]
    found_vals = sorted(r.d_found for r in records if r.d_found is not None)
    hist: dict[int, int] = {}
    for v in found_vals:
        hist[v] = hist.get(v, 0) + 1
    done = len(records)
    summary: dict = {
        "n": n, "mode": mode, "seed": seed, "exhaustive": exhaustive,
        "trials": count, "completed": done,
        "truncated": truncated, "vacuous": done == 0,
        "gv_guarantee": gv,
        "threshold_kind": kind, "threshold": threshold,
        "histogram": {str(k): v for k, v in sorted(hist.items())},
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
            if exhaustive and not truncated:
                summary["prob_bound_holds"] = Fraction(at_most, done) <= bound
            else:
                summary["wilson_upper_99"] = round(wilson_upper(at_most, done), 9)
    return records, summary
