"""Hamming-ball volumes, guarantee thresholds, and the analytic estimates
behind the improved existence bound for double circulant codes.

Combinatorial quantities are exact integers or rationals, the rational
factor of the syndrome-count cap among them.  Transcendental quantities
run through mpmath at 40 significant digits, well past the 80-bit mantissa
the numeric audits require; each loads mpmath from gvdc._mp when first
called, so the exact quantities never load it.  The tail exponent
log2(1 + (1 - 2 alpha)^t) - t D(alpha || iota) is written once in mpmath,
in an evaluator that fixes iota and computes its logarithms a single time;
every value the module returns comes from it.  Its maximum over alpha
first screens the whole grid in one float64 numpy pass, whose error is far
below the screen width, and then evaluates in mpmath only the grid points
the screen keeps, which provably include the first exact grid maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from mpmath import mpf


@dataclass(frozen=True)
class ProofConstants:
    """The named constants of the bound chain, with their audited caps.

    decay_log2 and scale_log2 are exact exponents; the irrational values
    gamma = 2^decay_log2 and scale = 2^scale_log2 are derived on demand."""

    prime_floor: int = 14**3              # smallest admissible block prime
    omega_floor: Fraction = Fraction(1, 10)   # lower end of w/2n window
    kappa: Fraction = Fraction(7, 100)        # split point in the tail count
    copies: int = 14                          # repetition copies t
    decay_log2: Fraction = Fraction(-1, 5)
    scale_log2: Fraction = Fraction(6, 5)
    class_sum_cap: float = 4.3
    ball_fraction: Fraction = Fraction(23, 100)
    epsilon: Fraction = Fraction(4, 1000)
    n_floor: int = 14**3
    beta_cap: float = 0.152
    f_cap: float = 0.24
    weight_exponent: Fraction = Fraction(3, 5)

    def gamma(self) -> mpf:
        from ._mp import mpf

        return mpf(2) ** (mpf(self.decay_log2.numerator) / self.decay_log2.denominator)

    def scale(self) -> mpf:
        from ._mp import mpf

        return mpf(2) ** (mpf(self.scale_log2.numerator) / self.scale_log2.denominator)


CONSTANTS = ProofConstants()


def binomials(m: int, kmax: int) -> list[int]:
    """C(m, k) for k <= kmax, by C(m, k + 1) = C(m, k) (m - k) / (k + 1)."""
    out = [1]
    for k in range(kmax):
        out.append(out[-1] * (m - k) // (k + 1))
    return out


def volume(n: int, d: int) -> int:
    """|B_n(d)| with the zero word: sum of C(n, i) for i <= d."""
    if not 0 <= d <= n:
        raise ValueError("need 0 <= d <= n")
    return sum(binomials(n, d))


def weight_cap(length: int, w) -> int:
    """min(floor(w), length); a NaN or infinite w is a ValueError."""
    if w != w or abs(w) == math.inf:
        raise ValueError(f"w must be finite, not {w}")
    return min(math.floor(w), length)


def ball_nonzero(two_n: int, w) -> int:
    """Number of nonzero words of length two_n and weight <= floor(w)."""
    if w < 0:
        raise ValueError("radius must be nonnegative")
    return volume(two_n, weight_cap(two_n, w)) - 1


def gv_guarantee(n: int) -> int:
    """Distance the classical volume argument guarantees for some [2n, n]
    code: the least d with ball_nonzero(2n, d) >= 2^n, equivalently the
    greatest d with ball_nonzero(2n, d - 1) < 2^n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _largest_w(2 * n, lambda ball: ball < 1 << n) + 1


def _largest_w(two_n: int, admissible) -> int:
    """Largest w whose nonzero ball in length two_n is admissible, for a
    predicate that holds up to some radius and fails past it; the ball
    grows by C(two_n, w), by the recurrence of binomials."""
    total = 0
    last = -1
    binom = 1
    for w in range(0, two_n + 1):
        total += binom
        if admissible(total - 1):
            last = w
        else:
            break
        binom = binom * (two_n - w) // (w + 1)
    if last < 0:
        raise ValueError("no admissible radius at all")
    return last


def simple_threshold(p: int) -> int:
    """Largest w with 2 |B_2p(w)| < p 2^p, for prime p with 2 primitive.
    Random double circulant codes of length 2p then beat weight w with
    positive probability."""
    from .numbertheory import is_prime, mult_order

    if not is_prime(p) or mult_order(2, p) != p - 1:
        raise ValueError("p must be prime with 2 primitive mod p")
    cap = p << p
    return _largest_w(2 * p, lambda ball: 2 * ball < cap)


def main_threshold(n: int, consts: ProofConstants = CONSTANTS) -> int:
    """Largest w with ball_nonzero(2n, w) <= b n 2^n, b =
    consts.ball_fraction."""
    if n < 1:
        raise ValueError("n must be >= 1")
    cap = consts.ball_fraction * n * (1 << n)
    return _largest_w(2 * n, lambda ball: ball <= cap)


def _entropy_mp(x: mpf) -> mpf:
    from ._mp import log, mpf

    if x == 0 or x == 1:
        return mpf(0)
    return -x * log(x, 2) - (1 - x) * log(1 - x, 2)


def stirling_lower(n: int, w: int) -> mpf:
    """2^(n h(w/n)) / sqrt(8 n (w/n)(1 - w/n)), a lower bound on C(n, w)
    for 0 < w < n."""
    if not 0 < w < n:
        raise ValueError("need 0 < w < n")
    from ._mp import mpf, sqrt

    om = mpf(w) / n
    return mpf(2) ** (n * _entropy_mp(om)) / sqrt(8 * n * om * (1 - om))


def repetition_cap_factor(r: int, t: int, w: int) -> Fraction:
    """Q = ((1 + |1 - 2w/(tr)|^t) / 2)^r C(tr, w), where sqrt(2rt) Q caps
    the number of weight-w words with a prescribed syndrome under t stacked
    copies of an r x r identity block: c is within it iff c^2 <= 2rt Q^2."""
    if r < 1 or t < 1 or not 0 <= w <= t * r:
        raise ValueError("need r, t >= 1 and 0 <= w <= tr")
    om = Fraction(w, t * r)
    return ((1 + abs(1 - 2 * om) ** t) / 2) ** r * math.comb(t * r, w)


def _tail_exponent(i: mpf, t: int):
    """Evaluator alpha -> log2(1 + (1 - 2 alpha)^t) - t D(alpha || i) for a
    fixed mpf i, with ln(i), ln(1 - i) and 1/ln 2 computed once; alpha must
    be an mpf in [0, i]."""
    from ._mp import log

    ln_i, ln_1i, inv_ln2 = log(i), log(1 - i), 1 / log(2)

    def f(a: mpf) -> mpf:
        # D(a || i) in nats, with 0 ln 0 = 0; a <= i <= 1/2 keeps 1 - a > 0
        div = (1 - a) * (log(1 - a) - ln_1i)
        if a > 0:
            div += a * (log(a) - ln_i)
        return (log(1 + abs(1 - 2 * a) ** t) - t * div) * inv_ln2

    return f


def max_weight_tail_exponent(iota, copies: int = CONSTANTS.copies,
                             grid: int = 10_000) -> tuple[mpf, mpf, mpf]:
    """Maximum of the tail exponent over alpha in [0, iota], as (value,
    grid max, refinement gap): the best of the grid points
    alpha_k = iota k / grid, then ternary refinement to width 1e-9 around
    it.

    The grid is screened in float64 first.  Writing f for the tail
    exponent, one numpy pass gives g_k with |g_k - f(alpha_k)| <= e for
    every k, where e <= 8 (t + 1) 2^-52: every term is at most about 1 in
    size, each operation rounds once, and the power (1 - 2 alpha)^t and the
    factor t amplify a rounding by t.  Only the k with
    g_k >= max g - screen, screen >= 2e, are evaluated in mpmath, in
    increasing k with a strict >.  Let k* be the first k with f(alpha_k)
    maximal, the point a full mpmath scan returns, and j the float64
    argmax.  Then g_k* >= f(alpha_k*) - e >= f(alpha_j) - e >= g_j - 2e, so
    k* and every exact maximiser survive the screen, while a dropped k has
    f(alpha_k) < g_j - screen + e <= f(alpha_k*) + 2e - screen
    <= f(alpha_k*).  The grid max and its argument are therefore the same
    mpf values as those of the full scan."""
    from ._mp import mpf

    i = mpf(str(iota))
    if not 0 < i <= mpf("0.5"):
        raise ValueError("need 0 < iota <= 1/2")
    f = _tail_exponent(i, copies)
    io = float(i)
    af = np.arange(grid + 1) * (io / grid)
    # a ln a = 0 at a = 0, as in _tail_exponent
    ln_af = np.log(af, out=np.zeros_like(af), where=af > 0)
    div = (1 - af) * (np.log1p(-af) - math.log1p(-io)) + af * (ln_af - math.log(io))
    g = (np.log1p((1 - 2 * af) ** copies) - copies * div) / math.log(2)
    screen = max(1e-6, 16 * (copies + 1) * 2.0**-52)
    best = mpf("-inf")
    besta = mpf(0)
    for k in np.flatnonzero(g >= g.max() - screen).tolist():
        a = i * k / grid
        v = f(a)
        if v > best:
            best, besta = v, a
    lo = max(mpf(0), besta - i / grid)
    hi = min(i, besta + i / grid)
    while hi - lo > mpf("1e-9"):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if f(m1) < f(m2):
            lo = m1
        else:
            hi = m2
    refined = f((lo + hi) / 2)
    return max(best, refined), best, refined - best


def overhead_exponent_cap(p: int) -> mpf:
    """Cap on the per-row overhead log2(sqrt(2tr))/r + log2(tr + 1)/r +
    2 t^2 r / n of the syndrome-count cap, across the admissible (t, r, n)
    for block prime p: 3/(2(p-1)) + 2 log2(p)/(p-1) + 2/p^(1/3)."""
    if p < 2:
        raise ValueError("p must be >= 2")
    from ._mp import log, mpf

    p_ = mpf(p)
    return 3 / (2 * (p_ - 1)) + 2 * log(p_, 2) / (p_ - 1) + 2 / p_ ** (mpf(1) / 3)


def class_sum_bound(p: int, consts: ProofConstants = CONSTANTS) -> mpf:
    """Cap on the scaled geometric sum of gamma^codim over the recursion
    class of cyclic codes of prime length p:
    scale (1 + gamma + 2 gamma^(p-1) + (2/(p-1))^2 gamma/(1-gamma)^2)."""
    if p < 3:
        raise ValueError("p must be >= 3")
    from ._mp import mpf

    g = consts.gamma()
    return consts.scale() * (1 + g + 2 * g ** (p - 1)
                             + (mpf(2) / (p - 1)) ** 2 * g / (1 - g) ** 2)


def level_series_bound(p: int, m: int) -> mpf:
    """Sum over proper repetition levels s = 1..m-1 of (p^s / n) n^(1/p^s)
    with n = p^m; empty (zero) at m = 1.  Checked against 2/p for m <= 6 at
    the ten primes past prime_floor; at p = 3 it exceeds 2/p for m = 2..4."""
    if p < 2 or m < 1:
        raise ValueError("p >= 2 and m >= 1 required")
    from ._mp import mpf, power

    n = mpf(p) ** m
    total = mpf(0)
    for s in range(1, m):
        ps = mpf(p) ** s
        total += (ps / n) * power(n, 1 / ps)
    return total


def enumeration_margin(n0: int, consts: ProofConstants = CONSTANTS) -> mpf:
    """2h(K) - h(kappa) - h(2K - kappa) - (5/2) log2(n0)/n0, the exponent
    slack of the split tail count at block size n0, K = consts.omega_floor."""
    from ._mp import log, mpf

    K = mpf(str(consts.omega_floor))
    kap = mpf(str(consts.kappa))
    if not 0 < kap < K < mpf("0.25"):
        raise ValueError("need 0 < kappa < K < 1/4")
    return (2 * _entropy_mp(K) - _entropy_mp(kap) - _entropy_mp(2 * K - kap)
            - mpf(5) / 2 * log(n0, 2) / n0)


def simple_prob_bound(p: int, w) -> Fraction:
    """Exact cap 2 |B_2p(w)| / (p 2^p) on the probability that a random
    double circulant code of prime length 2p keeps a nonzero word of weight
    <= w.  Requires 2 primitive mod p."""
    from .numbertheory import is_prime, mult_order

    if not is_prime(p) or mult_order(2, p) != p - 1:
        raise ValueError("p must be prime with 2 primitive mod p")
    return Fraction(2 * ball_nonzero(2 * p, w), p << p)


def ball_rate_ok(n: int, consts: ProofConstants = CONSTANTS) -> bool:
    """Whether |B_2n(2 K n)| <= 2^n, K = consts.omega_floor, the side
    condition of the pair-sum cap."""
    w = math.floor(2 * consts.omega_floor * n)
    return volume(2 * n, w) <= 1 << n
