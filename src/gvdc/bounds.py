"""Hamming-ball volumes, guarantee thresholds, and the analytic estimates
behind the improved existence bound for double circulant codes.

Combinatorial quantities are exact integers or rationals.  Analytic
quantities run through mpmath at 40 significant digits, well past the
80-bit mantissa the numeric audits require.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

mp.dps = 40


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
        return mpf(2) ** (mpf(self.decay_log2.numerator) / self.decay_log2.denominator)

    def scale(self) -> mpf:
        return mpf(2) ** (mpf(self.scale_log2.numerator) / self.scale_log2.denominator)


CONSTANTS = ProofConstants()


def volume(n: int, d: int) -> int:
    """|B_n(d)| with the zero word: sum of C(n, i) for i <= d."""
    if not 0 <= d <= n:
        raise ValueError("need 0 <= d <= n")
    return sum(math.comb(n, i) for i in range(d + 1))


def ball_nonzero(two_n: int, w) -> int:
    """Number of nonzero words of length two_n and weight <= floor(w)."""
    if w < 0:
        raise ValueError("radius must be nonnegative")
    wi = min(math.floor(w), two_n)
    return volume(two_n, wi) - 1


def gv_guarantee(n: int) -> int:
    """Distance the classical volume argument guarantees for some [2n, n]
    code: the least d with ball_nonzero(2n, d) >= 2^n, equivalently the
    greatest d with ball_nonzero(2n, d - 1) < 2^n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    target = 1 << n
    total = 0
    for d in range(0, 2 * n + 1):
        total += math.comb(2 * n, d)
        if total - 1 >= target:
            return d
    raise AssertionError("ball never reached 2^n")


def _largest_w(two_n: int, admissible) -> int:
    total = 0
    last = -1
    for w in range(0, two_n + 1):
        total += math.comb(two_n, w)
        if admissible(total - 1):
            last = w
        else:
            break
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


def main_threshold(n: int, b=None) -> int:
    """Largest w with ball_nonzero(2n, w) <= b n 2^n.  b defaults to the
    audited ball fraction; floats are read at decimal face value."""
    if n < 1:
        raise ValueError("n must be >= 1")
    frac = _as_fraction(CONSTANTS.ball_fraction if b is None else b)
    cap = frac * n * (1 << n)
    return _largest_w(2 * n, lambda ball: ball <= cap)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(str(x))


def _entropy_mp(x: mpf) -> mpf:
    if x == 0 or x == 1:
        return mpf(0)
    from mpmath import log

    return -x * log(x, 2) - (1 - x) * log(1 - x, 2)


def _kl_mp(x: mpf, y: mpf) -> mpf:
    from mpmath import log

    t = mpf(0)
    if x > 0:
        t += x * log(x / y, 2)
    if x < 1:
        t += (1 - x) * log((1 - x) / (1 - y), 2)
    return t


def stirling_lower(n: int, w: int) -> mpf:
    """2^(n h(w/n)) / sqrt(8 n (w/n)(1 - w/n)), a lower bound on C(n, w)
    for 0 < w < n."""
    if not 0 < w < n:
        raise ValueError("need 0 < w < n")
    from mpmath import sqrt

    om = mpf(w) / n
    return mpf(2) ** (n * _entropy_mp(om)) / sqrt(8 * n * om * (1 - om))


def repetition_bound(r: int, t: int, w: int) -> mpf:
    """Cap on the number of weight-w words with a prescribed syndrome under
    t stacked copies of an r x r identity block:
    sqrt(2rt) ((1 + |1 - 2w/(tr)|^t) / 2)^r C(tr, w)."""
    if r < 1 or t < 1 or not 0 <= w <= t * r:
        raise ValueError("need r, t >= 1 and 0 <= w <= tr")
    from mpmath import sqrt

    om = mpf(w) / (t * r)
    return sqrt(2 * r * t) * ((1 + abs(1 - 2 * om) ** t) / 2) ** r * math.comb(t * r, w)


def weight_tail_exponent(alpha, iota, copies: int = CONSTANTS.copies) -> mpf:
    """log2(1 + (1 - 2 alpha)^t) - t D(alpha || iota) for alpha <= iota <= 1/2."""
    a, i = mpf(str(alpha)), mpf(str(iota))
    if not 0 <= a <= i or i > mpf("0.5"):
        raise ValueError("need 0 <= alpha <= iota <= 1/2")
    from mpmath import log

    t = copies
    return log(1 + abs(1 - 2 * a) ** t, 2) - t * _kl_mp(a, i)


def max_weight_tail_exponent(iota, copies: int = CONSTANTS.copies,
                             grid: int = 10_000, detail: bool = False):
    """Maximum of weight_tail_exponent over alpha in [0, iota]: dense grid
    scan then ternary refinement to width 1e-9 around the best grid point.
    With detail=True returns (value, grid max, refinement gap)."""
    i = mpf(str(iota))
    if not 0 < i <= mpf("0.5"):
        raise ValueError("need 0 < iota <= 1/2")
    best = mpf("-inf")
    besta = mpf(0)
    for k in range(grid + 1):
        a = i * k / grid
        v = weight_tail_exponent(a, i, copies)
        if v > best:
            best, besta = v, a
    lo = max(mpf(0), besta - i / grid)
    hi = min(i, besta + i / grid)
    while hi - lo > mpf("1e-9"):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if weight_tail_exponent(m1, i, copies) < weight_tail_exponent(m2, i, copies):
            lo = m1
        else:
            hi = m2
    refined = weight_tail_exponent((lo + hi) / 2, i, copies)
    value = max(best, refined)
    if detail:
        return value, best, refined - best
    return value


def overhead_exponent_cap(p: int) -> mpf:
    """Cap on the per-row overhead log2(sqrt(2tr))/r + log2(tr + 1)/r +
    2 t^2 r / n of the syndrome-count cap, across the admissible (t, r, n)
    for block prime p: 3/(2(p-1)) + 2 log2(p)/(p-1) + 2/p^(1/3)."""
    if p < 2:
        raise ValueError("p must be >= 2")
    from mpmath import log

    p_ = mpf(p)
    return 3 / (2 * (p_ - 1)) + 2 * log(p_, 2) / (p_ - 1) + 2 / p_ ** (mpf(1) / 3)


def class_sum_bound(p: int, consts: ProofConstants = CONSTANTS) -> mpf:
    """Cap on the scaled geometric sum of gamma^codim over the recursion
    class of cyclic codes of prime length p:
    scale (1 + gamma + 2 gamma^(p-1) + (2/(p-1))^2 gamma/(1-gamma)^2)."""
    if p < 3:
        raise ValueError("p must be >= 3")
    g = consts.gamma()
    return consts.scale() * (1 + g + 2 * g ** (p - 1)
                             + (mpf(2) / (p - 1)) ** 2 * g / (1 - g) ** 2)


def level_series_bound(p: int, m: int) -> mpf:
    """Sum over proper repetition levels s = 1..m-1 of (p^s / n) n^(1/p^s)
    with n = p^m; empty (zero) at m = 1, and at most 2/p for p >= 3."""
    if p < 2 or m < 1:
        raise ValueError("p >= 2 and m >= 1 required")
    from mpmath import power

    n = mpf(p) ** m
    total = mpf(0)
    for s in range(1, m):
        ps = mpf(p) ** s
        total += (ps / n) * power(n, 1 / ps)
    return total


def enumeration_margin(n0: int, omega_floor=None, kappa=None,
                       consts: ProofConstants = CONSTANTS) -> mpf:
    """2h(K) - h(kappa) - h(2K - kappa) - (5/2) log2(n0)/n0, the exponent
    slack of the split tail count at block size n0."""
    K = mpf(str(consts.omega_floor if omega_floor is None else omega_floor))
    kap = mpf(str(consts.kappa if kappa is None else kappa))
    if not 0 < kap < K < mpf("0.25"):
        raise ValueError("need 0 < kappa < K < 1/4")
    from mpmath import log

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


def ball_rate_ok(n: int, omega_floor=None,
                 consts: ProofConstants = CONSTANTS) -> bool:
    """Whether |B_2n(2 K n)| <= 2^n, the side condition of the pair-sum cap."""
    K = _as_fraction(consts.omega_floor if omega_floor is None else omega_floor)
    w = math.floor(2 * K * n)
    return volume(2 * n, w) <= 1 << n
