"""Polynomial arithmetic over GF(2) and factorization of Z^n + 1.

Polynomials are nonnegative Python ints: bit i is the coefficient of Z^i
(lowest degree first).  Residues mod Z^n + 1 carry an explicit ring length n.
Only odd n is supported where squarefreeness matters (cosets, factorization).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


class BudgetExceededError(RuntimeError):
    """A computation was refused because it exceeds its declared budget."""


def degree(p: int) -> int:
    """Degree of a raw polynomial; degree(0) is -1 by convention."""
    return p.bit_length() - 1


def mul_raw(a: int, b: int) -> int:
    """Carry-less product in F2[Z]."""
    r = 0
    while a:
        if a & 1:
            r ^= b
        a >>= 1
        b <<= 1
    return r


def divmod_raw(a: int, b: int) -> tuple[int, int]:
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = b.bit_length()
    q = 0
    sh = a.bit_length() - db
    while sh >= 0:
        q |= 1 << sh
        a ^= b << sh
        sh = a.bit_length() - db
    return q, a


def mod_raw(a: int, b: int) -> int:
    return divmod_raw(a, b)[1]


def gcd_raw(a: int, b: int) -> int:
    while b:
        a, b = b, mod_raw(a, b)
    return a


def xgcd_raw(a: int, m: int) -> tuple[int, int]:
    """(g, s) with g = gcd(a, m) and s a = g (mod m), by the extended
    Euclidean algorithm; m must be nonzero."""
    r0, r1, s0, s1 = m, mod_raw(a, m), 0, 1
    # invariant: s_i a = r_i (mod m); each division step takes its
    # quotient's terms off r0 and s0 one at a time
    while r1:
        d1 = r1.bit_length()
        while (sh := r0.bit_length() - d1) >= 0:
            r0 ^= r1 << sh
            s0 ^= s1 << sh
        r0, r1, s0, s1 = r1, r0, s1, s0
    return r0, s0


@dataclass(frozen=True)
class Poly:
    """Residue class in F2[Z]/(Z^n + 1)."""

    bits: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ring length must be >= 1")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError("coefficients out of range for ring length")


def ring_modulus(n: int) -> int:
    """The raw polynomial Z^n + 1."""
    return (1 << n) | 1


def rotate(x, j, n: int):
    """x Z^j mod Z^n + 1, for x below 2^n and 0 <= j <= n: x rotated left
    by j places.  x may be an int or a numpy integer array, and j an int
    or an array that broadcasts with x; a numpy shift by the whole width
    of x's dtype gives 0, so j = 0 and j = n hold at n = 64 too."""
    return ((x << j) | (x >> (n - j))) & ((1 << n) - 1)


def ring_mul_raw(a: int, b: int, n: int) -> int:
    """Product of two residues mod Z^n + 1 (each below 2^n) via
    rotate-and-xor: every set bit i of a adds b rotated by i.

    b may also be a numpy integer array of residues; the result is then
    the array of products a * b[j], of the same shape and dtype (zeros when
    a = 0)."""
    r = b & 0
    for i in range(n):
        if (a >> i) & 1:
            r ^= rotate(b, i, n)
    return r


def poly_mul_mod(u: Poly, v: Poly) -> Poly:
    """Product in F2[Z]/(Z^n + 1)."""
    if u.n != v.n:
        raise ValueError("ring length mismatch")
    return Poly(ring_mul_raw(u.bits, v.bits, u.n), u.n)


def poly_to_str(p: Poly) -> str:
    return f"n={p.n};coeffs={hex(p.bits)}"


def cyclotomic_cosets(n: int) -> list[list[int]]:
    """2-cyclotomic cosets mod n, each in orbit order from its least element,
    cosets sorted by least element.  Requires odd n."""
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be odd and positive")
    seen = [False] * n
    out = []
    for c in range(n):
        if seen[c]:
            continue
        orbit = []
        x = c
        while not seen[x]:
            seen[x] = True
            orbit.append(x)
            x = 2 * x % n
        out.append(orbit)
    return out


@dataclass(frozen=True)
class Factorization:
    """Irreducible factors of Z^n + 1, as raw polynomials, ascending order."""

    n: int
    factors: tuple[int, ...]

    def __post_init__(self):
        prod = 1
        for f in self.factors:
            prod = mul_raw(prod, f)
        if prod != ring_modulus(self.n):
            raise ValueError("factor product does not equal Z^n + 1")


_SPLIT_SEED = 0x5EED


def _equal_degree_split(g: int, d: int, count: int, rng: random.Random) -> list[int]:
    """Split a squarefree product of `count` irreducibles, all of degree d."""
    parts = [g]
    done: list[int] = []
    while parts:
        cur = parts.pop()
        if degree(cur) == d:
            done.append(cur)
            continue
        while True:
            h = rng.getrandbits(degree(cur)) | 1
            # trace map h + h^2 + ... + h^(2^(d-1)) lands in GF(2) per factor
            t = 0
            x = mod_raw(h, cur)
            for _ in range(d):
                t ^= x
                x = mod_raw(mul_raw(x, x), cur)
            u = gcd_raw(cur, t) if t else cur
            if u not in (1, cur):
                parts.append(u)
                parts.append(divmod_raw(cur, u)[0])
                break
    assert len(done) == count
    return done


# largest n whose Z^n + 1 factorize accepts
FACTORIZE_MAX_N = 4096


def factorize(n: int) -> Factorization:
    """Factor Z^n + 1 into irreducibles.  Odd n only; refuses n above
    FACTORIZE_MAX_N.

    Products of all factors of degree dividing d are Z^gcd(n, 2^d - 1) + 1,
    so the distinct-degree stage is plain integer arithmetic; same-degree
    products are then split by seeded trace splitting."""
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be odd and positive")
    if n > FACTORIZE_MAX_N:
        raise BudgetExceededError(
            f"factorize limited to n <= {FACTORIZE_MAX_N}")
    cosets = cyclotomic_cosets(n)
    count_by_degree: dict[int, int] = {}
    for c in cosets:
        count_by_degree[len(c)] = count_by_degree.get(len(c), 0) + 1
    rng = random.Random(_SPLIT_SEED ^ n)
    exact: dict[int, int] = {}
    factors: list[int] = []
    for d in sorted(count_by_degree):
        g = math.gcd(n, pow(2, d, n) - 1)
        prod = ring_modulus(g)
        for e in sorted(exact):
            if e < d and d % e == 0:
                prod = divmod_raw(prod, exact[e])[0]
        exact[d] = prod
        k = count_by_degree[d]
        if k == 1:
            factors.append(prod)
        else:
            factors.extend(_equal_degree_split(prod, d, k, rng))
    factors.sort()
    fac = Factorization(n, tuple(factors))
    if sorted(degree(f) for f in factors) != sorted(len(c) for c in cosets):
        raise AssertionError("factor degrees disagree with coset sizes")
    return fac


def repetition_poly(n: int, p: int) -> int:
    """1 + Z^(n/p) + Z^(2n/p) + ... + Z^((p-1)n/p), the p-block marker."""
    if n % p != 0:
        raise ValueError("p must divide n")
    step = n // p
    bits = 0
    for i in range(p):
        bits |= 1 << (i * step)
    return bits


def kasami_factors(p: int, m: int) -> Factorization:
    """Closed-form factor family for n = p^m when 2 generates (Z/p^k)* for
    all k <= m: the factor 1 + Z plus, for each i < m, the block polynomial
    1 + Q + ... + Q^(p-1) with Q = Z^(p^i)."""
    from . import numbertheory

    if m < 1:
        raise ValueError("m must be >= 1")
    rep = numbertheory.kasami_check(p)
    if not rep.kasami:
        raise ValueError(f"p={p} fails the primitive/non-square criteria")
    factors = [0b11] + [repetition_poly(p ** (i + 1), p) for i in range(m)]
    factors.sort()
    return Factorization(p**m, tuple(factors))
