"""Double circulant codes of length 2n, the cyclic codes generated by
single vectors, and the membership probability of a word.

A code here is the [2n, n] code with parity check [I | A], A the circulant
whose (i, j) entry is a_((i - j) mod n).  A word x = (x_L, x_R) belongs to
the code exactly when x_L(Z) = x_R(Z) a(Z) in F2[Z]/(Z^n + 1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .gf2poly import (degree, divmod_raw, factorize, gcd_raw, mod_raw, mul_raw,
                      repetition_poly, ring_modulus, ring_mul_raw, rotate)
from .numbertheory import _smallest_prime_factor


@dataclass(frozen=True)
class BitVec:
    """Fixed-length GF(2) vector; bit i of `bits` is coordinate i."""

    bits: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("length must be >= 1")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError("bits out of range for length")

    def weight(self) -> int:
        return self.bits.bit_count()

    def halves(self) -> tuple["BitVec", "BitVec"]:
        if self.n % 2:
            raise ValueError("halves of an odd-length vector")
        h = self.n // 2
        return BitVec(self.bits & ((1 << h) - 1), h), BitVec(self.bits >> h, h)


def bitvec_to_str(v: BitVec) -> str:
    return f"{v.n}:{hex(v.bits)}"


@dataclass(frozen=True)
class DoubleCirculantCode:
    """The [2n, n] code defined by the circulant column a."""

    n: int
    a: BitVec

    def __post_init__(self):
        if self.a.n != self.n:
            raise ValueError("circulant vector length must equal n")

    def serialize(self) -> str:
        return f"n={self.n};a={hex(self.a.bits)}"

    def generator_rows(self) -> list[int]:
        """Rows (Z^i a | e_i); the codewords with single-bit right half."""
        return [rotate(self.a.bits, i, self.n) | (1 << (self.n + i))
                for i in range(self.n)]


def dc_sample(n: int, seed: int) -> DoubleCirculantCode:
    """Uniform circulant column from a deterministic generator."""
    if n < 1:
        raise ValueError("n must be >= 1")
    bits = random.Random(seed).getrandbits(n)
    return DoubleCirculantCode(n, BitVec(bits, n))


def dc_contains(code: DoubleCirculantCode, x: BitVec) -> bool:
    """Membership via the residue identity x_L = x_R * a."""
    if x.n != 2 * code.n:
        raise ValueError("word length must be 2n")
    left, right = x.halves()
    return ring_mul_raw(right.bits, code.a.bits, code.n) == left.bits


@dataclass(frozen=True)
class CyclicCode:
    """Cyclic code of length n with generator g dividing Z^n + 1.

    The zero code is g = Z^n + 1; the full space is g = 1."""

    n: int
    g: int

    def __post_init__(self):
        if self.g <= 0:
            raise ValueError("generator must be a nonzero polynomial")
        if mod_raw(ring_modulus(self.n), self.g) != 0:
            raise ValueError("generator must divide Z^n + 1")

    @property
    def dim(self) -> int:
        return self.n - degree(self.g)

    def size(self) -> int:
        return 1 << self.dim

    def basis(self) -> list[int]:
        """Shifted generators g, Zg, ..., Z^(dim-1) g as raw polys (< n deg)."""
        return [self.g << i for i in range(self.dim)]

    def dual(self) -> "CyclicCode":
        """Generator of the dual: reciprocal of (Z^n + 1) / g."""
        h = divmod_raw(ring_modulus(self.n), self.g)[0]
        return CyclicCode(self.n, int(f"{h:b}"[::-1], 2))


def cyclic_from_vector(u: BitVec) -> CyclicCode:
    """Smallest cyclic code containing u: generator gcd(u(Z), Z^n + 1)."""
    if u.bits == 0:
        return CyclicCode(u.n, ring_modulus(u.n))
    return CyclicCode(u.n, gcd_raw(u.bits, ring_modulus(u.n)))


def cyclic_contains(code: CyclicCode, v: BitVec) -> bool:
    if v.n != code.n:
        raise ValueError("length mismatch")
    return mod_raw(v.bits, code.g) == 0


def membership_probability(x: BitVec) -> Fraction:
    """Over a uniform circulant column, the probability that x is a codeword:
    1/|C(x_R)| when x_L lies in the cyclic code spanned by x_R, else 0."""
    left, right = x.halves()
    c = cyclic_from_vector(right)
    if not cyclic_contains(c, left):
        return Fraction(0)
    return Fraction(1, c.size())


def divisor_codes(n: int) -> list[CyclicCode]:
    """All cyclic codes of odd length n, one per divisor of Z^n + 1,
    indexed by factor set: code i is generated by the product of the
    factorize(n) factors at the set bits of i.  So code 0 is the full
    space, and code i contains code j exactly when j's bits include i's."""
    gens = [1]
    for f in factorize(n).factors:
        gens += [mul_raw(g, f) for g in gens]
    return [CyclicCode(n, g) for g in gens]


def nonrepetition_codes(n: int) -> list[CyclicCode]:
    """Cyclic codes of length n = p^m whose generator is not a multiple of
    the p-block marker polynomial; the recursion class of the level bound."""
    p = _smallest_prime_factor(n)
    t = n
    while t % p == 0:
        t //= p
    if t != 1:
        raise ValueError("n must be a prime power")
    marker = repetition_poly(n, p)
    return [c for c in divisor_codes(n) if mod_raw(c.g, marker) != 0]
