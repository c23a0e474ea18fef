"""Primality, multiplicative orders, and the prime criteria used by the
block factorization: 2 primitive mod p and 2^(p-1) != 1 mod p^2."""

from __future__ import annotations

from dataclasses import dataclass

from .gf2poly import BudgetExceededError

# deterministic Miller-Rabin witness set, valid for all n < 3.3e24
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below 2^64."""
    if n >= 1 << 64:
        raise ValueError("primality test is certified only below 2^64")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _smallest_prime_factor(n: int) -> int:
    if n < 2:
        raise ValueError("n must be >= 2")
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def _first_primes_from(start: int, count: int) -> list[int]:
    out = []
    p = start
    while len(out) < count:
        if is_prime(p):
            out.append(p)
        p += 1
    return out


def mult_order(a: int, n: int) -> int:
    """Least k >= 1 with a^k = 1 mod n.  Requires gcd(a, n) = 1, n >= 2."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    import math

    if math.gcd(a, n) != 1:
        raise ValueError(f"{a} is not invertible mod {n}")
    x = a % n
    k = 1
    while x != 1:
        x = x * a % n
        k += 1
        if k > n:
            raise AssertionError("order search overran the group size")
    return k


@dataclass(frozen=True)
class KasamiReport:
    p: int
    is_prime: bool
    order_of_2: int
    primitive: bool
    wieferich_ok: bool
    kasami: bool


def kasami_check(p: int) -> KasamiReport:
    """Full criteria report for one candidate p >= 3.

    wieferich_ok means 2^(p-1) != 1 mod p^2; it is computed, never assumed,
    so the known square-divisibility exceptions (1093, 3511) report false."""
    if p < 3:
        raise ValueError("p must be >= 3")
    prime = is_prime(p)
    if p % 2 == 0:
        return KasamiReport(p, prime, 0, False, False, False)
    order = mult_order(2, p)
    primitive = order == p - 1
    wieferich_ok = pow(2, p - 1, p * p) != 1
    return KasamiReport(p, prime, order, primitive, wieferich_ok,
                        prime and primitive and wieferich_ok)


def next_kasami_prime(start: int, budget: int = 100_000) -> int:
    """Smallest p >= max(start, 3) passing kasami_check, scanning at most
    `budget` candidates."""
    p = max(start, 3)
    if p % 2 == 0:
        p += 1
    examined = 0
    while examined < budget:
        if kasami_check(p).kasami:
            return p
        p += 2
        examined += 1
    raise BudgetExceededError(
        f"no qualifying prime within {budget} candidates from {start}")
