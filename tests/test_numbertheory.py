"""Primality, multiplicative orders, and the suitable-prime scan."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvdc import numbertheory
from gvdc.numbertheory import (BudgetExceededError, is_prime, kasami_check,
                               mult_order, next_kasami_prime)


def test_is_prime_small_table():
    primes = {p for p in range(2, 60) if is_prime(p)}
    assert primes == {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                      47, 53, 59}
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


def test_is_prime_carmichael_and_large():
    assert not is_prime(561)       # Carmichael
    assert not is_prime(29341)     # Carmichael
    assert is_prime(2789)
    assert is_prime(2**61 - 1)     # Mersenne prime
    assert not is_prime(2**62 - 1)  # divisible by 3
    with pytest.raises(ValueError):
        is_prime(2**64)  # certified range ends here


def test_mult_order_values():
    assert mult_order(2, 7) == 3
    assert mult_order(2, 9) == 6
    assert mult_order(2, 13) == 12
    assert mult_order(2, 2789) == 2788
    assert mult_order(3, 7) == 6


def test_mult_order_requires_coprimality():
    with pytest.raises(ValueError):
        mult_order(2, 8)
    with pytest.raises(ValueError):
        mult_order(2, 1)


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 4000).filter(lambda n: n % 2 == 1))
def test_mult_order_is_genuine_order(n):
    d = mult_order(2, n)
    assert pow(2, d, n) == 1
    # minimality over proper divisors of d
    for e in range(1, d):
        if d % e == 0:
            assert pow(2, e, n) != 1


def test_kasami_check_fields():
    r = kasami_check(2789)
    assert r.is_prime and r.primitive and r.wieferich_ok and r.kasami
    assert r.order_of_2 == 2788

    r7 = kasami_check(7)
    assert r7.is_prime and not r7.primitive and not r7.kasami

    r9 = kasami_check(9)
    assert not r9.is_prime and not r9.kasami


def test_wieferich_primes_rejected():
    # the only known primes with p^2 | 2^(p-1) - 1
    for p in (1093, 3511):
        r = kasami_check(p)
        assert r.is_prime and r.primitive is not None
        assert not r.wieferich_ok
        assert not r.kasami


def test_next_kasami_prime_small():
    assert next_kasami_prime(2) == 3
    assert next_kasami_prime(3) == 3
    assert next_kasami_prime(4) == 5
    assert next_kasami_prime(6) == 11
    assert next_kasami_prime(12) == 13


def test_next_kasami_prime_skips_non_primitive():
    # 7 is prime but ord_7(2)=3, so the scan from 6 lands on 11
    assert next_kasami_prime(6) != 7


def test_next_kasami_prime_budget(monkeypatch):
    monkeypatch.setattr(numbertheory, "_KASAMI_SCAN_MAX", 10)
    with pytest.raises(BudgetExceededError):
        next_kasami_prime(2744)


def test_scan_result_is_minimal():
    target = next_kasami_prime(2744)
    assert target == 2789
    for q in range(2744, target):
        assert not kasami_check(q).kasami
