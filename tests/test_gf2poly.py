"""GF(2) polynomial arithmetic and the factorization of Z^n+1."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvdc.gf2poly import (BudgetExceededError, Factorization, Poly,
                          cyclotomic_cosets, factorize, gcd_raw,
                          is_irreducible_raw, kasami_factors, mod_raw,
                          mul_raw, poly_from_str, poly_mul_mod, poly_to_str,
                          repetition_poly, ring_modulus, ring_mul_raw)


def test_mul_raw_hand_values():
    # (1+Z)(1+Z) = 1+Z^2 in characteristic 2
    assert mul_raw(0b11, 0b11) == 0b101
    assert mul_raw(0b111, 0b11) == 0b1001  # (1+Z+Z^2)(1+Z) = 1+Z^3
    assert mul_raw(0, 0b1011) == 0
    assert mul_raw(1, 0b1011) == 0b1011


def test_gcd_raw_coprime_factors():
    assert gcd_raw(0b11, 0b111) == 1
    assert gcd_raw(0b1001, 0b11) == 0b11  # 1+Z divides 1+Z^3


def test_ring_modulus_and_residue_reduction():
    assert ring_modulus(3) == 0b1001
    # Z^3 reduces to 1 in the ring
    assert mod_raw(0b1000, ring_modulus(3)) == 1


def test_poly_class_ring_arithmetic():
    a = Poly(0b011, 3)  # 1 + Z
    b = Poly(0b110, 3)  # Z + Z^2
    assert (a + b).bits == 0b101
    # (1+Z)(Z+Z^2) = Z + Z^3 = 1 + Z mod Z^3+1
    assert (a * b).bits == 0b011
    assert poly_mul_mod(a, b).bits == 0b011
    with pytest.raises(ValueError):
        poly_mul_mod(a, Poly(1, 5))


def test_serialization_round_trip():
    text = poly_to_str(Poly(0x49, 9))
    assert text == "n=9;coeffs=0x49"
    back = poly_from_str(text)
    assert back.bits == 0x49 and back.n == 9
    with pytest.raises(ValueError):
        poly_from_str("coeffs=0x49")


def test_cyclotomic_cosets_structure():
    assert cyclotomic_cosets(9) == [[0], [1, 2, 4, 8, 7, 5], [3, 6]]
    # 2 is primitive mod 13: one orbit covers everything nonzero
    cosets = cyclotomic_cosets(13)
    assert [len(c) for c in cosets] == [1, 12]
    with pytest.raises(ValueError):
        cyclotomic_cosets(6)


def test_factorize_small_lengths():
    assert {g for g in factorize(3).factors} == {0b11, 0b111}
    assert {g for g in factorize(5).factors} == {0b11, 0b11111}
    assert {g for g in factorize(9).factors} == {0b11, 0b111, 0x49}
    assert {g for g in factorize(13).factors} == {0b11, 0x1fff}


def test_factorize_product_and_degrees_match_cosets():
    for n in range(1, 130, 2):
        fact = factorize(n)
        prod = 1
        for g in fact.factors:
            prod = mul_raw(prod, g)
            assert is_irreducible_raw(g)
        assert prod == ring_modulus(n)
        assert sorted(g.bit_length() - 1 for g in fact.factors) == \
            sorted(len(c) for c in cyclotomic_cosets(n))


def test_factorization_self_check_rejects_bad_product():
    with pytest.raises(ValueError):
        Factorization(3, (0b11, 0b11))


def test_repetition_poly_values():
    assert repetition_poly(9, 3).bits == 0b1001001   # 1 + Z^3 + Z^6
    assert repetition_poly(25, 5).bits == sum(1 << (5 * i) for i in range(5))
    assert repetition_poly(13, 13).bits == 0x1fff
    with pytest.raises(ValueError):
        repetition_poly(9, 2)


def test_kasami_factors_equal_factorization():
    for p, m in ((3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (13, 1)):
        fam = kasami_factors(p, m)
        assert set(fam.factors) == set(factorize(p**m).factors)


def test_kasami_factors_rejects_unsuitable_prime():
    # 2 has order 3 mod 7, not 6
    with pytest.raises(ValueError):
        kasami_factors(7, 1)


def test_factorize_budget():
    with pytest.raises(BudgetExceededError):
        factorize(5001, limit=4096)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**9 - 1), st.integers(0, 2**9 - 1),
       st.integers(0, 2**9 - 1))
def test_ring_mul_properties(a, b, c):
    n = 9
    pa, pb, pc = Poly(a, n), Poly(b, n), Poly(c, n)
    ab = poly_mul_mod(pa, pb)
    assert ab == poly_mul_mod(pb, pa)
    assert poly_mul_mod(ab, pc) == poly_mul_mod(pa, poly_mul_mod(pb, pc))
    assert poly_mul_mod(pa, pb + pc) == ab + poly_mul_mod(pa, pc)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2**11 - 1), st.integers(1, 2**11 - 1))
def test_gcd_divides_both(a, b):
    g = gcd_raw(a, b)
    assert mod_raw(a, g) == 0 and mod_raw(b, g) == 0


def test_mul_mod_against_schoolbook_oracle():
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.choice([3, 5, 7, 9, 11, 13])
        a, b = rng.getrandbits(n), rng.getrandbits(n)
        got = poly_mul_mod(Poly(a, n), Poly(b, n)).bits
        assert got == ring_mul_raw(a, b, n)
        assert got == mod_raw(mul_raw(a, b), ring_modulus(n))


def test_is_irreducible_known_cases():
    assert is_irreducible_raw(0b111)        # 1+Z+Z^2
    assert is_irreducible_raw(0b1011)       # 1+Z+Z^3
    assert not is_irreducible_raw(0b101)    # (1+Z)^2
    assert not is_irreducible_raw(0b1001)   # (1+Z)(1+Z+Z^2)
