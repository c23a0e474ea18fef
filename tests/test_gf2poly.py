"""GF(2) polynomial arithmetic and the factorization of Z^n+1."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvdc.gf2poly import (FACTORIZE_MAX_N, BudgetExceededError, Factorization,
                          Poly, cyclotomic_cosets, factorize, gcd_raw,
                          kasami_factors, mod_raw, mul_raw, poly_mul_mod,
                          poly_to_str, repetition_poly, ring_modulus,
                          ring_mul_raw, rotate, xgcd_raw)


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
    a, b = 0b011, 0b110  # 1 + Z and Z + Z^2
    assert a ^ b == 0b101  # addition is xor
    # (1+Z)(Z+Z^2) = Z + Z^3 = 1 + Z mod Z^3+1
    assert ring_mul_raw(a, b, 3) == 0b011
    assert poly_mul_mod(Poly(a, 3), Poly(b, 3)) == Poly(0b011, 3)
    with pytest.raises(ValueError):
        poly_mul_mod(Poly(a, 3), Poly(1, 5))
    with pytest.raises(ValueError):
        Poly(0b1000, 3)  # Z^3 is not reduced


def test_serialization_round_trip():
    text = poly_to_str(Poly(0x49, 9))
    assert text == "n=9;coeffs=0x49"
    # the string carries both the ring length and the coefficients
    n, bits = text.removeprefix("n=").split(";coeffs=")
    assert Poly(int(bits, 16), int(n)) == Poly(0x49, 9)


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
    # For odd n, Z^n + 1 is squarefree with one irreducible factor per
    # cyclotomic coset.  Factors that multiply to it, one per coset, each
    # of degree >= 1, hold one irreducible factor each, so each factor is
    # irreducible.
    for n in range(1, 130, 2):
        fact = factorize(n)
        prod = 1
        for g in fact.factors:
            prod = mul_raw(prod, g)
        assert prod == ring_modulus(n)
        assert sorted(g.bit_length() - 1 for g in fact.factors) == \
            sorted(len(c) for c in cyclotomic_cosets(n))


def test_factorization_self_check_rejects_bad_product():
    with pytest.raises(ValueError):
        Factorization(3, (0b11, 0b11))


def test_repetition_poly_values():
    assert repetition_poly(9, 3) == 0b1001001   # 1 + Z^3 + Z^6
    assert repetition_poly(25, 5) == sum(1 << (5 * i) for i in range(5))
    assert repetition_poly(13, 13) == 0x1fff
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
        factorize(FACTORIZE_MAX_N + 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**9 - 1), st.integers(0, 2**9 - 1),
       st.integers(0, 2**9 - 1))
def test_ring_mul_properties(a, b, c):
    n = 9
    ab = ring_mul_raw(a, b, n)
    assert ab == ring_mul_raw(b, a, n)
    assert ring_mul_raw(ab, c, n) == ring_mul_raw(a, ring_mul_raw(b, c, n), n)
    assert ring_mul_raw(a, b ^ c, n) == ab ^ ring_mul_raw(a, c, n)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2**11 - 1), st.integers(1, 2**11 - 1))
def test_gcd_divides_both(a, b):
    g = gcd_raw(a, b)
    assert mod_raw(a, g) == 0 and mod_raw(b, g) == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**40 - 1), st.integers(1, 40))
def test_xgcd_cofactor(a, n):
    # the engine's split of a column: g = gcd(a, Z^n + 1), s a = g mod it
    m = ring_modulus(n)
    g, s = xgcd_raw(a, m)
    assert g == gcd_raw(m, a)
    assert mod_raw(mul_raw(s, a) ^ g, m) == 0


def test_mul_mod_against_schoolbook_oracle():
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.choice([3, 5, 7, 9, 11, 13])
        a, b = rng.getrandbits(n), rng.getrandbits(n)
        got = poly_mul_mod(Poly(a, n), Poly(b, n)).bits
        assert got == ring_mul_raw(a, b, n)
        assert got == mod_raw(mul_raw(a, b), ring_modulus(n))


def test_rotate_is_multiplication_by_a_power_of_z():
    rng = random.Random(64)
    for n in range(1, 65):
        xs = (0, 1, (1 << n) - 1, *(rng.getrandbits(n) for _ in range(3)))
        for j in range(n):
            for x in xs:
                assert rotate(x, j, n) == mod_raw(mul_raw(x, 1 << j),
                                                  ring_modulus(n))


def test_rotate_on_uint64_arrays_at_64_bits():
    # at j = 0 the right shift is by 64, which numpy takes to 0
    rng = random.Random(65)
    xs = [0, 1, (1 << 64) - 1, 1 << 63] + [rng.getrandbits(64)
                                           for _ in range(12)]
    x = np.array(xs, dtype=np.uint64)
    table = rotate(x, np.arange(64, dtype=np.uint64)[:, None], 64)
    assert table.dtype == np.uint64 and table.shape == (64, len(xs))
    for j in range(64):
        want = [mod_raw(mul_raw(v, 1 << j), ring_modulus(64)) for v in xs]
        assert rotate(x, j, 64).tolist() == want
        assert table[j].tolist() == want


def test_ring_mul_raw_on_arrays():
    # an array b gives the array of scalar products, zeros for x = 0 too
    for n in (3, 5, 7, 8):
        b = np.arange(1 << n)
        for x in range(1 << n):
            got = ring_mul_raw(x, b, n)
            assert isinstance(got, np.ndarray) and got.shape == b.shape
            assert got.tolist() == [ring_mul_raw(x, a, n) for a in range(1 << n)]
