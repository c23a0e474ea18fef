"""Double circulant codes, cyclic codes, and the shift group action."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvdc.codes import (BitVec, CyclicCode, DoubleCirculantCode,
                        bitvec_from_str, bitvec_to_str, canonical_rep,
                        cyclic_contains, cyclic_from_vector, dc_contains,
                        dc_sample, divisor_codes, membership_probability,
                        nonrepetition_codes, orbit_length, shift_action)
from gvdc.gf2poly import ring_modulus


def word(left_bits, right_bits, n):
    return BitVec(left_bits | (right_bits << n), 2 * n)


def test_bitvec_basics():
    v = BitVec(0b1011, 4)
    assert v.weight() == 3
    assert [v[i] for i in range(4)] == [1, 1, 0, 1]
    with pytest.raises(ValueError):
        BitVec(16, 4)
    with pytest.raises(IndexError):
        v[4]


def test_bitvec_serialization_round_trip():
    v = BitVec(0x25, 6)
    assert bitvec_to_str(v) == "6:0x25"
    assert bitvec_from_str("6:0x25") == v
    with pytest.raises(ValueError):
        bitvec_from_str("0x25")


def test_dc_contains_hand_values():
    code = DoubleCirculantCode(3, BitVec(0b011, 3))
    # x_R = (1,0,0): x_R * a = 1 + Z = (1,1,0)
    assert not dc_contains(code, word(0b101, 0b001, 3))
    assert dc_contains(code, word(0b011, 0b001, 3))
    assert dc_contains(code, BitVec(0, 6))
    with pytest.raises(ValueError):
        dc_contains(code, BitVec(0, 4))


def test_dc_membership_matches_parity_matrix():
    """Residue-identity membership agrees with the [I | A] syndrome check."""
    rng = random.Random(2024)
    for _ in range(10_000):
        n = rng.choice([3, 5, 7, 9, 11, 13, 33, 64])
        code = dc_sample(n, rng.getrandbits(32))
        x = BitVec(rng.getrandbits(2 * n), 2 * n)
        syndrome_zero = all(
            (row & x.bits).bit_count() % 2 == 0 for row in code.parity_rows()
        )
        assert dc_contains(code, x) == syndrome_zero


def test_generator_rows_are_codewords():
    for n in (3, 5, 9, 13):
        code = dc_sample(n, n)
        for row in code.generator_rows():
            assert dc_contains(code, BitVec(row, 2 * n))


def test_code_serialization_round_trip():
    code = DoubleCirculantCode(9, BitVec(0x49, 9))
    s = code.serialize()
    assert s == "n=9;a=0x49"
    assert DoubleCirculantCode.deserialize(s) == code
    with pytest.raises(ValueError):
        DoubleCirculantCode.deserialize("n=9")


def test_shift_action_hand_value():
    x = BitVec(17, 6)  # halves (1,0,0) and (0,1,0)
    assert shift_action(1, x).bits == 34
    assert shift_action(0, x) == x
    assert shift_action(3, x) == x  # full rotation is the identity


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**18 - 1), st.integers(-20, 20), st.integers(-20, 20))
def test_shift_action_is_group_action(bits, i, j):
    x = BitVec(bits, 18)
    assert shift_action(i, shift_action(j, x)) == shift_action(i + j, x)
    assert shift_action(i, x).weight() == x.weight()


def test_orbit_length_examples():
    assert orbit_length(BitVec(0, 6)) == 1
    assert orbit_length(word(0x49, 0x49, 9)) == 3
    assert orbit_length(word(0b1, 0b0, 13)) == 13
    # all-ones word is fixed by every shift
    assert orbit_length(BitVec((1 << 18) - 1, 18)) == 1


def test_orbit_length_divides_n_and_matches_stabilizer():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.choice([3, 5, 9, 15])
        x = BitVec(rng.getrandbits(2 * n), 2 * n)
        d = orbit_length(x)
        assert n % d == 0
        assert shift_action(d, x) == x
        for e in range(1, d):
            assert shift_action(e, x) != x


def test_canonical_rep_is_orbit_invariant():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.choice([3, 5, 9])
        x = BitVec(rng.getrandbits(2 * n), 2 * n)
        c = canonical_rep(x)
        assert canonical_rep(c) == c
        for j in range(n):
            assert canonical_rep(shift_action(j, x)) == c
        assert c.bits <= x.bits


def test_cyclic_code_examples():
    full = CyclicCode(3, 1)
    even = CyclicCode(3, 0b11)
    rep = CyclicCode(3, 0b111)
    zero = CyclicCode(3, ring_modulus(3))
    assert (full.dim, even.dim, rep.dim, zero.dim) == (3, 2, 1, 0)
    assert even.size() == 4
    assert cyclic_contains(even, BitVec(0b011, 3))
    assert not cyclic_contains(even, BitVec(0b001, 3))
    assert cyclic_contains(zero, BitVec(0, 3))
    assert not cyclic_contains(zero, BitVec(0b111, 3))
    with pytest.raises(ValueError):
        CyclicCode(3, 0b101)  # (1+Z)^2 does not divide Z^3+1


def test_cyclic_from_vector():
    c = cyclic_from_vector(BitVec(0b111, 3))
    assert c.dim == 1 and c.size() == 2
    assert cyclic_from_vector(BitVec(0, 3)).dim == 0
    assert cyclic_from_vector(BitVec(0b001, 3)).dim == 3
    # the spanned code always contains the vector
    rng = random.Random(3)
    for _ in range(200):
        n = rng.choice([3, 5, 9, 13, 15])
        u = BitVec(rng.getrandbits(n), n)
        assert cyclic_contains(cyclic_from_vector(u), u)


def test_cyclic_basis_spans_inside_code():
    code = CyclicCode(9, 0b111)
    for b in code.basis():
        assert cyclic_contains(code, BitVec(b, 9))
    assert len(code.basis()) == code.dim


def test_dual_is_an_involution_with_complementary_dim():
    for n in (3, 5, 7, 9, 15):
        for code in divisor_codes(n):
            d = code.dual()
            assert d.dim == n - code.dim
            assert d.dual() == code


def test_membership_probability_hand_values():
    assert membership_probability(word(0b111, 0b111, 3)) == Fraction(1, 2)
    assert membership_probability(word(0b111, 0b001, 3)) == Fraction(1, 8)
    assert membership_probability(word(0b101, 0b000, 3)) == 0
    assert membership_probability(word(0b000, 0b000, 3)) == 1


def test_membership_probability_is_empirical_rate():
    """Exact enumeration over all circulant columns equals the formula."""
    for n in (3, 5):
        rng = random.Random(n)
        for _ in range(40):
            x = BitVec(rng.getrandbits(2 * n), 2 * n)
            hits = sum(
                dc_contains(DoubleCirculantCode(n, BitVec(a, n)), x)
                for a in range(1 << n)
            )
            assert membership_probability(x) == Fraction(hits, 1 << n)


def test_divisor_codes_counts():
    # 2^(number of irreducible factors of Z^n + 1)
    assert len(divisor_codes(3)) == 4
    assert len(divisor_codes(9)) == 8
    assert len(divisor_codes(13)) == 4
    dims = {c.dim for c in divisor_codes(3)}
    assert dims == {0, 1, 2, 3}


def test_nonrepetition_codes_counts_and_members():
    codes9 = nonrepetition_codes(9)
    assert len(codes9) == 4
    gens9 = {c.g for c in codes9}
    assert 1 in gens9          # full space
    assert 0b11 in gens9       # even-weight code
    assert ring_modulus(9) not in gens9  # zero code is a marker multiple

    codes13 = nonrepetition_codes(13)
    assert len(codes13) == 2
    assert {c.dim for c in codes13} == {12, 13}

    with pytest.raises(ValueError):
        nonrepetition_codes(15)  # not a prime power


def test_dc_sample_is_deterministic_and_balanced():
    assert dc_sample(32, 1234).a == dc_sample(32, 1234).a
    # distinct seeds give distinct columns essentially always at n=32
    draws = {dc_sample(32, s).a.bits for s in range(100)}
    assert len(draws) == 100
    ones = sum(dc_sample(16, s).a.weight() for s in range(10_000))
    freq = ones / (16 * 10_000)
    assert 0.47 < freq < 0.53


def test_shift_action_commutes_with_membership():
    """j-shifting a codeword of any circulant code stays in the code."""
    rng = random.Random(42)
    for _ in range(400):
        n = rng.choice([3, 5, 9, 13])
        code = dc_sample(n, rng.getrandbits(32))
        x = BitVec(rng.getrandbits(2 * n), 2 * n)
        j = rng.randrange(n)
        assert dc_contains(code, x) == dc_contains(code, shift_action(j, x))
