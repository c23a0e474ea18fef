"""Weight distributions, the dual transform, and minimum distance."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvdc.codes import (BitVec, CyclicCode, DoubleCirculantCode,
                        cyclic_contains, dc_contains, dc_sample,
                        divisor_codes, nonrepetition_codes)
from gvdc.gf2poly import BudgetExceededError, ring_modulus
from gvdc.spectrum import (WeightDistribution, _necklace_positions,
                           dc_weight_distribution, low_weight_search,
                           macwilliams_transform, min_distance_exact,
                           weight_distribution)
from gvdc.verify import _census_all


def brute_weight_distribution(code: CyclicCode) -> tuple[int, ...]:
    counts = [0] * (code.n + 1)
    basis = code.basis()
    for mask in range(code.size()):
        v = 0
        for i, b in enumerate(basis):
            if (mask >> i) & 1:
                v ^= b
        counts[v.bit_count()] += 1
    return tuple(counts)


def test_weight_distribution_hand_values():
    assert weight_distribution(CyclicCode(3, 1)).counts == (1, 3, 3, 1)
    assert weight_distribution(CyclicCode(3, 0b11)).counts == (1, 0, 3, 0)
    assert weight_distribution(CyclicCode(3, 0b111)).counts == (1, 0, 0, 1)
    zero = CyclicCode(3, ring_modulus(3))
    assert weight_distribution(zero).counts == (1, 0, 0, 0)


def test_weight_distribution_counts_codewords():
    for n in (3, 5, 7, 9, 13, 15):
        for code in divisor_codes(n):
            wd = weight_distribution(code)
            assert wd.counts == brute_weight_distribution(code)
            assert wd.total() == code.size()


def test_weight_distribution_routes_agree():
    for n in (7, 9, 15):
        for code in divisor_codes(n):
            direct = weight_distribution(code, route="direct")
            dual = weight_distribution(code, route="dual")
            assert direct.counts == dual.counts


def test_weight_distribution_validation():
    with pytest.raises(ValueError):
        WeightDistribution(3, (1, 3, 3))  # wrong length
    # the auto route would dodge this via the dual; force the direct one
    with pytest.raises(BudgetExceededError):
        weight_distribution(CyclicCode(29, 1), dim_limit=26, route="direct")


def test_macwilliams_transform_pairs():
    # full space <-> zero code
    full = weight_distribution(CyclicCode(3, 1))
    zero = macwilliams_transform(full, dim=3)
    assert zero.counts == (1, 0, 0, 0)
    # even-weight code <-> repetition code
    even = weight_distribution(CyclicCode(3, 0b11))
    assert macwilliams_transform(even, dim=2).counts == (1, 0, 0, 1)


def test_macwilliams_matches_dual_enumeration():
    for n in (3, 5, 7, 9, 11, 13, 15):
        for code in divisor_codes(n):
            wd = weight_distribution(code)
            via_transform = macwilliams_transform(wd, dim=code.dim)
            direct = weight_distribution(code.dual())
            assert via_transform.counts == direct.counts


def test_macwilliams_is_an_involution():
    for n in (3, 7, 9, 15):
        for code in divisor_codes(n):
            wd = weight_distribution(code)
            once = macwilliams_transform(wd, dim=code.dim)
            back = macwilliams_transform(once, dim=n - code.dim)
            assert back.counts == wd.counts


def brute_dc_min_distance(code: DoubleCirculantCode) -> int:
    best = 2 * code.n
    for bits in range(1, 1 << (2 * code.n)):
        x = BitVec(bits, 2 * code.n)
        if x.weight() < best and dc_contains(code, x):
            best = x.weight()
    return best


def test_min_distance_hand_values():
    code = DoubleCirculantCode(3, BitVec(0b011, 3))
    r = min_distance_exact(code)
    assert r.value == 3 and r.exact
    assert dc_contains(code, r.witness)
    assert r.witness.weight() == 3

    assert min_distance_exact(DoubleCirculantCode(1, BitVec(1, 1))).value == 2
    assert min_distance_exact(DoubleCirculantCode(1, BitVec(0, 1))).value == 1


def test_min_distance_matches_brute_force():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.choice([2, 3, 4, 5, 6, 7])
        code = dc_sample(n, rng.getrandbits(32))
        r = min_distance_exact(code)
        assert r.value == brute_dc_min_distance(code)
        assert dc_contains(code, r.witness)
        assert r.witness.weight() == r.value


def test_min_distance_budget():
    with pytest.raises(BudgetExceededError):
        min_distance_exact(dc_sample(29, 0), limit=28)


def test_dc_weight_distribution_matches_enumeration():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.choice([2, 3, 4, 5, 6])
        code = dc_sample(n, rng.getrandbits(32))
        wd = dc_weight_distribution(code)
        counts = [0] * (2 * n + 1)
        for bits in range(1 << (2 * n)):
            x = BitVec(bits, 2 * n)
            if dc_contains(code, x):
                counts[x.weight()] += 1
        assert wd.counts == tuple(counts)
        assert wd.total() == 1 << n


def test_dc_weight_distribution_locates_min_distance():
    for seed in range(10):
        code = dc_sample(11, seed)
        wd = dc_weight_distribution(code)
        d = next(i for i, c in enumerate(wd.counts[1:], start=1) if c)
        assert d == min_distance_exact(code).value


def test_low_weight_search_finds_generator_row():
    # weight of any generator row caps the minimum distance
    code = DoubleCirculantCode(9, BitVec(0b1, 9))
    r = low_weight_search(code, w=2, effort=10, seed=1)
    assert r is not None and r.value <= 2 and not r.exact
    assert dc_contains(code, r.witness)


def test_low_weight_search_agrees_with_exact():
    rng = random.Random(5)
    hits = 0
    for _ in range(30):
        n = rng.choice([7, 9, 11])
        code = dc_sample(n, rng.getrandbits(32))
        d = min_distance_exact(code).value
        r = low_weight_search(code, w=d, effort=400, seed=rng.getrandbits(16))
        if r is not None:
            hits += 1
            assert r.value == d  # a hit at threshold w=d must be optimal
            assert dc_contains(code, r.witness)
    assert hits >= 25  # randomized search may miss rarely, not usually


def test_low_weight_search_none_when_impossible():
    code = DoubleCirculantCode(3, BitVec(0b011, 3))
    # minimum distance is 3 here; weight-2 words cannot exist
    assert min_distance_exact(code).value == 3
    assert low_weight_search(code, w=2, effort=300, seed=0) is None


def test_generator_weight_census_hand_value():
    census = _census_all(3)
    # counts vectors of each weight whose spanned cyclic code is exactly
    # the target; weight-2 vectors have the 1+Z factor, so they span the
    # even-weight code rather than the full space
    assert census[1] == (0, 3, 0, 0)
    assert census[0b11] == (0, 0, 3, 0)
    assert census[0b111] == (0, 0, 0, 1)


def test_generator_weight_census_sums_to_space():
    for n in (3, 5, 9):
        total = [0] * (n + 1)
        for code in divisor_codes(n):
            for w, c in enumerate(_census_all(n)[code.g]):
                total[w] += c
        # every vector generates exactly one cyclic code
        assert total == [wd_c for wd_c in binomial_row(n)]


def binomial_row(n):
    import math

    return [math.comb(n, w) for w in range(n + 1)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2**9 - 1))
def test_census_weight_matches_spanned_code(bits):
    from gvdc.codes import cyclic_from_vector

    n = 9
    u = BitVec(bits, n)
    spanned = cyclic_from_vector(u)
    assert _census_all(n)[spanned.g][u.weight()] >= 1


def test_necklace_weight_cap_is_exact():
    # the capped generator yields exactly the light rows of the uncapped
    # one, in the same order
    for n in range(1, 17):
        full = list(_necklace_positions(n))
        for wmax in range(n + 1):
            assert list(_necklace_positions(n, wmax)) == \
                [row for row in full if row[0] <= wmax]
