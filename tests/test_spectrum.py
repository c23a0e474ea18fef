"""Weight distributions, the dual transform, and minimum distance."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvdc import spectrum
from gvdc.codes import (BitVec, CyclicCode, DoubleCirculantCode,
                        dc_contains, dc_sample, divisor_codes)
from gvdc.gf2poly import (BudgetExceededError, divmod_raw, factorize,
                          ring_modulus, ring_mul_raw)
from gvdc.spectrum import (SEARCH_MAX_N, WeightDistribution,
                           _cofactor_table, _column_orders, _min_codewords,
                           _necklace_level,
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
    # each code enumerated directly, and through its dual and the
    # transform, whichever of the two weight_distribution takes
    for n in (7, 9, 15):
        for code in divisor_codes(n):
            dual = code.dual()
            direct = tuple(spectrum._gray_weights(code.basis(), n))
            dual_wd = WeightDistribution(
                n, tuple(spectrum._gray_weights(dual.basis(), n)))
            via_dual = macwilliams_transform(dual_wd, dim=dual.dim)
            assert weight_distribution(code).counts == direct == \
                via_dual.counts


def test_weight_distribution_validation():
    with pytest.raises(ValueError):
        WeightDistribution(3, (1, 3, 3))  # wrong length
    # neither the code nor its dual is small enough to enumerate
    code = next(c for c in divisor_codes(63)
                if min(c.dim, c.n - c.dim) > spectrum.ENUM_MAX_DIM)
    with pytest.raises(BudgetExceededError):
        weight_distribution(code)


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


def test_krawtchouk_matrix_matches_the_binomial_sum():
    for n in range(31):
        matrix = spectrum._krawtchouk_matrix(n)
        assert matrix == tuple(
            tuple(sum((-1) ** l * math.comb(i, l) * math.comb(n - i, j - l)
                      for l in range(j + 1)) for i in range(n + 1))
            for j in range(n + 1)), n


def test_krawtchouk_matrix_cache_is_immutable():
    matrix = spectrum._krawtchouk_matrix(3)
    with pytest.raises(TypeError):
        matrix[1][0] = 0
    with pytest.raises(TypeError):
        matrix[1] = (0, 0, 0, 0)
    assert spectrum._krawtchouk_matrix(3) is matrix
    assert matrix[1] == (3, 1, -1, -3)
    even = weight_distribution(CyclicCode(3, 0b11))
    assert macwilliams_transform(even, dim=2).counts == (1, 0, 0, 1)


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
        min_distance_exact(dc_sample(spectrum.EXACT_MAX_N + 1, 0))


def test_engine_refuses_a_half_past_one_word():
    with pytest.raises(BudgetExceededError, match="n <= 64, not n = 65"):
        _min_codewords(65, [1], cap=1)
    # n = 64 still fits: under the column 1, (Z^j, Z^j) is a codeword
    [(d, word)] = _min_codewords(64, [1], cap=2)
    assert d == 2 and word.bit_count() == 2
    assert word >> 64 == word & (1 << 64) - 1


@pytest.mark.parametrize("n, columns", [
    # divisors of Z^63 + 1 of degree 2, 3, 6, 9 and 14, and of
    # Z^64 + 1 = (1 + Z)^64 of degree 1, 2, 4, 8 and 16: light, so that
    # (a, 1) is a codeword of weight at most 4
    (63, [0b111, 0b1011, 0b1001001, 0b1000000001, 0b100000010000001]),
    (64, [1 << r | 1 for r in (1, 2, 4, 8, 16)])])
def test_both_sides_run_where_a_half_and_its_divisor_pass_one_word(
        monkeypatch, n, columns):
    # the left tables are n and r bits wide, so a divisor of degree
    # r > 64 - n still runs both sides, and agrees with the right side
    cap = 4
    groups = []
    search_group = spectrum._search_group

    def recorded(n, g, *args):
        groups.append(g)
        return search_group(n, g, *args)

    monkeypatch.setattr(spectrum, "_search_group", recorded)
    found = _min_codewords(n, columns, cap)
    assert 0 not in groups and len(groups) == len(columns)
    monkeypatch.setattr(spectrum, "_K_BITS_MAX", -1)
    right = _min_codewords(n, columns, cap)
    assert groups[len(columns):] == [0]
    for a, (d, word), (d_right, word_right) in zip(columns, found, right):
        assert d == d_right <= cap
        for w in (word, word_right):
            assert w.bit_count() == d
            assert w & (1 << n) - 1 == ring_mul_raw(w >> n, a, n)


def test_cofactor_table_rows_are_quotients_times_b():
    rng = random.Random(15)
    for n in range(1, 16, 2):
        b = [0, 1, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(5)]
        for code in divisor_codes(n):
            table = _cofactor_table(n, code.g, np.array(b, dtype=np.uint64))
            assert table.shape == (n, len(b))
            for i in range(n):
                q = divmod_raw(1 << i, code.g)[0]
                assert table[i].tolist() == [ring_mul_raw(q, v, n) for v in b]


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


def gray_min_distance(code: DoubleCirculantCode) -> int:
    wd = dc_weight_distribution(code)
    return next(i for i, c in enumerate(wd.counts[1:], start=1) if c)


def assert_min_codeword(code: DoubleCirculantCode, d: int):
    r = min_distance_exact(code)
    assert r.value == d and r.exact
    assert dc_contains(code, r.witness)
    assert r.witness.weight() == d
    for cap in range(2 * code.n + 2):
        assert _min_codewords(code.n, [code.a.bits], cap)[0][0] == min(
            d, cap + 1)


def test_dc_weight_distribution_locates_min_distance():
    for seed in range(10):
        code = dc_sample(11, seed)
        assert gray_min_distance(code) == min_distance_exact(code).value


@pytest.mark.parametrize("k_bits_max", [spectrum._K_BITS_MAX, 0])
def test_min_distance_every_column_small_n(monkeypatch, k_bits_max):
    # every column of every length n <= 10, odd and even, as one batch; with
    # the annihilator limit at 0 every non-unit column runs the message
    # side alone
    monkeypatch.setattr(spectrum, "_K_BITS_MAX", k_bits_max)
    for n in range(1, 11):
        codes = [DoubleCirculantCode(n, BitVec(a, n)) for a in range(1 << n)]
        dists = [gray_min_distance(code) for code in codes]
        found = _min_codewords(n, range(1 << n))
        for code, d, (value, word) in zip(codes, dists, found):
            assert value == d
            assert dc_contains(code, BitVec(word, 2 * n))
            assert word.bit_count() == d
            assert min_distance_exact(code) == spectrum.DistanceResult(
                d, BitVec(word, 2 * n), True)
        for cap in range(2 * n + 2):
            capped = _min_codewords(n, range(1 << n), cap)
            for d, (value, word), full in zip(dists, capped, found):
                assert value == min(d, cap + 1)
                assert word == (full[1] if d <= cap else 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(11, 18), st.integers(0, 2**18 - 1), st.integers(0, 99))
def test_min_distance_non_unit_columns(n, v, pick):
    # a multiple of an irreducible factor of Z^m + 1, m the odd part of n,
    # shares that factor with Z^n + 1 and so is never a unit
    m = n
    while m % 2 == 0:
        m //= 2
    factors = factorize(m).factors
    a = ring_mul_raw(factors[pick % len(factors)], v % (1 << n), n)
    code = DoubleCirculantCode(n, BitVec(a, n))
    assert_min_codeword(code, gray_min_distance(code))


def test_capped_search_decides_like_uncapped():
    for n in (25, 27):
        columns = []
        for seed in range(40):
            a = dc_sample(n, seed).a.bits
            if seed % 2:
                a = ring_mul_raw(a, 0b11, n)  # a multiple of 1 + Z
            columns.append(a)
        dists = [d for d, _ in _min_codewords(n, columns)]
        for cap in range(11):
            capped = [d for d, _ in _min_codewords(n, columns, cap)]
            for d, c in zip(dists, capped):
                for w in range(cap + 1):
                    assert (c <= w) == (d <= w)


def engine_columns(n: int) -> list[int]:
    """Sampled columns of length n, every other one a multiple of a
    factor of Z^n + 1: units, columns that share a divisor g, and, for
    the factor of degree 20 or 18, columns searched from the right side
    alone."""
    factors = factorize(n).factors
    rng = random.Random(n)
    return [ring_mul_raw(factors[i // 2 % len(factors)], rng.getrandbits(n),
                         n) if i % 2 else rng.getrandbits(n)
            for i in range(60)]


@pytest.mark.parametrize("n", [25, 27])
def test_batches_do_not_change_a_column(monkeypatch, n):
    # a column's (weight, word) is the same alone, in a batch, in a
    # reversed batch, next to its own copy, and with every gather and
    # coset block cut into chunks of a few entries
    columns = engine_columns(n)
    for cap in (None, 7):
        want = [_min_codewords(n, [a], cap)[0] for a in columns]
        assert _min_codewords(n, columns, cap) == want
        assert _min_codewords(n, columns[::-1], cap) == want[::-1]
        assert _min_codewords(n, columns + columns, cap) == want + want
        with monkeypatch.context() as m:
            m.setattr(spectrum, "_BLOCK", 64)
            assert _min_codewords(n, columns, cap) == want


def test_left_side_witnesses_are_codewords():
    # a minimum met first on the left side has a lighter left half: any
    # codeword with wt(x_R) <= wt(x_L) is met on the right side no later
    left_found = 0
    cases = [DoubleCirculantCode(5, BitVec(0b11111, 5))]
    cases += [dc_sample(n, seed) for n in (9, 12, 14, 16)
              for seed in range(40)]
    for code in cases:
        r = min_distance_exact(code)
        left, right = r.witness.halves()
        if left.weight() < right.weight():
            left_found += 1
            assert dc_contains(code, r.witness)
            assert r.witness.weight() == r.value == gray_min_distance(code)
    # the all-ones column at n = 5 has its minimum (0, 1 + Z) at left level 0
    first = min_distance_exact(cases[0]).witness
    assert first.halves()[0].bits == 0 and first.weight() == 2
    assert left_found >= 20


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


def reference_low_weight_search(code, w, effort=200, seed=0):
    """The scalar search, one round and one pivot at a time."""
    n = code.n
    rng = random.Random(seed)
    rows0 = code.generator_rows()
    best = None
    best_wt = 2 * n + 1
    for r in rows0:
        wt = r.bit_count()
        if 0 < wt < best_wt:
            best_wt = wt
            best = r
    cols = list(range(2 * n))
    for _ in range(effort):
        perm = rng.sample(cols, len(cols))
        rows = list(rows0)
        rank_rows = []  # (pivot column bit, row)
        for c in perm:
            bit = 1 << c
            pivot = None
            for i, r in enumerate(rows):
                if r & bit:
                    pivot = i
                    break
            if pivot is None:
                continue
            prow = rows.pop(pivot)
            rows = [r ^ prow if r & bit else r for r in rows]
            rank_rows = [(b, r ^ prow if r & bit else r) for b, r in rank_rows]
            rank_rows.append((bit, prow))
            if not rows:
                break
        for _, r in rank_rows:
            wt = r.bit_count()
            if 0 < wt < best_wt:
                best_wt = wt
                best = r
    if best is not None and best_wt <= w:
        return spectrum.DistanceResult(best_wt, BitVec(best, 2 * n), False)
    return None


def test_low_weight_search_matches_scalar_reference(monkeypatch):
    # a column takes one 64-bit word of row bits up to n = 64, two up to
    # n = 128 and three at n = 129; 2n > 255 counts weights in 16-bit lanes
    rng = random.Random(11)
    for k, n in enumerate((1, 2, 5, 13, 31, 32, 33, 61, 64, 65, 61, 13,
                           127, 128, 129)):
        a = rng.getrandbits(n)
        # even weight, every other time, means a multiple of 1 + Z
        a ^= (a.bit_count() + k) % 2
        code = DoubleCirculantCode(n, BitVec(a, n))
        for effort in (1, 3, 200) if n < 127 else (1, 3):
            seed = rng.getrandbits(16)
            ref = reference_low_weight_search(code, 2 * n, effort, seed)
            got = low_weight_search(code, 2 * n, effort, seed)
            assert got == ref
            assert dc_contains(code, got.witness)
            assert low_weight_search(code, ref.value - 1, effort,
                                     seed) is None
            # seven rounds, or one, to a block: one call spans several
            for per_block in (7, 1):
                with monkeypatch.context() as m:
                    m.setattr(spectrum, "_BLOCK",
                              per_block * spectrum._round_words(n))
                    assert low_weight_search(code, 2 * n, effort,
                                             seed) == ref
            # any lane that holds 2n counts the same weights
            for lane in (16, 32):
                with monkeypatch.context() as m:
                    m.setattr(spectrum, "_count_lane", lambda n: lane)
                    assert low_weight_search(code, 2 * n, effort,
                                             seed) == ref


def test_column_orders_are_rng_sample():
    # randbelow's width steps at every power of two: 255, 256 and 257
    # straddle one, and 1000 takes ten bits
    for m in [*range(2, 131), 255, 256, 257, 1000]:
        for seed in (0, 1, 2**64 + 3):
            rng = random.Random(seed)
            want = [rng.sample(range(m), m) for _ in range(9)]
            for per_block in (1, 7, 9):
                blocks = list(_column_orders(random.Random(seed), m, 9,
                                             per_block))
                assert [len(b) for b in blocks] == \
                    [min(per_block, 9 - i) for i in range(0, 9, per_block)]
                got = [row.tolist() for b in blocks for row in b]
                assert got == want, (m, seed, per_block)


def test_low_weight_search_weight_and_length_limits():
    code = DoubleCirculantCode(13, BitVec(0x1b3, 13))
    with pytest.raises(ValueError, match="nonnegative"):
        low_weight_search(code, -1, effort=1)
    # no codeword has weight 0, so w = 0 is legal and finds nothing
    assert low_weight_search(code, 0, effort=1) is None
    n = SEARCH_MAX_N + 1
    with pytest.raises(BudgetExceededError, match="n <= "):
        low_weight_search(DoubleCirculantCode(n, BitVec(1, n)), 2 * n)


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


def test_necklace_level_is_every_least_rotation_in_order():
    # brute force: bit string a[1..n] is a necklace when no rotation of it
    # is lexicographically smaller; fixed-width binary counts up in
    # lexicographic order
    for n in range(1, 15):
        words = [format(x, f"0{n}b") for x in range(1, 1 << n)]
        necklaces = [s for s in words
                     if all(s <= s[j:] + s[:j] for j in range(1, n))]
        for t in range(1, n + 1):
            rows = [[i for i, c in enumerate(s) if c == "1"]
                    for s in necklaces if s.count("1") == t]
            idx, bits = _necklace_level(n, t)
            assert idx.shape == (t, len(rows))
            assert idx.T.tolist() == rows
            assert bits.tolist() == [sum(1 << i for i in row) for row in rows]
            assert not idx.flags.writeable and not bits.flags.writeable
