"""The audit engine: exact oracles, lemma reports, and experiments."""

import hashlib
import math
import os
import random
import time
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from gvdc import verify
from gvdc.codes import (BitVec, DoubleCirculantCode, cyclic_from_vector,
                        dc_sample)
from gvdc.gf2poly import BudgetExceededError, mod_raw, ring_mul_raw
from gvdc.spectrum import SEARCH_MAX_N, _min_codewords, min_distance_exact
from gvdc.verify import (INFORMATIVE, TABLE_MAX_N, VERIFIED_EXACT,
                         VERIFIED_NUMERIC, VIOLATED, LemmaReport,
                         dc_distance_table, expected_count_bruteforce,
                         expected_count_exact, experiment_distance,
                         orbit_bound_value, prob_positive_bruteforce,
                         triple_sum_value, trial_seed, verify_lemma_cx,
                         verify_orbit_bound, verify_triplesum,
                         verify_triplesum_sweep, wilson_upper)


def test_wilson_upper_values_and_shape():
    assert abs(wilson_upper(0, 10_000) - 0.0006630497334598373) < 1e-15
    assert abs(wilson_upper(5, 100) - 0.13915030290164004) < 1e-15
    assert wilson_upper(100, 100) == 1.0 or wilson_upper(100, 100) < 1.0001
    # more successes push the edge up; more samples pull it down
    assert wilson_upper(3, 100) < wilson_upper(7, 100)
    assert wilson_upper(5, 1000) < wilson_upper(5, 100)
    assert 0 < wilson_upper(0, 10) < 1


def test_wilson_upper_covers_true_rate():
    # counts drawn at the true rate stay under their 99% edge almost always
    rng = random.Random(0)
    miss = 0
    for _ in range(300):
        p, n = 0.03, 400
        k = sum(rng.random() < p for _ in range(n))
        if wilson_upper(k, n) < p:
            miss += 1
    assert miss <= 6


def test_trial_seed_matches_hash_construction():
    for master, idx in ((0, 0), (42, 7), (123456, 999)):
        digest = hashlib.sha256(f"{master}:{idx}".encode()).digest()
        assert trial_seed(master, idx) == int.from_bytes(digest[:8], "big")
    # distinct indexes decorrelate
    seeds = {trial_seed(5, i) for i in range(1000)}
    assert len(seeds) == 1000


def test_membership_uniformity_sweep():
    for n in (3, 5, 7, 9):
        r = verify_lemma_cx(n)
        assert r.status == VERIFIED_EXACT
        assert r.lemma == "membership-uniformity"
        assert r.counterexample is None


def _cx_reference(n):
    """(lhs, rhs, counterexample) of the first membership-uniformity
    failure, by one scalar product and one Fraction compare at a time,
    through the multiply and remainder verify uses; None if none fails."""
    size = 1 << n
    for xr in range(size):
        c = cyclic_from_vector(BitVec(xr, n))
        counts = {}
        for a in range(size):
            prod = verify.ring_mul_raw(xr, a, n)
            counts[prod] = counts.get(prod, 0) + 1
        mult = size // c.size()
        if len(counts) != c.size() or any(v != mult for v in counts.values()):
            return (f"support/multiplicity for x_R={xr:#x}",
                    f"uniform {mult} on code", f"x_R={xr:#x}")
        for xl in range(size):
            expected = (Fraction(1, c.size())
                        if verify.mod_raw(xl, c.g) == 0 else Fraction(0))
            observed = Fraction(counts.get(xl, 0), size)
            if expected != observed:
                return str(observed), str(expected), f"x_L={xl:#x} x_R={xr:#x}"
    return None


def test_cx_catches_a_corrupted_product(monkeypatch):
    assert _cx_reference(5) is None
    # flip one bit of the product x_R * a at x_R = 3, a = 5; works on the
    # array of every a as well as on one a
    monkeypatch.setattr(verify, "ring_mul_raw",
                        lambda x, b, n: ring_mul_raw(x, b, n)
                        ^ ((x == 3) & (b == 5)))
    r = verify_lemma_cx(5)
    assert r.status == VIOLATED and r.counterexample == "x_R=0x3"
    assert (r.lhs, r.rhs, r.counterexample) == _cx_reference(5)


def test_cx_catches_a_corrupted_membership(monkeypatch):
    # claim that x_L = Z + Z^2 and x_L = Z^3 + Z^4 lie in no code; the
    # first of the two is reported
    monkeypatch.setattr(verify, "mod_raw",
                        lambda a, b: mod_raw(a, b) or a in (0b110, 0b11000))
    r = verify_lemma_cx(5)
    assert r.status == VIOLATED and r.counterexample == "x_L=0x6 x_R=0x1"
    assert (r.lhs, r.rhs, r.counterexample) == _cx_reference(5)


def test_expected_count_small_values():
    assert expected_count_exact(3, 0) == 0
    assert expected_count_exact(3, 1) == Fraction(3, 8)
    # weight cap 2n counts every nonzero word: sum over x of Pr[x in C]
    # equals E[|C|] - 1 = 2^n - 1
    for n in (3, 5, 7):
        assert expected_count_exact(n, 2 * n) == (1 << n) - 1


def test_expected_count_lattice_matches_bruteforce():
    for n in (3, 5, 7):
        for w in range(0, 2 * n + 1):
            assert expected_count_exact(n, w) == expected_count_bruteforce(n, w)


@pytest.mark.parametrize("exact_sum", [
    expected_count_exact, expected_count_bruteforce, prob_positive_bruteforce,
    orbit_bound_value, verify_orbit_bound])
def test_exact_sums_reject_lengths_below_one(exact_sum):
    for n in (0, -3):
        with pytest.raises(ValueError, match="n must be >= 1"):
            exact_sum(n, 1)


def test_bruteforce_count_rejects_a_negative_weight():
    # as the lattice sum it checks does
    for count in (expected_count_exact, expected_count_bruteforce):
        with pytest.raises(ValueError, match="w must be nonnegative"):
            count(9, -1)


def test_prob_positive_versus_expectation():
    # first-moment bound: Pr[X > 0] <= E[X]
    for n in (3, 5, 7):
        for w in range(1, 2 * n + 1):
            assert prob_positive_bruteforce(n, w) <= expected_count_exact(n, w)


def test_orbit_bound_value_is_orbit_weighted_expectation():
    from gvdc.codes import membership_probability

    for n in (3, 5, 7, 9):
        # the least rotation of every word, both halves turned together
        words = np.arange(1 << (2 * n), dtype=np.int64)
        mask = (1 << n) - 1
        left, right = words & mask, words >> n
        canon = words.copy()
        for j in range(1, n):
            turned = (((left << j) | (left >> (n - j))) & mask
                      | (((right << j) | (right >> (n - j))) & mask) << n)
            np.minimum(canon, turned, out=canon)
        by_weight = [Fraction(0)] * (2 * n + 1)
        reps = np.flatnonzero(canon == words)[1:]  # the zero word is first
        for bits, wt in zip(reps.tolist(), np.bitwise_count(reps).tolist()):
            by_weight[wt] += membership_probability(BitVec(bits, 2 * n))
        for w in (1, 2, 3, 2 * n):
            # shift invariance makes the orbit-weighted sum over all words
            # equal the plain sum over representatives
            assert orbit_bound_value(n, w) == sum(by_weight[:w + 1])


def test_orbit_bound_dominates_truth_and_reports():
    for n, w in ((3, 2), (5, 3), (9, 2), (9, 4)):
        r = verify_orbit_bound(n, w)
        assert r.status == VERIFIED_EXACT
        assert Fraction(r.lhs) <= Fraction(r.rhs)
        assert prob_positive_bruteforce(n, w) == Fraction(r.lhs)


def test_pairs_within_matches_double_loop():
    rng = random.Random(11)
    for _ in range(200):
        x = [rng.randint(0, 9) for _ in range(rng.randint(1, 7))]
        y = [rng.randint(0, 9) for _ in range(rng.randint(1, 7))]
        for w in range(-1, len(x) + len(y) + 2):
            brute = sum(xi * yj for i, xi in enumerate(x)
                        for j, yj in enumerate(y) if i + j <= w)
            assert verify._pairs_within(x, y, w) == brute


def test_triple_sum_value_hand_case():
    assert triple_sum_value(13, 1, 4) == Fraction(8311, 26624)
    # prime case reduces to a single level
    assert triple_sum_value(13, 1, 0) >= 0


def test_triple_sum_value_rejects_a_negative_weight():
    for p, m, w in ((5, 2, -1), (3, 2, -3)):
        with pytest.raises(ValueError, match="w must be nonnegative"):
            triple_sum_value(p, m, w)
    for w in (math.inf, math.nan):
        with pytest.raises(ValueError, match="w must be finite"):
            triple_sum_value(5, 1, w)


def test_triple_sum_dominates_exact_probability():
    for p, m in ((3, 1), (3, 2), (13, 1)):
        n = p**m
        for w in range(1, 2 * n + 1, max(1, n // 2)):
            assert prob_positive_bruteforce(n, w) <= triple_sum_value(p, m, w)


def test_verify_triplesum_exact_and_informative():
    r = verify_triplesum(13, 1, 4)
    assert r.status == VERIFIED_EXACT
    assert Fraction(r.lhs) == prob_positive_bruteforce(13, 4)
    loose = verify_triplesum(3, 1, 6)  # bound above the cap
    assert loose.status in (VERIFIED_EXACT, INFORMATIVE)


def test_verify_triplesum_sweep_exact_covers_all_discriminating_w():
    reports = verify_triplesum_sweep(3, 2)
    assert reports and all(r.status == VERIFIED_EXACT for r in reports)
    ws = [r.parameters["w"] for r in reports]
    assert ws == sorted(ws)


def test_verify_triplesum_sweep_monte_carlo():
    reports = verify_triplesum_sweep(5, 2, trials=400, seed=3)
    assert reports
    for r in reports:
        assert r.status == INFORMATIVE
        assert float(r.lhs) < float(Fraction(r.rhs))
        assert "400 samples" in r.notes


def test_verify_triplesum_sampled_matches_sweep():
    # one Monte Carlo pass answers both entry points identically
    sweep = {r.parameters["w"]: r
             for r in verify_triplesum_sweep(5, 2, trials=300, seed=2)}
    for w in (5, 7):
        r = verify_triplesum(5, 2, w, trials=300, seed=2)
        s = sweep[w]
        assert r.status == INFORMATIVE
        assert r == s
    loose = verify_triplesum(5, 2, 8, trials=300, seed=2)
    assert float(Fraction(loose.rhs)) >= 0.9 and 8 not in sweep
    assert loose.status == INFORMATIVE
    assert loose.notes == "bound is above 0.9 here and not discriminating"


def test_syndrome_weight_hist_matches_loop():
    for total in range(1, 13):
        for r in (r for r in range(1, total + 1) if total % r == 0):
            t = total // r
            ref = [[0] * (total + 1) for _ in range(1 << r)]
            for word in range(1 << total):
                s = 0
                for c in range(t):
                    s ^= (word >> (c * r)) & ((1 << r) - 1)
                ref[s][word.bit_count()] += 1
            got = verify._syndrome_class_counts(r, t)
            assert got.shape == (r + 1, total + 1)
            assert [got[s.bit_count()].tolist()
                    for s in range(1 << r)] == ref, (r, t)


def bruteforce_syndrome_hist(r: int, t: int) -> np.ndarray:
    """Entry [s, w]: the words of length t r and weight w whose t blocks
    of r bits XOR to s, by enumerating every word."""
    total = t * r
    x = np.arange(1 << total, dtype=np.uint64)
    mask = np.uint64((1 << r) - 1)
    syn = x & mask
    for c in range(1, t):
        syn = syn ^ ((x >> np.uint64(c * r)) & mask)
    flat = syn.astype(np.int64) * (total + 1) + np.bitwise_count(x)
    counts = np.bincount(flat, minlength=(1 << r) * (total + 1))
    return counts.reshape(1 << r, total + 1)


def test_syndrome_class_counts_match_full_enumeration():
    # every shape the repetition audit covers
    for total in range(1, verify._REPETITION_MAX_TR + 1):
        for r in (r for r in range(1, total + 1) if total % r == 0):
            classes = verify._syndrome_class_counts(r, total // r)
            weights = np.bitwise_count(np.arange(1 << r, dtype=np.uint64))
            assert (classes[weights.astype(np.intp)]
                    == bruteforce_syndrome_hist(r, total // r)).all(), r


def test_verify_repetition_report():
    # the tight cases are listed in (r, t) then (s, w) order
    assert verify.verify_repetition() == LemmaReport(
        "syndrome-count-cap", {"max_tr": 18}, VERIFIED_NUMERIC,
        "max count/cap ratio 1.000000000 at (r,t)=(1, 2)", "1",
        notes="tight cases (r,t,w,s): "
              "[(1, 2, 1, 1), (2, 1, 1, 1), (2, 1, 1, 2)]")


def test_verify_repetition_catches_an_inflated_count(monkeypatch):
    # at (r, t) = (3, 2) the syndromes of weight 1 are s = 1, 2, 4 and
    # those of weight 2 are s = 3, 5, 6; the report names the least s
    counts = verify._syndrome_class_counts
    for cells, expected in (([(2, 3)], "r=3 t=2 w=3 s=3"),
                            ([(2, 3), (1, 4)], "r=3 t=2 w=4 s=1")):
        def inflated(r, t):
            table = counts(r, t)
            if (r, t) == (3, 2):
                for j, w in cells:
                    table[j, w] += 1 << 20
            return table

        monkeypatch.setattr(verify, "_syndrome_class_counts", inflated)
        r = verify.verify_repetition()
        assert r.status == VIOLATED
        assert r.counterexample == expected
        j, w = cells[-1]
        assert int(r.lhs) == counts(3, 2)[j, w] + (1 << 20)


def test_verify_repetition_catches_a_tight_count_raised_by_one(monkeypatch):
    # at (r, t) = (1, 2) the 2 words of weight 1 have syndrome s = 1 and
    # meet the cap sqrt(4) Q = 2 exactly; a third is one past it
    counts = verify._syndrome_class_counts

    def raised(r, t):
        table = counts(r, t)
        if (r, t) == (1, 2):
            assert table[1, 1] == 2
            table[1, 1] += 1
        return table

    monkeypatch.setattr(verify, "_syndrome_class_counts", raised)
    r = verify.verify_repetition()
    assert r.status == VIOLATED
    assert r.counterexample == "r=1 t=2 w=1 s=1"
    assert r.lhs == "3"


def test_block_code_weights_match_loop():
    rng = random.Random(11)
    for r, t, extra in [(1, 2, 0), (2, 3, 4), (3, 2, 5), (4, 2, 8), (2, 4, 6)]:
        cols = [rng.getrandbits(extra) for _ in range(r)]
        ref = [0] * (t * r + extra + 1)
        for x1 in range(1 << extra):
            for x2 in range(1 << (t * r)):
                s = 0
                for c in range(t):
                    s ^= (x2 >> (c * r)) & ((1 << r) - 1)
                for k in range(r):
                    s ^= ((x1 & cols[k]).bit_count() & 1) << k
                if s == 0:
                    ref[x1.bit_count() + x2.bit_count()] += 1
        assert verify._block_code_weights(r, t, cols, extra) == ref


def test_verify_distrib_inequality_reports(monkeypatch):
    shapes = []
    counts = verify._syndrome_class_counts

    def spy(r, t):
        shapes.append(r * t)
        return counts(r, t)

    monkeypatch.setattr(verify, "_syndrome_class_counts", spy)
    for seed in (0, 2, 3, 7):
        r = verify.verify_distrib_inequality(seed=seed)
        assert r == LemmaReport(
            "spectrum-convolution-cap", {"samples": 20, "seed": seed},
            VERIFIED_NUMERIC, "20 random instances", "all within cap")
    assert len(shapes) == 80 and max(shapes) == 16


def test_verify_distrib_inequality_catches_an_inflated_count(monkeypatch):
    # seed 3 draws r = 2, t = 4, extra = 8 first; the word x1 = 0 of the
    # extra columns carries the repeated-block bucket at (s = 0, w = tr)
    # straight to total weight i = tr = 8
    counts = verify._syndrome_class_counts

    def inflated(r, t):
        table = counts(r, t)
        table[0, r * t] += 1 << 40
        return table

    monkeypatch.setattr(verify, "_syndrome_class_counts", inflated)
    r = verify.verify_distrib_inequality(seed=3)
    assert r.status == VIOLATED
    assert r.counterexample == "trial=0 r=2 t=4 extra=8 i=8"
    assert int(r.lhs) > 1 << 40


def test_distance_table_refuses_past_its_limit():
    with pytest.raises(BudgetExceededError):
        dc_distance_table(TABLE_MAX_N + 1)


def test_exhaustive_distance_table_p13():
    table = dc_distance_table(13)
    assert len(table) == 1 << 13
    hist = {}
    for d in table:
        hist[d] = hist.get(d, 0) + 1
    assert hist == {1: 1, 2: 14, 3: 78, 4: 1131, 5: 1729, 6: 5213, 7: 26}
    assert max(table) >= 5
    share = Fraction(sum(1 for d in table if d <= 4), 1 << 13)
    assert share == Fraction(153, 1024)
    assert share <= Fraction(35802, 106496)
    # the cumulative count behind prob_positive_bruteforce, at every cap
    for w in (-1, 0, 3.5, *range(1, 28)):
        assert prob_positive_bruteforce(13, w) == \
            Fraction(sum(1 for d in table if d <= w), 1 << 13)


def test_distance_table_spot_checks_against_exact():
    table = dc_distance_table(13)
    for a in (0, 1, 0b1011, 0x1fff, 0x1234):
        code = DoubleCirculantCode(13, BitVec(a, 13))
        assert table[a] == min_distance_exact(code).value


def test_distance_table_equals_the_engine_column_by_column(monkeypatch):
    # one search per orbit of a -> Z^j a(Z^u), gcd(u, n) = 1, must give
    # every column the distance its own search gives, at odd and even n
    searched = []

    def counting(n, columns, cap=None):
        searched.append((n, len(columns)))
        return _min_codewords(n, columns, cap)

    monkeypatch.setattr(verify, "_min_codewords", counting)
    for n in range(1, 13):
        dc_distance_table.cache_clear()
        want = tuple(_min_codewords(n, [a])[0][0] for a in range(1 << n))
        assert dc_distance_table(n) == want, n
    dc_distance_table.cache_clear()
    dc_distance_table(13)
    # 74 orbits at n = 13, against 632 rotation classes, in one call
    assert searched[-1] == (13, 74)
    dc_distance_table.cache_clear()


def test_experiment_exact_mode_records():
    records, summary = experiment_distance(n=13, trials=32, seed=9)
    assert len(records) == 32
    assert summary["completed"] == 32 and not summary["truncated"]
    assert not summary["vacuous"]
    assert summary["gv_guarantee"] == 4
    assert summary["threshold_kind"] == "simple"
    for rec in records:
        assert rec.seed == trial_seed(9, rec.trial)
        code = DoubleCirculantCode(13, BitVec(int(rec.a_hex, 16), 13))
        assert dc_sample(13, rec.seed).a == code.a
        assert rec.exact
        assert rec.d_found == min_distance_exact(code).value
    hist = summary["histogram"]
    assert sum(hist.values()) == 32


@pytest.mark.parametrize("block", [1, 5, verify._TRIAL_BLOCK])
def test_experiment_seed_and_worker_invariance(monkeypatch, block):
    # 24 trials: blocks of 5 leave a short last block, in process and in
    # each pool job
    want = [min_distance_exact(dc_sample(11, trial_seed(4, i))).value
            for i in range(24)]
    monkeypatch.setattr(verify, "_TRIAL_BLOCK", block)
    # no trial runs in process first, so the pool takes them all
    monkeypatch.setattr(verify, "_POOL_START_S", 0)
    base_records, base_summary = experiment_distance(n=11, trials=24, seed=4)
    assert [r.d_found for r in base_records] == want
    again_records, _ = experiment_distance(n=11, trials=24, seed=4)
    assert base_records == again_records
    par_records, par_summary = experiment_distance(
        n=11, trials=24, seed=4, workers=3
    )
    assert par_records == base_records
    assert par_summary == base_summary
    other_records, _ = experiment_distance(n=11, trials=24, seed=5)
    assert other_records != base_records
    search = dict(n=33, trials=12, seed=2, mode="search", search_weight=8,
                  effort=20)
    assert experiment_distance(**search) == \
        experiment_distance(**search, workers=3)


def test_exact_trials_go_to_the_engine_in_blocks(monkeypatch):
    calls = []

    def counting(n, columns, cap=None):
        calls.append(len(columns))
        return _min_codewords(n, columns, cap)

    monkeypatch.setattr(verify, "_min_codewords", counting)
    block = verify._TRIAL_BLOCK
    for trials in (0, 1, block, 2 * block + 3):
        calls.clear()
        records, _ = experiment_distance(n=11, trials=trials, seed=3)
        assert len(calls) == -(-trials // block), trials
        assert sum(calls) == len(records) == trials
    # search trials never reach the engine
    calls.clear()
    experiment_distance(n=11, trials=3, mode="search", effort=5)
    assert calls == []


def test_experiment_search_weight_and_length_limits():
    with pytest.raises(ValueError, match="nonnegative"):
        experiment_distance(n=13, trials=2, mode="search", search_weight=-3)
    _, summary = experiment_distance(n=13, trials=2, mode="search",
                                     search_weight=0, effort=1)
    assert summary["none_found"] == 2
    with pytest.raises(BudgetExceededError, match="search mode"):
        experiment_distance(n=SEARCH_MAX_N + 1, trials=1, mode="search")
    with pytest.raises(ValueError, match="search-mode"):
        experiment_distance(n=9, trials=2, search_weight=5)


def test_experiment_vacuous_and_exhaustive_flags():
    records, summary = experiment_distance(n=9, trials=0, seed=0)
    assert records == [] and summary["vacuous"]

    records, summary = experiment_distance(p=13, exhaustive=True)
    assert len(records) == 1 << 13
    assert summary["exhaustive"] and summary["prob_bound_holds"]
    assert Fraction(summary["empirical_le_threshold"]) == Fraction(153, 1024)
    assert Fraction(summary["prob_bound"]) == Fraction(35802, 106496)


def test_exhaustive_records_match_the_engine_on_every_column():
    for n in range(1, 11):
        records, summary = experiment_distance(n=n, exhaustive=True)
        assert [r.trial for r in records] == list(range(1 << n))
        assert summary["completed"] == summary["trials"] == 1 << n
        for rec in records:
            assert rec.seed == 0 and rec.exact
            assert int(rec.a_hex, 16) == rec.trial
            code = DoubleCirculantCode(n, BitVec(rec.trial, n))
            assert rec.d_found == min_distance_exact(code).value


def test_small_experiment_starts_no_pool(monkeypatch):
    # 24 trials at n = 11 take a few ms, far below the cost of a pool
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise RuntimeError("a pool was started")

    serial = experiment_distance(n=11, trials=24, seed=4)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert experiment_distance(n=11, trials=24, seed=4, workers=3) == serial
    # the same run does reach the pool once trials have no time in process
    monkeypatch.setattr(verify, "_POOL_START_S", 0)
    with pytest.raises(RuntimeError, match="pool was started"):
        experiment_distance(n=11, trials=24, seed=4, workers=3)


def test_exhaustive_ignores_workers_and_budget():
    serial = experiment_distance(p=13, exhaustive=True)
    scheduled = experiment_distance(p=13, exhaustive=True, workers=3,
                                    max_seconds=0)
    assert scheduled == serial
    assert not scheduled[1]["truncated"]
    assert scheduled[1]["completed"] == 1 << 13


def test_level_audit_guards():
    # at m = 0 the level sum is empty, so an unchecked call would compare
    # Pr[d <= w] = 1 at n = 1 against 0 and report a false violation; a
    # negative trial count is refused on the exact path (n = 9) too
    for p, m, trials in ((5, 0, 10), (5, -1, 10), (0, 1, 10), (9, 1, 10),
                         (5, 2, -3), (3, 2, -3)):
        with pytest.raises(ValueError):
            verify_triplesum(p, m, 3, trials=trials)
        with pytest.raises(ValueError):
            verify_triplesum_sweep(p, m, trials=trials)


def test_level_audits_check_the_engine_ceiling_before_any_bound(monkeypatch):
    class BoundComputed(Exception):
        pass

    def bound(*args):
        raise BoundComputed

    monkeypatch.setattr(verify, "triple_sum_value", bound)
    for audit in (partial(verify_triplesum, w=3, trials=5),
                  partial(verify_triplesum_sweep, trials=5)):
        # n = 13 is exact and n = 49 fits the engine: both reach the bound
        for p, m in ((13, 1), (7, 2)):
            with pytest.raises(BoundComputed):
                audit(p, m)
        for p, m in ((11, 2), (5, 3), (3, 4)):
            with pytest.raises(BudgetExceededError, match=f"not n = {p**m}"):
                audit(p, m)
        # a bad p or m is a usage error first, at any n
        with pytest.raises(ValueError):
            audit(9, 3)


@pytest.mark.parametrize("table_max_n", [9, 8])
def test_level_audit_is_exact_up_to_the_table_and_sampled_past_it(
        monkeypatch, table_max_n):
    # n = 9 at the table's edge is exact, one past it sampled: both entry
    # points take the same side, and a single weight's report is the
    # sweep's row for that weight
    monkeypatch.setattr(verify, "TABLE_MAX_N", table_max_n)
    exact = table_max_n == 9
    sampled = {"trials": 50, "seed": 4}
    sweep = verify_triplesum_sweep(3, 2, trials=50, seed=4)
    assert len(sweep) == (18 if exact else 3)
    for r in sweep:
        assert r.status == (VERIFIED_EXACT if exact else INFORMATIVE)
        assert (sampled.items() <= r.parameters.items()) != exact
        assert verify_triplesum(3, 2, r.parameters["w"], trials=50,
                                seed=4) == r


def test_level_audits_reject_a_negative_weight(monkeypatch):
    # n = 9 takes the exact path, n = 25 the sampled one, which fails
    # before it samples a column
    def no_sampling(*args):
        raise AssertionError("columns were sampled")

    monkeypatch.setattr(verify, "_sample_trials", no_sampling)
    for p, m in ((3, 2), (5, 2)):
        with pytest.raises(ValueError, match="w must be nonnegative"):
            verify_triplesum(p, m, -1, trials=5)


def test_enumeration_rejects_n_below_the_floor():
    for n in (1, 100, verify.CONSTANTS.n_floor - 1):
        with pytest.raises(ValueError, match="n_floor"):
            verify.verify_enumeration(n)


def test_experiment_search_mode():
    records, summary = experiment_distance(
        n=33, trials=6, seed=2, mode="search", search_weight=8, effort=60
    )
    assert summary["completed"] == 6
    for rec in records:
        assert not rec.exact
        if rec.d_found is not None:
            assert 1 <= rec.d_found <= 8
    assert summary["none_found"] + sum(summary["histogram"].values()) == 6


def test_experiment_guards():
    with pytest.raises(BudgetExceededError):
        experiment_distance(n=29, trials=1, seed=0, mode="exact")
    with pytest.raises(BudgetExceededError):
        experiment_distance(n=TABLE_MAX_N + 1, exhaustive=True)
    with pytest.raises(ValueError):
        experiment_distance(n=None, p=None)
    # n or p^m, not both, with p an odd prime; m only with p, and at
    # least 1; effort only in search mode
    for bad in ({"n": 9, "p": 3}, {"n": 9, "m": 2}, {"p": 13, "m": 0},
                {"n": 9, "effort": 5}):
        with pytest.raises(ValueError):
            experiment_distance(trials=1, **bad)
    for p, m in ((-3, 2), (1, 3), (9, None), (2, None)):
        with pytest.raises(ValueError, match="need an odd prime p"):
            experiment_distance(p=p, m=m, trials=1)
    with pytest.raises(ValueError):
        experiment_distance(n=13, mode="search", effort=0)
    with pytest.raises(ValueError):
        experiment_distance(n=9, trials=-5)
    with pytest.raises(ValueError):
        experiment_distance(n=9, exhaustive=True, mode="search")
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers"):
            experiment_distance(n=9, trials=8, workers=workers)
    # a NaN or negative budget means nothing; a zero budget is kept
    for budget in (math.nan, -1, -math.inf):
        with pytest.raises(ValueError, match="max_seconds"):
            experiment_distance(n=9, trials=5, max_seconds=budget)
    assert experiment_distance(n=9, trials=5, max_seconds=0)[1]["truncated"]


def test_experiment_truncation_budget():
    t0 = time.monotonic()
    records, summary = experiment_distance(
        n=25, trials=100_000, seed=0, max_seconds=0.5
    )
    elapsed = time.monotonic() - t0
    assert elapsed <= 5 * 0.5 + 2
    assert summary["truncated"]
    assert summary["completed"] < 100_000
    assert len(records) == summary["completed"]
    # completed prefix is still the deterministic prefix
    if records:
        assert records[0].seed == trial_seed(0, 0)


def test_experiment_search_truncation_budget():
    # a search trial at n = 61 costs about 10 ms, so 64-trial blocks
    # could overrun the budget: the deadline has to be checked between
    # trials, not between blocks
    t0 = time.monotonic()
    records, summary = experiment_distance(
        n=61, mode="search", trials=1000, seed=0, max_seconds=0.5
    )
    elapsed = time.monotonic() - t0
    assert elapsed <= 5 * 0.5 + 2
    assert summary["truncated"]
    assert len(records) == summary["completed"] < 1000
    full, _ = experiment_distance(n=61, mode="search", seed=0,
                                  trials=len(records))
    assert records == full


def test_experiment_pool_budget_keeps_prefix(monkeypatch):
    # no trial runs in process first, so the pool takes them all
    monkeypatch.setattr(verify, "_POOL_START_S", 0)
    records, summary = experiment_distance(
        n=13, trials=200, seed=6, workers=2, max_seconds=0
    )
    assert summary["truncated"]
    assert summary["completed"] < summary["trials"] == 200
    assert len(records) == summary["completed"]
    full, _ = experiment_distance(n=13, trials=200, seed=6)
    assert records == full[:len(records)]


# the test process, and the first trial of the pool job to cut short; a
# forked pool worker inherits both
_POOL_JOBS = {"parent": None, "short": None}
_RUN_TRIALS = verify._run_trials


def _checked_pool_job(n, master_seed, mode, search_weight, effort, indices,
                      stop):
    """verify._run_trials that, in a pool worker, fails on a job of more
    than _TRIAL_BLOCK trials, and returns 5 trials of the job that starts
    at _POOL_JOBS["short"]."""
    rows = _RUN_TRIALS(n, master_seed, mode, search_weight, effort, indices,
                       stop)
    if os.getpid() != _POOL_JOBS["parent"]:
        assert len(indices) <= verify._TRIAL_BLOCK, len(indices)
        if indices[0] == _POOL_JOBS["short"]:
            rows = rows[:5]
    return rows


def test_experiment_pool_budget_caps_jobs_and_stops_at_a_short_one(
        monkeypatch):
    # no trial runs in process first, so the pool takes all 200; the budget
    # is never reached, but it still cuts the jobs to _TRIAL_BLOCK trials
    monkeypatch.setattr(verify, "_POOL_START_S", 0)
    monkeypatch.setattr(verify, "_run_trials", _checked_pool_job)
    monkeypatch.setitem(_POOL_JOBS, "parent", os.getpid())
    serial, _ = experiment_distance(n=9, trials=200, seed=4)
    records, summary = experiment_distance(n=9, trials=200, seed=4,
                                           workers=2, max_seconds=3600)
    assert records == serial and not summary["truncated"]
    # the jobs start at 0, 64, 128 and 192: the one at 64 comes back short,
    # and the records end with it
    monkeypatch.setitem(_POOL_JOBS, "short", verify._TRIAL_BLOCK)
    records, summary = experiment_distance(n=9, trials=200, seed=4,
                                           workers=2, max_seconds=3600)
    assert records == serial[:verify._TRIAL_BLOCK + 5]
    assert summary["truncated"]
    assert summary["completed"] == verify._TRIAL_BLOCK + 5


def test_lemma_report_ok_semantics():
    good = LemmaReport("x", {}, VERIFIED_EXACT, 0, 1)
    info = LemmaReport("x", {}, INFORMATIVE, 0, 1)
    bad = LemmaReport("x", {}, VIOLATED, 2, 1)
    numeric = LemmaReport("x", {}, VERIFIED_NUMERIC, 0, 1)
    assert good.ok() and info.ok() and numeric.ok()
    assert not bad.ok()
