"""The audit engine: exact oracles, lemma reports, and experiments."""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from gvdc.codes import BitVec, DoubleCirculantCode, dc_contains, dc_sample
from gvdc.spectrum import min_distance_exact
from gvdc.verify import (INFORMATIVE, VERIFIED_EXACT, VERIFIED_NUMERIC,
                         VIOLATED, LemmaReport, dc_distance_table,
                         expected_count_bruteforce, expected_count_exact,
                         experiment_distance, orbit_bound_value,
                         prob_positive_bruteforce, triple_sum_value,
                         trial_seed, verify_lemma_cx, verify_orbit_bound,
                         verify_triplesum, verify_triplesum_sweep,
                         wilson_upper)


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


def test_prob_positive_versus_expectation():
    # first-moment bound: Pr[X > 0] <= E[X]
    for n in (3, 5, 7):
        for w in range(1, 2 * n + 1):
            assert prob_positive_bruteforce(n, w) <= expected_count_exact(n, w)


def test_orbit_bound_value_is_orbit_weighted_expectation():
    from gvdc.codes import canonical_rep, membership_probability, orbit_length

    for n in (3, 5, 7, 9):
        for w in (1, 2, 3, 2 * n):
            direct = Fraction(0)
            seen = set()
            for bits in range(1, 1 << (2 * n)):
                x = BitVec(bits, 2 * n)
                if x.weight() > w:
                    continue
                rep = canonical_rep(x)
                if rep.bits in seen:
                    continue
                seen.add(rep.bits)
                direct += membership_probability(rep)
            # shift invariance makes the orbit-weighted sum over all words
            # equal the plain sum over representatives
            assert orbit_bound_value(n, w) == direct


def test_orbit_bound_dominates_truth_and_reports():
    for n, w in ((3, 2), (5, 3), (9, 2), (9, 4)):
        r = verify_orbit_bound(n, w)
        assert r.status == VERIFIED_EXACT
        assert Fraction(r.lhs) <= Fraction(r.rhs)
        assert prob_positive_bruteforce(n, w) == Fraction(r.lhs)


def test_triple_sum_value_hand_case():
    assert triple_sum_value(13, 1, 4) == Fraction(8311, 26624)
    # prime case reduces to a single level
    assert triple_sum_value(13, 1, 0) >= 0


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
        assert (r.lhs, r.rhs, r.notes, r.parameters) == \
            (s.lhs, s.rhs, s.notes, s.parameters)
    loose = verify_triplesum(5, 2, 8, trials=300, seed=2)
    assert float(Fraction(loose.rhs)) >= 0.9 and 8 not in sweep
    assert loose.status == INFORMATIVE
    assert loose.notes == "bound is above 0.9 here and not discriminating"


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


def test_distance_table_spot_checks_against_exact():
    table = dc_distance_table(13)
    for a in (0, 1, 0b1011, 0x1fff, 0x1234):
        code = DoubleCirculantCode(13, BitVec(a, 13))
        assert table[a] == min_distance_exact(code).value


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


def test_experiment_seed_and_worker_invariance():
    base_records, base_summary = experiment_distance(n=11, trials=24, seed=4)
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


def test_experiment_vacuous_and_exhaustive_flags():
    records, summary = experiment_distance(n=9, trials=0, seed=0)
    assert records == [] and summary["vacuous"]

    records, summary = experiment_distance(p=13, exhaustive=True)
    assert len(records) == 1 << 13
    assert summary["exhaustive"] and summary["prob_bound_holds"]
    assert Fraction(summary["empirical_le_threshold"]) == Fraction(153, 1024)
    assert Fraction(summary["prob_bound"]) == Fraction(35802, 106496)


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
    from gvdc.gf2poly import BudgetExceededError

    with pytest.raises(BudgetExceededError):
        experiment_distance(n=29, trials=1, seed=0, mode="exact")
    with pytest.raises(BudgetExceededError):
        experiment_distance(n=17, exhaustive=True)
    with pytest.raises(ValueError):
        experiment_distance(n=None, p=None)


def test_experiment_truncation_budget():
    records, summary = experiment_distance(
        n=25, trials=100_000, seed=0, max_seconds=0.5
    )
    assert summary["truncated"]
    assert summary["completed"] < 100_000
    assert len(records) == summary["completed"]
    # completed prefix is still the deterministic prefix
    if records:
        assert records[0].seed == trial_seed(0, 0)


def test_experiment_pool_budget_keeps_prefix():
    records, summary = experiment_distance(
        n=13, trials=200, seed=6, workers=2, max_seconds=0
    )
    assert summary["truncated"]
    assert summary["completed"] < summary["trials"] == 200
    assert len(records) == summary["completed"]
    full, _ = experiment_distance(n=13, trials=200, seed=6)
    assert records == full[:len(records)]


def test_lemma_report_ok_semantics():
    good = LemmaReport("x", {}, VERIFIED_EXACT, 0, 1)
    info = LemmaReport("x", {}, INFORMATIVE, 0, 1)
    bad = LemmaReport("x", {}, VIOLATED, 2, 1)
    numeric = LemmaReport("x", {}, VERIFIED_NUMERIC, 0, 1)
    assert good.ok() and info.ok() and numeric.ok()
    assert not bad.ok()
