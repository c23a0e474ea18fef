"""Acceptance gate: one test per criterion, one printed verdict line each.

Every test computes its criterion at the stated tolerance, prints
"criterion k: PASS/FAIL - detail" on the real terminal, then asserts.
"""

import json
import math
import os
import time
from fractions import Fraction

from gvdc.bounds import (CONSTANTS, ball_nonzero, class_sum_bound,
                         enumeration_margin, level_series_bound,
                         max_weight_tail_exponent, overhead_exponent_cap,
                         stirling_lower)
from gvdc.cli import main as cli_main
from gvdc.codes import divisor_codes
from gvdc.gf2poly import factorize, kasami_factors, mul_raw, ring_modulus
from gvdc.numbertheory import is_prime, kasami_check, next_kasami_prime
from gvdc.spectrum import macwilliams_transform, weight_distribution
from gvdc.verify import (VERIFIED_EXACT, dc_distance_table,
                         expected_count_bruteforce, expected_count_exact,
                         verify_c2_and_series, verify_enumeration,
                         verify_kappa_numerics, verify_lemma_cx,
                         verify_orbit_bound, verify_repetition,
                         verify_triplesum_sweep)


def _report(capsys, k, ok, detail):
    line = f"criterion {k}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_01_suitable_prime_scan(capsys):
    t0 = time.time()
    p = next_kasami_prime(2744)
    r = kasami_check(p)
    elapsed = time.time() - t0
    ok = (p == 2789 and r.is_prime and r.primitive and r.wieferich_ok
          and r.kasami and elapsed < 60)
    _report(capsys, 1, ok,
            f"next suitable prime from 2744 is {p}, order of 2 is "
            f"{r.order_of_2}, both conditions hold ({elapsed:.2f}s)")


def test_criterion_02_factorization(capsys):
    t0 = time.time()
    ok = True
    for n in (3, 5, 9, 13, 25, 27):
        fact = factorize(n)
        prod = 1
        for g in fact.factors:
            prod = mul_raw(prod, g)
        ok &= prod == ring_modulus(n)
    for p, m in ((3, 1), (5, 1), (3, 2), (13, 1), (5, 2), (3, 3)):
        ok &= set(kasami_factors(p, m).factors) == \
            set(factorize(p**m).factors)
    elapsed = time.time() - t0
    ok &= elapsed < 60
    _report(capsys, 2, ok,
            "factor products bit-exact for n in {3,5,9,13,25,27} and the "
            f"closed-form prime-power family matches ({elapsed:.2f}s)")


def test_criterion_03_membership_uniformity(capsys):
    t0 = time.time()
    reports = [verify_lemma_cx(n) for n in (3, 5, 7, 9)]
    elapsed = time.time() - t0
    ok = all(r.status == VERIFIED_EXACT for r in reports) and elapsed < 300
    _report(capsys, 3, ok,
            "membership probability is exactly 1/|C(x_R)| with uniform "
            "multiplicity for every word at n in {3,5,7,9} "
            f"({elapsed:.2f}s)")


def test_criterion_04_expected_count_oracle(capsys):
    t0 = time.time()
    checked, ok = 0, True
    for n in (3, 5, 7, 9):
        for w in range(0, 2 * n + 1):
            ok &= expected_count_exact(n, w) == expected_count_bruteforce(n, w)
            checked += 1
    elapsed = time.time() - t0
    ok &= elapsed < 600
    _report(capsys, 4, ok,
            f"lattice census formula equals brute force on {checked} exact "
            f"rational values, n in {{3,5,7,9}}, all w ({elapsed:.2f}s)")


def test_criterion_05_orbit_and_level_bounds(capsys):
    t0 = time.time()
    ok, exact_checks = True, 0
    for n in (9, 13):
        for w in range(1, 2 * n + 1):
            r = verify_orbit_bound(n, w)
            ok &= r.status == VERIFIED_EXACT
            ok &= Fraction(r.lhs) <= Fraction(r.rhs)
            exact_checks += 1
    for p, m in ((3, 2), (13, 1)):
        for r in verify_triplesum_sweep(p, m):
            ok &= r.status == VERIFIED_EXACT
            ok &= Fraction(r.lhs) <= Fraction(r.rhs)
            exact_checks += 1
    mc_checks = 0
    for p, m in ((5, 2), (3, 3)):
        reports = verify_triplesum_sweep(p, m, trials=10_000, seed=0)
        ok &= bool(reports)
        for r in reports:
            bound = float(Fraction(r.rhs))
            ok &= bound < 0.9
            ok &= float(r.lhs) < bound
            mc_checks += 1
    elapsed = time.time() - t0
    ok &= elapsed < 1800
    _report(capsys, 5, ok,
            f"{exact_checks} exact bound comparisons at n in {{9,13}} plus "
            f"{mc_checks} Monte Carlo Wilson 99% upper edges below every "
            f"discriminating bound at n in {{25,27}} ({elapsed:.1f}s)")


def test_criterion_06_exhaustive_prime_instance(capsys):
    t0 = time.time()
    table = dc_distance_table(13)
    share = Fraction(sum(1 for d in table if d <= 4), len(table))
    cap = Fraction(35802, 106496)
    ball = ball_nonzero(26, 4)
    elapsed = time.time() - t0
    ok = (len(table) == 1 << 13 and share == Fraction(153, 1024)
          and share <= cap and max(table) >= 5 and ball == 17901
          and elapsed < 900)
    _report(capsys, 6, ok,
            f"all 8192 codes at p=13: share with d <= 4 is {share} <= "
            f"{cap} = 2*{ball}/(13*2^13), and distances reach "
            f"{max(table)} ({elapsed:.1f}s)")


def test_criterion_07_syndrome_count_cap(capsys):
    t0 = time.time()
    r = verify_repetition()
    elapsed = time.time() - t0
    ok = (r.ok() and "(1, 2, 1, 1)" in r.notes and elapsed < 600)
    _report(capsys, 7, ok,
            "syndrome counts stay under the cap for every (r,t) with "
            f"tr <= 18, all weights and syndromes; {r.notes} "
            f"({elapsed:.1f}s)")


def test_criterion_08_tail_exponent_numerics(capsys):
    t0 = time.time()
    primes, q = [], 14**3
    while len(primes) < 10:
        if is_prime(q):
            primes.append(q)
        q += 1
    ok = primes == [2749, 2753, 2767, 2777, 2789, 2791, 2797, 2801,
                    2803, 2819]
    ok &= all(float(overhead_exponent_cap(p)) < 0.152 for p in primes)
    f_val, _, gap = max_weight_tail_exponent(CONSTANTS.kappa)
    ok &= float(f_val) <= 0.24
    ok &= 0 <= float(gap) < 1e-7
    ok &= 0.152 + 0.24 <= 0.4
    ok &= verify_kappa_numerics().ok()
    elapsed = time.time() - t0
    ok &= elapsed < 60
    _report(capsys, 8, ok,
            f"overhead exponent < 0.152 for the first 10 primes >= 2744, "
            f"tail maximum {float(f_val):.10f} <= 0.24 with refinement gap "
            f"{float(gap):.2e} < 1e-7, and 0.152+0.24 <= 0.4 "
            f"({elapsed:.2f}s)")


def test_criterion_09_enumeration_inequality(capsys):
    t0 = time.time()
    r = verify_enumeration()
    margin = enumeration_margin(2744)
    elapsed = time.time() - t0
    ok = (r.status == VERIFIED_EXACT and r.parameters["n"] == 2744
          and r.parameters["grid"] == 25
          and float(margin) >= float(Fraction(1, 250)) and elapsed < 600)
    _report(capsys, 9, ok,
            "exact big-integer inequality holds at n=2744 on all 25 grid "
            f"points in [0.100, 0.124] and the analytic margin "
            f"{float(margin):.6f} >= 0.004 ({elapsed:.1f}s)")


def test_criterion_10_constant_chain(capsys):
    t0 = time.time()
    c2 = float(class_sum_bound(2789))
    series = float(level_series_bound(2789, 3))
    chain = Fraction(23, 100) * Fraction(43, 10) + 2 * Fraction(43, 10) / 2789
    ok = (c2 <= 4.3 + 1e-12 and series <= 2 / 2789 + 1e-12
          and chain < 1 and verify_c2_and_series().ok())
    elapsed = time.time() - t0
    ok &= elapsed < 60
    _report(capsys, 10, ok,
            f"class sum {c2:.10f} <= 4.3, level series {series:.3e} <= 2/p, "
            f"and the chain 0.23*4.3 + 2*4.3/2789 = {float(chain):.12f} < 1 "
            f"({elapsed:.2f}s)")


def test_criterion_11_binomial_lower_bound(capsys):
    t0 = time.time()
    checked, ok = 0, True
    for n in range(2, 201):
        for w in range(1, n):
            ok &= stirling_lower(n, w) <= math.comb(n, w)
            checked += 1
    elapsed = time.time() - t0
    ok &= elapsed < 120
    _report(capsys, 11, ok,
            f"factorial-form lower bound never exceeds the binomial on all "
            f"{checked} pairs with n <= 200 ({elapsed:.1f}s)")


def test_criterion_12_dual_transform(capsys):
    t0 = time.time()
    checked, ok = 0, True
    for n in range(1, 16, 2):
        for code in divisor_codes(n):
            wd = weight_distribution(code)
            once = macwilliams_transform(wd, dim=code.dim)
            ok &= once.counts == weight_distribution(code.dual()).counts
            back = macwilliams_transform(once, dim=n - code.dim)
            ok &= back.counts == wd.counts
            checked += 1
    elapsed = time.time() - t0
    ok &= elapsed < 600
    _report(capsys, 12, ok,
            f"transform equals the dual's direct spectrum and is an "
            f"involution for all {checked} cyclic codes of odd length "
            f"<= 15 ({elapsed:.1f}s)")


def test_criterion_13_worker_determinism(capsys, tmp_path, monkeypatch):
    # no trial runs in process first, so the pool takes them all
    monkeypatch.setattr("gvdc.verify._POOL_START_S", 0)
    t0 = time.time()
    argv = ["experiment", "--n", "13", "--trials", "40", "--seed", "0",
            "--out", "runs.csv", "--summary", "summary.json"]
    blobs = {}
    here = os.getcwd()
    for workers in (1, 3):
        d = tmp_path / f"w{workers}"
        d.mkdir()
        try:
            os.chdir(d)
            code = cli_main(argv + ["--workers", str(workers)])
            assert code == 0
            cli_main(["plot", "--records", "runs.csv",
                      "--kind", "histogram", "--out", "hist.svg"])
        finally:
            os.chdir(here)
        blobs[workers] = tuple(
            (d / name).read_bytes()
            for name in ("runs.csv", "summary.json", "hist.svg")
        )
    same = blobs[1] == blobs[3]
    rerun = json.loads((tmp_path / "w1" / "summary.json").read_text())
    elapsed = time.time() - t0
    ok = same and rerun["seed"] == 0 and elapsed < 600
    _report(capsys, 13, ok,
            "records CSV, summary JSON, and rendered SVG are byte-identical "
            f"across worker counts 1 and 3 ({elapsed:.1f}s)")
