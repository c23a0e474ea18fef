"""Volume bounds, distance thresholds, and the analytic constant chain."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from gvdc.bounds import (CONSTANTS, ProofConstants, _entropy_mp, _kl_mp,
                         ball_nonzero, ball_rate_ok, class_sum_bound,
                         enumeration_margin, gv_guarantee,
                         level_series_bound, main_threshold,
                         max_weight_tail_exponent, overhead_exponent_cap,
                         repetition_bound, simple_prob_bound,
                         simple_threshold, stirling_lower, volume,
                         weight_tail_exponent)


def test_volume_is_partial_binomial_sum():
    assert volume(13, 4) == sum(math.comb(13, i) for i in range(5))
    assert volume(13, 0) == 1
    assert volume(13, 13) == 2**13
    with pytest.raises(ValueError):
        volume(5, 7)  # radius beyond the length is rejected


def test_ball_nonzero_values():
    assert ball_nonzero(26, 4) == 17901
    assert ball_nonzero(26, 4) == volume(26, 4) - 1
    assert ball_nonzero(6, 1) == 6


def test_gv_guarantee_values_and_meaning():
    assert gv_guarantee(13) == 4
    assert gv_guarantee(25) == 7
    assert gv_guarantee(27) == 7
    # largest d with |nonzero ball of radius d-1 in F_2^(2n)| < 2^n
    for n in (5, 9, 13, 21, 30):
        d = gv_guarantee(n)
        assert ball_nonzero(2 * n, d - 1) < 2**n
        assert ball_nonzero(2 * n, d) >= 2**n


def test_gv_guarantee_is_monotone():
    values = [gv_guarantee(n) for n in range(2, 160)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_simple_threshold_values_and_domain():
    assert simple_threshold(13) == 4
    assert simple_threshold(5) == 2
    for bad in (7, 9, 15):  # composite or 2 not primitive
        with pytest.raises(ValueError):
            simple_threshold(bad)


def test_simple_prob_bound_values():
    assert simple_prob_bound(13, 4) == Fraction(1377, 4096)
    assert Fraction(1377, 4096) == Fraction(35802, 106496)
    assert simple_prob_bound(13, 4) == \
        Fraction(2 * ball_nonzero(26, 4), 13 * 2**13)
    assert simple_prob_bound(13, 0) == 0
    with pytest.raises(ValueError):
        simple_prob_bound(9, 2)


def test_main_threshold_values():
    assert main_threshold(2789, b=0.23) == 618
    assert main_threshold(13) == 4
    # default fraction comes from the constant pool
    assert main_threshold(2789) == main_threshold(2789, b=0.23)
    # defining property: largest w whose nonzero ball fits under b n 2^n
    cap = Fraction(23, 100) * 2789 * 2**2789
    assert ball_nonzero(2 * 2789, 618) <= cap
    assert ball_nonzero(2 * 2789, 619) > cap


def test_entropy_and_kl():
    assert abs(_entropy_mp(mpf("0.5")) - 1) < mpf("1e-35")
    assert _entropy_mp(mpf(0)) == 0 and _entropy_mp(mpf(1)) == 0
    assert abs(_entropy_mp(mpf("0.1")) - 0.4689955935892812) < 1e-15
    symmetric = _entropy_mp(mpf("0.11")) - _entropy_mp(mpf("0.89"))
    assert abs(symmetric) < mpf("1e-35")
    assert _kl_mp(mpf("0.5"), mpf("0.5")) == 0
    assert _kl_mp(mpf("0.3"), mpf("0.5")) > 0


def test_stirling_lower_bounds_binomials():
    for n in (10, 50, 137, 200):
        for w in range(1, n):
            assert stirling_lower(n, w) <= math.comb(n, w)
    # and it is reasonably tight
    assert stirling_lower(200, 100) > math.comb(200, 100) * 0.05


def test_repetition_bound_values():
    assert repetition_bound(1, 2, 1) == 2.0
    # counts of low-weight multiples never exceed the cap on small cases
    assert repetition_bound(2, 2, 3) >= 1


def test_weight_tail_exponent_cap():
    full, grid_max, gap = max_weight_tail_exponent(
        CONSTANTS.kappa, copies=CONSTANTS.copies, detail=True
    )
    assert float(full) <= CONSTANTS.f_cap
    assert 0 <= float(gap) < 1e-7
    assert abs(float(full) - 0.23139563672103543) < 1e-12
    # single-point evaluations stay below the maximized value
    for alpha in (0.0, 0.01, 0.03, 0.05, 0.07):
        assert weight_tail_exponent(alpha, CONSTANTS.kappa) <= full + 1e-30
    with pytest.raises(ValueError):
        weight_tail_exponent(0.2, CONSTANTS.kappa)  # alpha beyond iota


def test_overhead_exponent_cap_first_primes():
    from gvdc.numbertheory import is_prime

    primes, q = [], 14**3
    while len(primes) < 10:
        if is_prime(q):
            primes.append(q)
        q += 1
    assert primes[0] == 2749 and primes[4] == 2789
    for p in primes:
        assert float(overhead_exponent_cap(p)) < CONSTANTS.beta_cap
    assert abs(float(overhead_exponent_cap(2789)) - 0.15083323700719557) < 1e-12


def test_class_sum_and_series_chain():
    assert float(class_sum_bound(2789)) <= CONSTANTS.class_sum_cap + 1e-12
    assert float(level_series_bound(2789, 3)) <= 2 / 2789
    chain = Fraction(23, 100) * Fraction(43, 10) + \
        2 * Fraction(43, 10) / 2789
    assert chain < 1
    assert abs(float(chain) - 0.992083542488) < 1e-10


def test_enumeration_margin_value():
    margin = enumeration_margin(2744)
    assert float(margin) >= float(CONSTANTS.epsilon)
    assert abs(float(margin) - 0.004222951135396771) < 1e-12


def test_ball_rate_ok():
    assert ball_rate_ok(2744)
    assert ball_rate_ok(5000)


def test_constants_are_frozen():
    c = CONSTANTS
    assert c.prime_floor == 14**3 == 2744
    assert c.omega_floor == Fraction(1, 10)
    assert c.kappa == Fraction(7, 100)
    assert c.copies == 14
    assert c.decay_log2 == Fraction(-1, 5)
    assert c.scale_log2 == Fraction(6, 5)
    # decay and scale combine to the factor 2 used by the level recursion
    assert 2 ** float(c.scale_log2 + c.decay_log2) == 2.0
    assert c.class_sum_cap == 4.3
    assert c.ball_fraction == Fraction(23, 100)
    assert c.epsilon == Fraction(1, 250)
    assert c.beta_cap == 0.152 and c.f_cap == 0.24
    assert c.beta_cap + c.f_cap <= 0.4
    assert c.weight_exponent == Fraction(3, 5)
    with pytest.raises(AttributeError):
        c.copies = 15  # frozen dataclass


def test_custom_constants_flow_through():
    loose = ProofConstants(ball_fraction=Fraction(1, 10))
    w = main_threshold(100, b=float(loose.ball_fraction))
    cap = Fraction(1, 10) * 100 * 2**100
    assert ball_nonzero(200, w) <= cap < ball_nonzero(200, w + 1)
    assert w <= main_threshold(100, b=0.23) < main_threshold(100, b=10**9)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 400), st.data())
def test_volume_bounds_by_powers(n, data):
    d = data.draw(st.integers(0, n))
    v = volume(n, d)
    assert 1 <= v <= 2**n
    if d >= 1:
        assert v > volume(n, d - 1)
