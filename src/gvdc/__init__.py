"""Random double circulant codes: exact GF(2) machinery, weight spectrum
tools, the analytic bound chain showing they beat the volume-argument
distance guarantee by a constant factor, and audits for every inequality
that the argument leans on."""

from .bounds import (CONSTANTS, ProofConstants, ball_nonzero, gv_guarantee,
                     main_threshold, simple_prob_bound, simple_threshold,
                     stirling_lower, volume)
from .codes import (BitVec, CyclicCode, DoubleCirculantCode, canonical_rep,
                    cyclic_contains, cyclic_from_vector, dc_contains,
                    dc_sample, divisor_codes, membership_probability,
                    nonrepetition_codes, orbit_length, shift_action)
from .gf2poly import (BudgetExceededError, Factorization, Poly,
                      cyclotomic_cosets, factorize, kasami_factors,
                      poly_from_str, poly_to_str, repetition_poly,
                      ring_modulus)
from .numbertheory import (KasamiReport, is_prime, kasami_check, mult_order,
                           next_kasami_prime)
from .spectrum import (DistanceResult, WeightDistribution,
                       dc_weight_distribution, low_weight_search,
                       macwilliams_transform, min_distance_exact,
                       weight_distribution)
from .verify import (ExperimentRecord, LemmaReport, expected_count_bruteforce,
                     expected_count_exact, experiment_distance,
                     orbit_bound_value, prob_positive_bruteforce,
                     triple_sum_value, verify_c2_and_series,
                     verify_distrib_inequality, verify_enumeration,
                     verify_kappa_numerics, verify_lemma_cx,
                     verify_orbit_bound, verify_repetition, verify_triplesum,
                     wilson_upper)

__version__ = "0.1.0"

__all__ = [
    "BitVec", "BudgetExceededError", "CONSTANTS", "CyclicCode",
    "DistanceResult", "DoubleCirculantCode", "ExperimentRecord",
    "Factorization", "KasamiReport", "LemmaReport", "Poly", "ProofConstants",
    "WeightDistribution", "ball_nonzero", "canonical_rep", "cyclic_contains",
    "cyclic_from_vector", "cyclotomic_cosets", "dc_contains", "dc_sample",
    "dc_weight_distribution", "divisor_codes", "expected_count_bruteforce",
    "expected_count_exact", "experiment_distance", "factorize",
    "gv_guarantee", "is_prime", "kasami_check", "kasami_factors",
    "low_weight_search", "macwilliams_transform", "main_threshold",
    "membership_probability", "min_distance_exact", "mult_order",
    "next_kasami_prime", "nonrepetition_codes", "orbit_bound_value",
    "orbit_length", "poly_from_str", "poly_to_str",
    "prob_positive_bruteforce", "repetition_poly", "ring_modulus",
    "shift_action", "simple_prob_bound", "simple_threshold", "stirling_lower",
    "triple_sum_value", "verify_c2_and_series", "verify_distrib_inequality",
    "verify_enumeration", "verify_kappa_numerics", "verify_lemma_cx",
    "verify_orbit_bound", "verify_repetition", "verify_triplesum", "volume",
    "weight_distribution", "wilson_upper",
]
