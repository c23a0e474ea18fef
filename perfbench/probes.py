"""Layer probes: timed direct calls into each gvdc module's public
functions, on the inputs the benchmark workloads feed the CLI.

Each subcommand runs in a fresh interpreter started by run.py and prints
one JSON object as its last line.  Costs that every run of the program
pays (import, table builds) are taken cold, as the first call in the
process; everything else is warm and repeated, reporting the median.

    PYTHONPATH=src python3 perfbench/probes.py warm --seed 1

Sizes come from run.py's workload table, so a probe sees the same columns
as the workload it stands for.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time

clock = time.perf_counter


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed(fn, *args, **kwargs) -> float:
    t0 = clock()
    fn(*args, **kwargs)
    return clock() - t0


def per_call(fn, inputs: list, batches: int = 5) -> float:
    """Median over batches of the mean time of one call, in seconds."""
    out = []
    for _ in range(batches):
        t0 = clock()
        for x in inputs:
            fn(*x)
        out.append((clock() - t0) / len(inputs))
    return statistics.median(out)


def median_time(fn, reps: int, *args, **kwargs) -> float:
    return statistics.median(timed(fn, *args, **kwargs) for _ in range(reps))


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, count) of the highest percentile that still has
    at least ten samples beyond it."""
    s = sorted(samples)
    if len(s) < 11:
        raise ValueError(f"need at least 11 samples for a tail, got {len(s)}")
    k = len(s) - 11
    return s[k], 100.0 * (k + 1) / len(s), len(s)


def _import_s() -> float:
    t0 = clock()
    import gvdc.cli  # noqa: F401
    return clock() - t0


def search_trial(n: int, seed: int, i: int):
    """Arguments of trial i of a search-mode experiment at n."""
    from gvdc.bounds import gv_guarantee
    from gvdc.codes import dc_sample
    from gvdc.verify import trial_seed
    tseed = trial_seed(seed, i)
    return dc_sample(n, tseed), gv_guarantee(n), trial_seed(tseed, i)


def first_unit(workload: str, seed: int):
    """The workload's first unit of work, as a zero-argument callable."""
    from gvdc.codes import dc_sample
    from gvdc.spectrum import low_weight_search, min_distance_exact
    from gvdc.verify import trial_seed, verify_triplesum_sweep
    if workload == "verify_all":
        # the capped Monte Carlo sweeps at n = 25 and 27 with one column
        # each: they build the capped necklace tables and the level-sum
        # weight distributions
        return lambda: [verify_triplesum_sweep(p, m, trials=1, seed=seed)
                        for p, m in ((5, 2), (3, 3))]
    if workload == "exact_n25":
        code = dc_sample(25, trial_seed(seed, 0))
        return lambda: min_distance_exact(code)
    if workload == "search_n61":
        code, w, s = search_trial(61, seed, 0)
        return lambda: low_weight_search(code, w, effort=200, seed=s)
    raise ValueError(f"unknown workload {workload!r}")


def probe_import(args) -> dict:
    return {"import_s": _import_s()}


def probe_setup(args) -> dict:
    """Import, then the first unit cold and again warm."""
    import_s = _import_s()
    unit = first_unit(args.workload, args.seed)
    rss0 = _rss_mb()
    cold = timed(unit)
    rss1 = _rss_mb()
    warm = timed(unit)
    return {"import_s": import_s, "cold_s": cold, "warm_s": warm,
            "setup_s": import_s + cold - warm, "rss_growth_mb": rss1 - rss0}


def probe_engine25(args) -> dict:
    """Exact-distance engine at n = 25: build cost and memory of the first
    call, then warm calls over the exact_n25 workload's own columns."""
    _import_s()
    from gvdc.codes import dc_sample
    from gvdc.spectrum import min_distance_exact
    from gvdc.verify import trial_seed
    from run import WORKLOADS
    codes = [dc_sample(25, trial_seed(args.seed, i))
             for i in range(WORKLOADS["exact_n25"].trials)]
    rss0 = _rss_mb()
    cold = timed(min_distance_exact, codes[0])
    rss1 = _rss_mb()
    warm = timed(min_distance_exact, codes[0])
    ms = [1e3 * timed(min_distance_exact, c) for c in codes]
    value, pct, count = tail(ms)
    return {"spectrum.engine_build_s.n25": cold - warm,
            "spectrum.engine_rss_mb.n25": rss1 - rss0,
            "spectrum.min_distance_ms.n25.p50": statistics.median(ms),
            "spectrum.min_distance_ms.n25.tail": value,
            "samples": count, "tail_percentile": pct}


def probe_cold(args) -> dict:
    """First-in-process costs behind the verify audits: the level-sum
    right-hand side at n = 25 and 27 and the divisor-lattice census at 13."""
    _import_s()
    from gvdc.verify import expected_count_exact, triple_sum_value

    def rhs_sweep():
        # the same loop verify_triplesum_sweep runs before sampling
        for p, m in ((5, 2), (3, 3)):
            w = 1
            while float(triple_sum_value(p, m, w)) < 0.9:
                w += 1

    return {"verify.triple_sum_value_s": timed(rhs_sweep),
            "verify.expected_count_exact_s.n13":
                timed(expected_count_exact, 13, 26)}


def probe_warm(args) -> dict:
    """Warm, repeated calls into every layer on the workloads' inputs."""
    _import_s()
    from gvdc import bounds, verify
    from gvdc.bounds import CONSTANTS
    from gvdc.codes import (BitVec, cyclic_from_vector, dc_sample,
                            divisor_codes, membership_probability)
    from gvdc.gf2poly import Poly, factorize, poly_mul_mod
    from gvdc.numbertheory import next_kasami_prime
    from gvdc.spectrum import (low_weight_search, min_distance_exact,
                               weight_distribution)
    from run import WORKLOADS
    mc_trials = WORKLOADS["verify_all"].trials
    seed = args.seed
    rng = random.Random(seed)
    out: dict = {}

    # Monte Carlo columns of the verify_all workload: a one-column sweep
    # warms the capped table, and the difference to a full sweep leaves
    # the sampled columns alone
    for n, (p, m) in ((25, (5, 2)), (27, (3, 3))):
        verify.verify_triplesum_sweep(p, m, trials=1, seed=seed)
        one = timed(verify.verify_triplesum_sweep, p, m, trials=1, seed=seed)
        full = timed(verify.verify_triplesum_sweep, p, m,
                     trials=mc_trials, seed=seed)
        out[f"verify.mc_trial_ms.n{n}"] = 1e3 * (full - one) / (mc_trials - 1)

    codes13 = [dc_sample(13, verify.trial_seed(seed, i)) for i in range(200)]
    min_distance_exact(codes13[0])
    out["spectrum.min_distance_ms.n13.p50"] = 1e3 * statistics.median(
        timed(min_distance_exact, c) for c in codes13)

    for n, reps in ((25, 10), (41, 6), (61, 5)):
        ms = [1e3 * timed(lambda t: low_weight_search(t[0], t[1], effort=200,
                                                      seed=t[2]),
                          search_trial(n, seed, i)) for i in range(reps)]
        out[f"spectrum.low_weight_search_ms.n{n}"] = statistics.median(ms)

    lattice = divisor_codes(25) + divisor_codes(27)
    out["spectrum.weight_distribution_ms"] = 1e3 * median_time(
        lambda: [weight_distribution(c) for c in lattice], 5)

    words = [(BitVec(rng.getrandbits(26), 26),) for _ in range(2000)]
    out["codes.membership_probability_us"] = 1e6 * per_call(
        membership_probability, words)
    out["codes.cyclic_from_vector_us.n9"] = 1e6 * per_call(
        cyclic_from_vector, [(BitVec(x, 9),) for x in range(1, 512)])
    out["codes.dc_sample_us"] = 1e6 * per_call(
        lambda i: dc_sample(61, verify.trial_seed(seed, i)),
        [(i,) for i in range(2000)])
    for n in (25, 27):
        out[f"codes.divisor_codes_ms.n{n}"] = 1e3 * per_call(
            divisor_codes, [(n,)] * 20)
        out[f"gf2poly.factorize_ms.n{n}"] = 1e3 * per_call(
            factorize, [(n,)] * 50)
    pairs = [(Poly(rng.getrandbits(25), 25), Poly(rng.getrandbits(25), 25))
             for _ in range(2000)]
    out["gf2poly.poly_mul_mod_us.n25"] = 1e6 * per_call(poly_mul_mod, pairs)
    out["numbertheory.next_kasami_prime_ms.2744"] = 1e3 * median_time(
        next_kasami_prime, 5, 2744)
    out["bounds.max_weight_tail_exponent_s"] = timed(
        bounds.max_weight_tail_exponent, CONSTANTS.kappa, CONSTANTS.copies)
    return out


PROBES = {"import": probe_import, "setup": probe_setup,
          "engine25": probe_engine25, "cold": probe_cold, "warm": probe_warm}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("probe", choices=sorted(PROBES))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", default="verify_all")
    args = ap.parse_args(argv)
    print(json.dumps(PROBES[args.probe](args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
