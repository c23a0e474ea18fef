#!/usr/bin/env python3
"""Sampled distance survey across several lengths: where do random double
circulant codes land relative to the volume-argument guarantee?

Usage, from the root of a checkout:

    PYTHONPATH=src python scripts/distance_survey.py [--trials N] [--seed S]
        [--workers W] [--lengths N ...]

or, after `pip install -e .`, the same command without PYTHONPATH=src.

--workers (default 1) caps the worker processes of each experiment, as
`gvdc experiment --workers` does; the script reads no environment
variable.

Prints one line per length with the d histogram, the guarantee, and the
fraction of sampled codes that meet or beat it.
"""

import argparse

from gvdc import experiment_distance


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=int, default=300)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--lengths", type=int, nargs="+",
                    default=[11, 13, 17, 19, 23])
    args = ap.parse_args()

    for n in args.lengths:
        records, summary = experiment_distance(
            n=n, trials=args.trials, seed=args.seed, workers=args.workers)
        beating = sum(1 for r in records
                      if r.d_found is not None and r.d_found > r.gv)
        print(f"n={n:3d} [2n={2*n}] gv={summary['gv_guarantee']} "
              f"median={summary.get('d_median')} "
              f"beat_gv={beating}/{summary['completed']} "
              f"hist={summary['histogram']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
