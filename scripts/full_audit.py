#!/usr/bin/env python3
"""Run every lemma/bound audit at acceptance scope and write the report.

Usage, from the root of a checkout:

    PYTHONPATH=src python scripts/full_audit.py [outdir] [--trials N]
        [--seed S]

or, after `pip install -e .`, the same command without PYTHONPATH=src.

Runs `gvdc verify all` and writes OUTDIR/audit.json with its manifest
sidecar.  Without --seed the audits keep their own default seeds.  Exits 2
if anything is violated.  With the default 10 000 trials it took 0.7 to
1.2 s over four runs on a shared 2-core machine (Python 3.11, numpy 2.4);
the Monte Carlo sweeps at n in {25, 27}, about 0.35 s each, take most of
it.
"""

import argparse
import sys

from gvdc.cli import main as gvdc_main


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("outdir", nargs="?", default="results")
    ap.add_argument("--trials", type=int, default=10_000)
    ap.add_argument("--seed", type=int)
    args = ap.parse_args()

    argv = ["verify", "all", "--trials", str(args.trials),
            "--json", f"{args.outdir}/audit.json"]
    if args.seed is not None:
        argv += ["--seed", str(args.seed)]
    return gvdc_main(argv)


if __name__ == "__main__":
    sys.exit(main())
