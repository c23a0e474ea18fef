#!/usr/bin/env python3
"""The flagship exact instance: sweep all 2^13 circulant columns at p=13,
compare the exact Pr[d <= 4] against the prime-case cap, and confirm codes
with d >= 5 exist (the volume argument alone only guarantees d >= 4).

Usage, from the root of a checkout:

    PYTHONPATH=src python scripts/p13_exhaustive.py [outdir]

or, after `pip install -e .`, the same command without PYTHONPATH=src.

Writes records CSV, summary JSON, and both plot kinds, then prints the
verdict from the summary; exits 2 if the exact fraction is above the cap.
"""

import json
import subprocess
import sys


def run(*argv: str) -> None:
    proc = subprocess.run([sys.executable, "-m", "gvdc", *argv])
    if proc.returncode:
        sys.exit(proc.returncode)


def main() -> int:
    outdir = sys.argv[1] if len(sys.argv) > 1 else "results"
    csv = f"{outdir}/p13.csv"
    run("experiment", "--p", "13", "--exhaustive",
        "--out", csv, "--summary", f"{outdir}/p13.json")
    run("plot", "--records", csv, "--kind", "histogram",
        "--out", f"{outdir}/p13_hist.svg")
    run("plot", "--records", csv, "--kind", "threshold-overlay",
        "--out", f"{outdir}/p13_overlay.svg")
    with open(f"{outdir}/p13.json") as fh:
        summary = json.load(fh)
    holds = summary["prob_bound_holds"]
    print(f"Pr[d <= {summary['threshold']}] = "
          f"{summary['empirical_le_threshold']} against the cap "
          f"{summary['prob_bound']}: {'holds' if holds else 'VIOLATED'}")
    return 0 if holds else 2


if __name__ == "__main__":
    sys.exit(main())
