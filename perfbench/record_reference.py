"""Record the reference outputs the benchmark checks against.

Runs every workload's CLI command once per seed with the sizes run.py
uses and writes perfbench/reference.json: the seed-independent lhs/rhs
strings of the verify audits, and per seed the Monte Carlo edges, every
experiment d_found and the sha256 of each output file.  Run it from the
root of a checkout, only at a commit whose outputs are trusted:

    python3 perfbench/record_reference.py --seeds 0-15
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import checks
import run


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(wl: run.Workload, seed: int, work: str, clock: run.Clock):
    out = os.path.join(work, f"{wl.name}-{seed}")
    os.makedirs(out, exist_ok=True)
    p = run.run_process([run.PY, "-m", "gvdc", *wl.argv(seed, out)],
                        os.path.join(out, "cli.log"), clock)
    if p.returncode != 0:
        raise SystemExit(f"{wl.name} seed {seed}: exit {p.returncode}")
    if wl.name == "verify_all":
        with open(os.path.join(out, "verify.json"), "rb") as fh:
            blob = fh.read()
        reports = json.loads(blob)["reports"]
        exact = {checks.report_key(r): [None if r["status"] ==
                                        "informative-only" else r["lhs"],
                                        r["rhs"]] for r in reports}
        lhs = {checks.report_key(r): r["lhs"] for r in reports
               if r["status"] == "informative-only"}
        return exact, {"trials": wl.trials, "sha256": checks.sha256(blob),
                       "lhs": lhs}
    csv_path = os.path.join(out, "records.csv")
    with open(csv_path, "rb") as fh:
        csv_blob = fh.read()
    with open(os.path.join(out, "summary.json"), "rb") as fh:
        summary_blob = fh.read()
    return None, {"trials": wl.trials,
                  "sha256_csv": checks.sha256(csv_blob),
                  "sha256_summary": checks.sha256(summary_blob),
                  "d_found": [r["d_found"]
                              for r in checks.read_records(csv_path)]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-15", help="inclusive range a-b")
    args = ap.parse_args(argv)
    work = os.path.join(run.WORK, "reference")
    ref: dict = {name: {"seeds": {}} for name in run.WORKLOADS}
    for name in sorted(run.WORKLOADS):
        wl = run.WORKLOADS[name]
        for seed in _seeds(args.seeds):
            clock = run.Clock()
            exact, seeded = record(wl, seed, work, clock)
            if exact is not None:
                if ref[name].setdefault("exact", exact) != exact:
                    raise SystemExit(f"seed {seed}: exact audits differ")
            ref[name]["seeds"][str(seed)] = seeded
            print(f"{name} seed {seed}: recorded", flush=True)
    with open(checks.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
