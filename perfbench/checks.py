"""Correctness checks on the outputs of the benchmark's CLI runs.

An operation is one verify report or one experiment trial.  Each check
returns (attempted, failed, problems): a run whose output cannot be read
counts every planned operation as failed.

Three kinds of checks apply:
  * checks that hold for any seed: exit status, no `violated` report, each
    lemma's status class, the Monte Carlo edge recomputed from its hit
    count, experiment columns equal to `dc_sample` for the trial seed, and
    `d_found` inside the bounds every code satisfies;
  * the seed-independent exact-audit lhs/rhs strings, recorded at the
    commit that defined the benchmark (reference.json);
  * for the seeds recorded there, every report and every `d_found`, and
    the sha256 of each output file.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")

EXPERIMENT_HEADER = ["n", "trial", "seed", "a", "d_found", "exact",
                     "gv_guarantee", "threshold_kind", "threshold"]

# lemma -> the status class its report must carry; the level-sum audit is
# exact up to n = 14 and sampled evidence above
STATUS = {
    "membership-uniformity": "verified-exact",
    "orbit-weighted-bound": "verified-exact",
    "syndrome-count-cap": "verified-numeric",
    "spectrum-convolution-cap": "verified-numeric",
    "refined-spectrum-caps": "verified-numeric",
    "split-tail-count": "verified-exact",
    "class-sum-and-series": "verified-numeric",
}

_WILSON_Z = 2.5758293035489004


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def wilson_upper(successes: int, n: int, z: float = _WILSON_Z) -> float:
    """Upper edge of the 99% Wilson score interval, as the audit states it."""
    ph = successes / n
    z2 = z * z
    centre = ph + z2 / (2 * n)
    rad = z * math.sqrt(ph * (1 - ph) / n + z2 / (4 * n * n))
    return min(1.0, (centre + rad) / (1 + z2 / n))


def report_key(report: dict) -> str:
    """Lemma plus the parameters that do not depend on the run's seed."""
    params = {k: v for k, v in report["parameters"].items()
              if k not in ("seed", "trials")}
    return report["lemma"] + " " + " ".join(
        f"{k}={v}" for k, v in sorted(params.items()))


def expected_status(report: dict) -> str:
    if report["lemma"] == "level-pair-sum-bound":
        p = int(report["parameters"]["p"])
        m = int(report["parameters"]["m"])
        return "verified-exact" if p**m <= 14 else "informative-only"
    return STATUS.get(report["lemma"], "unknown lemma")


def mc_counts(notes: str) -> tuple[int, int] | None:
    """(samples, hits) from a Monte Carlo note ending in
    "(<samples> samples, <hits> hits)"."""
    parts = notes.rsplit("(", 1)[-1].replace(",", " ").split()
    if (len(parts) != 4 or parts[1] != "samples" or parts[3] != "hits)"
            or not parts[0].isdigit() or not parts[2].isdigit()):
        return None
    return int(parts[0]), int(parts[2])


def _report_problem(r: dict, ref_exact: dict, trials: int) -> str | None:
    key = report_key(r)
    if r["status"] == "violated":
        return f"{key}: violated"
    if r["status"] != expected_status(r):
        return f"{key}: status {r['status']}, expected {expected_status(r)}"
    if r["status"] == "informative-only":
        # the stated edge must be the one its hit count gives
        counts = mc_counts(r["notes"])
        if counts is None:
            return f"{key}: unreadable Monte Carlo note {r['notes']!r}"
        samples, hits = counts
        if samples != trials or not 0 <= hits <= samples:
            return f"{key}: {samples} samples / {hits} hits, planned {trials}"
        if r["lhs"] != f"{wilson_upper(hits, samples):.6f}":
            return f"{key}: lhs {r['lhs']} is not the edge for {hits} hits"
        if key in ref_exact and r["rhs"] != ref_exact[key][1]:
            return f"{key}: rhs {r['rhs']} != reference {ref_exact[key][1]}"
        return None
    if key not in ref_exact:
        return f"{key}: no reference report"
    if [r["lhs"], r["rhs"]] != ref_exact[key]:
        return (f"{key}: lhs/rhs {r['lhs']!r}/{r['rhs']!r} != reference "
                f"{ref_exact[key][0]!r}/{ref_exact[key][1]!r}")
    return None


def check_verify(out_json: str, seed: int, trials: int, returncode: int,
                 ref: dict) -> tuple[int, int, list[str]]:
    """Check one `gvdc verify all --json` output."""
    ref_w = ref["verify_all"]
    planned = len(ref_w["exact"])
    try:
        with open(out_json, "rb") as fh:
            blob = fh.read()
        body = json.loads(blob)
        reports = body["reports"]
    except (OSError, ValueError, KeyError) as exc:
        return planned, planned, [f"verify output unreadable: {exc}"]
    problems = []
    if returncode != 0:
        problems.append(f"exit status {returncode}")
    if body.get("violated") is not False:
        problems.append("report marked violated")
    if body.get("config", {}).get("seed") != str(seed):
        problems.append("config does not echo the seed")
    keys = [report_key(r) for r in reports]
    if sorted(keys) != sorted(ref_w["exact"]):
        problems.append(f"{len(keys)} reports, reference has {planned}")
    failed = 0
    seeded = ref_w["seeds"].get(str(seed))
    if seeded and seeded["trials"] != trials:
        seeded = None
    hits_by_n: dict[tuple, list[int]] = {}
    for r in reports:
        problem = _report_problem(r, ref_w["exact"], trials)
        if problem is None and seeded is not None:
            want = seeded["lhs"].get(report_key(r))
            if want is not None and r["lhs"] != want:
                problem = f"{report_key(r)}: lhs {r['lhs']} != reference {want}"
        if problem is None and r["status"] == "informative-only":
            pm = (r["parameters"]["p"], r["parameters"]["m"])
            hits_by_n.setdefault(pm, []).append(mc_counts(r["notes"])[1])
        if problem:
            failed += 1
            problems.append(problem)
    for pm, hits in hits_by_n.items():
        if hits != sorted(hits):
            problems.append(f"Monte Carlo hits at p,m={pm} fall as w grows")
    if seeded is not None and sha256(blob) != seeded["sha256"]:
        problems.append("verify JSON bytes differ from the reference")
    attempted = max(planned, len(reports))
    if problems and not failed:
        failed = attempted  # a whole-output fault fails every report
    return attempted, failed, problems


def read_records(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.reader(io.StringIO("".join(lines)))
    header = next(reader)
    if header != EXPERIMENT_HEADER:
        raise ValueError(f"header {header} != {EXPERIMENT_HEADER}")
    rows = list(reader)
    if any(len(row) != len(header) for row in rows):
        raise ValueError("a record has the wrong number of fields")
    return [dict(zip(header, row)) for row in rows]


def _record_problem(i: int, row: dict, n: int, master: int, mode: str,
                    truth: list | None) -> str | None:
    from gvdc.codes import dc_sample
    from gvdc.verify import trial_seed
    tseed = trial_seed(master, i)
    if row["trial"] != str(i) or row["n"] != str(n) or row["seed"] != str(tseed):
        return f"trial {i}: index/n/seed columns {row['trial']},{row['n']},{row['seed']}"
    a_bits = dc_sample(n, tseed).a.bits
    if row["a"] != hex(a_bits):
        return f"trial {i}: column {row['a']} != dc_sample {hex(a_bits)}"
    if row["exact"] != ("true" if mode == "exact" else "false"):
        return f"trial {i}: exact flag {row['exact']}"
    d = row["d_found"]
    if mode == "exact":
        # the single-bit message gives a codeword of weight wt(a) + 1
        if not d.isdigit() or not 1 <= int(d) <= a_bits.bit_count() + 1:
            return f"trial {i}: d_found {d!r} outside 1..wt(a)+1"
    elif d and (not d.isdigit() or not 1 <= int(d) <= int(row["gv_guarantee"])):
        return f"trial {i}: d_found {d!r} above the search weight"
    if truth is not None and d != truth[i]:
        return f"trial {i}: d_found {d!r} != reference {truth[i]!r}"
    return None


def check_experiment(out_csv: str, summary_json: str, n: int, seed: int,
                     trials: int, mode: str, returncode: int,
                     ref: dict, workload: str) -> tuple[int, int, list[str]]:
    """Check one `gvdc experiment --out --summary` output pair."""
    try:
        rows = read_records(out_csv)
        with open(summary_json, "rb") as fh:
            summary_blob = fh.read()
        summary = json.loads(summary_blob)
        with open(out_csv, "rb") as fh:
            csv_blob = fh.read()
    except (OSError, ValueError, StopIteration) as exc:
        return trials, trials, [f"experiment output unreadable: {exc}"]
    seeded = ref.get(workload, {}).get("seeds", {}).get(str(seed))
    if seeded and seeded["trials"] != trials:
        seeded = None
    truth = seeded["d_found"] if seeded else None
    problems = []
    failed = 0
    for i in range(trials):
        problem = (f"trial {i}: missing" if i >= len(rows) else
                   _record_problem(i, rows[i], n, seed, mode, truth))
        if problem:
            failed += 1
            problems.append(problem)
    if len(rows) > trials:
        problems.append(f"{len(rows)} records, planned {trials}")
    hist: dict[str, int] = {}
    for row in rows:
        if row["d_found"]:
            hist[row["d_found"]] = hist.get(row["d_found"], 0) + 1
    if returncode != 0:
        problems.append(f"exit status {returncode}")
    if (summary.get("completed") != trials or summary.get("truncated")
            or summary.get("histogram") != hist):
        problems.append("summary disagrees with the records")
    if seeded is not None and (sha256(csv_blob) != seeded["sha256_csv"] or
                               sha256(summary_blob) != seeded["sha256_summary"]):
        problems.append("output bytes differ from the reference")
    if problems and not failed:
        failed = trials
    return trials, failed, problems
