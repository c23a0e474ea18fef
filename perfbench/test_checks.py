"""The benchmark's own test: its output checks count a corrupted records
file as failed.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import subprocess
import sys

import checks

N, SEED, TRIALS = 9, 3, 6
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def _experiment(tmp_path):
    out = tmp_path / "records.csv"
    summary = tmp_path / "summary.json"
    subprocess.run([sys.executable, "-m", "gvdc", "experiment", "--n", str(N),
                    "--mode", "exact", "--trials", str(TRIALS),
                    "--seed", str(SEED), "--out", str(out),
                    "--summary", str(summary)],
                   check=True, capture_output=True,
                   env={**os.environ, "PYTHONPATH": SRC})
    return str(out), str(summary)


def _check(out, summary, ref):
    return checks.check_experiment(out, summary, N, SEED, TRIALS, "exact", 0,
                                   ref, "t")


def _alter_d_found(src: str, dst: str, trial: int, value: str) -> None:
    with open(src) as fh:
        lines = fh.read().splitlines(keepends=True)
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    fields = lines[header + 1 + trial].split(",")
    fields[checks.EXPERIMENT_HEADER.index("d_found")] = value
    lines[header + 1 + trial] = ",".join(fields)
    with open(dst, "w") as fh:
        fh.writelines(lines)


def test_corrupted_d_found_is_counted_failed(tmp_path):
    out, summary = _experiment(tmp_path)
    assert _check(out, summary, {}) == (TRIALS, 0, [])

    rows = checks.read_records(out)
    a_weight = int(rows[2]["a"], 16).bit_count()
    bad = str(tmp_path / "bad.csv")
    # above wt(a) + 1, the weight of a single-bit-message codeword
    _alter_d_found(out, bad, 2, str(a_weight + 2))
    attempted, failed, problems = _check(bad, summary, {})
    assert (attempted, failed) == (TRIALS, 1)
    assert problems and problems[0].startswith("trial 2:")


def test_plausible_d_found_fails_against_reference(tmp_path):
    out, summary = _experiment(tmp_path)
    rows = checks.read_records(out)
    ref = {"t": {"seeds": {str(SEED): {
        "trials": TRIALS, "d_found": [r["d_found"] for r in rows],
        "sha256_csv": checks.sha256(open(out, "rb").read()),
        "sha256_summary": checks.sha256(open(summary, "rb").read())}}}}
    assert _check(out, summary, ref) == (TRIALS, 0, [])

    d = int(rows[4]["d_found"])
    bad = str(tmp_path / "bad.csv")
    _alter_d_found(out, bad, 4, str(d - 1 if d > 1 else d + 1))
    attempted, failed, problems = _check(bad, summary, ref)
    assert (attempted, failed) == (TRIALS, 1)
    assert "!= reference" in problems[0]


def test_missing_output_fails_every_trial(tmp_path):
    out, summary = _experiment(tmp_path)
    attempted, failed, _ = _check(str(tmp_path / "absent.csv"), summary, {})
    assert (attempted, failed) == (TRIALS, TRIALS)
