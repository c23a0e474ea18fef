"""Command line surface: exit codes, file formats, and determinism."""

import ast
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import time

import pytest

from gvdc import cli, spectrum
from gvdc.cli import main
from gvdc.codes import BitVec, DoubleCirculantCode
from gvdc.gf2poly import BudgetExceededError
from gvdc.spectrum import SEARCH_MAX_N, low_weight_search
from gvdc.verify import BRUTEFORCE_MAX_N, TABLE_MAX_N

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def test_unknown_subcommand_is_usage_error():
    code, _ = run_cli(["frobnicate"])
    assert code == 1


def test_missing_required_argument_is_usage_error():
    code, _ = run_cli(["factor"])
    assert code == 1


def test_factor_output():
    code, out = run_cli(["factor", "--n", "9"])
    assert code == 0
    # each factor prints in a ring of length n + 1, which holds degree n
    assert out == ("Z^9+1 = product of 3 irreducible factors\n"
                   "  deg=  1  n=10;coeffs=0x3\n"
                   "  deg=  2  n=10;coeffs=0x7\n"
                   "  deg=  6  n=10;coeffs=0x49\n")


def test_primes_scan():
    code, out = run_cli(["primes", "--from", "2744", "--count", "1"])
    assert code == 0
    data = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert data[0] == "p,order_of_2,primitive,wieferich_ok,kasami"
    assert data[1] == "2789,2788,true,true,true"


def test_thresholds_row():
    code, out = run_cli(["thresholds", "--n", "13"])
    assert code == 0
    assert "13,4,4,4" in out


def test_thresholds_range_and_const_override():
    code, out = run_cli(["thresholds", "--from", "12", "--to", "14"])
    assert code == 0
    rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert len(rows) == 1 + 3  # header + three lengths

    code, _ = run_cli(["thresholds", "--n", "13",
                       "--const", "ball_fraction=0.1"])
    assert code == 0
    code, _ = run_cli(["thresholds", "--n", "13", "--const", "nope=1"])
    assert code == 1


def test_sample_matches_experiment_seeding():
    from gvdc.codes import dc_sample
    from gvdc.verify import trial_seed

    code, out = run_cli(["sample", "--n", "16", "--count", "3", "--seed", "5"])
    assert code == 0
    rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert len(rows) == 3
    for i, row in enumerate(rows):
        assert row == dc_sample(16, trial_seed(5, i)).serialize()


def test_mindist_exact_and_witness():
    code, out = run_cli(["mindist", "--n", "3", "--a", "110"])
    assert code == 0
    assert out.strip() == "d=3 witness=6:0x25"


def test_mindist_json_and_budget():
    code, out = run_cli(["mindist", "--n", "3", "--a", "110", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == 3 and doc["exact"] is True

    code, _ = run_cli(["mindist", "--n", "29", "--a", "0x1"])
    assert code == 3  # enumeration budget


def test_spectrum_outputs():
    code, out = run_cli(["spectrum", "--n", "3", "--g", "11"])
    assert code == 0
    rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert rows[0] == "i,A_i"
    assert rows[1:] == ["0,1", "1,0", "2,3", "3,0"]

    code2, out2 = run_cli(["spectrum", "--n", "3", "--a", "111"])
    assert code2 == 0
    # --a and --g are exclusive
    code3, _ = run_cli(["spectrum", "--n", "3", "--a", "111", "--g", "11"])
    assert code3 == 1


def test_expected_agreement_gate():
    code, out = run_cli(["expected", "--n", "9", "--w", "4", "--bruteforce"])
    assert code == 0
    assert "2571/256" in out

    code, out = run_cli(["expected", "--n", "9", "--w", "4", "--orbit"])
    assert code == 0
    assert "307/256" in out


def test_expected_rejects_a_weight_that_is_not_finite(capsys):
    for w in ("inf", "nan", "-inf"):
        code, out = run_cli(["expected", "--n", "9", f"--w={w}", "--orbit"])
        assert code == 1 and out == "", w
        err = capsys.readouterr().err
        assert f"w must be finite, not {w}" in err and "Traceback" not in err


def test_exhaustive_audits_past_their_limit_exit_budget():
    code, _ = run_cli(["verify", "orbit", "--n", str(TABLE_MAX_N + 1)])
    assert code == 3
    code, _ = run_cli(["expected", "--n", str(BRUTEFORCE_MAX_N + 1),
                       "--w", "3", "--bruteforce"])
    assert code == 3


def test_level_audits_past_one_engine_word_exit_budget_at_once(
        monkeypatch, capsys):
    # n = 121 and 125 are past the 64 bits the distance engine packs a half
    # in; the audit refuses them before it computes any bound or sample
    def no_bound(*args):
        raise AssertionError("a bound was computed")

    monkeypatch.setattr(cli.audits, "triple_sum_value", no_bound)
    for argv in (["--p", "11", "--m", "2"], ["--p", "5", "--m", "3"],
                 ["--p", "5", "--m", "3", "--w", "4"]):
        code, out = run_cli(["verify", "triplesum", *argv, "--trials", "5"])
        assert code == 3 and out == "", argv
        err = capsys.readouterr().err
        assert err.startswith("budget exceeded: ") and "n <= 64" in err


def test_verify_orbit_is_exact_up_to_the_table_limit():
    code, out = run_cli(["verify", "orbit", "--n", "15"])
    assert code == 0
    rows = [ln for ln in out.splitlines() if ln.startswith("orbit")]
    assert len(rows) == 30
    assert all("verified-exact" in ln for ln in rows)
    # the bound is computed before the table, so an even n fails at once
    code, out = run_cli(["verify", "orbit", "--n", "16"])
    assert code == 1 and out == ""


def test_verify_orbit_rejects_even_n(capsys):
    for n in ("10", "16"):
        code, out = run_cli(["verify", "orbit", "--n", n, "--w", "3"])
        assert code == 1 and out == ""
        assert f"the orbit bound takes odd n, not n = {n}" in \
            capsys.readouterr().err


def test_verify_cx_table_and_exit():
    code, out = run_cli(["verify", "cx"])
    assert code == 0
    assert "membership-uniformity" in out
    assert "verified-exact" in out
    # every report row ends with the wall time of the audit call behind it
    rows = [ln for ln in out.splitlines()
            if not ln.startswith((" ", "-- "))]
    assert len(rows) == 4
    assert all(re.search(r"  \(\d+\.\d\ds\)$", ln) for ln in rows)


def test_verify_triplesum_zero_weight_is_trivial():
    # no nonzero codeword has weight 0, so every sampled column misses
    code, out = run_cli(["verify", "triplesum", "--p", "5", "--m", "2",
                         "--w", "0", "--trials", "50"])
    assert code == 0
    assert "level-pair-sum-bound" in out
    assert "(50 samples, 0 hits)" in out


def test_verify_rejects_parameters_below_one():
    for argv in (["cx", "--n", "0"],
                 ["orbit", "--n", "0"],
                 ["triplesum", "--p", "0"],
                 ["triplesum", "--p", "5", "--m", "0"],
                 ["enumeration", "--n", "0"],
                 ["enumeration", "--n", "-5"],
                 ["triplesum", "--p", "5", "--m", "2", "--trials", "-3"]):
        code, out = run_cli(["verify", *argv])
        assert code == 1 and out == "", argv


def test_verify_rejects_out_of_range_audit_parameters():
    # the split tail count starts at n_floor = 2744; no codeword has
    # negative weight, on the exact path (n = 9) or the sampled one (n = 25)
    for argv in (["enumeration", "--n", "1"],
                 ["enumeration", "--n", "100"],
                 ["triplesum", "--p", "3", "--m", "2", "--w", "-1"],
                 ["triplesum", "--p", "5", "--m", "2", "--w", "-1",
                  "--trials", "5"]):
        code, out = run_cli(["verify", *argv])
        assert code == 1 and out == "", argv


def test_flags_a_command_does_not_read_are_usage_errors(tmp_path):
    out_path = tmp_path / "out"
    for argv in (["verify", "kappa", "--n", "5", "--w", "3"],
                 ["verify", "all", "--n", "9"],
                 ["verify", "triplesum", "--n", "9"],
                 ["verify", "cx", "--w", "3"],
                 ["verify", "enumeration", "--w", "3"],
                 ["verify", "orbit", "--p", "3"],
                 ["verify", "repetition", "--m", "2"],
                 ["verify", "triplesum", "--m", "1"],
                 ["verify", "triplesum", "--m", "2", "--w", "3"],
                 ["mindist", "--n", "3", "--a", "110", "--w", "1"],
                 ["mindist", "--n", "3", "--a", "110", "--effort", "7"],
                 ["mindist", "--n", "3", "--a", "110", "--seed", "5"]):
        code, out = run_cli(argv)
        assert code == 1 and out == "", argv
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("p = 13\n")
    for argv in (["verify", "cx", "--n", "3", "--trials", "5"],
                 ["verify", "kappa", "--seed", "3"],
                 ["verify", "cx", "--const", "kappa=1/2"],
                 ["verify", "orbit", "--n", "5", "--w", "2", "--seed", "9"],
                 ["verify", "repetition", "--trials", "5"],
                 ["experiment", "--n", "9", "--p", "3"],
                 ["experiment", "--n", "9", "--m", "2"],
                 ["experiment", "--p", "13", "--m", "0"],
                 ["experiment", "--config", str(cfg), "--n", "9"]):
        out_flag = "--json" if argv[0] == "verify" else "--out"
        code, out = run_cli(argv + [out_flag, str(out_path)])
        assert code == 1 and out == "" and not out_path.exists(), argv
    # the same flags where they are read
    code, out = run_cli(["mindist", "--n", "3", "--a", "110", "--search",
                         "--w", "3"])
    assert code == 0 and out.startswith("d<=3 ")
    code, out = run_cli(["mindist", "--n", "3", "--a", "110", "--search",
                         "--w", "3", "--effort", "7", "--seed", "5"])
    assert code == 0 and out.startswith("d<=3 ")
    code, out = run_cli(["verify", "orbit", "--n", "5", "--w", "2"])
    assert code == 0 and "verified-exact" in out
    for argv in (["triplesum", "--p", "5", "--m", "2", "--w", "3",
                  "--trials", "5", "--seed", "1"],
                 ["distrib", "--seed", "1"],
                 ["c2series", "--const", "class_sum_cap=4.3"]):
        code, out = run_cli(["verify", *argv])
        assert code == 0 and "-- 1 checks, 0 violated" in out, argv


def test_c2series_tail_reads_the_decay_constant():
    # the geometric tail at the first Kasami prime 2789 is gamma^2788
    code, out = run_cli(["verify", "c2series"])
    assert code == 0 and "tail at 2789 is 1.4e-168 " in out
    code, out = run_cli(["verify", "c2series", "--const", "decay_log2=-1"])
    assert code == 0 and "tail at 2789 is 5.35e-840 " in out


def test_verify_sample_and_tr_limits_are_not_flags():
    for flag in ("--samples", "--max-tr"):
        code, out = run_cli(["verify", "repetition", flag, "0"])
        assert code == 1 and out == ""


def test_verify_json_omits_runtimes(tmp_path):
    out_path = tmp_path / "report.json"
    code, _ = run_cli(["verify", "kappa", "--json", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["violated"] is False
    assert doc["reports"] and doc["reports"][0]["lemma"]
    assert "runtime" not in json.dumps(doc)
    manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
    assert "report.json" in manifest["outputs"]
    # one runtime per report, keyed by its lemma and parameters
    runtimes = manifest["runtimes_s"]
    assert len(runtimes) == len(doc["reports"])
    assert sorted(key.split(" [")[0] for key in runtimes) == \
        sorted(r["lemma"] for r in doc["reports"])
    assert all(v >= 0 for v in runtimes.values())


def test_benchmark_outputs_match_the_reference_bytes(tmp_path, monkeypatch):
    # the three benchmark command lines at seed 0, checked as the benchmark
    # checks them: every report and trial, and the sha256 of every output
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(PERFBENCH, "run.py"))
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)
    spec.loader.exec_module(run)
    import checks

    ref = checks.load_reference()
    env = {k: v for k, v in os.environ.items() if k != "GVDC_WORKERS"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(PERFBENCH), "src"),
                    env.get("PYTHONPATH")) if p)
    for name, wl in sorted(run.WORKLOADS.items()):
        out = str(tmp_path / name)
        os.makedirs(out)
        proc = subprocess.run([sys.executable, "-m", "gvdc", *wl.argv(0, out)],
                              env=env, capture_output=True, timeout=120)
        attempted, failed, problems = wl.check(out, 0, proc.returncode, ref)
        assert attempted and (failed, problems) == (0, []), name


def test_experiment_csv_and_summary(tmp_path):
    out_csv = tmp_path / "runs.csv"
    summary_path = tmp_path / "summary.json"
    code, out = run_cli([
        "experiment", "--n", "11", "--trials", "8", "--seed", "3",
        "--out", str(out_csv), "--summary", str(summary_path),
    ])
    assert code == 0
    summary = json.loads(summary_path.read_text())
    assert summary["completed"] == 8
    printed = json.loads(out)
    assert printed == summary

    text = out_csv.read_text()
    lines = text.splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1].startswith("# manifest:")
    assert lines[2] == ("n,trial,seed,a,d_found,exact,gv_guarantee,"
                        "threshold_kind,threshold")
    assert len(lines) == 3 + 8
    assert not list(tmp_path.glob("*.tmp"))


def test_experiment_flags_override_config(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n = 11\ntrials = 4\nseed = 3\n")
    code, out = run_cli(["experiment", "--config", str(cfg), "--trials", "2"])
    assert code == 0
    assert json.loads(out)["completed"] == 2


def test_experiment_config_sections_and_unknown_keys(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n = 11\ntrials = 2\n[const]\nball_fraction = 0.2\n")
    code, out = run_cli(["experiment", "--config", str(cfg)])
    assert code == 0

    cfg.write_text("n = 11\nbogus = 1\n")
    code, _ = run_cli(["experiment", "--config", str(cfg)])
    assert code == 1


def test_effort_must_be_positive(tmp_path):
    search = ["mindist", "--n", "13", "--a", "0x1b3", "--search"]
    for effort in ("0", "-2"):
        code, out = run_cli(search + ["--effort", effort])
        assert code == 1 and out == ""
    code, out = run_cli(search + ["--effort", "1", "--w", "26"])
    assert code == 0 and out.startswith("d<=")
    code13 = DoubleCirculantCode(13, BitVec(0x1b3, 13))
    for effort in (0, -1):
        with pytest.raises(ValueError, match="effort must be positive"):
            low_weight_search(code13, 26, effort=effort)

    out_csv = tmp_path / "runs.csv"
    base = ["experiment", "--n", "13", "--mode", "search", "--trials", "2",
            "--out", str(out_csv)]
    code, _ = run_cli(base + ["--effort", "0"])
    assert code == 1 and not out_csv.exists()
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("effort = 0\n")
    code, _ = run_cli(base + ["--config", str(cfg)])
    assert code == 1 and not out_csv.exists()
    # the flag wins over the config key
    code, _ = run_cli(base + ["--config", str(cfg), "--effort", "3"])
    assert code == 0 and out_csv.exists()


def test_experiment_usage_errors(tmp_path):
    out_csv = tmp_path / "runs.csv"
    for argv in (["--n", "9", "--trials", "-5"],
                 ["--n", "9", "--exhaustive", "--mode", "search"],
                 ["--n", "9", "--max-seconds", "nan"],
                 ["--n", "9", "--max-seconds=-1"],
                 ["--p", "-3", "--m", "2"], ["--p", "1", "--m", "3"],
                 ["--p", "9"], ["--p", "2"]):
        code, out = run_cli(["experiment", *argv, "--out", str(out_csv)])
        assert code == 1 and out == "" and not out_csv.exists(), argv


def test_negative_search_weight_is_usage_error(tmp_path):
    search = ["mindist", "--n", "13", "--a", "0x1b3", "--search"]
    code, out = run_cli(search + ["--w", "-1"])
    assert code == 1 and out == ""
    code, out = run_cli(search + ["--w", "0", "--effort", "1"])
    assert code == 0 and out == "no codeword of weight <= 0 found\n"

    out_csv = tmp_path / "runs.csv"
    out_json = tmp_path / "summary.json"
    base = ["experiment", "--n", "13", "--mode", "search", "--trials", "2",
            "--effort", "1", "--out", str(out_csv), "--summary",
            str(out_json)]
    code, out = run_cli(base + ["--w", "-3"])
    assert code == 1 and out == ""
    assert not out_csv.exists() and not out_json.exists()
    assert not list(tmp_path.iterdir())
    code, out = run_cli(base + ["--w", "0"])
    assert code == 0 and json.loads(out)["none_found"] == 2


def test_search_settings_are_refused_alike_before_any_work(monkeypatch,
                                                         capsys):
    # one owner refuses a search length before it computes the default
    # weight, and a bad weight or effort, with the same error through
    # every entry point, before any trial is sampled
    def work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(spectrum, "gv_guarantee", work)
    monkeypatch.setattr(cli.audits, "_run_trials", work)
    big = SEARCH_MAX_N + 1
    for n, w, effort in ((big, None, None), (13, -1, None), (13, None, 0)):
        with pytest.raises((ValueError, BudgetExceededError)) as direct:
            low_weight_search(DoubleCirculantCode(n, BitVec(1, n)), w, effort)
        with pytest.raises(direct.type) as run:
            cli.audits.experiment_distance(n=n, trials=0, mode="search",
                                           search_weight=w, effort=effort)
        assert str(run.value) == str(direct.value)
        argv = ["mindist", "--n", str(n), "--a", "0x1", "--search"]
        argv += [f"--{k}={v}" for k, v in (("w", w), ("effort", effort))
                 if v is not None]
        code, out = run_cli(argv)
        budget = direct.type is BudgetExceededError
        assert code == (3 if budget else 1) and out == "", argv
        prefix = "budget exceeded" if budget else "error"
        assert capsys.readouterr().err == f"{prefix}: {direct.value}\n"


def test_lattices_past_the_enumeration_limit_exit_budget_at_once(capsys):
    for argv in (["expected", "--n", "89", "--w", "3"],
                 ["expected", "--n", "255", "--w", "3"],
                 ["verify", "orbit", "--n", "63"]):
        code, out = run_cli(argv)
        assert code == 3 and out == "", argv
        assert "enumeration limit" in capsys.readouterr().err


def test_search_settings_in_exact_mode_are_usage_errors(tmp_path):
    out_csv = tmp_path / "runs.csv"
    cfg = tmp_path / "exp.cfg"
    base = ["experiment", "--n", "9", "--trials", "2", "--out", str(out_csv)]
    for key, value in (("w", "5"), ("effort", "7")):
        cfg.write_text(f"{key} = {value}\n")
        for extra in (["--mode", "exact", f"--{key}", value],
                      [f"--{key}", value],
                      ["--config", str(cfg)]):
            code, out = run_cli(base + extra)
            assert code == 1 and out == "" and not out_csv.exists(), extra
    code, _ = run_cli(base + ["--mode", "search", "--w", "5", "--effort", "7"])
    assert code == 0 and out_csv.exists()


def test_worker_count_below_one_is_usage_error(tmp_path, monkeypatch):
    out_csv = tmp_path / "runs.csv"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("workers = 0\n")
    base = ["experiment", "--n", "9", "--trials", "8", "--out", str(out_csv)]
    for extra in (["--workers", "0"], ["--workers", "-3"],
                  ["--config", str(cfg)]):
        code, out = run_cli(base + extra)
        assert code == 1 and out == "" and not out_csv.exists(), extra
    monkeypatch.setenv("GVDC_WORKERS", "0")
    code, out = run_cli(base)
    assert code == 1 and out == "" and not out_csv.exists()
    code, _ = run_cli(base + ["--workers", "1"])  # the flag wins
    assert code == 0 and out_csv.exists()


def test_experiment_worker_count_leaves_no_trace(tmp_path, monkeypatch):
    # no trial runs in process first, so the pool takes them all
    monkeypatch.setattr("gvdc.verify._POOL_START_S", 0)
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    a_dir.mkdir()
    b_dir.mkdir()
    argv = ["experiment", "--n", "11", "--trials", "10", "--seed", "1",
            "--out", "runs.csv", "--summary", "summary.json"]
    here = os.getcwd()
    try:
        os.chdir(a_dir)
        run_cli(argv + ["--workers", "1"])
        os.chdir(b_dir)
        run_cli(argv + ["--workers", "3"])
    finally:
        os.chdir(here)
    assert (a_dir / "runs.csv").read_bytes() == \
        (b_dir / "runs.csv").read_bytes()
    assert (a_dir / "summary.json").read_bytes() == \
        (b_dir / "summary.json").read_bytes()


def test_experiment_budget_exit(tmp_path):
    out_csv = tmp_path / "runs.csv"
    t0 = time.monotonic()
    code, out = run_cli([
        "experiment", "--n", "25", "--trials", "100000", "--seed", "0",
        "--max-seconds", "0.5", "--out", str(out_csv),
    ])
    elapsed = time.monotonic() - t0
    assert elapsed <= 5 * 0.5 + 2
    assert code == 3
    assert json.loads(out)["truncated"] is True
    assert out_csv.exists()  # partial results still land


def test_plot_histogram_and_overlay(tmp_path):
    out_csv = tmp_path / "runs.csv"
    run_cli(["experiment", "--n", "13", "--trials", "12", "--seed", "0",
             "--out", str(out_csv)])
    for kind in ("histogram", "threshold-overlay"):
        svg_path = tmp_path / f"{kind}.svg"
        code, _ = run_cli(["plot", "--records", str(out_csv),
                           "--kind", kind, "--out", str(svg_path)])
        assert code == 0
        text = svg_path.read_text()
        assert text.startswith("<?xml")
        assert "<svg" in text and "</svg>" in text


def test_plot_hashes_the_bytes_it_plots(tmp_path, monkeypatch):
    out_csv = tmp_path / "runs.csv"
    run_cli(["experiment", "--n", "13", "--trials", "12", "--seed", "0",
             "--out", str(out_csv)])
    opened = []

    def counting_open(path, *args, **kwargs):
        opened.append(os.fspath(path))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    svg_path = tmp_path / "hist.svg"
    code, _ = run_cli(["plot", "--records", str(out_csv),
                       "--out", str(svg_path)])
    assert code == 0
    assert opened.count(str(out_csv)) == 1
    manifest = json.loads(
        (tmp_path / "hist.svg.manifest.json").read_text())
    digest = hashlib.sha256(out_csv.read_bytes()).hexdigest()
    assert manifest["input_hashes"] == {"runs.csv": digest}


def test_plot_rejects_foreign_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n")
    code, _ = run_cli(["plot", "--records", str(bad), "--kind", "histogram",
                       "--out", str(tmp_path / "o.svg")])
    assert code == 1


def test_plot_empty_records_draws_placeholder(tmp_path):
    out_csv = tmp_path / "runs.csv"
    run_cli(["experiment", "--n", "11", "--trials", "0",
             "--out", str(out_csv)])
    svg_path = tmp_path / "empty.svg"
    code, _ = run_cli(["plot", "--records", str(out_csv),
                       "--kind", "histogram", "--out", str(svg_path)])
    assert code == 0
    assert "no data" in svg_path.read_text()


def test_audit_constants_exits_clean():
    code, out = run_cli(["audit-constants"])
    assert code == 0
    assert "class_sum_cap" in out or "4.3" in out


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gvdc", "thresholds", "--n", "13"],
        capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0
    assert "13,4,4,4" in proc.stdout


def test_gvdc_workers_env(tmp_path, monkeypatch):
    monkeypatch.setenv("GVDC_WORKERS", "2")
    out_csv = tmp_path / "runs.csv"
    code, _ = run_cli(["experiment", "--n", "11", "--trials", "6",
                       "--seed", "8", "--out", str(out_csv)])
    assert code == 0
    body = out_csv.read_text()
    assert "workers" not in body  # execution knobs stay out of the echo


def _resolves(module, name):
    """Whether `from module import name` would succeed."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:  # a submodule that nothing has imported yet
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_benchmark_imports_resolve():
    """Every gvdc name that the benchmark's probes, checks and tracer
    reach for exists, so a cleanup of the package cannot abort a run."""
    wanted = set()
    for script in ("probes.py", "checks.py"):
        with open(os.path.join(PERFBENCH, script)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and \
                    (node.module or "").split(".")[0] == "gvdc":
                wanted.update((node.module, a.name) for a in node.names)
            elif isinstance(node, ast.Import):
                wanted.update(("gvdc", a.name.split(".", 1)[1])
                              for a in node.names
                              if a.name.startswith("gvdc."))
    with open(os.path.join(PERFBENCH, "tracer.py")) as fh:
        tree = ast.parse(fh.read())
    wrapped = [ast.literal_eval(node.value) for node in tree.body
               if isinstance(node, ast.Assign)
               and [t.id for t in node.targets] == ["WRAPPED"]]
    assert wanted and len(wrapped) == 1 and wrapped[0]
    wanted.update(wrapped[0])
    missing = [f"{m}.{n}" for m, n in sorted(wanted) if not _resolves(m, n)]
    assert missing == []
