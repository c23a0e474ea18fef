"""gvdc benchmark: three CLI workloads, layer probes and a traced run.

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  The program is imported from src/ of
that checkout (PYTHONPATH=src); its byte code is compiled first so no
timed process compiles it.  Each CLI invocation runs in a fresh process,
one at a time, in a closed loop: the next starts when the last has ended.

--trace 0 measures the end-to-end metrics of one workload: fresh-process
set-up probes interleaved with repeated CLI runs for --seconds seconds,
reporting medians.  --trace 1 makes one untraced and one traced CLI run of
the workload (and of verify_all, whose audit spans every trace reports),
then runs the layer probes of probes.py; it reports the per-layer metrics.

Every CLI output is checked (checks.py).  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  A full
record with provenance, sample counts and span self times is written to
.bench_build/perfbench/result-<workload>-seed<seed>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import compileall
import dataclasses
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
PY = sys.executable or "python3"
# every run ends well inside the 180 s a run may take
DEADLINE_S = 170.0

sys.path.insert(0, HERE)
sys.path.insert(0, SRC)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    trials: int          # Monte Carlo columns per n, or experiment trials
    setup_reps: int      # fresh-process set-up probes per end-to-end run
    n: int = 0
    mode: str = ""
    workers: int = 1

    def argv(self, seed: int, out: str) -> list[str]:
        if self.name == "verify_all":
            return ["verify", "all", "--trials", str(self.trials),
                    "--seed", str(seed),
                    "--json", os.path.join(out, "verify.json")]
        return ["experiment", "--n", str(self.n), "--mode", self.mode,
                "--workers", str(self.workers), "--trials", str(self.trials),
                "--out", os.path.join(out, "records.csv"),
                "--summary", os.path.join(out, "summary.json"),
                "--seed", str(seed)]

    def units(self) -> int:
        """Trials per CLI run; for verify_all, the sampled Monte Carlo
        columns (n = 25 and n = 27)."""
        return 2 * self.trials if self.name == "verify_all" else self.trials

    def check(self, out: str, seed: int, returncode: int, ref: dict):
        import checks
        if self.name == "verify_all":
            return checks.check_verify(os.path.join(out, "verify.json"),
                                       seed, self.trials, returncode, ref)
        return checks.check_experiment(
            os.path.join(out, "records.csv"),
            os.path.join(out, "summary.json"), self.n, seed, self.trials,
            self.mode, returncode, ref, self.name)


# why each workload is there: BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in [
    Workload("verify_all", trials=200, setup_reps=9),
    Workload("exact_n25", trials=30, setup_reps=2, n=25, mode="exact",
             workers=2),
    Workload("search_n61", trials=25, setup_reps=9, n=61, mode="search"),
]}


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind
    of run; every run reports exactly these."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


class Clock:
    """The run's deadline, shared by every child process it starts."""

    def __init__(self):
        self.t0 = time.perf_counter()

    def left(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.t0)


@dataclasses.dataclass
class Proc:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    log: str


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_process(cmd: list[str], log: str, clock: Clock) -> Proc:
    """Run cmd in its own session and wait for it; rusage covers the
    process and every descendant it waited for (pool workers)."""
    if clock.left() <= 5:
        raise TimeoutError("benchmark deadline reached")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("GVDC_WORKERS", None)
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                cwd=ROOT, env=env, start_new_session=True)
        timer = threading.Timer(clock.left() - 2, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # anything the child left behind
    return Proc(proc.returncode, wall, ru.ru_utime + ru.ru_stime,
                ru.ru_maxrss / 1024, log)


class Aborted(RuntimeError):
    """A probe or a traced run could not finish, so the run has no
    metrics."""


def probe(name: str, args: list[str], log: str, clock: Clock) -> dict:
    try:
        p = run_process([PY, os.path.join(HERE, "probes.py"), name, *args],
                        log, clock)
    except TimeoutError as exc:
        raise Aborted(f"probe {name} not started: {exc}") from None
    with open(log) as fh:
        lines = fh.read().splitlines()
    if p.returncode != 0 or not lines:
        raise Aborted(f"probe {name} failed ({p.returncode}); see {log}")
    return json.loads(lines[-1])


@dataclasses.dataclass
class CliRun:
    proc: Proc
    attempted: int
    failed: int
    problems: list[str]


def run_cli(wl: Workload, seed: int, out: str, clock: Clock, ref: dict,
            spans: str | None = None) -> CliRun:
    os.makedirs(out, exist_ok=True)
    if spans is None:
        cmd = [PY, "-m", "gvdc"]
    else:
        cmd = [PY, os.path.join(HERE, "tracer.py"), "--out", spans,
               "--run-id", os.path.basename(out), "--"]
    try:
        p = run_process(cmd + wl.argv(seed, out),
                        os.path.join(out, "cli.log"), clock)
    except TimeoutError:
        p = None  # not started: the check finds no output
    attempted, failed, problems = wl.check(
        out, seed, -1 if p is None else p.returncode, ref)
    return CliRun(p, attempted, failed, problems)


# ---------------------------------------------------------------------------
# provenance


def provenance(wl: Workload, seed: int) -> dict:
    import mpmath
    import numpy
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "gvdc", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {
        "workload": wl.name, "seed": seed, "n": wl.n or None,
        "trials": wl.trials, "units_per_run": wl.units(),
        "workers": wl.workers, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu_model": model,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "mpmath": mpmath.__version__, "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(wl: Workload, seed: int, seconds: int, work: str,
               clock: Clock, ref: dict, units: dict[str, str],
               runs: list[CliRun]):
    """Set-up probes interleaved with CLI runs; CLI runs go on while one
    more fits in --seconds.  Each CLI run is appended to runs."""
    setup_args = ["setup", ["--workload", wl.name, "--seed", str(seed)]]
    setups: list[float] = []
    started = time.perf_counter()
    while True:
        if len(setups) < wl.setup_reps:
            setups.append(probe(*setup_args, os.path.join(
                work, f"setup{len(setups)}.log"), clock)["setup_s"])
        run = run_cli(wl, seed, os.path.join(work, f"run{len(runs)}"),
                      clock, ref)
        runs.append(run)
        if run.proc is None or (time.perf_counter() - started
                                + run.proc.wall_s > seconds):
            break
    while len(setups) < wl.setup_reps:
        setups.append(probe(*setup_args, os.path.join(
            work, f"setup{len(setups)}.log"), clock)["setup_s"])
    done = [r.proc for r in runs if r.proc is not None]
    if not done:
        raise Aborted("no CLI run started before the deadline")
    samples = {
        "wall_s": [p.wall_s for p in done],
        "setup_s": setups,
        # whole-run throughput: the set-up probe and the CLI run see the
        # machine at different speeds, so wall - setup is not steady
        "trials_per_s": [wl.units() / p.wall_s for p in done],
        "cpu_s": [p.cpu_s for p in done],
        "peak_rss_mb": [p.peak_rss_mb for p in done],
    }
    metrics = {k: (statistics.median(v), units[k], len(v))
               for k, v in samples.items()}
    return metrics, {"samples": samples}


def traced_pair(wl: Workload, seed: int, work: str, clock: Clock, ref: dict,
                runs: list[CliRun]):
    """One untraced and one traced CLI run of wl, both appended to runs."""
    untraced = run_cli(wl, seed, os.path.join(work, wl.name + "-untraced"),
                       clock, ref)
    spans_path = os.path.join(work, wl.name + "-spans.json")
    traced = run_cli(wl, seed, os.path.join(work, wl.name + "-traced"),
                     clock, ref, spans=spans_path)
    runs += [untraced, traced]
    if (untraced.proc is None or traced.proc is None
            or not os.path.isfile(spans_path)):
        raise Aborted(f"traced pair of {wl.name} did not finish; see "
                      f"{os.path.dirname(spans_path)}")
    import tracer
    records = tracer.load_spans(spans_path)
    spans = tracer.all_spans(records)
    tracer.write_jsonl(spans, os.path.join(work, wl.name + "-spans.jsonl"))
    return untraced, traced, records, spans


def per_layer(wl: Workload, seed: int, work: str, clock: Clock, ref: dict,
              units: dict[str, str], runs: list[CliRun]):
    """Traced pairs and layer probes; each CLI run is appended to runs."""
    import probes
    import tracer
    verify = WORKLOADS["verify_all"]
    extra: dict = {}
    m: dict = {}

    def put(name, value, samples=1):
        m[name] = (value, units.get(name, "?"), samples)

    # audit spans come from verify_all, whatever the workload
    v_untraced, v_traced, v_records, v_spans = traced_pair(
        verify, seed, work, clock, ref, runs)
    if wl is verify:
        untraced, traced, records, spans = (v_untraced, v_traced,
                                            v_records, v_spans)
    else:
        untraced, traced, records, spans = traced_pair(wl, seed, work,
                                                       clock, ref, runs)

    audits = tracer.audit_seconds(v_spans)
    for group in tracer.AUDIT_GROUPS:
        put(f"verify.audit_s.{group}", audits[group])
    v_setup = statistics.median(
        probe("setup", ["--workload", "verify_all", "--seed", str(seed)],
              os.path.join(work, f"vsetup{i}.log"), clock)["setup_s"]
        for i in range(3))
    put("verify.audit_residual_s",
        v_untraced.proc.wall_s - v_setup - sum(audits.values()))
    # the same question within one process: traced cli.main minus the audits
    put("verify.audit_residual_traced_s",
        sum(s["end"] - s["start"] for s in v_spans if s["name"] == "cli.main")
        - sum(audits.values()))

    trials = tracer.trial_ms(spans)
    t_value, t_pct, t_count = probes.tail(trials)
    put("verify.trial_ms.p50", statistics.median(trials), len(trials))
    put("verify.trial_ms.tail", t_value, t_count)
    put("verify.worker_busy_frac", tracer.worker_busy_frac(records))
    counts: dict[str, int] = {}
    for r in records:
        for k, v in r["counts"].items():
            counts[k] = counts.get(k, 0) + v
    for name, span in (("min_distance", "spectrum.min_distance_exact"),
                       ("low_weight_search", "spectrum.low_weight_search"),
                       ("weight_distribution", "spectrum.weight_distribution")):
        put(f"spectrum.{name}.calls", counts.get(span, 0))
    put("verify.distance_columns.calls", tracer.distance_columns(spans))
    put("trace.overhead_s", traced.proc.wall_s - untraced.proc.wall_s)

    s = ["--seed", str(seed)]
    imports = [probe("import", s, os.path.join(work, f"import{i}.log"),
                     clock)["import_s"] for i in range(5)]
    put("cli.import_s", statistics.median(imports), len(imports))
    colds = [probe("cold", s, os.path.join(work, f"cold{i}.log"), clock)
             for i in range(3)]
    for key in colds[0]:
        put(key, statistics.median(c[key] for c in colds), len(colds))
    warm = probe("warm", s, os.path.join(work, "warm.log"), clock)
    engine = probe("engine25", s, os.path.join(work, "engine25.log"), clock)
    for key, value in warm.items():
        put(key, value)
    for key, value in engine.items():
        if key.startswith("spectrum."):
            put(key, value, engine["samples"] if "_ms." in key else 1)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    put("failed_frac", failed / attempted)
    extra["tail_percentiles"] = {"verify.trial_ms": t_pct,
                                 "spectrum.min_distance_ms.n25":
                                     engine["tail_percentile"]}
    extra["self_times"] = {verify.name: tracer.self_times(v_spans),
                           wl.name: tracer.self_times(spans)}
    return m, extra


# ---------------------------------------------------------------------------


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {unit:<6} n={samples}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    clock = Clock()
    if not os.path.isfile(os.path.join(SRC, "gvdc", "__init__.py")):
        print(f"error: no gvdc sources under {SRC}; run from the root of a "
              "gvdc checkout", file=sys.stderr)
        return 2
    if not compileall.compile_dir(SRC, quiet=1):
        print("error: src/ does not compile", file=sys.stderr)
        return 2
    import checks
    wl = WORKLOADS[args.workload]
    work = os.path.join(WORK, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ref = checks.load_reference()
    units = declared_units(args.trace)
    runs: list[CliRun] = []
    try:
        if args.trace:
            metrics, extra = per_layer(wl, args.seed, work, clock, ref,
                                       units, runs)
        else:
            metrics, extra = end_to_end(wl, args.seed, args.seconds, work,
                                        clock, ref, units, runs)
        aborted = None
    except Aborted as exc:
        # a probe or traced run failed or hit the deadline: the run reports
        # it and counts every operation it made as failed
        metrics, extra, aborted = {}, {}, str(exc)
    if aborted is None and set(metrics) != set(units):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    attempted = max(1, sum(r.attempted for r in runs))
    failed = attempted if aborted else sum(r.failed for r in runs)
    problems = [p for r in runs for p in r.problems]
    if aborted:
        problems.insert(0, f"run aborted: {aborted}")
    run_wall_s = time.perf_counter() - clock.t0
    record = {
        "provenance": provenance(wl, args.seed),
        "trace": args.trace, "seconds": args.seconds,
        "run_wall_s": run_wall_s,
        "attempted": attempted, "failed": failed, "problems": problems,
        "cli_runs": [dataclasses.asdict(r.proc) for r in runs if r.proc],
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in metrics.items()},
        **extra,
    }
    with open(os.path.join(WORK, f"result-{wl.name}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    for p in problems[:20]:
        print(f"check failed: {p}")
    for name, table in extra.get("self_times", {}).items():
        print(f"span self times, traced {name} run (top 12 of {len(table)}):")
        top = sorted(table.items(), key=lambda kv: -kv[1]["self_s"])[:12]
        for span, row in top:
            print(f"  {span:<42} self {row['self_s']:9.4f} s  total "
                  f"{row['total_s']:9.4f} s  calls {row['calls']}")
    print_table(f"{wl.name} seed={args.seed} trace={args.trace} "
                f"(run took {run_wall_s:.1f} s; {len(runs)} CLI runs, "
                f"{failed}/{attempted} operations failed)", metrics)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
