"""Span tracer for the benchmark's traced runs.

The tracer wraps public gvdc functions from outside the package: every
module attribute that is one of the wrapped functions is replaced by a
wrapper that records a span (id, name, start, end, parent) and a call
count.  Spans stay in memory and are written out when the traced process
ends.  Nothing under src/ is modified.

Process-pool workers of `experiment_distance` are forked from the traced
process, so they inherit the wrappers.  Each worker starts an empty span
list after the fork and writes its own spans to `<out>.<pid>.json` from a
multiprocessing finalizer when the pool shuts it down; `load_spans` merges
those files with the parent's.  Span ids are "pid:counter", so a worker
span's parent can be a span of the process that forked it.

Run a traced command line with

    PYTHONPATH=src python3 perfbench/tracer.py --out spans.json \
        --run-id verify_all-1 -- verify all --trials 200 --json out.json
"""

from __future__ import annotations

import argparse
import functools
import glob
import importlib
import json
import multiprocessing.util
import os
import sys
import time

# (module, public name) pairs wrapped in every traced process: the CLI
# entry, the audits and the experiment runner, and the public names that
# verify calls downward.  Every public function of gvdc.bounds is added by
# `_targets`.
WRAPPED = [
    ("gvdc.cli", "main"),
    ("gvdc.verify", "verify_lemma_cx"),
    ("gvdc.verify", "verify_orbit_bound"),
    ("gvdc.verify", "verify_triplesum"),
    ("gvdc.verify", "verify_triplesum_sweep"),
    ("gvdc.verify", "verify_repetition"),
    ("gvdc.verify", "verify_distrib_inequality"),
    ("gvdc.verify", "verify_kappa_numerics"),
    ("gvdc.verify", "verify_enumeration"),
    ("gvdc.verify", "verify_c2_and_series"),
    ("gvdc.verify", "experiment_distance"),
    ("gvdc.verify", "triple_sum_value"),
    ("gvdc.verify", "expected_count_exact"),
    ("gvdc.verify", "orbit_bound_value"),
    ("gvdc.verify", "prob_positive_bruteforce"),
    ("gvdc.verify", "dc_distance_table"),
    ("gvdc.spectrum", "min_distance_exact"),
    ("gvdc.spectrum", "low_weight_search"),
    ("gvdc.spectrum", "weight_distribution"),
    ("gvdc.codes", "dc_sample"),
    ("gvdc.codes", "divisor_codes"),
    ("gvdc.codes", "nonrepetition_codes"),
    ("gvdc.codes", "cyclic_from_vector"),
    ("gvdc.codes", "membership_probability"),
    ("gvdc.gf2poly", "factorize"),
    ("gvdc.numbertheory", "next_kasami_prime"),
]


# spans of these functions also keep their integer positional arguments,
# which tell the exact level-sum audits (n = p^m <= 14) from the sampled ones
KEEP_ARGS = {"verify.verify_lemma_cx", "verify.verify_orbit_bound",
             "verify.verify_triplesum", "verify.verify_triplesum_sweep"}


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system


def _targets() -> list[tuple[str, str]]:
    bounds = importlib.import_module("gvdc.bounds")
    extra = [("gvdc.bounds", name) for name, obj in vars(bounds).items()
             if callable(obj) and not name.startswith("_")
             and getattr(obj, "__module__", None) == "gvdc.bounds"
             and not isinstance(obj, type)]
    return WRAPPED + sorted(extra)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, run_id: str, out: str | None = None):
        self.run_id = run_id
        self.out = out
        self._stack: list[str] = []
        self._reset()
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _reset(self) -> None:
        self.pid = os.getpid()
        # (id, name, start, end, parent id, kept arguments)
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self._next = 0
        self.born = time.perf_counter()
        self.cpu0 = _cpu_s()

    def _after_fork(self) -> None:
        # runs in a multiprocessing child after the fork; the inherited
        # stack keeps the forking span as parent of the child's spans
        self._reset()
        if self.out is not None:
            multiprocessing.util.Finalize(
                self, self.dump, args=(f"{self.out}.{self.pid}.json",),
                exitpriority=100)

    def wrap(self, name: str, fn):
        keep = name in KEEP_ARGS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = f"{self.pid}:{self._next}"
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, name, start, end, parent,
                                   [a for a in args if type(a) is int]
                                   if keep else None))
                self.counts[name] = self.counts.get(name, 0) + 1
        return traced

    def install(self) -> None:
        """Replace every reference to a target function in the loaded gvdc
        modules, so calls through `from .x import f` names are traced too."""
        importlib.import_module("gvdc.cli")
        originals = {}
        for mod, name in _targets():
            fn = getattr(importlib.import_module(mod), name)
            short = mod.split(".", 1)[1] + "." + name
            originals[id(fn)] = (fn, self.wrap(short, fn))
        for modname, module in list(sys.modules.items()):
            if modname != "gvdc" and not modname.startswith("gvdc."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def record(self, wall_s: float | None = None,
               cpu_s: float | None = None) -> dict:
        """wall_s and cpu_s cover the traced call; by default, the whole
        life of the process since the tracer started or forked."""
        return {
            "run_id": self.run_id, "pid": self.pid,
            "cpu_s": _cpu_s() - self.cpu0 if cpu_s is None else cpu_s,
            "wall_s": (time.perf_counter() - self.born
                       if wall_s is None else wall_s),
            "counts": self.counts,
            "spans": self.spans,
        }

    def dump(self, path: str, wall_s: float | None = None,
             cpu_s: float | None = None) -> None:
        with open(path, "w") as fh:
            json.dump(self.record(wall_s, cpu_s), fh)


def load_spans(path: str) -> list[dict]:
    """The parent's record first, then one record per pool worker."""
    with open(path) as fh:
        records = [json.load(fh)]
    for worker in sorted(glob.glob(glob.escape(path) + ".*.json")):
        with open(worker) as fh:
            records.append(json.load(fh))
    return records


# ---------------------------------------------------------------------------
# span analysis

AUDITS = {
    "verify.verify_lemma_cx": "cx",
    "verify.verify_orbit_bound": "orbit",
    "verify.verify_repetition": "repetition",
    "verify.verify_distrib_inequality": "distrib",
    "verify.verify_kappa_numerics": "kappa",
    "verify.verify_enumeration": "enumeration",
    "verify.verify_c2_and_series": "c2series",
}
AUDIT_GROUPS = ["cx", "orbit", "triplesum_exact", "triplesum_mc",
                "repetition", "distrib", "kappa", "enumeration", "c2series"]


def all_spans(records: list[dict]) -> list[dict]:
    """Spans of every process of one traced run, as dicts."""
    return [{"id": s[0], "name": s[1], "start": s[2], "end": s[3],
             "parent": s[4], "args": s[5], "pid": r["pid"],
             "run_id": r["run_id"]}
            for r in records for s in r["spans"]]


def self_times(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds.  Self time is the
    duration minus the direct children in the same process; work done in a
    private function therefore counts as its caller's self time."""
    child_s: dict[str, float] = {}
    pid_of = {s["id"]: s["pid"] for s in spans}
    for s in spans:
        if s["parent"] is not None and pid_of.get(s["parent"]) == s["pid"]:
            child_s[s["parent"]] = (child_s.get(s["parent"], 0.0)
                                    + s["end"] - s["start"])
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0})
        dur = s["end"] - s["start"]
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child_s.get(s["id"], 0.0)
    return out


def audit_seconds(spans: list[dict]) -> dict[str, float]:
    """Seconds in each audit group: the outermost verify_* spans, nested
    lower-layer spans included, so the groups never overlap."""
    by_id = {s["id"]: s for s in spans}

    def group(s):
        if s["name"] in AUDITS:
            return AUDITS[s["name"]]
        if s["name"] in ("verify.verify_triplesum",
                         "verify.verify_triplesum_sweep"):
            p, m = s["args"][:2]
            return "triplesum_exact" if p**m <= 14 else "triplesum_mc"
        return None

    out = {g: 0.0 for g in AUDIT_GROUPS}
    for s in spans:
        g = group(s)
        if g is None:
            continue
        parent = by_id.get(s["parent"])
        while parent is not None and group(parent) is None:
            parent = by_id.get(parent["parent"])
        if parent is None:
            out[g] += s["end"] - s["start"]
    return out


def trial_ms(spans: list[dict]) -> list[float]:
    """Per-trial times: every trial starts by sampling its column, so one
    trial runs from a `dc_sample` call to the next one under the same
    parent in the same process.  The last trial of each run of calls has
    no visible end and is left out."""
    starts: dict[tuple, list[float]] = {}
    for s in spans:
        if s["name"] == "codes.dc_sample":
            starts.setdefault((s["pid"], s["parent"]), []).append(s["start"])
    out = []
    for seq in starts.values():
        seq.sort()
        out.extend(1e3 * (b - a) for a, b in zip(seq, seq[1:]))
    return out


# callers that evaluate the distance of every column they sample: the
# capped kernel in the Monte Carlo audits, the exact kernel or the search
# in experiments
DISTANCE_CALLERS = {"verify.verify_triplesum", "verify.verify_triplesum_sweep",
                    "verify.experiment_distance"}


def distance_columns(spans: list[dict]) -> int:
    """Sampled columns whose distance the run evaluates: `dc_sample` spans
    under one of DISTANCE_CALLERS, pool workers included.  It counts the
    kernel's work whichever function evaluates a column, public or
    private; the cached exhaustive tables of `dc_distance_table` are not
    sampled and are not counted."""
    by_id = {s["id"]: s for s in spans}

    def under_caller(s):
        parent = by_id.get(s["parent"])
        while parent is not None:
            if parent["name"] in DISTANCE_CALLERS:
                return True
            parent = by_id.get(parent["parent"])
        return False

    return sum(1 for s in spans
               if s["name"] == "codes.dc_sample" and under_caller(s))


def worker_busy_frac(records: list[dict]) -> float:
    """CPU time of the processes that ran trials over (workers x wall of
    the traced call).  Without pool workers the traced process is the
    only worker."""
    workers = records[1:] or records[:1]
    busy = sum(r["cpu_s"] for r in workers)
    return busy / (len(workers) * records[0]["wall_s"])


def write_jsonl(spans: list[dict], path: str) -> None:
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--run-id", required=True)
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tracer = Tracer(args.run_id, args.out)
    tracer.install()
    import gvdc.cli
    start, cpu = time.perf_counter(), _cpu_s()
    try:
        code = gvdc.cli.main(cli_args)
    finally:
        tracer.dump(args.out, wall_s=time.perf_counter() - start,
                    cpu_s=_cpu_s() - cpu)
    return code


if __name__ == "__main__":
    sys.exit(main())
