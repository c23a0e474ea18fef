"""Command-line front end: constructions, audits, experiments, persistence.

Exit codes: 0 success, 1 usage error, 2 some verification reported a
violation, 3 a computation budget was exceeded.  All file outputs are
written atomically (temp + rename) and each run that writes files leaves a
manifest sidecar carrying the config snapshot, input hashes, output
checksums, and wall-clock times.  Wall-clock data lives only in the
manifest so the CSV/JSON/SVG outputs stay byte-identical across reruns.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
from datetime import datetime, timezone
from fractions import Fraction

from . import __version__, bounds
from . import verify as audits
from .bounds import CONSTANTS, ProofConstants
from .codes import (BitVec, CyclicCode, DoubleCirculantCode, bitvec_to_str,
                    dc_sample)
from .gf2poly import BudgetExceededError, Poly, factorize, poly_to_str
from .numbertheory import is_prime, kasami_check
from .spectrum import (dc_weight_distribution, low_weight_search,
                       min_distance_exact, weight_distribution)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATED = 2
EXIT_BUDGET = 3

EXPERIMENT_HEADER = ["n", "trial", "seed", "a", "d_found", "exact",
                     "gv_guarantee", "threshold_kind", "threshold"]
PRIMES_HEADER = ["p", "order_of_2", "primitive", "wieferich_ok", "kasami"]
THRESHOLDS_HEADER = ["n", "gv_guarantee", "simple_threshold",
                     "main_threshold"]
SPECTRUM_HEADER = ["i", "A_i"]

_VERIFY_TARGETS = ("all", "cx", "orbit", "triplesum", "repetition",
                   "distrib", "kappa", "enumeration", "c2series")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise UsageError(message)


# ---------------------------------------------------------------------------
# small parsing helpers


def _parse_column(text: str, n: int, max_bits: int | None = None) -> int:
    """A column/generator value: either a bitstring whose character i is
    coordinate i, or hex with an 0x prefix."""
    cap = n if max_bits is None else max_bits
    if text.lower().startswith("0x"):
        try:
            value = int(text, 16)
        except ValueError:
            raise UsageError(f"bad hex value {text!r}")
    elif text and set(text) <= {"0", "1"}:
        if len(text) > cap:
            raise UsageError(f"bitstring {text!r} longer than {cap} bits")
        value = sum(1 << i for i, ch in enumerate(text) if ch == "1")
    else:
        raise UsageError(f"value {text!r} is neither a bitstring nor 0x hex")
    if value >> cap:
        raise UsageError(f"value {text!r} does not fit in {cap} bits")
    return value


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"expected a boolean, got {text!r}")


def _parse_config_text(text: str) -> dict[str, str]:
    """Flat key = value lines; [section] headers prefix following keys."""
    out: dict[str, str] = {}
    section = ""
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            raise UsageError(f"config line {ln}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip()
        full = f"{section}.{key}" if section else key
        if full in out:
            raise UsageError(f"config line {ln}: duplicate key {full!r}")
        out[full] = val.strip()
    return out


_CONST_FIELDS = {f.name: f for f in dataclasses.fields(ProofConstants)}


def _apply_const_overrides(pairs: dict[str, str]) -> tuple[ProofConstants, dict]:
    """Typed overrides for the published constants; unknown names rejected."""
    typed = {}
    echo = {}
    for name, raw in sorted(pairs.items()):
        if name not in _CONST_FIELDS:
            raise UsageError(f"unknown constant {name!r}; valid: "
                             + ", ".join(sorted(_CONST_FIELDS)))
        current = getattr(CONSTANTS, name)
        try:
            if isinstance(current, Fraction):
                typed[name] = Fraction(raw)
            elif isinstance(current, bool):
                typed[name] = _parse_bool(raw)
            elif isinstance(current, int):
                typed[name] = int(raw)
            else:
                typed[name] = float(raw)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad value {raw!r} for constant {name}")
        echo[f"const.{name}"] = raw
    return dataclasses.replace(CONSTANTS, **typed), echo


def _const_pairs_from_flags(items: list[str] | None) -> dict[str, str]:
    out: dict[str, str] = {}
    for item in items or []:
        key, sep, val = item.partition("=")
        if not sep:
            raise UsageError(f"--const needs name=value, got {item!r}")
        out[key.strip()] = val.strip()
    return out


# ---------------------------------------------------------------------------
# output plumbing


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_atomic(path: str, data: bytes) -> None:
    target = os.path.abspath(path)
    os.makedirs(os.path.dirname(target), exist_ok=True)
    tmp = target + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, target)


def _iso(stamp: float) -> str:
    return datetime.fromtimestamp(stamp, timezone.utc).isoformat()


def _emit_outputs(command: str, config: dict, outputs: dict[str, bytes],
                  primary: str, input_hashes: dict[str, str],
                  started: float) -> None:
    """Write every output atomically, then the manifest sidecar next to the
    primary output."""
    for path, data in outputs.items():
        _write_atomic(path, data)
    manifest = {
        "version": __version__,
        "command": command,
        "config": {k: str(v) for k, v in sorted(config.items())},
        "started_utc": _iso(started),
        "finished_utc": _iso(time.time()),
        "input_hashes": dict(sorted(input_hashes.items())),
        "outputs": {os.path.basename(p): _sha256(d)
                    for p, d in sorted(outputs.items())},
    }
    blob = json.dumps(manifest, indent=2, sort_keys=True).encode() + b"\n"
    _write_atomic(primary + ".manifest.json", blob)


def _csv_bytes(header: list[str], rows: list[list], comments: list[str]) -> bytes:
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    lines.extend(",".join("" if v is None else str(v) for v in row)
                 for row in rows)
    return ("\n".join(lines) + "\n").encode()


def _config_comment(config: dict) -> str:
    return "config: " + " ".join(f"{k}={v}" for k, v in sorted(config.items()))


def _bool_str(flag: bool) -> str:
    return "true" if flag else "false"


def _deliver_csv(args_out: str | None, command: str, config: dict,
                 header: list[str], rows: list[list], started: float) -> None:
    """CSV to stdout, or to a file plus manifest sidecar when --out given."""
    if args_out is None:
        sys.stdout.write(_csv_bytes(header, rows,
                                    [_config_comment(config)]).decode())
        return
    manifest_name = os.path.basename(args_out) + ".manifest.json"
    comments = [_config_comment(config), f"manifest: {manifest_name}"]
    outputs = {args_out: _csv_bytes(header, rows, comments)}
    _emit_outputs(command, config, outputs, args_out, {}, started)
    print(f"wrote {args_out} (+ {manifest_name})")


# ---------------------------------------------------------------------------
# subcommands


def cmd_factor(args) -> int:
    fact = factorize(args.n)
    print(f"Z^{args.n}+1 = product of {len(fact.factors)} irreducible factors")
    for g in fact.factors:
        print(f"  deg={g.bit_length() - 1:3d}  {poly_to_str(Poly(g, args.n + 1))}")
    return EXIT_OK


def cmd_primes(args) -> int:
    started = time.time()
    if args.start < 3:
        raise UsageError("--from must be at least 3")
    if args.count < 1:
        raise UsageError("--count must be positive")
    rows = []
    found = 0
    p = args.start
    budget = args.start + 1_000_000
    while found < args.count:
        if p > budget:
            raise BudgetExceededError(
                f"no {args.count} suitable primes in [{args.start}, {budget}]")
        if is_prime(p):
            rep = kasami_check(p)
            if rep.kasami:
                found += 1
            if rep.kasami or args.all:
                rows.append([rep.p, rep.order_of_2, _bool_str(rep.primitive),
                             _bool_str(rep.wieferich_ok), _bool_str(rep.kasami)])
        p += 1
    config = {"from": args.start, "count": args.count, "all": args.all}
    _deliver_csv(args.out, "primes", config, PRIMES_HEADER, rows, started)
    return EXIT_OK


def cmd_thresholds(args) -> int:
    started = time.time()
    if args.n is not None:
        ns = [args.n]
    elif args.start is not None and args.end is not None:
        if args.end < args.start:
            raise UsageError("--to must be >= --from")
        ns = list(range(args.start, args.end + 1))
    else:
        raise UsageError("give --n, or both --from and --to")
    consts, echo = _apply_const_overrides(_const_pairs_from_flags(args.const))
    rows = []
    for n in ns:
        if n < 2:
            raise UsageError("lengths start at 2")
        try:
            simple = bounds.simple_threshold(n)
        except ValueError:
            simple = None
        rows.append([n, bounds.gv_guarantee(n), simple,
                     bounds.main_threshold(n, b=consts.ball_fraction)])
    config = {"n": args.n, "from": args.start, "to": args.end, **echo}
    config = {k: v for k, v in config.items() if v is not None}
    _deliver_csv(args.out, "thresholds", config, THRESHOLDS_HEADER, rows,
                 started)
    return EXIT_OK


def cmd_audit_constants(args) -> int:
    consts, echo = _apply_const_overrides(_const_pairs_from_flags(args.const))
    print(f"published constants{' (with overrides)' if echo else ''}:")
    for f in dataclasses.fields(ProofConstants):
        print(f"  {f.name:18s} = {getattr(consts, f.name)}")
    from mpmath import nstr

    print(f"  {'gamma':18s} = {nstr(consts.gamma(), 12)} (2^{consts.decay_log2})")
    print(f"  {'scale':18s} = {nstr(consts.scale(), 12)} (2^{consts.scale_log2})")
    reports = [audits.verify_kappa_numerics(consts),
               audits.verify_c2_and_series(consts)]
    _print_reports(reports)
    return EXIT_VIOLATED if any(not r.ok() for r in reports) else EXIT_OK


def cmd_sample(args) -> int:
    if args.count < 1:
        raise UsageError("--count must be positive")
    for i in range(args.count):
        code = dc_sample(args.n, audits.trial_seed(args.seed, i))
        print(code.serialize())
    return EXIT_OK


def cmd_mindist(args) -> int:
    a = BitVec(_parse_column(args.a, args.n), args.n)
    code = DoubleCirculantCode(args.n, a)
    if args.search:
        w = args.w if args.w is not None else bounds.gv_guarantee(args.n)
        res = low_weight_search(code, w, effort=args.effort, seed=args.seed)
    else:
        res = min_distance_exact(code)
    payload: dict = {"n": args.n, "a": hex(a.bits)}
    if res is None:
        payload.update({"d": None, "exact": False,
                        "note": f"no codeword of weight <= {w} found"})
    else:
        payload.update({"d": res.value, "exact": res.exact})
        payload["witness"] = bitvec_to_str(res.witness)
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    elif res is None:
        print(payload["note"])
    else:
        rel = "=" if res.exact else "<="
        print(f"d{rel}{res.value} witness={payload.get('witness')}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    started = time.time()
    if (args.a is None) == (args.g is None):
        raise UsageError("give exactly one of --a (circulant column) or "
                         "--g (cyclic generator)")
    if args.a is not None:
        code = DoubleCirculantCode(args.n, BitVec(_parse_column(args.a, args.n),
                                                  args.n))
        wd = dc_weight_distribution(code)
        config = {"n": args.n, "a": hex(code.a.bits)}
    else:
        g = _parse_column(args.g, args.n, max_bits=args.n + 1)
        code = CyclicCode(args.n, g)
        wd = weight_distribution(code)
        config = {"n": args.n, "g": hex(g)}
    rows = [[i, c] for i, c in enumerate(wd.counts)]
    _deliver_csv(args.out, "spectrum", config, SPECTRUM_HEADER, rows, started)
    return EXIT_OK


def cmd_expected(args) -> int:
    exact = audits.expected_count_exact(args.n, args.w)
    print(f"expected_nonzero_codewords(n={args.n}, w={args.w}) = {exact}"
          f" (~{float(exact):.6g})")
    code = EXIT_OK
    if args.bruteforce:
        brute = audits.expected_count_bruteforce(args.n, args.w)
        agree = brute == exact
        print(f"bruteforce oracle = {brute} ({'agrees' if agree else 'DISAGREES'})")
        if not agree:
            code = EXIT_VIOLATED
    if args.orbit:
        print(f"orbit-weighted bound = {audits.orbit_bound_value(args.n, args.w)}")
    return code


def _print_reports(reports) -> None:
    if not reports:
        print("nothing to report")
        return
    width = max(len(r.lemma) for r in reports)
    for r in reports:
        params = " ".join(f"{k}={v}" for k, v in r.parameters.items())
        line = (f"{r.lemma:<{width}}  {r.status:<17}  lhs={r.lhs}  rhs={r.rhs}"
                f"  [{params}]  ({r.runtime:.2f}s)")
        print(line)
        if r.counterexample:
            print(f"{'':<{width}}  counterexample: {r.counterexample}")
        if r.notes:
            print(f"{'':<{width}}  note: {r.notes}")
    bad = sum(1 for r in reports if not r.ok())
    print(f"-- {len(reports)} checks, {bad} violated")


def _report_json(reports, config: dict) -> bytes:
    # runtimes are wall-clock and deliberately left out: the JSON report is
    # byte-stable for a fixed config
    body = {
        "version": __version__,
        "config": {k: str(v) for k, v in sorted(config.items())},
        "violated": any(not r.ok() for r in reports),
        "reports": [{
            "lemma": r.lemma,
            "parameters": {k: str(v) for k, v in r.parameters.items()},
            "status": r.status,
            "lhs": r.lhs,
            "rhs": r.rhs,
            "counterexample": r.counterexample,
            "notes": r.notes,
        } for r in reports],
    }
    return json.dumps(body, indent=2, sort_keys=True).encode() + b"\n"


def cmd_verify(args) -> int:
    started = time.time()
    consts, echo = _apply_const_overrides(_const_pairs_from_flags(args.const))
    target = args.target
    trials = args.trials if args.trials is not None else 10_000
    seed = args.seed if args.seed is not None else 0
    reports = []
    if target in ("all", "cx"):
        for n in ([args.n] if target == "cx" and args.n else (3, 5, 7, 9)):
            reports.append(audits.verify_lemma_cx(n))
    if target in ("all", "orbit"):
        ns = [args.n] if target == "orbit" and args.n else [9, 13]
        for n in ns:
            ws = ([args.w] if target == "orbit" and args.w is not None
                  else range(1, 2 * n + 1))
            for w in ws:
                reports.append(audits.verify_orbit_bound(n, w))
    if target in ("all", "triplesum"):
        if target == "triplesum" and args.p:
            families = [(args.p, args.m or 1)]
        else:
            families = [(3, 2), (13, 1), (5, 2), (3, 3)]
        for p, m in families:
            if target == "triplesum" and args.w is not None:
                reports.append(audits.verify_triplesum(p, m, args.w,
                                                       trials=trials,
                                                       seed=seed))
            else:
                reports.extend(audits.verify_triplesum_sweep(
                    p, m, trials=trials, seed=seed))
    if target in ("all", "repetition"):
        reports.append(audits.verify_repetition(args.max_tr))
    if target in ("all", "distrib"):
        reports.append(audits.verify_distrib_inequality(
            samples=args.samples, seed=seed if args.seed is not None else 7))
    if target in ("all", "kappa"):
        reports.append(audits.verify_kappa_numerics(consts))
    if target in ("all", "enumeration"):
        reports.append(audits.verify_enumeration(args.n if target == "enumeration"
                                                 else None, consts=consts))
    if target in ("all", "c2series"):
        reports.append(audits.verify_c2_and_series(consts))
    _print_reports(reports)
    config = {"target": target, "trials": trials, "seed": seed, **echo}
    if args.json_out:
        blob = _report_json(reports, config)
        _emit_outputs("verify", config, {args.json_out: blob}, args.json_out,
                      {}, started)
        print(f"wrote {args.json_out}")
    return EXIT_VIOLATED if any(not r.ok() for r in reports) else EXIT_OK


_EXPERIMENT_KEYS: dict = {
    "n": int, "p": int, "m": int, "trials": int, "seed": int, "mode": str,
    "w": int, "effort": int, "exhaustive": _parse_bool, "workers": int,
    "max_seconds": float, "out": str, "summary": str,
}


def _load_experiment_config(path: str) -> tuple[dict, dict, dict[str, str]]:
    """Config file -> (typed experiment settings, constant override strings,
    input hash map).  Unknown keys are a usage error."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}")
    pairs = _parse_config_text(raw.decode())
    settings: dict = {}
    const_pairs: dict[str, str] = {}
    for key, val in pairs.items():
        if key.startswith("const."):
            const_pairs[key[len("const."):]] = val
        elif key in _EXPERIMENT_KEYS:
            try:
                settings[key] = _EXPERIMENT_KEYS[key](val)
            except ValueError:
                raise UsageError(f"config key {key}: bad value {val!r}")
        else:
            raise UsageError(f"unknown config key {key!r}")
    return settings, const_pairs, {os.path.basename(path): _sha256(raw)}


def cmd_experiment(args) -> int:
    started = time.time()
    settings: dict = {}
    const_pairs: dict[str, str] = {}
    input_hashes: dict[str, str] = {}
    if args.config:
        settings, const_pairs, input_hashes = _load_experiment_config(args.config)
    # flags win over config; config wins over the environment/defaults
    for key in _EXPERIMENT_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    const_pairs.update(_const_pairs_from_flags(args.const))
    consts, echo = _apply_const_overrides(const_pairs)
    if "workers" not in settings:
        env = os.environ.get("GVDC_WORKERS", "").strip()
        if env:
            try:
                settings["workers"] = int(env)
            except ValueError:
                raise UsageError(f"GVDC_WORKERS must be an integer, got {env!r}")
    if settings.get("n") is None and settings.get("p") is None:
        raise UsageError("give --n, or --p (optionally with --m)")
    records, summary = audits.experiment_distance(
        n=settings.get("n"), p=settings.get("p"), m=settings.get("m", 1),
        trials=settings.get("trials", 1000), seed=settings.get("seed", 0),
        mode=settings.get("mode", "exact"),
        search_weight=settings.get("w"),
        effort=settings.get("effort", 200),
        exhaustive=settings.get("exhaustive", False),
        workers=settings.get("workers", 1),
        max_seconds=settings.get("max_seconds"),
        consts=consts)
    # workers and output paths steer execution, not results: keeping them
    # out of the echo keeps outputs byte-identical across worker counts
    config = {k: v for k, v in sorted(settings.items())
              if k not in ("out", "summary", "workers")}
    config.update(echo)
    summary["config"] = {k: str(v) for k, v in config.items()}
    rows = [[r.n, r.trial, r.seed, r.a_hex,
             "" if r.d_found is None else r.d_found,
             _bool_str(r.exact), r.gv, r.threshold_kind, r.threshold]
            for r in records]
    outputs: dict[str, bytes] = {}
    out_path = settings.get("out")
    summary_path = settings.get("summary")
    primary = out_path or summary_path
    if primary:
        manifest_name = os.path.basename(primary) + ".manifest.json"
        summary["manifest"] = manifest_name
        if out_path:
            comments = [_config_comment(config), f"manifest: {manifest_name}"]
            outputs[out_path] = _csv_bytes(EXPERIMENT_HEADER, rows, comments)
        blob = json.dumps(summary, indent=2, sort_keys=True).encode() + b"\n"
        if summary_path:
            outputs[summary_path] = blob
        _emit_outputs("experiment", config, outputs, primary, input_hashes,
                      started)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_BUDGET if summary["truncated"] else EXIT_OK


# ---------------------------------------------------------------------------
# plotting


def _svg_escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _read_records_csv(path: str) -> list[dict]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except OSError as exc:
        raise UsageError(f"cannot read {path!r}: {exc}")
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    if not body:
        raise UsageError(f"{path!r} has no header row")
    header = body[0].split(",")
    if header != EXPERIMENT_HEADER:
        raise UsageError(f"{path!r} does not match the experiment record "
                         f"schema {EXPERIMENT_HEADER}")
    rows = []
    for ln in body[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise UsageError(f"{path!r}: malformed row {ln!r}")
        rows.append(dict(zip(header, cells)))
    return rows


def _svg_document(body: list[str], comments: list[str]) -> bytes:
    head = ['<?xml version="1.0" encoding="UTF-8"?>']
    head.extend(f"<!-- {_svg_escape(c)} -->" for c in comments)
    head.append('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                'width="640" height="400" viewBox="0 0 640 400">')
    tail = ["</svg>"]
    return ("\n".join(head + body + tail) + "\n").encode()


_AXIS = "#555555"
_BAR = "#4477aa"
_GV = "#aa3377"
_THR = "#228833"
_BOUND = "#ee6677"


def _svg_frame(title: str) -> list[str]:
    return [
        '<rect x="0" y="0" width="640" height="400" fill="#ffffff"/>',
        f'<text x="320" y="22" text-anchor="middle" font-family="monospace" '
        f'font-size="14" fill="#222222">{_svg_escape(title)}</text>',
        f'<line x1="70" y1="344" x2="616" y2="344" stroke="{_AXIS}" '
        'stroke-width="1"/>',
        f'<line x1="70" y1="36" x2="70" y2="344" stroke="{_AXIS}" '
        'stroke-width="1"/>',
    ]


def _svg_vline(x: float, color: str, label: str, ty: float) -> list[str]:
    return [
        f'<line x1="{x:.2f}" y1="36" x2="{x:.2f}" y2="344" stroke="{color}" '
        'stroke-width="1.5" stroke-dasharray="6,3"/>',
        f'<text x="{x + 4:.2f}" y="{ty:.2f}" font-family="monospace" '
        f'font-size="12" fill="{color}">{_svg_escape(label)}</text>',
    ]


def _plot_svg(rows: list[dict], kind: str, comments: list[str]) -> bytes:
    ds = [int(r["d_found"]) for r in rows if r["d_found"] != ""]
    if not rows or not ds:
        body = _svg_frame(f"{kind}: no data")
        body.append('<text x="343" y="195" text-anchor="middle" '
                    'font-family="monospace" font-size="16" fill="#888888">'
                    'no data</text>')
        return _svg_document(body, comments)
    n = int(rows[0]["n"])
    gv = int(rows[0]["gv_guarantee"])
    kind_thr = rows[0]["threshold_kind"]
    threshold = int(rows[0]["threshold"])
    lo = min(min(ds), gv, threshold)
    hi = max(max(ds), gv + 1, threshold + 1)
    span = hi - lo + 1

    left, right, top, bottom = 70.0, 616.0, 36.0, 344.0

    def dx(value: float) -> float:
        return left + (value - (lo - 0.5)) / span * (right - left)

    hist: dict[int, int] = {}
    for d in ds:
        hist[d] = hist.get(d, 0) + 1
    body = _svg_frame(
        f"n={n} 2n={2 * n} trials={len(rows)} ({kind})")
    if kind == "histogram":
        peak = max(hist.values())
        for d in range(lo, hi + 1):
            c = hist.get(d, 0)
            if not c:
                continue
            h = (bottom - top - 10) * c / peak
            x0 = dx(d - 0.4)
            body.append(
                f'<rect x="{x0:.2f}" y="{bottom - h:.2f}" '
                f'width="{(dx(d + 0.4) - x0):.2f}" height="{h:.2f}" '
                f'fill="{_BAR}"/>')
            body.append(
                f'<text x="{dx(d):.2f}" y="{bottom - h - 4:.2f}" '
                f'text-anchor="middle" font-family="monospace" font-size="11" '
                f'fill="#222222">{c}</text>')
        ylab = "codes"
    else:  # threshold-overlay: empirical cumulative fraction of d <= x
        total = len(ds)
        pts = []
        acc = 0
        for d in range(lo, hi + 1):
            acc += hist.get(d, 0)
            pts.append((d, acc / total))
        scale = bottom - top - 10
        path = [f"M {dx(lo - 0.5):.2f} {bottom:.2f}"]
        prev = 0.0
        for d, frac in pts:
            path.append(f"L {dx(d - 0.5):.2f} {bottom - scale * prev:.2f}")
            path.append(f"L {dx(d - 0.5):.2f} {bottom - scale * frac:.2f}")
            prev = frac
        path.append(f"L {dx(hi + 0.5):.2f} {bottom - scale * prev:.2f}")
        body.append(f'<path d="{" ".join(path)}" fill="none" '
                    f'stroke="{_BAR}" stroke-width="2"/>')
        if kind_thr == "simple":
            bound = float(bounds.simple_prob_bound(n, threshold))
            y = bottom - scale * bound
            body.append(
                f'<line x1="{left:.2f}" y1="{y:.2f}" x2="{right:.2f}" '
                f'y2="{y:.2f}" stroke="{_BOUND}" stroke-width="1.5" '
                'stroke-dasharray="2,4"/>')
            body.append(
                f'<text x="{right - 4:.2f}" y="{y - 5:.2f}" '
                f'text-anchor="end" font-family="monospace" font-size="12" '
                f'fill="{_BOUND}">Pr[d&lt;={threshold}] cap '
                f'{bound:.4f}</text>')
        ylab = "fraction of codes with d <= x"
    body.extend(_svg_vline(dx(gv + 0.5), _GV, f"gv={gv}", 52.0))
    body.extend(_svg_vline(dx(threshold + 0.5), _THR,
                           f"w*={threshold} ({kind_thr})", 68.0))
    for d in range(lo, hi + 1):
        if span <= 40 or d % 5 == 0:
            body.append(
                f'<text x="{dx(d):.2f}" y="360" text-anchor="middle" '
                f'font-family="monospace" font-size="11" fill="#222222">{d}</text>')
    body.append(
        '<text x="343" y="384" text-anchor="middle" font-family="monospace" '
        'font-size="12" fill="#222222">minimum distance d</text>')
    body.append(
        f'<text x="20" y="190" font-family="monospace" font-size="12" '
        f'fill="#222222" transform="rotate(-90 20 190)" '
        f'text-anchor="middle">{_svg_escape(ylab)}</text>')
    return _svg_document(body, comments)


def cmd_plot(args) -> int:
    started = time.time()
    rows = _read_records_csv(args.records)
    with open(args.records, "rb") as fh:
        input_hashes = {os.path.basename(args.records): _sha256(fh.read())}
    manifest_name = os.path.basename(args.out) + ".manifest.json"
    config = {"records": os.path.basename(args.records), "kind": args.kind}
    comments = [_config_comment(config), f"manifest: {manifest_name}"]
    blob = _plot_svg(rows, args.kind, comments)
    _emit_outputs("plot", config, {args.out: blob}, args.out, input_hashes,
                  started)
    print(f"wrote {args.out} (+ {manifest_name})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="gvdc",
                     description="double circulant codes that beat the "
                                 "volume-argument distance guarantee: "
                                 "constructions, audits, experiments")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    sp = sub.add_parser("factor", help="factor Z^n+1 over GF(2)")
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=cmd_factor)

    sp = sub.add_parser("primes", help="scan for suitable primes")
    sp.add_argument("--from", dest="start", type=int, required=True)
    sp.add_argument("--count", type=int, default=1)
    sp.add_argument("--all", action="store_true",
                    help="also list scanned primes that fail the conditions")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_primes)

    sp = sub.add_parser("thresholds",
                        help="distance guarantees and beating thresholds")
    sp.add_argument("--n", type=int)
    sp.add_argument("--from", dest="start", type=int)
    sp.add_argument("--to", dest="end", type=int)
    sp.add_argument("--const", action="append", metavar="NAME=VALUE")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_thresholds)

    sp = sub.add_parser("audit-constants",
                        help="print the published constants and re-audit them")
    sp.add_argument("--const", action="append", metavar="NAME=VALUE")
    sp.set_defaults(func=cmd_audit_constants)

    sp = sub.add_parser("sample", help="draw random circulant columns")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=int, default=1)
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("mindist", help="minimum distance of one code")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--a", required=True,
                    help="circulant column: bitstring (char i = coord i) or 0x hex")
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", default=True)
    mode.add_argument("--search", action="store_true", default=False)
    sp.add_argument("--w", type=int, help="search target weight")
    sp.add_argument("--effort", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_mindist)

    sp = sub.add_parser("spectrum", help="weight distribution as CSV")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--a", help="circulant column (full [2n,n] code)")
    sp.add_argument("--g", help="cyclic generator polynomial")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("expected",
                        help="expected number of low-weight codewords")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--w", type=float, required=True)
    sp.add_argument("--bruteforce", action="store_true",
                    help="cross-check against full enumeration (n <= 14)")
    sp.add_argument("--orbit", action="store_true",
                    help="also print the orbit-weighted bound")
    sp.set_defaults(func=cmd_expected)

    sp = sub.add_parser("verify", help="run the lemma/bound audits")
    sp.add_argument("target", choices=_VERIFY_TARGETS)
    sp.add_argument("--n", type=int)
    sp.add_argument("--w", type=int)
    sp.add_argument("--p", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--samples", type=int, default=20)
    sp.add_argument("--max-tr", dest="max_tr", type=int, default=18)
    sp.add_argument("--json", dest="json_out", metavar="PATH")
    sp.add_argument("--const", action="append", metavar="NAME=VALUE")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("experiment", help="distance experiments over random codes")
    sp.add_argument("--config", help="key = value file; flags win")
    sp.add_argument("--n", type=int)
    sp.add_argument("--p", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--mode", choices=("exact", "search"))
    sp.add_argument("--w", type=int, help="search-mode target weight")
    sp.add_argument("--effort", type=int)
    sp.add_argument("--exhaustive", action="store_true", default=None)
    sp.add_argument("--workers", type=int,
                    help="default: GVDC_WORKERS or 1")
    sp.add_argument("--max-seconds", dest="max_seconds", type=float)
    sp.add_argument("--out", help="records CSV path")
    sp.add_argument("--summary", help="summary JSON path")
    sp.add_argument("--const", action="append", metavar="NAME=VALUE")
    sp.set_defaults(func=cmd_experiment)

    sp = sub.add_parser("plot", help="render an experiment CSV as SVG")
    sp.add_argument("--records", required=True)
    sp.add_argument("--kind", choices=("histogram", "threshold-overlay"),
                    default="histogram")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
