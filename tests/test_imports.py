"""Source hygiene: no module of the package, the tests or the scripts
imports a name it never uses, every public function or class of the
package has a caller outside the tests, every private module-level name of
the package is read in the package, and a fresh process loads mpmath,
concurrent.futures and multiprocessing only for the runs that use them."""

import ast
import glob
import json
import os
import subprocess
import sys

from gvdc import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# public names that only the tests call, kept as the references they
# compare against
TEST_ORACLES = {
    "dc_contains",     # membership by x_L = x_R a, against the generator rows
    "kasami_factors",  # closed-form factors, against factorize (criterion 2)
    "stirling_lower",  # the binomial lower bound of criterion 11
}


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_no_unused_imports():
    # the package __init__ imports names only to re-export them
    modules = [p for pattern in ("src/gvdc/*.py", "tests/*.py", "scripts/*.py")
               for p in sorted(glob.glob(os.path.join(ROOT, pattern)))
               if os.path.basename(p) != "__init__.py"]
    assert {os.path.basename(os.path.dirname(p)) for p in modules} == \
        {"gvdc", "tests", "scripts"}
    unused = {}
    for path in modules:
        with open(path) as fh:
            names = _unused_imports(ast.parse(fh.read()))
        if names:
            unused[os.path.relpath(path, ROOT)] = names
    assert unused == {}


def _parse(path: str) -> ast.Module:
    with open(path) as fh:
        return ast.parse(fh.read())


def _public_definitions(tree: ast.Module) -> set[str]:
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names a module reads, attributes and imported names, plus the
    function names in a WRAPPED list of (module, name) strings."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Assign) and \
                [getattr(t, "id", None) for t in node.targets] == ["WRAPPED"]:
            names.update(name for _, name in ast.literal_eval(node.value))
    return names


def _test_only_names(package: dict[str, ast.Module],
                     callers: list[ast.Module]) -> list[str]:
    # the package __init__ imports names only to re-export them, so its
    # references do not count
    used = set()
    for tree in [t for p, t in package.items()
                 if os.path.basename(p) != "__init__.py"] + callers:
        used |= _referenced_names(tree)
    return sorted(name for tree in package.values()
                  for name in _public_definitions(tree)
                  if name not in used and name not in TEST_ORACLES)


def test_every_public_name_has_a_caller_outside_the_tests():
    package = {p: _parse(p)
               for p in sorted(glob.glob(os.path.join(ROOT, "src/gvdc/*.py")))}
    callers = [_parse(p) for pattern in ("scripts/*.py", "perfbench/*.py")
               for p in sorted(glob.glob(os.path.join(ROOT, pattern)))]
    assert len(package) > 5 and len(callers) > 5
    assert _test_only_names(package, callers) == []


def test_test_only_name_is_caught():
    package = {"src/gvdc/m.py": ast.parse(
        "def used():\n    pass\n"
        "def wrapped():\n    pass\n"
        "def orphan():\n    return used()\n"
        "class Orphan:\n    pass\n"
        "def _private():\n    pass\n"
        "def dc_contains():\n    pass\n"),
        "src/gvdc/__init__.py": ast.parse("from .m import orphan, Orphan\n")}
    tracer = ast.parse("WRAPPED = [('gvdc.m', 'wrapped')]\n")
    assert _test_only_names(package, [tracer]) == ["Orphan", "orphan"]


def _private_definitions(tree: ast.Module) -> set[str]:
    """Module-level private names a module defines or assigns, dunders
    aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _unread_private_names(package: dict[str, ast.Module]) -> list[str]:
    read = set().union(*map(_referenced_names, package.values()))
    return sorted(f"{os.path.basename(path)}:{name}"
                  for path, tree in package.items()
                  for name in _private_definitions(tree) if name not in read)


def test_every_private_name_is_read_in_the_package():
    # a private helper that only the tests call is dead code
    package = {p: _parse(p)
               for p in sorted(glob.glob(os.path.join(ROOT, "src/gvdc/*.py")))}
    assert sum(len(_private_definitions(t)) for t in package.values()) > 50
    assert _unread_private_names(package) == []


def test_unread_private_name_is_caught():
    package = {"m.py": ast.parse(
        "_LIMIT = 3\n_UNREAD: int = 4\n__all__ = []\n"
        "def _helper():\n    return _LIMIT\n"
        "def _orphan():\n    _orphan_local = 1\n"
        "class _Orphan:\n    pass\n"),
        "k.py": ast.parse("from .m import _helper\n")}
    assert _unread_private_names(package) == [
        "m.py:_Orphan", "m.py:_UNREAD", "m.py:_orphan"]


def test_unused_import_is_caught():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os\nfrom math import floor, gcd\n"
                     "def f(x):\n    return floor(x)\n")
    assert _unused_imports(tree) == ["gcd (line 3)", "os (line 2)"]


# run in a fresh interpreter: what importing and running gvdc loads
_STARTUP = """
import json, os, sys

def loaded():
    return [m for m in ("mpmath", "concurrent.futures", "multiprocessing")
            if m in sys.modules]

import gvdc.cli
state = {"blas": os.environ["OPENBLAS_NUM_THREADS"], "import": loaded()}
# the exact_n25 benchmark workload: 30 trials take about 10 ms, well
# below what starting a pool costs, so they all run in this process
code = gvdc.cli.main(["experiment", "--n", "25", "--mode", "exact",
                      "--workers", "2", "--trials", "30", "--seed", "0",
                      "--out", "records.csv", "--summary", "summary.json"])
state["experiment"] = [code, loaded()]
code = gvdc.cli.main(["verify", "kappa"])
state["kappa"] = [code, loaded()]
import mpmath
state["dps"] = mpmath.mp.dps
print(json.dumps(state))
"""


def _fresh_run(script: str, tmp_path, **env_vars) -> str:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_start_up_loads_only_what_a_run_uses(tmp_path):
    state = json.loads(_fresh_run(_STARTUP, tmp_path))
    assert state["blas"] == "1"
    assert state["import"] == []
    assert state["experiment"] == [0, []]
    assert state["kappa"] == [0, ["mpmath"]]
    assert state["dps"] == 40
    # a thread count the user set is kept
    script = "import os, gvdc; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh_run(script, tmp_path, OPENBLAS_NUM_THREADS="2") == "2"


# run in a fresh interpreter after a line setting argvs: whether mpmath was
# loaded as each audit was timed, and at the end
_VERIFY_TIMING = """
import json, sys
import gvdc.cli as cli

seen = []
timed = cli._timed

def watched(audit, *args, **kwargs):
    seen.append("mpmath" in sys.modules)
    return timed(audit, *args, **kwargs)

cli._timed = watched
codes = [cli.main(argv) for argv in argvs]
print(json.dumps({"codes": codes, "seen": seen,
                  "loaded": "mpmath" in sys.modules}))
"""


def test_verify_loads_mpmath_before_timing_an_mpmath_audit(tmp_path):
    # the import is not charged to the first audit that computes in it, and
    # a target that computes in no mpmath does not load it: every target of
    # the table, each mpmath one in an interpreter of its own
    def argv(target):
        reads, _ = cli._VERIFY_TARGETS[target]
        return ["verify", target, *(["--trials", "1"] * ("trials" in reads))]

    def run(targets):
        script = f"argvs = {[argv(t) for t in targets]!r}\n" + _VERIFY_TIMING
        state = json.loads(_fresh_run(script, tmp_path))
        assert state["codes"] == [0] * len(targets), targets
        return state

    plain = [t for t, (_, mp) in cli._VERIFY_TARGETS.items() if not mp]
    state = run(plain)
    assert state["seen"] and not any(state["seen"]) and not state["loaded"]
    for target, (_, mp) in cli._VERIFY_TARGETS.items():
        if mp:
            state = run([target])
            assert state["seen"] and all(state["seen"]), target
