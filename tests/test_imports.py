"""Source hygiene: no module of the package, the tests or the scripts
imports a name it never uses, and every public function or class of the
package has a caller outside the tests."""

import ast
import glob
import os

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
    """Names, attributes and imported names a module uses, plus the
    function names in a WRAPPED list of (module, name) strings."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
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


def test_unused_import_is_caught():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os\nfrom math import floor, gcd\n"
                     "def f(x):\n    return floor(x)\n")
    assert _unused_imports(tree) == ["gcd (line 3)", "os (line 2)"]
