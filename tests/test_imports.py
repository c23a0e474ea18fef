"""Source hygiene: no module of the package, the tests or the scripts
imports a name it never uses."""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


def test_unused_import_is_caught():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os\nfrom math import floor, gcd\n"
                     "def f(x):\n    return floor(x)\n")
    assert _unused_imports(tree) == ["gcd (line 3)", "os (line 2)"]
