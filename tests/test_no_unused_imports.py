"""A module-level import that the module never uses is a stale artefact of
a deletion.  This is the lint gate for that rule; `__init__.py` re-exports
by design, and a line marked `# noqa` keeps a name for outside readers.
Its export list is checked instead: every name in it resolves, once."""

import ast
from collections import Counter
from pathlib import Path

import tamewild

SRC = Path(__file__).resolve().parents[1] / "src" / "tamewild"


def unused_imports(source, filename="<string>"):
    """(line, name) of each name a module-level import binds that no other
    line of the module loads, `from __future__` and `# noqa` lines exempt."""
    tree = ast.parse(source, filename)
    lines = source.splitlines()
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound.append((node.lineno, name))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "import os.path\n"
              "from json import dumps, loads as _loads\n"
              "from re import compile  # noqa: F401\n"
              "x = math.pi + len(_loads('[]'))\n")
    assert unused_imports(source) == [(3, "os"), (4, "dumps")]


def test_no_unused_imports_in_the_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        found += [f"{path.name}:{line} {name}" for line, name in
                  unused_imports(path.read_text(), str(path))]
    assert not found, f"unused module-level imports in src: {found}"


def test_every_export_resolves_once():
    missing = [name for name in tamewild.__all__
               if not hasattr(tamewild, name)]
    repeated = [name for name, n in Counter(tamewild.__all__).items()
                if n > 1]
    assert not missing and not repeated, (missing, repeated)
