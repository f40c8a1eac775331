"""A private name is private to its module: a module of the package that
imports a `_name` from another module of the package depends on a detail
that the other module may change without notice, and the two share a
format that neither owns.  This is the lint gate for that rule, beside the
one for unused private definitions: a `from ... import` anywhere in a
module of src/tamewild (inside functions too) that names a module of the
package, relatively or as `tamewild`, may bind a private name only under
an alias of its own (`import Name as _alias`), never import one (dunder
names exempt).  Attribute reads such as `module._name` are not imports and
are not checked here."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tamewild"


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _from_package(node):
    """Whether the `from` import reads a module of the package."""
    return node.level > 0 or (node.module or "").split(".")[0] == "tamewild"


def private_imports(sources):
    """(file, line, name) of each private name that the given {filename:
    source} import from a module of the package."""
    found = []
    for filename, text in sources.items():
        for node in ast.walk(ast.parse(text, filename)):
            if isinstance(node, ast.ImportFrom) and _from_package(node):
                found += [(filename, node.lineno, alias.name)
                          for alias in node.names if _is_private(alias.name)]
    return sorted(found)


def test_private_imports_are_found():
    sources = {
        "a.py": ("from .b import _kernel, public\n"
                 "from .b import Public as _Alias\n"
                 "from . import _mod\n"
                 "from tamewild.b import __version__\n"
                 "from os.path import _joinrealpath\n"
                 "def f():\n"
                 "    from tamewild.b import _late\n"
                 "    return _late\n"),
    }
    assert private_imports(sources) == [("a.py", 1, "_kernel"),
                                        ("a.py", 3, "_mod"),
                                        ("a.py", 7, "_late")]


def test_no_private_imports_in_the_package():
    sources = {path.name: path.read_text()
               for path in sorted(SRC.glob("*.py"))}
    found = [f"{name}:{line} {imported}" for name, line, imported in
             private_imports(sources)]
    assert not found, f"private names imported across modules: {found}"
