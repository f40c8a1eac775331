"""A private function or class of the package that no code of the package
refers to, outside its own body, is either dead or a helper that only the
tests use, and such helpers live in the tests.  This is the lint gate for
that rule, beside the ones for unused imports and unused locals: a `_name`
defined by `def` or `class` anywhere in src/tamewild (methods included,
dunder names exempt) counts as used if some module of the package loads
the name, imports it, reads an attribute of that name, or spells it in a
string constant (as `getattr` would), at a place outside the definition
itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tamewild"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _references(node):
    """The names a node refers to, by load, attribute, string or import."""
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.alias):
        return {node.name}
    return set()


def unused_private(sources):
    """(file, line, name) of each private def or class in the given
    {filename: source} that nothing outside its own body refers to."""
    trees = {name: ast.parse(text, name) for name, text in sources.items()}
    defs, refs = [], {}
    for filename, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, _DEFS) and _is_private(node.name):
                defs.append((filename, node))
            for name in _references(node):
                refs.setdefault(name, []).append(node)
    found = []
    for filename, node in defs:
        inside = {id(n) for n in ast.walk(node)}
        if all(id(ref) in inside for ref in refs.get(node.name, [])):
            found.append((filename, node.lineno, node.name))
    return sorted(found)


def test_unused_private_definitions_are_found():
    sources = {
        "a.py": ("def _helper(n):\n"
                 "    return _helper(n - 1) if n else 0\n"
                 "def _used():\n"
                 "    return 1\n"
                 "class _Box:\n"
                 "    def __init__(self):\n"
                 "        self.v = _used()\n"
                 "    def _get(self):\n"
                 "        return self.v\n"
                 "    def _peek(self):\n"
                 "        return self._get()\n"
                 "def _named():\n"
                 "    pass\n"
                 "def public():\n"
                 "    return getattr(_Box(), '_named', None)\n"),
        "b.py": ("class _Loaded:\n"
                 "    pass\n"),
        "c.py": "from b import _Loaded\n",
    }
    assert unused_private(sources) == [("a.py", 1, "_helper"),
                                       ("a.py", 10, "_peek")]


def test_no_unused_private_definitions_in_the_package():
    sources = {path.name: path.read_text()
               for path in sorted(SRC.glob("*.py"))}
    found = [f"{name}:{line} {func}" for name, line, func in
             unused_private(sources)]
    assert not found, f"private definitions nothing in src uses: {found}"
