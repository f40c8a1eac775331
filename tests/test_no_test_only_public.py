"""A public function, class or method of the package that no code of the
package and no file of the benchmark refers to is reached only by the
tests, and such a second path lives in the tests.  This is the lint gate
for that rule, beside the one for unused private definitions: a public
module-level `def` or `class` in src/tamewild, or a public method of a
class defined there, counts as reached if a module of the package (not
__init__.py, which only re-exports) or a file under perfbench/ loads the
name, imports it, reads an attribute of that name, or spells it in a
string constant (as `getattr` would), at a place outside the definition
itself.  A method is matched by its bare name, whatever the class."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tamewild"
BENCH = ROOT / "perfbench"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

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


def unreached_public(sources, users):
    """(file, line, name) of each public module-level def or class, and
    each public method (named Class.method), in the {filename: source}
    `sources` that nothing outside its own body refers to, in `sources` or
    in the {filename: source} `users`."""
    defs, refs = [], {}
    for filename, text in {**sources, **users}.items():
        tree = ast.parse(text, filename)
        if filename in sources:
            for node in tree.body:
                if isinstance(node, _DEFS):
                    defs.append((filename, "", node))
                if isinstance(node, ast.ClassDef):
                    defs += [(filename, node.name + ".", item)
                             for item in node.body
                             if isinstance(item, _DEFS)]
        for node in ast.walk(tree):
            for name in _references(node):
                refs.setdefault(name, []).append(node)
    found = []
    for filename, owner, node in defs:
        if node.name.startswith("_"):
            continue
        inside = {id(n) for n in ast.walk(node)}
        if all(id(ref) in inside for ref in refs.get(node.name, [])):
            found.append((filename, node.lineno, owner + node.name))
    return sorted(found)


def test_test_only_public_definitions_are_found():
    sources = {
        "a.py": ("def alone(n):\n"
                 "    return alone(n - 1) if n else helper()\n"
                 "def helper():\n"
                 "    return 0\n"
                 "def used():\n"
                 "    return 1\n"
                 "class Box:\n"
                 "    def method(self):\n"
                 "        return self\n"
                 "    def walk(self, n):\n"
                 "        return self.walk(n - 1) if n else self.reached()\n"
                 "    def reached(self):\n"
                 "        return 1\n"
                 "    def _hidden(self):\n"
                 "        pass\n"
                 "def by_bench():\n"
                 "    pass\n"
                 "def by_string():\n"
                 "    pass\n"
                 "def _private():\n"
                 "    pass\n"),
        "b.py": ("from a import used\n"
                 "import a\n"
                 "X = a.Box\n"
                 "def orphan():\n"
                 "    return getattr(a, 'by_string')()\n"),
    }
    users = {"bench.py": "import a\na.by_bench()\n"}
    assert unreached_public(sources, users) == [("a.py", 1, "alone"),
                                                ("a.py", 8, "Box.method"),
                                                ("a.py", 10, "Box.walk"),
                                                ("b.py", 4, "orphan")]


def test_no_test_only_public_definitions_in_the_package():
    sources = {path.name: path.read_text()
               for path in sorted(SRC.glob("*.py"))
               if path.name != "__init__.py"}
    users = {str(path): path.read_text()
             for path in sorted(BENCH.rglob("*.py"))}
    allowed = {
        # the principal divisor of f, documented API of the function field
        ("funcfield.py", "divisor"),
        # the JSON descriptor of a field, documented beside from_descriptor
        ("localfield.py", "LocalFieldCtx.descriptor"),
    }
    found = [f"{name}:{line} {func}"
             for name, line, func in unreached_public(sources, users)
             if (name, func) not in allowed]
    assert not found, f"public definitions only the tests reach: {found}"
