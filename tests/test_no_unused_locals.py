"""A local name that a function assigns and never reads is a leftover of an
edit, such as `ctx = self.ctx` kept after the last use of ctx went.  This
is the lint gate for that rule, beside the one for unused imports: a name
stored in a function's body counts as read if any code of the body loads
it, nested functions and comprehensions included.  Names declared global
or nonlocal, and names starting with `_`, are exempt; parameters are not
assignments."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tamewild"

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def unused_locals(source, filename="<string>"):
    """(line, name) of each name a function stores and never loads."""
    found = set()
    for func in ast.walk(ast.parse(source, filename)):
        if not isinstance(func, _FUNCTIONS):
            continue
        stored, loaded, declared = [], set(), set()
        for node in ast.walk(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
            elif isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    stored.append(node)
                else:
                    loaded.add(node.id)
        found.update((node.lineno, node.id) for node in stored
                     if node.id not in loaded | declared
                     and not node.id.startswith("_"))
    return sorted(found)


def test_unused_locals_are_found():
    source = ("def f(ctx, n):\n"
              "    ctx2 = ctx\n"
              "    a, b = divmod(n, 2)\n"
              "    for _i in range(a):\n"
              "        pass\n"
              "    total = 0\n"
              "    total += 1\n"
              "    seen = 1\n"
              "    def g():\n"
              "        nonlocal seen\n"
              "        kept = [y for y in range(seen)]\n"
              "        return kept\n"
              "    return g\n"
              "counter = 0\n"
              "def h():\n"
              "    global counter\n"
              "    counter = 1\n")
    assert unused_locals(source) == [(2, "ctx2"), (3, "b"), (6, "total"),
                                     (7, "total")]


def test_no_unused_locals_in_the_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [f"{path.name}:{line} {name}" for line, name in
                  unused_locals(path.read_text(), str(path))]
    assert not found, f"unused local assignments in src: {found}"
