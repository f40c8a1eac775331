"""A refusal names one of the error classes of errors.py, one per action the
caller can take, so the type says what to do and the text says why.  The
only other classes raised are ZeroDivisionError, for arithmetic on zero,
and argparse.ArgumentTypeError, which argparse turns into its own usage
error.  This is the lint gate for that rule: every `raise` in src/tamewild
names an allowed class, called or bare; a bare `raise` re-raises and is
allowed too."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tamewild"


def _error_classes():
    tree = ast.parse((SRC / "errors.py").read_text())
    return {node.name for node in tree.body if isinstance(node, ast.ClassDef)}


ALLOWED = _error_classes() | {"ZeroDivisionError",
                              "argparse.ArgumentTypeError"}


def foreign_raises(sources):
    """(file, line, class) of each `raise` in the given {filename: source}
    that names a class outside ALLOWED."""
    found = []
    for filename, text in sources.items():
        for node in ast.walk(ast.parse(text, filename)):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = ast.unparse(exc)
            if name not in ALLOWED:
                found.append((filename, node.lineno, name))
    return sorted(found)


def test_the_vocabulary_is_the_six_classes_of_errors_py():
    assert _error_classes() == {"BadInput", "Unsupported",
                                "PrecisionExhausted", "BudgetExceeded",
                                "FactoringCapExceeded", "InvariantFailed"}


def test_foreign_raises_are_found():
    sources = {
        "a.py": ("import argparse\n"
                 "def f(x):\n"
                 "    if x:\n"
                 "        raise ValueError('bad x')\n"
                 "    raise BadInput('bad x') from None\n"
                 "def g():\n"
                 "    try:\n"
                 "        pass\n"
                 "    except KeyError:\n"
                 "        raise\n"
                 "    raise ZeroDivisionError\n"
                 "def h():\n"
                 "    raise argparse.ArgumentTypeError('no')\n"
                 "def k():\n"
                 "    raise errors.BadInput('qualified')\n"),
    }
    assert foreign_raises(sources) == [("a.py", 4, "ValueError"),
                                       ("a.py", 15, "errors.BadInput")]


def test_every_raise_in_the_package_names_the_vocabulary():
    sources = {path.name: path.read_text()
               for path in sorted(SRC.glob("*.py"))}
    found = [f"{name}:{line} {cls}" for name, line, cls in
             foreign_raises(sources)]
    assert not found, f"raises outside the error vocabulary: {found}"
