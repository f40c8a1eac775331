"""An invariant that guards a result raises a typed error: an `assert`
would vanish under `python -O`.  This is the lint gate for that rule."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tamewild"


def test_no_assert_statements_in_the_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in src: {found}"
