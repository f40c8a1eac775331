"""Source that the program compiles at run time must come from one place,
the builder of a field's arithmetic kernels, which puts only ints of the
field into it.  This is the lint gate for that rule: the builtins exec,
eval and compile may appear in src/tamewild/*.py only inside
LocalFieldCtx._build_kernels."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tamewild"
DYNAMIC = {"exec", "eval", "compile"}
ALLOWED = {("localfield.py", "LocalFieldCtx._build_kernels")}


def dynamic_code_uses(source, filename="<string>"):
    """(line, enclosing qualified name, builtin) of each use of exec, eval
    or compile as a bare name; the qualified name is "" at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Name) and child.id in DYNAMIC:
                found.append((child.lineno, ".".join(scope), child.id))
            visit(child, scope)

    visit(ast.parse(source, filename), [])
    return found


def test_dynamic_code_uses_are_found():
    source = ("import re\n"
              "PATTERN = re.compile('x')\n"
              "run = exec\n"
              "class Ctx:\n"
              "    def build(self):\n"
              "        def inner():\n"
              "            return eval('1')\n"
              "        exec('x = 1', {})\n"
              "        return compile\n")
    assert dynamic_code_uses(source) == [
        (3, "", "exec"), (7, "Ctx.build.inner", "eval"),
        (8, "Ctx.build", "exec"), (9, "Ctx.build", "compile")]


def test_dynamic_code_only_in_the_kernel_builder():
    found, builder = [], []
    for path in sorted(SRC.glob("*.py")):
        for line, scope, name in dynamic_code_uses(path.read_text(),
                                                   str(path)):
            if (path.name, scope) in ALLOWED:
                builder.append(name)
            else:
                found.append(f"{path.name}:{line} {name} in "
                             f"{scope or '<module>'}")
    assert not found, f"dynamic code outside the kernel builder: {found}"
    assert builder == ["exec"]
