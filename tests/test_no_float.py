"""Every answer is exact: the package makes no float call and holds no float
literal, except where ``classify --mode float`` prints its trace."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "plectic"
ALLOWED = {("cli.py", "_float_str")}  # the one float the CLI prints


def _floats(tree):
    """(enclosing function, line) of each float call or float literal."""
    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "float"):
            yield func, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield func, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, func)

    yield from visit(tree, None)


def test_no_float_outside_the_float_trace_presentation():
    found = sorted(f"{path.name}:{line} in {func}"
                   for path in PACKAGE.glob("*.py")
                   for func, line in _floats(ast.parse(path.read_text("utf-8")))
                   if (path.name, func) not in ALLOWED)
    assert not found, "float on an exact path:\n" + "\n".join(found)


def test_float_calls_and_literals_are_found():
    tree = ast.parse("def f(x):\n    return float(x)\n\ny = 1e-9\nz = 2j\nn = 3\n")
    assert list(_floats(tree)) == [("f", 2), (None, 4), (None, 5)]
