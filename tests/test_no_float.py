"""Every answer is exact: the package makes no float call and holds no float
literal."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "plectic"


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


def test_no_float_anywhere_in_the_package():
    found = sorted(f"{path.name}:{line} in {func}"
                   for path in PACKAGE.glob("*.py")
                   for func, line in _floats(ast.parse(path.read_text("utf-8"))))
    assert not found, "float on an exact path:\n" + "\n".join(found)


def test_float_calls_and_literals_are_found():
    tree = ast.parse("def f(x):\n    return float(x)\n\ny = 1e-9\nz = 2j\nn = 3\n")
    assert list(_floats(tree)) == [("f", 2), (None, 4), (None, 5)]


def test_library_entry_points_reject_a_float_input():
    """A float is read exactly or not at all: each entry point that takes
    rational values raises ShapeError instead of a binary fraction."""
    import pytest

    from plectic import catalog, classify, liesym
    from plectic.errors import ShapeError

    w, point = catalog.omega_f("x2^2+1"), [0.1, 0.3, 0, 0, 0, 0]
    so3, killing = liesym.so3(), liesym.killing_form(liesym.so3())
    calls = [lambda: classify.classify6(w, point), lambda: w.eval_at(point),
             lambda: classify.nondegenerate(w, point),
             lambda: liesym.LieAlgebraData(1, [[[0.1]]]),
             lambda: so3.bracket([0.1, 0, 0], [0, 1, 0]),
             lambda: so3.bracket([0, 1, 0], [0, 0.1, 0]),
             lambda: killing.value([0.1, 0, 0], [1, 0, 0]),
             lambda: killing.value([1, 0, 0], [0.1, 0, 0])]
    for call in calls:
        with pytest.raises(ShapeError, match=r"^not an exact rational: 0\.1$"):
            call()
