"""The runtime is stdlib-only: every import in the package is from the
standard library or from plectic itself (sympy and hypothesis are test-only)."""
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "plectic"


def _imported_modules(tree):
    """(top-level module name, line) of each absolute import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0], node.lineno


def test_every_import_is_stdlib_or_plectic():
    allowed = set(sys.stdlib_module_names) | {"plectic"}
    foreign = sorted(f"{path.name}:{line} {name}"
                     for path in PACKAGE.glob("*.py")
                     for name, line in _imported_modules(ast.parse(path.read_text("utf-8")))
                     if name not in allowed)
    assert not foreign, "non-stdlib imports:\n" + "\n".join(foreign)


def test_nested_imports_are_found_and_relative_ones_skipped():
    tree = ast.parse("def f():\n    import sympy\n    from . import linalg\n")
    assert list(_imported_modules(tree)) == [("sympy", 2)]
