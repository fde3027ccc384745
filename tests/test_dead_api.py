"""Every definition in the package has a caller or a test.

A module-level function, class or constant whose name appears in ``src/``,
``tests/`` and ``perfbench/`` only where it is defined, or a non-dunder
method that is never read as an attribute (``obj.name`` in the syntax tree)
there, is dead API and fails this test.  Methods are matched through
attribute nodes only, because names such as ``zero`` or ``entry`` occur all
over as plain words, and a string such as ``"$.coeff"`` is not a use.
"""
import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "plectic"
SEARCHED = ("src", "tests", "perfbench")


def _definitions(tree):
    """(name, line) for each tracked definition of one module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.lineno
        elif isinstance(node, ast.ClassDef):
            yield node.name, node.lineno
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and not t.id.startswith("__"):
                    yield t.id, node.lineno


def test_every_definition_is_referenced():
    defined = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [(path.name, qual, line) for qual, line in _definitions(tree)]
    def_count = Counter(qual.rsplit(".", 1)[-1] for _f, qual, _l in defined)
    sources = [p.read_text(encoding="utf-8")
               for d in SEARCHED for p in sorted((ROOT / d).rglob("*.py"))]
    words = Counter(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", "\n".join(sources)))
    attributes = Counter(node.attr for src in sources for node in ast.walk(ast.parse(src))
                         if isinstance(node, ast.Attribute))

    def referenced(qual):
        if "." in qual:
            return attributes[qual.rsplit(".", 1)[-1]] > 0
        return words[qual] > def_count[qual]

    dead = sorted(f"{fname}:{line} {qual}" for fname, qual, line in defined
                  if not referenced(qual))
    assert not dead, "defined but never referenced:\n" + "\n".join(dead)
