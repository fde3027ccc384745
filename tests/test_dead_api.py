"""Every definition in the package has a caller in the system.

A non-dunder module-level function, class or constant must be named in ``src/``
or ``perfbench/`` outside its own definition; a name that ``plectic/__init__``
re-exports is named there, in ``_LAYERS``.  A use in ``tests/`` does not
count: the library keeps only what the workbench runs, and a fixture that
only tests call lives in ``tests/util.py``.  A non-dunder method must be read
as an attribute (``obj.name`` in the syntax tree) somewhere in ``src/``,
``tests/`` or ``perfbench/``.  Methods are matched through attribute nodes
only, because names such as ``zero`` or ``entry`` occur all over as plain
words, and a string such as ``"$.coeff"`` is not a use.

A name that a module binds by an import or an assignment at module level
must be read in that module or imported from it by name, and no module binds
a name twice: counting words over the whole tree misses an alias such as
``Q = Fraction`` that several modules define and none reads.  The package's
``__init__`` re-exports its imports, so only its double bindings count.
"""
import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "plectic"
SEARCHED = ("src", "tests", "perfbench")
CALLERS = ("src", "perfbench")  # where a top-level definition's use counts


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(name, line) for each tracked definition of one module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not _dunder(node.name):
                yield node.name, node.lineno
        elif isinstance(node, ast.ClassDef):
            yield node.name, node.lineno
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not _dunder(item.name)):
                    yield f"{node.name}.{item.name}", item.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and not t.id.startswith("__"):
                    yield t.id, node.lineno


def _sources(dirs):
    return [p.read_text(encoding="utf-8") for d in dirs for p in sorted((ROOT / d).rglob("*.py"))]


def test_every_definition_is_referenced():
    defined = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [(path.name, qual, line) for qual, line in _definitions(tree)]
    def_count = Counter(qual.rsplit(".", 1)[-1] for _f, qual, _l in defined)
    words = Counter(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", "\n".join(_sources(CALLERS))))
    attributes = Counter(node.attr for src in _sources(SEARCHED)
                         for node in ast.walk(ast.parse(src)) if isinstance(node, ast.Attribute))

    def referenced(qual):
        if "." in qual:
            return attributes[qual.rsplit(".", 1)[-1]] > 0
        return words[qual] > def_count[qual]

    dead = sorted(f"{fname}:{line} {qual}" for fname, qual, line in defined
                  if not referenced(qual))
    assert not dead, "defined but never referenced:\n" + "\n".join(dead)


def _module_bindings(tree):
    """(name, line, is_import_or_assignment) for each module-level binding."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno, True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name):
                        yield n.id, node.lineno, True
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, False


def test_every_module_level_binding_is_read_and_bound_once():
    imported = set()  # (module, name) for each ``from module import name``
    for d in SEARCHED:
        for path in sorted((ROOT / d).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom):
                    module = node.module or ""
                    if node.level and path.parent == PACKAGE:
                        module = f"plectic.{module}".rstrip(".")
                    imported.update((module, alias.name) for alias in node.names)
    bad = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = "plectic" if path.stem == "__init__" else f"plectic.{path.stem}"
        reads = {n.id for n in ast.walk(tree)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        seen = set()
        for name, line, tracked in _module_bindings(tree):
            if name in seen:
                bad.append(f"{path.name}:{line} {name} is bound twice")
            seen.add(name)
            if (tracked and module != "plectic" and not name.startswith("__")
                    and name not in reads and (module, name) not in imported):
                bad.append(f"{path.name}:{line} {name} is never read")
    assert not bad, "module-level bindings:\n" + "\n".join(bad)
