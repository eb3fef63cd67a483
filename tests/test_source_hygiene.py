"""Static checks over the package source."""
import ast
from pathlib import Path

import hopftower

SRC = Path(hopftower.__file__).parent

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(fn):
    """Nodes of fn's body, without descending into nested scopes."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(c for c in ast.iter_child_nodes(node) if not isinstance(c, _SCOPES))


def _stored_never_loaded(tree) -> list[tuple[str, int, str]]:
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored = {}
        for node in _own_nodes(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.id, node.lineno)
        # loads in nested functions count: closures read the outer name
        loaded = {
            node.id for node in ast.walk(fn)
            if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Load, ast.Del))
        }
        out.extend(
            (fn.name, line, name) for name, line in stored.items()
            if name not in loaded and not name.startswith("_")
        )
    return out


def _unused_imports(tree) -> list[tuple[int, str]]:
    """Names a module imports and never reads; a name listed in __all__ is read."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            imported.extend((node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(elt.value for elt in node.value.elts)
    return [(line, name) for line, name in imported if name not in read]


def test_no_local_is_stored_and_never_read():
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        unused.extend(f"{path.name}:{line} {fn}: {name}" for fn, line, name in _stored_never_loaded(tree))
    assert unused == [], "locals stored but never read (use _ for a discarded value)"


def test_scan_sees_a_dead_local():
    tree = ast.parse("def g(x):\n    y = x + 1\n    _z = 2\n    def h():\n        return x\n    return h\n")
    assert _stored_never_loaded(tree) == [("g", 2, "y")]


def test_every_import_is_used():
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        unused.extend(f"{path.name}:{line} {name}" for line, name in _unused_imports(tree))
    assert unused == [], "imported names never used"


def test_scan_sees_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\nimport os.path\nfrom x import a, b as c, d\n"
        "__all__ = ['d']\ndef g():\n    from y import e\n    return a\n"
    )
    assert _unused_imports(tree) == [(2, "os"), (3, "c"), (6, "e")]


_SCALAR_BACKENDS = ("fractions", "gmpy2")


def _scalar_backend_uses(tree) -> list[tuple[int, str]]:
    """Imports of a rational backend and calls of fields._rat in a module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend((node.lineno, a.name) for a in node.names if a.name.split(".")[0] in _SCALAR_BACKENDS)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in _SCALAR_BACKENDS:
            out.append((node.lineno, node.module))
        elif isinstance(node, ast.Call) and "_rat" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            out.append((node.lineno, "_rat()"))
    return out


def test_scalars_are_built_only_in_fields():
    # RationalField keeps integral scalars as ints and the rest in the backend
    # type; a scalar made anywhere else could bypass that canonical form
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "fields.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.extend(f"{path.name}:{line} {what}" for line, what in _scalar_backend_uses(tree))
    assert found == [], "rational scalars made outside fields.py"


def test_scan_sees_a_scalar_backend_use():
    tree = ast.parse(
        "import fractions\nfrom gmpy2 import mpq\nfrom . import fields\nimport json\n"
        "x = fields._rat(1, 2)\ny = _rat(3)\nz = fields.RationalField().parse('1/2')\n"
    )
    assert _scalar_backend_uses(tree) == [(1, "fractions"), (2, "gmpy2"), (5, "_rat()"), (6, "_rat()")]
