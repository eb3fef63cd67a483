"""Static checks over the package source."""
import ast
from pathlib import Path

import hopftower

SRC = Path(hopftower.__file__).parent

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(fn):
    """Nodes of fn's body; a nested scope is yielded but not entered."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


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
    tree = ast.parse(
        "def g(x):\n    y = x + 1\n    _z = 2\n    def h():\n        w = 3\n        return x\n    return h\n"
    )
    # the closure's dead local is reported once, under the closure
    assert _stored_never_loaded(tree) == [("g", 2, "y"), ("h", 5, "w")]


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


def _with_function(tree):
    """(node, name of the innermost function around it or None) for every node."""
    stack = [(tree, None)]
    while stack:
        node, fn = stack.pop()
        for child in ast.iter_child_nodes(node):
            yield child, fn
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn
            stack.append((child, inner))


def _function_local_imports(tree) -> list[tuple[int, str]]:
    """Imports made inside a function body, as (line, function)."""
    return sorted(
        (node.lineno, fn) for node, fn in _with_function(tree)
        if fn is not None and isinstance(node, (ast.Import, ast.ImportFrom))
    )


def test_no_function_local_imports():
    # no module of the package imports cli, and none of the others forms an
    # import cycle, so every import sits at module level where it is read once
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.extend(f"{path.name}:{line} {fn}" for line, fn in _function_local_imports(tree))
    assert found == [], "imports inside functions"


def test_scan_sees_a_function_local_import():
    tree = ast.parse(
        "import os\ndef g():\n    import json\n    def h():\n        from . import x\n        return x\n"
        "    return h\nclass C:\n    def m(self):\n        from y import z\n        return z\n"
    )
    assert _function_local_imports(tree) == [(3, "g"), (5, "h"), (10, "m")]


# Elements are sparse dicts and maps hold sparse columns from the loader to the
# report. These names belonged to the dense second path and must not return.
_DENSE_PATH_NAMES = {
    "to_sparse", "sparse_columns", "vec_eq", "vec_scale", "vec_is_zero", "basis_vector",
    "_combine", "act_vec", "tensor_over_subalgebra", "_pairs_index", "_index_of_pairs", "from_columns",
    "from_matrix", "lmul_matrix", "rmul_matrix", "multiplication_matrix", "twist_matrix",
    "coords_of_matrix", "basis_matrices",
}
# methods that must not be defined again on these classes
_DENSE_PATH_METHODS = {"Algebra": {"mul"}, "ModuleAlgebraAction": {"act_vec", "columns"}}
# the (module, function) sites that may form a dense coordinate list of an
# element: file writers and report witnesses before Field.witness
_TO_DENSE_SITES = {
    ("algebra", "check_morphism"),
    ("fileio", "algebra_to_dict"),
    ("fileio", "extension_to_dict"),
    ("fileio", "hopf_to_dict"),
    ("fileio", "tower_to_dict"),
    ("frobenius", "verify_conditional_expectation"),
    ("frobenius", "verify_frobenius_identities"),
    ("tower", "basic_construction"),
}


def _dense_path_uses(module: str, tree) -> tuple[list, set]:
    """(uses of the dense second path, (module, function) sites calling to_dense)."""
    found = []
    for node in ast.walk(tree):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = node.name
        elif isinstance(node, ast.alias):
            name = node.asname or node.name
        if name in _DENSE_PATH_NAMES:
            found.append((node.lineno if hasattr(node, "lineno") else 0, name))
        if isinstance(node, ast.ClassDef):
            banned = _DENSE_PATH_METHODS.get(node.name, set())
            found.extend(
                (fn.lineno, f"{node.name}.{fn.name}") for fn in node.body
                if isinstance(fn, ast.FunctionDef) and fn.name in banned
            )
        # a dense accumulation written out by hand: [f.add(a, ...) for a, b in zip(...)]
        if (
            module != "linalg"
            and isinstance(node, ast.ListComp)
            and getattr(node.elt, "func", None) is not None
            and getattr(node.elt.func, "attr", None) == "add"
            and getattr(node.generators[0].iter, "func", None) is not None
            and getattr(node.generators[0].iter.func, "id", None) == "zip"
        ):
            found.append((node.lineno, "dense accumulation"))
    sites = {
        (module, fn) for node, fn in _with_function(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "to_dense"
    }
    return found, sites


def test_elements_stay_sparse():
    found, sites = [], set()
    for path in sorted(SRC.rglob("*.py")):
        uses, calls = _dense_path_uses(path.stem, ast.parse(path.read_text(encoding="utf-8")))
        found.extend(f"{path.name}:{line} {name}" for line, name in uses)
        sites |= calls
    assert found == [], "the dense element path is back"
    assert sites == _TO_DENSE_SITES, "to_dense called outside the file, witness and elimination boundary"


def test_scan_sees_a_dense_path_use():
    tree = ast.parse(
        "from .linalg import vec_eq\nclass Algebra:\n    def mul(self, x, y):\n        return x\n"
        "def g(f, acc, v, M, x):\n    acc = [f.add(a, f.mul(2, b)) for a, b in zip(acc, v)]\n"
        "    return M.to_dense(x)\n"
    )
    found, sites = _dense_path_uses("tower", tree)
    assert sorted(found) == [(1, "vec_eq"), (3, "Algebra.mul"), (6, "dense accumulation")]
    assert sites == {("tower", "g")}


# LinMap is the one linear-map type; the dense Matrix is the working array of
# linalg.rref and is named nowhere else but the package's re-export.
_MATRIX_MODULES = {"linalg", "__init__"}


def _matrix_uses(tree) -> list[int]:
    """Lines where a module names Matrix: a name, an attribute or an import."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            name, line = node.asname or node.name, getattr(node, "lineno", 0)
        else:
            name, line = getattr(node, "id", None) or getattr(node, "attr", None), getattr(node, "lineno", 0)
        if name == "Matrix":
            out.append(line)
    return sorted(out)


def test_matrix_stays_in_linalg():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.stem not in _MATRIX_MODULES:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found.extend(f"{path.name}:{line}" for line in _matrix_uses(tree))
    assert found == [], "dense Matrix named outside linalg"


def test_scan_sees_a_matrix_use():
    tree = ast.parse(
        "from .linalg import Matrix, rank\nimport hopftower.linalg as la\n"
        "def g(f):\n    m = la.Matrix(f, [])\n    return Matrix, m, rank\n"
    )
    assert _matrix_uses(tree) == [1, 4, 5]
