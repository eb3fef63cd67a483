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


def _is_init_var(annotation) -> bool:
    node = annotation.value if isinstance(annotation, ast.Subscript) else annotation
    return (getattr(node, "id", None) or getattr(node, "attr", None)) == "InitVar"


def _fields_never_loaded(defining, reading) -> list[tuple[str, int, str]]:
    """(class, line, field) of every annotated class field in the defining
    trees (InitVar excluded) that no reading tree loads as an attribute."""
    loaded = {
        node.attr for tree in reading for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        (cls.name, node.lineno, node.target.id)
        for tree in defining for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
        and not _is_init_var(node.annotation) and node.target.id not in loaded
    ]


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


def test_every_class_field_is_read():
    src = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.rglob("*.py"))]
    tests = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(Path(__file__).parent.glob("*.py"))]
    assert _fields_never_loaded(src, src + tests) == [], "class fields stored but never read"


def test_scan_sees_a_dead_field():
    tree = ast.parse(
        "from dataclasses import InitVar, dataclass\n@dataclass\nclass C:\n    a: int\n    b: int\n"
        "    c: InitVar[int]\n    d: dataclasses.InitVar\n    e = 1\n"
        "    def total(self):\n        self.b = 2\n        return self.a\n"
    )
    reader = ast.parse("def g(x):\n    return x.e, C(a=1, b=2)\n")
    # a store of b and its keyword in a call are not reads
    assert _fields_never_loaded([tree], [tree, reader]) == [("C", 5, "b")]


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


# Fraction's slots, which only the fields kernel reads and writes
_FRACTION_SLOTS = ("_numerator", "_denominator")


def _scalar_backend_uses(tree) -> list[tuple[int, str]]:
    """Imports of a rational backend, calls of fields._rat, uses of Fraction's
    slots and calls of object.__new__ in a module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend((node.lineno, a.name) for a in node.names if a.name.split(".")[0] in _SCALAR_BACKENDS)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in _SCALAR_BACKENDS:
            out.append((node.lineno, node.module))
        elif isinstance(node, ast.Call) and "_rat" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            out.append((node.lineno, "_rat()"))
        elif isinstance(node, ast.Attribute) and node.attr in _FRACTION_SLOTS:
            out.append((node.lineno, node.attr))
        elif (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "__new__"
            and getattr(node.func.value, "id", None) == "object"
        ):
            out.append((node.lineno, "object.__new__()"))
    return out


def test_scalars_are_built_only_in_fields():
    # RationalField keeps integral scalars as ints and the rest in the backend
    # type; a scalar made anywhere else, or a Fraction built or read through
    # its slots, could bypass that canonical form
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
        "r = object.__new__(type(x))\nr._numerator = x._numerator\nr._denominator = 2\n"
        "w = x.numerator, x.denominator, type(x).__new__(type(x))\n"
    )
    assert sorted(_scalar_backend_uses(tree)) == [
        (1, "fractions"), (2, "gmpy2"), (5, "_rat()"), (6, "_rat()"), (8, "object.__new__()"),
        (9, "_numerator"), (9, "_numerator"), (10, "_denominator"),
    ]


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
    "coords_of_matrix", "basis_matrices", "_reduced", "_kernel", "_TripleQuotient", "pure_tensor3",
}
# methods that must not be defined again on these classes
_DENSE_PATH_METHODS = {
    "Algebra": {"mul"}, "ModuleAlgebraAction": {"act_vec", "columns"}, "SparseSolver": {"solution"},
}
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


# rref on the dense Matrix is the reference the tests compare against: the
# package eliminates through SparseSolver, and rref is defined in linalg and
# called only by linalg.rank, the one dense elimination left (its docstring
# says why it stays).
def _rref_calls(tree) -> list[tuple[str, int]]:
    """(top-level definition or "<module>", line) of every call of rref, by
    name or as an attribute."""
    out = []
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        out.extend(
            (owner, node.lineno) for node in ast.walk(top)
            if isinstance(node, ast.Call) and "rref" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        )
    return sorted(out)


def test_rref_is_only_the_test_reference():
    linalg = ast.parse((SRC / "linalg.py").read_text(encoding="utf-8"))
    assert any(isinstance(node, ast.FunctionDef) and node.name == "rref" for node in linalg.body)
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.extend((path.name, owner) for owner, _line in _rref_calls(tree))
    assert found == [("linalg.py", "rank")], "rref called inside the package beyond linalg.rank"


def test_scan_sees_an_rref_call():
    tree = ast.parse(
        "from .linalg import rref\nimport hopftower.linalg as la\n"
        "def g(m):\n    a = rref(m)\n    return la.rref(m), a, rref\n"
        "x = la.rref(None)\n"
    )
    assert _rref_calls(tree) == [("<module>", 6), ("g", 4), ("g", 5)]


# A generator shortcut runs only while every check recorded before it passed:
# the tower keeps that fact as TowerLevel.verified and the pipeline reads it
# from its Reporter, so no other module names a level check to gate on it.
_LEVEL_CHECK_IDS = {"algebra-axioms", "inclusion-monomorphism", "condexp-bimodule"}
_CHECK_ID_MODULES = {"tower", "pipeline", "report"}


def _check_id_literals(tree) -> list[tuple[int, str]]:
    """(line, id) of every string literal that is a level check id."""
    return sorted(
        (node.lineno, node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in _LEVEL_CHECK_IDS
    )


def test_check_ids_stay_in_tower_pipeline_and_report():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.stem not in _CHECK_ID_MODULES:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found.extend(f"{path.name}:{line} {cid}" for line, cid in _check_id_literals(tree))
    assert found == [], "a level check id named outside tower, pipeline and report"


def test_scan_sees_a_check_id_literal():
    tree = ast.parse(
        '"""Docstrings may say algebra-axioms."""\n'
        'def g(level):\n    ok = dict(level.checks)["algebra-axioms"].ok\n'
        "    return ok and level.passed('condexp-bimodule', \"inclusion-monomorphism\")\n"
        'x = "M fails algebra-axioms"\n'
    )
    assert _check_id_literals(tree) == [
        (3, "algebra-axioms"), (4, "condexp-bimodule"), (4, "inclusion-monomorphism"),
    ]


# Algebra.table keeps only the nonzero products, a row {j: e_i e_j} per basis
# element. Only algebra reads a cell out of it; every other module goes
# through Algebra.cell. No module allocates a grid with a dict per pair.
def _table_layout_uses(tree) -> list[tuple[int, str]]:
    """(line, what) of every subscripted table cell, x.table[i][j], and every
    nested comprehension of empty dicts, [[{} for ...] for ...]."""
    out = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Subscript) and isinstance(node.value, ast.Subscript)
            and getattr(node.value.value, "attr", None) == "table"
        ):
            out.append((node.lineno, "table cell"))
        elif (
            isinstance(node, ast.ListComp) and isinstance(node.elt, ast.ListComp)
            and isinstance(node.elt.elt, ast.Dict) and not node.elt.elt.keys
        ):
            out.append((node.lineno, "grid of empty dicts"))
    return sorted(out)


def test_table_cells_are_read_only_in_algebra():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.extend(
            f"{path.name}:{line} {what}" for line, what in _table_layout_uses(tree)
            if path.stem != "algebra" or what != "table cell"
        )
    assert found == [], "a table cell subscripted outside algebra, or a dense grid of cells"


def test_scan_sees_a_table_layout_use():
    tree = ast.parse(
        "def g(M, i, j):\n    c = M.table[i][j]\n    row = M.table[i]\n"
        "    grid = [[{} for _ in range(3)] for _ in range(3)]\n"
        "    return c, row, M.cell(i, j), M.algebra.table[j][i].items(), grid, [{} for _ in row]\n"
    )
    assert _table_layout_uses(tree) == [(2, "table cell"), (4, "grid of empty dicts"), (5, "table cell")]


# Every law checked on generators falls back to its basis scan through
# algebra.law_failures, and no check takes a failure cap as an option: every
# check stops each of its failure lists at algebra.WITNESS_FAILURES, the
# number of failures a report witness shows (Reporter.outcome), so no
# parameter is a cap and no failure list stops at a count of its own.
CAP_PARAMETERS = ("max_failures", "cap", "budget")


def _is_int(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is int


def _failure_caps(tree) -> list[tuple[int, str]]:
    """(line, what) of every parameter named in CAP_PARAMETERS (of a def or
    a lambda), every len(failures) >= <int> and every islice(..., <int>)."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.arg in CAP_PARAMETERS:
            out.append((node.lineno, f"parameter {node.arg}"))
        elif (isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.GtE)
              and ast.unparse(node.left) == "len(failures)" and _is_int(node.comparators[0])):
            out.append((node.lineno, "len(failures) >= int"))
        elif (isinstance(node, ast.Call) and "islice" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
              and len(node.args) == 2 and _is_int(node.args[1])):
            out.append((node.lineno, "islice(..., int)"))
    return sorted(out)


def test_no_check_takes_a_failure_cap():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.extend(f"{path.name}:{line} {what}" for line, what in _failure_caps(tree))
    assert found == [], "a failure cap other than algebra.WITNESS_FAILURES"


def test_scan_sees_a_max_failures_use():
    """The scan sees every kind of cap: a max_failures, cap or budget
    parameter, a literal count in len(failures) >= and in islice."""
    tree = ast.parse(
        "def law_failures(failures, generators, basis, max_failures):\n"
        "    return list(islice(failures(basis()), max(max_failures, 1)))\n"
        "def check(x, cap=5, *, budget):\n"
        "    failures = list(itertools.islice(x, 5))\n"
        "    if len(failures) >= 3 or len(failures) >= WITNESS_FAILURES or len(x) >= 3:\n"
        "        return lambda budget: failures\n"
        "    return list(islice(x, WITNESS_FAILURES))\n"
    )
    assert _failure_caps(tree) == [
        (1, "parameter max_failures"), (3, "parameter budget"), (3, "parameter cap"), (4, "islice(..., int)"),
        (5, "len(failures) >= int"), (6, "parameter budget"),
    ]


# One commutant solver: a subspace of elements commuting with a set is a
# centralizer (End(M_N) included, as the centralizer of the right
# multiplications in End_k(M)), and the invariants of a Hopf action are the
# one other kernel the package solves for.
_KERNEL_SITES = {("algebra", "centralizer"), ("galois", "invariants")}


def _kernel_basis_calls(tree) -> list[tuple[int, str]]:
    """(line, enclosing function) of every call of kernel_basis, by name or
    as an attribute."""
    out = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.Call) and "kernel_basis" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            out.append((node.lineno, fn))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, None)
    return sorted(out)


def test_kernel_basis_is_called_by_centralizer_and_invariants_only():
    found, sites = [], set()
    for path in sorted(SRC.rglob("*.py")):
        for line, fn in _kernel_basis_calls(ast.parse(path.read_text(encoding="utf-8"))):
            sites.add((path.stem, fn))
            if (path.stem, fn) not in _KERNEL_SITES:
                found.append(f"{path.name}:{line} {fn}")
    assert found == [], "kernel_basis called outside algebra.centralizer and galois.invariants"
    assert sites == _KERNEL_SITES


def test_scan_sees_a_kernel_basis_call():
    tree = ast.parse(
        "from .linalg import kernel_basis\n"
        "def endomorphisms(maps):\n    return kernel_basis(maps)\n"
        "def other(linalg, A):\n    def inner():\n        return linalg.kernel_basis(A)\n    return inner\n"
        "basis = kernel_basis\n"
    )
    assert _kernel_basis_calls(tree) == [(3, "endomorphisms"), (6, "inner")]


# One Sweedler sum: every law written with the coproduct sums over the legs
# of Delta through HopfStructure.sweedler, the one reader of delta_coords in
# the package (the tests keep delta_coords as their reference).
def _delta_coords_calls(tree) -> list[tuple[int, str]]:
    """(line, class.function or function) of every call of delta_coords, by
    name or as an attribute."""
    out = []

    def visit(node, cls, fn):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn, cls = f"{cls}.{node.name}" if cls else node.name, None
        if isinstance(node, ast.Call) and "delta_coords" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            out.append((node.lineno, fn))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, fn)

    visit(tree, None, None)
    return sorted(out)


def test_delta_coords_is_read_only_by_sweedler():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        found.extend((path.stem, fn) for _line, fn in _delta_coords_calls(ast.parse(path.read_text(encoding="utf-8"))))
    assert found == [("hopf", "HopfStructure.sweedler")], "Delta's legs read outside HopfStructure.sweedler"


def test_scan_sees_a_delta_coords_call():
    tree = ast.parse(
        "class H:\n    def sweedler(self, j):\n        return self.delta_coords(j)\n"
        "def law(H):\n    def inner(j):\n        return H.delta_coords(j)\n    return inner\n"
        "legs = delta_coords(0)\n"
    )
    assert _delta_coords_calls(tree) == [(3, "H.sweedler"), (6, "inner"), (8, None)]


# One subspace type: a span kept in a SparseSolver is a SubspaceBasis or a
# TensorQuotient of algebra; other modules may run a solver inside a function
# but define no class that keeps one.
_SOLVER_MODULES = {"linalg", "algebra"}


def _solver_holding_classes(tree) -> list[tuple[int, str]]:
    """(line, class) of every class whose body names SparseSolver, in code
    or in a string annotation."""
    out = []
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and any(
            isinstance(node, ast.Name) and node.id == "SparseSolver"
            or isinstance(node, ast.Attribute) and node.attr == "SparseSolver"
            or isinstance(node, ast.Constant) and node.value == "SparseSolver"
            for node in ast.walk(cls)
        ):
            out.append((cls.lineno, cls.name))
    return out


def test_only_linalg_and_algebra_define_solver_holding_classes():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.stem not in _SOLVER_MODULES:
            found.extend(f"{path.name}:{line} {name}"
                         for line, name in _solver_holding_classes(ast.parse(path.read_text(encoding="utf-8"))))
    assert found == [], "a class outside linalg and algebra keeps a SparseSolver"


def test_scan_sees_a_solver_holding_class():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass\nclass Endo:\n    _space: SparseSolver\n"
        "class Lazy:\n    def __init__(self, f, n):\n        self.span = linalg.SparseSolver(f, n)\n"
        "class Quoted:\n    span: 'SparseSolver'\n"
        "class Plain:\n    span: dict\n"
        "def solve(f, n):\n    return SparseSolver(f, n)\n"
    )
    assert _solver_holding_classes(tree) == [(3, "Endo"), (5, "Lazy"), (8, "Quoted")]


# One outcome type: every check answers with algebra.CheckOutcome (ok and its
# failures), so no other class keeps an annotated ok or failures field.
_OUTCOME_FIELDS = {"ok", "failures"}


def _outcome_classes(tree) -> list[tuple[int, str]]:
    """(line, class) of every class with an annotated ok or failures field."""
    return sorted(
        (cls.lineno, cls.name) for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and any(
            isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) in _OUTCOME_FIELDS
            for node in cls.body)
    )


def test_check_outcome_is_the_one_outcome_type():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.extend((path.stem, name) for _line, name in _outcome_classes(tree))
    assert found == [("algebra", "CheckOutcome")], "a check outcome type beside algebra.CheckOutcome"


def test_scan_sees_an_outcome_class():
    tree = ast.parse(
        "from dataclasses import dataclass\n@dataclass\nclass Report:\n    ok: bool\n    witness: dict\n"
        "class Result:\n    failures: list = []\n    def ok(self):\n        return not self.failures\n"
        "class Plain:\n    ok = True\n    value: int\n    def f(self):\n        self.failures: list = []\n"
    )
    assert _outcome_classes(tree) == [(3, "Report"), (6, "Result")]
