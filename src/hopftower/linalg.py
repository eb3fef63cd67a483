"""Exact linear algebra: linear maps as sparse columns, elimination and the
sparse-vector helpers.

Vectors everywhere are sparse dicts {index: nonzero scalar}; scalars are
canonical, so a dict without zeros is a normal form and plain ``==`` decides
equality. ``sparse_add``/``sparse_axpy`` is the one accumulator. ``LinMap``
is the one linear-map type: its sparse columns plus its codomain dimension.

``rank``, ``solve``, ``kernel_basis`` and ``invert`` take and return sparse
objects; each writes its map into the dense working array of ``rref`` (a
``Matrix``), the one dense-to-sparse boundary. Gaussian elimination takes the
first nonzero pivot found by row-major scan; together with canonical scalar
normal forms this makes every result deterministic byte-for-byte. Dimensions
here stay small (a few hundred), so O(n^3) dense elimination is fine.
``SparseSolver`` is the one sparse eliminator.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

from .fields import Field


class DimensionError(ValueError):
    """Incompatible shapes."""


@dataclass
class LinMap:
    """Linear map between coordinate spaces, kept as its sparse columns:
    columns[j] is the image of basis vector j as a dict {row: nonzero entry}."""

    field: Field = dc_field(compare=False, repr=False)
    columns: list
    codomain_dim: int

    @property
    def domain_dim(self) -> int:
        return len(self.columns)

    def apply(self, v: dict) -> dict:
        return sparse_apply(self.field, self.columns, v)

    def compose(self, inner: "LinMap") -> "LinMap":
        """self after inner."""
        if inner.codomain_dim != len(self.columns):
            raise DimensionError(f"compose: {len(self.columns)} columns after {inner.codomain_dim} rows")
        return LinMap(self.field, [self.apply(c) for c in inner.columns], self.codomain_dim)

    def transpose(self) -> "LinMap":
        cols: list[dict] = [{} for _ in range(self.codomain_dim)]
        for j, col in enumerate(self.columns):
            for r, c in col.items():
                cols[r][j] = c
        return LinMap(self.field, cols, len(self.columns))

    @classmethod
    def identity(cls, field: Field, n: int) -> "LinMap":
        return cls(field, [{i: field.one} for i in range(n)], n)


def map_combination(field: Field, dim: int, coeffs: dict, maps: list) -> LinMap:
    """sum_i coeffs[i] maps[i] for maps of a dim-dimensional space to itself."""
    cols = []
    for x in range(dim):
        acc: dict = {}
        for i, c in coeffs.items():
            sparse_axpy(field, acc, c, maps[i].columns[x])
        cols.append(acc)
    return LinMap(field, cols, dim)


class Matrix:
    """The dense working array of ``rref``: data[r][c], row-major."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data: list[list]):
        self.field = field
        self.data = data
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        for row in data:
            if len(row) != self.cols:
                raise DimensionError("ragged rows")


def rref(mat: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form and pivot column list (canonical)."""
    f = mat.field
    m = [row[:] for row in mat.data]
    rows, cols = mat.rows, mat.cols
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = -1
        for i in range(r, rows):
            if not f.is_zero(m[i][c]):
                pivot = i
                break
        if pivot < 0:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = f.inv(m[r][c])
        m[r] = [f.mul(inv, x) for x in m[r]]
        for i in range(rows):
            if i != r and not f.is_zero(m[i][c]):
                factor = m[i][c]
                m[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return Matrix(f, m), pivots


def _reduced(A: LinMap, extra: list) -> tuple[Matrix, list[int]]:
    """rref of the dense array of A with the sparse columns extra appended."""
    z = A.field.zero
    cols = A.columns + extra
    return rref(Matrix(A.field, [[c.get(r, z) for c in cols] for r in range(A.codomain_dim)]))


def _kernel(field: Field, red: Matrix, pivots: list[int], n: int) -> list[dict]:
    """Canonical kernel basis of the first n columns of a reduced array."""
    pivot_set = set(pivots)
    basis = []
    for fc in range(n):
        if fc in pivot_set:
            continue
        v = {fc: field.one}
        for r, pc in enumerate(pivots):
            c = red.data[r][fc]
            if c:
                v[pc] = field.neg(c)
        basis.append(v)
    return basis


def rank(A: LinMap) -> int:
    return len(_reduced(A, [])[1])


def kernel_basis(A: LinMap) -> list[dict]:
    """Canonical basis of the kernel {x : A x = 0}."""
    red, pivots = _reduced(A, [])
    return _kernel(A.field, red, pivots, len(A.columns))


def solve(A: LinMap, b: dict) -> Optional[tuple[dict, list[dict]]]:
    """One particular solution of A x = b plus a kernel basis, or None.

    Returns None when the system is inconsistent. The kernel is read off the
    augmented RREF (whose first columns are RREF(A) whenever the system is
    consistent), so elimination runs once.
    """
    if any(not 0 <= k < A.codomain_dim for k in b):
        raise DimensionError(f"solve: rhs index outside the {A.codomain_dim} rows")
    n = len(A.columns)
    red, pivots = _reduced(A, [b])
    if n in pivots:
        return None
    x = {pc: red.data[r][n] for r, pc in enumerate(pivots) if red.data[r][n]}
    return x, _kernel(A.field, red, pivots, n)


def invert(A: LinMap) -> Optional[LinMap]:
    """Exact inverse, or None when singular."""
    n = len(A.columns)
    if A.codomain_dim != n:
        raise DimensionError("invert: map not square")
    f = A.field
    red, pivots = _reduced(A, LinMap.identity(f, n).columns)
    if pivots[:n] != list(range(n)):
        return None
    return LinMap(f, [{r: red.data[r][n + j] for r in range(n) if red.data[r][n + j]} for j in range(n)], n)


class SparseSolver:
    """Incremental sparse Gaussian elimination: the one sparse eliminator.

    Rows arrive one at a time as sparse dicts {col: scalar}. It serves the
    subspaces and endomorphism algebras in ``algebra``, which keep their spans
    as its pivot rows, the tensor quotients, whose relation rows go in with a
    zero right-hand side and whose quotient bases are the non-pivot columns,
    and the depth-2 systems A x = b, where inconsistency is detected as soon
    as a row reduces to zero with a nonzero right-hand side. With reduce_fully=True every pivot
    row is kept free of the other pivot columns (sparse RREF), so ``reduce``
    gives the canonical normal form of a row modulo the row space and a
    canonical particular solution can be read off at the end.
    """

    def __init__(self, field: Field, cols: int, reduce_fully: bool = False):
        self.field = field
        self.cols = cols
        self.reduce_fully = reduce_fully
        self.pivots: dict[int, dict] = {}  # lead col -> row dict (rhs at key = cols)
        self.consistent = True

    def _eliminate(self, work: dict, lead: int) -> None:
        f = self.field
        c = work[lead]
        for col, val in self.pivots[lead].items():
            v = f.sub(work.get(col, f.zero), f.mul(c, val))
            if v:
                work[col] = v
            else:
                work.pop(col, None)

    def reduce(self, row: dict) -> dict:
        """Copy of a sparse row with every pivot column cleared.

        Requires reduce_fully=True: a pivot row then holds no other pivot
        column, so clearing one pivot column never brings in another and one
        pass over the row's pivot columns suffices.
        """
        work = {c: v for c, v in row.items() if v}
        pivots = self.pivots
        for lead in [c for c in work if c in pivots]:
            self._eliminate(work, lead)
        return work

    def add_row(self, row: dict, rhs) -> bool:
        f = self.field
        work = dict(row)
        if rhs:
            work[self.cols] = rhs
        if self.reduce_fully:
            work = self.reduce(work)
        else:
            while work:
                lead = min(work)
                if lead not in self.pivots:
                    break
                self._eliminate(work, lead)
        if not work:
            return self.consistent
        lead = min(work)
        if lead == self.cols:
            self.consistent = False
            return False
        inv = f.inv(work[lead])
        work = {c: f.mul(inv, v) for c, v in work.items()}
        if self.reduce_fully:
            for other in self.pivots.values():
                c = other.get(lead)
                if c is not None:
                    for col, val in work.items():
                        v = f.sub(other.get(col, f.zero), f.mul(c, val))
                        if v:
                            other[col] = v
                        else:
                            other.pop(col, None)
        self.pivots[lead] = work
        return self.consistent

    def rank(self) -> int:
        return len(self.pivots)

    def solution(self) -> Optional[tuple[list, int]]:
        """(canonical particular solution, number of free columns), or None.

        Requires reduce_fully=True for the solution to be canonical.
        """
        if not self.consistent:
            return None
        f = self.field
        x = [f.zero] * self.cols
        for lead, row in self.pivots.items():
            x[lead] = row.get(self.cols, f.zero)
        return x, self.cols - len(self.pivots)


def sparse_add(field: Field, acc: dict, key, val) -> None:
    """acc[key] += val on a sparse dict, dropping the key when the sum is zero."""
    v = field.add(acc.get(key, field.zero), val)
    if v:
        acc[key] = v
    else:
        acc.pop(key, None)


def sparse_axpy(field: Field, acc: dict, c, v: dict) -> None:
    """acc += c * v on sparse dicts, dropping keys whose sum is zero."""
    for key, val in v.items():
        sparse_add(field, acc, key, field.mul(c, val))


def sparse_apply(field: Field, columns: list[dict], v: dict) -> dict:
    """The linear map with the given sparse columns applied to a sparse vector."""
    out: dict = {}
    for k, c in v.items():
        sparse_axpy(field, out, c, columns[k])
    return out


def sparse_scale(field: Field, c, v: dict) -> dict:
    """c * v on a sparse dict (empty when c is zero: a field has no zero divisors)."""
    return {k: field.mul(c, x) for k, x in v.items()} if c else {}


def sparse_vector(v: list) -> dict:
    """The nonzero entries of a dense vector, such as a row of an input file,
    as a sparse dict."""
    return {i: c for i, c in enumerate(v) if c}

