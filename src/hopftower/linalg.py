"""Exact linear algebra: linear maps as sparse columns, elimination and the
sparse-vector helpers.

Vectors everywhere are sparse dicts {index: nonzero scalar}; scalars are
canonical, so a dict without zeros is a normal form and plain ``==`` decides
equality. ``sparse_add``/``sparse_axpy`` is the one accumulator. ``LinMap``
is the one linear-map type: its sparse columns plus its codomain dimension.

``SparseSolver`` is the one eliminator. ``solve`` appends every right-hand
side to the rows of a map as a further column and reads all solutions and one
kernel basis off a single sparse RREF; ``kernel_basis`` and ``invert`` are the
same elimination with no right-hand side and with the identity columns. RREF
is unique and scalars are canonical, so every result is deterministic
byte-for-byte whatever order the rows arrive in. ``rref`` on the dense
``Matrix`` is the reference the tests compare against; within the package
only ``rank`` still reads its pivots (see ``rank``).
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


def rank(A: LinMap) -> int:
    """Rank of A, the pivot count of ``rref`` on its dense array.

    The one dense elimination left in the package: the benchmark's tracer test
    (bench/test_bench.py) asserts that ``linalg.rref`` runs during a verify, so
    rank moves to forward elimination on ``SparseSolver`` together with that
    assertion.
    """
    z = A.field.zero
    return len(rref(Matrix(A.field, [[c.get(r, z) for c in A.columns] for r in range(A.codomain_dim)]))[1])


def kernel_basis(A: LinMap) -> list[dict]:
    """Canonical basis of the kernel {x : A x = 0}."""
    return _solve(A, [])[1]


def solve(A: LinMap, rhs: list[dict]) -> tuple[list[Optional[dict]], list[dict]]:
    """Canonical particular solution of A x = b for each b in rhs (None where
    inconsistent), plus the canonical kernel basis of A, from one elimination."""
    for b in rhs:
        if any(not 0 <= i < A.codomain_dim for i in b):
            raise DimensionError(f"solve: rhs index outside the {A.codomain_dim} rows")
    return _solve(A, rhs)


def _solve(A: LinMap, rhs: list[dict]) -> tuple[list[Optional[dict]], list[dict]]:
    """``solve`` on right-hand sides known to fit A's rows.

    The rows of A, with rhs[j] appended as column n + j, are reduced to sparse
    RREF. Its pivots below n are those of RREF(A). A pivot row led at or past n
    is a combination of rows that vanishes on A, so b_j is consistent exactly
    when no such row has an entry in column n + j. Then the rows led below n,
    cut to the columns of A and column n + j, are RREF([A | b_j]), so they
    give the same solution as eliminating A x = b_j alone.
    """
    f = A.field
    n = len(A.columns)
    rows = A.transpose().columns
    for j, b in enumerate(rhs):
        for i, c in b.items():
            rows[i][n + j] = c
    solver = SparseSolver(f, n + len(rhs))
    for row in rows:
        solver.add_row(row, f.zero)
    pivots = solver.pivots
    leads = sorted(pivots)
    inconsistent = {c - n for lead in leads if lead >= n for c in pivots[lead]}
    xs: list = [None if j in inconsistent else {} for j in range(len(rhs))]
    kern_at: dict = {}  # free column -> {pivot column: entry of its kernel vector}
    for lead in leads:
        if lead >= n:
            break
        for c, v in pivots[lead].items():
            if c >= n:
                if xs[c - n] is not None:
                    xs[c - n][lead] = v
            elif c != lead:
                kern_at.setdefault(c, {})[lead] = f.neg(v)
    kern = [{fc: f.one, **kern_at.get(fc, {})} for fc in range(n) if fc not in pivots]
    return xs, kern


def invert(A: LinMap) -> Optional[LinMap]:
    """Exact inverse, or None when singular."""
    n = len(A.columns)
    if A.codomain_dim != n:
        raise DimensionError("invert: map not square")
    xs, kern = _solve(A, LinMap.identity(A.field, n).columns)
    return None if kern else LinMap(A.field, xs, n)


class SparseSolver:
    """Incremental sparse Gaussian elimination: the one sparse eliminator.

    Rows arrive one at a time as sparse dicts {col: scalar}. It serves
    ``solve``, ``kernel_basis`` and ``invert``, the subspaces in ``algebra``
    (End(M_N) among them), which keep their spans as its pivot rows, the
    tensor quotients, whose quotient bases are the non-pivot
    columns, and the depth-2 tensor system A x = b, where inconsistency is
    detected as soon as a row reduces to zero with a nonzero right-hand side.
    Every pivot row is kept free of the other pivot columns (sparse RREF), so
    ``reduce`` gives the canonical normal form of a row modulo the row space.
    A new pivot is back-substituted only into the rows that have an entry in
    its column: ``users`` maps each column to the leads of the other pivot
    rows with an entry there (a pivot column has none), and is updated
    whenever an entry appears or cancels, so a pivot costs the rows it
    touches, not the rank. ``freeze`` drops that index once the row space is
    final; the solver then only reduces.
    """

    def __init__(self, field: Field, cols: int):
        self.field = field
        self.cols = cols
        self.pivots: dict[int, dict] = {}  # lead col -> row dict (rhs at key = cols)
        self.users: Optional[dict[int, set]] = {}  # col -> leads of the other pivot rows with an entry there; None once frozen
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

        A pivot row holds no other pivot column, so clearing one pivot column
        never brings in another and one pass over the row's pivot columns
        suffices.
        """
        work = {c: v for c, v in row.items() if v}
        pivots = self.pivots
        for lead in [c for c in work if c in pivots]:
            self._eliminate(work, lead)
        return work

    def freeze(self) -> None:
        """Mark the row space final and free the back-substitution index; a
        later add_row raises instead of skipping back-substitution."""
        self.users = None

    def add_row(self, row: dict, rhs) -> bool:
        if self.users is None:
            raise RuntimeError("add_row on a frozen SparseSolver")
        f = self.field
        work = dict(row)
        if rhs:
            work[self.cols] = rhs
        work = self.reduce(work)
        if not work:
            return self.consistent
        lead = min(work)
        if lead == self.cols:
            self.consistent = False
            return False
        inv = f.inv(work[lead])
        work = {c: f.mul(inv, v) for c, v in work.items()}
        users = self.users
        for other_lead in users.pop(lead, ()):
            other = self.pivots[other_lead]
            c = other.pop(lead)  # work[lead] = 1 clears it
            for col, val in work.items():
                if col == lead:
                    continue
                old = other.get(col)
                v = f.sub(f.zero if old is None else old, f.mul(c, val))
                if v:
                    other[col] = v
                    if old is None:
                        users.setdefault(col, set()).add(other_lead)
                elif old is not None:
                    del other[col]
                    users[col].discard(other_lead)
        for col in work:
            if col != lead:
                users.setdefault(col, set()).add(lead)
        self.pivots[lead] = work
        return self.consistent

    def rank(self) -> int:
        return len(self.pivots)


def sparse_add(field: Field, acc: dict, key, val) -> None:
    """acc[key] += val on a sparse dict, dropping the key when the sum is zero.

    val must be a canonical scalar of field, made by its operations or
    ``parse``: a key that is absent takes val itself (first write), with no
    addition to zero that would copy it or reduce it, and a zero val is not
    stored. A present key takes the sum and is deleted when it is zero. Key
    order, which report witnesses show, is therefore that of
    ``acc[key] = acc.get(key, 0) + val`` with zeros popped: a new key is
    appended, and a cancelled key that comes back is appended again.
    """
    old = acc.get(key)
    if old is None:
        if val:
            acc[key] = val
        return
    v = field.add(old, val)
    if v:
        acc[key] = v
    else:
        del acc[key]


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

