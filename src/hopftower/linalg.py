"""Exact linear algebra: dense elimination and the sparse-vector helpers.

Vectors everywhere outside this module are sparse dicts {index: nonzero
scalar}; scalars are canonical, so a dict without zeros is a normal form and
plain ``==`` decides equality. ``sparse_add``/``sparse_axpy`` is the one
accumulator and ``sparse_apply`` applies a map given by sparse columns.

Dense ``Matrix`` objects are the input of elimination (RREF, solve, kernel,
rank, inverse) and the small Hopf-structure matrices. Gaussian elimination
takes the first nonzero pivot found by row-major scan; together with canonical
scalar normal forms this makes every result deterministic byte-for-byte.
Dimensions here stay small (a few hundred), so O(n^3) dense elimination is
fine. ``SparseSolver`` is the one sparse eliminator.
"""
from __future__ import annotations

from typing import Optional

from .fields import Field


class DimensionError(ValueError):
    """Incompatible shapes."""


class Matrix:
    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data: list[list]):
        self.field = field
        self.data = data
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        for row in data:
            if len(row) != self.cols:
                raise DimensionError("ragged rows")

    # -- constructors --------------------------------------------------
    @classmethod
    def zero(cls, field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero
        return cls(field, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        m = cls.zero(field, n, n)
        one = field.one
        for i in range(n):
            m.data[i][i] = one
        return m

    @classmethod
    def from_int_rows(cls, field: Field, rows: list[list[int]]) -> "Matrix":
        return cls(field, [[field.from_int(x) for x in row] for row in rows])

    def copy(self) -> "Matrix":
        return Matrix(self.field, [row[:] for row in self.data])

    # -- basic ops -----------------------------------------------------
    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.rows == self.rows
            and other.cols == self.cols
            and all(
                self.field.eq(a, b)
                for ra, rb in zip(self.data, other.data)
                for a, b in zip(ra, rb)
            )
        )

    def __hash__(self):  # pragma: no cover - matrices used as values only
        return NotImplemented

    def transpose(self) -> "Matrix":
        return Matrix(self.field, [list(col) for col in zip(*self.data)] if self.rows else [])

    def matvec(self, v: list) -> list:
        if len(v) != self.cols:
            raise DimensionError(f"matvec: {self.cols} cols vs vector of {len(v)}")
        f = self.field
        fadd, fmul = f.add, f.mul
        # scalars are canonical, so plain truthiness is an exact zero test
        support = [(j, x) for j, x in enumerate(v) if x]
        out = []
        for row in self.data:
            acc = f.zero
            for j, x in support:
                a = row[j]
                if a:
                    acc = fadd(acc, fmul(a, x))
            out.append(acc)
        return out

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionError(f"matmul: {self.cols} vs {other.rows}")
        f = self.field
        fadd, fmul = f.add, f.mul
        bt = list(zip(*other.data)) if other.cols else []
        out = []
        for row in self.data:
            support = [(j, a) for j, a in enumerate(row) if a]
            out_row = []
            for col in bt:
                acc = f.zero
                for j, a in support:
                    b = col[j]
                    if b:
                        acc = fadd(acc, fmul(a, b))
                out_row.append(acc)
            out.append(out_row)
        return Matrix(f, out)

    def add(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("matrix add shape mismatch")
        f = self.field
        return Matrix(
            f,
            [
                [f.add(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ],
        )

    def sub(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionError("matrix sub shape mismatch")
        f = self.field
        return Matrix(
            f,
            [
                [f.sub(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ],
        )

    def scale(self, c) -> "Matrix":
        f = self.field
        return Matrix(f, [[f.mul(c, a) for a in row] for row in self.data])

    def is_zero(self) -> bool:
        f = self.field
        return all(f.is_zero(a) for row in self.data for a in row)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product, row-major pair ordering."""
        f = self.field
        out = []
        for ra in self.data:
            for rb in other.data:
                out.append([f.mul(a, b) for a in ra for b in rb])
        return Matrix(f, out)


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


def rank(mat: Matrix) -> int:
    return len(rref(mat)[1])


def kernel_basis(mat: Matrix) -> list[list]:
    """Canonical basis of the right kernel {x : mat x = 0}."""
    f = mat.field
    red, pivots = rref(mat)
    pivot_set = set(pivots)
    free = [c for c in range(mat.cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [f.zero] * mat.cols
        v[fc] = f.one
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(red.data[r][fc])
        basis.append(v)
    return basis


def solve(mat: Matrix, b: list) -> Optional[tuple[list, list[list]]]:
    """One particular solution of mat x = b plus kernel basis, or None.

    Returns None when the system is inconsistent. The kernel is read off the
    augmented RREF (whose first columns are RREF(mat) whenever the system is
    consistent), so elimination runs once.
    """
    if len(b) != mat.rows:
        raise DimensionError(f"solve: {mat.rows} rows vs rhs of {len(b)}")
    f = mat.field
    aug = Matrix(f, [row + [bv] for row, bv in zip(mat.data, b)])
    red, pivots = rref(aug)
    if mat.cols in pivots:
        return None
    x = [f.zero] * mat.cols
    for r, pc in enumerate(pivots):
        x[pc] = red.data[r][mat.cols]
    pivot_set = set(pivots)
    free = [c for c in range(mat.cols) if c not in pivot_set]
    kern = []
    for fc in free:
        v = [f.zero] * mat.cols
        v[fc] = f.one
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(red.data[r][fc])
        kern.append(v)
    return x, kern


def invert(mat: Matrix) -> Optional[Matrix]:
    """Exact inverse, or None when singular."""
    if mat.rows != mat.cols:
        raise DimensionError("invert: matrix not square")
    f = mat.field
    n = mat.rows
    ident = Matrix.identity(f, n)
    aug = Matrix(f, [row + irow for row, irow in zip(mat.data, ident.data)])
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return Matrix(f, [row[n:] for row in red.data[:n]])


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
    """The nonzero entries of a dense vector, such as a solution of dense
    elimination or a row of an input file, as a sparse dict."""
    return {i: c for i, c in enumerate(v) if c}


def stack(field: Field, blocks: list[Matrix]) -> Matrix:
    """Vertical stack of matrices with equal column counts."""
    if not blocks:
        raise DimensionError("stack of nothing")
    cols = blocks[0].cols
    data = []
    for blk in blocks:
        if blk.cols != cols:
            raise DimensionError("stack: column mismatch")
        data.extend(row[:] for row in blk.data)
    return Matrix(field, data)
