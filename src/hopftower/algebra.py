"""Finite-dimensional associative algebras given by structure constants.

Elements are sparse dicts {basis index: nonzero scalar} from the loader to the
report; scalars are canonical, so two elements are equal exactly when their
dicts are, and ``Algebra.mul_sparse`` is the one product. Multiplication
tables are stored the same way (a dict per basis pair), and every linear map
is a linalg ``LinMap`` of sparse columns. Dense lists appear only at the file
and report boundary (``Algebra.to_dense``). Every subspace keeps its rows in
sparse RREF in one linalg.SparseSolver, which decides membership and reduces
vectors; centralizers and endomorphism algebras build their constraint
systems as sparse columns for ``linalg.kernel_basis``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .fields import Field
from .linalg import (
    DimensionError,
    LinMap,
    SparseSolver,
    invert,
    kernel_basis,
    map_combination,
    rank,
    sparse_add,
)


class AlgebraError(ValueError):
    """Inconsistent algebra, module or subspace data."""


# ---------------------------------------------------------------------------
# algebras
# ---------------------------------------------------------------------------


class Algebra:
    """Associative unital algebra over an exact field.

    table[i][j] is a sparse dict {k: c} with e_i e_j = sum_k c e_k.
    """

    __slots__ = ("field", "dim", "unit", "table")

    def __init__(self, field: Field, dim: int, table: list[list[dict]], unit: dict):
        self.field = field
        self.dim = dim
        self.table = table
        self.unit = unit

    @classmethod
    def from_entries(
        cls, field: Field, dim: int, entries: Iterable[tuple[int, int, int, object]], unit: dict
    ) -> "Algebra":
        table: list[list[dict]] = [[{} for _ in range(dim)] for _ in range(dim)]
        for i, j, k, c in entries:
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise AlgebraError(f"structure constant index out of range: {(i, j, k)}")
            sparse_add(field, table[i][j], k, c)
        return cls(field, dim, table, dict(unit))

    def entries(self) -> list[tuple[int, int, int, object]]:
        out = []
        for i in range(self.dim):
            for j in range(self.dim):
                for k in sorted(self.table[i][j]):
                    out.append((i, j, k, self.table[i][j][k]))
        return out

    # -- products -------------------------------------------------------
    def mul_sparse(self, x: dict, y: dict) -> dict:
        f = self.field
        fadd, fmul = f.add, f.mul
        zero = f.zero
        out: dict = {}
        table = self.table
        for i, xi in x.items():
            row = table[i]
            for j, yj in y.items():
                c = fmul(xi, yj)
                # sparse_add inlined: this loop runs millions of times per pass
                for k, t in row[j].items():
                    v = fadd(out.get(k, zero), fmul(c, t))
                    if v:
                        out[k] = v
                    else:
                        out.pop(k, None)
        return out

    def to_dense(self, d: dict) -> list:
        """Coordinate list of an element, for files and report witnesses."""
        v = [self.field.zero] * self.dim
        for i, c in d.items():
            v[i] = c
        return v

    def commutes(self, x: dict, y: dict) -> bool:
        return self.mul_sparse(x, y) == self.mul_sparse(y, x)


@dataclass
class AlgebraReport:
    ok: bool
    unit_failures: list
    assoc_failures: list

    def summary(self) -> str:
        if self.ok:
            return "algebra axioms hold on all basis pairs/triples"
        return (
            f"{len(self.unit_failures)} unit failure(s), "
            f"{len(self.assoc_failures)} associativity failure(s); "
            f"first: {self.unit_failures[:1] or self.assoc_failures[:1]}"
        )


def verify_algebra(alg: Algebra, max_failures: int = 5) -> AlgebraReport:
    """Check unit laws on all basis elements and associativity on all triples."""
    f = alg.field
    unit_failures = []
    us = alg.unit
    for i in range(alg.dim):
        ei = {i: f.one}
        left = alg.mul_sparse(us, ei)
        right = alg.mul_sparse(ei, us)
        if left != ei or right != ei:
            unit_failures.append({"basis": i, "left": left, "right": right})
            if len(unit_failures) >= max_failures:
                break
    # both sides expand straight from the table, accumulating in mul_sparse's
    # order: (e_i e_j) e_k = sum_l c_ij^l e_l e_k, e_i (e_j e_k) = sum_l c_jk^l e_i e_l;
    # sparse_add is inlined as in mul_sparse, since this runs millions of times per pass
    assoc_failures = []
    table = alg.table
    fadd, fmul, zero = f.add, f.mul, f.zero
    for i in range(alg.dim):
        row_i = table[i]
        for j in range(alg.dim):
            ij_terms = row_i[j].items()
            row_j = table[j]
            for k in range(alg.dim):
                lhs: dict = {}
                for l, c in ij_terms:
                    for m, t in table[l][k].items():
                        s = fadd(lhs.get(m, zero), fmul(c, t))
                        if s:
                            lhs[m] = s
                        else:
                            lhs.pop(m, None)
                rhs: dict = {}
                for l, c in row_j[k].items():
                    for m, t in row_i[l].items():
                        s = fadd(rhs.get(m, zero), fmul(c, t))
                        if s:
                            rhs[m] = s
                        else:
                            rhs.pop(m, None)
                if lhs != rhs:
                    assoc_failures.append(
                        {"triple": (i, j, k), "lhs": lhs, "rhs": rhs}
                    )
                    if len(assoc_failures) >= max_failures:
                        return AlgebraReport(False, unit_failures, assoc_failures)
    ok = not unit_failures and not assoc_failures
    return AlgebraReport(ok, unit_failures, assoc_failures)


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


def _row_space(field: Field, cols: int, vectors: list[dict]) -> SparseSolver:
    """The span of vectors as sparse RREF rows in a SparseSolver."""
    solver = SparseSolver(field, cols, reduce_fully=True)
    zero = field.zero
    for v in vectors:
        solver.add_row(v, zero)
    return solver


class SubspaceBasis:
    """Linearly independent vectors inside an ambient algebra.

    ``vectors`` is the basis as given (coordinates of attached maps refer to
    it); from_spanning gives the canonical basis, the RREF rows of the span.
    The span itself is kept in sparse RREF in a SparseSolver, so membership is
    "reduces to zero" and two subspaces are equal when their pivot rows are.

    ``coords`` reads v at the pivots, which fixes v in the span as the reduced
    rows are fully reduced: with B the vectors restricted to the pivot columns,
    coords(v) is (B^T)^-1 v[pivots]. The inverse is cached on first use: do not
    mutate ``vectors``.
    """

    def __init__(self, ambient: Algebra, vectors: list[dict]):
        space = _row_space(ambient.field, ambient.dim, vectors)
        if space.rank() < len(vectors):
            raise AlgebraError("subspace basis vectors are dependent")
        self._attach(ambient, [dict(v) for v in vectors], space)

    def _attach(self, ambient: Algebra, vectors: list[dict], space: SparseSolver) -> None:
        self.ambient = ambient
        self.vectors = vectors
        self._space = space
        self._pivots = sorted(space.pivots)
        self._coord_map: Optional[LinMap] = None

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def contains(self, v: dict) -> bool:
        return not self._space.reduce(v)

    def _at_pivots(self, v: dict) -> dict:
        return {r: v[p] for r, p in enumerate(self._pivots) if p in v}

    def coords(self, v: dict) -> Optional[dict]:
        """Coordinates of v in self.vectors, or None when v is outside."""
        if not self.contains(v):
            return None
        if self._coord_map is None:
            f = self.ambient.field
            b_transposed = LinMap(f, [self._at_pivots(x) for x in self.vectors], len(self._pivots))
            self._coord_map = invert(b_transposed)
        return self._coord_map.apply(self._at_pivots(v))

    def equals(self, other: "SubspaceBasis") -> bool:
        return self._space.pivots == other._space.pivots

    def contains_subspace(self, other: "SubspaceBasis") -> bool:
        return all(self.contains(v) for v in other.vectors)

    def is_unital_subalgebra(self) -> bool:
        alg = self.ambient
        reduce = self._space.reduce
        if reduce(alg.unit):
            return False
        xs = self.vectors
        return not any(reduce(alg.mul_sparse(x, y)) for x in xs for y in xs)

    def induced_algebra(self) -> tuple[Algebra, LinMap]:
        """Algebra structure on this subspace plus the embedding map."""
        alg = self.ambient
        f = alg.field
        entries = []
        for i, x in enumerate(self.vectors):
            for j, y in enumerate(self.vectors):
                coords = self.coords(alg.mul_sparse(x, y))
                if coords is None:
                    raise AlgebraError("subspace not closed under multiplication")
                entries.extend((i, j, k, c) for k, c in coords.items())
        unit = self.coords(alg.unit)
        if unit is None:
            raise AlgebraError("subspace does not contain the unit")
        sub = Algebra.from_entries(f, self.dim, entries, unit)
        embed = LinMap(f, list(self.vectors), alg.dim)
        return sub, embed

    @classmethod
    def from_spanning(cls, ambient: Algebra, vectors: list[dict]) -> "SubspaceBasis":
        """Canonical subspace from a spanning set (RREF rows)."""
        space = _row_space(ambient.field, ambient.dim, vectors)
        out = cls.__new__(cls)
        out._attach(ambient, [dict(space.pivots[p]) for p in sorted(space.pivots)], space)
        return out


def span_dim(field: Field, vectors: list[dict]) -> int:
    cols = 1 + max((k for v in vectors for k in v), default=-1)
    return _row_space(field, cols, vectors).rank()


# ---------------------------------------------------------------------------
# centralizers
# ---------------------------------------------------------------------------


def centralizer(alg: Algebra, sub: SubspaceBasis, require_subalgebra: bool = True) -> SubspaceBasis:
    """Canonical basis of {x in alg : xs = sx for every s in sub}."""
    if require_subalgebra and not sub.is_unital_subalgebra():
        raise AlgebraError("centralizer: given subspace is not a unital subalgebra")
    f = alg.field
    d = alg.dim
    # column j: s e_j - e_j s stacked over the basis s of sub (row k * dim + r)
    cols = []
    for j in range(d):
        ej = {j: f.one}
        col: dict = {}
        for k, s in enumerate(sub.vectors):
            diff = alg.mul_sparse(s, ej)
            for r, c in alg.mul_sparse(ej, s).items():
                sparse_add(f, diff, r, f.neg(c))
            col.update((k * d + r, c) for r, c in diff.items())
        cols.append(col)
    out = SubspaceBasis.from_spanning(alg, kernel_basis(LinMap(f, cols, len(sub.vectors) * d)))
    if not out.is_unital_subalgebra():
        raise AlgebraError("centralizer output failed closure check")
    return out


# ---------------------------------------------------------------------------
# quotient tensor product  M (x)_N M
# ---------------------------------------------------------------------------


class TensorQuotient:
    """M tensor M over a unital subalgebra N, as a quotient of M tensor_k M.

    The relation subspace span{mn (x) m' - m (x) nm'} is kept in sparse RREF by
    a SparseSolver; the canonical quotient basis consists of the non-pivot
    coordinates e_i(x)e_j, and the projection reduces modulo the relations.
    """

    def __init__(self, M: Algebra, N: SubspaceBasis):
        self.M = M
        self.N = N
        f = M.field
        d = M.dim
        self.amb_dim = d * d
        relations = SparseSolver(f, self.amb_dim, reduce_fully=True)
        for x in range(d):
            ex = {x: f.one}
            for ns in N.vectors:
                xn = M.mul_sparse(ex, ns)
                for y in range(d):
                    # xn (x) y - x (x) ny
                    row: dict = {}
                    for l, c in xn.items():
                        sparse_add(f, row, l * d + y, c)
                    for m, c in M.mul_sparse(ns, {y: f.one}).items():
                        sparse_add(f, row, x * d + m, f.neg(c))
                    relations.add_row(row, f.zero)

        self._relations = relations
        pivots = relations.pivots
        self.pairs = [(i, j) for i in range(d) for j in range(d) if i * d + j not in pivots]
        self.dim = len(self.pairs)
        self._pair_index = {i * d + j: c for c, (i, j) in enumerate(self.pairs)}

    def project(self, tensor: dict) -> dict:
        """Quotient coordinates of a sparse element of M tensor_k M."""
        index = self._pair_index
        return {index[col]: c for col, c in self._relations.reduce(tensor).items()}

    def pure_tensor(self, x: dict, y: dict) -> dict:
        """x tensor y as a sparse ambient element."""
        f = self.M.field
        d = self.M.dim
        return {i * d + j: f.mul(a, b) for i, a in x.items() for j, b in y.items()}

    def project_pure(self, x: dict, y: dict) -> dict:
        return self.project(self.pure_tensor(x, y))


# ---------------------------------------------------------------------------
# endomorphism algebras of right modules
# ---------------------------------------------------------------------------


@dataclass
class EndomorphismAlgebra:
    """The commutant of a right action. The basis maps, flattened row-major
    (entry (a, b) at a * dim + b), are the RREF rows of its span, kept in
    sparse RREF in ``_space``."""

    algebra: Algebra
    basis: list  # LinMaps
    _space: SparseSolver

    def coords(self, g: LinMap) -> Optional[dict]:
        """Coordinates of an endomorphism in the canonical basis, or None."""
        d = len(g.columns)
        flat = {a * d + b: c for b, col in enumerate(g.columns) for a, c in col.items()}
        if self._space.reduce(flat):
            return None
        return {k: flat[p] for k, p in enumerate(sorted(self._space.pivots)) if p in flat}


def module_axioms_ok(field: Field, dim_v: int, action_maps: list, sub_alg: Algebra) -> bool:
    """Right-module axioms: R_1 = id and R_{nn'} = R_{n'} R_n on basis pairs."""
    if map_combination(field, dim_v, sub_alg.unit, action_maps) != LinMap.identity(field, dim_v):
        return False
    for i in range(sub_alg.dim):
        for j in range(sub_alg.dim):
            prod = map_combination(field, dim_v, sub_alg.table[i][j], action_maps)
            if prod != action_maps[j].compose(action_maps[i]):
                return False
    return True


def endomorphism_algebra(
    field: Field, dim_v: int, action_maps: list, sub_alg: Algebra
) -> EndomorphismAlgebra:
    """Algebra of all endomorphisms commuting with the given right action.

    Raises AlgebraError when the module axioms fail.
    """
    if not module_axioms_ok(field, dim_v, action_maps, sub_alg):
        raise AlgebraError("right-module axioms violated")
    n2 = dim_v * dim_v
    # constraint X R = R X per action map R, unknown X flattened row-major:
    # row (a, b) of block k is sum_c X[a][c] R[c][b] - R[a][c] X[c][b]
    cols: list[dict] = [{} for _ in range(n2)]
    for k, r in enumerate(action_maps):
        base = k * n2
        r_rows = r.transpose().columns
        for p in range(dim_v):
            for q in range(dim_v):
                col = cols[p * dim_v + q]
                for b, c in r_rows[q].items():
                    sparse_add(field, col, base + p * dim_v + b, c)
                for a, c in r.columns[p].items():
                    sparse_add(field, col, base + a * dim_v + q, field.neg(c))
    space = _row_space(field, n2, kernel_basis(LinMap(field, cols, len(action_maps) * n2)))
    maps = []
    for p in sorted(space.pivots):
        map_cols: list[dict] = [{} for _ in range(dim_v)]
        for k, c in space.pivots[p].items():
            a, b = divmod(k, dim_v)
            map_cols[b][a] = c
        maps.append(LinMap(field, map_cols, dim_v))

    endo = EndomorphismAlgebra(None, maps, space)  # type: ignore[arg-type]

    entries = []
    unit_coords = endo.coords(LinMap.identity(field, dim_v))
    if unit_coords is None:
        raise AlgebraError("identity endomorphism escaped the solved basis")
    for i, a in enumerate(maps):
        for j, b in enumerate(maps):
            coords = endo.coords(a.compose(b))
            if coords is None:
                raise AlgebraError("endomorphism product escaped the solved basis")
            entries.extend((i, j, k, c) for k, c in coords.items())
    endo.algebra = Algebra.from_entries(field, len(maps), entries, unit_coords)
    return endo


def right_module_endomorphisms(M: Algebra, n_alg: Algebra, embed: LinMap) -> EndomorphismAlgebra:
    """End(M_N): the endomorphisms of M commuting with right multiplication by
    the image of N under embed (N-coordinates -> M)."""
    basis = [{j: M.field.one} for j in range(M.dim)]
    action_maps = [LinMap(M.field, [M.mul_sparse(ej, n) for ej in basis], M.dim) for n in embed.columns]
    return endomorphism_algebra(M.field, M.dim, action_maps, n_alg)


# ---------------------------------------------------------------------------
# morphism verification
# ---------------------------------------------------------------------------


@dataclass
class MorphismReport:
    is_homomorphism: bool
    is_isomorphism: bool
    failures: list

    def ok(self) -> bool:
        return self.is_homomorphism and self.is_isomorphism


def check_morphism(f_map: LinMap, A: Algebra, B: Algebra, max_failures: int = 5) -> MorphismReport:
    """Multiplicativity and unitality on all basis pairs; bijectivity via rank."""
    if f_map.domain_dim != A.dim or f_map.codomain_dim != B.dim:
        raise DimensionError("check_morphism: map shape does not match algebras")
    fld = A.field
    failures = []
    if f_map.apply(A.unit) != B.unit:
        failures.append({"kind": "unit"})
    images = f_map.columns
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = f_map.apply(A.table[i][j])
            rhs = B.mul_sparse(images[i], images[j])
            if lhs != rhs:
                failures.append({
                    "kind": "mult", "pair": (i, j),
                    "lhs": fld.witness(B.to_dense(lhs)), "rhs": fld.witness(B.to_dense(rhs)),
                })
                if len(failures) >= max_failures:
                    break
        if len(failures) >= max_failures:
            break
    is_homo = not failures
    is_iso = is_homo and A.dim == B.dim and rank(f_map) == A.dim
    return MorphismReport(is_homo, is_iso, failures)
