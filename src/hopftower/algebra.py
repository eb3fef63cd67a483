"""Finite-dimensional associative algebras given by structure constants.

Elements are sparse dicts {basis index: nonzero scalar} from the loader to the
report; scalars are canonical, so two elements are equal exactly when their
dicts are, and ``Algebra.mul_sparse`` is the one product. A multiplication
table keeps only its nonzero products, a row {j: e_i e_j} per basis element,
and other modules read a product through ``Algebra.cell``; every linear map
is a linalg ``LinMap`` of sparse columns. Dense lists appear only at the file
and report boundary (``Algebra.to_dense``). Every subspace keeps its rows in
sparse RREF in one linalg.SparseSolver, which decides membership and reduces
vectors; ``centralizer``, the one commutant solver, builds its constraint
system as sparse columns for ``linalg.kernel_basis``. End(M_N) is the
centralizer of the right multiplications in ``matrix_algebra``, and A (x) A
the ``tensor_algebra`` of A, so both are plain Algebras with the one product.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .fields import Field
from .linalg import (
    DimensionError,
    LinMap,
    SparseSolver,
    invert,
    kernel_basis,
    rank,
    sparse_add,
    sparse_apply,
)


class AlgebraError(ValueError):
    """Inconsistent algebra, module or subspace data."""


# the number of failures a report witness shows (report.Reporter.outcome):
# every check stops each of its failure lists there
WITNESS_FAILURES = 4


@dataclass
class CheckOutcome:
    """The answer of one check: ok, and its failures in report-witness form."""

    ok: bool
    failures: list


# ---------------------------------------------------------------------------
# algebras
# ---------------------------------------------------------------------------


class Algebra:
    """Associative unital algebra over an exact field.

    table[i] is the row {j: {k: c}} of the nonzero products
    e_i e_j = sum_k c e_k, in ascending j; a zero product has no key.
    """

    __slots__ = ("field", "dim", "unit", "table")
    _ZERO = MappingProxyType({})  # every zero product, shared and read-only

    def __init__(self, field: Field, dim: int, table: list[dict[int, dict]], unit: dict):
        self.field = field
        self.dim = dim
        self.table = table
        self.unit = unit

    @classmethod
    def from_entries(
        cls, field: Field, dim: int, entries: Iterable[tuple[int, int, int, object]], unit: dict
    ) -> "Algebra":
        rows: list[dict[int, dict]] = [{} for _ in range(dim)]
        for i, j, k, c in entries:
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise AlgebraError(f"structure constant index out of range: {(i, j, k)}")
            sparse_add(field, rows[i].setdefault(j, {}), k, c)
        table = [{j: row[j] for j in sorted(row) if row[j]} for row in rows]
        return cls(field, dim, table, dict(unit))

    def entries(self) -> list[tuple[int, int, int, object]]:
        return [(i, j, k, cell[k]) for i, row in enumerate(self.table) for j, cell in row.items() for k in sorted(cell)]

    def cell(self, i: int, j: int) -> Mapping:
        """e_i e_j as a read-only sparse dict, empty when it is zero. A law
        over all basis pairs (eps, Delta or S (anti-)multiplicative, module
        axioms, a pairing identity, the full scans of verify_algebra and
        check_morphism) must visit the zero products too, as 0 is what the law
        asserts of the other side; only a kernel that sums products may skip
        them."""
        row = self.table[i]
        return row[j] if j in row else self._ZERO

    # -- products -------------------------------------------------------
    def mul_sparse(self, x: dict, y: dict) -> dict:
        f = self.field
        fadd, fmul = f.add, f.mul
        out: dict = {}
        table = self.table
        for i, xi in x.items():
            row = table[i]
            for j, yj in y.items():
                if j not in row:  # e_i e_j = 0: most basis products vanish
                    continue
                c = fmul(xi, yj)
                # sparse_add inlined, first write included: this loop runs
                # millions of times per pass. c * t is a product of nonzero
                # scalars, so it is stored untested under a new key.
                for k, t in row[j].items():
                    old = out.get(k)
                    if old is None:
                        out[k] = fmul(c, t)
                    else:
                        v = fadd(old, fmul(c, t))
                        if v:
                            out[k] = v
                        else:
                            del out[k]
        return out

    def to_dense(self, d: dict) -> list:
        """Coordinate list of an element, for files and report witnesses."""
        v = [self.field.zero] * self.dim
        for i, c in d.items():
            v[i] = c
        return v

    def commutes(self, x: dict, y: dict) -> bool:
        return self.mul_sparse(x, y) == self.mul_sparse(y, x)


def matrix_algebra(field: Field, n: int) -> Algebra:
    """End_k(k^n) = M_n(k): the matrix unit e_ab, the map e_b -> e_a, at
    a * n + b, with e_ab e_bd = e_ad, so the product is composition."""
    one = field.one
    table = [{b * n + d: {a * n + d: one} for d in range(n)} for a in range(n) for b in range(n)]
    return Algebra(field, n * n, table, {a * n + a: one for a in range(n)})


def matrix_element(g: LinMap) -> dict:
    """The element of matrix_algebra(field, n) that is the n x n map g."""
    n = g.codomain_dim
    return {a * n + b: c for b, col in enumerate(g.columns) for a, c in col.items()}


def matrix_map(field: Field, n: int, x: dict) -> LinMap:
    """The n x n map that is the element x of matrix_algebra(field, n)."""
    cols: list[dict] = [{} for _ in range(n)]
    for k, c in x.items():
        a, b = divmod(k, n)
        cols[b][a] = c
    return LinMap(field, cols, n)


def tensor_algebra(alg: Algebra) -> Algebra:
    """alg (x) alg with the componentwise product: e_p (x) e_q at p * d + q,
    (e_p (x) e_q)(e_r (x) e_s) = e_p e_r (x) e_q e_s."""
    f, d = alg.field, alg.dim
    table = []
    for row_p in alg.table:
        for row_q in alg.table:
            # r and s ascend in their rows, so r * d + s ascends; the keys
            # k * d + l of a cell are distinct and its entries products of
            # nonzero scalars, so nothing cancels
            table.append({r * d + s: {k * d + l: f.mul(ck, cl) for k, ck in pr.items() for l, cl in qs.items()}
                          for r, pr in row_p.items() for s, qs in row_q.items()})
    unit = {i * d + j: f.mul(a, b) for i, a in alg.unit.items() for j, b in alg.unit.items()}
    return Algebra(f, d * d, table, unit)


def generators(alg: Algebra, seeds: Iterable[dict] = ()) -> list[dict]:
    """A set S such that 1 and the left-normed words ((s_1 s_2) ...) s_r in S
    span alg: the seeds in order, then, while the word span is not all of alg,
    the lowest basis element outside it. Seeds that come after the span is
    full are left out."""
    return _generators(alg, seeds)[0]


def _generators(alg: Algebra, seeds: Iterable[dict] = ()) -> tuple[list[dict], list[list[dict]]]:
    """generators(alg, seeds) and, for each g in it, its right multiplication
    operator R_g = [e_l g for every basis l].

    The word span W is the least subspace holding 1 with W g in W for every g
    in S. It is kept in one SparseSolver and grown from the reduced rows that
    entered it: a pending vector v is reduced modulo W, and a nonzero residual
    r is added and its images r g queued for every g in S; adding g queues the
    images under R_g of every row added so far. This is the spinning step of
    the MeatAxe (Parker 1984). W g in W is linear in W, so it holds once it
    holds on the rows, a basis of W, and span(W, v) = span(W, r). So after
    each closure W is the least such subspace for the current S, which is
    unique; each decision (keep a seed, stop on a full span, take the lowest
    basis element outside it) reads only W, so the result is deterministic
    and that of the closure over the words themselves.
    """
    f = alg.field
    one = f.one
    span = SparseSolver(f, alg.dim)
    rows: list[dict] = []  # the residuals that enlarged the span: a basis of it
    gens: list[dict] = []
    rights: list[list[dict]] = []

    def close(pending: list[dict]) -> None:
        while pending and span.rank() < alg.dim:
            r = span.reduce(pending.pop())
            if r:
                span.add_row(r, f.zero)
                rows.append(r)
                pending.extend(sparse_apply(f, right, r) for right in rights)

    def extend(g: dict) -> None:
        right = [alg.mul_sparse({l: one}, g) for l in range(alg.dim)]
        gens.append(g)
        rights.append(right)
        close([sparse_apply(f, right, r) for r in rows])

    close([alg.unit])
    for s in seeds:
        if span.rank() == alg.dim:
            return gens, rights
        extend(s)
    for k in range(alg.dim):
        if span.rank() == alg.dim:
            break
        if span.reduce({k: one}):
            extend({k: one})
    return gens, rights


def module_generators(up: Algebra, incl: LinMap, side: str, seeds: Iterable[dict] = ()) -> list[dict]:
    """A set G with span(incl(down) . G) = up (side "left") or
    span(G . incl(down)) = up (side "right"), down being the domain of incl:
    the seeds that enlarge that span, in order, then the lowest basis elements
    outside it, until it is all of up. The basis of up when it never is.

    The span is kept in one SparseSolver, so it certifies the result and the
    seeds only affect how many elements it takes.
    """
    f = up.field
    span = SparseSolver(f, up.dim)
    gens: list[dict] = []

    def offer(g: dict) -> None:
        before = span.rank()
        for d in incl.columns:
            span.add_row(up.mul_sparse(d, g) if side == "left" else up.mul_sparse(g, d), f.zero)
        if span.rank() > before:
            gens.append(g)

    for s in seeds:
        if span.rank() == up.dim:
            break
        offer(s)
    for k in range(up.dim):
        if span.rank() == up.dim:
            break
        if span.reduce({k: f.one}):
            offer({k: f.one})
    if span.rank() < up.dim:  # e_k outside incl(down) . e_k: incl(1) is not the unit
        return [{k: f.one} for k in range(up.dim)]
    return gens


def _assoc_failures(alg: Algebra, rights: list[list[dict]]) -> Iterator[dict]:
    """Basis triples (i, j, r) with (e_i e_j) g_r != e_i (e_j g_r), in that
    loop order, for right factors g_r given by rights[r][l] = e_l g_r.

    Both sides expand from the table and rights, accumulating in mul_sparse's
    order: (e_i e_j) g = sum_l c_ij^l e_l g and e_i (e_j g) = sum_l (e_j g)_l e_i e_l.
    sparse_add is inlined as in mul_sparse, first write included, since this
    runs millions of times per pass: c and t are nonzero entries of the table
    and of rights, so their product is stored untested under a new key.

    Only the live j are visited, the keys nz_i = {l : e_i e_l != 0} of row i
    and those with supp(e_j g_r) meeting nz_i for some r; every other pair is
    0 = 0. The lhs is 0 unless e_i e_j != 0, that is j in nz_i. The rhs is 0
    unless e_i e_l != 0 for some l in supp(e_j g), that is it meets nz_i.
    """
    f = alg.field
    fadd, fmul = f.add, f.mul
    table = alg.table
    # users[l]: the j with l in supp(e_j g_r) for some r
    users: list[set] = [set() for _ in range(alg.dim)]
    for right in rights:
        for j, prod in enumerate(right):
            for l in prod:
                users[l].add(j)
    for i in range(alg.dim):
        row_i = table[i]
        live = set(row_i)
        for l in row_i:
            live |= users[l]
        for j in sorted(live):
            ij_terms = row_i[j].items() if j in row_i else ()
            for r, right in enumerate(rights):
                lhs: dict = {}
                for l, c in ij_terms:
                    for m, t in right[l].items():
                        old = lhs.get(m)
                        if old is None:
                            lhs[m] = fmul(c, t)
                        else:
                            s = fadd(old, fmul(c, t))
                            if s:
                                lhs[m] = s
                            else:
                                del lhs[m]
                rhs: dict = {}
                for l, c in right[j].items():
                    if l not in row_i:
                        continue
                    for m, t in row_i[l].items():
                        old = rhs.get(m)
                        if old is None:
                            rhs[m] = fmul(c, t)
                        else:
                            s = fadd(old, fmul(c, t))
                            if s:
                                rhs[m] = s
                            else:
                                del rhs[m]
                if lhs != rhs:
                    yield {"triple": (i, j, r), "lhs": lhs, "rhs": rhs}


def law_failures(failures: Callable[[list], Iterator], generators: Optional[list], basis: Callable[[], list]) -> list:
    """The one fallback of every law decided on generators.

    failures(factors) yields the law's failures over the given factors, in
    scan order. When generators is given and failures(generators) yields
    nothing, the law holds everywhere and the result is []. Otherwise it is
    the first WITNESS_FAILURES failures of failures(basis()); basis is called
    only then.
    """
    if generators is not None and next(failures(generators), None) is None:
        return []
    return list(islice(failures(basis()), WITNESS_FAILURES))


def verify_algebra(alg: Algebra, seeds: Iterable[dict] = ()) -> tuple[CheckOutcome, Optional[list]]:
    """Check the unit laws on all basis elements, then associativity.

    Returns the outcome, unit then associativity failures with both sides in
    report-witness form, and generators(alg, seeds), the generating set the
    associativity check ran on (the seeds start it); None when a unit law
    failed first.

    Associativity is decided on a generating set (Light's associativity test;
    Clifford-Preston, The Algebraic Theory of Semigroups I, AMS 1961, sec. 1.2).
    The right nucleus Z = {z : (xy)z = x(yz) for all x, y} is a subspace closed
    under products, since (xy)(zw) = ((xy)z)w = (x(yz))w = x((yz)w) = x(y(zw))
    for z, w in Z; it holds 1 once x1 = x for all x. So if 1 and the
    left-normed words in S = generators(alg, seeds) span alg, then Z = alg
    exactly when (e_i e_j) g = e_i (e_j g) for every basis pair (i, j) and
    every g in S. This is exact and deterministic.

    When a unit law fails, the check runs on the basis (law_failures).
    """
    f = alg.field
    w = f.witness
    failures = []
    us = alg.unit
    for i in range(alg.dim):
        ei = {i: f.one}
        left = alg.mul_sparse(us, ei)
        right = alg.mul_sparse(ei, us)
        if left != ei or right != ei:
            failures.append({"basis": i, "left": w(left), "right": w(right)})
            if len(failures) >= WITNESS_FAILURES:
                break
    gens = rights = None
    if not failures:
        gens, rights = _generators(alg, seeds)
    # the scan: right factors e_k, with e_l e_k = cell(l, k)
    found = law_failures(
        lambda rs: _assoc_failures(alg, rs), rights,
        lambda: [[alg.cell(l, k) for l in range(alg.dim)] for k in range(alg.dim)])
    failures += [{"triple": fl["triple"], "lhs": w(fl["lhs"]), "rhs": w(fl["rhs"])} for fl in found]
    return CheckOutcome(not failures, failures), gens


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------


def _row_space(field: Field, cols: int, vectors: list[dict]) -> SparseSolver:
    """The span of vectors as sparse RREF rows in a frozen SparseSolver."""
    solver = SparseSolver(field, cols)
    zero = field.zero
    for v in vectors:
        solver.add_row(v, zero)
    solver.freeze()
    return solver


class SubspaceBasis:
    """Linearly independent vectors inside an ambient algebra.

    ``vectors`` is the basis as given (coordinates of attached maps refer to
    it); from_spanning gives the canonical basis, the RREF rows of the span.
    The span itself is kept in sparse RREF in a SparseSolver, so membership is
    "reduces to zero" and two subspaces are equal when their pivot rows are.

    ``coords`` reads v at the pivots, which fixes v in the span as the reduced
    rows are fully reduced: with B the vectors restricted to the pivot columns,
    coords(v) is (B^T)^-1 v[pivots]. The inverse is cached on first use (for
    from_spanning, whose B is the identity, it is the identity), and so
    are ``induced_algebra`` and ``induced_generators``: do not mutate
    ``vectors``, the induced algebra or its generators.
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
        self._induced: Optional[tuple[Algebra, LinMap]] = None
        self._induced_generators: Optional[list[dict]] = None

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

    def is_unital_subalgebra(self) -> bool:
        alg = self.ambient
        reduce = self._space.reduce
        if reduce(alg.unit):
            return False
        xs = self.vectors
        return not any(reduce(alg.mul_sparse(x, y)) for x in xs for y in xs)

    def induced_algebra(self) -> tuple[Algebra, LinMap]:
        """Algebra structure on this subspace plus the embedding map, built on
        first use and then returned as the same objects."""
        if self._induced is None:
            self._induced = self._build_induced()
        return self._induced

    def induced_generators(self) -> list[dict]:
        """generators() of the induced algebra, in this subspace's coordinates,
        formed on first use and then returned as the same list."""
        if self._induced_generators is None:
            self._induced_generators = generators(self.induced_algebra()[0])
        return self._induced_generators

    def _build_induced(self) -> tuple[Algebra, LinMap]:
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
        out._coord_map = LinMap.identity(ambient.field, out.dim)
        return out


def span_dim(field: Field, vectors: list[dict]) -> int:
    cols = 1 + max((k for v in vectors for k in v), default=-1)
    return _row_space(field, cols, vectors).rank()


# ---------------------------------------------------------------------------
# centralizers
# ---------------------------------------------------------------------------


def centralizer(
    alg: Algebra, sub: SubspaceBasis, require_subalgebra: bool = True, sub_generators: Optional[list] = None
) -> SubspaceBasis:
    """Canonical basis of {x in alg : xs = sx for every s in sub}.

    Given sub_generators, elements of alg whose words with 1 span sub (pass
    them only once alg is known to be associative with unit), x need only
    commute with them: xss' = sxs' = ss'x, so the s that x commutes with form a
    subalgebra. By the same identity the centralizer is then a unital
    subalgebra, and its closure assertion, which runs without them, is skipped.
    """
    if require_subalgebra and not sub.is_unital_subalgebra():
        raise AlgebraError("centralizer: given subspace is not a unital subalgebra")
    f = alg.field
    d = alg.dim
    constraints = sub.vectors if sub_generators is None else sub_generators
    # column j: s e_j - e_j s stacked over the constraints s (row k * dim + r)
    cols = []
    for j in range(d):
        ej = {j: f.one}
        col: dict = {}
        for k, s in enumerate(constraints):
            diff = alg.mul_sparse(s, ej)
            for r, c in alg.mul_sparse(ej, s).items():
                sparse_add(f, diff, r, f.neg(c))
            col.update((k * d + r, c) for r, c in diff.items())
        cols.append(col)
    out = SubspaceBasis.from_spanning(alg, kernel_basis(LinMap(f, cols, len(constraints) * d)))
    if sub_generators is None and not out.is_unital_subalgebra():
        raise AlgebraError("centralizer output failed closure check")
    return out


def right_module_endomorphisms(M: Algebra, embed: LinMap) -> SubspaceBasis:
    """End(M_N): the centralizer in End_k(M) = matrix_algebra(field, dim M)
    of the right multiplications R_n: m -> m n by the image N of embed
    (N-coordinates -> M). The R_n are passed as its generators, as
    End_k(M) is associative; centralizer raises AlgebraError when their span
    is not a unital subalgebra, as over a non-associative M."""
    f, d = M.field, M.dim
    end = matrix_algebra(f, d)
    rights = [matrix_element(LinMap(f, [M.mul_sparse({b: f.one}, n) for b in range(d)], d)) for n in embed.columns]
    return centralizer(end, SubspaceBasis.from_spanning(end, rights), sub_generators=rights)


# ---------------------------------------------------------------------------
# quotient tensor products  M (x)_N M  and  M (x)_N M (x)_N M
# ---------------------------------------------------------------------------


class TensorQuotient:
    """M (x)_N ... (x)_N M with 2 or 3 factors, as a quotient of the tensor
    power over k.

    An ambient basis tuple (i_1, ..., i_f) sits at the flat index with digits
    i_1 ... i_f in base dim M. The balanced relations
    ... (x) x n (x) y (x) ... - ... (x) x (x) n y (x) ..., for every adjacent
    pair of factors, basis elements x, y and basis vector n of N, are kept in
    sparse RREF by a SparseSolver. The canonical quotient basis ``basis`` lists
    the tuples of the non-pivot coordinates, and ``project`` reduces modulo the
    relations. RREF is unique, so neither depends on the order of the rows.

    Given n_generators, elements of M whose words with 1 span N (pass them only
    once M is known to be associative with unit), n runs over them alone. The
    relations span the same space: for n = ws the relation at (x, y) is the
    one for s at (xw, y) plus the one for w at (x, sy), as
    xws (x) y - x (x) wsy = (xw s (x) y - xw (x) sy) + (xw (x) sy - x (x) w sy),
    so the n whose relations lie in their span form a subalgebra.
    """

    def __init__(self, M: Algebra, N: SubspaceBasis, factors: int = 2, n_generators: Optional[list] = None):
        self.M = M
        self.N = N
        f = M.field
        d = M.dim
        one = f.one
        size = d ** factors
        strides = [d ** (factors - 1 - p) for p in range(factors)]
        # per n: the products e_a n and n e_b over the basis of M
        sides = [
            ([M.mul_sparse({a: one}, n) for a in range(d)], [M.mul_sparse(n, {b: one}) for b in range(d)])
            for n in (N.vectors if n_generators is None else n_generators)
        ]
        relations = SparseSolver(f, size)
        for right, left in sides:
            for t in range(size):
                for p in range(factors - 1):
                    hi, lo = strides[p], strides[p + 1]
                    a, b = t // hi % d, t // lo % d
                    # e_a n in factor p minus n e_b in factor p + 1, the other factors of t kept
                    row: dict = {}
                    for l, c in right[a].items():
                        sparse_add(f, row, t + (l - a) * hi, c)
                    for m, c in left[b].items():
                        sparse_add(f, row, t + (m - b) * lo, f.neg(c))
                    relations.add_row(row, f.zero)
        relations.freeze()
        self._relations = relations
        free = [(col, tup) for col, tup in enumerate(product(range(d), repeat=factors)) if col not in relations.pivots]
        self.basis = [tup for _, tup in free]
        self.dim = len(self.basis)
        self._index = {col: c for c, (col, _) in enumerate(free)}

    def is_free(self, col: int) -> bool:
        """Whether the flat column col is a quotient basis tensor (not a pivot)."""
        return col in self._index

    def project(self, tensor: dict) -> dict:
        """Quotient coordinates of a sparse element of the tensor power over k."""
        index = self._index
        return {index[col]: c for col, c in self._relations.reduce(tensor).items()}

    def pure_tensor(self, *xs: dict) -> dict:
        """x_1 (x) ... (x) x_f as a sparse ambient element."""
        f = self.M.field
        d = self.M.dim
        out = dict(xs[0])
        for y in xs[1:]:
            out = {i * d + j: f.mul(a, b) for i, a in out.items() for j, b in y.items()}
        return out

    def project_pure(self, *xs: dict) -> dict:
        return self.project(self.pure_tensor(*xs))


# ---------------------------------------------------------------------------
# morphism verification
# ---------------------------------------------------------------------------


def check_morphism(f_map: LinMap, A: Algebra, B: Algebra, domain_generators: Optional[list] = None) -> CheckOutcome:
    """Unitality, multiplicativity on all basis pairs, bijectivity via rank.

    ok says f_map is an algebra isomorphism; it is an algebra map exactly when
    the failures are empty.

    Given domain_generators, elements whose words with 1 span A (pass them
    only once A and B are both known to be associative with unit),
    multiplicativity is first checked on the pairs (e_i, g) alone. When
    f(1) = 1, the y with f(xy) = f(x)f(y) for all x hold 1 and form a
    subalgebra, as f(xyz) = f(xy)f(z) = f(x)f(y)f(z) = f(x)f(yz). When
    f(1) != 1, the check runs on the basis (law_failures).
    """
    if f_map.domain_dim != A.dim or f_map.codomain_dim != B.dim:
        raise DimensionError("check_morphism: map shape does not match algebras")
    unit_ok = f_map.apply(A.unit) == B.unit
    failures = [] if unit_ok else [{"kind": "unit"}]
    found = mult_failures(f_map, A, B, domain_generators if unit_ok else None)
    w = A.field.witness
    failures += [{"kind": "mult", "pair": pair, "lhs": w(B.to_dense(lhs)), "rhs": w(B.to_dense(rhs))}
                 for pair, lhs, rhs in found]
    return CheckOutcome(not failures and A.dim == B.dim and rank(f_map) == A.dim, failures)


def mult_failures(f_map: LinMap, A: Algebra, B: Algebra, generators: Optional[list]) -> list:
    """law_failures of f(x y) = f(x) f(y), as ((i, j), f(e_i g_j), f(e_i) f(g_j)):
    on the pairs (e_i, g) for g in generators (pass them only when f(1) = 1
    and A is associative, as in check_morphism), else on every basis pair."""
    one = A.field.one
    rights = None if generators is None else [
        (f_map.apply(g), [A.mul_sparse({i: one}, g) for i in range(A.dim)]) for g in generators]
    # the scan: right factors e_j, with e_i e_j = cell(i, j)
    return law_failures(
        lambda rs: _mult_failures(f_map, A, B, rs), rights,
        lambda: [(f_map.columns[j], [A.cell(i, j) for i in range(A.dim)]) for j in range(A.dim)])


def _mult_failures(f_map: LinMap, A: Algebra, B: Algebra, rights: list) -> Iterator[tuple]:
    """((i, r), f(e_i g_r), f(e_i) f(g_r)) where the two differ, in that loop
    order, for right factors given by rights[r] = (f(g_r), [e_l g_r for each
    basis l])."""
    images = f_map.columns
    for i in range(A.dim):
        for r, (f_g, products) in enumerate(rights):
            lhs = f_map.apply(products[i])
            rhs = B.mul_sparse(images[i], f_g)
            if lhs != rhs:
                yield (i, r), lhs, rhs
