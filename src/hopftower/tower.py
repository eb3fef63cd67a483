"""Basic construction and the two-step Jones tower.

M1 = M (x)_N M carries the E-multiplication; M2 is built as M1 (x)_M M1 with
the E_M-multiplication, so both levels share one code path. Cross-level
identities are computed after pushing everything to the top level through the
inclusion maps.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import (
    Algebra,
    LinMap,
    SubspaceBasis,
    TensorQuotient,
    check_morphism,
    right_module_endomorphisms,
    span_dim,
)
from .frobenius import (
    CheckOutcome,
    ExtensionSpec,
    FrobeniusError,
    FrobeniusFlags,
    FrobeniusSystem,
    algebra_outcome,
    index_of_pairs,
    pairs_to_tensor,
    scalar_of,
    verify_conditional_expectation,
    verify_frobenius_identities,
)
from .linalg import SparseSolver, rank, sparse_add, sparse_scale


class TowerError(ValueError):
    """Hypotheses for the basic construction are violated."""


@dataclass
class TowerLevel:
    algebra: Algebra
    below: Algebra
    incl: LinMap  # below -> algebra
    e: dict  # Jones idempotent
    cond_exp: LinMap  # algebra -> below coordinates
    lam_inverse: object  # scalar index of the level below
    dual_pairs: list  # E-dual bases of this level over the one below
    sys: Optional[FrobeniusSystem]  # Frobenius system for algebra / below
    checks: list  # (name, CheckOutcome)

    def ok(self) -> bool:
        return all(out.ok for _, out in self.checks)


@dataclass
class TowerData:
    base_sys: FrobeniusSystem
    levels: list  # [TowerLevel, TowerLevel]
    F: LinMap  # M2 -> M coordinates
    emtwo_checks: list

    @property
    def M(self) -> Algebra:
        return self.base_sys.M

    @property
    def M1(self) -> Algebra:
        return self.levels[0].algebra

    @property
    def M2(self) -> Algebra:
        return self.levels[1].algebra

    @property
    def e1(self) -> dict:
        return self.levels[0].e

    @property
    def e2(self) -> dict:
        return self.levels[1].e

    @property
    def incl1(self) -> LinMap:
        return self.levels[0].incl

    @property
    def incl2(self) -> LinMap:
        return self.levels[1].incl

    @property
    def E_M(self) -> LinMap:
        return self.levels[0].cond_exp

    @property
    def E_M1(self) -> LinMap:
        return self.levels[1].cond_exp

    @property
    def lam(self) -> object:
        f = self.M.field
        return f.inv(self.base_sys.lambda_inverse)

    def e1_in_m2(self) -> dict:
        return self.incl2.apply(self.e1)

    def ok(self) -> bool:
        return (
            all(level.ok() for level in self.levels)
            and all(out.ok for _, out in self.emtwo_checks)
        )


# ---------------------------------------------------------------------------
# basic construction
# ---------------------------------------------------------------------------


def basic_construction(sys: FrobeniusSystem) -> TowerLevel:
    """E-multiplication on M (x)_N M, with unit, Jones idempotent, inclusion
    and conditional expectation all rebuilt and re-verified."""
    M, f = sys.M, sys.M.field
    lam_inv = sys.lambda_inverse
    if lam_inv is None:
        raise TowerError("index is not a scalar multiple of the unit")
    if f.is_zero(lam_inv):
        raise TowerError("index is zero")
    if sys.E.apply(M.unit) != sys.ext.n_algebra.unit:
        raise TowerError("system is not normalized: E(1) != 1")
    if sys.tq is None:
        raise FrobeniusError("system lacks its tensor quotient")
    lam = f.inv(lam_inv)
    tq = sys.tq
    dim1 = tq.dim
    e_into_m = sys.ext.e_into_m(sys.E)

    # multiplication table: [a(x)b][c(x)d] = a E(bc) (x) d, with E(bc) formed
    # once per basis pair (b, c) of M
    ebc_of = {(b, c): e_into_m.apply(M.table[b][c]) for b in range(M.dim) for c in range(M.dim)}
    table = [[{} for _ in range(dim1)] for _ in range(dim1)]
    for p, (a, b) in enumerate(tq.pairs):
        ea = {a: f.one}
        for q, (c, d) in enumerate(tq.pairs):
            u = M.mul_sparse(ea, ebc_of[b, c])
            if not u:
                continue
            tens = {}
            for l, cv in u.items():
                tens[l * M.dim + d] = cv
            prod = tq.project(tens)
            if prod:
                table[p][q] = prod

    # unit 1_1 = sum x_i (x) y_i
    unit1 = pairs_to_tensor(tq, M, sys.dual_pairs)
    alg1 = Algebra(f, dim1, table, unit1)

    checks = []
    checks.append(("algebra-axioms", algebra_outcome(alg1)))

    # Jones idempotent e = 1 (x) 1
    e1 = tq.project_pure(M.unit, M.unit)
    idem = alg1.mul_sparse(e1, e1) == e1
    checks.append(("jones-idempotent", CheckOutcome(idem, [] if idem else [{"kind": "e^2 != e"}])))

    # inclusion m -> m . 1_1
    cols = []
    for m in range(M.dim):
        em = {m: f.one}
        pairs = [(M.mul_sparse(em, x), y) for x, y in sys.dual_pairs]
        cols.append(pairs_to_tensor(tq, M, pairs))
    incl = LinMap(f, cols, dim1)
    mono = rank(incl) == M.dim
    morph = check_morphism(incl, M, alg1)
    checks.append(
        (
            "inclusion-monomorphism",
            CheckOutcome(mono and morph.is_homomorphism, morph.failures if not morph.is_homomorphism else []),
        )
    )

    # conditional expectation E_M = lam * mu
    cond_exp = LinMap(f, [sparse_scale(f, lam, M.table[a][b]) for a, b in tq.pairs], M.dim)

    n1 = SubspaceBasis(alg1, incl.columns)
    ext1 = ExtensionSpec(alg1, n1, E=cond_exp)
    checks.append(("condexp-bimodule", verify_conditional_expectation(ext1, cond_exp)))

    # dual bases {lam^-1 x_i (x) 1}, {1 (x) y_i} for E_M
    pairs1 = []
    for x, y in sys.dual_pairs:
        X = tq.project_pure(sparse_scale(f, lam_inv, x), M.unit)
        Y = tq.project_pure(M.unit, y)
        pairs1.append((X, Y))
    sys1 = FrobeniusSystem(
        ext=ext1,
        E=cond_exp,
        tq=None,
        dual_tensor=None,
        dual_pairs=pairs1,
        index=index_of_pairs(alg1, pairs1),
        lambda_inverse=None,
        flags=FrobeniusFlags(),
    )
    sys1.lambda_inverse = scalar_of(alg1, sys1.index)
    checks.append(("level-frobenius-identities", verify_frobenius_identities(sys1)))
    lam_ok = sys1.lambda_inverse is not None and f.eq(sys1.lambda_inverse, lam_inv)
    mismatch = [] if lam_ok else [{"kind": "index mismatch", "value": f.witness(alg1.to_dense(sys1.index))}]
    checks.append(("level-index", CheckOutcome(lam_ok, mismatch)))

    return TowerLevel(
        algebra=alg1,
        below=M,
        incl=incl,
        e=e1,
        cond_exp=cond_exp,
        lam_inverse=lam_inv,
        dual_pairs=pairs1,
        sys=sys1,
        checks=checks,
    )


# ---------------------------------------------------------------------------
# the tower
# ---------------------------------------------------------------------------


def build_tower(sys: FrobeniusSystem) -> TowerData:
    """Two basic constructions plus the composite functional F = E_M o E_M1."""
    level1 = basic_construction(sys)
    sys1 = level1.sys
    assert sys1 is not None
    if sys1.lambda_inverse is None or sys.M.field.is_zero(sys1.lambda_inverse):
        raise TowerError("level-1 index is not a nonzero scalar")
    sys1.tq = TensorQuotient(level1.algebra, sys1.ext.N)
    sys1.dual_tensor = pairs_to_tensor(sys1.tq, level1.algebra, sys1.dual_pairs)
    level2 = basic_construction(sys1)
    F = level1.cond_exp.compose(level2.cond_exp)
    tower = TowerData(base_sys=sys, levels=[level1, level2], F=F, emtwo_checks=[])
    tower.emtwo_checks.extend(_verify_triple_tensor(tower))
    return tower


def _verify_triple_tensor(t: TowerData) -> list:
    """Checks of M2 against the three-fold tensor picture M (x)_N M (x)_N M:
    the rebracketing map is bijective, the conditional expectation matches
    m1 (x) m2 (x) m3 -> lam m1 E(m2) (x) m3, and the closed forms of e2 and
    1_2 in triple coordinates agree."""
    sys = t.base_sys
    M, f = t.M, t.M.field
    d = M.dim
    lam = t.lam
    tq1 = sys.tq
    assert tq1 is not None
    e_into_m = sys.ext.e_into_m(sys.E)

    triple = _TripleQuotient(M, sys.ext.N)

    # phi on the canonical basis of M2: [(a,b) (x) (c,dd)] -> a (x) b.c (x) dd
    level2 = t.levels[1]
    m2_tq = t.levels[0].sys.tq  # tensor quotient of M1 over M used to build M2
    assert m2_tq is not None
    cols = []
    for P, Q in m2_tq.pairs:
        a, b = tq1.pairs[P]
        c, dd = tq1.pairs[Q]
        acc = {(a * d + mid) * d + dd: cv for mid, cv in M.table[b][c].items()}
        cols.append(triple.project(acc))
    phi = LinMap(f, cols, triple.dim)
    checks = []
    bij = triple.dim == level2.algebra.dim and rank(phi) == level2.algebra.dim
    checks.append(("triple-tensor-bijective", CheckOutcome(bij, [] if bij else [{"dims": (triple.dim, level2.algebra.dim)}])))

    # E_M1 through the triple picture
    em1_cols = []
    for i, j, k in triple.reps:
        mid = M.mul_sparse({i: f.one}, e_into_m.columns[j])
        em1_cols.append(sparse_scale(f, lam, tq1.project_pure(mid, {k: f.one})))
    em1_triple = LinMap(f, em1_cols, tq1.dim)
    same = em1_triple.compose(phi) == t.E_M1
    checks.append(("triple-tensor-condexp", CheckOutcome(same, [] if same else [{"kind": "E_M1 mismatch"}])))

    # e2 = sum_{i,j} x_i (x) y_i x_j (x) y_j
    acc: dict = {}
    for xi, yi in sys.dual_pairs:
        for xj, yj in sys.dual_pairs:
            mid = M.mul_sparse(yi, xj)
            for col, cv in triple.pure_tensor3(xi, mid, yj).items():
                sparse_add(f, acc, col, cv)
    ok = phi.apply(t.e2) == triple.project(acc)
    checks.append(("triple-tensor-e2", CheckOutcome(ok, [] if ok else [{"kind": "e2 mismatch"}])))

    # 1_2 = sum_i lam^-1 x_i (x) 1 (x) y_i
    acc = {}
    lam_inv = sys.lambda_inverse
    for xi, yi in sys.dual_pairs:
        for col, cv in triple.pure_tensor3(sparse_scale(f, lam_inv, xi), M.unit, yi).items():
            sparse_add(f, acc, col, cv)
    ok = phi.apply(level2.algebra.unit) == triple.project(acc)
    checks.append(("triple-tensor-unit", CheckOutcome(ok, [] if ok else [{"kind": "1_2 mismatch"}])))
    return checks


class _TripleQuotient:
    """M (x)_N M (x)_N M, the quotient by both middle relations kept in sparse
    RREF by a SparseSolver."""

    def __init__(self, M: Algebra, N: SubspaceBasis):
        self.M = M
        f = M.field
        d = M.dim
        relations = SparseSolver(f, d * d * d, reduce_fully=True)
        for x in range(d):
            for ns in N.vectors:
                xn = M.mul_sparse({x: f.one}, ns)
                for y in range(d):
                    ny = M.mul_sparse(ns, {y: f.one})
                    yn = M.mul_sparse({y: f.one}, ns)
                    for z in range(d):
                        nz = M.mul_sparse(ns, {z: f.one})
                        # xn (x) y (x) z - x (x) ny (x) z
                        row: dict = {}
                        for l, cv in xn.items():
                            sparse_add(f, row, (l * d + y) * d + z, cv)
                        for m, cv in ny.items():
                            sparse_add(f, row, (x * d + m) * d + z, f.neg(cv))
                        relations.add_row(row, f.zero)
                        # x (x) yn (x) z - x (x) y (x) nz
                        row = {}
                        for m, cv in yn.items():
                            sparse_add(f, row, (x * d + m) * d + z, cv)
                        for l, cv in nz.items():
                            sparse_add(f, row, (x * d + y) * d + l, f.neg(cv))
                        relations.add_row(row, f.zero)

        self._relations = relations
        self.reps = [
            (i, j, k)
            for i in range(d)
            for j in range(d)
            for k in range(d)
            if (i * d + j) * d + k not in relations.pivots
        ]
        self.dim = len(self.reps)
        self._index = {(i * d + j) * d + k: c for c, (i, j, k) in enumerate(self.reps)}

    def project(self, tensor: dict) -> dict:
        index = self._index
        return {index[col]: c for col, c in self._relations.reduce(tensor).items()}

    def pure_tensor3(self, x: dict, y: dict, z: dict) -> dict:
        f = self.M.field
        d = self.M.dim
        out: dict = {}
        for i, a in x.items():
            for j, b in y.items():
                ab = f.mul(a, b)
                for k, c in z.items():
                    out[(i * d + j) * d + k] = f.mul(ab, c)
        return out


# ---------------------------------------------------------------------------
# endomorphism ring theorem
# ---------------------------------------------------------------------------


@dataclass
class EndoIsoResult:
    ok: bool
    endo_dim: int
    failures: list


def endo_ring_iso(sys: FrobeniusSystem, level: TowerLevel) -> EndoIsoResult:
    """f -> sum f(x_i) (x) y_i is an algebra isomorphism End(M_N) -> M1,
    with inverse m (x) n -> lambda_m E lambda_n; both directions verified."""
    M, f = sys.M, sys.M.field
    ext = sys.ext
    endo = right_module_endomorphisms(M, ext.n_algebra, ext.embed)
    tq = sys.tq
    assert tq is not None
    failures = []

    cols = []
    for g in endo.basis:
        cols.append(pairs_to_tensor(tq, M, [(g.apply(x), y) for x, y in sys.dual_pairs]))
    phi = LinMap(f, cols, level.algebra.dim)
    morph = check_morphism(phi, endo.algebra, level.algebra)
    if not morph.ok():
        failures.append({"kind": "phi-not-iso", "detail": morph.failures[:2]})

    e_into_m = sys.ext.e_into_m(sys.E)
    psi_cols = []
    for a, b in tq.pairs:
        # m -> a E(b m)
        ea = {a: f.one}
        g = LinMap(f, [M.mul_sparse(ea, e_into_m.apply(M.table[b][m])) for m in range(M.dim)], M.dim)
        coords = endo.coords(g)
        if coords is None:
            failures.append({"kind": "psi-image-outside-End(M_N)", "pair": (a, b)})
            coords = {}
        psi_cols.append(coords)
    psi = LinMap(f, psi_cols, endo.algebra.dim)
    ident1 = phi.compose(psi) == LinMap.identity(f, level.algebra.dim)
    ident2 = psi.compose(phi) == LinMap.identity(f, endo.algebra.dim)
    if not (ident1 and ident2):
        failures.append({"kind": "inverse-check-failed"})
    return EndoIsoResult(not failures, endo.algebra.dim, failures)


# ---------------------------------------------------------------------------
# braid-like relations and Pimsner-Popa identities
# ---------------------------------------------------------------------------


def verify_braid_relations(t: TowerData) -> CheckOutcome:
    """e1 e2 e1 = lam e1 and e2 e1 e2 = lam e2 in M2, plus E_M(e1) = lam 1
    and E_M1(e2) = lam 1_1."""
    f = t.M.field
    M2 = t.M2
    lam = t.lam
    e1h = t.e1_in_m2()
    e2 = t.e2
    failures = []
    if M2.mul_sparse(M2.mul_sparse(e1h, e2), e1h) != sparse_scale(f, lam, e1h):
        failures.append({"kind": "e1e2e1"})
    if M2.mul_sparse(M2.mul_sparse(e2, e1h), e2) != sparse_scale(f, lam, e2):
        failures.append({"kind": "e2e1e2"})
    if t.E_M.apply(t.e1) != sparse_scale(f, lam, t.M.unit):
        failures.append({"kind": "E_M(e1)"})
    if t.E_M1.apply(t.e2) != sparse_scale(f, lam, t.M1.unit):
        failures.append({"kind": "E_M1(e2)"})
    return CheckOutcome(not failures, failures)


def verify_pimsner_popa(t: TowerData) -> CheckOutcome:
    """lam^-1 e E(e x) = e x and the opposite-sided identities, both levels."""
    f = t.M.field
    lam_inv = t.base_sys.lambda_inverse
    failures = []
    M1, M2 = t.M1, t.M2
    for x in range(M1.dim):
        ex = {x: f.one}
        e1x = M1.mul_sparse(t.e1, ex)
        lhs = sparse_scale(f, lam_inv, M1.mul_sparse(t.e1, t.incl1.apply(t.E_M.apply(e1x))))
        if lhs != e1x:
            failures.append({"level": 1, "side": "left", "basis": x})
        xe1 = M1.mul_sparse(ex, t.e1)
        lhs = sparse_scale(f, lam_inv, M1.mul_sparse(t.incl1.apply(t.E_M.apply(xe1)), t.e1))
        if lhs != xe1:
            failures.append({"level": 1, "side": "right", "basis": x})
    for y in range(M2.dim):
        ey = {y: f.one}
        e2y = M2.mul_sparse(t.e2, ey)
        lhs = sparse_scale(f, lam_inv, M2.mul_sparse(t.e2, t.incl2.apply(t.E_M1.apply(e2y))))
        if lhs != e2y:
            failures.append({"level": 2, "side": "left", "basis": y})
        ye2 = M2.mul_sparse(ey, t.e2)
        lhs = sparse_scale(f, lam_inv, M2.mul_sparse(t.incl2.apply(t.E_M1.apply(ye2)), t.e2))
        if lhs != ye2:
            failures.append({"level": 2, "side": "right", "basis": y})
    return CheckOutcome(not failures, failures)


def verify_cyclic_span(t: TowerData) -> CheckOutcome:
    """M1 = span{ x e1 y : x, y in M }."""
    f = t.M.field
    M1 = t.M1
    vecs = []
    for xa in t.incl1.columns:
        left = M1.mul_sparse(xa, t.e1)
        for yb in t.incl1.columns:
            vecs.append(M1.mul_sparse(left, yb))
    ok = span_dim(f, vecs) == M1.dim
    return CheckOutcome(ok, [] if ok else [{"kind": "span deficient"}])
