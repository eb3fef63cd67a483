"""Basic construction and the two-step Jones tower.

M1 = M (x)_N M carries the E-multiplication; M2 is built as M1 (x)_M M1 with
the E_M-multiplication, so both levels share one code path. Cross-level
identities are computed after pushing everything to the top level through the
inclusion maps.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterator, Optional

from .algebra import (
    Algebra,
    CheckOutcome,
    LinMap,
    SubspaceBasis,
    TensorQuotient,
    check_morphism,
    generators,
    law_failures,
    matrix_element,
    matrix_map,
    module_generators,
    mult_failures,
    right_module_endomorphisms,
    span_dim,
    verify_algebra,
)
from .frobenius import (
    ExtensionSpec,
    FrobeniusError,
    FrobeniusSystem,
    both_sides,
    index_of_pairs,
    map_tensor,
    pairs_to_tensor,
    scalar_of,
    sided,
    verify_conditional_expectation,
    verify_frobenius_identities,
)
from .linalg import rank, sparse_axpy, sparse_scale


class TowerError(ValueError):
    """Hypotheses for the basic construction are violated."""


@dataclass
class TowerLevel:
    algebra: Algebra
    below: Algebra
    incl: LinMap  # below -> algebra
    e: dict  # Jones idempotent
    cond_exp: LinMap  # algebra -> below coordinates
    sys: Optional[FrobeniusSystem]  # Frobenius system for algebra / below
    checks: list  # (name, CheckOutcome)
    incl_generators: list  # incl(S) for the generators S of below; they generate incl(below) once incl is multiplicative
    generators: list  # generators(algebra, incl_generators + [e]): words in them span algebra
    verified: bool  # every check below this level and every check of it passed
    # (G_L, G_R): span(incl(below) . G_L) = algebra = span(G_R . incl(below)), formed
    # by basic_construction once the inclusion and every check before it passed
    _module_generators: Optional[tuple] = None

    def ok(self) -> bool:
        return all(out.ok for _, out in self.checks)

    def module_generators(self) -> Optional[tuple[list, list]]:
        """(G_L, G_R) while the level is verified, else None: E is then a
        bimodule map of an associative level over the multiplicative image of
        the level below, so the solution set of an identity that is one-sided
        linear over that image is a one-sided submodule. They are seeded from
        the dual bases (X_i, Y_i): x = sum E(x X_i) Y_i puts the level in
        span(incl(below) . Y), and x = sum X_i E(Y_i x) in
        span(X . incl(below))."""
        return self._module_generators if self.verified else None


@dataclass
class TowerData:
    base_sys: FrobeniusSystem
    levels: list  # [TowerLevel] or [TowerLevel, TowerLevel]
    F: Optional[LinMap]  # M2 -> M coordinates; None with one level
    emtwo_checks: list
    n_generators: Optional[list] = None  # generators of N, in N-coordinates

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


def basic_construction(
    sys: FrobeniusSystem, below_generators: Optional[list] = None, below_verified: bool = False
) -> TowerLevel:
    """E-multiplication on M (x)_N M, with unit, Jones idempotent, inclusion
    and conditional expectation all rebuilt and re-verified.

    below_generators are elements whose words with 1 span M, as generators()
    returns them (default: generators(M)). Since a (x) b = a e1 b,
    M1 = M e1 M, so their images under the inclusion and e1 should generate
    M1; the associativity check of M1 forms generators(M1, those images and
    e1) and the level keeps that set, whose words do span M1, as its
    generators. below_verified says every check made on M and its system
    passed. While it holds and every check of the level before it passed, the
    multiplicativity check of the inclusion runs on below_generators
    (check_morphism); after the inclusion, the level forms its module
    generators (G_L, G_R) from its dual bases (TowerLevel.module_generators),
    and the bimodule law of the conditional expectation and the Frobenius
    identities run on them (verify_conditional_expectation,
    verify_frobenius_identities). Once the inclusion passed, the extension
    of M1 over its image takes M and the inclusion as that image's algebra
    and embedding. When the inclusion is not injective, or failed and its
    image is not a unital subalgebra of M1, there is no level extension and
    TowerError is raised.
    The level is verified when below_verified holds and all its checks pass.
    """
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
    # once per nonzero product bc of M and u = a E(bc) once per (a, b, c). The
    # c ascend in each row of M, so each row here is built in ascending q. The
    # normal form modulo the relations is linear, so project(u (x) e_d) =
    # sum_l u_l project(e_l (x) e_d), and each basis tensor is projected once.
    # project clears the pivot columns after the free ones are in place, so the
    # free e_l (x) e_d are summed first and the key order is project's too.
    n = M.dim
    proj = [[(tq.is_free(l * n + d), tq.project({l * n + d: f.one})) for d in range(n)] for l in range(n)]
    ebc_of = [{c: e_into_m.apply(bc) for c, bc in cells.items()} for cells in M.table]
    qs_of: list[list] = [[] for _ in range(n)]  # c -> [(q, d) with basis[q] = (c, d)]
    for q, (c, d) in enumerate(tq.basis):
        qs_of[c].append((q, d))
    table = []
    for a, b in tq.basis:
        ea = {a: f.one}
        row: dict = {}
        for c, ebc in ebc_of[b].items():
            u = M.mul_sparse(ea, ebc)
            if not u:
                continue
            for q, d in qs_of[c]:
                prod: dict = {}
                for free_first in (True, False):
                    for l, cv in u.items():
                        free, vec = proj[l][d]
                        if free == free_first:
                            sparse_axpy(f, prod, cv, vec)
                if prod:
                    row[q] = prod
        table.append(row)

    # unit 1_1 = sum x_i (x) y_i
    unit1 = pairs_to_tensor(tq, M, sys.dual_pairs)
    alg1 = Algebra(f, dim1, table, unit1)

    # Jones idempotent e = 1 (x) 1
    e1 = tq.project_pure(M.unit, M.unit)

    # inclusion m -> m . 1_1
    incl = LinMap(f, [map_tensor(sys, partial(M.mul_sparse, {m: f.one})) for m in range(M.dim)], dim1)

    if below_generators is None:
        below_generators = generators(M)
    incl_gens = [incl.apply(g) for g in below_generators]
    axioms, gens = verify_algebra(alg1, incl_gens + [e1])
    if gens is None:  # a unit law failed before the generating set was formed
        gens = generators(alg1, incl_gens + [e1])
    checks = [("algebra-axioms", axioms)]
    idem = alg1.mul_sparse(e1, e1) == e1
    checks.append(("jones-idempotent", CheckOutcome(idem, [] if idem else [{"kind": "e^2 != e"}])))

    def verified() -> bool:
        return below_verified and all(out.ok for _, out in checks)

    mono = rank(incl) == M.dim
    morph = check_morphism(incl, M, alg1, domain_generators=below_generators if verified() else None)
    incl_ok = mono and not morph.failures
    checks.append(("inclusion-monomorphism", CheckOutcome(incl_ok, morph.failures)))

    # conditional expectation E_M = lam * mu
    cond_exp = LinMap(f, [sparse_scale(f, lam, M.cell(a, b)) for a, b in tq.basis], M.dim)

    if not mono:
        raise TowerError("the inclusion of the level below is not injective")
    n1 = SubspaceBasis(alg1, incl.columns)
    if not (incl_ok or n1.is_unital_subalgebra()):
        raise TowerError("the level below does not embed as a unital subalgebra")
    ext1 = ExtensionSpec(alg1, n1, E=cond_exp, induced=(M, incl) if incl_ok else None)
    # dual bases {lam^-1 x_i (x) 1}, {1 (x) y_i} for E_M
    pairs1 = []
    for x, y in sys.dual_pairs:
        X = tq.project_pure(sparse_scale(f, lam_inv, x), M.unit)
        Y = tq.project_pure(M.unit, y)
        pairs1.append((X, Y))
    mod_gens = None
    if verified():
        mod_gens = (module_generators(alg1, incl, "left", [y for _, y in pairs1]),
                    module_generators(alg1, incl, "right", [x for x, _ in pairs1]))
    checks.append(("condexp-bimodule", verify_conditional_expectation(ext1, cond_exp, module_generators=mod_gens)))

    index1 = index_of_pairs(alg1, pairs1)
    sys1 = FrobeniusSystem(ext=ext1, E=cond_exp, tq=None, dual_tensor=None, dual_pairs=pairs1, index=index1,
                           lambda_inverse=scalar_of(alg1, index1))
    checks.append(("level-frobenius-identities",
                   verify_frobenius_identities(sys1, mod_gens if verified() else None)))
    lam_ok = sys1.lambda_inverse is not None and f.eq(sys1.lambda_inverse, lam_inv)
    mismatch = [] if lam_ok else [{"kind": "index mismatch", "value": f.witness(alg1.to_dense(sys1.index))}]
    checks.append(("level-index", CheckOutcome(lam_ok, mismatch)))

    return TowerLevel(
        algebra=alg1,
        below=M,
        incl=incl,
        e=e1,
        cond_exp=cond_exp,
        sys=sys1,
        checks=checks,
        incl_generators=incl_gens,
        generators=gens,
        verified=verified(),
        _module_generators=mod_gens,
    )


# ---------------------------------------------------------------------------
# the tower
# ---------------------------------------------------------------------------


def build_tower(
    sys: FrobeniusSystem,
    below_generators: Optional[list] = None,
    base_verified: bool = False,
    n_generators: Optional[list] = None,
    levels: int = 2,
) -> TowerData:
    """Two basic constructions plus the composite functional F = E_M o E_M1;
    with levels=1 the first construction alone, with no F and no triple-tensor
    checks.

    below_generators generate M, as in basic_construction; base_verified
    says every check made on M and its system passed. n_generators generate
    N (in N-coordinates); the tower keeps them for second_centralizers. The
    quotient M1 (x)_M M1 takes its relations on incl(S_M) once level 1 is
    verified, and the triple quotient on generators of N once level 2 is
    (TensorQuotient); else on the basis.
    """
    level1 = basic_construction(sys, below_generators, base_verified)
    if levels < 2:
        return TowerData(base_sys=sys, levels=[level1], F=None, emtwo_checks=[], n_generators=n_generators)
    sys1 = level1.sys
    assert sys1 is not None
    if sys1.lambda_inverse is None or sys.M.field.is_zero(sys1.lambda_inverse):
        raise TowerError("level-1 index is not a nonzero scalar")
    m_in_m1 = level1.incl_generators if level1.verified else None
    sys1.tq = TensorQuotient(level1.algebra, sys1.ext.N, n_generators=m_in_m1)
    level2 = basic_construction(sys1, level1.generators, level1.verified)
    F = level1.cond_exp.compose(level2.cond_exp)
    tower = TowerData(base_sys=sys, levels=[level1, level2], F=F, emtwo_checks=[], n_generators=n_generators)
    tower.emtwo_checks.extend(_verify_triple_tensor(tower, n_generators if level2.verified else None))
    return tower


def _verify_triple_tensor(t: TowerData, n_generators: Optional[list]) -> list:
    """Checks of M2 against the three-fold tensor picture M (x)_N M (x)_N M:
    the rebracketing map is bijective, the conditional expectation matches
    m1 (x) m2 (x) m3 -> lam m1 E(m2) (x) m3, and the closed forms of e2 and
    1_2 in triple coordinates agree. n_generators (N-coordinates, given only
    once both levels are verified) give the triple quotient's relations."""
    sys = t.base_sys
    M, f = t.M, t.M.field
    d = M.dim
    lam = t.lam
    tq1 = sys.tq
    assert tq1 is not None
    e_into_m = sys.ext.e_into_m(sys.E)

    embed = sys.ext.embed
    n_in_m = None if n_generators is None else [embed.apply(g) for g in n_generators]
    triple = TensorQuotient(M, sys.ext.N, factors=3, n_generators=n_in_m)

    # phi on the canonical basis of M2: [(a,b) (x) (c,dd)] -> a (x) b.c (x) dd
    level2 = t.levels[1]
    m2_tq = t.levels[0].sys.tq  # tensor quotient of M1 over M used to build M2
    assert m2_tq is not None
    cols = []
    for P, Q in m2_tq.basis:
        a, b = tq1.basis[P]
        c, dd = tq1.basis[Q]
        acc = {(a * d + mid) * d + dd: cv for mid, cv in M.cell(b, c).items()}
        cols.append(triple.project(acc))
    phi = LinMap(f, cols, triple.dim)
    checks = []
    bij = triple.dim == level2.algebra.dim and rank(phi) == level2.algebra.dim
    checks.append(("triple-tensor-bijective", CheckOutcome(bij, [] if bij else [{"dims": (triple.dim, level2.algebra.dim)}])))

    # E_M1 through the triple picture
    em1_cols = []
    for i, j, k in triple.basis:
        mid = M.mul_sparse({i: f.one}, e_into_m.columns[j])
        em1_cols.append(sparse_scale(f, lam, tq1.project_pure(mid, {k: f.one})))
    em1_triple = LinMap(f, em1_cols, tq1.dim)
    same = em1_triple.compose(phi) == t.E_M1
    checks.append(("triple-tensor-condexp", CheckOutcome(same, [] if same else [{"kind": "E_M1 mismatch"}])))

    # e2 = sum_{i,j} x_i (x) y_i x_j (x) y_j
    e2 = pairs_to_tensor(triple, M, [(xi, M.mul_sparse(yi, xj), yj) for xi, yi in sys.dual_pairs
                                     for xj, yj in sys.dual_pairs])
    ok = phi.apply(t.e2) == e2
    checks.append(("triple-tensor-e2", CheckOutcome(ok, [] if ok else [{"kind": "e2 mismatch"}])))

    # 1_2 = sum_i lam^-1 x_i (x) 1 (x) y_i
    unit2 = pairs_to_tensor(triple, M, [(sparse_scale(f, sys.lambda_inverse, xi), M.unit, yi)
                                        for xi, yi in sys.dual_pairs])
    ok = phi.apply(level2.algebra.unit) == unit2
    checks.append(("triple-tensor-unit", CheckOutcome(ok, [] if ok else [{"kind": "1_2 mismatch"}])))
    return checks


# ---------------------------------------------------------------------------
# endomorphism ring theorem
# ---------------------------------------------------------------------------


def endo_ring_iso(sys: FrobeniusSystem, level: TowerLevel) -> CheckOutcome:
    """f -> sum f(x_i) (x) y_i is an algebra isomorphism End(M_N) -> M1,
    with inverse psi: m (x) n -> lambda_m E lambda_n; both directions verified.

    psi is formed as a map M1 -> End_k(M), the ambient matrix algebra of
    End(M_N). Once phi psi = id and psi phi = id, phi is an algebra map exactly
    when psi is. On a verified level M1 is associative, so with psi(1) = id,
    mult_failures into End_k(M) decides psi on the level's generators; an
    unverified level, or any failure there, runs check_morphism of phi over
    End(M_N)'s multiplication table (induced_algebra), scanning basis pairs.
    """
    M, f = sys.M, sys.M.field
    endo = right_module_endomorphisms(M, sys.ext.embed)
    end = endo.ambient
    tq = sys.tq
    assert tq is not None
    alg1 = level.algebra
    failures = []

    phi = LinMap(f, [map_tensor(sys, matrix_map(f, M.dim, v).apply) for v in endo.vectors], alg1.dim)

    psi_elems = LinMap(f, [matrix_element(g) for g in _psi_maps(sys)], end.dim)
    psi_cols = []
    for (a, b), elem in zip(tq.basis, psi_elems.columns):
        coords = endo.coords(elem)
        if coords is None:
            failures.append({"kind": "psi-image-outside-End(M_N)", "pair": (a, b)})
            coords = {}
        psi_cols.append(coords)
    psi = LinMap(f, psi_cols, endo.dim)
    ident1 = phi.compose(psi) == LinMap.identity(f, alg1.dim)
    ident2 = psi.compose(phi) == LinMap.identity(f, endo.dim)
    if not (ident1 and ident2):
        failures.append({"kind": "inverse-check-failed"})

    if (failures or not level.verified or psi_elems.apply(alg1.unit) != end.unit
            or mult_failures(psi_elems, alg1, end, level.generators)):
        morph = check_morphism(phi, endo.induced_algebra()[0], alg1)
        if not morph.ok:
            failures.insert(0, {"kind": "phi-not-iso", "detail": morph.failures[:2]})
    return CheckOutcome(not failures, failures)


def _psi_maps(sys: FrobeniusSystem) -> list:
    """psi on the basis of M1: the map m -> a E(b m) for each basis tensor a (x) b."""
    M, f = sys.M, sys.M.field
    e_into_m = sys.ext.e_into_m(sys.E)
    return [LinMap(f, [M.mul_sparse({a: f.one}, e_into_m.apply(M.cell(b, m))) for m in range(M.dim)], M.dim)
            for a, b in sys.tq.basis]


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
    """lam^-1 e E(e x) = e x and the opposite-sided identities, both levels.

    At a level with module generators (TowerLevel.module_generators) the left
    identity is checked on the right-module generators and the right identity
    on the left-module generators. Once E is a bimodule map, incl
    multiplicative and the level associative, {x : lam^-1 e E(e x) = e x} is a
    right submodule over incl(below), as E(e x m) = E(e x) m, and
    {x : lam^-1 E(x e) e = x e} likewise a left one; so each holds on the level
    once it holds on generators whose one-sided module span is the level. A
    level without them, or with a failure on them, lists the first failures
    of the scan over basis x, left then right (law_failures).
    """
    lam_inv = t.base_sys.lambda_inverse
    failures = []
    for number, level in enumerate(t.levels, start=1):
        failures += _pimsner_popa_failures(level, number, lam_inv)
    return CheckOutcome(not failures, failures)


def _pimsner_popa_failures(level: TowerLevel, number: int, lam_inv) -> list:
    up, e, incl, cond = level.algebra, level.e, level.incl, level.cond_exp
    f = up.field

    def failures(elements: list) -> Iterator[dict]:
        """lam^-1 e E(e x) != e x (left) or lam^-1 E(x e) e != x e (right)."""
        for k, (x, sides) in enumerate(elements):
            for side in sides:
                with_e = up.mul_sparse(e, x) if side == "left" else up.mul_sparse(x, e)
                back = incl.apply(cond.apply(with_e))
                back = up.mul_sparse(e, back) if side == "left" else up.mul_sparse(back, e)
                if sparse_scale(f, lam_inv, back) != with_e:
                    yield {"level": number, "side": side, "basis": k}

    gens = level.module_generators()
    # the left identity on the right-module generators, the right one on the left
    return law_failures(failures, None if gens is None else sided(gens[1], gens[0]), lambda: both_sides(up))


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
