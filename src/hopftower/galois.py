"""Module-algebra actions, smash products, cleft data and Galois maps.

Coactions are always derived from actions through fixed dual bases, so there
is exactly one data path from a Hopf action to comodule structures; every
claimed isomorphism (theta, psi, m # a -> ma, the Galois map beta) is decided
by rank plus multiplicativity checks, never assumed. The module-algebra law
runs on generators of the acted-on algebra once it and the Hopf algebra are
verified. The smash isomorphisms theta: X # H -> T of the tower (M1 # B ->
M2, A # B -> C, M # A -> M1) are decided on a verified run by theta(1 # 1) =
1, rank and the exchange relation h x = sum (h_(1) . x) h_(2) in T on
generators of X (_iso_by_exchange), with no smash table formed; otherwise,
or when that fails, smash_product builds the table from the action alone and
theta is checked on every basis pair. smash_product stays the one
construction of a smash product as an algebra.

Every coproduct sum here (the module-algebra law, the exchange relation, the
rows of a smash table, the adjoint action h_(1) x S(h_(2)) of _adjoint and
the comodule, convolution-inverse and cocycle sums of cleft_data) is a
Sweedler sum formed by HopfStructure.sweedler.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .algebra import (
    WITNESS_FAILURES,
    Algebra,
    CheckOutcome,
    LinMap,
    SubspaceBasis,
    TensorQuotient,
    check_morphism,
    law_failures,
    matrix_element,
    matrix_map,
    right_module_endomorphisms,
    verify_algebra,
)
from .frobenius import FrobeniusSystem
from .hopf import HopfStructure, PairingData
from .linalg import kernel_basis, map_combination, rank, sparse_add, sparse_axpy, sparse_scale


# ---------------------------------------------------------------------------
# module-algebra actions
# ---------------------------------------------------------------------------


@dataclass
class ModuleAlgebraAction:
    hopf: HopfStructure
    algebra: Algebra  # X
    maps: list  # one X -> X LinMap per basis element of H

    def rho(self, h: dict) -> LinMap:
        """The action of an element h of H, as a map X -> X."""
        return map_combination(self.algebra.field, self.algebra.dim, h, self.maps)


def verify_module_algebra(act: ModuleAlgebraAction, x_generators: Optional[list] = None) -> CheckOutcome:
    """Unit/associativity of the action on all basis pairs of H, the
    module-algebra law h . (xy) = (h1 . x)(h2 . y) and h . 1 = eps(h) 1.

    Given x_generators, elements whose words with 1 span X (pass them only
    once X is a verified algebra and H a verified Hopf algebra), the law is
    first checked for y in 1 and x_generators alone (Montgomery, Hopf
    Algebras and Their Actions on Rings, CBMS 82, ch. 4). The y with
    h . (xy) = (h1 . x)(h2 . y) for all h and x form a subalgebra: for such
    y, y', h . (x y y') = (h1 . xy)(h2 . y') = (h11 . x)(h12 . y)(h2 . y'),
    which is (h1 . x)(h2 . y y') by associativity of X and coassociativity of
    Delta.
    """
    H, X = act.hopf, act.algebra
    f = X.field
    failures = []
    # rho(1_H) = id
    if act.rho(H.algebra.unit) != LinMap.identity(f, X.dim):
        failures.append({"kind": "unit-action"})
    # rho(h h') = rho(h) rho(h')
    for i in range(H.dim):
        for j in range(H.dim):
            if act.rho(H.algebra.cell(i, j)) != act.maps[i].compose(act.maps[j]):
                failures.append({"kind": "action-not-multiplicative", "pair": (i, j)})
                if len(failures) >= WITNESS_FAILURES:
                    return CheckOutcome(False, failures)
    # module-algebra law and h . 1 = eps(h) 1
    rights = None
    if x_generators is not None:
        one = f.one
        rights = [([X.mul_sparse({x: one}, g) for x in range(X.dim)], [m.apply(g) for m in act.maps])
                  for g in [X.unit, *x_generators]]
    # the scan: right factors e_y, with e_x e_y = cell(x, y)
    failures += law_failures(
        lambda rs: _module_law_failures(act, rs), rights,
        lambda: [([X.cell(x, y) for x in range(X.dim)], [m.columns[y] for m in act.maps]) for y in range(X.dim)])
    return CheckOutcome(not failures, failures)


def _module_law_failures(act: ModuleAlgebraAction, rights: list) -> Iterator[dict]:
    """For each basis h_i, the (i, x, r) with h_i . (e_x y_r) != (h1 . e_x)(h2 . y_r),
    in that loop order, then h_i . 1 != eps(h_i) 1; right factors are given
    by rights[r] = ([e_x y_r for each basis x], [h_u . y_r for each basis u])."""
    H, X = act.hopf, act.algebra
    f = X.field
    cols = [m.columns for m in act.maps]
    for i in range(H.dim):
        h_i = act.maps[i]
        for x in range(X.dim):
            for r, (products, acted) in enumerate(rights):
                if h_i.apply(products[x]) != H.sweedler(i, lambda u, v: X.mul_sparse(cols[u][x], acted[v])):
                    yield {"kind": "module-algebra-law", "triple": (i, x, r)}
        if h_i.apply(X.unit) != sparse_scale(f, H.counit_of(i), X.unit):
            yield {"kind": "unit-not-scaled-by-eps", "basis": i}


def invariants(act: ModuleAlgebraAction) -> SubspaceBasis:
    """Solutions of h . x = eps(h) x for every basis h, as a canonical basis."""
    f = act.algebra.field
    X = act.algebra
    d = X.dim
    # column x: h_i . e_x - eps(h_i) e_x stacked over the basis h_i (row i * dim X + r)
    cols = []
    for x in range(d):
        col: dict = {}
        for i, m in enumerate(act.maps):
            diff = dict(m.columns[x])
            sparse_add(f, diff, x, f.neg(act.hopf.counit_of(i)))
            col.update((i * d + r, c) for r, c in diff.items())
        cols.append(col)
    vecs = kernel_basis(LinMap(f, cols, len(act.maps) * d)) if act.maps else []
    return SubspaceBasis.from_spanning(X, vecs)


# ---------------------------------------------------------------------------
# smash products
# ---------------------------------------------------------------------------


@dataclass
class SmashProduct:
    algebra: Algebra  # on X (x) H, index x * dim_H + h
    X: Algebra
    H: HopfStructure
    embed_x: LinMap
    embed_h: LinMap


def smash_product(act: ModuleAlgebraAction) -> SmashProduct:
    """X # H for X = act.algebra and H = act.hopf: (x # h)(x' # h') =
    x (h1 . x') # h2 h'."""
    X, H = act.algebra, act.hopf
    f = X.field
    dx, dh = X.dim, H.dim
    dim = dx * dh
    table = []
    cols = [m.columns for m in act.maps]
    for x in range(dx):
        # x (h_u . x2) for every u and x2
        x_acted = [[X.mul_sparse({x: f.one}, col) for col in cols_u] for cols_u in cols]
        for h in range(dh):
            row: dict = {}
            for x2 in range(dx):
                for h2 in range(dh):
                    # (x # h)(x2 # h2) = sum x (h_(1) . x2) # h_(2) h2
                    cell = H.sweedler(h, lambda u, v: {
                        xk * dh + hk: f.mul(hc, xc)
                        for hk, hc in H.algebra.cell(v, h2).items() for xk, xc in x_acted[u][x2].items()})
                    if cell:
                        row[x2 * dh + h2] = cell
            table.append(row)
    h_unit = H.algebra.unit
    unit = {x * dh + h: f.mul(cx, ch) for x, cx in X.unit.items() for h, ch in h_unit.items()}
    alg = Algebra(f, dim, table, unit)
    embed_x = LinMap(f, [{x * dh + h: ch for h, ch in h_unit.items()} for x in range(dx)], dim)
    embed_h = LinMap(f, [{x * dh + h: cx for x, cx in X.unit.items()} for h in range(dh)], dim)
    return SmashProduct(alg, X, H, embed_x, embed_h)


# ---------------------------------------------------------------------------
# psi: smash product -> endomorphism ring
# ---------------------------------------------------------------------------


def _psi(sm: SmashProduct, act: ModuleAlgebraAction, sys: FrobeniusSystem) -> tuple:
    """(End(X_N), Psi as a map smash -> End coordinates, the (x, h) whose
    image x (h . -) falls outside End(X_N))."""
    X = sm.X
    f = X.field
    endo = right_module_endomorphisms(X, sys.ext.embed)
    cols = []
    outside = []
    for x in range(X.dim):
        ex = {x: f.one}
        for h in range(sm.H.dim):
            x_h = LinMap(f, [X.mul_sparse(ex, c) for c in act.maps[h].columns], X.dim)
            coords = endo.coords(matrix_element(x_h))
            if coords is None:
                outside.append((x, h))
                coords = {}
            cols.append(coords)
    return endo, LinMap(f, cols, endo.dim), outside


def psi_map(sm: SmashProduct, act: ModuleAlgebraAction, sys: FrobeniusSystem) -> CheckOutcome:
    """Psi(x # h) = x (h . -) lands in End(X_N) and is an algebra
    isomorphism; the explicit inverse formula is checked separately by
    psi_inverse_formula."""
    endo, psi, outside = _psi(sm, act, sys)
    failures = [{"kind": "psi-image-outside-End(X_N)", "pair": pair} for pair in outside]
    morph = check_morphism(psi, sm.algebra, endo.induced_algebra()[0])
    if not morph.ok:
        failures.append({"kind": "psi-not-isomorphism", "detail": morph.failures[:2]})
    return CheckOutcome(not failures, failures)


def psi_inverse_formula(
    sm: SmashProduct, act: ModuleAlgebraAction, sys: FrobeniusSystem, t_vec: dict
) -> CheckOutcome:
    """The stated inverse g -> sum_i g(x_i) t y_i (a product inside the smash
    algebra) composed with Psi gives the identity both ways."""
    f = sm.X.field
    endo, psi, outside = _psi(sm, act, sys)
    if outside:
        return CheckOutcome(False, [{"kind": "psi-image-outside-End(X_N)"}])
    t_smash = sm.embed_h.apply(t_vec)
    inv_cols = []
    for v in endo.vectors:
        g = matrix_map(f, sm.X.dim, v)
        acc: dict = {}
        for x, y in sys.dual_pairs:
            term = sm.algebra.mul_sparse(
                sm.algebra.mul_sparse(sm.embed_x.apply(g.apply(x)), t_smash), sm.embed_x.apply(y)
            )
            sparse_axpy(f, acc, f.one, term)
        inv_cols.append(acc)
    inv = LinMap(f, inv_cols, sm.algebra.dim)
    failures = []
    if psi.compose(inv) != LinMap.identity(f, endo.dim):
        failures.append({"kind": "psi o inverse != id"})
    if inv.compose(psi) != LinMap.identity(f, sm.algebra.dim):
        failures.append({"kind": "inverse o psi != id"})
    return CheckOutcome(not failures, failures)


# ---------------------------------------------------------------------------
# tower actions
# ---------------------------------------------------------------------------


def action_b_on_m1(
    t, d2, H_B: HopfStructure, sandwiches: tuple, x_generators: Optional[list] = None
) -> tuple[ModuleAlgebraAction, CheckOutcome]:
    """Ocneanu-Szymanski action b . x = lam^-1 E_M1(b x e2), verified as a
    module-algebra action, cross-checked against b_(1) x S(b_(2)), with
    e2 . x = E_M(x). The action is read from the right sandwich maps at the
    image of the basis of M1. x_generators, generators of M1, go to
    verify_module_algebra under its gate."""
    f = t.M.field
    M1, M2 = t.M1, t.M2
    lam_inv = t.base_sys.lambda_inverse
    incl = t.incl2.columns
    _, right = sandwiches
    maps = [LinMap(f, [sparse_scale(f, lam_inv, r.apply(xh)) for xh in incl], M1.dim) for r in right]
    act = ModuleAlgebraAction(H_B, M1, maps)
    out = verify_module_algebra(act, x_generators=x_generators)
    failures = list(out.failures)

    if H_B.antipode is not None:
        # S(b_v) in M2
        s_b = [LinMap(f, d2.B.vectors, M2.dim).apply(c) for c in H_B.antipode.columns]
        for j in range(H_B.dim):
            for x in range(M1.dim):
                if t.incl2.apply(act.maps[j].columns[x]) != _adjoint(M2, H_B, j, d2.B.vectors, s_b, incl[x]):
                    failures.append({"kind": "outer-action-formula", "pair": (j, x)})
                    break

    e2_B = d2.B.coords(t.e2)
    if e2_B is None:
        failures.append({"kind": "e2-outside-B"})
    else:
        e2_action = act.rho(e2_B)
        for x in range(M1.dim):
            if e2_action.columns[x] != t.incl1.apply(t.E_M.columns[x]):
                failures.append({"kind": "e2-action-vs-E_M", "basis": x})
                break
    return act, CheckOutcome(not failures, failures)


def action_a_on_m(
    t, d2, H_A: HopfStructure, x_generators: Optional[list] = None
) -> tuple[Optional[ModuleAlgebraAction], CheckOutcome]:
    """a . m = a_(1) m S(a_(2)) computed inside M1; must land in the image
    of M; e1 . x = E(x). x_generators, generators of M, go to
    verify_module_algebra under its gate."""
    f = t.M.field
    M, M1 = t.M, t.M1
    failures = []
    if H_A.antipode is None:
        return None, CheckOutcome(False, [{"kind": "no-antipode-on-A"}])
    m_image = SubspaceBasis(M1, t.incl1.columns)
    a_vecs = d2.A.vectors
    s_a = [LinMap(f, a_vecs, M1.dim).apply(c) for c in H_A.antipode.columns]
    maps = []
    for i in range(H_A.dim):
        cols = []
        for m, mh in enumerate(t.incl1.columns):
            coords = m_image.coords(_adjoint(M1, H_A, i, a_vecs, s_a, mh))
            if coords is None:
                failures.append({"kind": "action-leaves-M", "pair": (i, m)})
                coords = {}
            cols.append(coords)
        maps.append(LinMap(f, cols, M.dim))
    act = ModuleAlgebraAction(H_A, M, maps)
    if failures:
        return act, CheckOutcome(False, failures)
    out = verify_module_algebra(act, x_generators=x_generators)
    failures = list(out.failures)
    e1_A = d2.A.coords(t.e1)
    if e1_A is None:
        failures.append({"kind": "e1-outside-A"})
    else:
        e_into_m = t.base_sys.ext.e_into_m(t.base_sys.E)
        e1_action = act.rho(e1_A)
        for x in range(M.dim):
            if e1_action.columns[x] != e_into_m.columns[x]:
                failures.append({"kind": "e1-action-vs-E", "basis": x})
                break
    return act, CheckOutcome(not failures, failures)


def _adjoint(T: Algebra, H: HopfStructure, j: int, h_vecs: list, s_vecs: list, x: dict) -> dict:
    """The adjoint action h_j(1) x S(h_j(2)) in T, with h_vecs[u] the image of
    h_u in T and s_vecs[v] that of S(h_v)."""
    return H.sweedler(j, lambda u, v: T.mul_sparse(T.mul_sparse(h_vecs[u], x), s_vecs[v]))


def verify_invariants(act: ModuleAlgebraAction, expected: SubspaceBasis) -> CheckOutcome:
    inv = invariants(act)
    ok = inv.equals(expected)
    return CheckOutcome(ok, [] if ok else [{"kind": "invariants-mismatch", "dim": inv.dim, "expected_dim": expected.dim}])


def verify_smash_iso_theta(
    t, d2, H_B: HopfStructure, act: ModuleAlgebraAction, x_generators: Optional[list] = None
) -> CheckOutcome:
    """theta: x # b -> x b is an algebra isomorphism M1 # B -> M2, and its
    restriction A # B -> C is one as well.

    Given x_generators, generators of M1 (pass them only once every check
    before it passed: the tower, the Hopf stage and action-b-on-m1), each
    isomorphism is first decided by _iso_by_exchange, M1 # B in M2 on them
    and A # B in M2 on A's induced generators, once the B-action keeps A and
    A B lies in C; no smash table is formed then.

    Else, or when that decision fails, smash_product builds the table from
    the action columns h . e_x, verify_algebra checks it, and theta is
    checked on every basis pair.
    """
    f = t.M.field
    M2 = t.M2
    b_embed = d2.B.induced_algebra()[1]
    failures = []
    theta = LinMap(f, [M2.mul_sparse(xh, b) for xh in t.incl2.columns for b in d2.B.vectors], M2.dim)
    if x_generators is None or not _iso_by_exchange(M2, theta, act, t.incl2, b_embed, x_generators):
        sm = smash_product(act)
        axioms = verify_algebra(sm.algebra)[0]
        if not axioms.ok:
            failures.append({"kind": "smash-algebra-invalid", "detail": axioms.failures[:1]})
        morph = check_morphism(theta, sm.algebra, M2)
        if not morph.ok:
            failures.append({"kind": "theta-not-isomorphism", "detail": morph.failures[:2]})

    # restriction A # B -> C
    before = len(failures)
    a_maps = []
    for j in range(H_B.dim):
        cols_a = []
        for a_vec in d2.A.vectors:
            coords = d2.A.coords(act.maps[j].apply(a_vec))
            if coords is None:
                failures.append({"kind": "B-action-leaves-A", "basis": j})
                coords = {}
            cols_a.append(coords)
        a_maps.append(LinMap(f, cols_a, d2.A.dim))
    cols = []
    for i in range(d2.A.dim):
        ah = t.incl2.apply(d2.A.vectors[i])
        for j in range(H_B.dim):
            coords = d2.C.coords(M2.mul_sparse(ah, d2.B.vectors[j]))
            if coords is None:
                failures.append({"kind": "AB-product-outside-C", "pair": (i, j)})
                coords = {}
            cols.append(coords)
    theta_ab = LinMap(f, cols, d2.C.dim)
    if x_generators is not None and len(failures) == before:
        a_embed = d2.A.induced_algebra()[1]
        a_generators = [a_embed.apply(g) for g in d2.A.induced_generators()]
        if _iso_by_exchange(M2, theta_ab, act, t.incl2, b_embed, a_generators):
            return CheckOutcome(not failures, failures)
    sm_ab = smash_product(ModuleAlgebraAction(H_B, d2.A.induced_algebra()[0], a_maps))
    morph = check_morphism(theta_ab, sm_ab.algebra, d2.C.induced_algebra()[0])
    if not morph.ok:
        failures.append({"kind": "A-smash-B-vs-C-failed", "detail": morph.failures[:2]})
    return CheckOutcome(not failures, failures)


def _iso_by_exchange(
    T: Algebra, theta: LinMap, act: ModuleAlgebraAction, x_embed: LinMap, h_embed: LinMap, x_generators: list
) -> bool:
    """Whether theta: X # H -> T', x # h -> i_X(x) i_H(h), is an algebra
    isomorphism, decided in T without forming the table of X # H.

    H = act.hopf acts on act.algebra, X is a unital subalgebra of act.algebra
    (all of it, or A inside M1) whose words in x_generators with 1 span it,
    i_X = x_embed and i_H = h_embed map into T, and the columns of theta are
    the images of the x # h in T', T itself or the coordinates of a closed
    subalgebra of T (C inside M2). It holds when

    1. theta(1 # 1) = i_X(1) i_H(1) = 1,
    2. rank theta = dim X dim H = dim T', and
    3. R(h, x): i_H(h) i_X(x) = sum i_X(h_(1) . x) i_H(h_(2)) in T, for every
       basis h of H and every x in x_generators.

    Proof (Montgomery, Hopf Algebras and Their Actions on Rings, CBMS 82,
    4.1; Blattner-Montgomery, J. Algebra 95, 1985). Write x for i_X(x) and h
    for i_H(h). The x with R(h, x) for every h form a subalgebra holding 1:
    sum (h_(1) . 1) h_(2) = sum eps(h_(1)) h_(2) = h by h . 1 = eps(h) 1 and
    the counit law, and for such x, x', since R is linear in h,
    h x x' = sum (h_(1) . x) h_(2) x' = sum (h_(1) . x)(h_(2)(1) . x') h_(2)(2)
    = sum (h_(1)(1) . x)(h_(1)(2) . x') h_(2) = sum (h_(1) . x x') h_(2), by
    coassociativity and the module-algebra law. So R holds on all of X, and
    theta((x # h)(x' # h')) = x (h_(1) . x') h_(2) h' = x h x' h'
    = theta(x # h) theta(x' # h'), as T is associative and i_X and i_H are
    algebra maps. By 2 theta is a bijection onto T', so the product of X # H
    is theta^-1 of that of T': associative, with unit 1 # 1 by 1, and theta
    an algebra isomorphism.

    The premises are checks of the report, so pass x_generators only once
    they passed: T associative and i_X multiplicative are the algebra-axioms
    of both levels (tower-level-1 and -2 for M1, M2 and the inclusions), the
    Hopf laws hopf-axioms or dual-hopf, the module-algebra law with
    h . 1 = eps(h) 1 action-b-on-m1 or action-a-on-m; i_H and the coordinates
    of T' are algebra maps as H's table and C's are induced_algebra tables,
    which exist only for closed subspaces. No basis scan follows a failure:
    R(h, x) is linear in x, so a failing generator means some basis element
    of X fails as well, and the caller builds the table instead.
    """
    H = act.hopf
    unit = T.mul_sparse(x_embed.apply(act.algebra.unit), h_embed.apply(H.algebra.unit))
    if unit != T.unit or not theta.domain_dim == theta.codomain_dim == rank(theta):
        return False
    return next(_exchange_failures(T, act, x_embed, h_embed, x_generators), None) is None


def _exchange_failures(T: Algebra, act: ModuleAlgebraAction, x_embed: LinMap, h_embed: LinMap,
                       xs: list) -> Iterator[dict]:
    """The (r, h) with i_H(h) i_X(x_r) != sum i_X(h_(1) . x_r) i_H(h_(2)) in
    T, in that loop order, for the elements x_r of act.algebra in xs."""
    H = act.hopf
    hs = h_embed.columns
    for r, x in enumerate(xs):
        xt = x_embed.apply(x)
        acted = [x_embed.apply(m.apply(x)) for m in act.maps]
        for h in range(H.dim):
            if T.mul_sparse(hs[h], xt) != H.sweedler(h, lambda u, v: T.mul_sparse(acted[u], hs[v])):
                yield {"kind": "exchange-relation", "pair": (r, h)}


# ---------------------------------------------------------------------------
# cleftness and the trivial cocycle
# ---------------------------------------------------------------------------


def cleft_data(
    t, d2, H_A: HopfStructure, p: PairingData,
    act_a: ModuleAlgebraAction, act_b: ModuleAlgebraAction, m_generators: Optional[list] = None,
) -> CheckOutcome:
    """iota: A -> M1 is a comodule map (coaction derived from the B-action act_b),
    its convolution inverse is iota o S_A, the associated cocycle is trivial,
    and m # a -> m a is an algebra isomorphism M # A -> M1.

    Given m_generators, generators of M (pass them only once every check
    before it passed: the tower, the Hopf stage and action-a-on-m), that
    isomorphism is first decided by _iso_by_exchange in M1 on them, with no
    smash table. Else, or when that decision fails, smash_product builds
    M # A and the map is checked on every basis pair."""
    f = t.M.field
    M1 = t.M1
    failures = []
    a_vecs = d2.A.vectors
    da = d2.A.dim
    a_embed = LinMap(f, a_vecs, M1.dim)
    s_map = H_A.antipode
    s_a = [a_embed.apply(c) for c in s_map.columns]  # iota(S_A(a_v))

    # coaction rho: M1 -> M1 (x) A dual to the B-action: rho(x) = sum_j (u_j . x) (x) p_j
    # with u_j the B-basis and p_j in A pairing-dual to it; elements of
    # M1 (x) A are sparse dicts keyed r * dim A + s
    p_duals = p.P_inv.transpose().columns

    # iota is a comodule map: rho(iota(a)) = (iota (x) id) Delta_A(a)
    for i in range(da):
        lhs: dict = {}
        for j, pj in enumerate(p_duals):
            for r, cr in act_b.maps[j].apply(a_vecs[i]).items():
                for s, cs in pj.items():
                    sparse_add(f, lhs, r * da + s, f.mul(cr, cs))
        if lhs != H_A.sweedler(i, lambda u, v: {r * da + v: cr for r, cr in a_vecs[u].items()}):
            failures.append({"kind": "iota-not-comodule-map", "basis": i})

    # convolution inverse: mu (iota (x) iota S_A) Delta_A = unit eps_A (both orders)
    for i in range(da):
        expected = sparse_scale(f, H_A.counit_of(i), M1.unit)
        if (H_A.sweedler(i, lambda u, v: M1.mul_sparse(a_vecs[u], s_a[v])) != expected
                or H_A.sweedler(i, lambda u, v: M1.mul_sparse(s_a[u], a_vecs[v])) != expected):
            failures.append({"kind": "convolution-inverse", "basis": i})

    # cocycle sigma(a, a') = iota(a1) iota(a'1) iota(S_A(a2 a'2)) = eps(a) eps(a') 1
    A_alg = p.A_alg
    for i in range(da):
        for i2 in range(da):
            acc = H_A.sweedler(i, lambda u, v: H_A.sweedler(i2, lambda u2, v2: M1.mul_sparse(
                M1.mul_sparse(a_vecs[u], a_vecs[u2]), a_embed.apply(s_map.apply(A_alg.cell(v, v2))))))
            expected = sparse_scale(f, f.mul(H_A.counit_of(i), H_A.counit_of(i2)), M1.unit)
            if acc != expected:
                failures.append({"kind": "cocycle-not-trivial", "pair": (i, i2)})

    # m # a -> m iota(a) is an algebra isomorphism M # A -> M1
    if act_a is not None:
        theta = LinMap(f, [M1.mul_sparse(mh, a) for mh in t.incl1.columns for a in a_vecs], M1.dim)
        if m_generators is None or not _iso_by_exchange(M1, theta, act_a, t.incl1, a_embed, m_generators):
            morph = check_morphism(theta, smash_product(act_a).algebra, M1)
            if not morph.ok:
                failures.append({"kind": "M-smash-A-vs-M1-failed", "detail": morph.failures[:2]})
    return CheckOutcome(not failures, failures)


# ---------------------------------------------------------------------------
# the Galois map
# ---------------------------------------------------------------------------


def galois_map(act: ModuleAlgebraAction, tq: TensorQuotient) -> CheckOutcome:
    """beta: X (x)_N X -> X (x) H*, a (x) a' -> a a'_(0) (x) a'_(1), with the
    coaction derived from the action through dual bases; bijectivity via rank.

    X is act.algebra and tq its tensor square over N. The H*-coordinates are
    the functionals dual to the acting basis of H, so dim H* = dim H.
    """
    X = act.algebra
    f = X.field
    dh = act.hopf.dim
    target_dim = X.dim * dh
    failures = []
    if target_dim != tq.dim:
        failures.append({"kind": "dimension-mismatch", "dims": (tq.dim, target_dim)})
        return CheckOutcome(False, failures)
    cols = []
    for (i, j) in tq.basis:
        ei = {i: f.one}
        out: dict = {}
        for u in range(dh):
            for r, c in X.mul_sparse(ei, act.maps[u].columns[j]).items():
                sparse_add(f, out, r * dh + u, c)
        cols.append(out)
    beta_rank = rank(LinMap(f, cols, target_dim))
    if beta_rank != tq.dim:
        failures.append({"kind": "galois-map-not-bijective", "rank": beta_rank})
    return CheckOutcome(not failures, failures)

