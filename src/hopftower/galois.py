"""Module-algebra actions, smash products, cleft data and Galois maps.

Coactions are always derived from actions through fixed dual bases, so there
is exactly one data path from a Hopf action to comodule structures; every
claimed isomorphism (theta, psi, m # a -> ma, the Galois map beta) is decided
by rank plus exhaustive multiplicativity checks, never assumed.
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
)
from .frobenius import CheckOutcome, FrobeniusSystem, algebra_outcome
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


def verify_module_algebra(act: ModuleAlgebraAction, max_failures: int = 6) -> CheckOutcome:
    """Unit/associativity of the action, h . (xy) = (h1 . x)(h2 . y) and
    h . 1 = eps(h) 1, all on basis tuples."""
    H, X = act.hopf, act.algebra
    f = X.field
    failures = []
    # rho(1_H) = id
    if act.rho(H.algebra.unit) != LinMap.identity(f, X.dim):
        failures.append({"kind": "unit-action"})
    # rho(h h') = rho(h) rho(h')
    for i in range(H.dim):
        for j in range(H.dim):
            if act.rho(H.algebra.table[i][j]) != act.maps[i].compose(act.maps[j]):
                failures.append({"kind": "action-not-multiplicative", "pair": (i, j)})
                if len(failures) >= max_failures:
                    return CheckOutcome(False, failures)
    # module-algebra law
    cols = [m.columns for m in act.maps]
    for i in range(H.dim):
        legs = H.delta_coords(i)
        for x in range(X.dim):
            for y in range(X.dim):
                rhs: dict = {}
                for u, v, c in legs:
                    sparse_axpy(f, rhs, c, X.mul_sparse(cols[u][x], cols[v][y]))
                if act.maps[i].apply(X.table[x][y]) != rhs:
                    failures.append({"kind": "module-algebra-law", "triple": (i, x, y)})
                    if len(failures) >= max_failures:
                        return CheckOutcome(False, failures)
        if act.maps[i].apply(X.unit) != sparse_scale(f, H.counit_of(i), X.unit):
            failures.append({"kind": "unit-not-scaled-by-eps", "basis": i})
    return CheckOutcome(not failures, failures)


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
    report: CheckOutcome


def smash_product(X: Algebra, H: HopfStructure, act: ModuleAlgebraAction) -> SmashProduct:
    """(x # h)(x' # h') = x (h1 . x') # h2 h', with associativity re-verified."""
    f = X.field
    dx, dh = X.dim, H.dim
    dim = dx * dh
    table = [[{} for _ in range(dim)] for _ in range(dim)]
    legs_by_h = [H.delta_coords(h) for h in range(dh)]
    cols = [m.columns for m in act.maps]
    for x in range(dx):
        # x (h_u . x2) for every u and x2
        x_acted = [[X.mul_sparse({x: f.one}, col) for col in cols_u] for cols_u in cols]
        for h in range(dh):
            p = x * dh + h
            for x2 in range(dx):
                for h2 in range(dh):
                    q = x2 * dh + h2
                    cell: dict = {}
                    for u, v, c in legs_by_h[h]:
                        xa = x_acted[u][x2]
                        for hk, hc in H.algebra.table[v][h2].items():
                            for xk, xc in xa.items():
                                sparse_add(f, cell, xk * dh + hk, f.mul(c, f.mul(hc, xc)))
                    table[p][q] = cell
    h_unit = H.algebra.unit
    unit = {x * dh + h: f.mul(cx, ch) for x, cx in X.unit.items() for h, ch in h_unit.items()}
    alg = Algebra(f, dim, table, unit)
    out = algebra_outcome(alg)
    ex_cols = [{x * dh + h: ch for h, ch in h_unit.items()} for x in range(dx)]
    eh_cols = [{x * dh + h: cx for x, cx in X.unit.items()} for h in range(dh)]
    return SmashProduct(alg, X, H, LinMap(f, ex_cols, dim), LinMap(f, eh_cols, dim), out)


def verify_smash_commutation(sm: SmashProduct, act: ModuleAlgebraAction) -> CheckOutcome:
    """h x = (h1 . x) h2 inside the smash product, on all basis pairs."""
    f = sm.X.field
    failures = []
    for h in range(sm.H.dim):
        hv = sm.embed_h.columns[h]
        for x in range(sm.X.dim):
            lhs = sm.algebra.mul_sparse(hv, sm.embed_x.columns[x])
            rhs: dict = {}
            for u, v, c in sm.H.delta_coords(h):
                hx = act.maps[u].columns[x]
                sparse_axpy(f, rhs, c, sm.algebra.mul_sparse(sm.embed_x.apply(hx), sm.embed_h.columns[v]))
            if lhs != rhs:
                failures.append({"pair": (h, x)})
    return CheckOutcome(not failures, failures)


# ---------------------------------------------------------------------------
# psi: smash product -> endomorphism ring
# ---------------------------------------------------------------------------


def _psi(sm: SmashProduct, act: ModuleAlgebraAction, sys: FrobeniusSystem) -> tuple:
    """(End(X_N), Psi as a map smash -> End coordinates, the (x, h) whose
    image x (h . -) falls outside End(X_N))."""
    X = sm.X
    f = X.field
    endo = right_module_endomorphisms(X, sys.ext.n_algebra, sys.ext.embed)
    cols = []
    outside = []
    for x in range(X.dim):
        ex = {x: f.one}
        for h in range(sm.H.dim):
            x_h = LinMap(f, [X.mul_sparse(ex, c) for c in act.maps[h].columns], X.dim)
            coords = endo.coords(x_h)
            if coords is None:
                outside.append((x, h))
                coords = {}
            cols.append(coords)
    return endo, LinMap(f, cols, endo.algebra.dim), outside


def psi_map(sm: SmashProduct, act: ModuleAlgebraAction, sys: FrobeniusSystem) -> CheckOutcome:
    """Psi(x # h) = x (h . -) lands in End(X_N) and is an algebra
    isomorphism; the explicit inverse formula is checked separately by
    psi_inverse_formula."""
    endo, psi, outside = _psi(sm, act, sys)
    failures = [{"kind": "psi-image-outside-End(X_N)", "pair": pair} for pair in outside]
    morph = check_morphism(psi, sm.algebra, endo.algebra)
    if not morph.ok():
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
    for g in endo.basis:
        acc: dict = {}
        for x, y in sys.dual_pairs:
            term = sm.algebra.mul_sparse(
                sm.algebra.mul_sparse(sm.embed_x.apply(g.apply(x)), t_smash), sm.embed_x.apply(y)
            )
            sparse_axpy(f, acc, f.one, term)
        inv_cols.append(acc)
    inv = LinMap(f, inv_cols, sm.algebra.dim)
    failures = []
    if psi.compose(inv) != LinMap.identity(f, endo.algebra.dim):
        failures.append({"kind": "psi o inverse != id"})
    if inv.compose(psi) != LinMap.identity(f, sm.algebra.dim):
        failures.append({"kind": "inverse o psi != id"})
    return CheckOutcome(not failures, failures)


# ---------------------------------------------------------------------------
# tower actions
# ---------------------------------------------------------------------------


def action_b_on_m1(t, d2, H_B: HopfStructure, sandwiches: tuple) -> tuple[ModuleAlgebraAction, CheckOutcome]:
    """Ocneanu-Szymanski action b . x = lam^-1 E_M1(b x e2), verified as a
    module-algebra action, cross-checked against b_(1) x S(b_(2)), with
    e2 . x = E_M(x). The action is read from the right sandwich maps at the
    image of the basis of M1."""
    f = t.M.field
    M1, M2 = t.M1, t.M2
    lam_inv = t.base_sys.lambda_inverse
    incl = t.incl2.columns
    _, right = sandwiches
    maps = [LinMap(f, [sparse_scale(f, lam_inv, r.apply(xh)) for xh in incl], M1.dim) for r in right]
    act = ModuleAlgebraAction(H_B, M1, maps)
    out = verify_module_algebra(act)
    failures = list(out.failures)

    if H_B.antipode is not None:
        # S(b_v) in M2
        s_b = [LinMap(f, d2.B.vectors, M2.dim).apply(c) for c in H_B.antipode.columns]
        for j in range(H_B.dim):
            legs = H_B.delta_coords(j)
            for x in range(M1.dim):
                rhs: dict = {}
                for u, v, c in legs:
                    sparse_axpy(f, rhs, c, M2.mul_sparse(M2.mul_sparse(d2.B.vectors[u], incl[x]), s_b[v]))
                if t.incl2.apply(act.maps[j].columns[x]) != rhs:
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


def action_a_on_m(t, d2, H_A: HopfStructure) -> tuple[Optional[ModuleAlgebraAction], CheckOutcome]:
    """a . m = a_(1) m S(a_(2)) computed inside M1; must land in the image
    of M; e1 . x = E(x)."""
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
        legs = H_A.delta_coords(i)
        cols = []
        for m, mh in enumerate(t.incl1.columns):
            acc: dict = {}
            for u, v, c in legs:
                sparse_axpy(f, acc, c, M1.mul_sparse(M1.mul_sparse(a_vecs[u], mh), s_a[v]))
            coords = m_image.coords(acc)
            if coords is None:
                failures.append({"kind": "action-leaves-M", "pair": (i, m)})
                coords = {}
            cols.append(coords)
        maps.append(LinMap(f, cols, M.dim))
    act = ModuleAlgebraAction(H_A, M, maps)
    if failures:
        return act, CheckOutcome(False, failures)
    out = verify_module_algebra(act)
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


def verify_invariants(act: ModuleAlgebraAction, expected: SubspaceBasis) -> CheckOutcome:
    inv = invariants(act)
    exp_canon = SubspaceBasis.from_spanning(act.algebra, expected.vectors)
    ok = inv.equals(exp_canon)
    return CheckOutcome(ok, [] if ok else [{"kind": "invariants-mismatch", "dim": inv.dim, "expected_dim": exp_canon.dim}])


def verify_smash_iso_theta(t, d2, H_B: HopfStructure, act: ModuleAlgebraAction) -> CheckOutcome:
    """theta: x # b -> x b is an algebra isomorphism M1 # B -> M2, and its
    restriction A # B -> C is one as well.

    The smash tables are built from the action columns h . e_x, and
    check_morphism reads the image of each basis element once and gets
    theta(e_i e_j) as sum_k c_ij^k theta(e_k). Both are exact by linearity
    alone: every product is still formed and every identity checked on every
    basis pair or triple.
    """
    f = t.M.field
    M2 = t.M2
    failures = []
    sm = smash_product(t.M1, H_B, act)
    if not sm.report.ok:
        failures.append({"kind": "smash-algebra-invalid", "detail": sm.report.failures[:1]})
    cols = [M2.mul_sparse(xh, b) for xh in t.incl2.columns for b in d2.B.vectors]
    morph = check_morphism(LinMap(f, cols, M2.dim), sm.algebra, M2)
    if not morph.ok():
        failures.append({"kind": "theta-not-isomorphism", "detail": morph.failures[:2]})

    # restriction A # B -> C
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
    A_alg, _ = d2.A.induced_algebra()
    sm_ab = smash_product(A_alg, H_B, ModuleAlgebraAction(H_B, A_alg, a_maps))
    C_alg, _ = d2.C.induced_algebra()
    cols = []
    for i in range(d2.A.dim):
        ah = t.incl2.apply(d2.A.vectors[i])
        for j in range(H_B.dim):
            coords = d2.C.coords(M2.mul_sparse(ah, d2.B.vectors[j]))
            if coords is None:
                failures.append({"kind": "AB-product-outside-C", "pair": (i, j)})
                coords = {}
            cols.append(coords)
    morph = check_morphism(LinMap(f, cols, d2.C.dim), sm_ab.algebra, C_alg)
    if not morph.ok():
        failures.append({"kind": "A-smash-B-vs-C-failed", "detail": morph.failures[:2]})
    return CheckOutcome(not failures, failures)


# ---------------------------------------------------------------------------
# cleftness and the trivial cocycle
# ---------------------------------------------------------------------------


def cleft_data(
    t, d2, H_A: HopfStructure, H_B: HopfStructure, p: PairingData,
    act_a: ModuleAlgebraAction, act_b: ModuleAlgebraAction,
) -> CheckOutcome:
    """iota: A -> M1 is a comodule map (coaction derived from the B-action act_b),
    its convolution inverse is iota o S_A, the associated cocycle is trivial,
    and m # a -> m a is an algebra isomorphism M # A -> M1."""
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
        rhs: dict = {}
        for u, v, c in H_A.delta_coords(i):
            for r, cr in a_vecs[u].items():
                sparse_add(f, rhs, r * da + v, f.mul(c, cr))
        if lhs != rhs:
            failures.append({"kind": "iota-not-comodule-map", "basis": i})

    # convolution inverse: mu (iota (x) iota S_A) Delta_A = unit eps_A (both orders)
    for i in range(da):
        acc1: dict = {}
        acc2: dict = {}
        for u, v, c in H_A.delta_coords(i):
            sparse_axpy(f, acc1, c, M1.mul_sparse(a_vecs[u], s_a[v]))
            sparse_axpy(f, acc2, c, M1.mul_sparse(s_a[u], a_vecs[v]))
        expected = sparse_scale(f, H_A.counit_of(i), M1.unit)
        if acc1 != expected or acc2 != expected:
            failures.append({"kind": "convolution-inverse", "basis": i})

    # cocycle sigma(a, a') = iota(a1) iota(a'1) iota(S_A(a2 a'2)) = eps(a) eps(a') 1
    A_alg = p.A_alg
    for i in range(da):
        for i2 in range(da):
            acc: dict = {}
            for u, v, c in H_A.delta_coords(i):
                for u2, v2, c2 in H_A.delta_coords(i2):
                    s_prod = a_embed.apply(s_map.apply(A_alg.table[v][v2]))
                    term = M1.mul_sparse(M1.mul_sparse(a_vecs[u], a_vecs[u2]), s_prod)
                    sparse_axpy(f, acc, f.mul(c, c2), term)
            expected = sparse_scale(f, f.mul(H_A.counit_of(i), H_A.counit_of(i2)), M1.unit)
            if acc != expected:
                failures.append({"kind": "cocycle-not-trivial", "pair": (i, i2)})

    # m # a -> m iota(a) is an algebra isomorphism M # A -> M1
    if act_a is not None:
        sm = smash_product(t.M, H_A, act_a)
        cols = [M1.mul_sparse(mh, a) for mh in t.incl1.columns for a in a_vecs]
        morph = check_morphism(LinMap(f, cols, M1.dim), sm.algebra, M1)
        if not morph.ok():
            failures.append({"kind": "M-smash-A-vs-M1-failed", "detail": morph.failures[:2]})
    return CheckOutcome(not failures, failures)


# ---------------------------------------------------------------------------
# the Galois map
# ---------------------------------------------------------------------------


def galois_map(
    X: Algebra,
    N: SubspaceBasis,
    tq: TensorQuotient,
    act: ModuleAlgebraAction,
    dual_hopf_dim: int,
) -> CheckOutcome:
    """beta: X (x)_N X -> X (x) H*, a (x) a' -> a a'_(0) (x) a'_(1), with the
    coaction derived from the action through dual bases; bijectivity via rank.

    dual_hopf_dim is dim H (= dim H*). The H*-coordinates are the functionals
    dual to the acting basis of H.
    """
    f = X.field
    dh = dual_hopf_dim
    target_dim = X.dim * dh
    failures = []
    if target_dim != tq.dim:
        failures.append({"kind": "dimension-mismatch", "dims": (tq.dim, target_dim)})
        return CheckOutcome(False, failures)
    cols = []
    for (i, j) in tq.pairs:
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


def comodule_axioms_from_action(act: ModuleAlgebraAction) -> CheckOutcome:
    """The derived coaction rho(x) = sum_j (u_j . x) (x) p_j is coassociative,
    counital and an algebra map into X (x) H*."""
    X = act.algebra
    H = act.hopf
    f = X.field
    failures = []
    # coassociativity of the coaction = action axiom rho(h h') = ..., already
    # covered; here check counit: sum_j eps*(p_j) (u_j . x) = x where
    # eps*(p_j) = p_j(1_H) = coefficient of u_j in 1_H.
    counit_action = act.rho(H.algebra.unit)
    for x in range(X.dim):
        if counit_action.columns[x] != {x: f.one}:
            failures.append({"kind": "coaction-counit", "basis": x})
    # comodule-algebra law is the module-algebra law, re-checked through verify
    out = verify_module_algebra(act)
    failures.extend(out.failures)
    return CheckOutcome(not failures, failures)
