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
    endomorphism_algebra,
)
from .frobenius import CheckOutcome, FrobeniusSystem, algebra_outcome
from .hopf import HopfStructure, PairingData, right_sandwich
from .linalg import (
    Matrix,
    basis_vector,
    rank,
    sparse_add,
    sparse_apply,
    sparse_axpy,
    sparse_columns,
    vec_eq,
    vec_scale,
)


# ---------------------------------------------------------------------------
# module-algebra actions
# ---------------------------------------------------------------------------


@dataclass
class ModuleAlgebraAction:
    hopf: HopfStructure
    algebra: Algebra  # X
    mats: list  # one X -> X matrix per basis element of H

    def act_vec(self, h: list, x: list) -> list:
        f = self.algebra.field
        out = [f.zero] * self.algebra.dim
        for i, c in enumerate(h):
            if f.is_zero(c):
                continue
            img = self.mats[i].matvec(x)
            out = [f.add(a, f.mul(c, b)) for a, b in zip(out, img)]
        return out

    def columns(self) -> list:
        """columns()[h][x] = e_h . e_x as a sparse dict, read off the matrices."""
        return [sparse_columns(m) for m in self.mats]


def verify_module_algebra(act: ModuleAlgebraAction, max_failures: int = 6) -> CheckOutcome:
    """Unit/associativity of the action, h . (xy) = (h1 . x)(h2 . y) and
    h . 1 = eps(h) 1, all on basis tuples."""
    H, X = act.hopf, act.algebra
    f = X.field
    failures = []
    # rho(1_H) = id
    acc = Matrix.zero(f, X.dim, X.dim)
    for i, c in enumerate(H.algebra.unit):
        if not f.is_zero(c):
            acc = acc.add(act.mats[i].scale(c))
    if not acc == Matrix.identity(f, X.dim):
        failures.append({"kind": "unit-action"})
    # rho(h h') = rho(h) rho(h')
    for i in range(H.dim):
        for j in range(H.dim):
            acc = Matrix.zero(f, X.dim, X.dim)
            for k, c in H.algebra.table[i][j].items():
                acc = acc.add(act.mats[k].scale(c))
            if not acc == act.mats[i].mul(act.mats[j]):
                failures.append({"kind": "action-not-multiplicative", "pair": (i, j)})
                if len(failures) >= max_failures:
                    return CheckOutcome(False, failures)
    # module-algebra law
    cols = act.columns()
    for i in range(H.dim):
        legs = H.delta_coords(i)
        for x in range(X.dim):
            for y in range(X.dim):
                rhs: dict = {}
                for u, v, c in legs:
                    sparse_axpy(f, rhs, c, X.mul_sparse(cols[u][x], cols[v][y]))
                if sparse_apply(f, cols[i], X.table[x][y]) != rhs:
                    failures.append({"kind": "module-algebra-law", "triple": (i, x, y)})
                    if len(failures) >= max_failures:
                        return CheckOutcome(False, failures)
        lhs = act.mats[i].matvec(X.unit)
        if not vec_eq(f, lhs, vec_scale(f, H.counit.data[0][i], X.unit)):
            failures.append({"kind": "unit-not-scaled-by-eps", "basis": i})
    return CheckOutcome(not failures, failures)


def invariants(act: ModuleAlgebraAction) -> SubspaceBasis:
    """Solutions of h . x = eps(h) x for every basis h, as a canonical basis."""
    f = act.algebra.field
    X = act.algebra
    rows = []
    for i in range(act.hopf.dim):
        eps_i = act.hopf.counit.data[0][i]
        diff = act.mats[i].sub(Matrix.identity(f, X.dim).scale(eps_i))
        rows.extend(diff.data)
    from .linalg import kernel_basis

    vecs = kernel_basis(Matrix(f, rows)) if rows else []
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
    cols = act.columns()
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
    unit = [f.zero] * dim
    for x, cx in enumerate(X.unit):
        if f.is_zero(cx):
            continue
        for h, ch in enumerate(H.algebra.unit):
            if not f.is_zero(ch):
                unit[x * dh + h] = f.mul(cx, ch)
    alg = Algebra(f, dim, table, unit)
    out = algebra_outcome(alg)

    ex_cols = []
    for x in range(dx):
        v = [f.zero] * dim
        for h, ch in enumerate(H.algebra.unit):
            if not f.is_zero(ch):
                v[x * dh + h] = ch
        ex_cols.append(v)
    eh_cols = []
    for h in range(dh):
        v = [f.zero] * dim
        for x, cx in enumerate(X.unit):
            if not f.is_zero(cx):
                v[x * dh + h] = cx
        eh_cols.append(v)
    return SmashProduct(
        alg,
        X,
        H,
        LinMap.from_columns(f, ex_cols),
        LinMap.from_columns(f, eh_cols),
        out,
    )


def verify_smash_commutation(sm: SmashProduct, act: ModuleAlgebraAction) -> CheckOutcome:
    """h x = (h1 . x) h2 inside the smash product, on all basis pairs."""
    f = sm.X.field
    failures = []
    for h in range(sm.H.dim):
        hv = sm.embed_h.apply(basis_vector(f, sm.H.dim, h))
        for x in range(sm.X.dim):
            xv = sm.embed_x.apply(basis_vector(f, sm.X.dim, x))
            lhs = sm.algebra.mul(hv, xv)
            rhs = [f.zero] * sm.algebra.dim
            for u, v, c in sm.H.delta_coords(h):
                hx = act.mats[u].matvec(basis_vector(f, sm.X.dim, x))
                term = sm.algebra.mul(sm.embed_x.apply(hx), sm.embed_h.apply(basis_vector(f, sm.H.dim, v)))
                rhs = [f.add(a, f.mul(c, b)) for a, b in zip(rhs, term)]
            if not vec_eq(f, lhs, rhs):
                failures.append({"pair": (h, x)})
    return CheckOutcome(not failures, failures)


# ---------------------------------------------------------------------------
# psi: smash product -> endomorphism ring
# ---------------------------------------------------------------------------


def psi_map(sm: SmashProduct, act: ModuleAlgebraAction, sys: FrobeniusSystem) -> CheckOutcome:
    """Psi(x # h) = x (h . -) lands in End(X_N) and is an algebra
    isomorphism; the explicit inverse formula is checked separately by
    psi_inverse_formula."""
    X = sm.X
    f = X.field
    ext = sys.ext
    action_mats = [
        X.rmul_matrix(ext.embed.apply(basis_vector(f, ext.n_algebra.dim, i)))
        for i in range(ext.n_algebra.dim)
    ]
    endo = endomorphism_algebra(f, X.dim, action_mats, ext.n_algebra)
    failures = []
    cols = []
    for x in range(X.dim):
        lx = X.lmul_matrix(basis_vector(f, X.dim, x))
        for h in range(sm.H.dim):
            mat = lx.mul(act.mats[h])
            coords = endo.coords_of_matrix(mat)
            if coords is None:
                failures.append({"kind": "psi-image-outside-End(X_N)", "pair": (x, h)})
                coords = [f.zero] * endo.algebra.dim
            cols.append(coords)
    psi = LinMap.from_columns(f, cols)
    morph = check_morphism(psi, sm.algebra, endo.algebra)
    if not morph.ok():
        failures.append({"kind": "psi-not-isomorphism", "detail": morph.failures[:2]})
    return CheckOutcome(not failures, failures)


def psi_inverse_formula(
    sm: SmashProduct, act: ModuleAlgebraAction, sys: FrobeniusSystem, t_vec: list
) -> CheckOutcome:
    """The stated inverse g -> sum_i g(x_i) t y_i (a product inside the smash
    algebra) composed with Psi gives the identity both ways."""
    X = sm.X
    f = X.field
    ext = sys.ext
    action_mats = [
        X.rmul_matrix(ext.embed.apply(basis_vector(f, ext.n_algebra.dim, i)))
        for i in range(ext.n_algebra.dim)
    ]
    endo = endomorphism_algebra(f, X.dim, action_mats, ext.n_algebra)
    # Psi as a matrix smash -> endo coords
    cols = []
    for x in range(X.dim):
        lx = X.lmul_matrix(basis_vector(f, X.dim, x))
        for h in range(sm.H.dim):
            coords = endo.coords_of_matrix(lx.mul(act.mats[h]))
            if coords is None:
                return CheckOutcome(False, [{"kind": "psi-image-outside-End(X_N)"}])
            cols.append(coords)
    psi = LinMap.from_columns(f, cols)
    t_smash = sm.embed_h.apply(t_vec)
    inv_cols = []
    for mat in endo.basis_matrices:
        acc = [f.zero] * sm.algebra.dim
        for x, y in sys.dual_pairs:
            gx = mat.matvec(x)
            term = sm.algebra.mul(
                sm.algebra.mul(sm.embed_x.apply(gx), t_smash), sm.embed_x.apply(y)
            )
            acc = [f.add(a, b) for a, b in zip(acc, term)]
        inv_cols.append(acc)
    inv = LinMap.from_columns(f, inv_cols)
    ok1 = psi.compose(inv).matrix == Matrix.identity(f, endo.algebra.dim)
    ok2 = inv.compose(psi).matrix == Matrix.identity(f, sm.algebra.dim)
    failures = []
    if not ok1:
        failures.append({"kind": "psi o inverse != id"})
    if not ok2:
        failures.append({"kind": "inverse o psi != id"})
    return CheckOutcome(not failures, failures)


# ---------------------------------------------------------------------------
# tower actions
# ---------------------------------------------------------------------------


def action_b_on_m1(t, d2, H_B: HopfStructure) -> tuple[ModuleAlgebraAction, CheckOutcome]:
    """Ocneanu-Szymanski action b . x = lam^-1 E_M1(b x e2), verified as a
    module-algebra action, cross-checked against b_(1) x S(b_(2)), with
    e2 . x = E_M(x)."""
    f = t.M.field
    M1, M2 = t.M1, t.M2
    lam_inv = t.base_sys.lambda_inverse
    incl = sparse_columns(t.incl2.matrix)
    mats = [
        Matrix(f, [[f.mul(lam_inv, col.get(r, f.zero)) for col in cols] for r in range(M1.dim)])
        for cols in right_sandwich(t, d2, incl)
    ]
    act = ModuleAlgebraAction(H_B, M1, mats)
    out = verify_module_algebra(act)
    failures = list(out.failures)

    if H_B.antipode is not None:
        S = H_B.antipode
        b_sp = [M2.to_sparse(b) for b in d2.B.vectors]
        s_b = []  # S(b_v) in M2
        for v in range(H_B.dim):
            sb: dict = {}
            for w in range(H_B.dim):
                sparse_axpy(f, sb, S.data[w][v], b_sp[w])
            s_b.append(sb)
        cols = act.columns()
        for j in range(H_B.dim):
            legs = H_B.delta_coords(j)
            for x in range(M1.dim):
                rhs: dict = {}
                for u, v, c in legs:
                    sparse_axpy(f, rhs, c, M2.mul_sparse(M2.mul_sparse(b_sp[u], incl[x]), s_b[v]))
                if sparse_apply(f, incl, cols[j][x]) != rhs:
                    failures.append({"kind": "outer-action-formula", "pair": (j, x)})
                    break

    e2_B = d2.B.coords(t.e2)
    if e2_B is None:
        failures.append({"kind": "e2-outside-B"})
    else:
        for x in range(M1.dim):
            ex = basis_vector(f, M1.dim, x)
            lhs = act.act_vec(e2_B, ex)
            rhs = t.incl1.apply(t.E_M.apply(ex))
            if not vec_eq(f, lhs, rhs):
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
    m_image = SubspaceBasis(M1, [t.incl1.apply(basis_vector(f, M.dim, i)) for i in range(M.dim)])
    mats = []
    for i in range(H_A.dim):
        legs = H_A.delta_coords(i)
        cols = []
        for m in range(M.dim):
            mh = t.incl1.apply(basis_vector(f, M.dim, m))
            acc = [f.zero] * M1.dim
            for u, v, c in legs:
                sa = [f.zero] * M1.dim
                for w in range(H_A.dim):
                    cw = H_A.antipode.data[w][v]
                    if not f.is_zero(cw):
                        sa = [f.add(a, f.mul(cw, bb)) for a, bb in zip(sa, d2.A.vectors[w])]
                term = M1.mul(M1.mul(d2.A.vectors[u], mh), sa)
                acc = [f.add(a, f.mul(c, b)) for a, b in zip(acc, term)]
            coords = m_image.coords(acc)
            if coords is None:
                failures.append({"kind": "action-leaves-M", "pair": (i, m)})
                coords = [f.zero] * M.dim
            cols.append(coords)
        mats.append(Matrix(f, [[cols[j][i2] for j in range(M.dim)] for i2 in range(M.dim)]))
    act = ModuleAlgebraAction(H_A, M, mats)
    if failures:
        return act, CheckOutcome(False, failures)
    out = verify_module_algebra(act)
    failures = list(out.failures)
    e1_A = d2.A.coords(t.e1)
    if e1_A is None:
        failures.append({"kind": "e1-outside-A"})
    else:
        e_into_m = t.base_sys.ext.e_into_m(t.base_sys.E)
        for x in range(M.dim):
            ex = basis_vector(f, M.dim, x)
            if not vec_eq(f, act.act_vec(e1_A, ex), e_into_m.apply(ex)):
                failures.append({"kind": "e1-action-vs-E", "basis": x})
                break
    return act, CheckOutcome(not failures, failures)


def verify_invariants(act: ModuleAlgebraAction, expected: SubspaceBasis) -> CheckOutcome:
    inv = invariants(act)
    exp_canon = SubspaceBasis.from_spanning(act.algebra, [list(v) for v in expected.vectors])
    ok = inv.equals(exp_canon)
    return CheckOutcome(ok, [] if ok else [{"kind": "invariants-mismatch", "dim": inv.dim, "expected_dim": exp_canon.dim}])


def verify_smash_iso_theta(t, d2, H_B: HopfStructure, act: ModuleAlgebraAction) -> CheckOutcome:
    """theta: x # b -> x b is an algebra isomorphism M1 # B -> M2, and its
    restriction A # B -> C is one as well.

    The smash tables are built from the action columns h . e_x, read once
    from the action matrices, and check_morphism reads the image of each
    basis element once and gets theta(e_i e_j) as sum_k c_ij^k theta(e_k).
    Both are exact by linearity alone: every product is still formed and
    every identity checked on every basis pair or triple.
    """
    f = t.M.field
    M1, M2 = t.M1, t.M2
    failures = []
    sm = smash_product(M1, H_B, act)
    if not sm.report.ok:
        failures.append({"kind": "smash-algebra-invalid", "detail": sm.report.failures[:1]})
    cols = []
    for x in range(M1.dim):
        xh = t.incl2.apply(basis_vector(f, M1.dim, x))
        for j in range(H_B.dim):
            cols.append(M2.mul(xh, d2.B.vectors[j]))
    theta = LinMap.from_columns(f, cols)
    morph = check_morphism(theta, sm.algebra, M2)
    if not morph.ok():
        failures.append({"kind": "theta-not-isomorphism", "detail": morph.failures[:2]})

    # restriction A # B -> C
    a_mats = []
    for j in range(H_B.dim):
        cols_a = []
        for a_vec in d2.A.vectors:
            img = act.mats[j].matvec(a_vec)
            coords = d2.A.coords(img)
            if coords is None:
                failures.append({"kind": "B-action-leaves-A", "basis": j})
                coords = [f.zero] * d2.A.dim
            cols_a.append(coords)
        a_mats.append(Matrix(f, [[cols_a[c][r] for c in range(d2.A.dim)] for r in range(d2.A.dim)]))
    A_alg, _ = d2.A.induced_algebra()
    act_on_a = ModuleAlgebraAction(H_B, A_alg, a_mats)
    sm_ab = smash_product(A_alg, H_B, act_on_a)
    C_alg, _ = d2.C.induced_algebra()
    cols = []
    for i in range(d2.A.dim):
        ah = t.incl2.apply(d2.A.vectors[i])
        for j in range(H_B.dim):
            img = M2.mul(ah, d2.B.vectors[j])
            coords = d2.C.coords(img)
            if coords is None:
                failures.append({"kind": "AB-product-outside-C", "pair": (i, j)})
                coords = [f.zero] * d2.C.dim
            cols.append(coords)
    theta_ab = LinMap.from_columns(f, cols)
    morph = check_morphism(theta_ab, sm_ab.algebra, C_alg)
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

    # coaction rho: M1 -> M1 (x) A dual to the B-action: rho(x) = sum_j (u_j . x) (x) p_j
    # with u_j the B-basis and p_j in A pairing-dual to it.
    p_duals = []  # p_j as A-coordinate vectors
    for j in range(d2.B.dim):
        p_duals.append([p.P_inv.data[j][u] for u in range(d2.A.dim)])
    b_mats = act_b.mats

    def coaction_legs(x_vec: list) -> list:
        legs = []
        for j in range(d2.B.dim):
            legs.append((b_mats[j].matvec(x_vec), p_duals[j]))
        return legs

    # iota is a comodule map: rho(iota(a)) = (iota (x) id) Delta_A(a)
    for i in range(d2.A.dim):
        a_vec = d2.A.vectors[i]
        lhs_legs = coaction_legs(a_vec)
        rhs = [[f.zero] * d2.A.dim for _ in range(M1.dim)]
        for u, v, c in H_A.delta_coords(i):
            a_u = d2.A.vectors[u]
            for r in range(M1.dim):
                if f.is_zero(a_u[r]):
                    continue
                for s in range(d2.A.dim):
                    add = f.mul(c, f.mul(a_u[r], f.one if s == v else f.zero))
                    if not f.is_zero(add):
                        rhs[r][s] = f.add(rhs[r][s], add)
        lhs = [[f.zero] * d2.A.dim for _ in range(M1.dim)]
        for vec, pj in lhs_legs:
            for r in range(M1.dim):
                if f.is_zero(vec[r]):
                    continue
                for s in range(d2.A.dim):
                    if not f.is_zero(pj[s]):
                        lhs[r][s] = f.add(lhs[r][s], f.mul(vec[r], pj[s]))
        if any(not f.eq(a, b) for ra, rb in zip(lhs, rhs) for a, b in zip(ra, rb)):
            failures.append({"kind": "iota-not-comodule-map", "basis": i})

    # convolution inverse: mu (iota (x) iota S_A) Delta_A = unit eps_A (both orders)
    for i in range(d2.A.dim):
        acc1 = [f.zero] * M1.dim
        acc2 = [f.zero] * M1.dim
        for u, v, c in H_A.delta_coords(i):
            s_av = [f.zero] * M1.dim
            for w in range(d2.A.dim):
                cw = H_A.antipode.data[w][v]
                if not f.is_zero(cw):
                    s_av = [f.add(a, f.mul(cw, b)) for a, b in zip(s_av, d2.A.vectors[w])]
            term1 = M1.mul(d2.A.vectors[u], s_av)
            acc1 = [f.add(a, f.mul(c, b)) for a, b in zip(acc1, term1)]
            s_au = [f.zero] * M1.dim
            for w in range(d2.A.dim):
                cw = H_A.antipode.data[w][u]
                if not f.is_zero(cw):
                    s_au = [f.add(a, f.mul(cw, b)) for a, b in zip(s_au, d2.A.vectors[w])]
            term2 = M1.mul(s_au, d2.A.vectors[v])
            acc2 = [f.add(a, f.mul(c, b)) for a, b in zip(acc2, term2)]
        expected = vec_scale(f, H_A.counit.data[0][i], M1.unit)
        if not vec_eq(f, acc1, expected) or not vec_eq(f, acc2, expected):
            failures.append({"kind": "convolution-inverse", "basis": i})

    # cocycle sigma(a, a') = iota(a1) iota(a'1) iota(S_A(a2 a'2)) = eps(a) eps(a') 1
    A_alg = p.A_alg
    for i in range(d2.A.dim):
        for i2 in range(d2.A.dim):
            acc = [f.zero] * M1.dim
            for u, v, c in H_A.delta_coords(i):
                for u2, v2, c2 in H_A.delta_coords(i2):
                    prod_v = A_alg.to_dense(A_alg.table[v][v2])
                    s_prod = [f.zero] * M1.dim
                    for w in range(d2.A.dim):
                        cw = f.zero
                        for l, cl in enumerate(prod_v):
                            if not f.is_zero(cl):
                                cw = f.add(cw, f.mul(H_A.antipode.data[w][l], cl))
                        if not f.is_zero(cw):
                            s_prod = [f.add(a, f.mul(cw, b)) for a, b in zip(s_prod, d2.A.vectors[w])]
                    term = M1.mul(M1.mul(d2.A.vectors[u], d2.A.vectors[u2]), s_prod)
                    acc = [f.add(a, f.mul(f.mul(c, c2), b)) for a, b in zip(acc, term)]
            expected = vec_scale(
                f, f.mul(H_A.counit.data[0][i], H_A.counit.data[0][i2]), M1.unit
            )
            if not vec_eq(f, acc, expected):
                failures.append({"kind": "cocycle-not-trivial", "pair": (i, i2)})

    # m # a -> m iota(a) is an algebra isomorphism M # A -> M1
    if act_a is not None:
        sm = smash_product(t.M, H_A, act_a)
        cols = []
        for m in range(t.M.dim):
            mh = t.incl1.apply(basis_vector(f, t.M.dim, m))
            for i in range(d2.A.dim):
                cols.append(M1.mul(mh, d2.A.vectors[i]))
        theta = LinMap.from_columns(f, cols)
        morph = check_morphism(theta, sm.algebra, M1)
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
    act_cols = act.columns()
    for (i, j) in tq.pairs:
        ei = {i: f.one}
        out = [f.zero] * target_dim
        for u in range(dh):
            for r, c in X.mul_sparse(ei, act_cols[u][j]).items():
                out[r * dh + u] = f.add(out[r * dh + u], c)
        cols.append(out)
    beta = LinMap.from_columns(f, cols)
    ok = rank(beta.matrix) == tq.dim
    if not ok:
        failures.append({"kind": "galois-map-not-bijective", "rank": rank(beta.matrix)})
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
    for x in range(X.dim):
        ex = basis_vector(f, X.dim, x)
        acc = [f.zero] * X.dim
        for j, c in enumerate(H.algebra.unit):
            if f.is_zero(c):
                continue
            acc = [f.add(a, f.mul(c, b)) for a, b in zip(acc, act.mats[j].matvec(ex))]
        if not vec_eq(f, acc, ex):
            failures.append({"kind": "coaction-counit", "basis": x})
    # comodule-algebra law is the module-algebra law, re-checked through verify
    out = verify_module_algebra(act)
    failures.extend(out.failures)
    return CheckOutcome(not failures, failures)
