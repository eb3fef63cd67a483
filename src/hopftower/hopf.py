"""Duality pairing on the second centralizers and Hopf structure recovery.

The pairing <a, b> = lam^-2 F(a e2 e1 b) transfers the multiplication of A to
a comultiplication on B through dual bases; the antipode comes from the two
one-sided maps b -> E_M1(e2 e1 b) and b -> E_M1(b e1 e2). Every derived
structure map is re-verified against its defining identity on all basis
tuples, which also makes the construction basis-independent in practice.

The tower identities (antipode remark, exchange relation, both action
identities) are read from the sandwich maps z -> E_M1(e2 z b_j) and
z -> E_M1(b_j z e2), built once per check as columns on a basis
(left_sandwich, right_sandwich) and applied to each element where it is
needed. This is exact: the product is bilinear in the structure constants and E_M1 is
linear, so each value equals the one formed by multiplying at that point.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import Algebra, LinMap, SubspaceBasis
from .frobenius import CheckOutcome, scalar_of
from .linalg import (
    Matrix,
    basis_vector,
    invert,
    rank,
    sparse_apply,
    sparse_axpy,
    sparse_columns,
    vec_eq,
    vec_scale,
)


class HopfError(ValueError):
    """Pairing degenerate or a structure map could not be solved."""


@dataclass
class PairingData:
    A_basis: SubspaceBasis  # inside M1 (or abstract ambient)
    B_basis: SubspaceBasis  # inside M2 (or abstract ambient)
    A_alg: Algebra
    B_alg: Algebra
    P: Matrix  # P[i][j] = <a_i, b_j>
    P_inv: Matrix
    Phi_inv: Matrix  # inverse of b -> E_M1(e2 e1 b), B -> A in A_basis coordinates


@dataclass
class HopfStructure:
    algebra: Algebra
    delta: Matrix  # dim^2 x dim, row (u * dim + v) carries b_u (x) b_v
    counit: Matrix  # 1 x dim
    antipode: Optional[Matrix]  # dim x dim

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def delta_coords(self, j: int) -> list[tuple[int, int, object]]:
        """Sparse legs (u, v, coefficient) of Delta(e_j)."""
        f = self.algebra.field
        d = self.dim
        out = []
        for row in range(d * d):
            c = self.delta.data[row][j]
            if not f.is_zero(c):
                out.append((row // d, row % d, c))
        return out

    def counit_apply(self, v: list):
        return self.counit.matvec(v)[0]


# ---------------------------------------------------------------------------
# tensor-square helpers
# ---------------------------------------------------------------------------


def tensor_square_mul(alg: Algebra, v: list, w: list) -> list:
    """(x (x) y)(x' (x) y') componentwise in alg (x) alg coordinates."""
    f = alg.field
    d = alg.dim
    out = [f.zero] * (d * d)
    vs = [(i, c) for i, c in enumerate(v) if not f.is_zero(c)]
    ws = [(i, c) for i, c in enumerate(w) if not f.is_zero(c)]
    for pq, cv in vs:
        p, q = divmod(pq, d)
        for rs, cw in ws:
            r, s = divmod(rs, d)
            c = f.mul(cv, cw)
            left = alg.table[p][r]
            right = alg.table[q][s]
            for k, ck in left.items():
                for l, cl in right.items():
                    idx = k * d + l
                    out[idx] = f.add(out[idx], f.mul(c, f.mul(ck, cl)))
    return out


def tensor_square_unit(alg: Algebra) -> list:
    f = alg.field
    d = alg.dim
    out = [f.zero] * (d * d)
    for i, a in enumerate(alg.unit):
        if f.is_zero(a):
            continue
        for j, b in enumerate(alg.unit):
            if f.is_zero(b):
                continue
            out[i * d + j] = f.mul(a, b)
    return out


def twist_matrix(field, d: int) -> Matrix:
    m = Matrix.zero(field, d * d, d * d)
    for i in range(d):
        for j in range(d):
            m.data[j * d + i][i * d + j] = field.one
    return m


# ---------------------------------------------------------------------------
# pairing from the tower
# ---------------------------------------------------------------------------


def compute_pairing(t, d2) -> tuple[Optional[PairingData], CheckOutcome]:
    """Evaluate <a, b> = lam^-2 F(a e2 e1 b) on the chosen bases of A and B.

    Fails (without raising) when F takes a non-scalar value on the products
    or when the matrix is singular; also verifies that Phi: b -> E_M1(e2 e1 b)
    is a bijection B -> A and keeps Phi^-1 for the antipode.
    """
    f = t.M.field
    M2 = t.M2
    lam_inv = t.base_sys.lambda_inverse
    lam_inv2 = f.mul(lam_inv, lam_inv)
    A, B = d2.A, d2.B
    e1h = t.e1_in_m2()
    failures = []
    rows = []
    for a in A.vectors:
        ah = t.incl2.apply(a)
        row = []
        for b in B.vectors:
            prod = M2.mul(M2.mul(M2.mul(ah, t.e2), e1h), b)
            val = scalar_of(t.M, t.F.apply(prod))
            if val is None:
                failures.append({"kind": "F-not-scalar", "value": "a e2 e1 b"})
                return None, CheckOutcome(False, failures)
            row.append(f.mul(lam_inv2, val))
        rows.append(row)
    P = Matrix(f, rows)
    P_inv = invert(P)
    if P_inv is None:
        failures.append({"kind": "pairing-degenerate"})
        return None, CheckOutcome(False, failures)

    # b -> E_M1(e2 e1 b) is a bijection B -> A
    cols = []
    for b in B.vectors:
        img = t.E_M1.apply(M2.mul(M2.mul(t.e2, e1h), b))
        coords = A.coords(img)
        if coords is None:
            failures.append({"kind": "E_M1(e2 e1 b) outside A"})
            return None, CheckOutcome(False, failures)
        cols.append(coords)
    phi_inv = invert(LinMap.from_columns(f, cols).matrix) if A.dim == B.dim else None
    if phi_inv is None:
        failures.append({"kind": "B-to-A map not bijective"})
        return None, CheckOutcome(False, failures)

    A_alg, _ = A.induced_algebra()
    B_alg, _ = B.induced_algebra()
    return PairingData(A, B, A_alg, B_alg, P, P_inv, phi_inv), CheckOutcome(True, [])


# ---------------------------------------------------------------------------
# coalgebra structure through dual bases
# ---------------------------------------------------------------------------


def build_coalgebra(A_alg: Algebra, B_alg: Algebra, P: Matrix) -> tuple[Matrix, Matrix, CheckOutcome]:
    """Delta and eps on B from the pairing, with the defining identity
    <a, b_(1)><a', b_(2)> = <a a', b> re-verified on all basis triples."""
    f = A_alg.field
    da, db = A_alg.dim, B_alg.dim
    P_inv = invert(P)
    if P_inv is None:
        raise HopfError("pairing matrix is singular")
    delta = Matrix.zero(f, db * db, db)
    for j in range(db):
        # W[i][k] = <a_i a_k, b_j>
        W = [[f.zero] * da for _ in range(da)]
        for i in range(da):
            for k in range(da):
                prod = A_alg.table[i][k]
                acc = f.zero
                for l, c in prod.items():
                    acc = f.add(acc, f.mul(c, P.data[l][j]))
                W[i][k] = acc
        # coords on b_u (x) b_v: (Pinv W_j Pinv^T)[u][v]
        for u in range(db):
            for v in range(db):
                acc = f.zero
                for i in range(da):
                    pui = P_inv.data[u][i]
                    if f.is_zero(pui):
                        continue
                    for k in range(da):
                        c = W[i][k]
                        if f.is_zero(c):
                            continue
                        acc = f.add(acc, f.mul(pui, f.mul(c, P_inv.data[v][k])))
                delta.data[u * db + v][j] = acc
    # eps(b) = <1_A, b>
    unit_row = []
    for j in range(db):
        acc = f.zero
        for l, c in enumerate(A_alg.unit):
            if not f.is_zero(c):
                acc = f.add(acc, f.mul(c, P.data[l][j]))
        unit_row.append(acc)
    eps = Matrix(f, [unit_row])

    failures = []
    for i in range(da):
        for k in range(da):
            for j in range(db):
                lhs = f.zero
                for row in range(db * db):
                    c = delta.data[row][j]
                    if f.is_zero(c):
                        continue
                    u, v = divmod(row, db)
                    lhs = f.add(lhs, f.mul(c, f.mul(P.data[i][u], P.data[k][v])))
                rhs = f.zero
                for l, c in A_alg.table[i][k].items():
                    rhs = f.add(rhs, f.mul(c, P.data[l][j]))
                if not f.eq(lhs, rhs):
                    failures.append({"kind": "pairing-identity", "triple": (i, k, j)})
                    if len(failures) >= 3:
                        return delta, eps, CheckOutcome(False, failures)
    return delta, eps, CheckOutcome(not failures, failures)


def comultiplication(p: PairingData, t=None, d2=None) -> tuple[Matrix, Matrix, CheckOutcome]:
    """Delta and eps on B; with a tower also cross-checks eps(b) = lam^-1 F(b e2),
    Delta(1) = 1 (x) 1 and multiplicativity of eps."""
    f = p.B_alg.field
    delta, eps, out = build_coalgebra(p.A_alg, p.B_alg, p.P)
    failures = list(out.failures)
    db = p.B_alg.dim
    # Delta(1) = 1 (x) 1
    if not vec_eq(f, delta.matvec(p.B_alg.unit), tensor_square_unit(p.B_alg)):
        failures.append({"kind": "delta-unit"})
    # eps multiplicative
    for i in range(db):
        for j in range(db):
            prod = p.B_alg.to_dense(p.B_alg.table[i][j])
            lhs = eps.matvec(prod)[0]
            rhs = f.mul(eps.data[0][i], eps.data[0][j])
            if not f.eq(lhs, rhs):
                failures.append({"kind": "eps-multiplicative", "pair": (i, j)})
    if t is not None and d2 is not None:
        lam_inv = t.base_sys.lambda_inverse
        for j, b in enumerate(d2.B.vectors):
            val = scalar_of(t.M, t.F.apply(t.M2.mul(b, t.e2)))
            if val is None or not f.eq(f.mul(lam_inv, val), eps.data[0][j]):
                failures.append({"kind": "eps-vs-F(be2)", "basis": j})
    return delta, eps, CheckOutcome(not failures, failures)


# ---------------------------------------------------------------------------
# the antipode
# ---------------------------------------------------------------------------


def left_sandwich(t, d2, domain: list[dict]) -> list:
    """left_sandwich(t, d2, domain)[j][k] = E_M1((e2 z_k) b_j) as a sparse M1
    dict, for each basis element b_j of B and each sparse M2 vector z_k of
    domain.

    On the basis of M2 these are the columns of the map z -> E_M1(e2 z b_j),
    and sparse_apply evaluates it anywhere exactly: the product is bilinear in
    the structure constants and E_M1 is linear, so no associativity and no
    multiplicativity of incl2 is assumed.
    """
    f = t.M.field
    M2 = t.M2
    cond = sparse_columns(t.E_M1.matrix)
    e2 = M2.to_sparse(t.e2)
    e2z = [M2.mul_sparse(e2, z) for z in domain]
    out = []
    for b in d2.B.vectors:
        bs = M2.to_sparse(b)
        out.append([sparse_apply(f, cond, M2.mul_sparse(ez, bs)) for ez in e2z])
    return out


def right_sandwich(t, d2, domain: list[dict]) -> list:
    """right_sandwich(t, d2, domain)[j][k] = E_M1((b_j z_k) e2), the mirror of
    left_sandwich, exact for the same reason."""
    f = t.M.field
    M2 = t.M2
    cond = sparse_columns(t.E_M1.matrix)
    e2 = M2.to_sparse(t.e2)
    out = []
    for b in d2.B.vectors:
        bs = M2.to_sparse(b)
        out.append([sparse_apply(f, cond, M2.mul_sparse(M2.mul_sparse(bs, z), e2)) for z in domain])
    return out


def antipode(t, d2, p: PairingData) -> tuple[Optional[Matrix], CheckOutcome]:
    """S = Phi^-1 Psi with Phi(b) = E_M1(e2 e1 b), Psi(b) = E_M1(b e1 e2);
    verifies E_M1(b x e2) = E_M1(e2 x S(b)) for every basis x in M1.

    Phi^-1 is the one compute_pairing built and checked bijective. Psi and
    both sides of the identity are read from the sandwich maps at e1 and at
    the basis of M1; the right-hand side is sum_u S[u][j] E_M1(e2 x b_u),
    exact by linearity in the right factor.
    """
    f = t.M.field
    M1 = t.M1
    db = d2.B.dim
    incl = sparse_columns(t.incl2.matrix)
    left = left_sandwich(t, d2, incl)
    right = right_sandwich(t, d2, incl + [t.M2.to_sparse(t.e1_in_m2())])
    failures = []
    psi_cols = []
    for j in range(db):
        coords = p.A_basis.coords(M1.to_dense(right[j][-1]))
        if coords is None:
            return None, CheckOutcome(False, [{"kind": "Psi image outside A"}])
        psi_cols.append(coords)
    S = p.Phi_inv.mul(LinMap.from_columns(f, psi_cols).matrix)
    if rank(S) != db:
        failures.append({"kind": "S not bijective"})
    # remark identity on all basis x in M1
    for x in range(M1.dim):
        for j in range(db):
            rhs: dict = {}
            for u in range(db):
                sparse_axpy(f, rhs, S.data[u][j], left[u][x])
            if right[j][x] != rhs:
                failures.append({"kind": "remark-identity", "pair": (x, j)})
                if len(failures) >= 3:
                    return S, CheckOutcome(False, failures)
    return S, CheckOutcome(not failures, failures)


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------


def verify_hopf_axioms(
    H: HopfStructure,
    q_scope: Optional[Matrix] = None,
    expect_involutive: bool = False,
    tower_ctx: Optional[tuple] = None,
    max_failures: int = 8,
) -> CheckOutcome:
    """All coalgebra/bialgebra/antipode axioms on all basis tuples; with a
    tower context also the exchange relation, both convolution identities,
    integrality of e2 and centrality of the Jones idempotents."""
    alg = H.algebra
    f = alg.field
    d = alg.dim
    failures = []

    def note(kind, **info):
        failures.append({"kind": kind, **info})

    ident = Matrix.identity(f, d)
    # coassociativity
    left = H.delta.kron(ident).mul(H.delta)
    right = ident.kron(H.delta).mul(H.delta)
    if not left == right:
        note("coassociativity")
    # counit laws
    if not H.counit.kron(ident).mul(H.delta) == ident:
        note("counit-left")
    if not ident.kron(H.counit).mul(H.delta) == ident:
        note("counit-right")
    # Delta is a unital algebra map
    if not vec_eq(f, H.delta.matvec(alg.unit), tensor_square_unit(alg)):
        note("delta-unital")
    for i in range(d):
        for j in range(d):
            prod = alg.to_dense(alg.table[i][j])
            lhs = H.delta.matvec(prod)
            rhs = tensor_square_mul(
                alg, H.delta.matvec(basis_vector(f, d, i)), H.delta.matvec(basis_vector(f, d, j))
            )
            if not vec_eq(f, lhs, rhs):
                note("delta-multiplicative", pair=(i, j))
                if len(failures) >= max_failures:
                    return CheckOutcome(False, failures)
    # eps is a unital algebra map
    if not f.eq(H.counit_apply(alg.unit), f.one):
        note("eps-unital")
    for i in range(d):
        for j in range(d):
            prod = alg.to_dense(alg.table[i][j])
            if not f.eq(H.counit_apply(prod), f.mul(H.counit.data[0][i], H.counit.data[0][j])):
                note("eps-multiplicative", pair=(i, j))

    if H.antipode is not None:
        S = H.antipode
        mu = alg.multiplication_matrix()
        conv_left = mu.mul(S.kron(ident)).mul(H.delta)
        conv_right = mu.mul(ident.kron(S)).mul(H.delta)
        unit_eps = Matrix(
            f, [[f.mul(alg.unit[r], H.counit.data[0][c]) for c in range(d)] for r in range(d)]
        )
        if not conv_left == unit_eps:
            note("antipode-left")
        if not conv_right == unit_eps:
            note("antipode-right")
        # S is an anti-algebra map
        if not vec_eq(f, S.matvec(alg.unit), alg.unit):
            note("antipode-unit")
        for i in range(d):
            for j in range(d):
                prod = alg.to_dense(alg.table[i][j])
                lhs = S.matvec(prod)
                rhs = alg.mul(S.matvec(basis_vector(f, d, j)), S.matvec(basis_vector(f, d, i)))
                if not vec_eq(f, lhs, rhs):
                    note("antipode-anti-multiplicative", pair=(i, j))
        # S is an anti-coalgebra map
        tw = twist_matrix(f, d)
        if not H.delta.mul(S) == tw.mul(S.kron(S)).mul(H.delta):
            note("antipode-anti-comultiplicative")
        if rank(S) != d:
            note("antipode-not-bijective")
        S2 = S.mul(S)
        if q_scope is not None:
            q_inv = invert(q_scope)
            if q_inv is None or not S2 == q_inv:
                note("antipode-squared-vs-nakayama")
        if expect_involutive and not S2 == ident:
            note("antipode-squared-not-identity")

    if tower_ctx is not None and H.antipode is not None:
        t, d2 = tower_ctx
        failures.extend(_tower_axioms(H, t, d2, max_failures - len(failures)))

    return CheckOutcome(not failures, failures)


def _tower_axioms(H: HopfStructure, t, d2, budget: int) -> list:
    """Exchange relation, both action identities, integrality and centrality.

    Every E_M1 sandwich is read from left_sandwich and right_sandwich, built
    once on the basis of M2; each left-hand side applies them to the M2 product xh yh
    itself. Elements stay sparse dicts, compared after dropping zeros.
    """
    f = t.M.field
    M1, M2 = t.M1, t.M2
    lam_inv = t.base_sys.lambda_inverse
    failures = []
    db = H.dim
    b_sp = [M2.to_sparse(b) for b in d2.B.vectors]
    # legs of Delta(b_j) with lam^-1 folded into the coefficient
    delta_legs = [[(u, v, f.mul(lam_inv, c)) for u, v, c in H.delta_coords(j)] for j in range(db)]
    incl = sparse_columns(t.incl2.matrix)
    basis = [{k: f.one} for k in range(M2.dim)]
    left, right = left_sandwich(t, d2, basis), right_sandwich(t, d2, basis)
    # on the image of M1: left_x[u][x] = E_M1(e2 x b_u), right_x[u][x] = E_M1(b_u x e2)
    left_x = [[sparse_apply(f, left[u], xh) for xh in incl] for u in range(db)]
    right_x = [[sparse_apply(f, right[u], xh) for xh in incl] for u in range(db)]

    # exchange relation: y b = lam^-1 b_(2) E_M1(e2 y b_(1))
    inner = [[sparse_apply(f, incl, v) for v in row] for row in left_x]
    for x in range(M1.dim):
        for j in range(db):
            rhs: dict = {}
            for u, v, c in delta_legs[j]:
                sparse_axpy(f, rhs, c, M2.mul_sparse(b_sp[v], inner[u][x]))
            if M2.mul_sparse(incl[x], b_sp[j]) != rhs:
                failures.append({"kind": "exchange-relation", "pair": (x, j)})
                if len(failures) >= budget:
                    return failures

    # E_M1(e2 x y b) = lam^-1 E_M1(e2 x b_(2)) E_M1(e2 y b_(1))
    for x in range(M1.dim):
        for y in range(M1.dim):
            xy = M2.mul_sparse(incl[x], incl[y])
            for j in range(db):
                rhs = {}
                for u, v, c in delta_legs[j]:
                    sparse_axpy(f, rhs, c, M1.mul_sparse(left_x[v][x], left_x[u][y]))
                if sparse_apply(f, left[j], xy) != rhs:
                    failures.append({"kind": "action-identity", "triple": (x, y, j)})
                    if len(failures) >= budget:
                        return failures
                # left version: E_M1(b x y e2) = lam^-1 E_M1(b_(1) x e2) E_M1(b_(2) y e2)
                rhs = {}
                for u, v, c in delta_legs[j]:
                    sparse_axpy(f, rhs, c, M1.mul_sparse(right_x[u][x], right_x[v][y]))
                if sparse_apply(f, right[j], xy) != rhs:
                    failures.append({"kind": "left-action-identity", "triple": (x, y, j)})
                    if len(failures) >= budget:
                        return failures

    # e2 is a two-sided integral: e2 b = eps(b) e2 = b e2
    b_vecs = d2.B.vectors
    e2_B = d2.B.coords(t.e2)
    if e2_B is None:
        failures.append({"kind": "e2-outside-B"})
        return failures
    for j in range(db):
        e2b = M2.mul(t.e2, b_vecs[j])
        be2 = M2.mul(b_vecs[j], t.e2)
        expected = vec_scale(f, H.counit.data[0][j], t.e2)
        if not vec_eq(f, e2b, expected) or not vec_eq(f, be2, expected):
            failures.append({"kind": "e2-not-integral", "basis": j})
    # centrality: e2 in Z(B), e1 in Z(A)
    for j in range(db):
        if not vec_eq(f, M2.mul(t.e2, b_vecs[j]), M2.mul(b_vecs[j], t.e2)):
            failures.append({"kind": "e2-not-central", "basis": j})
    for a in d2.A.vectors:
        if not vec_eq(f, M1.mul(t.e1, a), M1.mul(a, t.e1)):
            failures.append({"kind": "e1-not-central"})
            break
    return failures


# ---------------------------------------------------------------------------
# the dual Hopf structure on A
# ---------------------------------------------------------------------------


def dualize(p: PairingData, H_B: HopfStructure, t=None, d2=None) -> tuple[HopfStructure, CheckOutcome]:
    """Hopf structure on A dual to H_B through the pairing.

    Delta_A is built by the same dual-basis construction from B's
    multiplication; S_A is the pairing transpose of S_B. With a tower the
    integral identities of e1 are checked as well.
    """
    f = p.A_alg.field
    da = p.A_alg.dim
    # swap roles: pairing of B against A is P^T
    delta_a, eps_a, out = build_coalgebra(p.B_alg, p.A_alg, p.P.transpose())
    failures = list(out.failures)
    S_A = None
    if H_B.antipode is not None:
        # <S_A a, b> = <a, S_B b>  =>  S_A = (P S_B P^-1)^T
        S_A = p.P.mul(H_B.antipode).mul(p.P_inv).transpose()
    H_A = HopfStructure(p.A_alg, delta_a, eps_a, S_A)
    ax = verify_hopf_axioms(H_A, expect_involutive=False)
    failures.extend(ax.failures)

    # pairing compatibility in the second slot: <a, b b'> = <a_(1), b><a_(2), b'>
    db = p.B_alg.dim
    for i in range(da):
        legs = H_A.delta_coords(i)
        for u in range(db):
            for v in range(db):
                prod = p.B_alg.table[u][v]
                lhs = f.zero
                for l, c in prod.items():
                    lhs = f.add(lhs, f.mul(c, p.P.data[i][l]))
                rhs = f.zero
                for a1, a2, c in legs:
                    rhs = f.add(rhs, f.mul(c, f.mul(p.P.data[a1][u], p.P.data[a2][v])))
                if not f.eq(lhs, rhs):
                    failures.append({"kind": "dual-pairing-identity", "triple": (i, u, v)})

    if t is not None and d2 is not None:
        e1_A = d2.A.coords(t.e1)
        if e1_A is None:
            failures.append({"kind": "e1-outside-A"})
        else:
            if not f.eq(H_A.counit_apply(e1_A), f.one):
                failures.append({"kind": "eps_A(e1) != 1"})
            # e1 a = eps_A(a) e1 = a e1 (integral property in A)
            M1 = t.M1
            for i, a in enumerate(d2.A.vectors):
                expected = vec_scale(f, H_A.counit.data[0][i], t.e1)
                if not vec_eq(f, M1.mul(t.e1, a), expected) or not vec_eq(
                    f, M1.mul(a, t.e1), expected
                ):
                    failures.append({"kind": "e1-not-integral", "basis": i})
    return H_A, CheckOutcome(not failures, failures)


# ---------------------------------------------------------------------------
# abstract oracle path
# ---------------------------------------------------------------------------


def bialgebra_from_abstract_pairing(
    A_alg: Algebra,
    B_alg: Algebra,
    P: Matrix,
    antipode_candidate: Optional[Matrix] = None,
    expect_involutive: bool = True,
) -> tuple[HopfStructure, CheckOutcome]:
    """Run the same Delta/eps constructors on abstract (A, B, pairing) data.

    Used to validate the reconstruction machinery against closed forms for
    group algebras and their duals. Raises HopfError when P is singular.
    """
    if invert(P) is None:
        raise HopfError("pairing matrix is singular")
    delta, eps, out = build_coalgebra(A_alg, B_alg, P)
    H = HopfStructure(B_alg, delta, eps, antipode_candidate)
    ax = verify_hopf_axioms(
        H, expect_involutive=expect_involutive and antipode_candidate is not None
    )
    return H, CheckOutcome(out.ok and ax.ok, out.failures + ax.failures)
