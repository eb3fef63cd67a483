"""Duality pairing on the second centralizers and Hopf structure recovery.

The pairing <a, b> = lam^-2 F(a e2 e1 b) transfers the multiplication of A to
a comultiplication on B through dual bases; the antipode comes from the two
one-sided maps b -> E_M1(e2 e1 b) and b -> E_M1(b e1 e2). Every derived
structure map is re-verified against its defining identity on all basis
tuples, which also makes the construction basis-independent in practice.

The tower identities (antipode remark, exchange relation, both action
identities) and the B-action on M1 are read from the sandwich maps
z -> E_M1(e2 z b_j) and z -> E_M1(b_j z e2), built once per pipeline run as
maps on the basis of M2 (sandwich_maps) and applied to each element where it
is needed: the image of M1 under incl2, e1, or a product in M2. This is
exact: the product is bilinear in the structure constants and E_M1 is
linear, so each value equals the one formed by multiplying at that point.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import Algebra, LinMap, SubspaceBasis
from .frobenius import CheckOutcome, scalar_of
from .linalg import Matrix, invert, rank, sparse_add, sparse_axpy, sparse_scale


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

    def counit_apply(self, v: dict):
        f = self.algebra.field
        eps = self.counit.data[0]
        acc = f.zero
        for k, c in v.items():
            acc = f.add(acc, f.mul(eps[k], c))
        return acc


# ---------------------------------------------------------------------------
# tensor-square helpers
# ---------------------------------------------------------------------------


def tensor_square_mul(alg: Algebra, v: dict, w: dict) -> dict:
    """(x (x) y)(x' (x) y') componentwise in alg (x) alg coordinates."""
    f = alg.field
    d = alg.dim
    out: dict = {}
    for pq, cv in v.items():
        p, q = divmod(pq, d)
        for rs, cw in w.items():
            r, s = divmod(rs, d)
            c = f.mul(cv, cw)
            right = alg.table[q][s]
            for k, ck in alg.table[p][r].items():
                for l, cl in right.items():
                    sparse_add(f, out, k * d + l, f.mul(c, f.mul(ck, cl)))
    return out


def tensor_square_unit(alg: Algebra) -> dict:
    f = alg.field
    d = alg.dim
    return {i * d + j: f.mul(a, b) for i, a in alg.unit.items() for j, b in alg.unit.items()}


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
        ae2e1 = M2.mul_sparse(M2.mul_sparse(t.incl2.apply(a), t.e2), e1h)
        row = []
        for b in B.vectors:
            val = scalar_of(t.M, t.F.apply(M2.mul_sparse(ae2e1, b)))
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
    e2e1 = M2.mul_sparse(t.e2, e1h)
    for b in B.vectors:
        coords = A.coords(t.E_M1.apply(M2.mul_sparse(e2e1, b)))
        if coords is None:
            failures.append({"kind": "E_M1(e2 e1 b) outside A"})
            return None, CheckOutcome(False, failures)
        cols.append(coords)
    phi_inv = invert(LinMap(f, cols, A.dim).matrix) if A.dim == B.dim else None
    if phi_inv is None:
        failures.append({"kind": "B-to-A map not bijective"})
        return None, CheckOutcome(False, failures)

    A_alg, _ = A.induced_algebra()
    B_alg, _ = B.induced_algebra()
    return PairingData(A, B, A_alg, B_alg, P, P_inv, phi_inv), CheckOutcome(True, [])


# ---------------------------------------------------------------------------
# coalgebra structure through dual bases
# ---------------------------------------------------------------------------


def build_coalgebra(
    A_alg: Algebra, B_alg: Algebra, P: Matrix, P_inv: Matrix
) -> tuple[Matrix, Matrix, CheckOutcome]:
    """Delta and eps on B from the pairing P and its inverse, with the defining
    identity <a, b_(1)><a', b_(2)> = <a a', b> re-verified on all basis triples."""
    f = A_alg.field
    da, db = A_alg.dim, B_alg.dim
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
        for l, c in A_alg.unit.items():
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
    delta, eps, out = build_coalgebra(p.A_alg, p.B_alg, p.P, p.P_inv)
    H = HopfStructure(p.B_alg, delta, eps, None)
    failures = list(out.failures)
    db = p.B_alg.dim
    # Delta(1) = 1 (x) 1
    if LinMap.from_matrix(delta).apply(p.B_alg.unit) != tensor_square_unit(p.B_alg):
        failures.append({"kind": "delta-unit"})
    # eps multiplicative
    for i in range(db):
        for j in range(db):
            lhs = H.counit_apply(p.B_alg.table[i][j])
            rhs = f.mul(eps.data[0][i], eps.data[0][j])
            if not f.eq(lhs, rhs):
                failures.append({"kind": "eps-multiplicative", "pair": (i, j)})
    if t is not None and d2 is not None:
        lam_inv = t.base_sys.lambda_inverse
        for j, b in enumerate(d2.B.vectors):
            val = scalar_of(t.M, t.F.apply(t.M2.mul_sparse(b, t.e2)))
            if val is None or not f.eq(f.mul(lam_inv, val), eps.data[0][j]):
                failures.append({"kind": "eps-vs-F(be2)", "basis": j})
    return delta, eps, CheckOutcome(not failures, failures)


# ---------------------------------------------------------------------------
# the antipode
# ---------------------------------------------------------------------------


def sandwich_maps(t, d2) -> tuple[list, list]:
    """(left, right): for each basis element b_j of B, the maps
    left[j]: z -> E_M1(e2 z b_j) and right[j]: z -> E_M1(b_j z e2) from M2 to M1,
    built once on the basis of M2.

    Applying them anywhere is exact: the product is bilinear in the structure
    constants and E_M1 is linear, so no associativity and no multiplicativity
    of incl2 is assumed.
    """
    f = t.M.field
    M2 = t.M2
    cond = t.E_M1
    e2 = t.e2
    e2z = [M2.mul_sparse(e2, {k: f.one}) for k in range(M2.dim)]
    left, right = [], []
    for b in d2.B.vectors:
        left.append(LinMap(f, [cond.apply(M2.mul_sparse(ez, b)) for ez in e2z], cond.codomain_dim))
        bz = [M2.mul_sparse(b, {k: f.one}) for k in range(M2.dim)]
        right.append(LinMap(f, [cond.apply(M2.mul_sparse(z, e2)) for z in bz], cond.codomain_dim))
    return left, right


def antipode(t, d2, p: PairingData, sandwiches: tuple) -> tuple[Optional[Matrix], CheckOutcome]:
    """S = Phi^-1 Psi with Phi(b) = E_M1(e2 e1 b), Psi(b) = E_M1(b e1 e2);
    verifies E_M1(b x e2) = E_M1(e2 x S(b)) for every basis x in M1.

    Phi^-1 is the one compute_pairing built and checked bijective. Psi and
    both sides of the identity are read from the sandwich maps at e1 and at
    the image of the basis of M1; the right-hand side is
    sum_u S[u][j] E_M1(e2 x b_u), exact by linearity in the right factor.
    """
    f = t.M.field
    M1 = t.M1
    db = d2.B.dim
    left, right = sandwiches
    incl = t.incl2.columns
    e1h = t.e1_in_m2()
    failures = []
    psi_cols = []
    for j in range(db):
        coords = p.A_basis.coords(right[j].apply(e1h))
        if coords is None:
            return None, CheckOutcome(False, [{"kind": "Psi image outside A"}])
        psi_cols.append(coords)
    S = p.Phi_inv.mul(LinMap(f, psi_cols, p.A_basis.dim).matrix)
    if rank(S) != db:
        failures.append({"kind": "S not bijective"})
    # remark identity on all basis x in M1
    left_x = [[left[u].apply(xh) for xh in incl] for u in range(db)]
    for x in range(M1.dim):
        for j in range(db):
            rhs: dict = {}
            for u in range(db):
                sparse_axpy(f, rhs, S.data[u][j], left_x[u][x])
            if right[j].apply(incl[x]) != rhs:
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
    delta = LinMap.from_matrix(H.delta)  # delta.columns[i] = Delta(b_i)
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
    if delta.apply(alg.unit) != tensor_square_unit(alg):
        note("delta-unital")
    for i in range(d):
        for j in range(d):
            lhs = delta.apply(alg.table[i][j])
            if lhs != tensor_square_mul(alg, delta.columns[i], delta.columns[j]):
                note("delta-multiplicative", pair=(i, j))
                if len(failures) >= max_failures:
                    return CheckOutcome(False, failures)
    # eps is a unital algebra map
    if not f.eq(H.counit_apply(alg.unit), f.one):
        note("eps-unital")
    for i in range(d):
        for j in range(d):
            if not f.eq(H.counit_apply(alg.table[i][j]), f.mul(H.counit.data[0][i], H.counit.data[0][j])):
                note("eps-multiplicative", pair=(i, j))

    if H.antipode is not None:
        S = H.antipode
        mu = alg.multiplication_matrix()
        conv_left = mu.mul(S.kron(ident)).mul(H.delta)
        conv_right = mu.mul(ident.kron(S)).mul(H.delta)
        unit_eps = LinMap(f, [sparse_scale(f, e, alg.unit) for e in H.counit.data[0]], d).matrix
        if not conv_left == unit_eps:
            note("antipode-left")
        if not conv_right == unit_eps:
            note("antipode-right")
        # S is an anti-algebra map
        s_map = LinMap.from_matrix(S)
        if s_map.apply(alg.unit) != alg.unit:
            note("antipode-unit")
        for i in range(d):
            for j in range(d):
                lhs = s_map.apply(alg.table[i][j])
                if lhs != alg.mul_sparse(s_map.columns[j], s_map.columns[i]):
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
        t, d2, sandwiches = tower_ctx
        failures.extend(_tower_axioms(H, t, d2, sandwiches, max_failures - len(failures)))

    return CheckOutcome(not failures, failures)


def _tower_axioms(H: HopfStructure, t, d2, sandwiches: tuple, budget: int) -> list:
    """Exchange relation, both action identities, integrality and centrality.

    Every E_M1 sandwich is read from the sandwich maps built once on the basis
    of M2; each left-hand side applies them to the M2 product xh yh itself.
    """
    f = t.M.field
    M1, M2 = t.M1, t.M2
    lam_inv = t.base_sys.lambda_inverse
    failures = []
    db = H.dim
    b_sp = d2.B.vectors
    # legs of Delta(b_j) with lam^-1 folded into the coefficient
    delta_legs = [[(u, v, f.mul(lam_inv, c)) for u, v, c in H.delta_coords(j)] for j in range(db)]
    incl = t.incl2.columns
    left, right = sandwiches
    # on the image of M1: left_x[u][x] = E_M1(e2 x b_u), right_x[u][x] = E_M1(b_u x e2)
    left_x = [[left[u].apply(xh) for xh in incl] for u in range(db)]
    right_x = [[right[u].apply(xh) for xh in incl] for u in range(db)]

    # exchange relation: y b = lam^-1 b_(2) E_M1(e2 y b_(1))
    inner = [[t.incl2.apply(v) for v in row] for row in left_x]
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
                if left[j].apply(xy) != rhs:
                    failures.append({"kind": "action-identity", "triple": (x, y, j)})
                    if len(failures) >= budget:
                        return failures
                # left version: E_M1(b x y e2) = lam^-1 E_M1(b_(1) x e2) E_M1(b_(2) y e2)
                rhs = {}
                for u, v, c in delta_legs[j]:
                    sparse_axpy(f, rhs, c, M1.mul_sparse(right_x[u][x], right_x[v][y]))
                if right[j].apply(xy) != rhs:
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
        e2b = M2.mul_sparse(t.e2, b_vecs[j])
        be2 = M2.mul_sparse(b_vecs[j], t.e2)
        expected = sparse_scale(f, H.counit.data[0][j], t.e2)
        if e2b != expected or be2 != expected:
            failures.append({"kind": "e2-not-integral", "basis": j})
    # centrality: e2 in Z(B), e1 in Z(A)
    for j in range(db):
        if M2.mul_sparse(t.e2, b_vecs[j]) != M2.mul_sparse(b_vecs[j], t.e2):
            failures.append({"kind": "e2-not-central", "basis": j})
    for a in d2.A.vectors:
        if M1.mul_sparse(t.e1, a) != M1.mul_sparse(a, t.e1):
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
    delta_a, eps_a, out = build_coalgebra(p.B_alg, p.A_alg, p.P.transpose(), p.P_inv.transpose())
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
                expected = sparse_scale(f, H_A.counit.data[0][i], t.e1)
                if M1.mul_sparse(t.e1, a) != expected or M1.mul_sparse(a, t.e1) != expected:
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
    P_inv = invert(P)
    if P_inv is None:
        raise HopfError("pairing matrix is singular")
    delta, eps, out = build_coalgebra(A_alg, B_alg, P, P_inv)
    H = HopfStructure(B_alg, delta, eps, antipode_candidate)
    ax = verify_hopf_axioms(
        H, expect_involutive=expect_involutive and antipode_candidate is not None
    )
    return H, CheckOutcome(out.ok and ax.ok, out.failures + ax.failures)
