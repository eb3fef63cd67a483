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

from .algebra import Algebra, SubspaceBasis
from .frobenius import CheckOutcome, scalar_of
from .linalg import LinMap, invert, rank, sparse_add, sparse_axpy, sparse_scale


class HopfError(ValueError):
    """Pairing degenerate or a structure map could not be solved."""


@dataclass
class PairingData:
    A_basis: SubspaceBasis  # inside M1 (or abstract ambient)
    B_basis: SubspaceBasis  # inside M2 (or abstract ambient)
    A_alg: Algebra
    B_alg: Algebra
    P: LinMap  # column j is <., b_j> over the basis of A: P.columns[j][i] = <a_i, b_j>
    P_inv: LinMap  # the inverse of P: column i is the b in B with <a_k, b> = [k = i]
    Phi_inv: LinMap  # inverse of b -> E_M1(e2 e1 b), B -> A in A_basis coordinates


@dataclass
class HopfStructure:
    algebra: Algebra
    delta: LinMap  # column j is Delta(b_j), b_u (x) b_v at u * dim + v
    counit: LinMap  # to a 1-dimensional space: column j is {0: eps(b_j)}
    antipode: Optional[LinMap]  # column j is S(b_j)

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def delta_coords(self, j: int) -> list[tuple[int, int, object]]:
        """Sparse legs (u, v, coefficient) of Delta(e_j)."""
        d = self.dim
        return [(row // d, row % d, c) for row, c in self.delta.columns[j].items()]

    def counit_of(self, j: int):
        """eps(b_j)."""
        return self.counit.columns[j].get(0, self.algebra.field.zero)

    def counit_apply(self, v: dict):
        return self.counit.apply(v).get(0, self.algebra.field.zero)


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
    cols: list[dict] = [{} for _ in B.vectors]
    for i, a in enumerate(A.vectors):
        ae2e1 = M2.mul_sparse(M2.mul_sparse(t.incl2.apply(a), t.e2), e1h)
        for j, b in enumerate(B.vectors):
            val = scalar_of(t.M, t.F.apply(M2.mul_sparse(ae2e1, b)))
            if val is None:
                failures.append({"kind": "F-not-scalar", "value": "a e2 e1 b"})
                return None, CheckOutcome(False, failures)
            if val:
                cols[j][i] = f.mul(lam_inv2, val)
    P = LinMap(f, cols, A.dim)
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
    phi_inv = invert(LinMap(f, cols, A.dim)) if A.dim == B.dim else None
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
    A_alg: Algebra, B_alg: Algebra, P: LinMap, P_inv: LinMap
) -> tuple[LinMap, LinMap, CheckOutcome]:
    """Delta and eps on B from the pairing P and its inverse, with the defining
    identity <a, b_(1)><a', b_(2)> = <a a', b> re-verified on all basis triples."""
    f = A_alg.field
    da, db = A_alg.dim, B_alg.dim
    zero = f.zero

    def pair(i: int, j: int):
        return P.columns[j].get(i, zero)

    def pair_with(a: dict, j: int):
        """<a, b_j> for a sparse element a of A."""
        col = P.columns[j]
        acc = zero
        for l, c in a.items():
            acc = f.add(acc, f.mul(c, col.get(l, zero)))
        return acc

    delta_cols = []
    for j in range(db):
        # coords on b_u (x) b_v: (Pinv W_j Pinv^T)[u][v] with W_j[i][k] = <a_i a_k, b_j>
        col: dict = {}
        for i in range(da):
            for k in range(da):
                w = pair_with(A_alg.table[i][k], j)
                if not w:
                    continue
                for u, pui in P_inv.columns[i].items():
                    c = f.mul(pui, w)
                    for v, pvk in P_inv.columns[k].items():
                        sparse_add(f, col, u * db + v, f.mul(c, pvk))
        delta_cols.append(dict(sorted(col.items())))  # legs in row order
    delta = LinMap(f, delta_cols, db * db)
    # eps(b) = <1_A, b>
    eps_vals = [pair_with(A_alg.unit, j) for j in range(db)]
    eps = LinMap(f, [{0: e} if e else {} for e in eps_vals], 1)

    failures = []
    for i in range(da):
        for k in range(da):
            for j in range(db):
                lhs = zero
                for row, c in delta_cols[j].items():
                    u, v = divmod(row, db)
                    lhs = f.add(lhs, f.mul(c, f.mul(pair(i, u), pair(k, v))))
                if not f.eq(lhs, pair_with(A_alg.table[i][k], j)):
                    failures.append({"kind": "pairing-identity", "triple": (i, k, j)})
                    if len(failures) >= 3:
                        return delta, eps, CheckOutcome(False, failures)
    return delta, eps, CheckOutcome(not failures, failures)


def comultiplication(p: PairingData, t=None, d2=None) -> tuple[LinMap, LinMap, CheckOutcome]:
    """Delta and eps on B; with a tower also cross-checks eps(b) = lam^-1 F(b e2),
    Delta(1) = 1 (x) 1 and multiplicativity of eps."""
    f = p.B_alg.field
    delta, eps, out = build_coalgebra(p.A_alg, p.B_alg, p.P, p.P_inv)
    H = HopfStructure(p.B_alg, delta, eps, None)
    failures = list(out.failures)
    db = p.B_alg.dim
    # Delta(1) = 1 (x) 1
    if delta.apply(p.B_alg.unit) != tensor_square_unit(p.B_alg):
        failures.append({"kind": "delta-unit"})
    # eps multiplicative
    for i in range(db):
        for j in range(db):
            lhs = H.counit_apply(p.B_alg.table[i][j])
            rhs = f.mul(H.counit_of(i), H.counit_of(j))
            if not f.eq(lhs, rhs):
                failures.append({"kind": "eps-multiplicative", "pair": (i, j)})
    if t is not None and d2 is not None:
        lam_inv = t.base_sys.lambda_inverse
        for j, b in enumerate(d2.B.vectors):
            val = scalar_of(t.M, t.F.apply(t.M2.mul_sparse(b, t.e2)))
            if val is None or not f.eq(f.mul(lam_inv, val), H.counit_of(j)):
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


def antipode(t, d2, p: PairingData, sandwiches: tuple) -> tuple[Optional[LinMap], CheckOutcome]:
    """S = Phi^-1 Psi with Phi(b) = E_M1(e2 e1 b), Psi(b) = E_M1(b e1 e2);
    verifies E_M1(b x e2) = E_M1(e2 x S(b)) for every basis x in M1.

    Phi^-1 is the one compute_pairing built and checked bijective. Psi and
    both sides of the identity are read from the sandwich maps at e1 and at
    the image of the basis of M1; the right-hand side is
    sum_u S_uj E_M1(e2 x b_u), exact by linearity in the right factor.
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
    S = p.Phi_inv.compose(LinMap(f, psi_cols, p.A_basis.dim))
    if rank(S) != db:
        failures.append({"kind": "S not bijective"})
    # remark identity on all basis x in M1
    left_x = [[left[u].apply(xh) for xh in incl] for u in range(db)]
    for x in range(M1.dim):
        for j in range(db):
            rhs: dict = {}
            for u, c in S.columns[j].items():
                sparse_axpy(f, rhs, c, left_x[u][x])
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
    q_scope: Optional[LinMap] = None,
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

    one = f.one
    delta = H.delta
    legs = [H.delta_coords(i) for i in range(d)]

    def along_delta(term):
        """b_i -> sum of c term(u, v) over the legs (u, v, c) of Delta(b_i)."""
        def image(i: int) -> dict:
            out: dict = {}
            for u, v, c in legs[i]:
                for key, val in term(u, v).items():
                    sparse_add(f, out, key, f.mul(c, val))
            return out
        return image

    def holds(lhs, rhs) -> bool:
        """lhs(b_i) = rhs(b_i) on every basis element."""
        return all(lhs(i) == rhs(i) for i in range(d))

    def basis(i: int) -> dict:
        return {i: one}

    # coassociativity, b_x (x) b_y (x) b_z at (x dim + y) dim + z
    if not holds(along_delta(lambda u, v: {(x * d + y) * d + v: c for x, y, c in legs[u]}),
                 along_delta(lambda u, v: {(u * d + x) * d + y: c for x, y, c in legs[v]})):
        note("coassociativity")
    # counit laws
    if not holds(along_delta(lambda u, v: {v: H.counit_of(u)}), basis):
        note("counit-left")
    if not holds(along_delta(lambda u, v: {u: H.counit_of(v)}), basis):
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
            if not f.eq(H.counit_apply(alg.table[i][j]), f.mul(H.counit_of(i), H.counit_of(j))):
                note("eps-multiplicative", pair=(i, j))

    if H.antipode is not None:
        S = H.antipode
        s_cols = S.columns

        def unit_eps(i: int) -> dict:
            return sparse_scale(f, H.counit_of(i), alg.unit)

        # both convolution identities S * id = eps 1 = id * S
        if not holds(along_delta(lambda u, v: alg.mul_sparse(s_cols[u], {v: one})), unit_eps):
            note("antipode-left")
        if not holds(along_delta(lambda u, v: alg.mul_sparse({u: one}, s_cols[v])), unit_eps):
            note("antipode-right")
        # S is an anti-algebra map
        if S.apply(alg.unit) != alg.unit:
            note("antipode-unit")
        for i in range(d):
            for j in range(d):
                lhs = S.apply(alg.table[i][j])
                if lhs != alg.mul_sparse(s_cols[j], s_cols[i]):
                    note("antipode-anti-multiplicative", pair=(i, j))
        # S is an anti-coalgebra map: Delta S = twist (S (x) S) Delta
        twisted = along_delta(lambda u, v: {
            x * d + y: f.mul(a, b) for x, a in s_cols[v].items() for y, b in s_cols[u].items()
        })
        if not holds(lambda i: delta.apply(s_cols[i]), twisted):
            note("antipode-anti-comultiplicative")
        if rank(S) != d:
            note("antipode-not-bijective")
        S2 = S.compose(S)
        if q_scope is not None:
            q_inv = invert(q_scope)
            if q_inv is None or S2 != q_inv:
                note("antipode-squared-vs-nakayama")
        if expect_involutive and S2 != LinMap.identity(f, d):
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
        expected = sparse_scale(f, H.counit_of(j), t.e2)
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
    # swap roles: pairing of B against A is P^T; its column i is <a_i, .>
    p_rows = p.P.transpose()
    delta_a, eps_a, out = build_coalgebra(p.B_alg, p.A_alg, p_rows, p.P_inv.transpose())
    failures = list(out.failures)
    S_A = None
    if H_B.antipode is not None:
        # <S_A a, b> = <a, S_B b>  =>  S_A = (P S_B P^-1)^T
        S_A = p.P.compose(H_B.antipode).compose(p.P_inv).transpose()
    H_A = HopfStructure(p.A_alg, delta_a, eps_a, S_A)
    ax = verify_hopf_axioms(H_A, expect_involutive=False)
    failures.extend(ax.failures)

    # pairing compatibility in the second slot: <a, b b'> = <a_(1), b><a_(2), b'>
    db = p.B_alg.dim
    zero = f.zero
    for i in range(da):
        legs = H_A.delta_coords(i)
        for u in range(db):
            for v in range(db):
                prod = p.B_alg.table[u][v]
                lhs = zero
                for l, c in prod.items():
                    lhs = f.add(lhs, f.mul(c, p_rows.columns[i].get(l, zero)))
                rhs = zero
                for a1, a2, c in legs:
                    pair_u = p_rows.columns[a1].get(u, zero)
                    rhs = f.add(rhs, f.mul(c, f.mul(pair_u, p_rows.columns[a2].get(v, zero))))
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
                expected = sparse_scale(f, H_A.counit_of(i), t.e1)
                if M1.mul_sparse(t.e1, a) != expected or M1.mul_sparse(a, t.e1) != expected:
                    failures.append({"kind": "e1-not-integral", "basis": i})
    return H_A, CheckOutcome(not failures, failures)


# ---------------------------------------------------------------------------
# abstract oracle path
# ---------------------------------------------------------------------------


def bialgebra_from_abstract_pairing(
    A_alg: Algebra,
    B_alg: Algebra,
    P: LinMap,
    antipode_candidate: Optional[LinMap] = None,
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
