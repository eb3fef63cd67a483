"""Duality pairing on the second centralizers and Hopf structure recovery.

The pairing <a, b> = lam^-2 F(a e2 e1 b) transfers the multiplication of A to
a comultiplication on B through dual bases; the antipode comes from the two
one-sided maps b -> E_M1(e2 e1 b) and b -> E_M1(b e1 e2). Every derived
structure map is re-verified against its defining identity on all basis
tuples, which also makes the construction basis-independent in practice; the
two action identities, whose solutions in their second factor form a
subalgebra of M1, on generators of M1, and the exchange relation, whose
solutions form a right M-submodule of M1, on module generators of M1, once
the checks they rest on hold.

The tower identities (antipode remark, exchange relation, both action
identities) and the B-action on M1 are read from the sandwich maps
z -> E_M1(e2 z b_j) and z -> E_M1(b_j z e2), built once per pipeline run as
maps on the basis of M2 (sandwich_maps) and applied to each element where it
is needed: the image of M1 under incl2, e1, or a product in M2. This is
exact: the product is bilinear in the structure constants and E_M1 is
linear, so each value equals the one formed by multiplying at that point.

Every law written with the coproduct is a Sweedler sum
sum term(h_(1), h_(2)) over the legs of Delta(b_j) (Montgomery, Hopf Algebras
and Their Actions on Rings, CBMS 82, ch. 1): HopfStructure.sweedler forms it,
here and in galois, and is the one reader of delta_coords.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .algebra import WITNESS_FAILURES, Algebra, CheckOutcome, law_failures, tensor_algebra
from .frobenius import scalar_of
from .linalg import LinMap, invert, rank, sparse_add, sparse_axpy, sparse_scale


class HopfError(ValueError):
    """Pairing degenerate or a structure map could not be solved."""


@dataclass
class PairingData:
    A_alg: Algebra
    B_alg: Algebra
    P: LinMap  # column j is <., b_j> over the basis of A: P.columns[j][i] = <a_i, b_j>
    P_inv: LinMap  # the inverse of P: column i is the b in B with <a_k, b> = [k = i]
    Phi_inv: LinMap  # inverse of b -> E_M1(e2 e1 b), B -> A in the coordinates of d2.A


@dataclass
class HopfStructure:
    algebra: Algebra
    delta: LinMap  # column j is Delta(b_j), b_u (x) b_v at u * dim + v
    counit: LinMap  # to a 1-dimensional space: column j is {0: eps(b_j)}
    antipode: Optional[LinMap]  # column j is S(b_j)
    _legs: Optional[list] = field(default=None, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def delta_coords(self, j: int) -> list[tuple[int, int, object]]:
        """Sparse legs (u, v, coefficient) of Delta(e_j)."""
        d = self.dim
        return [(row // d, row % d, c) for row, c in self.delta.columns[j].items()]

    def sweedler(self, j: int, term: Callable[[int, int], dict]) -> dict:
        """The Sweedler sum sum c term(u, v) over the legs (u, v, c) of
        Delta(b_j), for term(u, v) a sparse vector; the legs are read once."""
        if self._legs is None:
            self._legs = [self.delta_coords(i) for i in range(self.dim)]
        f = self.algebra.field
        out: dict = {}
        for u, v, c in self._legs[j]:
            sparse_axpy(f, out, c, term(u, v))
        return out

    def counit_of(self, j: int):
        """eps(b_j)."""
        return self.counit.columns[j].get(0, self.algebra.field.zero)

    def counit_apply(self, v: dict):
        return self.counit.apply(v).get(0, self.algebra.field.zero)


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
    return PairingData(A_alg, B_alg, P, P_inv, phi_inv), CheckOutcome(True, [])


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
                w = pair_with(A_alg.cell(i, k), j)
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
                if not f.eq(lhs, pair_with(A_alg.cell(i, k), j)):
                    failures.append({"kind": "pairing-identity", "triple": (i, k, j)})
                    if len(failures) >= WITNESS_FAILURES:
                        return delta, eps, CheckOutcome(False, failures)
    return delta, eps, CheckOutcome(not failures, failures)


def comultiplication(p: PairingData, t, d2) -> tuple[LinMap, LinMap, CheckOutcome]:
    """Delta and eps on B, cross-checked against the tower t: eps(b) = lam^-1 F(b e2),
    Delta(1) = 1 (x) 1 and multiplicativity of eps."""
    f = p.B_alg.field
    delta, eps, out = build_coalgebra(p.A_alg, p.B_alg, p.P, p.P_inv)
    H = HopfStructure(p.B_alg, delta, eps, None)
    failures = list(out.failures)
    db = p.B_alg.dim
    # Delta(1) = 1 (x) 1
    if delta.apply(p.B_alg.unit) != tensor_algebra(p.B_alg).unit:
        failures.append({"kind": "delta-unit"})
    # eps multiplicative
    for i in range(db):
        for j in range(db):
            lhs = H.counit_apply(p.B_alg.cell(i, j))
            rhs = f.mul(H.counit_of(i), H.counit_of(j))
            if not f.eq(lhs, rhs):
                failures.append({"kind": "eps-multiplicative", "pair": (i, j)})
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
        coords = d2.A.coords(right[j].apply(e1h))
        if coords is None:
            return None, CheckOutcome(False, [{"kind": "Psi image outside A"}])
        psi_cols.append(coords)
    S = p.Phi_inv.compose(LinMap(f, psi_cols, d2.A.dim))
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
                if len(failures) >= WITNESS_FAILURES:
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
) -> CheckOutcome:
    """All coalgebra/bialgebra/antipode axioms on all basis tuples; with a
    tower context also the exchange relation, both action identities,
    integrality of e2 and centrality of the Jones idempotents.

    The action identities run their second factor y over 1 and the
    generators of M1 (see _tower_axioms) while nothing above has failed and
    level 2 of the tower is verified; else over the basis of M1. Under the
    same gate, and once B commutes with incl(S_M) (a designated B need not
    be a centralizer), the exchange relation runs over level 1's G_R."""
    alg = H.algebra
    f = alg.field
    d = alg.dim
    failures = []

    def note(kind, **info):
        failures.append({"kind": kind, **info})

    one = f.one
    delta = H.delta

    def holds(term, rhs) -> bool:
        """sum term(b_i(1), b_i(2)) = rhs(b_i) on every basis element."""
        return all(H.sweedler(i, term) == rhs(i) for i in range(d))

    def basis(i: int) -> dict:
        return {i: one}

    # coassociativity, b_x (x) b_y (x) b_z at (x dim + y) dim + z
    if not holds(lambda u, v: {row * d + v: c for row, c in delta.columns[u].items()},
                 lambda i: H.sweedler(i, lambda u, v: {u * d * d + row: c for row, c in delta.columns[v].items()})):
        note("coassociativity")
    # counit laws
    if not holds(lambda u, v: {v: H.counit_of(u)}, basis):
        note("counit-left")
    if not holds(lambda u, v: {u: H.counit_of(v)}, basis):
        note("counit-right")
    # Delta is a unital algebra map
    square = tensor_algebra(alg)
    if delta.apply(alg.unit) != square.unit:
        note("delta-unital")
    for i in range(d):
        for j in range(d):
            lhs = delta.apply(alg.cell(i, j))
            if lhs != square.mul_sparse(delta.columns[i], delta.columns[j]):
                note("delta-multiplicative", pair=(i, j))
                if len(failures) >= WITNESS_FAILURES:
                    return CheckOutcome(False, failures)
    # eps is a unital algebra map
    if not f.eq(H.counit_apply(alg.unit), f.one):
        note("eps-unital")
    for i in range(d):
        for j in range(d):
            if not f.eq(H.counit_apply(alg.cell(i, j)), f.mul(H.counit_of(i), H.counit_of(j))):
                note("eps-multiplicative", pair=(i, j))
                if len(failures) >= WITNESS_FAILURES:
                    return CheckOutcome(False, failures)

    if H.antipode is not None:
        S = H.antipode
        s_cols = S.columns

        def unit_eps(i: int) -> dict:
            return sparse_scale(f, H.counit_of(i), alg.unit)

        # both convolution identities S * id = eps 1 = id * S
        if not holds(lambda u, v: alg.mul_sparse(s_cols[u], {v: one}), unit_eps):
            note("antipode-left")
        if not holds(lambda u, v: alg.mul_sparse({u: one}, s_cols[v]), unit_eps):
            note("antipode-right")
        # S is an anti-algebra map
        if S.apply(alg.unit) != alg.unit:
            note("antipode-unit")
        for i in range(d):
            for j in range(d):
                lhs = S.apply(alg.cell(i, j))
                if lhs != alg.mul_sparse(s_cols[j], s_cols[i]):
                    note("antipode-anti-multiplicative", pair=(i, j))
                    if len(failures) >= WITNESS_FAILURES:
                        return CheckOutcome(False, failures)
        # S is an anti-coalgebra map: Delta S = twist (S (x) S) Delta
        if not holds(lambda u, v: {x * d + y: f.mul(a, b) for x, a in s_cols[v].items() for y, b in s_cols[u].items()},
                     lambda i: delta.apply(s_cols[i])):
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

    if tower_ctx is not None and H.antipode is not None and len(failures) < WITNESS_FAILURES:
        t, d2, sandwiches = tower_ctx
        y_generators = x_generators = None
        if not failures and t.levels[1].verified:
            y_generators = [t.M1.unit] + t.levels[0].generators
            m_in_m2 = [t.incl2.apply(g) for g in t.levels[0].incl_generators]
            if all(t.M2.commutes(b, m) for b in d2.B.vectors for m in m_in_m2):
                x_generators = t.levels[0].module_generators()[1]
        failures.extend(_tower_axioms(H, t, d2, sandwiches, y_generators, x_generators))

    return CheckOutcome(not failures, failures)


def _tower_axioms(H: HopfStructure, t, d2, sandwiches: tuple, y_generators: Optional[list] = None,
                  x_generators: Optional[list] = None) -> list:
    """Exchange relation, both action identities, integrality and centrality.

    Every E_M1 sandwich is read from the sandwich maps built once on the basis
    of M2; each left-hand side applies them to the M2 product xh yh itself.

    Given x_generators, elements G_R of M1 with span(G_R . incl1(M)) = M1
    (pass them only once M1, M2 and both inclusions are verified and B
    commutes with incl2(incl1(S_M))), the exchange relation is first checked
    for y in them alone. Its solutions y form a right M-submodule: with B
    commuting with M and E_M1 an M1-bimodule map, y m b = y b m and
    E_M1(e2 y m b_(1)) = E_M1(e2 y b_(1)) m.

    Given y_generators, elements of M1 holding 1 whose words span M1 (pass
    them only once M1, M2 and incl2 are verified and Delta coassociative),
    the action identities are first checked for y in them alone. With
    h . x = E_M1(e2 x h), the y with h . (xy) = lam^-1 (h_(2) . x)(h_(1) . y)
    for all x and h form a subalgebra: for such y, y',
    h . (x y y') = lam^-2 (h_(2)(2) . x)(h_(2)(1) . y)(h_(1) . y'), which is
    lam^-1 (h_(2) . x)(h_(1) . (y y')) by coassociativity; likewise for the
    other identity.
    """
    f = t.M.field
    M1, M2 = t.M1, t.M2
    lam_inv = t.base_sys.lambda_inverse
    db = H.dim
    b_sp = d2.B.vectors
    incl = t.incl2.columns
    left, right = sandwiches
    # on the image of M1: left_x[u][x] = E_M1(e2 x b_u), right_x[u][x] = E_M1(b_u x e2)
    left_x = [[left[u].apply(xh) for xh in incl] for u in range(db)]
    right_x = [[right[u].apply(xh) for xh in incl] for u in range(db)]

    def exchange_failures(ys: list):
        """The failures of y b = lam^-1 b_(2) incl2(E_M1(e2 y b_(1))), in loop
        order, for each (incl2(y), [incl2(E_M1(e2 y b_u))]) in ys and every b_j."""
        for y, (yh, inner) in enumerate(ys):
            for j in range(db):
                rhs = sparse_scale(f, lam_inv, H.sweedler(j, lambda u, v: M2.mul_sparse(b_sp[v], inner[u])))
                if M2.mul_sparse(yh, b_sp[j]) != rhs:
                    yield {"kind": "exchange-relation", "pair": (y, j)}

    def exchange_factor(yh: dict) -> tuple:
        return yh, [t.incl2.apply(m.apply(yh)) for m in left]

    failures = law_failures(
        exchange_failures, None if x_generators is None else [exchange_factor(t.incl2.apply(y)) for y in x_generators],
        lambda: [(incl[x], [t.incl2.apply(row[x]) for row in left_x]) for x in range(M1.dim)])
    if len(failures) >= WITNESS_FAILURES:
        return failures

    def action_failures(ys: list):
        """The failures of both identities, in loop order, for every basis x
        and each (incl2(y), [E_M1(e2 y b_u)], [E_M1(b_u y e2)]) in ys."""
        for x in range(M1.dim):
            for y, (yh, left_y, right_y) in enumerate(ys):
                xy = M2.mul_sparse(incl[x], yh)
                for j in range(db):
                    # E_M1(e2 x y b) = lam^-1 E_M1(e2 x b_(2)) E_M1(e2 y b_(1))
                    rhs = sparse_scale(f, lam_inv, H.sweedler(j, lambda u, v: M1.mul_sparse(left_x[v][x], left_y[u])))
                    if left[j].apply(xy) != rhs:
                        yield {"kind": "action-identity", "triple": (x, y, j)}
                    # left version: E_M1(b x y e2) = lam^-1 E_M1(b_(1) x e2) E_M1(b_(2) y e2)
                    rhs = sparse_scale(f, lam_inv, H.sweedler(j, lambda u, v: M1.mul_sparse(right_x[u][x], right_y[v])))
                    if right[j].apply(xy) != rhs:
                        yield {"kind": "left-action-identity", "triple": (x, y, j)}

    def images(yh: dict) -> tuple:
        return yh, [m.apply(yh) for m in left], [m.apply(yh) for m in right]

    failures += law_failures(
        action_failures, None if y_generators is None else [images(t.incl2.apply(y)) for y in y_generators],
        lambda: [(incl[y], [row[y] for row in left_x], [row[y] for row in right_x]) for y in range(M1.dim)])
    if len(failures) >= WITNESS_FAILURES:
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


def dualize(p: PairingData, H_B: HopfStructure, t, d2) -> tuple[HopfStructure, CheckOutcome]:
    """Hopf structure on A dual to H_B through the pairing.

    Delta_A is built by the same dual-basis construction from B's
    multiplication, which re-verifies <a, b b'> = <a_(1), b><a_(2), b'> on
    all basis triples; S_A is the pairing transpose of S_B. The integral
    identities of e1 in the tower t are checked as well.
    """
    f = p.A_alg.field
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
) -> tuple[HopfStructure, CheckOutcome]:
    """Run the same Delta/eps constructors on abstract (A, B, pairing) data.

    Used to validate the reconstruction machinery against closed forms for
    group algebras and their duals, whose antipodes are involutive: a given
    antipode_candidate is checked to square to the identity. Raises HopfError
    when P is not square or singular.
    """
    if P.codomain_dim != len(P.columns):
        raise HopfError("pairing matrix is not square")
    P_inv = invert(P)
    if P_inv is None:
        raise HopfError("pairing matrix is singular")
    delta, eps, out = build_coalgebra(A_alg, B_alg, P, P_inv)
    H = HopfStructure(B_alg, delta, eps, antipode_candidate)
    ax = verify_hopf_axioms(H, expect_involutive=antipode_candidate is not None)
    return H, CheckOutcome(out.ok and ax.ok, out.failures + ax.failures)
