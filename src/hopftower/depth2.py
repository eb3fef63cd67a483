"""Second centralizers, depth-2 tests and the structure of C.

The depth-2 condition at a level asks for orthogonal dual bases (z_i, w_i)
of the conditional expectation inside the relevant centralizer (A at level 1,
B at level 2). Each level takes one route with no tuning knob:

1. dimension count: n0 = dim up / dim down must be an integer and at most
   the dimension of the centralizer;
2. the dual-bases tensor system on the centralizer square, assembled from the
   defining equations and solved from scratch; if it is inconsistent the
   level fails, since any verified witness sum z_i (x) w_i would solve it;
3. one witness: a free module basis z (the centralizer basis itself when its
   dimension is n0, else greedy combinations of that basis from a fixed
   integer recurrence), then w from the linear system E(w_i z_j) = delta_ij 1;
4. exact verification of every defining equation of the witness.

A level passes only on a verified witness, and the two paths agree when the
verdict equals the solvability of the tensor system.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import Algebra, LinMap, SubspaceBasis, centralizer
from .frobenius import CheckOutcome, nakayama, nakayama_of_functional, scalar_of
from .linalg import SparseSolver, invert, rank, solve, sparse_add, sparse_axpy, sparse_scale


@dataclass
class DepthTwoLevelVerdict:
    level: int
    passed: bool
    n0: Optional[int]
    reason: Optional[str]
    z: Optional[list]  # upper-level elements
    w: Optional[list]
    tensor_solvable: Optional[bool]  # independent brute-force path
    paths_agree: Optional[bool]
    # dim scope == n0: the free basis is the scope basis itself and w is the
    # inverse Gram solve (report key gram_route)
    gram_route: bool = False


@dataclass
class DepthTwoData:
    A: SubspaceBasis  # in M1
    B: SubspaceBasis  # in M2
    C: SubspaceBasis  # in M2
    source: str = "centralizers"
    zw: Optional[tuple] = None  # ({z_i}, {w_i}) in M1
    uv: Optional[tuple] = None  # ({u_j}, {v_j}) in M2
    E_A: Optional[LinMap] = None  # C coords -> M1 coords (image in A)
    E_B: Optional[LinMap] = None  # C coords -> M2 coords (image in B)
    level1: Optional[DepthTwoLevelVerdict] = None
    level2: Optional[DepthTwoLevelVerdict] = None

    @property
    def n(self) -> int:
        return len(self.uv[0]) if self.uv else 0

    def passed(self) -> bool:
        return bool(self.level1 and self.level1.passed and self.level2 and self.level2.passed)


# ---------------------------------------------------------------------------
# centralizers
# ---------------------------------------------------------------------------


def second_centralizers(t) -> tuple[SubspaceBasis, SubspaceBasis, SubspaceBasis]:
    """A = C_M1(N), B = C_M2(M), C = C_M2(N), canonical bases."""
    n_in_m1 = SubspaceBasis(t.M1, t.incl1.compose(t.base_sys.ext.embed).columns)
    A = centralizer(t.M1, n_in_m1)
    m_in_m2 = SubspaceBasis(t.M2, t.incl2.compose(t.incl1).columns)
    B = centralizer(t.M2, m_in_m2)
    n_in_m2 = SubspaceBasis(
        t.M2,
        [t.incl2.apply(v) for v in n_in_m1.vectors],
    )
    C = centralizer(t.M2, n_in_m2)
    return A, B, C


def model_c_from_ab(t, A: SubspaceBasis, B: SubspaceBasis) -> SubspaceBasis:
    """C designated as span(A B) inside M2 (used by model towers)."""
    M2 = t.M2
    vecs = []
    for a in A.vectors:
        ah = t.incl2.apply(a)
        for b in B.vectors:
            vecs.append(M2.mul_sparse(ah, b))
    return SubspaceBasis.from_spanning(M2, vecs)


# ---------------------------------------------------------------------------
# the per-level depth-2 solver
# ---------------------------------------------------------------------------


@dataclass
class _LevelContext:
    up: Algebra
    down: Algebra
    cond_exp: LinMap  # up -> down coords
    down_in_up: LinMap  # down coords -> up
    scope: SubspaceBasis  # A (level 1) or B (level 2), inside up


def check_depth_two(t, d2: DepthTwoData) -> DepthTwoData:
    """Fill both level verdicts of d2 (in place) and return it."""
    lvl1 = _LevelContext(up=t.M1, down=t.M, cond_exp=t.E_M, down_in_up=t.incl1, scope=d2.A)
    d2.level1 = _solve_level(1, lvl1)
    if d2.level1.passed:
        d2.zw = (d2.level1.z, d2.level1.w)
    lvl2 = _LevelContext(up=t.M2, down=t.M1, cond_exp=t.E_M1, down_in_up=t.incl2, scope=d2.B)
    d2.level2 = _solve_level(2, lvl2)
    if d2.level2.passed:
        d2.uv = (d2.level2.z, d2.level2.w)
    return d2


def _solve_level(level: int, ctx: _LevelContext) -> DepthTwoLevelVerdict:
    verdict = DepthTwoLevelVerdict(
        level=level, passed=False, n0=None, reason=None, z=None, w=None,
        tensor_solvable=_tensor_membership(ctx), paths_agree=None,
    )
    verdict.reason = _decide_level(ctx, verdict)
    verdict.paths_agree = verdict.passed == verdict.tensor_solvable
    return verdict


def _decide_level(ctx: _LevelContext, verdict: DepthTwoLevelVerdict) -> Optional[str]:
    """Dimension count, tensor system, one witness, exact verification.

    Fills n0, z, w and passed on the verdict; returns the failure reason, or
    None when the witness verifies.
    """
    if ctx.down.dim == 0 or ctx.up.dim % ctx.down.dim != 0:
        return "dimension obstruction: dim of the level is not a multiple of the one below"
    n0 = ctx.up.dim // ctx.down.dim
    verdict.n0 = n0
    s = ctx.scope.dim
    if s < n0:
        return f"dimension obstruction: centralizer dimension {s} < required basis size {n0}"
    verdict.gram_route = s == n0
    # a verified witness sum z_i (x) w_i would solve the tensor system
    if not verdict.tensor_solvable:
        return "the dual-bases tensor system in the centralizer square is inconsistent"
    z = _free_basis(ctx, n0)
    if z is None:
        if s == n0:
            return "the centralizer basis is not a free module basis"
        return f"no free module basis among {s * s} combinations of the centralizer basis"
    w = _dual_w(ctx, z)
    if w is None:
        return "orthogonality system inconsistent for the free basis"
    ok, why = _verify_pair(ctx, z, w)
    if not ok:
        return f"solved dual system fails verification: {why}"
    verdict.passed = True
    verdict.z, verdict.w = z, w
    return None


def _scope_combinations(ctx: _LevelContext, count: int):
    """count combinations of the whole scope basis, coefficients in -2..2
    drawn from a fixed linear congruential recurrence, so the sequence is the
    same on every platform and scalar backend."""
    f = ctx.up.field
    state = 1
    for _ in range(count):
        acc: dict = {}
        for v in ctx.scope.vectors:
            state = (state * 1103515245 + 12345) % 2**31
            sparse_axpy(f, acc, f.from_int((state >> 16) % 5 - 2), v)
        yield acc


def _free_basis(ctx: _LevelContext, n0: int) -> Optional[list]:
    """z_1..z_n0 in the scope with up = (+) z_i . down, or None.

    When dim scope = n0 every free basis spans the scope, so the scope basis
    itself decides freeness exactly. Otherwise combinations of the scope
    basis are accepted greedily when their block z . down extends the rank by
    dim down, over at most (dim scope)^2 candidates.
    """
    f = ctx.up.field
    up = ctx.up
    s = ctx.scope.dim
    candidates = ctx.scope.vectors if s == n0 else _scope_combinations(ctx, s * s)
    span = SparseSolver(f, up.dim, reduce_fully=True)
    z = []
    for cand in candidates:
        block = SparseSolver(f, up.dim, reduce_fully=True)
        for k, m in enumerate(ctx.down_in_up.columns):
            block.add_row(span.reduce(up.mul_sparse(cand, m)), f.zero)
            if block.rank() <= k:
                break
        else:
            for row in block.pivots.values():
                span.add_row(row, f.zero)
            z.append(dict(cand))
            if len(z) == n0:
                return z
    return None


def _dual_w(ctx: _LevelContext, z: list) -> Optional[list]:
    """Solve E(w_i z_j) = delta_ij 1 for w_i in scope coordinates.

    The system has n0 * dim down rows and dim scope columns. For a free z the
    solution is unique, and it gives sum_i z_i E(w_i x) = x: writing
    x = sum_j z_j d_j, E(w_i x) = d_i.
    """
    f = ctx.up.field
    dd = ctx.down.dim
    # column b: E(b z_j) stacked over j (row j * dim down + t)
    cols = []
    for b in ctx.scope.vectors:
        col: dict = {}
        for j, zj in enumerate(z):
            col.update((j * dd + t, c) for t, c in ctx.cond_exp.apply(ctx.up.mul_sparse(b, zj)).items())
        cols.append(col)
    mat = LinMap(f, cols, len(z) * dd)
    one = ctx.cond_exp.apply(ctx.up.unit)
    scope = LinMap(f, ctx.scope.vectors, ctx.up.dim)
    w = []
    for i in range(len(z)):
        res = solve(mat, {i * dd + t: c for t, c in one.items()})
        if res is None:
            return None
        w.append(scope.apply(res[0]))
    return w


def _verify_pair(ctx: _LevelContext, z: list, w: list) -> tuple[bool, str]:
    """All defining equations, exactly: both Frobenius sums on every basis x,
    orthogonality E(w_i z_j) = delta_ij 1, and membership of w in the scope."""
    f = ctx.up.field
    up = ctx.up
    cond, down_in_up = ctx.cond_exp, ctx.down_in_up
    down_unit = cond.apply(up.unit)
    for wi in w:
        if not ctx.scope.contains(wi):
            return False, "w outside the centralizer"
    for i, wi in enumerate(w):
        for j, zj in enumerate(z):
            if cond.apply(up.mul_sparse(wi, zj)) != (down_unit if i == j else {}):
                return False, f"orthogonality fails at ({i}, {j})"
    # the Frobenius sums from sparse table rows: e_x z_i and w_i e_x via mul_sparse
    for x in range(up.dim):
        ex = {x: f.one}
        left: dict = {}
        right: dict = {}
        for zi, wi in zip(z, w):
            exz = down_in_up.apply(cond.apply(up.mul_sparse(ex, zi)))
            sparse_axpy(f, left, f.one, up.mul_sparse(exz, wi))
            ewx = down_in_up.apply(cond.apply(up.mul_sparse(wi, ex)))
            sparse_axpy(f, right, f.one, up.mul_sparse(zi, ewx))
        if left != ex or right != ex:
            return False, f"Frobenius sum fails at basis {x}"
    return True, ""


def _tensor_membership(ctx: _LevelContext) -> bool:
    """Independent brute-force path: is there any tensor T in scope (x) scope
    with both Frobenius contraction identities? Assembled entry by entry from
    the defining equations and solved from scratch (sparse incremental
    elimination with early inconsistency detection)."""
    f = ctx.up.field
    up = ctx.up
    d = up.dim
    s = ctx.scope.dim
    if s == 0:
        return False
    scope_sparse = ctx.scope.vectors
    cond, down_in_up = ctx.cond_exp, ctx.down_in_up
    solver = SparseSolver(f, s * s)
    for x in range(d):
        ex = {x: f.one}
        left_rows: list[dict] = [dict() for _ in range(d)]
        right_rows: list[dict] = [dict() for _ in range(d)]
        for p in range(s):
            lfac = down_in_up.apply(cond.apply(up.mul_sparse(ex, scope_sparse[p])))
            rfac = down_in_up.apply(cond.apply(up.mul_sparse(scope_sparse[p], ex)))
            for q in range(s):
                if lfac:
                    col = p * s + q
                    for r, val in up.mul_sparse(lfac, scope_sparse[q]).items():
                        sparse_add(f, left_rows[r], col, val)
                # right identity: T_{qp'} with the scope element at slot q
                col = q * s + p
                if rfac:
                    for r, val in up.mul_sparse(scope_sparse[q], rfac).items():
                        sparse_add(f, right_rows[r], col, val)
        for r in range(d):
            rhs = f.one if r == x else f.zero
            if not solver.add_row(left_rows[r], rhs):
                return False
            if not solver.add_row(right_rows[r], rhs):
                return False
    return solver.consistent


# ---------------------------------------------------------------------------
# structure of C
# ---------------------------------------------------------------------------


def verify_c_structure(t, d2: DepthTwoData) -> CheckOutcome:
    """Multiplication A (x) B -> C and B (x) A -> C bijective, C = A e2 A,
    e1 c e1 = e1 E_M1(c), C isomorphic to a full matrix algebra via explicit
    matrix units from B (x) B, char k does not divide n, dim A = dim B."""
    f = t.M.field
    M2 = t.M2
    failures = []
    A, B, C = d2.A, d2.B, d2.C
    if A.dim != B.dim:
        failures.append({"kind": "dim A != dim B", "dims": (A.dim, B.dim)})
    n = d2.n or B.dim

    # A (x) B -> C and B (x) A -> C bijective via multiplication
    for first, second, label in ((A, B, "AB"), (B, A, "BA")):
        cols = []
        ok = True
        for i, x in enumerate(first.vectors):
            xv = t.incl2.apply(x) if first is A else x
            for j, y in enumerate(second.vectors):
                yv = t.incl2.apply(y) if second is A else y
                coords = C.coords(M2.mul_sparse(xv, yv))
                if coords is None:
                    failures.append({"kind": f"{label}-product-outside-C", "pair": (i, j)})
                    ok = False
                    break
                cols.append(coords)
            if not ok:
                break
        if ok:
            if first.dim * second.dim != C.dim:
                failures.append({"kind": f"{label}-dimension-mismatch"})
            elif rank(LinMap(f, cols, C.dim)) != C.dim:
                failures.append({"kind": f"{label}-multiplication-not-bijective"})

    # A e2 A spans C
    vecs = []
    for a in A.vectors:
        left = M2.mul_sparse(t.incl2.apply(a), t.e2)
        for a2 in A.vectors:
            vecs.append(M2.mul_sparse(left, t.incl2.apply(a2)))
    span = SubspaceBasis.from_spanning(M2, vecs)
    c_canon = SubspaceBasis.from_spanning(M2, C.vectors)
    if not span.equals(c_canon):
        failures.append({"kind": "Ae2A != C", "span_dim": span.dim})

    # e1 c e1 = e1 E_M1(c)
    e1h = t.e1_in_m2()
    for i, c_vec in enumerate(C.vectors):
        lhs = M2.mul_sparse(M2.mul_sparse(e1h, c_vec), e1h)
        if lhs != M2.mul_sparse(e1h, t.incl2.apply(t.E_M1.apply(c_vec))):
            failures.append({"kind": "e1ce1-identity", "basis": i})
            break

    # char k does not divide n: lambda^-1 = n 1_k
    lam_inv = t.base_sys.lambda_inverse
    if not f.eq(lam_inv, f.from_int(n)):
        failures.append({"kind": "index-vs-n", "n": n})
    if f.is_zero(f.from_int(n)):
        failures.append({"kind": "characteristic-divides-n", "n": n})

    # matrix units from B (x) B = C: units xi_ij = u_i e1 v_j
    if d2.uv is not None:
        u, v = d2.uv
        units = [[M2.mul_sparse(M2.mul_sparse(u[i], e1h), v[j]) for j in range(n)] for i in range(n)]
        ok = True
        for i in range(n):
            for j in range(n):
                if C.coords(units[i][j]) is None:
                    failures.append({"kind": "matrix-unit-outside-C", "pair": (i, j)})
                    ok = False
        if ok:
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        for l in range(n):
                            expected = units[i][l] if j == k else {}
                            if M2.mul_sparse(units[i][j], units[k][l]) != expected:
                                failures.append(
                                    {"kind": "matrix-unit-relations", "tuple": (i, j, k, l)}
                                )
                                ok = False
            total: dict = {}
            for i in range(n):
                sparse_axpy(f, total, f.one, units[i][i])
            if total != M2.unit:
                failures.append({"kind": "matrix-units-do-not-sum-to-1"})
            if ok and n * n != C.dim:
                failures.append({"kind": "C-not-matrix-algebra-dimension", "dims": (n * n, C.dim)})
    return CheckOutcome(not failures, failures)


# ---------------------------------------------------------------------------
# conditional expectations E_A and E_B
# ---------------------------------------------------------------------------


def conditional_expectations(t, d2: DepthTwoData) -> tuple[Optional[LinMap], Optional[LinMap], CheckOutcome]:
    """E_B(c) = sum_j F(c u_j) v_j (scalar-gated) and E_A = E_M1 restricted
    to C, both verified as conditional expectations, plus the Markov
    relations of F."""
    f = t.M.field
    M1, M2 = t.M1, t.M2
    failures = []
    if d2.uv is None:
        return None, None, CheckOutcome(False, [{"kind": "no-level-2-dual-bases"}])
    u, v = d2.uv
    lam = t.lam
    C = d2.C

    # E_B
    eb_cols = []
    for c_vec in C.vectors:
        acc: dict = {}
        for uj, vj in zip(u, v):
            val = scalar_of(t.M, t.F.apply(M2.mul_sparse(c_vec, uj)))
            if val is None:
                return None, None, CheckOutcome(
                    False, [{"kind": "F-not-scalar-on-C-times-B"}]
                )
            sparse_axpy(f, acc, val, vj)
        eb_cols.append(acc)
    E_B = LinMap(f, eb_cols, M2.dim)

    # E_B restricted to B is the identity
    for b in d2.B.vectors:
        coords = C.coords(b)
        if coords is None:
            failures.append({"kind": "B-not-inside-C"})
            break
        if E_B.apply(coords) != b:
            failures.append({"kind": "E_B-not-identity-on-B"})
            break
    # values of E_B lie in B
    for i in range(C.dim):
        if not d2.B.contains(eb_cols[i]):
            failures.append({"kind": "E_B-image-outside-B", "basis": i})
            break
    # B-bimodule property
    for b in d2.B.vectors:
        for i, c_vec in enumerate(C.vectors):
            for b2 in d2.B.vectors:
                coords = C.coords(M2.mul_sparse(M2.mul_sparse(b, c_vec), b2))
                if coords is None:
                    failures.append({"kind": "BCB-product-outside-C"})
                    break
                rhs = M2.mul_sparse(M2.mul_sparse(b, eb_cols[i]), b2)
                if E_B.apply(coords) != rhs:
                    failures.append({"kind": "E_B-bimodule", "basis": i})
                    break
    # E_B(b e1 b') = lam b b'
    e1h = t.e1_in_m2()
    for b in d2.B.vectors:
        for b2 in d2.B.vectors:
            coords = C.coords(M2.mul_sparse(M2.mul_sparse(b, e1h), b2))
            if coords is None:
                failures.append({"kind": "be1b-outside-C"})
                break
            if E_B.apply(coords) != sparse_scale(f, lam, M2.mul_sparse(b, b2)):
                failures.append({"kind": "E_B(be1b')-identity"})
                break
    # E_B(e1) = lam 1
    coords = C.coords(e1h)
    if coords is None:
        failures.append({"kind": "e1-outside-C"})
    elif E_B.apply(coords) != sparse_scale(f, lam, M2.unit):
        failures.append({"kind": "E_B(e1) != lam 1"})

    # E_A = E_M1 restricted to C
    ea_cols = []
    for c_vec in C.vectors:
        img = t.E_M1.apply(c_vec)
        if not d2.A.contains(img):
            failures.append({"kind": "E_A-image-outside-A"})
        ea_cols.append(img)
    E_A = LinMap(f, ea_cols, M1.dim)
    for a in d2.A.vectors:
        coords = C.coords(t.incl2.apply(a))
        if coords is None:
            failures.append({"kind": "A-not-inside-C"})
            break
        if E_A.apply(coords) != a:
            failures.append({"kind": "E_A-not-identity-on-A"})
            break
    for a in d2.A.vectors:
        ah = t.incl2.apply(a)
        for i, c_vec in enumerate(C.vectors):
            for a2 in d2.A.vectors:
                coords = C.coords(M2.mul_sparse(M2.mul_sparse(ah, c_vec), t.incl2.apply(a2)))
                if coords is None:
                    failures.append({"kind": "ACA-product-outside-C"})
                    break
                rhs = M1.mul_sparse(M1.mul_sparse(a, ea_cols[i]), a2)
                if E_A.apply(coords) != rhs:
                    failures.append({"kind": "E_A-bimodule", "basis": i})
                    break

    # Markov relations
    for a in d2.A.vectors:
        ah = t.incl2.apply(a)
        rhs = sparse_scale(f, lam, t.F.apply(ah))
        if t.F.apply(M2.mul_sparse(ah, t.e2)) != rhs or t.F.apply(M2.mul_sparse(t.e2, ah)) != rhs:
            failures.append({"kind": "markov-F(ae2)"})
            break
    for b in d2.B.vectors:
        rhs = sparse_scale(f, lam, t.F.apply(b))
        if t.F.apply(M2.mul_sparse(b, e1h)) != rhs or t.F.apply(M2.mul_sparse(e1h, b)) != rhs:
            failures.append({"kind": "markov-F(be1)"})
            break
    # F o E_M1 = F and F o E_B = F on C
    for i, c_vec in enumerate(C.vectors):
        fc = t.F.apply(c_vec)
        if t.F.apply(t.incl2.apply(t.E_M1.apply(c_vec))) != fc:
            failures.append({"kind": "F-o-E_M1 != F", "basis": i})
            break
        if t.F.apply(eb_cols[i]) != fc:
            failures.append({"kind": "F-o-E_B != F", "basis": i})
            break

    d2.E_A, d2.E_B = E_A, E_B
    return E_A, E_B, CheckOutcome(not failures, failures)


# ---------------------------------------------------------------------------
# faithfulness of F on C
# ---------------------------------------------------------------------------


def verify_f_faithful(t, d2: DepthTwoData) -> tuple[Optional[LinMap], CheckOutcome]:
    """Gram map with entry (i, j) = F(c_i c_j) on the basis of C must be
    invertible; gated on F being scalar-valued on C (certain for an
    irreducible base)."""
    f = t.M.field
    C = d2.C
    cols: list[dict] = [{} for _ in C.vectors]
    for i, ci in enumerate(C.vectors):
        for j, cj in enumerate(C.vectors):
            val = scalar_of(t.M, t.F.apply(t.M2.mul_sparse(ci, cj)))
            if val is None:
                return None, CheckOutcome(
                    False, [{"kind": "F-not-scalar-on-C", "gate": "base not irreducible"}]
                )
            if val:
                cols[j][i] = val
    gram = LinMap(f, cols, C.dim)
    if invert(gram) is None:
        return gram, CheckOutcome(False, [{"kind": "F-gram-singular"}])
    return gram, CheckOutcome(True, [])


def f_scalar_on_c(t, d2: DepthTwoData) -> bool:
    for ci in d2.C.vectors:
        if scalar_of(t.M, t.F.apply(ci)) is None:
            return False
    return True


# ---------------------------------------------------------------------------
# Nakayama relations
# ---------------------------------------------------------------------------


@dataclass
class NakayamaRelations:
    q_C: Optional[LinMap] = None  # Nakayama map of F on C, in C coordinates
    q_A: Optional[LinMap] = None
    q_B: Optional[LinMap] = None
    report: Optional[CheckOutcome] = None


def nakayama_relations(t, d2: DepthTwoData) -> NakayamaRelations:
    """q of F on C, q_A of E_M on A, q_B of E_M1 on B; the restrictions
    q|_A = q_A and q|_B = q_B, the commuting square with E_M1, and
    q(e1) = e1, q(e2) = e2."""
    out = NakayamaRelations()
    failures = []
    C_alg, c_embed = d2.C.induced_algebra()
    A_alg, a_embed = d2.A.induced_algebra()
    B_alg, b_embed = d2.B.induced_algebra()

    f_row = []
    for c_vec in d2.C.vectors:
        val = scalar_of(t.M, t.F.apply(c_vec))
        if val is None:
            out.report = CheckOutcome(False, [{"kind": "F-not-scalar-on-C"}])
            return out
        f_row.append(val)
    res = nakayama_of_functional(C_alg, f_row)
    if not res.ok:
        out.report = CheckOutcome(False, [{"kind": "q-on-C-failed", "detail": res.failures[:1]}])
        return out
    out.q_C = res.map

    a_row = []
    for a in d2.A.vectors:
        val = scalar_of(t.M, t.E_M.apply(a))
        if val is None:
            out.report = CheckOutcome(False, [{"kind": "E_M-not-scalar-on-A"}])
            return out
        a_row.append(val)
    res_a = nakayama_of_functional(A_alg, a_row)
    if not res_a.ok:
        out.report = CheckOutcome(False, [{"kind": "q_A-failed"}])
        return out
    out.q_A = res_a.map

    b_row = []
    for b in d2.B.vectors:
        val = scalar_of(t.M1, t.E_M1.apply(b))
        if val is None:
            out.report = CheckOutcome(False, [{"kind": "E_M1-not-scalar-on-B"}])
            return out
        b_row.append(val)
    res_b = nakayama_of_functional(B_alg, b_row)
    if not res_b.ok:
        out.report = CheckOutcome(False, [{"kind": "q_B-failed"}])
        return out
    out.q_B = res_b.map

    def q_of(vec_in_c):
        coords = d2.C.coords(vec_in_c)
        return None if coords is None else c_embed.apply(res.map.apply(coords))

    # q restricted to A equals q_A
    for i, a in enumerate(d2.A.vectors):
        qa = q_of(t.incl2.apply(a))
        if qa is None:
            failures.append({"kind": "A-outside-C"})
            break
        if qa != t.incl2.apply(a_embed.apply(res_a.map.columns[i])):
            failures.append({"kind": "q|_A != q_A", "basis": i})
            break
    # q restricted to B equals q_B
    for i, b in enumerate(d2.B.vectors):
        qb = q_of(b)
        if qb is None:
            failures.append({"kind": "B-outside-C"})
            break
        if qb != b_embed.apply(res_b.map.columns[i]):
            failures.append({"kind": "q|_B != q_B", "basis": i})
            break
    # q~ of the composite Frobenius map F on scope B agrees with q_B
    res_tilde = nakayama(t.M2, t.F, d2.B)
    if not res_tilde.ok:
        failures.append({"kind": "q-tilde-failed"})
    elif not res_tilde.map == res_b.map:
        failures.append({"kind": "q-tilde != q_B"})

    # E_M1 o q = q_A o E_M1 on C
    for i, c_vec in enumerate(d2.C.vectors):
        lhs = t.E_M1.apply(q_of(c_vec))
        coords = d2.A.coords(t.E_M1.apply(c_vec))
        if coords is None:
            failures.append({"kind": "E_M1(C)-outside-A"})
            break
        if lhs != a_embed.apply(res_a.map.apply(coords)):
            failures.append({"kind": "commuting-square", "basis": i})
            break

    # q fixes the Jones idempotents
    for name, vec in (("e1", t.e1_in_m2()), ("e2", t.e2)):
        q_img = q_of(vec)
        if q_img is None or q_img != vec:
            failures.append({"kind": f"q({name}) != {name}"})
    out.report = CheckOutcome(not failures, failures)
    return out
