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
from .frobenius import CheckOutcome, scalar_of
from .linalg import (
    Matrix,
    SparseSolver,
    basis_vector,
    invert,
    rank,
    solve,
    sparse_add,
    sparse_apply,
    sparse_axpy,
    sparse_columns,
    vec_eq,
    vec_scale,
)


@dataclass
class DepthTwoLevelVerdict:
    level: int
    passed: bool
    n0: Optional[int]
    reason: Optional[str]
    z: Optional[list]  # upper-level vectors
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
    f = t.M.field
    n_alg = t.base_sys.ext.n_algebra
    n_in_m1 = SubspaceBasis(
        t.M1,
        [t.incl1.apply(t.base_sys.ext.embed.apply(basis_vector(f, n_alg.dim, i))) for i in range(n_alg.dim)],
    )
    A = centralizer(t.M1, n_in_m1)
    m_in_m2 = SubspaceBasis(
        t.M2, [t.push_m_to_m2(basis_vector(f, t.M.dim, i)) for i in range(t.M.dim)]
    )
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
            vecs.append(M2.mul(ah, b))
    return SubspaceBasis.from_spanning(M2, vecs)


# ---------------------------------------------------------------------------
# the per-level depth-2 solver
# ---------------------------------------------------------------------------


@dataclass
class _LevelContext:
    up: Algebra
    down_dim: int
    cond_exp: LinMap  # up -> down coords
    down_in_up: LinMap  # down coords -> up
    scope: SubspaceBasis  # A (level 1) or B (level 2), inside up


def check_depth_two(t, d2: DepthTwoData) -> DepthTwoData:
    """Fill both level verdicts of d2 (in place) and return it."""
    lvl1 = _LevelContext(up=t.M1, down_dim=t.M.dim, cond_exp=t.E_M, down_in_up=t.incl1, scope=d2.A)
    d2.level1 = _solve_level(1, lvl1)
    if d2.level1.passed:
        d2.zw = (d2.level1.z, d2.level1.w)
    lvl2 = _LevelContext(up=t.M2, down_dim=t.M1.dim, cond_exp=t.E_M1, down_in_up=t.incl2, scope=d2.B)
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
    if ctx.down_dim == 0 or ctx.up.dim % ctx.down_dim != 0:
        return "dimension obstruction: dim of the level is not a multiple of the one below"
    n0 = ctx.up.dim // ctx.down_dim
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


def _combine(f, coeffs: list, vectors: list, dim: int) -> list:
    acc = [f.zero] * dim
    for c, v in zip(coeffs, vectors):
        if not f.is_zero(c):
            acc = [f.add(a, f.mul(c, b)) for a, b in zip(acc, v)]
    return acc


def _scope_combinations(ctx: _LevelContext, count: int):
    """count combinations of the whole scope basis, coefficients in -2..2
    drawn from a fixed linear congruential recurrence, so the sequence is the
    same on every platform and scalar backend."""
    f = ctx.up.field
    state = 1
    for _ in range(count):
        coeffs = []
        for _ in range(ctx.scope.dim):
            state = (state * 1103515245 + 12345) % 2**31
            coeffs.append(f.from_int((state >> 16) % 5 - 2))
        yield _combine(f, coeffs, ctx.scope.vectors, ctx.up.dim)


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
    down = [up.to_sparse(ctx.down_in_up.apply(basis_vector(f, ctx.down_dim, m))) for m in range(ctx.down_dim)]
    candidates = ctx.scope.vectors if s == n0 else _scope_combinations(ctx, s * s)
    span = SparseSolver(f, up.dim, reduce_fully=True)
    z = []
    for cand in candidates:
        block = SparseSolver(f, up.dim, reduce_fully=True)
        cand_sparse = up.to_sparse(cand)
        for k, m in enumerate(down):
            block.add_row(span.reduce(up.mul_sparse(cand_sparse, m)), f.zero)
            if block.rank() <= k:
                break
        else:
            for row in block.pivots.values():
                span.add_row(row, f.zero)
            z.append(list(cand))
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
    one = ctx.cond_exp.apply(ctx.up.unit)
    cols = [[c for zj in z for c in ctx.cond_exp.apply(ctx.up.mul(b, zj))] for b in ctx.scope.vectors]
    mat = Matrix(f, [list(row) for row in zip(*cols)])
    zero = [f.zero] * ctx.down_dim
    w = []
    for i in range(len(z)):
        res = solve(mat, [c for j in range(len(z)) for c in (one if j == i else zero)])
        if res is None:
            return None
        w.append(_combine(f, res[0], ctx.scope.vectors, ctx.up.dim))
    return w


def _verify_pair(ctx: _LevelContext, z: list, w: list) -> tuple[bool, str]:
    """All defining equations, exactly: both Frobenius sums on every basis x,
    orthogonality E(w_i z_j) = delta_ij 1, and membership of w in the scope."""
    f = ctx.up.field
    up = ctx.up
    down_unit = ctx.cond_exp.apply(up.unit)
    for wi in w:
        if not ctx.scope.contains(wi):
            return False, "w outside the centralizer"
    for i, wi in enumerate(w):
        for j, zj in enumerate(z):
            val = ctx.cond_exp.apply(up.mul(wi, zj))
            expected = down_unit if i == j else [f.zero] * len(down_unit)
            if not vec_eq(f, val, expected):
                return False, f"orthogonality fails at ({i}, {j})"
    # the Frobenius sums from sparse table rows: e_x z_i and w_i e_x via mul_sparse
    cond = sparse_columns(ctx.cond_exp.matrix)
    down_in_up = sparse_columns(ctx.down_in_up.matrix)
    pairs = [(up.to_sparse(zi), up.to_sparse(wi)) for zi, wi in zip(z, w)]
    for x in range(up.dim):
        ex = {x: f.one}
        left: dict = {}
        right: dict = {}
        for zi, wi in pairs:
            exz = sparse_apply(f, down_in_up, sparse_apply(f, cond, up.mul_sparse(ex, zi)))
            sparse_axpy(f, left, f.one, up.mul_sparse(exz, wi))
            ewx = sparse_apply(f, down_in_up, sparse_apply(f, cond, up.mul_sparse(wi, ex)))
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
    scope_sparse = [up.to_sparse(v) for v in ctx.scope.vectors]
    solver = SparseSolver(f, s * s)
    for x in range(d):
        ex = {x: f.one}
        left_rows: list[dict] = [dict() for _ in range(d)]
        right_rows: list[dict] = [dict() for _ in range(d)]
        for p in range(s):
            exz = ctx.cond_exp.apply(up.to_dense(up.mul_sparse(ex, scope_sparse[p])))
            lfac = up.to_sparse(ctx.down_in_up.apply(exz))
            ewx = ctx.cond_exp.apply(up.to_dense(up.mul_sparse(scope_sparse[p], ex)))
            rfac = up.to_sparse(ctx.down_in_up.apply(ewx))
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
                prod = M2.mul(xv, yv)
                coords = C.coords(prod)
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
            else:
                m = LinMap.from_columns(f, cols)
                if rank(m.matrix) != C.dim:
                    failures.append({"kind": f"{label}-multiplication-not-bijective"})

    # A e2 A spans C
    vecs = []
    for a in A.vectors:
        ah = t.incl2.apply(a)
        left = M2.mul(ah, t.e2)
        for a2 in A.vectors:
            vecs.append(M2.mul(left, t.incl2.apply(a2)))
    span = SubspaceBasis.from_spanning(M2, vecs)
    c_canon = SubspaceBasis.from_spanning(M2, [list(v) for v in C.vectors])
    if not span.equals(c_canon):
        failures.append({"kind": "Ae2A != C", "span_dim": span.dim})

    # e1 c e1 = e1 E_M1(c)
    e1h = t.e1_in_m2()
    for i, c_vec in enumerate(C.vectors):
        lhs = M2.mul(M2.mul(e1h, c_vec), e1h)
        rhs = M2.mul(e1h, t.incl2.apply(t.E_M1.apply(c_vec)))
        if not vec_eq(f, lhs, rhs):
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
        units = [[M2.mul(M2.mul(u[i], e1h), v[j]) for j in range(n)] for i in range(n)]
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
                            prod = M2.mul(units[i][j], units[k][l])
                            expected = units[i][l] if j == k else [f.zero] * M2.dim
                            if not vec_eq(f, prod, expected):
                                failures.append(
                                    {"kind": "matrix-unit-relations", "tuple": (i, j, k, l)}
                                )
                                ok = False
            total = [f.zero] * M2.dim
            for i in range(n):
                total = [f.add(a, b) for a, b in zip(total, units[i][i])]
            if not vec_eq(f, total, M2.unit):
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
        acc = [f.zero] * M2.dim
        for uj, vj in zip(u, v):
            val = scalar_of(t.M, t.F.apply(M2.mul(c_vec, uj)))
            if val is None:
                return None, None, CheckOutcome(
                    False, [{"kind": "F-not-scalar-on-C-times-B"}]
                )
            if not f.is_zero(val):
                acc = [f.add(a, f.mul(val, b)) for a, b in zip(acc, vj)]
        eb_cols.append(acc)
    E_B = LinMap.from_columns(f, eb_cols)

    # E_B restricted to B is the identity
    for b in d2.B.vectors:
        coords = C.coords(b)
        if coords is None:
            failures.append({"kind": "B-not-inside-C"})
            break
        if not vec_eq(f, E_B.apply(coords), b):
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
                prod = M2.mul(M2.mul(b, c_vec), b2)
                coords = C.coords(prod)
                if coords is None:
                    failures.append({"kind": "BCB-product-outside-C"})
                    break
                lhs = E_B.apply(coords)
                rhs = M2.mul(M2.mul(b, E_B.apply(C.coords(c_vec))), b2)
                if not vec_eq(f, lhs, rhs):
                    failures.append({"kind": "E_B-bimodule", "basis": i})
                    break
    # E_B(b e1 b') = lam b b'
    e1h = t.e1_in_m2()
    for b in d2.B.vectors:
        for b2 in d2.B.vectors:
            prod = M2.mul(M2.mul(b, e1h), b2)
            coords = C.coords(prod)
            if coords is None:
                failures.append({"kind": "be1b-outside-C"})
                break
            lhs = E_B.apply(coords)
            rhs = vec_scale(f, lam, M2.mul(b, b2))
            if not vec_eq(f, lhs, rhs):
                failures.append({"kind": "E_B(be1b')-identity"})
                break
    # E_B(e1) = lam 1
    coords = C.coords(e1h)
    if coords is None:
        failures.append({"kind": "e1-outside-C"})
    elif not vec_eq(f, E_B.apply(coords), vec_scale(f, lam, M2.unit)):
        failures.append({"kind": "E_B(e1) != lam 1"})

    # E_A = E_M1 restricted to C
    ea_cols = []
    for c_vec in C.vectors:
        img = t.E_M1.apply(c_vec)
        if not d2.A.contains(img):
            failures.append({"kind": "E_A-image-outside-A"})
        ea_cols.append(img)
    E_A = LinMap.from_columns(f, ea_cols)
    for a in d2.A.vectors:
        ah = t.incl2.apply(a)
        coords = C.coords(ah)
        if coords is None:
            failures.append({"kind": "A-not-inside-C"})
            break
        if not vec_eq(f, E_A.apply(coords), a):
            failures.append({"kind": "E_A-not-identity-on-A"})
            break
    for a in d2.A.vectors:
        ah = t.incl2.apply(a)
        for i, c_vec in enumerate(C.vectors):
            for a2 in d2.A.vectors:
                a2h = t.incl2.apply(a2)
                prod = M2.mul(M2.mul(ah, c_vec), a2h)
                coords = C.coords(prod)
                if coords is None:
                    failures.append({"kind": "ACA-product-outside-C"})
                    break
                lhs = E_A.apply(coords)
                rhs = M1.mul(M1.mul(a, E_A.apply(C.coords(c_vec))), a2)
                if not vec_eq(f, lhs, rhs):
                    failures.append({"kind": "E_A-bimodule", "basis": i})
                    break

    # Markov relations
    for a in d2.A.vectors:
        ah = t.incl2.apply(a)
        fa = t.F.apply(ah)
        lhs = t.F.apply(M2.mul(ah, t.e2))
        rhs = vec_scale(f, lam, fa)
        if not vec_eq(f, lhs, rhs) or not vec_eq(f, t.F.apply(M2.mul(t.e2, ah)), rhs):
            failures.append({"kind": "markov-F(ae2)"})
            break
    for b in d2.B.vectors:
        fb = t.F.apply(b)
        rhs = vec_scale(f, lam, fb)
        if not vec_eq(f, t.F.apply(M2.mul(b, e1h)), rhs) or not vec_eq(
            f, t.F.apply(M2.mul(e1h, b)), rhs
        ):
            failures.append({"kind": "markov-F(be1)"})
            break
    # F o E_M1 = F and F o E_B = F on C
    for i, c_vec in enumerate(C.vectors):
        fc = t.F.apply(c_vec)
        via_em1 = t.F.apply(t.incl2.apply(t.E_M1.apply(c_vec)))
        if not vec_eq(f, via_em1, fc):
            failures.append({"kind": "F-o-E_M1 != F", "basis": i})
            break
        via_eb = t.F.apply(eb_cols[i])
        if not vec_eq(f, via_eb, fc):
            failures.append({"kind": "F-o-E_B != F", "basis": i})
            break

    d2.E_A, d2.E_B = E_A, E_B
    return E_A, E_B, CheckOutcome(not failures, failures)


# ---------------------------------------------------------------------------
# faithfulness of F on C
# ---------------------------------------------------------------------------


def verify_f_faithful(t, d2: DepthTwoData) -> tuple[Optional[Matrix], CheckOutcome]:
    """Gram matrix [F(c_i c_j)] on the basis of C must be invertible; gated on
    F being scalar-valued on C (certain for an irreducible base)."""
    f = t.M.field
    C = d2.C
    gram_rows = []
    for ci in C.vectors:
        row = []
        for cj in C.vectors:
            val = scalar_of(t.M, t.F.apply(t.M2.mul(ci, cj)))
            if val is None:
                return None, CheckOutcome(
                    False, [{"kind": "F-not-scalar-on-C", "gate": "base not irreducible"}]
                )
            row.append(val)
        gram_rows.append(row)
    gram = Matrix(f, gram_rows)
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
    q_C: Optional[Matrix] = None
    q_A: Optional[Matrix] = None
    q_B: Optional[Matrix] = None
    report: Optional[CheckOutcome] = None


def nakayama_relations(t, d2: DepthTwoData) -> NakayamaRelations:
    """q of F on C, q_A of E_M on A, q_B of E_M1 on B; the restrictions
    q|_A = q_A and q|_B = q_B, the commuting square with E_M1, and
    q(e1) = e1, q(e2) = e2."""
    from .frobenius import nakayama_of_functional

    f = t.M.field
    out = NakayamaRelations()
    failures = []
    C_alg, _ = d2.C.induced_algebra()
    A_alg, _ = d2.A.induced_algebra()
    B_alg, _ = d2.B.induced_algebra()

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
    out.q_C = res.map.matrix

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
    out.q_A = res_a.map.matrix

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
    out.q_B = res_b.map.matrix

    M2 = t.M2

    def q_of(vec_in_c):
        coords = d2.C.coords(vec_in_c)
        if coords is None:
            return None
        img = out.q_C.matvec(coords)
        acc = [f.zero] * M2.dim
        for c, v in zip(img, d2.C.vectors):
            if not f.is_zero(c):
                acc = [f.add(a, f.mul(c, b)) for a, b in zip(acc, v)]
        return acc

    # q restricted to A equals q_A
    for i, a in enumerate(d2.A.vectors):
        ah = t.incl2.apply(a)
        qa = q_of(ah)
        if qa is None:
            failures.append({"kind": "A-outside-C"})
            break
        img = out.q_A.matvec(basis_vector(f, A_alg.dim, i))
        acc = [f.zero] * t.M1.dim
        for c, v in zip(img, d2.A.vectors):
            if not f.is_zero(c):
                acc = [f.add(x, f.mul(c, y)) for x, y in zip(acc, v)]
        if not vec_eq(f, qa, t.incl2.apply(acc)):
            failures.append({"kind": "q|_A != q_A", "basis": i})
            break
    # q restricted to B equals q_B
    for i, b in enumerate(d2.B.vectors):
        qb = q_of(b)
        if qb is None:
            failures.append({"kind": "B-outside-C"})
            break
        img = out.q_B.matvec(basis_vector(f, B_alg.dim, i))
        acc = [f.zero] * M2.dim
        for c, v in zip(img, d2.B.vectors):
            if not f.is_zero(c):
                acc = [f.add(x, f.mul(c, y)) for x, y in zip(acc, v)]
        if not vec_eq(f, qb, acc):
            failures.append({"kind": "q|_B != q_B", "basis": i})
            break
    # q~ of the composite Frobenius map F on scope B agrees with q_B
    from .frobenius import nakayama as _nakayama

    res_tilde = _nakayama(M2, t.F, d2.B)
    if not res_tilde.ok:
        failures.append({"kind": "q-tilde-failed"})
    elif not res_tilde.map.matrix == out.q_B:
        failures.append({"kind": "q-tilde != q_B"})

    # E_M1 o q = q_A o E_M1 on C
    for i, c_vec in enumerate(d2.C.vectors):
        qc = q_of(c_vec)
        lhs = t.E_M1.apply(qc)
        ea = t.E_M1.apply(c_vec)
        coords = d2.A.coords(ea)
        if coords is None:
            failures.append({"kind": "E_M1(C)-outside-A"})
            break
        img = out.q_A.matvec(coords)
        rhs = [f.zero] * t.M1.dim
        for c, v in zip(img, d2.A.vectors):
            if not f.is_zero(c):
                rhs = [f.add(x, f.mul(c, y)) for x, y in zip(rhs, v)]
        if not vec_eq(f, lhs, rhs):
            failures.append({"kind": "commuting-square", "basis": i})
            break

    # q fixes the Jones idempotents
    e1h = t.e1_in_m2()
    for name, vec in (("e1", e1h), ("e2", t.e2)):
        q_img = q_of(vec)
        if q_img is None or not vec_eq(f, q_img, vec):
            failures.append({"kind": f"q({name}) != {name}"})
    out.report = CheckOutcome(not failures, failures)
    return out
