"""Second centralizers, depth-2 tests and the structure of C.

The depth-2 condition at a level asks for orthogonal dual bases (z_i, w_i)
of the conditional expectation inside the relevant centralizer (A at level 1,
B at level 2). Each level takes one route with no tuning knob:

1. dimension count: n0 = dim up / dim down must be an integer and at most
   the dimension of the centralizer;
2. the dual-bases tensor system on the centralizer square, assembled from the
   defining equations on one-sided module generators of up over down and
   solved from scratch; if it is inconsistent the level fails, since any
   verified witness sum z_i (x) w_i would solve it;
3. one witness: a free module basis z (the centralizer basis itself when its
   dimension is n0, else greedy combinations of that basis from a fixed
   integer recurrence), then w from the linear system E(w_i z_j) = delta_ij 1;
4. exact verification of every defining equation of the witness, the
   Frobenius sums on one-sided module generators.

A level passes only on a verified witness, and the two paths agree when the
verdict equals the solvability of the tensor system. When step 3 runs out of
combinations while the tensor system is solvable, the search stopped without
deciding (DepthTwoLevelVerdict.exhausted). An irreducible depth-2 level
never gets there: M1 = M (x)_R A with R = C_M(N) (Kadison-Szlachanyi,
Adv. Math. 179, 2003), so R = k gives dim A = dim M1 / dim M = n0 and the
level takes the exact gram_route. Steps 2 and 4 rest on one lemma (proof at
_frobenius_sum_failures): once up is associative and E a down-bimodule map,
both Frobenius sums are one-sided down-module maps, so an identity that
holds on generators G_L with span(incl(down) . G_L) = up, or G_R with
span(G_R . incl(down)) = up, holds on all of up. A level that is not
verified runs both steps on the basis.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional

from .algebra import Algebra, AlgebraError, CheckOutcome, LinMap, SubspaceBasis, centralizer, law_failures
from .frobenius import (both_sides, dual_bases_equations, frobenius_failures, nakayama, nakayama_of_functional,
                        scalar_of, sided)
from .linalg import SparseSolver, invert, rank, solve, sparse_axpy, sparse_scale


@dataclass
class DepthTwoLevelVerdict:
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
    # combinations tried when the free-basis search ran out: a stopped search
    exhausted: Optional[int] = None


@dataclass
class DepthTwoData:
    A: SubspaceBasis  # in M1
    B: SubspaceBasis  # in M2
    C: SubspaceBasis  # in M2
    source: str = "centralizers"
    uv: Optional[tuple] = None  # ({u_j}, {v_j}) in M2
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
    """A = C_M1(N), B = C_M2(M), C = C_M2(N), canonical bases.

    The constraints run on generators of the subalgebra (see centralizer):
    A on incl1(S_N) once level 1 is verified, so M1 is associative and incl1
    multiplicative; B on incl2(incl1(S_M)) and C on incl2(incl1(S_N)) once
    level 2 is, so M2 is associative and both inclusions multiplicative.
    S_N is t.n_generators; incl1(S_M) is level 1's incl_generators. Else on the
    basis.
    """
    level1, level2 = t.levels
    in_m1 = t.incl1.compose(t.base_sys.ext.embed)
    n_in_m1 = SubspaceBasis(t.M1, in_m1.columns)
    n_gens = None if t.n_generators is None else [in_m1.apply(g) for g in t.n_generators]
    A = centralizer(t.M1, n_in_m1, sub_generators=n_gens if level1.verified else None)
    m_in_m2 = SubspaceBasis(t.M2, t.incl2.compose(t.incl1).columns)
    m_gens = [t.incl2.apply(g) for g in level1.incl_generators]
    B = centralizer(t.M2, m_in_m2, sub_generators=m_gens if level2.verified else None)
    n_in_m2 = SubspaceBasis(
        t.M2,
        [t.incl2.apply(v) for v in n_in_m1.vectors],
    )
    n_gens2 = [t.incl2.apply(g) for g in n_gens] if level2.verified and n_gens is not None else None
    C = centralizer(t.M2, n_in_m2, sub_generators=n_gens2)
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
    # span(incl(down) . left_gens) = up = span(right_gens . incl(down)), or
    # None: the Frobenius sums are then checked on the basis of up
    left_gens: Optional[list] = None
    right_gens: Optional[list] = None

    def e_m(self, x: dict) -> dict:
        """The conditional expectation followed by the inclusion, up -> up."""
        return self.down_in_up.apply(self.cond_exp.apply(x))


def _level_context(level, scope: SubspaceBasis) -> _LevelContext:
    """The depth-2 context of a tower level over the one below it.

    When the level is verified, the Frobenius sums are checked on the
    one-sided module generators the level formed from its dual bases
    (TowerLevel.module_generators; see _frobenius_sum_failures). Otherwise
    on the basis.
    """
    left, right = level.module_generators() or (None, None)
    return _LevelContext(up=level.algebra, down=level.below, cond_exp=level.cond_exp,
                         down_in_up=level.incl, scope=scope, left_gens=left, right_gens=right)


def check_depth_two(t, d2: DepthTwoData) -> DepthTwoData:
    """Fill both level verdicts of d2 (in place) and return it."""
    d2.level1 = _solve_level(_level_context(t.levels[0], d2.A))
    d2.level2 = _solve_level(_level_context(t.levels[1], d2.B))
    if d2.level2.passed:
        d2.uv = (d2.level2.z, d2.level2.w)
    return d2


def _solve_level(ctx: _LevelContext) -> DepthTwoLevelVerdict:
    verdict = DepthTwoLevelVerdict(
        passed=False, n0=None, reason=None, z=None, w=None,
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
        verdict.exhausted = s * s
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
    span = SparseSolver(f, up.dim)
    z = []
    for cand in candidates:
        block = SparseSolver(f, up.dim)
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
    xs, _ = solve(mat, [{i * dd + t: c for t, c in one.items()} for i in range(len(z))])
    if None in xs:
        return None
    return [scope.apply(x) for x in xs]


def _verify_pair(ctx: _LevelContext, z: list, w: list) -> tuple[bool, str]:
    """All defining equations, exactly: membership of w in the scope,
    orthogonality E(w_i z_j) = delta_ij 1, and both Frobenius sums."""
    up = ctx.up
    cond = ctx.cond_exp
    down_unit = cond.apply(up.unit)
    for wi in w:
        if not ctx.scope.contains(wi):
            return False, "w outside the centralizer"
    for i, wi in enumerate(w):
        for j, zj in enumerate(z):
            if cond.apply(up.mul_sparse(wi, zj)) != (down_unit if i == j else {}):
                return False, f"orthogonality fails at ({i}, {j})"
    found = _frobenius_sum_failures(ctx, z, w)
    return (False, f"Frobenius sum fails at basis {found[0][0]}") if found else (True, "")


def _frobenius_sum_failures(ctx: _LevelContext, z: list, w: list) -> list:
    """The basis elements where L(x) = sum_i incl(E(x z_i)) w_i = x or
    R(x) = sum_i z_i incl(E(w_i x)) = x fails, as (x, L(x), R(x)), or []:
    the Frobenius identities of the pairs (z_i, w_i) (frobenius_failures).

    Checked on one-sided module generators. Where _level_context passes them,
    up is associative, E a down-bimodule map and incl multiplicative, so
    L(incl(d) x) = incl(d) L(x) and R(x incl(d)) = R(x) incl(d):
    {x : L(x) = x} is a left and {x : R(x) = x} a right down-submodule of up,
    for any z and w. So L = id on left_gens, with
    span(incl(down) . left_gens) = up, gives L = id on up, and R likewise on
    right_gens. Otherwise, or on a failure there, the basis is scanned
    (law_failures).
    """
    up, pairs = ctx.up, list(zip(z, w))
    gens = None if ctx.left_gens is None else sided(ctx.left_gens, ctx.right_gens)
    return law_failures(lambda els: frobenius_failures(up, ctx.e_m, pairs, els), gens, lambda: both_sides(up))


def _tensor_membership(ctx: _LevelContext) -> bool:
    """Independent brute-force path: is there any tensor T in scope (x) scope
    with both Frobenius contraction identities? The rows of the defining
    equations (frobenius.dual_bases_equations, the scope basis as factors)
    are solved from scratch by sparse incremental elimination, which stops at
    the first inconsistent row.

    For T = sum T_pq s_p (x) s_q, the left contraction
    sum T_pq incl(E(x s_p)) s_q is a left and the right one
    sum T_pq s_p incl(E(s_q x)) a right down-module map (as in
    _frobenius_sum_failures), so imposing the identities at x in left_gens and
    right_gens keeps exactly the solutions of imposing them at every basis x.
    """
    f = ctx.up.field
    s = ctx.scope.dim
    if s == 0:
        return False
    basis = [{x: f.one} for x in range(ctx.up.dim)]
    elements = sided(basis, basis) if ctx.left_gens is None else sided(ctx.left_gens, ctx.right_gens)
    solver = SparseSolver(f, s * s)
    for block in dual_bases_equations(ctx.up, ctx.e_m, ctx.scope.vectors, list(product(range(s), repeat=2)),
                                      elements):
        for row, value in block:
            if not solver.add_row(row, value):
                return False
    return solver.consistent


# ---------------------------------------------------------------------------
# structure of C
# ---------------------------------------------------------------------------


def verify_c_structure(t, d2: DepthTwoData) -> CheckOutcome:
    """Multiplication A (x) B -> C and B (x) A -> C bijective, C = A e2 A,
    e1 c e1 = e1 E_M1(c), C isomorphic to a full matrix algebra via explicit
    matrix units from B (x) B, char k does not divide n, dim A = dim B.

    The relations xi_ij xi_kl = delta_jk xi_il run on the corner tuples
    (i, 0, 0, j), (0, j, k, 0) while level 2 is verified, so M2 is
    associative: xi_ij xi_kl = xi_i0 (xi_0j xi_k0) xi_0l = delta_jk xi_il.
    Else, or on a failure there, on all n^4 tuples (law_failures)."""
    f = t.M.field
    M2 = t.M2
    failures = []
    A, B, C = d2.A, d2.B, d2.C
    if A.dim != B.dim:
        failures.append({"kind": "dim A != dim B", "dims": (A.dim, B.dim)})
    n = d2.n or B.dim

    # A (x) B -> C and B (x) A -> C bijective via multiplication, with A
    # pushed into M2 once
    a_in_m2 = [t.incl2.apply(a) for a in A.vectors]
    for first, second, label in ((a_in_m2, B.vectors, "AB"), (B.vectors, a_in_m2, "BA")):
        cols = []
        ok = True
        for i, xv in enumerate(first):
            for j, yv in enumerate(second):
                coords = C.coords(M2.mul_sparse(xv, yv))
                if coords is None:
                    failures.append({"kind": f"{label}-product-outside-C", "pair": (i, j)})
                    ok = False
                    break
                cols.append(coords)
            if not ok:
                break
        if ok:
            if len(first) * len(second) != C.dim:
                failures.append({"kind": f"{label}-dimension-mismatch"})
            elif rank(LinMap(f, cols, C.dim)) != C.dim:
                failures.append({"kind": f"{label}-multiplication-not-bijective"})

    # A e2 A spans C
    vecs = []
    for ah in a_in_m2:
        left = M2.mul_sparse(ah, t.e2)
        for a2h in a_in_m2:
            vecs.append(M2.mul_sparse(left, a2h))
    span = SubspaceBasis.from_spanning(M2, vecs)
    if not span.equals(C):
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
            def unit_failures(tuples: list) -> Iterator[dict]:
                for i, j, k, l in tuples:
                    if M2.mul_sparse(units[i][j], units[k][l]) != (units[i][l] if j == k else {}):
                        yield {"kind": "matrix-unit-relations", "tuple": (i, j, k, l)}

            corners = [(i, 0, 0, j) for i in range(n) for j in range(n)]
            corners += [(0, j, k, 0) for j in range(n) for k in range(n)]
            found = law_failures(unit_failures, corners if t.levels[1].verified else None,
                                 lambda: product(range(n), repeat=4))
            failures += found
            ok = not found
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


def _subalgebra_generators(sub: SubspaceBasis) -> Optional[list]:
    """Elements of the ambient whose words with 1 span sub: the generators of
    its induced algebra (SubspaceBasis.induced_generators), embedded. None
    when sub is not a unital subalgebra."""
    try:
        gens = sub.induced_generators()
    except AlgebraError:
        return None
    embed = sub.induced_algebra()[1]
    return [embed.apply(g) for g in gens]


def _bimodule_failures(C: SubspaceBasis, E: LinMap, below: Algebra, sub: list, into_m2, label: str,
                       gens: Optional[list] = None) -> list:
    """Failures of the bimodule law E(s c s') = s E(c) s' of E: C -> below
    (C coordinates in, below coordinates out), for s, s' in the basis sub of
    a subalgebra of below acting on M2 through into_m2, and c in the basis of
    C, with s c s' in C; at most one per (s, c).

    Given gens, elements whose words with 1 span sub (pass them only once M2
    and below are associative and into_m2 a unital homomorphism), the laws
    E(s c) = s E(c) and E(c s) = E(c) s, with s c and c s in C, are first
    checked for s in gens alone. The s that satisfy the left law for every c
    form a subalgebra, as (s s')c = s(s'c) and
    E(s s' c) = s E(s'c) = s s' E(c), and likewise on the right; so the laws
    hold for all of sub, and then E(s c s') = s E(c s') = s E(c) s'. On any
    failure there, the first failures of the scan over basis triples
    (s, c, s') are listed (law_failures).
    """
    M2 = C.ambient

    def failures(factors: list) -> Iterator[dict]:
        """Over factors [(s, [s', ...])], each s and s' a pair (in below, in M2)
        or None for 1, which costs no product: E(s c s') != s E(c) s' in loop
        order s, c, s', the first failure of each (s, c)."""
        for s, rights in factors:
            for i, c_vec in enumerate(C.vectors):
                sc = c_vec if s is None else M2.mul_sparse(s[1], c_vec)
                s_ec = E.columns[i] if s is None else below.mul_sparse(s[0], E.columns[i])
                for r in rights:
                    coords = C.coords(sc if r is None else M2.mul_sparse(sc, r[1]))
                    if coords is None:
                        yield {"kind": f"{label}C{label}-product-outside-C"}
                        break
                    if E.apply(coords) != (s_ec if r is None else below.mul_sparse(s_ec, r[0])):
                        yield {"kind": f"E_{label}-bimodule", "basis": i}
                        break

    def triples() -> list:
        pairs = [(s, into_m2(s)) for s in sub]
        return [(s, pairs) for s in pairs]

    one_sided = None
    if gens is not None:  # E(g c) = g E(c), then E(c g) = E(c) g
        pairs = [(g, into_m2(g)) for g in gens]
        one_sided = [(g, [None]) for g in pairs] + [(None, pairs)]
    return law_failures(failures, one_sided, triples)


def conditional_expectations(t, d2: DepthTwoData) -> tuple[Optional[LinMap], Optional[LinMap], CheckOutcome]:
    """E_B(c) = sum_j F(c u_j) v_j (scalar-gated) and E_A = E_M1 restricted
    to C, both verified as conditional expectations, plus the Markov
    relations of F.

    The bimodule laws run on generators of B and of A (_bimodule_failures)
    while level 2 is verified and nothing here has failed before them: M1
    and M2 are then associative, incl2 multiplicative, and B, resp. A, was
    verified inside C. Else on every basis triple.
    """
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
    b_gens = _subalgebra_generators(d2.B) if t.levels[1].verified and not failures else None
    failures += _bimodule_failures(C, E_B, M2, d2.B.vectors, lambda b: b, "B", b_gens)
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
    a_in_m2 = [t.incl2.apply(a) for a in d2.A.vectors]
    for a, ah in zip(d2.A.vectors, a_in_m2):
        coords = C.coords(ah)
        if coords is None:
            failures.append({"kind": "A-not-inside-C"})
            break
        if E_A.apply(coords) != a:
            failures.append({"kind": "E_A-not-identity-on-A"})
            break
    a_gens = _subalgebra_generators(d2.A) if t.levels[1].verified and not failures else None
    failures += _bimodule_failures(C, E_A, M1, d2.A.vectors, t.incl2.apply, "A", a_gens)

    # Markov relations
    for ah in a_in_m2:
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


def _scalar_row(alg: Algebra, functional: LinMap, vectors: list) -> Optional[list]:
    """The c with functional(v) = c 1 in alg for each v in vectors, or None
    at the first value that is not a scalar."""
    row = []
    for v in vectors:
        val = scalar_of(alg, functional.apply(v))
        if val is None:
            return None
        row.append(val)
    return row


def f_scalar_on_c(t, d2: DepthTwoData) -> bool:
    return _scalar_row(t.M, t.F, d2.C.vectors) is not None


# ---------------------------------------------------------------------------
# Nakayama relations
# ---------------------------------------------------------------------------


@dataclass
class NakayamaRelations:
    q_C: Optional[LinMap] = None  # Nakayama map of F on C, in C coordinates
    q_A: Optional[LinMap] = None
    q_B: Optional[LinMap] = None
    report: Optional[CheckOutcome] = None


def nakayama_relations(t, d2: DepthTwoData, on_generators: bool = False) -> NakayamaRelations:
    """q of F on C, q_A of E_M on A, q_B of E_M1 on B; the restrictions
    q|_A = q_A and q|_B = q_B, the commuting square with E_M1, and
    q(e1) = e1, q(e2) = e2.

    on_generators says every check before this one passed, c-structure
    included: M2 is then associative and C = AB. Each q is then checked
    multiplicative on generators (frobenius._automorphism_failures): q_A on
    the induced generators S_A of A, q_B and q~ on S_B, and q on
    incl2(S_A) and S_B, whose words span AB = C."""
    out = NakayamaRelations()
    failures = []
    C_alg, c_embed = d2.C.induced_algebra()
    A_alg, a_embed = d2.A.induced_algebra()
    B_alg, b_embed = d2.B.induced_algebra()
    s_a = s_b = s_c = None
    if on_generators:
        s_a, s_b = d2.A.induced_generators(), d2.B.induced_generators()
        s_c = [d2.C.coords(t.incl2.apply(a_embed.apply(g))) for g in s_a] + [
            d2.C.coords(b_embed.apply(g)) for g in s_b]

    for attr, scope_alg, gens, values_in, functional, vectors, not_scalar, failed in (
            ("q_C", C_alg, s_c, t.M, t.F, d2.C.vectors, "F-not-scalar-on-C", "q-on-C-failed"),
            ("q_A", A_alg, s_a, t.M, t.E_M, d2.A.vectors, "E_M-not-scalar-on-A", "q_A-failed"),
            ("q_B", B_alg, s_b, t.M1, t.E_M1, d2.B.vectors, "E_M1-not-scalar-on-B", "q_B-failed")):
        row = _scalar_row(values_in, functional, vectors)
        if row is None:
            out.report = CheckOutcome(False, [{"kind": not_scalar}])
            return out
        q, res = nakayama_of_functional(scope_alg, row, gens)
        if not res.ok:
            detail = {"detail": res.failures[:1]} if attr == "q_C" else {}
            out.report = CheckOutcome(False, [{"kind": failed, **detail}])
            return out
        setattr(out, attr, q)
    q, q_a, q_b = out.q_C, out.q_A, out.q_B

    def q_of(vec_in_c):
        coords = d2.C.coords(vec_in_c)
        return None if coords is None else c_embed.apply(q.apply(coords))

    # q restricted to A equals q_A
    for i, a in enumerate(d2.A.vectors):
        qa = q_of(t.incl2.apply(a))
        if qa is None:
            failures.append({"kind": "A-outside-C"})
            break
        if qa != t.incl2.apply(a_embed.apply(q_a.columns[i])):
            failures.append({"kind": "q|_A != q_A", "basis": i})
            break
    # q restricted to B equals q_B
    for i, b in enumerate(d2.B.vectors):
        qb = q_of(b)
        if qb is None:
            failures.append({"kind": "B-outside-C"})
            break
        if qb != b_embed.apply(q_b.columns[i]):
            failures.append({"kind": "q|_B != q_B", "basis": i})
            break
    # q~ of the composite Frobenius map F on scope B agrees with q_B
    q_tilde, res_tilde = nakayama(t.M2, t.F, d2.B, s_b)
    if not res_tilde.ok:
        failures.append({"kind": "q-tilde-failed"})
    elif q_tilde != q_b:
        failures.append({"kind": "q-tilde != q_B"})

    # E_M1 o q = q_A o E_M1 on C
    for i, c_vec in enumerate(d2.C.vectors):
        lhs = t.E_M1.apply(q_of(c_vec))
        coords = d2.A.coords(t.E_M1.apply(c_vec))
        if coords is None:
            failures.append({"kind": "E_M1(C)-outside-A"})
            break
        if lhs != a_embed.apply(q_a.apply(coords)):
            failures.append({"kind": "commuting-square", "basis": i})
            break

    # q fixes the Jones idempotents
    for name, vec in (("e1", t.e1_in_m2()), ("e2", t.e2)):
        q_img = q_of(vec)
        if q_img is None or q_img != vec:
            failures.append({"kind": f"q({name}) != {name}"})
    out.report = CheckOutcome(not failures, failures)
    return out
