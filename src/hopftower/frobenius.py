"""Frobenius systems on algebra extensions.

An extension is N inside M with a bimodule map E: M -> N. The dual-bases
tensor is solved as a single unknown in M (x)_N M, where it is unique, so
every downstream object (index, Nakayama automorphism, tower) is canonical.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import (
    Algebra,
    AlgebraError,
    LinMap,
    SubspaceBasis,
    TensorQuotient,
    centralizer,
    tensor_over_subalgebra,
    verify_algebra,
)
from .linalg import (
    Matrix,
    basis_vector,
    rank,
    solve,
    sparse_add,
    sparse_apply,
    sparse_columns,
    vec_eq,
    vec_is_zero,
    vec_scale,
)


class FrobeniusError(ValueError):
    """Extension data inconsistent with the Frobenius axioms."""


@dataclass
class ExtensionSpec:
    """Extension N in M; E (when given) maps M to N-coordinates."""

    M: Algebra
    N: SubspaceBasis
    E: Optional[LinMap] = None
    dual_pairs: Optional[list[tuple[list, list]]] = None

    def __post_init__(self):
        if not self.N.is_unital_subalgebra():
            raise AlgebraError("N is not a unital subalgebra of M")
        self._n_alg, self._embed = self.N.induced_algebra()

    @property
    def n_algebra(self) -> Algebra:
        return self._n_alg

    @property
    def embed(self) -> LinMap:
        """N-coordinates -> M-coordinates."""
        return self._embed

    def e_into_m(self, E: Optional[LinMap] = None) -> LinMap:
        """E followed by the embedding, as a map M -> M."""
        E = E or self.E
        if E is None:
            raise FrobeniusError("extension carries no E map")
        return self._embed.compose(E)


@dataclass
class FrobeniusFlags:
    split: Optional[bool] = None
    separable: Optional[bool] = None
    strongly_separable: Optional[bool] = None
    irreducible: Optional[bool] = None
    normalized: Optional[bool] = None
    index_scalar: Optional[bool] = None
    centralizer_dim: Optional[int] = None


@dataclass
class FrobeniusSystem:
    """Verified E with dual bases for one extension."""

    ext: ExtensionSpec
    E: LinMap
    tq: TensorQuotient
    dual_tensor: list  # coordinates in tq's canonical basis
    dual_pairs: list[tuple[list, list]]  # a representative list in M (x)_k M
    index: list  # sum x_i y_i as an M-vector
    lambda_inverse: Optional[object]
    flags: FrobeniusFlags

    @property
    def M(self) -> Algebra:
        return self.ext.M


@dataclass
class CheckOutcome:
    ok: bool
    failures: list

    def summary(self) -> str:
        return "ok" if self.ok else f"{len(self.failures)} failure(s); first: {self.failures[:1]}"


def algebra_outcome(alg: Algebra) -> CheckOutcome:
    """verify_algebra as a check outcome: unit then associativity failures,
    with both sides in report-witness form."""
    rep = verify_algebra(alg)
    w = alg.field.witness
    failures = [{"basis": fl["basis"], "left": w(fl["left"]), "right": w(fl["right"])}
                for fl in rep.unit_failures]
    failures += [{"triple": fl["triple"], "lhs": w(fl["lhs"]), "rhs": w(fl["rhs"])}
                 for fl in rep.assoc_failures]
    return CheckOutcome(rep.ok, failures)


# ---------------------------------------------------------------------------
# conditional expectations
# ---------------------------------------------------------------------------


def verify_conditional_expectation(ext: ExtensionSpec, E: LinMap, max_failures: int = 5) -> CheckOutcome:
    """E(nmn') = nE(m)n' on basis triples and E(1) = 1.

    The two-sided property is equivalent to the pair of one-sided ones
    (E(n m) = n E(m) and E(m n) = E(m) n on basis pairs), which is what gets
    checked; this keeps the cost at 2 dim N dim M products.
    """
    M, f = ext.M, ext.M.field
    n_alg = ext.n_algebra
    failures = []
    e_unit = E.apply(M.unit)
    if not vec_eq(f, e_unit, n_alg.unit):
        failures.append({"kind": "unit", "value": f.witness(e_unit)})
    n_in_m = [M.to_sparse(ext.embed.apply(basis_vector(f, n_alg.dim, i))) for i in range(n_alg.dim)]
    # E(e_m) for each basis m, read once as sparse columns; both sides of
    # each identity are sparse dicts without zeros, compared as such
    e_cols = sparse_columns(E.matrix)
    for a, na in enumerate(n_in_m):
        ea = {a: f.one}
        for m in range(M.dim):
            em = {m: f.one}
            lhs = sparse_apply(f, e_cols, M.mul_sparse(na, em))
            if lhs != n_alg.mul_sparse(ea, e_cols[m]):
                failures.append({"kind": "bimodule-left", "pair": (a, m)})
                if len(failures) >= max_failures:
                    return CheckOutcome(False, failures)
            lhs = sparse_apply(f, e_cols, M.mul_sparse(em, na))
            if lhs != n_alg.mul_sparse(e_cols[m], ea):
                failures.append({"kind": "bimodule-right", "pair": (m, a)})
                if len(failures) >= max_failures:
                    return CheckOutcome(False, failures)
    return CheckOutcome(not failures, failures)


def verify_bimodule_map(ext: ExtensionSpec, E: LinMap, max_failures: int = 5) -> CheckOutcome:
    """The bimodule property alone (Frobenius homomorphisms need not be normalized)."""
    out = verify_conditional_expectation(ext, E, max_failures=max_failures + 1)
    failures = [fl for fl in out.failures if fl["kind"] != "unit"]
    return CheckOutcome(not failures, failures)


# ---------------------------------------------------------------------------
# dual bases
# ---------------------------------------------------------------------------


def _contraction_rows(ext: ExtensionSpec, E: LinMap, tq: TensorQuotient):
    """Linear maps T -> (both Frobenius sums), rows for each basis m of M."""
    M, f = ext.M, ext.M.field
    d = M.dim
    e_m = ext.e_into_m(E)
    left_rows = []  # sum E(m x_i) y_i
    right_rows = []  # sum x_i E(y_i m)
    for m in range(d):
        em = {m: f.one}
        lrow = [[f.zero] * tq.dim for _ in range(d)]
        rrow = [[f.zero] * tq.dim for _ in range(d)]
        for c, (i, j) in enumerate(tq.pairs):
            emx = e_m.apply(M.to_dense(M.mul_sparse(em, {i: f.one})))
            vec = M.to_dense(M.mul_sparse(M.to_sparse(emx), {j: f.one}))
            for k in range(d):
                lrow[k][c] = vec[k]
            eym = e_m.apply(M.to_dense(M.mul_sparse({j: f.one}, em)))
            vec = M.to_dense(M.mul_sparse({i: f.one}, M.to_sparse(eym)))
            for k in range(d):
                rrow[k][c] = vec[k]
        left_rows.append(lrow)
        right_rows.append(rrow)
    return left_rows, right_rows


def solve_dual_bases(ext: ExtensionSpec, E: Optional[LinMap] = None) -> FrobeniusSystem:
    """Solve both Frobenius identities for the tensor in M (x)_N M.

    Raises FrobeniusError when the system is inconsistent (E not Frobenius)
    or when the solution is not unique in the quotient.
    """
    E = E or ext.E
    if E is None:
        raise FrobeniusError("no E supplied")
    M, f = ext.M, ext.M.field
    bi = verify_bimodule_map(ext, E)
    if not bi.ok:
        raise FrobeniusError(f"E is not an N-bimodule map: {bi.failures[:1]}")
    tq = tensor_over_subalgebra(M, ext.N)
    left_rows, right_rows = _contraction_rows(ext, E, tq)
    rows = []
    rhs = []
    for m in range(M.dim):
        target = basis_vector(f, M.dim, m)
        for k in range(M.dim):
            rows.append(left_rows[m][k])
            rhs.append(target[k])
        for k in range(M.dim):
            rows.append(right_rows[m][k])
            rhs.append(target[k])
    res = solve(Matrix(f, rows), rhs)
    if res is None:
        raise FrobeniusError("Frobenius equations are inconsistent: E is not a Frobenius homomorphism")
    tensor, kern = res
    if kern:
        raise FrobeniusError("dual-bases tensor is not unique in M (x)_N M")
    pairs = _tensor_to_pairs(M, tq, tensor)
    index = _index_of_pairs(M, pairs)
    lam_inv = scalar_of(M, index)
    return FrobeniusSystem(
        ext=ext,
        E=E,
        tq=tq,
        dual_tensor=tensor,
        dual_pairs=pairs,
        index=index,
        lambda_inverse=lam_inv,
        flags=FrobeniusFlags(),
    )


def _tensor_to_pairs(M: Algebra, tq: TensorQuotient, tensor: list) -> list[tuple[list, list]]:
    f = M.field
    pairs = []
    for c, val in enumerate(tensor):
        if f.is_zero(val):
            continue
        i, j = tq.pairs[c]
        x = basis_vector(f, M.dim, i)
        y = vec_scale(f, val, basis_vector(f, M.dim, j))
        pairs.append((x, y))
    if not pairs:
        pairs.append(([f.zero] * M.dim, [f.zero] * M.dim))
    return pairs


def _index_of_pairs(M: Algebra, pairs: list[tuple[list, list]]) -> list:
    f = M.field
    total = [f.zero] * M.dim
    for x, y in pairs:
        prod = M.mul(x, y)
        total = [f.add(a, b) for a, b in zip(total, prod)]
    return total


def scalar_of(M: Algebra, v: list):
    """c with v = c * unit, or None when v is not a scalar multiple of 1."""
    f = M.field
    unit = M.unit
    c = None
    for a, u in zip(v, unit):
        if f.is_zero(u):
            if not f.is_zero(a):
                return None
        else:
            cand = f.div(a, u)
            if c is None:
                c = cand
            elif not f.eq(c, cand):
                return None
    if c is None:
        c = f.zero
    if not vec_eq(f, v, vec_scale(f, c, unit)):
        return None
    return c


def verify_frobenius_identities(sys: FrobeniusSystem, max_failures: int = 3) -> CheckOutcome:
    """Both identities sum E(m x_i) y_i = m = sum x_i E(y_i m) on every basis m."""
    M, f = sys.M, sys.M.field
    e_m = sys.ext.e_into_m(sys.E)
    failures = []
    for m in range(M.dim):
        em = basis_vector(f, M.dim, m)
        left = [f.zero] * M.dim
        right = [f.zero] * M.dim
        for x, y in sys.dual_pairs:
            lterm = M.mul(e_m.apply(M.mul(em, x)), y)
            rterm = M.mul(x, e_m.apply(M.mul(y, em)))
            left = [f.add(a, b) for a, b in zip(left, lterm)]
            right = [f.add(a, b) for a, b in zip(right, rterm)]
        if not vec_eq(f, left, em) or not vec_eq(f, right, em):
            failures.append({"basis": m, "left": f.witness(left), "right": f.witness(right)})
            if len(failures) >= max_failures:
                break
    return CheckOutcome(not failures, failures)


def pairs_to_tensor(sys_tq: TensorQuotient, M: Algebra, pairs: list[tuple[list, list]]) -> list:
    """Project a representative pair list into the canonical quotient basis."""
    f = M.field
    acc: dict = {}
    for x, y in pairs:
        for col, val in sys_tq.pure_tensor(x, y).items():
            sparse_add(f, acc, col, val)
    return sys_tq.project(acc)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def classify(ext: ExtensionSpec, sys: FrobeniusSystem) -> FrobeniusFlags:
    """Decide split / separable / strongly separable / irreducible exactly."""
    M, f = ext.M, ext.M.field
    cm = centralizer(M, ext.N, require_subalgebra=False)
    flags = FrobeniusFlags()
    flags.centralizer_dim = cm.dim
    flags.irreducible = cm.dim == 1
    e_unit = sys.E.apply(M.unit)
    flags.normalized = vec_eq(f, e_unit, ext.n_algebra.unit)

    # split: some d in C_M(N) with E(d) = 1
    cols_split = [sys.E.apply(v) for v in cm.vectors]
    mat = Matrix(f, [[cols_split[j][i] for j in range(cm.dim)] for i in range(ext.n_algebra.dim)])
    flags.split = solve(mat, ext.n_algebra.unit) is not None

    # separable: some d in C_M(N) with sum x_i d y_i = 1
    cols_sep = []
    for v in cm.vectors:
        total = [f.zero] * M.dim
        for x, y in sys.dual_pairs:
            term = M.mul(M.mul(x, v), y)
            total = [f.add(a, b) for a, b in zip(total, term)]
        cols_sep.append(total)
    mat = Matrix(f, [[cols_sep[j][i] for j in range(cm.dim)] for i in range(M.dim)])
    flags.separable = solve(mat, M.unit) is not None

    lam_inv = scalar_of(M, sys.index)
    flags.index_scalar = lam_inv is not None
    flags.strongly_separable = (
        flags.index_scalar
        and not f.is_zero(lam_inv)
        and not vec_is_zero(f, e_unit)
    )
    sys.flags = flags
    return flags


def normalize(sys: FrobeniusSystem) -> FrobeniusSystem:
    """Rescale so E(1) = 1, replacing E by mu^-1 E and x_i by mu x_i."""
    M, f = sys.M, sys.M.field
    ext = sys.ext
    e_unit = sys.E.apply(M.unit)
    mu = scalar_of(ext.n_algebra, e_unit)
    if mu is None:
        raise FrobeniusError("E(1) is not a scalar multiple of 1")
    if f.is_zero(mu):
        raise FrobeniusError("E(1) = 0, cannot normalize")
    if f.eq(mu, f.one):
        return sys
    inv = f.inv(mu)
    new_e = LinMap(sys.E.matrix.scale(inv))
    new_pairs = [(vec_scale(f, mu, x), list(y)) for x, y in sys.dual_pairs]
    new_tensor = vec_scale(f, mu, sys.dual_tensor)
    new_index = vec_scale(f, mu, sys.index)
    return FrobeniusSystem(
        ext=ext,
        E=new_e,
        tq=sys.tq,
        dual_tensor=new_tensor,
        dual_pairs=new_pairs,
        index=new_index,
        lambda_inverse=scalar_of(M, new_index),
        flags=FrobeniusFlags(),
    )


# ---------------------------------------------------------------------------
# Nakayama automorphism
# ---------------------------------------------------------------------------


@dataclass
class NakayamaResult:
    map: LinMap  # scope coords -> scope coords
    ok: bool
    failures: list


def nakayama(M: Algebra, E: LinMap, scope: SubspaceBasis) -> NakayamaResult:
    """Unique q on scope with E(q(c) m) = E(m c) for all m, checked to be an
    algebra automorphism of scope."""
    f = M.field
    s = scope.dim
    n_dim = E.codomain_dim
    # coefficient matrix: columns = scope basis z_j, rows = (m, N-coordinate)
    rows = []
    for m in range(M.dim):
        em = basis_vector(f, M.dim, m)
        images = [E.apply(M.mul(z, em)) for z in scope.vectors]
        for t in range(n_dim):
            rows.append([images[j][t] for j in range(s)])
    coeff = Matrix(f, rows)
    cols = []
    failures = []
    for c_vec in scope.vectors:
        rhs = []
        for m in range(M.dim):
            em = basis_vector(f, M.dim, m)
            val = E.apply(M.mul(em, c_vec))
            rhs.extend(val)
        res = solve(coeff, rhs)
        if res is None:
            failures.append({"kind": "no-solution"})
            cols.append([f.zero] * s)
            continue
        x, kern = res
        if kern:
            failures.append({"kind": "non-unique"})
        cols.append(x)
    qmap = LinMap.from_columns(f, cols)
    if not failures:
        # automorphism checks inside scope
        sub_alg, _ = scope.induced_algebra()
        unit = sub_alg.unit
        if not vec_eq(f, qmap.apply(unit), unit):
            failures.append({"kind": "unit-not-fixed"})
        for i in range(s):
            for j in range(s):
                prod = sub_alg.to_dense(sub_alg.table[i][j])
                lhs = qmap.apply(prod)
                rhs = sub_alg.mul(
                    qmap.apply(basis_vector(f, s, i)), qmap.apply(basis_vector(f, s, j))
                )
                if not vec_eq(f, lhs, rhs):
                    failures.append({"kind": "not-multiplicative", "pair": (i, j)})
        if rank(qmap.matrix) != s:
            failures.append({"kind": "not-bijective"})
    return NakayamaResult(qmap, not failures, failures)


def nakayama_of_functional(alg: Algebra, functional: list) -> NakayamaResult:
    """Nakayama automorphism of a Frobenius algebra functional phi: alg -> k.

    functional is the coordinate row of phi; scope is the whole algebra.
    """
    f = alg.field
    scope = SubspaceBasis(alg, [basis_vector(f, alg.dim, i) for i in range(alg.dim)])
    E = LinMap(Matrix(f, [list(functional)]))
    return nakayama(alg, E, scope)


# ---------------------------------------------------------------------------
# transitivity
# ---------------------------------------------------------------------------


def compose(sys_rm: FrobeniusSystem, sys_mn: FrobeniusSystem, ident: LinMap) -> FrobeniusSystem:
    """Composite Frobenius system for a tower N in M in R.

    sys_rm is for R over M, sys_mn for M over N; ident embeds sys_mn's M into
    R (its image must be sys_rm's subalgebra). Dual bases are the products
    {z_j x_i}, {y_i w_j}; the composite homomorphism is E o F.
    """
    R = sys_rm.M
    f = R.field
    m_alg = sys_mn.M
    # sanity: ident must carry m_alg onto sys_rm.N as algebras
    for i in range(m_alg.dim):
        for j in range(m_alg.dim):
            lhs = ident.apply(m_alg.to_dense(m_alg.table[i][j]))
            rhs = R.mul(ident.apply(basis_vector(f, m_alg.dim, i)), ident.apply(basis_vector(f, m_alg.dim, j)))
            if not vec_eq(f, lhs, rhs):
                raise FrobeniusError("identification M -> R is not an algebra map")
    # F: R -> M coords (translate sys_rm.E through the N_RM basis -> m_alg coords)
    n_rm = sys_rm.ext.N
    basis_in_m = []
    m_mat = Matrix(f, [[ident.matrix.data[i][j] for j in range(m_alg.dim)] for i in range(R.dim)])
    for v in n_rm.vectors:
        res = solve(m_mat, list(v))
        if res is None:
            raise FrobeniusError("sys_rm subalgebra does not match the identification image")
        basis_in_m.append(res[0])
    to_m = LinMap.from_columns(f, basis_in_m)  # N_RM coords -> m_alg coords
    F_map = to_m.compose(sys_rm.E)  # R -> m_alg coords
    E_comp = sys_mn.E.compose(F_map)  # R -> N coords (of sys_mn)

    n_in_r_vectors = [
        ident.apply(sys_mn.ext.embed.apply(basis_vector(f, sys_mn.ext.n_algebra.dim, i)))
        for i in range(sys_mn.ext.n_algebra.dim)
    ]
    ext_rn = ExtensionSpec(R, SubspaceBasis(R, n_in_r_vectors), E=E_comp)

    pairs = []
    for z, w in sys_rm.dual_pairs:
        for x, y in sys_mn.dual_pairs:
            zx = R.mul(z, ident.apply(x))
            yw = R.mul(ident.apply(y), w)
            pairs.append((zx, yw))
    tq = tensor_over_subalgebra(R, ext_rn.N)
    tensor = pairs_to_tensor(tq, R, pairs)
    index = _index_of_pairs(R, pairs)
    out = FrobeniusSystem(
        ext=ext_rn,
        E=E_comp,
        tq=tq,
        dual_tensor=tensor,
        dual_pairs=pairs,
        index=index,
        lambda_inverse=scalar_of(R, index),
        flags=FrobeniusFlags(),
    )
    check = verify_frobenius_identities(out)
    if not check.ok:
        raise FrobeniusError(f"composite system fails the Frobenius identities: {check.failures[:1]}")
    return out


# ---------------------------------------------------------------------------
# separability element for a polynomial extension of the ground field
# ---------------------------------------------------------------------------


@dataclass
class SeparabilityElement:
    algebra: Algebra  # k[x]/(p)
    tensor: dict  # sparse element of algebra (x)_k algebra
    mu_of_e: list
    centrality_ok: bool


def polynomial_quotient_algebra(field, coeffs: list) -> Algebra:
    """k[x]/(p) with p = x^n - sum c_i x^i, basis 1, a, ..., a^(n-1)."""
    n = len(coeffs)
    if n == 0:
        raise FrobeniusError("polynomial must have degree >= 1")
    f = field
    # powers a^k for k = 0..2n-2 as coordinate vectors
    powers = []
    for k in range(n):
        powers.append(basis_vector(f, n, k))
    for k in range(n, 2 * n - 1):
        prev = powers[k - 1]
        shifted = [f.zero] + prev[:-1]
        top = prev[-1]
        if not f.is_zero(top):
            shifted = [f.add(a, f.mul(top, c)) for a, c in zip(shifted, coeffs)]
        powers.append(shifted)
    entries = []
    for i in range(n):
        for j in range(n):
            for k, c in enumerate(powers[i + j]):
                if not f.is_zero(c):
                    entries.append((i, j, k, c))
    return Algebra.from_entries(f, n, entries, basis_vector(f, n, 0))


def separability_element_field(field, coeffs: list) -> SeparabilityElement:
    """The explicit separability element for k[x]/(p), p = x^n - sum c_i x^i.

    Requires p'(a) (and a itself) invertible in the quotient; raises
    FrobeniusError otherwise (inseparable p, or x divides p).
    """
    f = field
    n = len(coeffs)
    alg = polynomial_quotient_algebra(f, coeffs)
    if n == 1:
        # e = 1 (x) 1
        one = alg.unit
        tensor = {0: f.one}
        return SeparabilityElement(alg, tensor, one, True)
    # p'(a) = n a^(n-1) - sum_{j>=1} j c_j a^(j-1)
    dp = [f.zero] * n
    dp[n - 1] = f.from_int(n)
    for j in range(1, n):
        dp[j - 1] = f.sub(dp[j - 1], f.mul(f.from_int(j), coeffs[j]))
    inv_dp = _invert_element(alg, dp)
    if inv_dp is None:
        raise FrobeniusError("p'(alpha) is not invertible: polynomial is not separable")
    alpha = basis_vector(f, n, 1)
    inv_alpha = _invert_element(alg, alpha)
    if inv_alpha is None:
        raise FrobeniusError("alpha is not invertible (x divides p)")
    tensor: dict = {}
    inv_pow = alg.mul(inv_dp, inv_alpha)  # 1/(p'(a) a) at i = 0
    for i in range(n):
        numer = [f.zero] * n
        for j in range(i + 1):
            term = vec_scale(f, coeffs[j], basis_vector(f, n, j))
            numer = [f.add(a, b) for a, b in zip(numer, term)]
        second = alg.mul(numer, inv_pow)
        for k, c in enumerate(second):
            sparse_add(f, tensor, i * n + k, c)
        inv_pow = alg.mul(inv_pow, inv_alpha)
    mu = _tensor_multiply_out(alg, tensor)
    central = _tensor_central(alg, tensor)
    return SeparabilityElement(alg, tensor, mu, central)


def _invert_element(alg: Algebra, v: list) -> Optional[list]:
    res = solve(alg.lmul_matrix(v), alg.unit)
    return None if res is None else res[0]


def _tensor_multiply_out(alg: Algebra, tensor: dict) -> list:
    f = alg.field
    n = alg.dim
    out = [f.zero] * n
    for col, c in tensor.items():
        i, k = divmod(col, n)
        term = alg.to_dense(alg.mul_sparse({i: c}, {k: f.one}))
        out = [f.add(a, b) for a, b in zip(out, term)]
    return out


def _tensor_central(alg: Algebra, tensor: dict) -> bool:
    """m e = e m in alg (x)_k alg for every basis m."""
    f = alg.field
    n = alg.dim
    for m in range(n):
        lhs: dict = {}
        rhs: dict = {}
        for col, c in tensor.items():
            i, k = divmod(col, n)
            for l, cv in alg.mul_sparse({m: f.one}, {i: c}).items():
                sparse_add(f, lhs, l * n + k, cv)
            for l, cv in alg.mul_sparse({k: c}, {m: f.one}).items():
                sparse_add(f, rhs, i * n + l, cv)
        if lhs != rhs:
            return False
    return True
