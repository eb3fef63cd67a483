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
    verify_algebra,
)
from .linalg import rank, solve, sparse_add, sparse_axpy, sparse_scale, sparse_vector


class FrobeniusError(ValueError):
    """Extension data inconsistent with the Frobenius axioms."""


@dataclass
class ExtensionSpec:
    """Extension N in M; E (when given) maps M to N-coordinates."""

    M: Algebra
    N: SubspaceBasis
    E: Optional[LinMap] = None
    dual_pairs: Optional[list[tuple[dict, dict]]] = None

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
    dual_tensor: dict  # coordinates in tq's canonical basis
    dual_pairs: list[tuple[dict, dict]]  # a representative list in M (x)_k M
    index: dict  # sum x_i y_i as an element of M
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
    if e_unit != n_alg.unit:
        failures.append({"kind": "unit", "value": f.witness(n_alg.to_dense(e_unit))})
    # E(e_m) for each basis m is the column E.columns[m]
    e_cols = E.columns
    for a, na in enumerate(ext.embed.columns):
        ea = {a: f.one}
        for m in range(M.dim):
            em = {m: f.one}
            lhs = E.apply(M.mul_sparse(na, em))
            if lhs != n_alg.mul_sparse(ea, e_cols[m]):
                failures.append({"kind": "bimodule-left", "pair": (a, m)})
                if len(failures) >= max_failures:
                    return CheckOutcome(False, failures)
            lhs = E.apply(M.mul_sparse(em, na))
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
    """Linear maps T -> (both Frobenius sums), as columns over the quotient
    basis: for each basis m of M, sum E(m x_i) y_i stacked over sum x_i E(y_i m).

    E(m e_i) is formed once per (m, i) and E(e_j m) once per (j, m), since each
    depends on one factor of the pair (i, j) only."""
    M, f = ext.M, ext.M.field
    d = M.dim
    e_m = ext.e_into_m(E)
    cols: list[dict] = [{} for _ in range(tq.dim)]
    for m in range(d):
        left_of = [e_m.apply(M.table[m][i]) for i in range(d)]  # E(m e_i)
        right_of = [e_m.apply(M.table[j][m]) for j in range(d)]  # E(e_j m)
        base = 2 * m * d
        for c, (i, j) in enumerate(tq.pairs):
            col = cols[c]
            for k, v in M.mul_sparse(left_of[i], {j: f.one}).items():
                col[base + k] = v
            for k, v in M.mul_sparse({i: f.one}, right_of[j]).items():
                col[base + d + k] = v
    return LinMap(f, cols, 2 * d * d)


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
    tq = TensorQuotient(M, ext.N)
    # both sums must give e_m at every basis m (rows 2 m dim + m and 2 m dim + dim + m)
    d = M.dim
    rhs = {2 * m * d + side + m: f.one for m in range(d) for side in (0, d)}
    res = solve(_contraction_rows(ext, E, tq), rhs)
    if res is None:
        raise FrobeniusError("Frobenius equations are inconsistent: E is not a Frobenius homomorphism")
    tensor, kern = res
    if kern:
        raise FrobeniusError("dual-bases tensor is not unique in M (x)_N M")
    pairs = _tensor_to_pairs(M, tq, tensor)
    index = index_of_pairs(M, pairs)
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


def _tensor_to_pairs(M: Algebra, tq: TensorQuotient, tensor: dict) -> list[tuple[dict, dict]]:
    f = M.field
    pairs = []
    for c in sorted(tensor):
        i, j = tq.pairs[c]
        pairs.append(({i: f.one}, {j: tensor[c]}))
    if not pairs:
        pairs.append(({}, {}))
    return pairs


def index_of_pairs(M: Algebra, pairs: list[tuple[dict, dict]]) -> dict:
    """The index sum x_i y_i of a dual-bases pair list."""
    f = M.field
    total: dict = {}
    for x, y in pairs:
        sparse_axpy(f, total, f.one, M.mul_sparse(x, y))
    return total


def scalar_of(M: Algebra, v: dict):
    """c with v = c * unit, or None when v is not a scalar multiple of 1."""
    f = M.field
    unit = M.unit
    k = next(iter(unit), None)
    c = f.zero if k is None else f.div(v.get(k, f.zero), unit[k])
    return c if sparse_scale(f, c, unit) == v else None


def verify_frobenius_identities(sys: FrobeniusSystem, max_failures: int = 3) -> CheckOutcome:
    """Both identities sum E(m x_i) y_i = m = sum x_i E(y_i m) on every basis m."""
    M, f = sys.M, sys.M.field
    e_m = sys.ext.e_into_m(sys.E)
    failures = []
    for m in range(M.dim):
        em = {m: f.one}
        left: dict = {}
        right: dict = {}
        for x, y in sys.dual_pairs:
            sparse_axpy(f, left, f.one, M.mul_sparse(e_m.apply(M.mul_sparse(em, x)), y))
            sparse_axpy(f, right, f.one, M.mul_sparse(x, e_m.apply(M.mul_sparse(y, em))))
        if left != em or right != em:
            failures.append({"basis": m, "left": f.witness(M.to_dense(left)),
                             "right": f.witness(M.to_dense(right))})
            if len(failures) >= max_failures:
                break
    return CheckOutcome(not failures, failures)


def pairs_to_tensor(sys_tq: TensorQuotient, M: Algebra, pairs: list[tuple[dict, dict]]) -> dict:
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
    n_alg = ext.n_algebra
    flags.normalized = e_unit == n_alg.unit

    # split: some d in C_M(N) with E(d) = 1
    flags.split = solve(LinMap(f, [sys.E.apply(v) for v in cm.vectors], n_alg.dim), n_alg.unit) is not None

    # separable: some d in C_M(N) with sum x_i d y_i = 1
    cols_sep = []
    for v in cm.vectors:
        total: dict = {}
        for x, y in sys.dual_pairs:
            sparse_axpy(f, total, f.one, M.mul_sparse(M.mul_sparse(x, v), y))
        cols_sep.append(total)
    flags.separable = solve(LinMap(f, cols_sep, M.dim), M.unit) is not None

    lam_inv = scalar_of(M, sys.index)
    flags.index_scalar = lam_inv is not None
    flags.strongly_separable = (
        flags.index_scalar
        and not f.is_zero(lam_inv)
        and bool(e_unit)
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
    new_e = LinMap(f, [sparse_scale(f, inv, c) for c in sys.E.columns], sys.E.codomain_dim)
    new_pairs = [(sparse_scale(f, mu, x), dict(y)) for x, y in sys.dual_pairs]
    new_tensor = sparse_scale(f, mu, sys.dual_tensor)
    new_index = sparse_scale(f, mu, sys.index)
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
    rows = M.dim * n_dim

    def stacked(products):
        """The N-coordinates of E over every basis m, stacked (row m * n_dim + t)."""
        out: dict = {}
        for m, prod in enumerate(products):
            out.update((m * n_dim + t, c) for t, c in E.apply(prod).items())
        return out

    # coefficient columns E(z_j e_m) per scope basis z_j; right-hand sides E(e_m c)
    basis = [{m: f.one} for m in range(M.dim)]
    coeff = LinMap(f, [stacked(M.mul_sparse(z, em) for em in basis) for z in scope.vectors], rows)
    targets = LinMap(f, [stacked(M.mul_sparse(em, c) for em in basis) for c in scope.vectors], rows)
    cols = []
    failures = []
    for rhs in targets.columns:
        res = solve(coeff, rhs)
        if res is None:
            failures.append({"kind": "no-solution"})
            cols.append({})
            continue
        x, kern = res
        if kern:
            failures.append({"kind": "non-unique"})
        cols.append(x)
    qmap = LinMap(f, cols, s)
    if not failures:
        # automorphism checks inside scope
        sub_alg, _ = scope.induced_algebra()
        unit = sub_alg.unit
        if qmap.apply(unit) != unit:
            failures.append({"kind": "unit-not-fixed"})
        for i in range(s):
            for j in range(s):
                lhs = qmap.apply(sub_alg.table[i][j])
                rhs = sub_alg.mul_sparse(qmap.columns[i], qmap.columns[j])
                if lhs != rhs:
                    failures.append({"kind": "not-multiplicative", "pair": (i, j)})
        if rank(qmap) != s:
            failures.append({"kind": "not-bijective"})
    return NakayamaResult(qmap, not failures, failures)


def nakayama_of_functional(alg: Algebra, functional: list) -> NakayamaResult:
    """Nakayama automorphism of a Frobenius algebra functional phi: alg -> k.

    functional is the coordinate row of phi; scope is the whole algebra.
    """
    f = alg.field
    scope = SubspaceBasis(alg, [{i: f.one} for i in range(alg.dim)])
    E = LinMap(f, [{0: c} if c else {} for c in functional], 1)
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
            lhs = ident.apply(m_alg.table[i][j])
            if lhs != R.mul_sparse(ident.columns[i], ident.columns[j]):
                raise FrobeniusError("identification M -> R is not an algebra map")
    # F: R -> M coords (translate sys_rm.E through the N_RM basis -> m_alg coords)
    basis_in_m = []
    for v in sys_rm.ext.N.vectors:
        res = solve(ident, v)
        if res is None:
            raise FrobeniusError("sys_rm subalgebra does not match the identification image")
        basis_in_m.append(res[0])
    to_m = LinMap(f, basis_in_m, m_alg.dim)  # N_RM coords -> m_alg coords
    F_map = to_m.compose(sys_rm.E)  # R -> m_alg coords
    E_comp = sys_mn.E.compose(F_map)  # R -> N coords (of sys_mn)

    n_in_r_vectors = ident.compose(sys_mn.ext.embed).columns
    ext_rn = ExtensionSpec(R, SubspaceBasis(R, n_in_r_vectors), E=E_comp)

    pairs = []
    for z, w in sys_rm.dual_pairs:
        for x, y in sys_mn.dual_pairs:
            zx = R.mul_sparse(z, ident.apply(x))
            yw = R.mul_sparse(ident.apply(y), w)
            pairs.append((zx, yw))
    tq = TensorQuotient(R, ext_rn.N)
    tensor = pairs_to_tensor(tq, R, pairs)
    index = index_of_pairs(R, pairs)
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
    mu_of_e: dict
    centrality_ok: bool


def polynomial_quotient_algebra(field, coeffs: list) -> Algebra:
    """k[x]/(p) with p = x^n - sum c_i x^i, basis 1, a, ..., a^(n-1)."""
    n = len(coeffs)
    if n == 0:
        raise FrobeniusError("polynomial must have degree >= 1")
    f = field
    # powers a^k for k = 0..2n-2 as sparse elements; a^n = sum c_i a^i
    top_power = sparse_vector(coeffs)
    powers = [{k: f.one} for k in range(n)]
    for k in range(n, 2 * n - 1):
        prev = powers[k - 1]
        shifted = {i + 1: c for i, c in prev.items() if i + 1 < n}
        sparse_axpy(f, shifted, prev.get(n - 1, f.zero), top_power)
        powers.append(shifted)
    entries = [(i, j, k, c) for i in range(n) for j in range(n) for k, c in powers[i + j].items()]
    return Algebra.from_entries(f, n, entries, {0: f.one})


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
    dp = {n - 1: f.from_int(n)}
    for j in range(1, n):
        sparse_add(f, dp, j - 1, f.neg(f.mul(f.from_int(j), coeffs[j])))
    inv_dp = _invert_element(alg, dp)
    if inv_dp is None:
        raise FrobeniusError("p'(alpha) is not invertible: polynomial is not separable")
    inv_alpha = _invert_element(alg, {1: f.one})
    if inv_alpha is None:
        raise FrobeniusError("alpha is not invertible (x divides p)")
    tensor: dict = {}
    inv_pow = alg.mul_sparse(inv_dp, inv_alpha)  # 1/(p'(a) a) at i = 0
    for i in range(n):
        numer = sparse_vector(coeffs[: i + 1])
        for k, c in alg.mul_sparse(numer, inv_pow).items():
            sparse_add(f, tensor, i * n + k, c)
        inv_pow = alg.mul_sparse(inv_pow, inv_alpha)
    mu = _tensor_multiply_out(alg, tensor)
    central = _tensor_central(alg, tensor)
    return SeparabilityElement(alg, tensor, mu, central)


def _invert_element(alg: Algebra, v: dict) -> Optional[dict]:
    """w with v w = 1, or None."""
    one = alg.field.one
    res = solve(LinMap(alg.field, [alg.mul_sparse(v, {j: one}) for j in range(alg.dim)], alg.dim), alg.unit)
    return None if res is None else res[0]


def _tensor_multiply_out(alg: Algebra, tensor: dict) -> dict:
    f = alg.field
    out: dict = {}
    for col, c in tensor.items():
        i, k = divmod(col, alg.dim)
        sparse_axpy(f, out, c, alg.table[i][k])
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
