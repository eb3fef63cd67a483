"""Frobenius systems on algebra extensions.

An extension is N inside M with a bimodule map E: M -> N. The dual-bases
tensor is solved as a single unknown in M (x)_N M, where it is unique, so
every downstream object (index, Nakayama automorphism, tower) is canonical.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass
from itertools import islice
from typing import Callable, Iterator, Optional

from .algebra import (
    WITNESS_FAILURES,
    Algebra,
    AlgebraError,
    CheckOutcome,
    LinMap,
    SubspaceBasis,
    TensorQuotient,
    centralizer,
    law_failures,
    mult_failures,
)
from .linalg import rank, solve, sparse_add, sparse_axpy, sparse_scale, sparse_vector


class FrobeniusError(ValueError):
    """Extension data inconsistent with the Frobenius axioms."""


@dataclass
class ExtensionSpec:
    """Extension N in M; E (when given) maps M to N-coordinates.

    induced, when given, is N's algebra and its embedding into M, handed over
    where N is the image of a verified unital injective homomorphism from that
    algebra: the image is then a unital subalgebra and the induced structure is
    the domain's, so the closure scan and ``induced_algebra`` are skipped.
    """

    M: Algebra
    N: SubspaceBasis
    E: Optional[LinMap] = None
    dual_pairs: Optional[list[tuple[dict, dict]]] = None
    induced: InitVar[Optional[tuple[Algebra, LinMap]]] = None

    def __post_init__(self, induced):
        if induced is not None:
            self._n_alg, self._embed = induced
            return
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

    def e_into_m(self, E: LinMap) -> LinMap:
        """E followed by the embedding, as a map M -> M."""
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

    @property
    def M(self) -> Algebra:
        return self.ext.M


# ---------------------------------------------------------------------------
# conditional expectations
# ---------------------------------------------------------------------------


def verify_conditional_expectation(
    ext: ExtensionSpec, E: LinMap, n_generators: Optional[list] = None, module_generators: Optional[tuple] = None
) -> CheckOutcome:
    """E(nmn') = nE(m)n' on basis triples and E(1) = 1.

    The two-sided property is equivalent to the pair of one-sided ones
    (E(n m) = n E(m) and E(m n) = E(m) n on basis pairs), which is what gets
    checked; this keeps the cost at 2 dim N dim M products.

    Given n_generators, elements of N (N-coordinates) whose words with 1 span
    N, as generators() returns them (pass them only once M is known to be
    associative with unit), the one-sided properties are first checked for n
    in them only. {n : E(nm) = nE(m) and E(mn) = E(m)n for all m} is a
    subspace that holds 1 and is closed under products, as
    E(n n' m) = n E(n' m) = n n' E(m) and likewise on the right; so it holds
    every word in n_generators, which is all of N.

    Given module_generators (G_L, G_R) with span(N . G_L) = M = span(G_R . N)
    (pass them only once M is associative and N's embedding multiplicative),
    the left law is first checked for m in G_L and the right law for m in
    G_R, n over the basis of N: {m : E(nm) = nE(m) for all n} is a left
    N-submodule, as E(n n' m) = n E(n' m) = n n' E(m), and likewise on the
    right.
    """
    M, f = ext.M, ext.M.field
    n_alg = ext.n_algebra
    failures = []
    e_unit = E.apply(M.unit)
    if e_unit != n_alg.unit:
        failures.append({"kind": "unit", "value": f.witness(n_alg.to_dense(e_unit))})
    basis_n = [{a: f.one} for a in range(n_alg.dim)]
    if module_generators is not None:
        factors = (basis_n, *module_generators)
    else:
        factors = None if n_generators is None else (n_generators,)
    failures += law_failures(lambda fs: _bimodule_failures(ext, E, *fs), factors, lambda: (basis_n,))
    return CheckOutcome(not failures, failures)


def _bimodule_failures(ext: ExtensionSpec, E: LinMap, ns: list, left_ms: Optional[list] = None,
                       right_ms: Optional[list] = None) -> Iterator[dict]:
    """E(n m) != n E(m) for m in left_ms and E(m n) != E(m) n for m in
    right_ms (both default to the basis of M), n in ns (N-coordinates), with
    m at position k of its list, in the loop order n, k, left then right."""
    M, f = ext.M, ext.M.field
    n_alg = ext.n_algebra
    basis_m = [{m: f.one} for m in range(M.dim)]
    left_ms = basis_m if left_ms is None else left_ms
    right_ms = basis_m if right_ms is None else right_ms
    e_left, e_right = [E.apply(m) for m in left_ms], [E.apply(m) for m in right_ms]
    for a, n in enumerate(ns):
        n_in_m = ext.embed.apply(n)
        for k in range(max(len(left_ms), len(right_ms))):
            if k < len(left_ms) and E.apply(M.mul_sparse(n_in_m, left_ms[k])) != n_alg.mul_sparse(n, e_left[k]):
                yield {"kind": "bimodule-left", "pair": (a, k)}
            if k < len(right_ms) and E.apply(M.mul_sparse(right_ms[k], n_in_m)) != n_alg.mul_sparse(e_right[k], n):
                yield {"kind": "bimodule-right", "pair": (k, a)}


def verify_bimodule_map(ext: ExtensionSpec, E: LinMap) -> CheckOutcome:
    """The bimodule property alone (Frobenius homomorphisms need not be normalized)."""
    one = ext.M.field.one
    failures = list(islice(_bimodule_failures(ext, E, [{a: one} for a in range(ext.n_algebra.dim)]), WITNESS_FAILURES))
    return CheckOutcome(not failures, failures)


# ---------------------------------------------------------------------------
# dual bases
# ---------------------------------------------------------------------------


def dual_bases_equations(up: Algebra, e_m: Callable[[dict], dict], factors: list, unknowns: list,
                         elements: list) -> Iterator[list]:
    """The rows of L_T(m) = m and R_T(m) = m for T = sum_c T_c x_c (x) y_c,
    c = (i, j) at position c of unknowns, x_c = factors[i], y_c = factors[j],
    with L_T(m) = sum_c T_c e_m(m x_c) y_c and R_T(m) = sum_c T_c x_c e_m(y_c m)
    (frobenius_failures) and e_m an expectation followed by its inclusion.

    Yields one block of up.dim rows (coefficients over the unknowns, right-hand
    side) per side named by each (m, sides) of elements, in the order sides
    names them; row k of a block is coordinate k of that side's identity.
    e_m(m x) and e_m(y m) are formed once per (m, factor), since each depends
    on one factor of the pair (i, j) only."""
    zero = up.field.zero
    for m, sides in elements:
        for side in sides:
            if side == "left":
                e_of = [e_m(up.mul_sparse(m, x)) for x in factors]  # e_m(m x_i)
                terms = ((c, e_of[i], factors[j]) for c, (i, j) in enumerate(unknowns) if e_of[i])
            else:
                e_of = [e_m(up.mul_sparse(y, m)) for y in factors]  # e_m(y_j m)
                terms = ((c, factors[i], e_of[j]) for c, (i, j) in enumerate(unknowns) if e_of[j])
            rows: list[dict] = [{} for _ in range(up.dim)]
            for c, x, y in terms:
                for k, v in up.mul_sparse(x, y).items():
                    rows[k][c] = v
            yield [(row, m.get(k, zero)) for k, row in enumerate(rows)]


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
    # both_sides(M) puts the left then the right block of each basis m at rows
    # 2 m dim + k and 2 m dim + dim + k
    basis = [{i: f.one} for i in range(M.dim)]
    rows = [row for block in dual_bases_equations(M, ext.e_into_m(E).apply, basis, tq.basis, both_sides(M))
            for row in block]
    system = LinMap(f, [coeffs for coeffs, _ in rows], tq.dim).transpose()
    (tensor,), kern = solve(system, [{r: value for r, (_, value) in enumerate(rows) if value}])
    if tensor is None:
        raise FrobeniusError("Frobenius equations are inconsistent: E is not a Frobenius homomorphism")
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
    )


def _tensor_to_pairs(M: Algebra, tq: TensorQuotient, tensor: dict) -> list[tuple[dict, dict]]:
    f = M.field
    pairs = []
    for c in sorted(tensor):
        i, j = tq.basis[c]
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


def frobenius_failures(M: Algebra, e_m: Callable[[dict], dict], pairs: list, elements: list) -> Iterator[tuple]:
    """(k, L(m), R(m)) for the k-th (m, sides) of elements where a side named
    fails, with L(m) = sum e_m(m x_i) y_i and R(m) = sum x_i e_m(y_i m) over
    the pairs (x_i, y_i) and e_m an expectation followed by its inclusion; a
    side not named counts as m. The left side is formed first."""
    f = M.field
    for k, (m, sides) in enumerate(elements):
        left = right = m
        if "left" in sides:
            left = {}
            for x, y in pairs:
                sparse_axpy(f, left, f.one, M.mul_sparse(e_m(M.mul_sparse(m, x)), y))
        if "right" in sides:
            right = {}
            for x, y in pairs:
                sparse_axpy(f, right, f.one, M.mul_sparse(x, e_m(M.mul_sparse(y, m))))
        if left != m or right != m:
            yield k, left, right


def sided(left: list, right: list) -> list:
    """(m, sides) elements: the left side on each m in left, then the right
    side on each m in right."""
    return [(m, ("left",)) for m in left] + [(m, ("right",)) for m in right]


def both_sides(M: Algebra) -> list:
    """(m, sides) elements: both sides on each basis element of M, in order."""
    return [({m: M.field.one}, ("left", "right")) for m in range(M.dim)]


def verify_frobenius_identities(sys: FrobeniusSystem, module_generators: Optional[tuple] = None) -> CheckOutcome:
    """Both identities L(m) = sum E(m x_i) y_i = m = sum x_i E(y_i m) = R(m) on every basis m.

    Given module_generators (G_L, G_R) with span(N . G_L) = M = span(G_R . N)
    (pass them only once M is associative, N's embedding multiplicative and
    E a bimodule map), L is first checked on G_L and R on G_R: then
    L(nm) = nL(m) and R(mn) = R(m)n, so {m : L(m) = m} is a left and
    {m : R(m) = m} a right N-submodule.
    """
    M, f = sys.M, sys.M.field
    e_m = sys.ext.e_into_m(sys.E).apply
    gens = None if module_generators is None else sided(*module_generators)
    found = law_failures(lambda els: frobenius_failures(M, e_m, sys.dual_pairs, els), gens, lambda: both_sides(M))
    w = f.witness
    return CheckOutcome(not found, [{"basis": k, "left": w(M.to_dense(left)), "right": w(M.to_dense(right))}
                                    for k, left, right in found])


def pairs_to_tensor(sys_tq: TensorQuotient, M: Algebra, pairs: list[tuple]) -> dict:
    """Project a representative list of pure tensors, each a tuple of as many
    elements of M as sys_tq has factors, into the canonical quotient basis."""
    f = M.field
    acc: dict = {}
    for term in pairs:
        for col, val in sys_tq.pure_tensor(*term).items():
            sparse_add(f, acc, col, val)
    return sys_tq.project(acc)


def map_tensor(sys: FrobeniusSystem, g: Callable[[dict], dict]) -> dict:
    """sum_i g(x_i) (x) y_i over the dual pairs of sys, in sys.tq's quotient
    basis: for g in End(M_N), its image in the basic construction."""
    return pairs_to_tensor(sys.tq, sys.M, [(g(x), y) for x, y in sys.dual_pairs])


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
    (d_split,), _ = solve(LinMap(f, [sys.E.apply(v) for v in cm.vectors], n_alg.dim), [n_alg.unit])
    flags.split = d_split is not None

    # separable: some d in C_M(N) with sum x_i d y_i = 1
    cols_sep = []
    for v in cm.vectors:
        total: dict = {}
        for x, y in sys.dual_pairs:
            sparse_axpy(f, total, f.one, M.mul_sparse(M.mul_sparse(x, v), y))
        cols_sep.append(total)
    (d_sep,), _ = solve(LinMap(f, cols_sep, M.dim), [M.unit])
    flags.separable = d_sep is not None

    lam_inv = scalar_of(M, sys.index)
    flags.index_scalar = lam_inv is not None
    flags.strongly_separable = (
        flags.index_scalar
        and not f.is_zero(lam_inv)
        and bool(e_unit)
    )
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
    )


# ---------------------------------------------------------------------------
# Nakayama automorphism
# ---------------------------------------------------------------------------


def nakayama(M: Algebra, E: LinMap, scope: SubspaceBasis,
             generators: Optional[list] = None) -> tuple[LinMap, CheckOutcome]:
    """Unique q on scope with E(q(c) m) = E(m c) for all m, as a map of scope
    coordinates, and the outcome of checking it an algebra automorphism of
    scope (_automorphism_failures, which takes the generators, in scope
    coordinates)."""
    f = M.field
    n_dim = E.codomain_dim
    rows = M.dim * n_dim

    def stacked(products):
        """The N-coordinates of E over every basis m, stacked (row m * n_dim + t)."""
        out: dict = {}
        for m, prod in enumerate(products):
            out.update((m * n_dim + t, c) for t, c in E.apply(prod).items())
        return out

    # coefficient columns E(z_j e_m) per scope basis z_j; right-hand sides E(e_m c),
    # all solved in one elimination
    basis = [{m: f.one} for m in range(M.dim)]
    coeff = LinMap(f, [stacked(M.mul_sparse(z, em) for em in basis) for z in scope.vectors], rows)
    rhs = [stacked(M.mul_sparse(em, c) for em in basis) for c in scope.vectors]
    return _nakayama_solve(coeff, rhs, lambda: scope.induced_algebra()[0], generators)


def nakayama_of_functional(alg: Algebra, functional: list,
                           generators: Optional[list] = None) -> tuple[LinMap, CheckOutcome]:
    """Nakayama automorphism of a Frobenius algebra functional phi: alg -> k,
    the unique q with phi(q(c) m) = phi(m c), on alg itself, and its outcome
    as nakayama returns them.

    functional is the coordinate row of phi. Both the coefficient columns
    phi(e_j e_m) and the right-hand sides phi(e_m e_c) are read from one Gram
    pass over the products; generators go to _automorphism_failures.
    """
    f = alg.field
    rows = []  # row j: the nonzero phi(e_j e_m), ascending m
    for j in range(alg.dim):
        row = {}
        for m in range(alg.dim):
            val = f.zero
            for k, c in alg.cell(j, m).items():
                val = f.add(val, f.mul(c, functional[k]))
            if val:
                row[m] = val
        rows.append(row)
    coeff = LinMap(f, rows, alg.dim)
    rhs = coeff.transpose().columns
    return _nakayama_solve(coeff, rhs, lambda: alg, generators)


def _nakayama_solve(coeff: LinMap, rhs: list, scope_algebra,
                    generators: Optional[list]) -> tuple[LinMap, CheckOutcome]:
    """q from the stacked system coeff q(c) = rhs[c], unique or failed, then
    checked on scope_algebra() once it is."""
    xs, kern = solve(coeff, rhs)
    failures = [{"kind": "no-solution" if x is None else "non-unique"} for x in xs if x is None or kern]
    qmap = LinMap(coeff.field, [{} if x is None else x for x in xs], len(xs))
    if not failures:
        failures = _automorphism_failures(qmap, scope_algebra(), generators)
    return qmap, CheckOutcome(not failures, failures)


def _automorphism_failures(q: LinMap, alg: Algebra, generators: Optional[list]) -> list:
    """q(1) = 1, q(e_i e_j) = q(e_i) q(e_j) on every basis pair, q bijective.

    Given generators, elements whose words with 1 span alg (pass them only
    once alg is associative), multiplicativity is first checked on the pairs
    (e_i, g): once q(1) = 1 the y with q(xy) = q(x)q(y) for all x form a
    subalgebra, as q(xyz) = q(xy)q(z) = q(x)q(y)q(z) = q(x)q(yz)."""
    failures = []
    if q.apply(alg.unit) != alg.unit:
        failures.append({"kind": "unit-not-fixed"})
    found = mult_failures(q, alg, alg, None if failures else generators)
    failures += [{"kind": "not-multiplicative", "pair": pair} for pair, _, _ in found]
    if rank(q) != alg.dim:
        failures.append({"kind": "not-bijective"})
    return failures


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
    if mult_failures(ident, m_alg, R, None):
        raise FrobeniusError("identification M -> R is not an algebra map")
    # F: R -> M coords (translate sys_rm.E through the N_RM basis -> m_alg coords)
    basis_in_m, _ = solve(ident, sys_rm.ext.N.vectors)
    if None in basis_in_m:
        raise FrobeniusError("sys_rm subalgebra does not match the identification image")
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
    # p'(a) = n a^(n-1) - sum_{j>=1} j c_j a^(j-1); n is 0 in F_p when p divides n
    dp: dict = {}
    sparse_add(f, dp, n - 1, f.from_int(n))
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
    (w,), _ = solve(LinMap(alg.field, [alg.mul_sparse(v, {j: one}) for j in range(alg.dim)], alg.dim), [alg.unit])
    return w


def _tensor_multiply_out(alg: Algebra, tensor: dict) -> dict:
    f = alg.field
    out: dict = {}
    for col, c in tensor.items():
        i, k = divmod(col, alg.dim)
        sparse_axpy(f, out, c, alg.cell(i, k))
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
