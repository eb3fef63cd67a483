"""Example catalog and constructive Hopf-Galois models.

Group Hopf algebras k[G] and their duals k^G with normalized integrals,
module-algebra models (translation on k^G, quadratic field conjugation),
Frobenius systems derived from an integral action, and generators for the
named example extensions used throughout the test suite and the CLI.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import Algebra, LinMap, SubspaceBasis, centralizer
from .depth2 import DepthTwoData, model_c_from_ab
from .fields import Field, FieldError, PrimeField, RationalField, digits_token
from .frobenius import (
    CheckOutcome,
    ExtensionSpec,
    FrobeniusSystem,
    pairs_to_tensor,
    solve_dual_bases,
    verify_frobenius_identities,
)
from .galois import ModuleAlgebraAction, invariants, verify_module_algebra
from .hopf import HopfStructure
from .linalg import invert, sparse_scale
from .tower import build_tower


class ModelError(ValueError):
    """Invalid model parameters or a model that fails its own axioms."""


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------


@dataclass
class GroupPresentation:
    order: int
    mul: list  # mul[i][j]
    names: list
    identity: int = 0

    def inverse(self, i: int) -> int:
        for j in range(self.order):
            if self.mul[i][j] == self.identity:
                return j
        raise ModelError(f"element {i} has no inverse")

    def verify(self) -> bool:
        n = self.order
        for i in range(n):
            if self.mul[self.identity][i] != i or self.mul[i][self.identity] != i:
                return False
        for i in range(n):
            try:
                self.inverse(i)
            except ModelError:
                return False
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.mul[self.mul[i][j]][k] != self.mul[i][self.mul[j][k]]:
                        return False
        return True


def cyclic_group(n: int) -> GroupPresentation:
    if n < 1:
        raise ModelError("cyclic group order must be >= 1")
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    names = [f"g^{i}" if i else "e" for i in range(n)]
    return GroupPresentation(n, mul, names)


def symmetric_group_3() -> GroupPresentation:
    perms = [
        (0, 1, 2),  # e
        (1, 0, 2),  # (01)
        (2, 1, 0),  # (02)
        (0, 2, 1),  # (12)
        (1, 2, 0),  # (012)
        (2, 0, 1),  # (021)
    ]
    names = ["e", "(01)", "(02)", "(12)", "(012)", "(021)"]
    index = {p: i for i, p in enumerate(perms)}
    mul = []
    for p in perms:
        row = []
        for q in perms:
            comp = tuple(p[q[x]] for x in range(3))
            row.append(index[comp])
        mul.append(row)
    return GroupPresentation(6, mul, names)


GROUPS = {
    "z1": lambda: cyclic_group(1),
    "z2": lambda: cyclic_group(2),
    "z3": lambda: cyclic_group(3),
    "z4": lambda: cyclic_group(4),
    "s3": symmetric_group_3,
}


def group_algebra(G: GroupPresentation, field: Field) -> Algebra:
    entries = [(i, j, G.mul[i][j], field.one) for i in range(G.order) for j in range(G.order)]
    return Algebra.from_entries(field, G.order, entries, {G.identity: field.one})


def function_algebra(G: GroupPresentation, field: Field) -> Algebra:
    entries = [(i, i, i, field.one) for i in range(G.order)]
    return Algebra.from_entries(field, G.order, entries, {i: field.one for i in range(G.order)})


# ---------------------------------------------------------------------------
# group Hopf algebras with normalized integrals
# ---------------------------------------------------------------------------


@dataclass
class GroupHopfPair:
    G: GroupPresentation
    H: HopfStructure  # k[G]
    H_dual: HopfStructure  # k^G
    t: dict  # normalized integral of H
    f: dict  # integral of H* with f(t) = 1
    report: CheckOutcome


def group_hopf(G: GroupPresentation, field: Field) -> GroupHopfPair:
    """k[G] with Delta(g) = g (x) g, S(g) = g^-1; its dual k^G; integrals
    t = |G|^-1 sum g and f = |G| delta_e, normalized so eps(t) = f(t) = 1 and
    lambda^-1 = f(1) = |G|. Fails when char k divides |G|."""
    n = G.order
    f = field
    order = f.from_int(n)
    if f.is_zero(order):
        raise ModelError(f"characteristic divides the group order {n}")
    Halg = group_algebra(G, f)
    one = f.one
    delta = LinMap(f, [{g * n + g: one} for g in range(n)], n * n)
    counit = LinMap(f, [{0: one} for _ in range(n)], 1)
    antipode = LinMap(f, [{G.inverse(g): one} for g in range(n)], n)
    H = HopfStructure(Halg, delta, counit, antipode)

    Dalg = function_algebra(G, f)
    delta_d = LinMap(
        f, [{a * n + b: one for a in range(n) for b in range(n) if G.mul[a][b] == g} for g in range(n)], n * n
    )
    counit_d = LinMap(f, [{0: one} if g == G.identity else {} for g in range(n)], 1)
    antipode_d = LinMap(f, [{G.inverse(g): one} for g in range(n)], n)
    H_dual = HopfStructure(Dalg, delta_d, counit_d, antipode_d)

    inv_order = f.inv(order)
    t_vec = {g: inv_order for g in range(n)}
    f_vec = {G.identity: order}

    failures = []
    # f(t) = f(S(t)) = 1, eps(t) = 1, f(1) = |G| != 0
    def eval_functional(phi: dict, h: dict):
        acc = f.zero
        for k, c in phi.items():
            acc = f.add(acc, f.mul(c, h.get(k, f.zero)))
        return acc

    if not f.eq(eval_functional(f_vec, t_vec), f.one):
        failures.append({"kind": "f(t) != 1"})
    if not f.eq(eval_functional(f_vec, antipode.apply(t_vec)), f.one):
        failures.append({"kind": "f(S(t)) != 1"})
    if not f.eq(H.counit_apply(t_vec), f.one):
        failures.append({"kind": "eps(t) != 1"})
    if f.is_zero(eval_functional(f_vec, Halg.unit)):
        failures.append({"kind": "f(1) = 0"})
    # t is a two-sided integral: h t = eps(h) t
    for g in range(n):
        if Halg.mul_sparse({g: f.one}, t_vec) != t_vec:
            failures.append({"kind": "t-not-integral", "basis": g})
    # f is an integral of H*: phi f = phi(1_H) f, where the product on H* is
    # pointwise (dual to the grouplike comultiplication of k[G])
    for g in range(n):
        phi = {g: f.one}
        expected = sparse_scale(f, eval_functional(phi, Halg.unit), f_vec)
        if Dalg.mul_sparse(phi, f_vec) != expected:
            failures.append({"kind": "f-not-integral", "basis": g})
    return GroupHopfPair(G, H, H_dual, t_vec, f_vec, CheckOutcome(not failures, failures))


def evaluation_pairing(G: GroupPresentation, field: Field) -> LinMap:
    """<g, delta_h> = [g = h] between k[G] and k^G."""
    return LinMap.identity(field, G.order)


# ---------------------------------------------------------------------------
# module-algebra models
# ---------------------------------------------------------------------------


def translation_action(pair: GroupHopfPair, field: Field) -> ModuleAlgebraAction:
    """k[G] acting on k^G by g . delta_x = delta_{g x}."""
    G = pair.G
    n = G.order
    maps = [LinMap(field, [{G.mul[g][x]: field.one} for x in range(n)], n) for g in range(n)]
    return ModuleAlgebraAction(pair.H, function_algebra(G, field), maps)


def quadratic_field_algebra(field: Field, d) -> Algebra:
    """k(sqrt(d)) as a 2-dimensional algebra with basis {1, w}, w^2 = d."""
    f = field
    entries = [
        (0, 0, 0, f.one),
        (0, 1, 1, f.one),
        (1, 0, 1, f.one),
        (1, 1, 0, d),
    ]
    return Algebra.from_entries(f, 2, entries, {0: f.one})


def quadratic_conjugation_action(field: Field, d) -> tuple[GroupHopfPair, ModuleAlgebraAction]:
    """Z/2 Galois action on k(sqrt(d)): the generator sends w to -w."""
    pair = group_hopf(cyclic_group(2), field)
    X = quadratic_field_algebra(field, d)
    f = field
    conj = LinMap(f, [{0: f.one}, {1: f.neg(f.one)}], 2)
    act = ModuleAlgebraAction(pair.H, X, [LinMap.identity(f, 2), conj])
    return pair, act


@dataclass
class ModelBundle:
    pair: GroupHopfPair
    X: Algebra
    action: ModuleAlgebraAction
    sys: FrobeniusSystem
    report: CheckOutcome


def galois_frobenius_system(
    pair: GroupHopfPair,
    act: ModuleAlgebraAction,
    expected_n: Optional[SubspaceBasis] = None,
) -> FrobeniusSystem:
    """E = t . (-) on X, verified as a conditional expectation onto the
    invariants, with dual bases solved from the Frobenius equations and the
    index checked against f(1) = |G|."""
    X = act.algebra
    f = X.field
    out = verify_module_algebra(act)
    if not out.ok:
        raise ModelError(f"action fails module-algebra axioms: {out.failures[:1]}")
    N = invariants(act)
    if expected_n is not None:
        exp = SubspaceBasis.from_spanning(X, expected_n.vectors)
        if not N.equals(exp):
            raise ModelError(
                f"invariants have dimension {N.dim}, expected {exp.dim}: action is not Galois for this N"
            )
    cols = []
    for img in act.rho(pair.t).columns:
        coords = N.coords(img)
        if coords is None:
            raise ModelError("t . x does not land in the invariants")
        cols.append(coords)
    E = LinMap(f, cols, N.dim)
    ext = ExtensionSpec(X, N, E=E)
    sys = solve_dual_bases(ext, E)
    # lambda^-1 = f(1_H)
    f_of_one = f.zero
    for k, c in pair.f.items():
        f_of_one = f.add(f_of_one, f.mul(c, pair.H.algebra.unit.get(k, f.zero)))
    if sys.lambda_inverse is None or not f.eq(sys.lambda_inverse, f_of_one):
        raise ModelError(
            f"index {sys.lambda_inverse} does not match f(1) = {f_of_one}"
        )
    return sys


def model_bundle(name: str, field: Field, d=None) -> ModelBundle:
    """Catalog of module-algebra models: "function-algebra:<group>" for the
    translation model on k^G, "quadratic-field" for k(sqrt(d))."""
    if name.startswith("function-algebra:"):
        gname = name.split(":", 1)[1]
        if gname not in GROUPS:
            raise ModelError(f"unknown group {gname!r}; choose from {sorted(GROUPS)}")
        pair = group_hopf(GROUPS[gname](), field)
        act = translation_action(pair, field)
    elif name == "quadratic-field":
        if d is None:
            raise ModelError("quadratic-field model needs the square parameter d")
        pair, act = quadratic_conjugation_action(field, d)
    else:
        raise ModelError(f"unknown model {name!r}")
    sys = galois_frobenius_system(pair, act)
    report = verify_frobenius_identities(sys)
    return ModelBundle(pair, act.algebra, act, sys, report)


# ---------------------------------------------------------------------------
# synthetic towers from module-algebra models
# ---------------------------------------------------------------------------


def hopf_image_in_m1(t, act: ModuleAlgebraAction) -> list:
    """h -> sum_i (h . x_i) (x) y_i, the embedding of the acting Hopf algebra
    into the basic construction."""
    sys = t.base_sys
    return [
        pairs_to_tensor(sys.tq, t.M, [(g.apply(x), y) for x, y in sys.dual_pairs])
        for g in act.maps
    ]


def dual_action_on_m1(t, bundle: ModelBundle, a_vectors: list) -> ModuleAlgebraAction:
    """The H*-action on M1 = X # H: phi . (x # h) = x # phi(h_(1)) h_(2),
    transported through the isomorphism X (x) H -> M1, (x, h) -> x iota(h)."""
    f = t.M.field
    X = bundle.X
    G = bundle.pair.G
    n = G.order
    M1 = t.M1
    theta = LinMap(f, [M1.mul_sparse(xh, a_vectors[g]) for xh in t.incl1.columns for g in range(n)], M1.dim)
    theta_inv = invert(theta)
    if theta_inv is None:
        raise ModelError("X (x) H -> M1 is not bijective; model tower invalid")
    maps = []
    for phi in range(n):
        # phi . (x # g) = [g = phi] x # g for k[G] (group-likes are Delta-diagonal)
        diag = LinMap(f, [{q: f.one} if q % n == phi else {} for q in range(X.dim * n)], X.dim * n)
        maps.append(theta.compose(diag).compose(theta_inv))
    return ModuleAlgebraAction(bundle.pair.H_dual, M1, maps)


def model_tower(bundle: ModelBundle):
    """Build the honest tower of the model extension and designate A, B, C as
    the images of H and H* with C = span(A B). Containments in the honest
    centralizers and the Jones idempotents being the embedded integrals are
    verified. Returns (tower, DepthTwoData, report)."""
    f = bundle.X.field
    t = build_tower(bundle.sys)
    failures = []
    a_vecs = hopf_image_in_m1(t, bundle.action)
    A = SubspaceBasis(t.M1, a_vecs)
    act_dual = dual_action_on_m1(t, bundle, a_vecs)
    out = verify_module_algebra(act_dual)
    if not out.ok:
        failures.append({"kind": "dual-action-invalid", "detail": out.failures[:1]})
    sys1 = t.levels[0].sys
    b_vecs = [
        pairs_to_tensor(sys1.tq, t.M1, [(phi.apply(x), y) for x, y in sys1.dual_pairs])
        for phi in act_dual.maps
    ]
    B = SubspaceBasis(t.M2, b_vecs)

    # containment in the honest centralizers
    n_in_m1 = SubspaceBasis(t.M1, t.incl1.compose(t.base_sys.ext.embed).columns)
    if not centralizer(t.M1, n_in_m1).contains_subspace(A):
        failures.append({"kind": "A-not-in-C_M1(N)"})
    m_in_m2 = SubspaceBasis(t.M2, t.incl2.compose(t.incl1).columns)
    if not centralizer(t.M2, m_in_m2).contains_subspace(B):
        failures.append({"kind": "B-not-in-C_M2(M)"})

    # e1 = iota(t), e2 = iota'(integral of H*)
    if LinMap(f, a_vecs, t.M1.dim).apply(bundle.pair.t) != t.e1:
        failures.append({"kind": "e1 != embedded integral of H"})
    ident = bundle.pair.G.identity
    if b_vecs[ident] != t.e2:
        failures.append({"kind": "e2 != embedded integral of H*"})

    C = model_c_from_ab(t, A, B)
    d2 = DepthTwoData(A=A, B=B, C=C, source="model")
    return t, d2, CheckOutcome(not failures, failures)


# ---------------------------------------------------------------------------
# named extensions
# ---------------------------------------------------------------------------


def trivial_extension(field: Field) -> ExtensionSpec:
    M = Algebra.from_entries(field, 1, [(0, 0, 0, field.one)], {0: field.one})
    N = SubspaceBasis(M, [{0: field.one}])
    E = LinMap.identity(field, 1)
    return ExtensionSpec(M, N, E=E)


def group_pair_extension(field: Field, G: GroupPresentation, sub: list) -> ExtensionSpec:
    """k[H] in k[G] with E the coefficient restriction and dual bases given by
    a left transversal and its inverses."""
    sub = list(sub)
    subset = set(sub)
    for i in sub:
        for j in sub:
            if G.mul[i][j] not in subset:
                raise ModelError("subgroup indices are not closed under multiplication")
    if G.identity not in subset:
        raise ModelError("subgroup must contain the identity")
    f = field
    M = group_algebra(G, f)
    N = SubspaceBasis(M, [{i: f.one} for i in sub])
    # E keeps the coefficients on the subgroup: column g is e_r when g = sub[r]
    position = {h: r for r, h in enumerate(sub)}
    E = LinMap(f, [{position[g]: f.one} if g in position else {} for g in range(G.order)], len(sub))
    # left transversal: smallest-index representative of each coset gH
    reps = []
    seen = set()
    for g in range(G.order):
        if g in seen:
            continue
        reps.append(g)
        for h in sub:
            seen.add(G.mul[g][h])
    pairs = [({r: f.one}, {G.inverse(r): f.one}) for r in reps]
    return ExtensionSpec(M, N, E=E, dual_pairs=pairs)


def quadratic_field_extension(field: Field, d) -> ExtensionSpec:
    M = quadratic_field_algebra(field, d)
    f = field
    N = SubspaceBasis(M, [{0: f.one}])
    E = LinMap(f, [{0: f.one}, {}], 1)
    return ExtensionSpec(M, N, E=E)


def matrix_units_m2(field: Field) -> Algebra:
    """M_2(k) with basis order e11, e12, e21, e22."""
    f = field
    entries = []
    units = [(0, 0), (0, 1), (1, 0), (1, 1)]
    idx = {u: i for i, u in enumerate(units)}
    for (i, j), p in idx.items():
        for (k, l), q in idx.items():
            if j == k:
                entries.append((p, q, idx[(i, l)], f.one))
    return Algebra.from_entries(f, 4, entries, {idx[(0, 0)]: f.one, idx[(1, 1)]: f.one})


def m2f2_extension() -> ExtensionSpec:
    """M_2(F_2) over F_2 with E(a) = a11 + a12 + a21 and its explicit
    six-term dual-bases tensor."""
    f = PrimeField(2)
    M = matrix_units_m2(f)
    N = SubspaceBasis(M, [M.unit])
    E = LinMap(f, [{0: f.one}, {0: f.one}, {0: f.one}, {}], 1)
    e11, e12, e21, e22 = ({i: f.one} for i in range(4))
    pairs = [
        (e11, e21),
        (e12, e11),
        (e12, e21),
        (e22, e12),
        (e22, e22),
        (e21, e22),
    ]
    return ExtensionSpec(M, N, E=E, dual_pairs=pairs)


def function_algebra_extension(field: Field, gname: str) -> ExtensionSpec:
    """k^G over k 1 with E(m) = |G|^-1 sum_x m(x), dual bases (|G| delta_g, delta_g)."""
    if gname not in GROUPS:
        raise ModelError(f"unknown group {gname!r}")
    G = GROUPS[gname]()
    f = field
    order = f.from_int(G.order)
    if f.is_zero(order):
        raise ModelError("characteristic divides the group order")
    X = function_algebra(G, f)
    N = SubspaceBasis(X, [X.unit])
    inv = f.inv(order)
    E = LinMap(f, [{0: inv} for _ in range(G.order)], 1)
    pairs = [({g: order}, {g: f.one}) for g in range(G.order)]
    return ExtensionSpec(X, N, E=E, dual_pairs=pairs)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

CATALOG = {
    "trivial": "one-dimensional extension M = N = k",
    "group-pair": "k[H] in k[G]; params: group, subgroup (s3/a3, s3/z2, z4/z2, ...)",
    "quadratic-field": "k(sqrt(d)) over k; params: d (rational, default 2)",
    "m2f2": "M_2(F_2) over F_2 with the six-term dual-bases tensor",
    "function-algebra": "k^G over k with the averaging expectation; params: group, field",
}

SUBGROUPS = {
    ("s3", "a3"): [0, 4, 5],
    ("s3", "z2"): [0, 1],
    ("z4", "z2"): [0, 2],
    ("z2", "z1"): [0],
}


def generate_example(name: str, params: Optional[dict] = None) -> tuple[ExtensionSpec, dict]:
    """Build a named extension plus a sidecar of expected check outcomes."""
    params = dict(params or {})
    if name == "trivial":
        field = _field_param(params, default="rational")
        ext = trivial_extension(field)
        sidecar = {
            "name": name,
            "expect": {
                "lambda_inverse": "1",
                "dims": {"m": 1, "m1": 1, "m2": 1},
                "flags": {"split": True, "separable": True, "strongly_separable": True, "irreducible": True},
                "depth_two": {"level1": "pass", "level2": "pass"},
                "hopf": "reconstructed",
            },
        }
        return ext, sidecar
    if name == "group-pair":
        field = _field_param(params, default="rational")
        gname = params.get("group", "s3")
        hname = params.get("subgroup", "a3")
        if gname not in GROUPS:
            raise ModelError(f"unknown group {gname!r}")
        key = (gname, hname)
        if key not in SUBGROUPS:
            raise ModelError(f"unknown subgroup pair {key}; choose from {sorted(SUBGROUPS)}")
        G = GROUPS[gname]()
        sub = SUBGROUPS[key]
        ext = group_pair_extension(field, G, sub)
        index = G.order // len(sub)
        normal = all(
            G.mul[G.mul[g][h]][G.inverse(g)] in set(sub) for g in range(G.order) for h in sub
        )
        sidecar = {
            "name": f"group-pair:{gname}/{hname}",
            "expect": {
                "lambda_inverse": str(index),
                "dims": {
                    "m": G.order,
                    "m1": G.order * index,
                    "m2": G.order * index * index,
                },
                "flags": {"split": True, "separable": True, "strongly_separable": True, "irreducible": False},
                "depth_two": {
                    "level1": "pass" if normal else "fail",
                    "level2": "pass" if normal else None,
                },
                "hopf": "skipped: base not irreducible",
            },
        }
        return ext, sidecar
    if name == "quadratic-field":
        field = _field_param(params, default="rational")
        try:
            d = field.parse(str(params.get("d", 2)))
        except FieldError as exc:
            raise ModelError(f"bad d parameter: {exc}") from exc
        if field.is_zero(d):
            raise ModelError("d must be nonzero")
        ext = quadratic_field_extension(field, d)
        sidecar = {
            "name": f"quadratic-field:d={params.get('d', 2)}",
            "expect": {
                "lambda_inverse": "2",
                "dims": {"m": 2, "m1": 4, "m2": 8},
                "flags": {"split": True, "separable": True, "strongly_separable": True, "irreducible": False},
                "depth_two": {"level1": "pass", "level2": "pass"},
                "hopf": "skipped: base not irreducible",
            },
        }
        return ext, sidecar
    if name == "m2f2":
        ext = m2f2_extension()
        sidecar = {
            "name": "m2f2",
            "expect": {
                "lambda_inverse": "1",
                "dims": {"m": 4, "m1": 16, "m2": 64},
                "flags": {"split": True, "separable": True, "strongly_separable": True, "irreducible": False},
                "dual_tensor_terms": 6,
                "hopf": "skipped: base not irreducible",
            },
        }
        return ext, sidecar
    if name == "function-algebra":
        field = _field_param(params, default="rational")
        gname = params.get("group", "z2")
        ext = function_algebra_extension(field, gname)
        order = GROUPS[gname]().order
        sidecar = {
            "name": f"function-algebra:{gname}",
            "expect": {
                "lambda_inverse": str(order),
                "dims": {"m": order, "m1": order * order, "m2": order ** 3},
                "flags": {"split": True, "separable": True, "strongly_separable": True,
                          "irreducible": order == 1},
                "depth_two": {"level1": "pass", "level2": "pass"},
            },
        }
        return ext, sidecar
    raise ModelError(f"unknown example {name!r}; catalog: {sorted(CATALOG)}")


def _field_param(params: dict, default: str) -> Field:
    spec = params.get("field", default)
    if isinstance(spec, Field):
        return spec
    if spec == "rational":
        return RationalField()
    if isinstance(spec, str) and spec.startswith("f"):
        try:
            return PrimeField(digits_token(spec[1:]))
        except (ValueError, FieldError) as exc:
            raise ModelError(f"bad field parameter {spec!r}") from exc
    if isinstance(spec, int):
        return PrimeField(spec)
    raise ModelError(f"bad field parameter {spec!r}")
