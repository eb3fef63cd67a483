import pytest
from conftest import bumped

from hopftower import galois
from hopftower.algebra import (
    Algebra,
    CheckOutcome,
    LinMap,
    SubspaceBasis,
    TensorQuotient,
    check_morphism,
    generators,
    verify_algebra,
)
from hopftower.fields import PrimeField, RationalField
from hopftower.galois import (
    ModuleAlgebraAction,
    action_a_on_m,
    action_b_on_m1,
    cleft_data,
    galois_map,
    invariants,
    psi_inverse_formula,
    psi_map,
    smash_product,
    verify_invariants,
    verify_module_algebra,
    verify_smash_iso_theta,
)
from hopftower.hopf import HopfStructure, sandwich_maps
from hopftower.linalg import sparse_axpy, sparse_scale
from hopftower.models import quadratic_field_algebra

Q = RationalField()
F7 = PrimeField(7)


def trivial_hopf(field):
    alg = Algebra.from_entries(field, 1, [(0, 0, 0, field.one)], {0: field.one})
    return HopfStructure(
        alg,
        LinMap(field, [{0: field.one}], 1),
        LinMap(field, [{0: field.one}], 1),
        LinMap(field, [{0: field.one}], 1),
    )


# -- module-algebra actions ------------------------------------------------------


def test_translation_action_axioms(bundle_z2, bundle_z3_f7):
    for b in (bundle_z2, bundle_z3_f7):
        assert verify_module_algebra(b.action).ok


def test_trivial_action_of_k():
    X = quadratic_field_algebra(Q, Q.from_int(2))
    H = trivial_hopf(Q)
    act = ModuleAlgebraAction(H, X, [LinMap.identity(Q, 2)])
    assert verify_module_algebra(act).ok
    inv = invariants(act)
    assert inv.dim == X.dim  # trivial action fixes everything


def test_invariants_of_translation(bundle_z2):
    inv = invariants(bundle_z2.action)
    assert inv.dim == 1
    assert inv.contains(bundle_z2.X.unit)


# -- smash products ----------------------------------------------------------------


def test_smash_with_trivial_hopf_is_x():
    X = quadratic_field_algebra(Q, Q.from_int(2))
    H = trivial_hopf(Q)
    act = ModuleAlgebraAction(H, X, [LinMap.identity(Q, 2)])
    sm = smash_product(act)
    assert verify_algebra(sm.algebra)[0].ok
    assert sm.algebra.dim == X.dim
    # the table is exactly that of X
    from hopftower.algebra import check_morphism

    rep = check_morphism(sm.embed_x, X, sm.algebra)
    assert rep.ok and not rep.failures


def test_sqrt2_smash_is_full_matrix_algebra(bundle_sqrt2):
    sm = smash_product(bundle_sqrt2.action)
    assert verify_algebra(sm.algebra)[0].ok and sm.algebra.dim == 4
    out = psi_map(sm, bundle_sqrt2.action, bundle_sqrt2.sys)
    assert out.ok, out.failures[:2]  # End(Q(sqrt2)_Q) = M_2(Q)
    assert psi_inverse_formula(sm, bundle_sqrt2.action, bundle_sqrt2.sys, bundle_sqrt2.pair.t).ok


def test_function_algebra_smash_matrix_units(bundle_z2):
    # k^G # k[G] = M_|G|(k): exhibit the matrix units delta_x g
    sm = smash_product(bundle_z2.action)
    assert verify_algebra(sm.algebra)[0].ok and sm.algebra.dim == 4
    f = Q
    G = bundle_z2.pair.G
    n = G.order
    units = {}
    for x in range(n):
        for g in range(n):
            vec = sm.algebra.mul_sparse(
                sm.embed_x.apply({x: f.one}),
                sm.embed_h.apply({g: f.one}),
            )
            units[(x, G.mul[g][x])] = vec  # delta_x g maps e_y -> [y = x] ...
    # E_ij E_kl = [j = k] E_il for the units indexed by (target, source)
    for (i, j), u in units.items():
        for (k, l), v in units.items():
            prod = sm.algebra.mul_sparse(u, v)
            if j == k:
                assert prod == units[(i, l)]
            else:
                assert prod == {}


def test_psi_trivial_hopf():
    # H = k: Psi maps X # k to End(X_X), left multiplications by X
    from hopftower.frobenius import ExtensionSpec, solve_dual_bases

    X = quadratic_field_algebra(Q, Q.from_int(2))
    H = trivial_hopf(Q)
    act = ModuleAlgebraAction(H, X, [LinMap.identity(Q, 2)])
    sm = smash_product(act)
    N_all = SubspaceBasis(X, [{0: Q.one}, {1: Q.one}])
    ident_e = LinMap.identity(Q, 2)
    ext = ExtensionSpec(X, N_all, E=ident_e)
    sys = solve_dual_bases(ext)
    assert psi_map(sm, act, sys).ok
    assert psi_inverse_formula(sm, act, sys, H.algebra.unit).ok


def test_psi_for_translation_models(bundle_z2, bundle_z3_f7):
    for b in (bundle_z2, bundle_z3_f7):
        sm = smash_product(b.action)
        assert psi_map(sm, b.action, b.sys).ok
        assert psi_inverse_formula(sm, b.action, b.sys, b.pair.t).ok
        assert _smash_commutation_holds(sm, b.action)


def _smash_commutation_holds(sm, act) -> bool:
    """h x = (h1 . x) h2 inside the smash product, on all basis pairs: the
    reference for its multiplication table."""
    f = sm.X.field
    for h in range(sm.H.dim):
        hv = sm.embed_h.columns[h]
        for x in range(sm.X.dim):
            rhs: dict = {}
            for u, v, c in sm.H.delta_coords(h):
                hx = act.maps[u].columns[x]
                sparse_axpy(f, rhs, c, sm.algebra.mul_sparse(sm.embed_x.apply(hx), sm.embed_h.columns[v]))
            if sm.algebra.mul_sparse(hv, sm.embed_x.columns[x]) != rhs:
                return False
    return True


# -- tower actions -----------------------------------------------------------------


def test_action_b_matches_model(stack_z2, bundle_z2):
    # the Ocneanu-Szymanski action of B on M1 transported to X # H must be
    # the dual translation action of H* built into the model
    t, d2, p, H_B, H_A, naka = stack_z2
    act, out = action_b_on_m1(t, d2, H_B, sandwich_maps(t, d2))
    assert out.ok, out.failures[:2]


def test_action_b_unit_acts_trivially(stack_z3_f7):
    t, d2, p, H_B, H_A, naka = stack_z3_f7
    act, out = action_b_on_m1(t, d2, H_B, sandwich_maps(t, d2))
    assert out.ok
    f = t.M.field
    one_b = d2.B.coords(t.M2.unit)
    for x in range(t.M1.dim):
        ex = {x: f.one}
        assert act.rho(one_b).apply(ex) == ex


def test_invariants_of_b_action_equal_m(stack_z2, stack_z3_f7, stack_trivial):
    for stack in (stack_trivial, stack_z2, stack_z3_f7):
        t, d2, p, H_B = stack[0], stack[1], stack[2], stack[3]
        act, out = action_b_on_m1(t, d2, H_B, sandwich_maps(t, d2))
        assert out.ok
        f = t.M.field
        m_img = SubspaceBasis(
            t.M1, [t.incl1.apply({i: f.one}) for i in range(t.M.dim)]
        )
        assert verify_invariants(act, m_img).ok


def test_theta_isomorphism(stack_z2, stack_z3_f7, stack_trivial):
    for stack in (stack_trivial, stack_z2, stack_z3_f7):
        t, d2, p, H_B = stack[0], stack[1], stack[2], stack[3]
        act, _ = action_b_on_m1(t, d2, H_B, sandwich_maps(t, d2))
        out = verify_smash_iso_theta(t, d2, H_B, act)
        assert out.ok, out.failures[:2]


def test_corrupted_action_reported(stack_z2):
    t, d2, p, H_B = stack_z2[0], stack_z2[1], stack_z2[2], stack_z2[3]
    act, _ = action_b_on_m1(t, d2, H_B, sandwich_maps(t, d2))
    bad_maps = [bumped(m, 0, 0) if i == 1 else m for i, m in enumerate(act.maps)]
    bad = ModuleAlgebraAction(H_B, act.algebra, bad_maps)
    out = verify_module_algebra(bad)
    assert not out.ok
    theta_out = verify_smash_iso_theta(t, d2, H_B, bad)
    assert not theta_out.ok


def test_action_a_on_m(stack_z2, stack_z3_f7, stack_trivial):
    for stack in (stack_trivial, stack_z2, stack_z3_f7):
        t, d2, p, H_B, H_A = stack[0], stack[1], stack[2], stack[3], stack[4]
        act, out = action_a_on_m(t, d2, H_A)
        assert out.ok, out.failures[:2]
        f = t.M.field
        ext = t.base_sys.ext
        n_img = SubspaceBasis(
            t.M,
            [ext.embed.apply({i: f.one}) for i in range(ext.n_algebra.dim)],
        )
        assert verify_invariants(act, n_img).ok


def test_e1_acts_as_e(stack_z2):
    # e1 . 1 = 1 and e1 . x = E(x) in general
    t, d2, p, H_B, H_A = stack_z2[0], stack_z2[1], stack_z2[2], stack_z2[3], stack_z2[4]
    act, out = action_a_on_m(t, d2, H_A)
    assert out.ok
    e1_A = d2.A.coords(t.e1)
    assert act.rho(e1_A).apply(t.M.unit) == t.M.unit


def test_cleft_data(stack_z2, stack_z3_f7, stack_trivial):
    for stack in (stack_trivial, stack_z2, stack_z3_f7):
        t, d2, p, H_B, H_A = stack[0], stack[1], stack[2], stack[3], stack[4]
        act_a, out = action_a_on_m(t, d2, H_A)
        assert out.ok
        act_b, _out = action_b_on_m1(t, d2, H_B, sandwich_maps(t, d2))
        res = cleft_data(t, d2, H_A, p, act_a, act_b)
        assert res.ok, res.failures[:3]


# -- the Galois map ------------------------------------------------------------------


def test_galois_map_trivial_case():
    # X = N, H = k: beta is the multiplication isomorphism
    X = quadratic_field_algebra(Q, Q.from_int(2))
    N = SubspaceBasis(X, [{0: Q.one}, {1: Q.one}])
    tq = TensorQuotient(X, N)
    H = trivial_hopf(Q)
    act = ModuleAlgebraAction(H, X, [LinMap.identity(Q, 2)])
    out = galois_map(act, tq)
    assert out.ok


def test_galois_map_quadratic(bundle_sqrt2):
    # Q(sqrt2)/Q with the Z/2 coaction: 4x4, bijective
    out = galois_map(bundle_sqrt2.action, bundle_sqrt2.sys.tq)
    assert out.ok
    assert verify_module_algebra(bundle_sqrt2.action).ok


def test_galois_map_trivial_coaction_fails(bundle_sqrt2):
    # trivial action of k[Z/2] on X: dimension mismatch, not Galois
    pair = bundle_sqrt2.pair
    X = bundle_sqrt2.X
    triv = ModuleAlgebraAction(pair.H, X, [LinMap.identity(Q, 2), LinMap.identity(Q, 2)])
    assert verify_module_algebra(triv).ok
    # invariants of the trivial action are all of X, so X (x)_X X has dim 2
    N_all = SubspaceBasis(X, [{0: Q.one}, {1: Q.one}])
    tq = TensorQuotient(X, N_all)
    out = galois_map(triv, tq)
    assert not out.ok
    assert out.failures[0]["kind"] == "dimension-mismatch"


def test_galois_map_tower(stack_z2, stack_trivial):
    for stack in (stack_trivial, stack_z2):
        t, d2, p, H_B, H_A = stack[0], stack[1], stack[2], stack[3], stack[4]
        act_a, out = action_a_on_m(t, d2, H_A)
        assert out.ok
        res = galois_map(act_a, t.base_sys.tq)
        assert res.ok, res.failures[:2]


# -- failure equivalence with the per-element loops ----------------------------
#
# The action maps come from precomputed sandwich maps, and the module,
# smash and morphism checks read action columns and basis images once. The
# loops they replaced, which form every product at each basis tuple, are kept
# here as references: on perturbed data both must give exactly the same
# failures, tables and verdicts.


def _reference_b_mats(t, d2):
    f = t.M.field
    M1, M2 = t.M1, t.M2
    lam_inv = t.base_sys.lambda_inverse
    mats = []
    for b in d2.B.vectors:
        cols = []
        for x in range(M1.dim):
            xh = t.incl2.apply({x: f.one})
            img = t.E_M1.apply(M2.mul_sparse(M2.mul_sparse(b, xh), t.e2))
            cols.append(sparse_scale(f, lam_inv, img))
        mats.append(LinMap(f, cols, M1.dim))
    return mats


def _combination(f, dim, coeffs, maps):
    """sum_k coeffs[k] maps[k], column by column."""
    cols = []
    for x in range(dim):
        acc = {}
        for k, c in coeffs.items():
            sparse_axpy(f, acc, c, maps[k].apply({x: f.one}))
        cols.append(acc)
    return LinMap(f, cols, dim)


def _reference_module_algebra(H, X, maps, limit=4):
    """The unit and multiplicativity failures of the action, up to limit in
    all, then up to limit failures of the module-algebra law and of
    h . 1 = eps(h) 1."""
    f = X.field
    failures = []
    if _combination(f, X.dim, H.algebra.unit, maps) != LinMap.identity(f, X.dim):
        failures.append({"kind": "unit-action"})
    for i in range(H.dim):
        for j in range(H.dim):
            if _combination(f, X.dim, H.algebra.cell(i, j), maps) != maps[i].compose(maps[j]):
                failures.append({"kind": "action-not-multiplicative", "pair": (i, j)})
                if len(failures) >= limit:
                    return failures
    laws = []
    for i in range(H.dim):
        legs = H.delta_coords(i)
        for x in range(X.dim):
            ex = {x: f.one}
            for y in range(X.dim):
                ey = {y: f.one}
                lhs = maps[i].apply(X.mul_sparse(ex, ey))
                rhs = {}
                for u, v, c in legs:
                    term = X.mul_sparse(maps[u].apply(ex), maps[v].apply(ey))
                    sparse_axpy(f, rhs, c, term)
                if lhs != rhs:
                    laws.append({"kind": "module-algebra-law", "triple": (i, x, y)})
                    if len(laws) >= limit:
                        return failures + laws
        lhs = maps[i].apply(X.unit)
        if lhs != sparse_scale(f, H.counit.columns[i].get(0, f.zero), X.unit):
            laws.append({"kind": "unit-not-scaled-by-eps", "basis": i})
            if len(laws) >= limit:
                return failures + laws
    return failures + laws


def _reference_action_b(t, d2, H_B, maps):
    f = t.M.field
    M1, M2 = t.M1, t.M2
    failures = _reference_module_algebra(H_B, M1, maps)
    for j in range(H_B.dim):
        legs = H_B.delta_coords(j)
        for x in range(M1.dim):
            xh = t.incl2.apply({x: f.one})
            rhs = {}
            for u, v, c in legs:
                sb = {}
                for w in range(H_B.dim):
                    sparse_axpy(f, sb, H_B.antipode.columns[v].get(w, f.zero), d2.B.vectors[w])
                term = M2.mul_sparse(M2.mul_sparse(d2.B.vectors[u], xh), sb)
                sparse_axpy(f, rhs, c, term)
            lhs = t.incl2.apply(maps[j].apply({x: f.one}))
            if lhs != rhs:
                failures.append({"kind": "outer-action-formula", "pair": (j, x)})
                break
    e2_B = d2.B.coords(t.e2)
    for x in range(M1.dim):
        ex = {x: f.one}
        acted = {}
        for i, c in e2_B.items():
            sparse_axpy(f, acted, c, maps[i].apply(ex))
        if acted != t.incl1.apply(t.E_M.apply(ex)):
            failures.append({"kind": "e2-action-vs-E_M", "basis": x})
            break
    return failures


def _reference_smash_table(X, H, maps):
    """Every pair's product formed on its own, the nonzero ones kept in rows."""
    f = X.field
    dx, dh = X.dim, H.dim
    table = []
    for x in range(dx):
        for h in range(dh):
            row = {}
            for x2 in range(dx):
                ex2 = {x2: f.one}
                for h2 in range(dh):
                    cell = {}
                    for u, v, c in H.delta_coords(h):
                        xa = X.mul_sparse({x: f.one}, maps[u].apply(ex2))
                        for hk, hc in H.algebra.cell(v, h2).items():
                            for xk, xc in xa.items():
                                key = xk * dh + hk
                                val = f.add(cell.get(key, f.zero), f.mul(c, f.mul(hc, xc)))
                                if val:
                                    cell[key] = val
                                else:
                                    cell.pop(key, None)
                    if cell:
                        row[x2 * dh + h2] = cell
            table.append(row)
    return table


def _reference_check_morphism(f_map, A, B, limit=4):
    """The unit failure, then up to limit multiplicativity failures."""
    fld = A.field
    failures = [] if f_map.apply(A.unit) == B.unit else [{"kind": "unit"}]
    mult = []
    images = [f_map.apply({i: fld.one}) for i in range(A.dim)]
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = f_map.apply(A.cell(i, j))
            rhs = B.mul_sparse(images[i], images[j])
            if lhs != rhs:
                mult.append({"kind": "mult", "pair": (i, j), "lhs": B.to_dense(lhs), "rhs": B.to_dense(rhs)})
                if len(mult) >= limit:
                    return failures + mult
    return failures + mult


@pytest.mark.parametrize("perturb", ["none", "delta", "antipode", "action"])
def test_action_b_matches_reference(stack_z3_f7, monkeypatch, perturb):
    t, d2, p, H_B = stack_z3_f7[:4]
    mats = _reference_b_mats(t, d2)
    assert action_b_on_m1(t, d2, H_B, sandwich_maps(t, d2))[0].maps == mats
    if perturb == "delta":
        H_B = HopfStructure(H_B.algebra, bumped(H_B.delta, 3, 1), H_B.counit, H_B.antipode)
    elif perturb == "antipode":
        H_B = HopfStructure(H_B.algebra, H_B.delta, H_B.counit, bumped(H_B.antipode, 1, 2))
    elif perturb == "action":
        mats = mats[:1] + [bumped(mats[1], 2, 5)] + mats[2:]
        real = galois.ModuleAlgebraAction
        monkeypatch.setattr(galois, "ModuleAlgebraAction", lambda H, X, _maps: real(H, X, mats))
    _act, out = action_b_on_m1(t, d2, H_B, sandwich_maps(t, d2))
    assert out.failures == _reference_action_b(t, d2, H_B, mats)
    assert bool(out.failures) == (perturb != "none")


@pytest.mark.parametrize("perturb", [None, (0, 2, 5), (2, 4, 4)])
def test_smash_and_theta_match_reference(stack_z3_f7, perturb):
    t, d2, p, H_B = stack_z3_f7[:4]
    f = t.M.field
    mats = _reference_b_mats(t, d2)
    if perturb is not None:
        h, r, c = perturb
        mats = [bumped(m, r, c) if i == h else m for i, m in enumerate(mats)]
    sm = smash_product(ModuleAlgebraAction(H_B, t.M1, mats))
    ref = _reference_smash_table(t.M1, H_B, mats)
    assert [[(q, list(cell.items())) for q, cell in row.items()] for row in sm.algebra.table] == [
        [(q, list(cell.items())) for q, cell in row.items()] for row in ref
    ]
    cols = [
        t.M2.mul_sparse(t.incl2.apply({x: f.one}), b)
        for x in range(t.M1.dim)
        for b in d2.B.vectors
    ]
    theta = LinMap(f, cols, t.M2.dim)
    morph = check_morphism(theta, sm.algebra, t.M2)
    assert morph.failures == _reference_check_morphism(theta, sm.algebra, t.M2)
    assert bool(morph.failures) == (perturb is not None)


# -- the smash-product morphisms on the table route ---------------------------------


@pytest.fixture
def galois_morphisms(monkeypatch):
    """Record each check_morphism call of the Galois stage: (map, domain,
    codomain, the generators passed or None, the report)."""
    calls = []
    real = galois.check_morphism

    def recording(f_map, A, B, domain_generators=None):
        out = real(f_map, A, B, domain_generators)
        calls.append((f_map, A, B, domain_generators, out))
        return out

    monkeypatch.setattr(galois, "check_morphism", recording)
    return calls


def _galois_morphism_checks(t, d2, p, H_B, H_A, act_b=None):
    act_a, _ = action_a_on_m(t, d2, H_A)
    act_b = act_b or action_b_on_m1(t, d2, H_B, sandwich_maps(t, d2))[0]
    return verify_smash_iso_theta(t, d2, H_B, act_b), cleft_data(t, d2, H_A, p, act_a, act_b), act_b


def test_galois_morphisms_run_once_on_basis_pairs(stack_z3_f7, galois_morphisms):
    """With no generators given, theta: M1 # B -> M2, A # B -> C and
    M # A -> M1 are each checked once, on every basis pair of the table
    smash_product builds from the action alone."""
    t, d2, p, H_B, H_A = stack_z3_f7[:5]
    theta, cleft, act_b = _galois_morphism_checks(t, d2, p, H_B, H_A)
    assert theta.ok and cleft.ok
    assert [(A.dim, B.dim) for _f, A, B, _gens, _out in galois_morphisms] == [
        (t.M2.dim, t.M2.dim), (d2.C.dim, d2.C.dim), (t.M1.dim, t.M1.dim)]
    assert galois_morphisms[0][1].table == smash_product(act_b).algebra.table
    assert all(gens is None and out.ok for _f, _A, _B, gens, out in galois_morphisms)


def test_galois_morphisms_fall_back_to_the_basis(stack_z3_f7, galois_morphisms):
    """With a bumped B-action, M1 # B fails its own check, and theta runs the
    scan over basis pairs and reports its failures."""
    t, d2, p, H_B, H_A = stack_z3_f7[:5]
    act_b, _ = action_b_on_m1(t, d2, H_B, sandwich_maps(t, d2))
    maps = [bumped(m, 0, 0) if i == 1 else m for i, m in enumerate(act_b.maps)]
    act_b = ModuleAlgebraAction(H_B, act_b.algebra, maps)
    assert not verify_algebra(smash_product(act_b).algebra)[0].ok
    theta, _cleft, _act = _galois_morphism_checks(t, d2, p, H_B, H_A, act_b)
    for f_map, A, B, gens, out in galois_morphisms:
        assert gens is None and out == check_morphism(f_map, A, B)
    assert not theta.ok and not galois_morphisms[0][4].ok
    assert theta.failures[0]["kind"] == "smash-algebra-invalid"


def test_each_generating_set_is_formed_once_per_run(monkeypatch):
    """One f7/model:z4 pipeline run forms generators() once on each algebra
    whose set it needs outside an associativity check: M, N and the induced
    algebras of A and B. The smash isomorphisms form none: the exchange
    relation runs on the generators of M1, M and A already formed."""
    import sys

    from hopftower import algebra
    from hopftower.depth2 import DepthTwoData
    from hopftower.models import generate_example, model_bundle, model_tower
    from hopftower.pipeline import run_pipeline

    real = algebra.generators
    calls = []

    def counting(alg, seeds=()):
        calls.append(alg)
        return real(alg, seeds)

    for name, module in list(sys.modules.items()):
        if name.startswith("hopftower") and getattr(module, "generators", None) is real:
            monkeypatch.setattr(module, "generators", counting)
    ext, _sidecar = generate_example("function-algebra", {"group": "z4", "field": "f7"})
    _tower, d2, rep = model_tower(model_bundle("function-algebra:z4", ext.M.field))
    assert rep.ok
    calls.clear()
    report = run_pipeline(ext, d2_override=DepthTwoData(A=d2.A, B=d2.B, C=d2.C, source="model"))
    assert report.exit_code() == 0 and report.hypotheses["galois_extension"] is True
    state = report.state
    expected = [ext.M, ext.n_algebra, state.d2.B.induced_algebra()[0], state.d2.A.induced_algebra()[0]]
    assert len(calls) == len(expected) and all(a is b for a, b in zip(calls, expected)), [a.dim for a in calls]


# -- the smash isomorphisms from the exchange relation ------------------------------


@pytest.fixture
def smash_tables(monkeypatch):
    """The first factor X of each smash table galois builds."""
    calls = []
    real = galois.smash_product

    def recording(act):
        calls.append(act.algebra)
        return real(act)

    monkeypatch.setattr(galois, "smash_product", recording)
    return calls


@pytest.mark.parametrize("stack", ["stack_trivial", "stack_z3_f7"])
def test_exchange_route_answers_as_the_tables(stack, request, smash_tables):
    """Given generators, theta: M1 # B -> M2, A # B -> C and M # A -> M1 are
    decided with no smash table, and the outcomes are those of the table
    route, which builds all three."""
    t, d2, p, H_B, H_A = request.getfixturevalue(stack)[:5]
    act_b = action_b_on_m1(t, d2, H_B, sandwich_maps(t, d2))[0]
    act_a = action_a_on_m(t, d2, H_A)[0]
    theta = verify_smash_iso_theta(t, d2, H_B, act_b, t.levels[0].generators)
    cleft = cleft_data(t, d2, H_A, p, act_a, act_b, generators(t.M))
    assert smash_tables == []
    assert theta == verify_smash_iso_theta(t, d2, H_B, act_b) == CheckOutcome(True, [])
    assert cleft == cleft_data(t, d2, H_A, p, act_a, act_b) == CheckOutcome(True, [])
    assert smash_tables == [t.M1, d2.A.induced_algebra()[0], t.M]


def test_exchange_route_falls_back_to_the_tables_on_a_bumped_action(stack_z3_f7, smash_tables):
    """With the B-action bumped at one entry, generators given, the exchange
    relation fails and theta reports what the table route reports, failures
    included."""
    t, d2, p, H_B = stack_z3_f7[:4]
    act_b, _ = action_b_on_m1(t, d2, H_B, sandwich_maps(t, d2))
    maps = [bumped(m, 0, 0) if i == 1 else m for i, m in enumerate(act_b.maps)]
    bad = ModuleAlgebraAction(H_B, act_b.algebra, maps)
    gated = verify_smash_iso_theta(t, d2, H_B, bad, t.levels[0].generators)
    assert smash_tables[0] is t.M1
    table = verify_smash_iso_theta(t, d2, H_B, bad)
    assert not gated.ok and gated == table
    assert gated.failures[0]["kind"] == "smash-algebra-invalid"


def test_bumped_action_scans_the_exchange_relation_on_generators_only(stack_z3_f7, smash_tables, monkeypatch):
    """With the B-action bumped at one entry, generators given, the exchange
    relation of M1 # B -> M2 runs once, on the generators of M1 alone, and
    fails; M1 # B is then built as a table, with no scan over the basis of
    M1 in between."""
    t, d2, _p, H_B = stack_z3_f7[:4]
    act_b, _ = action_b_on_m1(t, d2, H_B, sandwich_maps(t, d2))
    maps = [bumped(m, 0, 0) if i == 1 else m for i, m in enumerate(act_b.maps)]
    bad = ModuleAlgebraAction(H_B, act_b.algebra, maps)
    scans = []
    real = galois._exchange_failures

    def recording(T, act, x_embed, h_embed, xs):
        scans.append((act.algebra, xs))
        return real(T, act, x_embed, h_embed, xs)

    monkeypatch.setattr(galois, "_exchange_failures", recording)
    assert not verify_smash_iso_theta(t, d2, H_B, bad, t.levels[0].generators).ok
    assert len(scans) == 1 and scans[0][0] is t.M1 and scans[0][1] is t.levels[0].generators
    assert smash_tables[0] is t.M1


def _model_z3_run():
    from hopftower.depth2 import DepthTwoData
    from hopftower.models import generate_example, model_bundle, model_tower
    from hopftower.pipeline import run_pipeline

    ext, _sidecar = generate_example("function-algebra", {"group": "z3", "field": "f7"})
    _tower, d2, rep = model_tower(model_bundle("function-algebra:z3", ext.M.field))
    assert rep.ok
    return run_pipeline(ext, d2_override=DepthTwoData(A=d2.A, B=d2.B, C=d2.C, source="model"))


def test_verified_run_forms_no_smash_table(smash_tables):
    report = _model_z3_run()
    assert report.exit_code() == 0 and report.hypotheses["galois_extension"] is True
    assert smash_tables == []


def test_closed_gate_builds_the_three_smash_tables(smash_tables, monkeypatch):
    """With invariants-m1 and invariants-m reported failing, the smash
    isomorphisms get no generators and are checked through their tables,
    which still pass."""
    from hopftower import pipeline

    monkeypatch.setattr(pipeline, "verify_invariants", lambda act, expected: CheckOutcome(False, [{"kind": "forced"}]))
    report = _model_z3_run()
    status = {r.check_id: r.status for r in report.results}
    assert [cid for cid, s in status.items() if s == "fail"] == ["invariants-m1", "invariants-m"]
    assert status["smash-theta"] == status["cleft-cocycle"] == "pass"
    state = report.state
    assert smash_tables == [state.tower.M1, state.d2.A.induced_algebra()[0], state.tower.M]


def test_exchange_relation_keeps_the_legs_of_a_noncocommutative_delta():
    """k^S3 grades kS3, delta_g . h = [g = h] h, a module algebra over a
    noncocommutative Delta. In X # H itself, theta = id passes the three
    facts of the exchange route. Each fact decides: with Delta replaced by
    its opposite the exchange relation fails against the same table, with
    i_H doubled theta(1 # 1) = 2, and with one column of theta dropped its
    rank."""
    from hopftower.models import GROUPS, group_hopf

    pair = group_hopf(GROUPS["s3"](), F7)
    X, H = pair.H.algebra, pair.H_dual
    n = pair.G.order
    act = ModuleAlgebraAction(H, X, [LinMap(F7, [{h: F7.one} if h == g else {} for h in range(n)], n)
                                     for g in range(n)])
    assert verify_module_algebra(act).ok
    sm = smash_product(act)
    assert verify_algebra(sm.algebra)[0].ok
    identity = LinMap.identity(F7, sm.algebra.dim)
    assert galois._iso_by_exchange(sm.algebra, identity, act, sm.embed_x, sm.embed_h, generators(X))
    opposite = LinMap(F7, [{k % n * n + k // n: c for k, c in col.items()} for col in H.delta.columns], n * n)
    assert opposite != H.delta
    act_op = ModuleAlgebraAction(HopfStructure(H.algebra, opposite, H.counit, H.antipode), X, act.maps)
    assert not galois._iso_by_exchange(sm.algebra, identity, act_op, sm.embed_x, sm.embed_h, generators(X))
    doubled = LinMap(F7, [sparse_scale(F7, F7.from_int(2), c) for c in sm.embed_h.columns], sm.algebra.dim)
    assert not galois._iso_by_exchange(sm.algebra, identity, act, sm.embed_x, doubled, generators(X))
    dropped = LinMap(F7, [{} if k == 1 else c for k, c in enumerate(identity.columns)], sm.algebra.dim)
    assert not galois._iso_by_exchange(sm.algebra, dropped, act, sm.embed_x, sm.embed_h, generators(X))
