from dataclasses import replace

import pytest
from conftest import bumped

from hopftower import hopf
from hopftower.algebra import WITNESS_FAILURES, SubspaceBasis
from hopftower.fields import PrimeField, RationalField
from hopftower.hopf import (
    HopfError,
    HopfStructure,
    _tower_axioms,
    bialgebra_from_abstract_pairing,
    compute_pairing,
    comultiplication,
    sandwich_maps,
    verify_hopf_axioms,
)
from hopftower.linalg import LinMap, rank, sparse_axpy, sparse_scale
from hopftower.models import (
    GROUPS,
    evaluation_pairing,
    function_algebra,
    group_algebra,
    group_hopf,
)

Q = RationalField()
F7 = PrimeField(7)


# -- abstract oracle path ------------------------------------------------------


@pytest.mark.parametrize("gname", ["z2", "z3", "s3"])
@pytest.mark.parametrize("field", [Q, F7], ids=["Q", "F7"])
def test_abstract_pairing_reproduces_closed_forms(gname, field):
    G = GROUPS[gname]()
    pair = group_hopf(G, field)
    assert pair.report.ok
    H, rep = bialgebra_from_abstract_pairing(
        group_algebra(G, field),
        function_algebra(G, field),
        evaluation_pairing(G, field),
        antipode_candidate=pair.H_dual.antipode,
    )
    assert rep.ok, rep.failures[:3]
    closed = pair.H_dual
    assert H.delta == closed.delta
    assert H.counit == closed.counit
    assert H.antipode == closed.antipode
    assert H.antipode.compose(H.antipode) == LinMap.identity(field, G.order)


def test_abstract_group_delta_is_convolution_form():
    # Delta(delta_x) = sum over factorizations y z = x, brute forced
    G = GROUPS["z3"]()
    pair = group_hopf(G, Q)
    H, rep = bialgebra_from_abstract_pairing(
        group_algebra(G, Q), function_algebra(G, Q), evaluation_pairing(G, Q)
    )
    n = G.order
    for x in range(n):
        legs = H.delta_coords(x)
        expected = {(y, z) for y in range(n) for z in range(n) if G.mul[y][z] == x}
        assert {(u, v) for u, v, c in legs} == expected
        assert all(str(c) == "1" for _, _, c in legs)


def test_identity_pairing_on_group_algebra_fails():
    G = GROUPS["z2"]()
    H, rep = bialgebra_from_abstract_pairing(
        group_algebra(G, Q), group_algebra(G, Q), LinMap.identity(Q, 2)
    )
    assert not rep.ok
    kinds = {f["kind"] for f in rep.failures}
    assert "delta-multiplicative" in kinds or "delta-unital" in kinds


def test_singular_pairing_raises():
    G = GROUPS["z2"]()
    with pytest.raises(HopfError):
        bialgebra_from_abstract_pairing(
            group_algebra(G, Q), function_algebra(G, Q), LinMap(Q, [{}, {}], 2)
        )


def test_corrupted_delta_fails_coassociativity():
    G = GROUPS["z3"]()
    pair = group_hopf(G, Q)
    H = pair.H_dual
    bad = HopfStructure(H.algebra, bumped(H.delta, 0, 1), H.counit, H.antipode)
    out = verify_hopf_axioms(bad)
    assert not out.ok
    kinds = {f["kind"] for f in out.failures}
    assert "coassociativity" in kinds


def test_group_hopf_axioms_directly():
    for field in (Q, F7):
        for gname in ("z2", "z3", "s3"):
            pair = group_hopf(GROUPS[gname](), field)
            assert verify_hopf_axioms(pair.H, expect_involutive=True).ok
            assert verify_hopf_axioms(pair.H_dual, expect_involutive=True).ok


# -- tower pairing --------------------------------------------------------------


def test_pairing_trivial(stack_trivial):
    p = stack_trivial[2]
    assert p.P.codomain_dim == 1 and str(p.P.columns[0][0]) == "1"


def test_pairing_models_invertible(stack_z2, stack_z3_f7):
    for stack in (stack_z2, stack_z3_f7):
        p = stack[2]
        from hopftower.linalg import invert

        assert invert(p.P) is not None
        assert p.A_alg.dim == p.B_alg.dim


def test_counit_of_e2_is_one(stack_z2, stack_z3_f7, stack_trivial):
    # eps(e2) = lam^-1 F(e2 e2) = lam^-1 F(e2) = 1
    for stack in (stack_trivial, stack_z2, stack_z3_f7):
        t, d2, p, H_B = stack[0], stack[1], stack[2], stack[3]
        f = t.M.field
        e2_B = d2.B.coords(t.e2)
        assert f.eq(H_B.counit_apply(e2_B), f.one)


def test_pairing_of_unit_with_e2(stack_z2):
    # <1_A, e2> = eps(e2) = 1
    t, d2, p = stack_z2[0], stack_z2[1], stack_z2[2]
    f = t.M.field
    unit_a = d2.A.coords(t.M1.unit)
    e2_b = d2.B.coords(t.e2)
    acc = f.zero
    for i, ci in unit_a.items():
        for j, cj in e2_b.items():
            acc = f.add(acc, f.mul(f.mul(ci, cj), p.P.columns[j].get(i, f.zero)))
    assert f.eq(acc, f.one)


def test_antipode_fixes_e2(stack_z2, stack_z3_f7):
    for stack in (stack_z2, stack_z3_f7):
        t, d2, H_B = stack[0], stack[1], stack[3]
        e2_B = d2.B.coords(t.e2)
        assert H_B.antipode.apply(e2_B) == e2_B


def test_tower_hopf_axioms_full(stack_z2, stack_z3_f7, stack_trivial):
    for stack in (stack_trivial, stack_z2, stack_z3_f7):
        t, d2, p, H_B, H_A, naka = stack
        out = verify_hopf_axioms(
            H_B, q_scope=naka.q_B, expect_involutive=True, tower_ctx=(t, d2, sandwich_maps(t, d2))
        )
        assert out.ok, out.failures[:3]


def test_antipode_squared_is_inverse_nakayama(stack_z2):
    t, d2, p, H_B, H_A, naka = stack_z2
    f = t.M.field
    from hopftower.linalg import invert

    S2 = H_B.antipode.compose(H_B.antipode)
    assert S2 == invert(naka.q_B)


def test_dual_hopf_is_group_algebra_side(stack_z2, bundle_z2):
    # B is the function-algebra side (diagonal multiplication), so its dual A
    # must have grouplike comultiplication after the pairing transpose
    t, d2, p, H_B, H_A, naka = stack_z2
    f = t.M.field
    out = verify_hopf_axioms(H_A, expect_involutive=True)
    assert out.ok
    # counit of A at e1 is 1
    e1_A = d2.A.coords(t.e1)
    assert f.eq(H_A.counit_apply(e1_A), f.one)


def test_delta_independent_of_a_basis(model_z2):
    # recompute the pairing with a permuted and rescaled basis of A; Delta on
    # B must not change
    t, d2 = model_z2
    f = t.M.field
    from hopftower.depth2 import DepthTwoData

    p1, out1 = compute_pairing(t, d2)
    delta1, eps1, _ = comultiplication(p1, t, d2)
    two = f.from_int(2)
    permuted = [
        sparse_scale(f, two, d2.A.vectors[1]),
        dict(d2.A.vectors[0]),
    ]
    d2b = DepthTwoData(
        A=SubspaceBasis(t.M1, permuted), B=d2.B, C=d2.C, source=d2.source
    )
    p2, out2 = compute_pairing(t, d2b)
    assert out2.ok
    delta2, eps2, out = comultiplication(p2, t, d2b)
    assert out.ok
    assert delta1 == delta2 and eps1 == eps2


def test_dual_of_function_algebra_is_grouplike(stack_z2, stack_z3_f7):
    # A is the embedded copy of k[G] in the model towers, in the group-element
    # basis order, so the reconstructed Delta_A must be grouplike
    # (Delta(a_i) = a_i (x) a_i) and eps_A identically 1
    for stack in (stack_z2, stack_z3_f7):
        t, d2, p, H_B, H_A = stack[0], stack[1], stack[2], stack[3], stack[4]
        f = t.M.field
        n = H_A.dim
        for i in range(n):
            legs = H_A.delta_coords(i)
            assert legs == [(i, i, f.one)]
            assert f.eq(H_A.counit.columns[i].get(0, f.zero), f.one)
        # and the reconstructed S_A is the group inversion permutation
        for i in range(n):
            col = [H_A.antipode.columns[i].get(r, f.zero) for r in range(n)]
            assert sum(1 for c in col if not f.is_zero(c)) == 1
            assert any(f.eq(c, f.one) for c in col)


def test_dualize_pairing_compatibility(stack_z3_f7):
    # <S_A a, b> = <a, S_B b> on all basis pairs
    t, d2, p, H_B, H_A, naka = stack_z3_f7
    f = t.M.field
    for i in range(p.A_alg.dim):
        for j in range(p.B_alg.dim):
            lhs = f.zero
            for u in range(p.A_alg.dim):
                c = H_A.antipode.columns[i].get(u, f.zero)
                if not f.is_zero(c):
                    lhs = f.add(lhs, f.mul(c, p.P.columns[j].get(u, f.zero)))
            rhs = f.zero
            for v in range(p.B_alg.dim):
                c = H_B.antipode.columns[j].get(v, f.zero)
                if not f.is_zero(c):
                    rhs = f.add(rhs, f.mul(c, p.P.columns[v].get(i, f.zero)))
            assert f.eq(lhs, rhs)


# -- failure equivalence with the per-element loops ----------------------------
#
# The tower identities are read from precomputed sandwich maps. The loops they
# replaced, which form every product and E_M1 value at each basis tuple, are
# kept here as references: on perturbed data both must report exactly the
# same failures, in the same order, each law stopped at the same count.


def _reference_tower_axioms(H, t, d2, limit=WITNESS_FAILURES):
    """Up to limit exchange failures, then up to limit failures of the two
    action identities; the integral and centrality checks only when fewer
    than limit failures came before them."""
    f = t.M.field
    M1, M2 = t.M1, t.M2
    lam_inv = t.base_sys.lambda_inverse
    failures = []
    db = H.dim
    b_vecs = d2.B.vectors
    delta_legs = [H.delta_coords(j) for j in range(db)]
    for x in range(M1.dim):
        yh = t.incl2.apply({x: f.one})
        for j in range(db):
            lhs = M2.mul_sparse(yh, b_vecs[j])
            rhs = {}
            for u, v, c in delta_legs[j]:
                inner = t.E_M1.apply(M2.mul_sparse(M2.mul_sparse(t.e2, yh), b_vecs[u]))
                term = M2.mul_sparse(b_vecs[v], t.incl2.apply(inner))
                sparse_axpy(f, rhs, f.mul(lam_inv, c), term)
            if lhs != rhs:
                failures.append({"kind": "exchange-relation", "pair": (x, j)})
                if len(failures) >= limit:
                    return failures
    actions = []
    for x in range(M1.dim):
        xh = t.incl2.apply({x: f.one})
        for y in range(M1.dim):
            yh = t.incl2.apply({y: f.one})
            xy = M2.mul_sparse(xh, yh)
            for j in range(db):
                lhs = t.E_M1.apply(M2.mul_sparse(M2.mul_sparse(t.e2, xy), b_vecs[j]))
                rhs = {}
                for u, v, c in delta_legs[j]:
                    t1 = t.E_M1.apply(M2.mul_sparse(M2.mul_sparse(t.e2, xh), b_vecs[v]))
                    t2 = t.E_M1.apply(M2.mul_sparse(M2.mul_sparse(t.e2, yh), b_vecs[u]))
                    term = M1.mul_sparse(t1, t2)
                    sparse_axpy(f, rhs, f.mul(lam_inv, c), term)
                if lhs != rhs:
                    actions.append({"kind": "action-identity", "triple": (x, y, j)})
                    if len(actions) >= limit:
                        return failures + actions
                lhs = t.E_M1.apply(M2.mul_sparse(M2.mul_sparse(b_vecs[j], xy), t.e2))
                rhs = {}
                for u, v, c in delta_legs[j]:
                    t1 = t.E_M1.apply(M2.mul_sparse(M2.mul_sparse(b_vecs[u], xh), t.e2))
                    t2 = t.E_M1.apply(M2.mul_sparse(M2.mul_sparse(b_vecs[v], yh), t.e2))
                    term = M1.mul_sparse(t1, t2)
                    sparse_axpy(f, rhs, f.mul(lam_inv, c), term)
                if lhs != rhs:
                    actions.append({"kind": "left-action-identity", "triple": (x, y, j)})
                    if len(actions) >= limit:
                        return failures + actions
    failures += actions
    if len(failures) >= limit:
        return failures
    e2_B = d2.B.coords(t.e2)
    if e2_B is None:
        failures.append({"kind": "e2-outside-B"})
        return failures
    for j in range(db):
        left = M2.mul_sparse(t.e2, b_vecs[j])
        right = M2.mul_sparse(b_vecs[j], t.e2)
        expected = sparse_scale(f, H.counit.columns[j].get(0, f.zero), t.e2)
        if left != expected or right != expected:
            failures.append({"kind": "e2-not-integral", "basis": j})
    for j in range(db):
        if M2.mul_sparse(t.e2, b_vecs[j]) != M2.mul_sparse(b_vecs[j], t.e2):
            failures.append({"kind": "e2-not-central", "basis": j})
    for a in d2.A.vectors:
        if M1.mul_sparse(t.e1, a) != M1.mul_sparse(a, t.e1):
            failures.append({"kind": "e1-not-central"})
            break
    return failures


def _reference_remark_identity(t, d2, S):
    f = t.M.field
    M2 = t.M2
    failures = []
    if rank(S) != d2.B.dim:
        failures.append({"kind": "S not bijective"})
    for x in range(t.M1.dim):
        xh = t.incl2.apply({x: f.one})
        for j, b in enumerate(d2.B.vectors):
            lhs = t.E_M1.apply(M2.mul_sparse(M2.mul_sparse(b, xh), t.e2))
            sb = {}
            for u in range(S.codomain_dim):
                sparse_axpy(f, sb, S.columns[j].get(u, f.zero), d2.B.vectors[u])
            rhs = t.E_M1.apply(M2.mul_sparse(M2.mul_sparse(t.e2, xh), sb))
            if lhs != rhs:
                failures.append({"kind": "remark-identity", "pair": (x, j)})
                if len(failures) >= 4:
                    return failures
    return failures


@pytest.mark.parametrize("entry", [(0, 0), (4, 1), (8, 2)])
@pytest.mark.parametrize("budget", [2, 5, 10**6])
def test_tower_axioms_match_reference_on_perturbed_delta(stack_z3_f7, entry, budget):
    # budget is the reference's own stopping count: whatever it is, the
    # failures a report shows lead the reference's list
    t, d2, p, H_B = stack_z3_f7[:4]
    sandwiches = sandwich_maps(t, d2)
    assert _tower_axioms(H_B, t, d2, sandwiches) == _reference_tower_axioms(H_B, t, d2) == []
    assert _reference_tower_axioms(H_B, t, d2, budget) == []
    bad = HopfStructure(H_B.algebra, bumped(H_B.delta, *entry), H_B.counit, H_B.antipode)
    got = _tower_axioms(bad, t, d2, sandwiches)
    assert got, "the perturbed Delta must be seen"
    assert got == _reference_tower_axioms(bad, t, d2)
    shown = min(budget, WITNESS_FAILURES)
    assert got[:shown] == _reference_tower_axioms(bad, t, d2, budget)[:shown]


@pytest.mark.parametrize("entry", [(0, 1), (2, 0)])
def test_antipode_matches_reference_on_perturbed_s(stack_z3_f7, entry):
    # S = Phi^-1 Psi: perturbing the pairing's Phi^-1 perturbs S inside antipode
    t, d2, p, H_B = stack_z3_f7[:4]
    sandwiches = sandwich_maps(t, d2)
    S, out = hopf.antipode(t, d2, p, sandwiches)
    assert out.ok and S == H_B.antipode
    assert _reference_remark_identity(t, d2, S) == []
    S_bad, out = hopf.antipode(t, d2, replace(p, Phi_inv=bumped(p.Phi_inv, *entry)), sandwiches)
    assert S_bad != H_B.antipode
    assert out.failures, "the perturbed S must be seen"
    assert out.failures == _reference_remark_identity(t, d2, S_bad)
