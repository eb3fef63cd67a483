"""Opt-in stress test: the full program on the nonabelian k^(S3) model over
F_7 (tower dimensions 6 / 36 / 216, noncocommutative dual Hopf pair).

Runs in 1.6 s (pytest's session time; the test itself 0.7 s) on a 2-core
Xeon VM with Python 3.11.7; deselected by default.
Run with:

    pytest -m slow tests/test_slow_nonabelian.py
"""
import pytest

from hopftower import galois
from hopftower.algebra import SubspaceBasis, generators
from hopftower.depth2 import (
    check_depth_two,
    conditional_expectations,
    nakayama_relations,
    verify_c_structure,
    verify_f_faithful,
)
from hopftower.fields import PrimeField
from hopftower.galois import (
    action_a_on_m,
    action_b_on_m1,
    cleft_data,
    galois_map,
    verify_invariants,
    verify_smash_iso_theta,
)
from hopftower.hopf import (
    HopfStructure,
    antipode,
    compute_pairing,
    comultiplication,
    dualize,
    sandwich_maps,
    verify_hopf_axioms,
)
from hopftower.models import model_bundle, model_tower


@pytest.mark.slow
def test_nonabelian_s3_model_full_program(monkeypatch):
    F7 = PrimeField(7)
    b = model_bundle("function-algebra:s3", F7)
    t, d2, rep = model_tower(b)
    assert rep.ok
    assert (t.M.dim, t.M1.dim, t.M2.dim) == (6, 36, 216)
    check_depth_two(t, d2)
    assert d2.passed() and d2.n == 6
    assert verify_c_structure(t, d2).ok  # C = M_6(F_7) via 36 matrix units
    _, _, ce = conditional_expectations(t, d2)
    assert ce.ok
    _, ff = verify_f_faithful(t, d2)
    assert ff.ok
    nr = nakayama_relations(t, d2)
    assert nr.report.ok
    p, po = compute_pairing(t, d2)
    assert po.ok
    delta, eps, co = comultiplication(p, t, d2)
    assert co.ok
    sandwiches = sandwich_maps(t, d2)
    S, so = antipode(t, d2, p, sandwiches)
    assert so.ok
    H_B = HopfStructure(p.B_alg, delta, eps, S)
    ax = verify_hopf_axioms(H_B, q_scope=nr.q_B, expect_involutive=True, tower_ctx=(t, d2, sandwiches))
    assert ax.ok, ax.failures[:2]
    H_A, do = dualize(p, H_B, t, d2)
    assert do.ok
    # Delta on B (functions side) is genuinely noncocommutative for S3
    f = F7
    twisted = False
    for j in range(H_B.dim):
        legs = H_B.delta_coords(j)
        if any((u, v) != (v, u) and not any(u2 == v and v2 == u and f.eq(c2, c) for u2, v2, c2 in legs)
               for u, v, c in legs):
            twisted = True
    assert twisted
    act_b, abo = action_b_on_m1(t, d2, H_B, sandwiches)
    assert abo.ok
    m_img = SubspaceBasis(t.M1, [t.incl1.apply({i: F7.one}) for i in range(6)])
    assert verify_invariants(act_b, m_img).ok
    assert verify_smash_iso_theta(t, d2, H_B, act_b).ok
    act_a, aao = action_a_on_m(t, d2, H_A)
    assert aao.ok
    assert cleft_data(t, d2, H_A, p, act_a, act_b).ok
    # given generators, the exchange relation decides the three smash
    # isomorphisms with no smash table, the legs of the noncocommutative
    # Delta in order
    tables = []
    real = galois.smash_product
    monkeypatch.setattr(galois, "smash_product", lambda *args: tables.append(args) or real(*args))
    assert verify_smash_iso_theta(t, d2, H_B, act_b, t.levels[0].generators).ok
    assert cleft_data(t, d2, H_A, p, act_a, act_b, generators(t.M)).ok
    assert tables == []
    assert galois_map(act_a, t.base_sys.tq).ok
