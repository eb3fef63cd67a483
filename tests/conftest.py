"""Shared fixtures: the named extensions, their towers and the model bundles.

Towers are session-scoped because the dim-54 and dim-64 constructions are the
expensive part of the suite; everything downstream reuses them.
"""
from __future__ import annotations

import pytest

from hopftower.depth2 import DepthTwoData, check_depth_two, second_centralizers
from hopftower.fields import PrimeField, RationalField
from hopftower.frobenius import classify, solve_dual_bases
from hopftower.models import (
    group_pair_extension,
    m2f2_extension,
    model_bundle,
    model_tower,
    quadratic_field_extension,
    symmetric_group_3,
    trivial_extension,
)
from hopftower.tower import build_tower


@pytest.fixture(scope="session")
def Q():
    return RationalField()


@pytest.fixture(scope="session")
def F7():
    return PrimeField(7)


@pytest.fixture(scope="session")
def F2():
    return PrimeField(2)


@pytest.fixture(scope="session")
def s3():
    return symmetric_group_3()


# -- extensions -------------------------------------------------------------


@pytest.fixture(scope="session")
def ext_trivial(Q):
    return trivial_extension(Q)


@pytest.fixture(scope="session")
def ext_s3_a3(Q, s3):
    return group_pair_extension(Q, s3, [0, 4, 5])


@pytest.fixture(scope="session")
def ext_s3_z2(Q, s3):
    return group_pair_extension(Q, s3, [0, 1])


@pytest.fixture(scope="session")
def ext_sqrt2(Q):
    return quadratic_field_extension(Q, Q.from_int(2))


@pytest.fixture(scope="session")
def ext_m2f2():
    return m2f2_extension()


def _system(ext):
    sys = solve_dual_bases(ext)
    classify(ext, sys)
    return sys


@pytest.fixture(scope="session")
def sys_trivial(ext_trivial):
    return _system(ext_trivial)


@pytest.fixture(scope="session")
def sys_s3_a3(ext_s3_a3):
    return _system(ext_s3_a3)


@pytest.fixture(scope="session")
def sys_s3_z2(ext_s3_z2):
    return _system(ext_s3_z2)


@pytest.fixture(scope="session")
def sys_sqrt2(ext_sqrt2):
    return _system(ext_sqrt2)


@pytest.fixture(scope="session")
def sys_m2f2(ext_m2f2):
    return _system(ext_m2f2)


# -- towers -----------------------------------------------------------------


@pytest.fixture(scope="session")
def tower_trivial(sys_trivial):
    return build_tower(sys_trivial)


@pytest.fixture(scope="session")
def tower_s3_a3(sys_s3_a3):
    return build_tower(sys_s3_a3)


@pytest.fixture(scope="session")
def tower_s3_z2(sys_s3_z2):
    return build_tower(sys_s3_z2)


@pytest.fixture(scope="session")
def tower_sqrt2(sys_sqrt2):
    return build_tower(sys_sqrt2)


@pytest.fixture(scope="session")
def tower_m2f2(sys_m2f2):
    return build_tower(sys_m2f2)


# -- honest depth-2 data ------------------------------------------------------


def _depth2(tower):
    A, B, C = second_centralizers(tower)
    return check_depth_two(tower, DepthTwoData(A=A, B=B, C=C))


@pytest.fixture(scope="session")
def d2_trivial(tower_trivial):
    return _depth2(tower_trivial)


@pytest.fixture(scope="session")
def d2_s3_a3(tower_s3_a3):
    return _depth2(tower_s3_a3)


@pytest.fixture(scope="session")
def d2_s3_z2(tower_s3_z2):
    return _depth2(tower_s3_z2)


@pytest.fixture(scope="session")
def d2_sqrt2(tower_sqrt2):
    return _depth2(tower_sqrt2)


# -- model bundles and synthetic towers --------------------------------------


@pytest.fixture(scope="session")
def bundle_z2(Q):
    return model_bundle("function-algebra:z2", Q)


@pytest.fixture(scope="session")
def bundle_z3_f7(F7):
    return model_bundle("function-algebra:z3", F7)


@pytest.fixture(scope="session")
def bundle_sqrt2(Q):
    return model_bundle("quadratic-field", Q, d=Q.from_int(2))


@pytest.fixture(scope="session")
def model_z2(bundle_z2):
    t, d2, rep = model_tower(bundle_z2)
    assert rep.ok, rep.failures
    check_depth_two(t, d2)
    return t, d2


@pytest.fixture(scope="session")
def model_z3_f7(bundle_z3_f7):
    t, d2, rep = model_tower(bundle_z3_f7)
    assert rep.ok, rep.failures
    check_depth_two(t, d2)
    return t, d2


def hopf_stack(t, d2):
    """Pairing, Delta/eps, S, both Hopf structures and the Nakayama data."""
    from hopftower.depth2 import conditional_expectations, nakayama_relations
    from hopftower.hopf import (
        HopfStructure,
        antipode,
        compute_pairing,
        comultiplication,
        dualize,
        sandwich_maps,
    )

    conditional_expectations(t, d2)
    p, p_out = compute_pairing(t, d2)
    assert p_out.ok, p_out.failures
    delta, eps, c_out = comultiplication(p, t, d2)
    assert c_out.ok, c_out.failures
    S, s_out = antipode(t, d2, p, sandwich_maps(t, d2))
    assert s_out.ok, s_out.failures
    H_B = HopfStructure(p.B_alg, delta, eps, S)
    H_A, d_out = dualize(p, H_B, t, d2)
    assert d_out.ok, d_out.failures
    naka = nakayama_relations(t, d2)
    return p, H_B, H_A, naka


@pytest.fixture(scope="session")
def stack_z2(model_z2):
    t, d2 = model_z2
    return (t, d2) + hopf_stack(t, d2)


@pytest.fixture(scope="session")
def stack_z3_f7(model_z3_f7):
    t, d2 = model_z3_f7
    return (t, d2) + hopf_stack(t, d2)


@pytest.fixture(scope="session")
def stack_trivial(tower_trivial, d2_trivial):
    return (tower_trivial, d2_trivial) + hopf_stack(tower_trivial, d2_trivial)


def bumped(m, r, c):
    """Copy of a linear map with one added to its matrix entry (r, c)."""
    from hopftower.linalg import LinMap, sparse_add

    cols = [dict(col) for col in m.columns]
    sparse_add(m.field, cols[c], r, m.field.one)
    return LinMap(m.field, cols, m.codomain_dim)


def rows_map(field, rows):
    """The linear map whose matrix has these dense rows."""
    from hopftower.linalg import LinMap

    ncols = len(rows[0]) if rows else 0
    cols = [{r: row[j] for r, row in enumerate(rows) if row[j]} for j in range(ncols)]
    return LinMap(field, cols, len(rows))


def build_quartic_tower():
    """Q in Q(sqrt2) in Q(sqrt2, i) with the projection onto the middle field."""
    from hopftower.algebra import Algebra, SubspaceBasis
    from hopftower.frobenius import ExtensionSpec

    Q = RationalField()
    entries = []
    basis = [(0, 0), (1, 0), (0, 1), (1, 1)]  # w^a u^b with w^2 = 2, u^2 = -1
    idx = {b: i for i, b in enumerate(basis)}
    for (a, b) in basis:
        for (c, d) in basis:
            coef = Q.one
            aa, bb = a + c, b + d
            if aa >= 2:
                coef = Q.mul(coef, Q.from_int(2))
                aa -= 2
            if bb >= 2:
                coef = Q.mul(coef, Q.from_int(-1))
                bb -= 2
            entries.append((idx[(a, b)], idx[(c, d)], idx[(aa, bb)], coef))
    R = Algebra.from_entries(Q, 4, entries, {0: Q.one})
    Msub = SubspaceBasis(R, [{0: Q.one}, {1: Q.one}])
    F_map = rows_map(Q, [
        [Q.one, Q.zero, Q.zero, Q.zero],
        [Q.zero, Q.one, Q.zero, Q.zero],
    ])
    return ExtensionSpec(R, Msub, E=F_map)
