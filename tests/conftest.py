"""Shared fixtures: the named extensions, their towers and the model bundles.

Towers are session-scoped because the dim-54 and dim-64 constructions are the
expensive part of the suite; everything downstream reuses them.
"""
from __future__ import annotations

import functools
import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from hopftower.algebra import verify_algebra
from hopftower.depth2 import DepthTwoData, check_depth_two, second_centralizers
from hopftower.fields import PrimeField, RationalField
from hopftower.frobenius import (
    CheckOutcome,
    solve_dual_bases,
    verify_conditional_expectation,
    verify_frobenius_identities,
)
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


@pytest.fixture(scope="session")
def sys_trivial(ext_trivial):
    return solve_dual_bases(ext_trivial)


@pytest.fixture(scope="session")
def sys_s3_a3(ext_s3_a3):
    return solve_dual_bases(ext_s3_a3)


@pytest.fixture(scope="session")
def sys_s3_z2(ext_s3_z2):
    return solve_dual_bases(ext_s3_z2)


@pytest.fixture(scope="session")
def sys_sqrt2(ext_sqrt2):
    return solve_dual_bases(ext_sqrt2)


@pytest.fixture(scope="session")
def sys_m2f2(ext_m2f2):
    return solve_dual_bases(ext_m2f2)


# -- towers -----------------------------------------------------------------


def base_verified(sys) -> bool:
    """Whether the checks the pipeline makes on M and its system before the
    tower pass: M is an algebra, N a unital subalgebra, E a conditional
    expectation and the Frobenius identities hold."""
    ext = sys.ext
    return (verify_algebra(ext.M)[0].ok and ext.N.is_unital_subalgebra()
            and verify_conditional_expectation(ext, sys.E).ok and verify_frobenius_identities(sys).ok)


def verified_tower(sys):
    """build_tower with an honest base_verified, so the tower keeps its
    generator paths exactly when its base passed its checks."""
    return build_tower(sys, base_verified=base_verified(sys))


def check_passed(level, name: str) -> bool:
    """Whether the named check of a tower level came out true."""
    return dict(level.checks)[name].ok


FAILED = CheckOutcome(False, [{"kind": "failed"}])


def failed_level(level, check: str, outcome=FAILED):
    """The tower level with one of its checks reported as outcome, a failure:
    the level is no longer verified."""
    return replace(level, checks=[(n, outcome if n == check else o) for n, o in level.checks], verified=False)


def with_failed_check(t, k: int, check: str):
    """The tower with one check of level k reported failed. As in
    build_tower, a failed check closes every later shortcut: level k and
    every level above it are no longer verified."""
    levels = list(t.levels)
    levels[k] = failed_level(levels[k], check)
    levels[k + 1:] = [replace(level, verified=False) for level in levels[k + 1:]]
    return replace(t, levels=levels)


@pytest.fixture(scope="session")
def tower_trivial(sys_trivial):
    return verified_tower(sys_trivial)


@pytest.fixture(scope="session")
def tower_s3_a3(sys_s3_a3):
    return verified_tower(sys_s3_a3)


@pytest.fixture(scope="session")
def tower_s3_z2(sys_s3_z2):
    return verified_tower(sys_s3_z2)


@pytest.fixture(scope="session")
def tower_sqrt2(sys_sqrt2):
    return verified_tower(sys_sqrt2)


@pytest.fixture(scope="session")
def tower_m2f2(sys_m2f2):
    return verified_tower(sys_m2f2)


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


def word_span_dim(alg, gens):
    """Dimension of the span of 1 and the left-normed words in gens, grown one
    word length at a time until it stops growing."""
    from hopftower.algebra import SubspaceBasis

    span = SubspaceBasis.from_spanning(alg, [alg.unit])
    while True:
        words = span.vectors + [alg.mul_sparse(w, g) for w in span.vectors for g in gens]
        grown = SubspaceBasis.from_spanning(alg, words)
        if grown.dim == span.dim:
            return span.dim
        span = grown


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


def naive_mul(alg, x, y):
    """x y from the structure constants over every pair of terms x_i e_i,
    y_j e_j, whether e_i e_j is 0 or not, with zero sums dropped only at the
    end: the reference for Algebra.mul_sparse."""
    f = alg.field
    acc: dict = {}
    for i, xi in x.items():
        for j, yj in y.items():
            c = f.mul(xi, yj)
            for k, t in alg.cell(i, j).items():
                acc[k] = f.add(acc.get(k, f.zero), f.mul(c, t))
    return {k: v for k, v in acc.items() if v}


def reference_failures(alg, limit=4):
    """The failures of the full scan as verify_algebra lists them, at most
    limit unit then at most limit associativity failures, both sides in
    report-witness form: the unit laws on every basis element, then both sides
    as products of sparse elements, (e_i e_j) e_k and e_i (e_j e_k), over the
    triples (i, j, k) in lexicographic order, all formed with naive_mul."""
    from itertools import islice

    one, w = alg.field.one, alg.field.witness
    units = [
        {"basis": i, "left": w(left), "right": w(right)}
        for i in range(alg.dim)
        for left, right in [(naive_mul(alg, alg.unit, {i: one}), naive_mul(alg, {i: one}, alg.unit))]
        if left != {i: one} or right != {i: one}
    ]
    triples = (
        {"triple": (i, j, k), "lhs": w(lhs), "rhs": w(rhs)}
        for i in range(alg.dim)
        for j in range(alg.dim)
        for k in range(alg.dim)
        for lhs, rhs in [(naive_mul(alg, alg.cell(i, j), {k: one}), naive_mul(alg, {i: one}, alg.cell(j, k)))]
        if lhs != rhs
    )
    return units[:limit] + list(islice(triples, limit))


def non_associative(example, params, bump):
    """The catalog extension with one added to the structure constant
    c_ij^k of M, bump = (i, j, k): associativity fails, and so do the unit
    laws when e_i or e_j is a term of the unit."""
    from hopftower.algebra import Algebra, SubspaceBasis
    from hopftower.frobenius import ExtensionSpec
    from hopftower.models import generate_example

    ext, _sidecar = generate_example(example, params)
    M = ext.M
    bad = Algebra.from_entries(M.field, M.dim, M.entries() + [bump + (M.field.one,)], M.unit)
    return ExtensionSpec(bad, SubspaceBasis(bad, ext.N.vectors), E=ext.E)


@functools.cache
def sweep_tool():
    """tools/sweep.py as a module: its catalog() is the one list of catalog
    cases the tests run."""
    path = Path(__file__).resolve().parent.parent / "tools" / "sweep.py"
    spec = importlib.util.spec_from_file_location("sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
