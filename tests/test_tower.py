from dataclasses import replace

import pytest
from test_generator_sites import CASES, _state

from hopftower.algebra import Algebra, TensorQuotient, right_module_endomorphisms
from hopftower.fields import RationalField
from hopftower.frobenius import solve_dual_bases
from hopftower.linalg import rank, sparse_add, sparse_scale
from hopftower.models import generate_example
from hopftower.tower import (
    TowerError,
    _verify_triple_tensor,
    basic_construction,
    endo_ring_iso,
    verify_braid_relations,
    verify_cyclic_span,
    verify_pimsner_popa,
)

Q = RationalField()


def test_trivial_tower_dims(tower_trivial):
    assert (tower_trivial.M.dim, tower_trivial.M1.dim, tower_trivial.M2.dim) == (1, 1, 1)
    assert tower_trivial.e1 == tower_trivial.M1.unit


def test_sqrt2_tower_dims_and_index(tower_sqrt2):
    assert (tower_sqrt2.M1.dim, tower_sqrt2.M2.dim) == (4, 8)
    assert str(tower_sqrt2.base_sys.lambda_inverse) == "2"
    e1 = tower_sqrt2.e1
    assert tower_sqrt2.M1.mul_sparse(e1, e1) == e1


def test_group_pair_tower_dims(tower_s3_a3, tower_s3_z2):
    assert (tower_s3_a3.M1.dim, tower_s3_a3.M2.dim) == (12, 24)
    assert (tower_s3_z2.M1.dim, tower_s3_z2.M2.dim) == (18, 54)


def test_m2f2_tower_dims(tower_m2f2):
    assert (tower_m2f2.M1.dim, tower_m2f2.M2.dim) == (16, 64)


def test_level_checks_pass(tower_sqrt2, tower_s3_a3, tower_s3_z2, tower_m2f2):
    for t in (tower_sqrt2, tower_s3_a3, tower_s3_z2, tower_m2f2):
        for level in t.levels:
            for name, out in level.checks:
                assert out.ok, (name, out.failures[:1])
        for name, out in t.emtwo_checks:
            assert out.ok, (name, out.failures[:1])


def test_braid_relations_all(tower_trivial, tower_sqrt2, tower_s3_a3, tower_s3_z2, tower_m2f2):
    for t in (tower_trivial, tower_sqrt2, tower_s3_a3, tower_s3_z2, tower_m2f2):
        assert verify_braid_relations(t).ok


def test_pimsner_popa_all(tower_trivial, tower_sqrt2, tower_s3_a3, tower_s3_z2, tower_m2f2):
    for t in (tower_trivial, tower_sqrt2, tower_s3_a3, tower_s3_z2, tower_m2f2):
        assert verify_pimsner_popa(t).ok


def test_cyclic_span_all(tower_trivial, tower_sqrt2, tower_s3_a3, tower_s3_z2, tower_m2f2):
    for t in (tower_trivial, tower_sqrt2, tower_s3_a3, tower_s3_z2, tower_m2f2):
        assert verify_cyclic_span(t).ok


def test_endo_ring_iso_all(
    sys_trivial, tower_trivial,
    sys_sqrt2, tower_sqrt2,
    sys_s3_a3, tower_s3_a3,
    sys_s3_z2, tower_s3_z2,
    sys_m2f2, tower_m2f2,
):
    cases = [
        (sys_trivial, tower_trivial, 1),
        (sys_sqrt2, tower_sqrt2, 4),
        (sys_s3_a3, tower_s3_a3, 12),
        (sys_s3_z2, tower_s3_z2, 18),
        (sys_m2f2, tower_m2f2, 16),
    ]
    for sys, t, dim in cases:
        res = endo_ring_iso(sys, t.levels[0])
        assert res.ok, res.failures[:1]
        assert right_module_endomorphisms(sys.M, sys.ext.embed).dim == dim == t.M1.dim


def test_inclusion_is_monomorphism(tower_s3_a3):
    t = tower_s3_a3
    assert rank(t.incl1) == t.M.dim
    assert rank(t.incl2) == t.M1.dim
    # incl respects products
    for i in range(t.M.dim):
        for j in range(t.M.dim):
            prod = t.M.cell(i, j)
            lhs = t.incl1.apply(prod)
            rhs = t.M1.mul_sparse(
                t.incl1.apply({i: Q.one}),
                t.incl1.apply({j: Q.one}),
            )
            assert lhs == rhs


def test_level_dual_bases_shape(tower_sqrt2):
    # E_M has dual bases {lam^-1 x_i (x) 1}, {1 (x) y_i}
    t = tower_sqrt2
    sys1 = t.levels[0].sys
    assert len(sys1.dual_pairs) == len(t.base_sys.dual_pairs)
    lam_inv = t.base_sys.lambda_inverse
    tq = t.base_sys.tq
    for (X, Yv), (x, y) in zip(sys1.dual_pairs, t.base_sys.dual_pairs):
        assert X == tq.project_pure(sparse_scale(Q, lam_inv, x), t.M.unit)
        assert Yv == tq.project_pure(t.M.unit, y)


def test_condexp_of_jones_idempotents(tower_sqrt2):
    t = tower_sqrt2
    lam = t.lam
    assert t.E_M.apply(t.e1) == sparse_scale(Q, lam, t.M.unit)
    assert t.E_M1.apply(t.e2) == sparse_scale(Q, lam, t.M1.unit)


def test_composite_functional_on_jones_idempotents(tower_sqrt2, tower_s3_a3):
    # F(e2) = lam 1 and F(e2 e1) = lam^2 1
    for t in (tower_sqrt2, tower_s3_a3):
        lam = t.lam
        lam2 = Q.mul(lam, lam)
        assert t.F.apply(t.e2) == sparse_scale(Q, lam, t.M.unit)
        prod = t.M2.mul_sparse(t.e2, t.e1_in_m2())
        assert t.F.apply(prod) == sparse_scale(Q, lam2, t.M.unit)


def test_basic_construction_requires_scalar_index(ext_sqrt2):
    from hopftower.algebra import LinMap

    # E(a + bw) = b is Frobenius but has E(1) = 0, so the construction
    # must refuse (not normalized / zero case is caught earlier too)
    skew = LinMap(Q, [{}, {0: Q.one}], 1)
    sys = solve_dual_bases(ext_sqrt2, skew)
    with pytest.raises(TowerError):
        basic_construction(sys)


def test_f_is_composite(tower_sqrt2):
    t = tower_sqrt2
    for y in range(t.M2.dim):
        ey = {y: Q.one}
        assert t.F.apply(ey) == t.E_M.apply(t.E_M1.apply(ey))


def test_triple_tensor_closed_forms_catch_a_bumped_e2_and_unit(tower_s3_a3):
    """e2 and 1_2 of level 2 are compared with sum x_i (x) y_i x_j (x) y_j and
    sum lam^-1 x_i (x) 1 (x) y_i in M (x)_N M (x)_N M."""
    t = tower_s3_a3
    level2 = t.levels[1]
    up = level2.algebra

    def bumped_element(v: dict) -> dict:
        out = dict(v)
        sparse_add(Q, out, 0, Q.one)
        return out

    def failures(level) -> dict:
        checks = _verify_triple_tensor(replace(t, levels=[t.levels[0], level]), None)
        return {name: out.failures for name, out in checks if not out.ok}

    assert failures(level2) == {}
    assert failures(replace(level2, e=bumped_element(level2.e))) == {"triple-tensor-e2": [{"kind": "e2 mismatch"}]}
    bad_unit = Algebra(Q, up.dim, up.table, bumped_element(up.unit))
    assert failures(replace(level2, algebra=bad_unit)) == {"triple-tensor-unit": [{"kind": "1_2 mismatch"}]}


@pytest.mark.parametrize("group, subgroup", [("s3", "a3"), ("z4", "z2")])
def test_triple_quotient_projects_every_tensor(group, subgroup):
    """M (x)_N M (x)_N M: every basis tensor e_i (x) e_j (x) e_k projects (the
    representatives to their own coordinate), and both kinds of relation row
    project to zero."""
    ext, _ = generate_example("group-pair", {"group": group, "subgroup": subgroup})
    M, N = ext.M, ext.N
    d = M.dim
    triple = TensorQuotient(M, N, factors=3)
    reps = {(i * d + j) * d + k: c for c, (i, j, k) in enumerate(triple.basis)}
    for col in range(d ** 3):
        v = triple.project({col: Q.one})
        if col in reps:
            assert v == {reps[col]: Q.one}

    def minus(a, b):
        out = dict(a)
        for col, c in b.items():
            out[col] = Q.sub(out.get(col, Q.zero), c)
        return out

    zero = {}
    e = [{i: Q.one} for i in range(d)]
    for x in range(d):
        for y in range(d):
            for z in range(d):
                for n in N.vectors:
                    left = minus(
                        triple.pure_tensor(M.mul_sparse(e[x], n), e[y], e[z]),
                        triple.pure_tensor(e[x], M.mul_sparse(n, e[y]), e[z]),
                    )
                    right = minus(
                        triple.pure_tensor(e[x], M.mul_sparse(e[y], n), e[z]),
                        triple.pure_tensor(e[x], e[y], M.mul_sparse(n, e[z])),
                    )
                    assert triple.project(left) == zero
                    assert triple.project(right) == zero


# -- the level tables against the projection of every basis pair ----------------

def pairwise_table(sys):
    """The E-multiplication table of M (x)_N M, one projection per basis pair:
    [a(x)b][c(x)d] = project(a E(bc) (x) d), the nonzero ones kept in rows."""
    M, f, tq = sys.M, sys.M.field, sys.tq
    e_into_m = sys.ext.e_into_m(sys.E)
    table = []
    for a, b in tq.basis:
        row = {}
        for q, (c, d) in enumerate(tq.basis):
            u = M.mul_sparse({a: f.one}, e_into_m.apply(M.cell(b, c)))
            prod = tq.project({l * M.dim + d: cv for l, cv in u.items()})
            if prod:
                row[q] = prod
        table.append(row)
    return table


def assert_tables_are_pairwise(t):
    """Each level's table equals the pairwise reference in value and in key
    order (a report witness keeps the first keys of a dict)."""
    for level_sys, level in zip((t.base_sys, t.levels[0].sys), t.levels):
        expected = pairwise_table(level_sys)
        got = level.algebra.table
        assert got == expected
        assert [[(q, list(cell)) for q, cell in row.items()] for row in got] == [
            [(q, list(cell)) for q, cell in row.items()] for row in expected
        ]


@pytest.mark.parametrize("case_id", list(CASES))
def test_level_tables_equal_the_pairwise_projection(case_id):
    assert_tables_are_pairwise(_state(case_id).tower)


@pytest.mark.parametrize("group", ["z2", "z3", "z4"])
def test_model_tower_tables_equal_the_pairwise_projection(group):
    from hopftower.fields import PrimeField
    from hopftower.models import model_bundle, model_tower

    t, _d2, rep = model_tower(model_bundle(f"function-algebra:{group}", PrimeField(7)))
    assert rep.ok
    assert_tables_are_pairwise(t)


def unipotently_rebased(ext):
    """The extension with M on the basis e'_i = e_i + e_(i+1) for even i < dim - 1:
    the same extension, but a E(bc) has several terms where the tensor
    relations bite, so a sum of projected basis tensors taken in the key order
    of a E(bc) would list its keys in another order than project does."""
    from hopftower.algebra import Algebra, LinMap, SubspaceBasis
    from hopftower.frobenius import ExtensionSpec
    from hopftower.linalg import invert

    M, f = ext.M, ext.M.field
    n = M.dim
    T = LinMap(f, [{i: f.one, **({i + 1: f.one} if i % 2 == 0 and i + 1 < n else {})} for i in range(n)], n)
    T_inv = invert(T)
    entries = [
        (i, j, k, c)
        for i in range(n)
        for j in range(n)
        for k, c in T_inv.apply(M.mul_sparse(T.columns[i], T.columns[j])).items()
    ]
    rebased = Algebra.from_entries(f, n, entries, T_inv.apply(M.unit))
    N = SubspaceBasis(rebased, [T_inv.apply(v) for v in ext.N.vectors])
    return ExtensionSpec(rebased, N, E=ext.E.compose(T))


@pytest.mark.parametrize("group, subgroup", [("z4", "z2"), ("s3", "a3")])
def test_rebased_level_tables_keep_the_projection_key_order(group, subgroup):
    from hopftower.frobenius import classify
    from hopftower.linalg import sparse_axpy
    from hopftower.tower import build_tower

    ext, _sidecar = generate_example("group-pair", {"group": group, "subgroup": subgroup})
    ext = unipotently_rebased(ext)
    sys = solve_dual_bases(ext)
    classify(ext, sys)
    t = build_tower(sys)
    assert t.ok()
    assert_tables_are_pairwise(t)
    # the sum in the key order of a E(bc) alone would differ somewhere
    M, f, tq = sys.M, sys.M.field, sys.tq
    e_into_m = sys.ext.e_into_m(sys.E)
    reordered = 0
    for p, (a, b) in enumerate(tq.basis):
        for q, (c, d) in enumerate(tq.basis):
            u = M.mul_sparse({a: f.one}, e_into_m.apply(M.cell(b, c)))
            in_u_order: dict = {}
            for l, cv in u.items():
                sparse_axpy(f, in_u_order, cv, tq.project({l * M.dim + d: f.one}))
            reordered += list(in_u_order) != list(t.M1.cell(p, q))
    assert reordered > 0
