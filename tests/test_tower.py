import pytest

from hopftower.fields import RationalField
from hopftower.frobenius import solve_dual_bases
from hopftower.linalg import rank, sparse_scale
from hopftower.models import generate_example
from hopftower.tower import (
    TowerError,
    _TripleQuotient,
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
        assert res.endo_dim == dim == t.M1.dim


def test_inclusion_is_monomorphism(tower_s3_a3):
    t = tower_s3_a3
    assert rank(t.incl1) == t.M.dim
    assert rank(t.incl2) == t.M1.dim
    # incl respects products
    for i in range(t.M.dim):
        for j in range(t.M.dim):
            prod = t.M.table[i][j]
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


@pytest.mark.parametrize("group, subgroup", [("s3", "a3"), ("z4", "z2")])
def test_triple_quotient_projects_every_tensor(group, subgroup):
    """M (x)_N M (x)_N M: every basis tensor e_i (x) e_j (x) e_k projects (the
    representatives to their own coordinate), and both kinds of relation row
    project to zero."""
    ext, _ = generate_example("group-pair", {"group": group, "subgroup": subgroup})
    M, N = ext.M, ext.N
    d = M.dim
    triple = _TripleQuotient(M, N)
    reps = {(i * d + j) * d + k: c for c, (i, j, k) in enumerate(triple.reps)}
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
                        triple.pure_tensor3(M.mul_sparse(e[x], n), e[y], e[z]),
                        triple.pure_tensor3(e[x], M.mul_sparse(n, e[y]), e[z]),
                    )
                    right = minus(
                        triple.pure_tensor3(e[x], M.mul_sparse(e[y], n), e[z]),
                        triple.pure_tensor3(e[x], e[y], M.mul_sparse(n, e[z])),
                    )
                    assert triple.project(left) == zero
                    assert triple.project(right) == zero
