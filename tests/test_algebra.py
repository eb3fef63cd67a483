import random
from itertools import islice

import pytest
from conftest import rows_map, word_span_dim
from hypothesis import assume, given, settings, strategies as st

from hopftower.algebra import (
    Algebra,
    AlgebraError,
    LinMap,
    SubspaceBasis,
    TensorQuotient,
    centralizer,
    check_morphism,
    endomorphism_algebra,
    generators,
    span_dim,
    verify_algebra,
)
from hopftower import frobenius
from hopftower.depth2 import DepthTwoData
from hopftower.frobenius import classify, solve_dual_bases
from hopftower.galois import action_b_on_m1, smash_product
from hopftower.hopf import sandwich_maps
from hopftower.fields import PrimeField, RationalField
from hopftower.linalg import Matrix, rank, rref, sparse_vector
from hopftower.models import (
    cyclic_group,
    generate_example,
    group_algebra,
    matrix_units_m2,
    model_bundle,
    model_tower,
    quadratic_field_algebra,
    symmetric_group_3,
)
from hopftower.pipeline import run_pipeline
from hopftower.tower import build_tower

Q = RationalField()
F2 = PrimeField(2)
F5 = PrimeField(5)


def rmul(alg, x):
    """Right multiplication by x as a linear map."""
    return LinMap(alg.field, [alg.mul_sparse({j: alg.field.one}, x) for j in range(alg.dim)], alg.dim)


def test_verify_group_algebra():
    alg = group_algebra(cyclic_group(2), Q)
    assert verify_algebra(alg).ok


def test_verify_matrix_units_f2():
    # matrix-unit relations e_ij e_kl = [j = k] e_il
    alg = matrix_units_m2(F2)
    assert verify_algebra(alg).ok


def reference_failures(alg, limit=5):
    """(unit failures, associativity failures) of the full scan, at most limit
    of each: the unit laws on every basis element, then both sides as products
    of sparse elements, (e_i e_j) e_k and e_i (e_j e_k), over the triples
    (i, j, k) in lexicographic order."""
    one = alg.field.one
    units = [
        {"basis": i, "left": left, "right": right}
        for i in range(alg.dim)
        for left, right in [(alg.mul_sparse(alg.unit, {i: one}), alg.mul_sparse({i: one}, alg.unit))]
        if left != {i: one} or right != {i: one}
    ]
    triples = (
        {"triple": (i, j, k), "lhs": lhs, "rhs": rhs}
        for i in range(alg.dim)
        for j in range(alg.dim)
        for k in range(alg.dim)
        for lhs, rhs in [(alg.mul_sparse(alg.table[i][j], {k: one}), alg.mul_sparse({i: one}, alg.table[j][k]))]
        if lhs != rhs
    )
    return units[:limit], list(islice(triples, limit))


def test_verify_detects_perturbed_table():
    alg = group_algebra(symmetric_group_3(), Q)
    # perturb (01)(01): e instead becomes (02), which breaks associativity
    entries = [(i, j, k, c) for i, j, k, c in alg.entries() if (i, j) != (1, 1)]
    entries.append((1, 1, 2, Q.one))
    bad = Algebra.from_entries(Q, 6, entries, alg.unit)
    rep = verify_algebra(bad)
    assert not rep.ok
    assert rep.assoc_failures, "offending triple must be reported"
    assert "triple" in rep.assoc_failures[0]
    assert (rep.unit_failures, rep.assoc_failures) == reference_failures(bad)


def bumped_constant(alg, i, j, k):
    """Copy of alg with one added to the structure constant c_ij^k."""
    return Algebra.from_entries(alg.field, alg.dim, alg.entries() + [(i, j, k, alg.field.one)], alg.unit)


def perturbations(alg, gens, seed):
    """Single-constant perturbations (i, j, k): one that breaks the left unit
    law at e_0 (i in the support of the unit), one in the row and one in the
    column of each generator's lowest basis index outside the unit's support
    (the column is what e_l g reads), and four drawn at random."""
    d = alg.dim
    rng = random.Random(seed)
    unit_support = sorted(alg.unit)
    out = [(unit_support[0], 0, d - 1)]
    for g in gens:
        own = [i for i in sorted(g) if i not in alg.unit] or sorted(g)
        other = [j for j in range(d) if j not in alg.unit] or [0]
        j = other[rng.randrange(len(other))]
        out += [(own[0], j, rng.randrange(d)), (j, own[0], rng.randrange(d))]
    out += [(rng.randrange(d), rng.randrange(d), rng.randrange(d)) for _ in range(4)]
    return out


PERTURBED_EXAMPLES = [
    ("quadratic-field", {}),
    ("group-pair", {"group": "z4", "subgroup": "z2"}),
    ("function-algebra", {"group": "z3"}),
]


def assert_verify_matches_reference(alg, seeds, seed):
    """verify_algebra and the full reference scan agree on every perturbation;
    returns how many were rejected with the unit laws intact (those go through
    the generator check first)."""
    gens = generators(alg, seeds)
    restricted_rejections = 0
    for i, j, k in perturbations(alg, gens, seed):
        bad = bumped_constant(alg, i, j, k)
        rep = verify_algebra(bad, seeds=seeds)
        units, assoc = reference_failures(bad)
        assert rep.ok == (not units and not assoc), (i, j, k)
        if not rep.ok:
            assert (rep.unit_failures, rep.assoc_failures) == (units, assoc), (i, j, k)
            restricted_rejections += not units
    return restricted_rejections


@pytest.mark.parametrize("field", ["rational", "f7"])
@pytest.mark.parametrize("example,params", PERTURBED_EXAMPLES, ids=[e for e, _ in PERTURBED_EXAMPLES])
def test_verify_agrees_with_full_scan_on_tower_perturbations(example, params, field):
    ext, _sidecar = generate_example(example, dict(params, field=field))
    sys = solve_dual_bases(ext)
    classify(ext, sys)
    t = build_tower(sys)
    levels = [(t.M, ()), (t.M1, t.levels[0].generators), (t.M2, t.levels[1].generators)]
    restricted = [assert_verify_matches_reference(alg, seeds, n) for n, (alg, seeds) in enumerate(levels)]
    assert restricted[2] > 0, "some M2 perturbation must keep the unit laws and still be rejected"


def test_verify_agrees_with_full_scan_on_smash_perturbations(stack_z3_f7):
    t, d2, _p, H_B = stack_z3_f7[:4]
    act, _ = action_b_on_m1(t, d2, H_B, sandwich_maps(t, d2))
    sm = smash_product(t.M1, H_B, act)
    assert sm.report.ok
    seeds = [sm.embed_x.apply(g) for g in generators(t.M1)] + [sm.embed_h.apply(g) for g in generators(H_B.algebra)]
    assert assert_verify_matches_reference(sm.algebra, seeds, 7) > 0


@pytest.mark.parametrize("group", ["z2", "z3", "z4"])
def test_pipeline_generators_span(group, monkeypatch):
    """Every algebra the model-f7 pipeline checks (M, both tower levels and the
    smash products) is generated by the set its associativity check uses; on
    z4 the dim-64 M2 and M1 # B need at most 10, where basis elements alone
    need 28."""
    checked = []
    real = frobenius.verify_algebra

    def recording(alg, max_failures=5, seeds=()):
        seeds = list(seeds)
        checked.append((alg, seeds))
        return real(alg, max_failures, seeds)

    monkeypatch.setattr(frobenius, "verify_algebra", recording)
    ext, _sidecar = generate_example("function-algebra", {"group": group, "field": "f7"})
    _tower, d2, rep = model_tower(model_bundle(f"function-algebra:{group}", ext.M.field))
    assert rep.ok
    checked.clear()
    override = DepthTwoData(A=d2.A, B=d2.B, C=d2.C, source="model")
    assert run_pipeline(ext, d2_override=override).exit_code() == 0
    assert len(checked) == 6  # M, M1, M2, M1 # B, M # A, A # B
    for alg, seeds in checked:
        assert word_span_dim(alg, generators(alg, seeds)) == alg.dim
    if group == "z4":
        sizes = [len(generators(alg, seeds)) for alg, seeds in checked if alg.dim == 64]
        assert len(sizes) == 2 and max(sizes) <= 10, sizes
        assert len(generators(checked[2][0])) == 28


def test_centralizer_of_matrix_algebra_is_center():
    alg = matrix_units_m2(Q)
    full = SubspaceBasis(alg, [{i: Q.one} for i in range(4)])
    cent = centralizer(alg, full)
    assert cent.dim == 1
    assert cent.contains(alg.unit)


def test_centralizer_of_scalars_is_everything():
    alg = quadratic_field_algebra(Q, Q.from_int(2))
    scalars = SubspaceBasis(alg, [alg.unit])
    cent = centralizer(alg, scalars)
    assert cent.dim == alg.dim


def test_centralizer_s3_a3():
    # the centralizer of Q[A3] in Q[S3] is spanned by the A3-conjugation
    # orbit sums: e, (012), (021) and the sum of the transpositions
    G = symmetric_group_3()
    alg = group_algebra(G, Q)
    sub = SubspaceBasis(alg, [{i: Q.one} for i in (0, 4, 5)])
    cent = centralizer(alg, sub)
    assert cent.dim == 4
    orbit_sums = [
        {0: Q.one},
        {4: Q.one},
        {5: Q.one},
        sparse_vector([Q.zero, Q.one, Q.one, Q.one, Q.zero, Q.zero]),
    ]
    expected = SubspaceBasis.from_spanning(alg, orbit_sums)
    computed = SubspaceBasis.from_spanning(alg, cent.vectors)
    assert computed.equals(expected)


def test_centralizer_rejects_non_subalgebra():
    G = symmetric_group_3()
    alg = group_algebra(G, Q)
    not_closed = SubspaceBasis(alg, [{1: Q.one}])  # {(01)} alone
    with pytest.raises(AlgebraError):
        centralizer(alg, not_closed)


def test_triple_centralizer_stabilizes():
    G = symmetric_group_3()
    alg = group_algebra(G, Q)
    sub = SubspaceBasis(alg, [{i: Q.one} for i in (0, 4, 5)])
    c1 = centralizer(alg, sub)
    c2 = centralizer(alg, c1)
    c3 = centralizer(alg, c2)
    assert c3.equals(c1)


def test_tensor_quotient_dims():
    alg = group_algebra(symmetric_group_3(), Q)
    full = SubspaceBasis(alg, [{i: Q.one} for i in range(6)])
    assert TensorQuotient(alg, full).dim == 6  # N = M
    scalars = SubspaceBasis(alg, [alg.unit])
    assert TensorQuotient(alg, scalars).dim == 36  # N = k
    a3 = SubspaceBasis(alg, [{i: Q.one} for i in (0, 4, 5)])
    assert TensorQuotient(alg, a3).dim == 12  # |G| [G : H]


def test_tensor_quotient_projection_section():
    alg = group_algebra(symmetric_group_3(), Q)
    a3 = SubspaceBasis(alg, [{i: Q.one} for i in (0, 4, 5)])
    tq = TensorQuotient(alg, a3)
    d = alg.dim
    for c in range(tq.dim):
        i, j = tq.basis[c]
        assert tq.project({i * d + j: Q.one}) == {c: Q.one}
    # every basis tensor e_i (x) e_j projects, and every relation
    # e_x n (x) e_y - e_x (x) n e_y projects to zero, for s3/a3 and z4/z2
    z4 = group_algebra(cyclic_group(4), Q)
    z2 = SubspaceBasis(z4, [{i: Q.one} for i in (0, 2)])
    for M, N in ((alg, a3), (z4, z2)):
        tq = TensorQuotient(M, N)
        d = M.dim
        for col in range(d * d):
            assert set(tq.project({col: Q.one})) <= set(range(tq.dim))
        for x in range(d):
            ex = {x: Q.one}
            for y in range(d):
                ey = {y: Q.one}
                for n in N.vectors:
                    row = tq.pure_tensor(M.mul_sparse(ex, n), ey)
                    for col, c in tq.pure_tensor(ex, M.mul_sparse(n, ey)).items():
                        row[col] = Q.sub(row.get(col, Q.zero), c)
                    assert tq.project(row) == {}


def test_endomorphism_algebra_trivial():
    field = Q
    unit_alg = Algebra.from_entries(field, 1, [(0, 0, 0, field.one)], {0: field.one})
    endo = endomorphism_algebra(field, 1, [LinMap.identity(field, 1)], unit_alg)
    assert endo.algebra.dim == 1


def test_endomorphism_algebra_field_extension():
    # Q(sqrt 2) as a module over Q: all linear maps, End = M_2(Q)
    X = quadratic_field_algebra(Q, Q.from_int(2))
    unit_alg = Algebra.from_entries(Q, 1, [(0, 0, 0, Q.one)], {0: Q.one})
    endo = endomorphism_algebra(Q, 2, [LinMap.identity(Q, 2)], unit_alg)
    assert endo.algebra.dim == 4
    assert verify_algebra(endo.algebra).ok


def test_endomorphism_algebra_group_pair(ext_s3_a3):
    ext = ext_s3_a3
    n_alg = ext.n_algebra
    mats = [
        rmul(ext.M, ext.embed.apply({i: Q.one}))
        for i in range(n_alg.dim)
    ]
    endo = endomorphism_algebra(Q, 6, mats, n_alg)
    assert endo.algebra.dim == 12  # equals dim M (x)_N M


def test_endomorphism_coords_of_matrix(ext_s3_a3):
    ext = ext_s3_a3
    n_alg = ext.n_algebra
    mats = [
        rmul(ext.M, ext.embed.apply({i: Q.one}))
        for i in range(n_alg.dim)
    ]
    endo = endomorphism_algebra(Q, 6, mats, n_alg)
    E = endo.algebra
    for i, a in enumerate(endo.basis):
        assert endo.coords(a) == {i: Q.one}
        for j, b in enumerate(endo.basis):
            assert endo.coords(a.compose(b)) == E.table[i][j]
    # right multiplication by the transposition (01) fails to commute with
    # right multiplication by the 3-cycles of A3
    r01 = rmul(ext.M, {1: Q.one})
    assert any(r01.compose(r) != r.compose(r01) for r in mats)
    assert endo.coords(r01) is None


def test_endomorphism_rejects_bad_module():
    bad_alg = group_algebra(cyclic_group(2), Q)
    mats = [LinMap.identity(Q, 2), LinMap(Q, [{0: Q.from_int(2)}, {1: Q.from_int(2)}], 2)]
    with pytest.raises(AlgebraError):
        endomorphism_algebra(Q, 2, mats, bad_alg)


def test_check_morphism_identity_iso():
    alg = group_algebra(cyclic_group(2), Q)
    rep = check_morphism(LinMap.identity(Q, 2), alg, alg)
    assert rep.is_homomorphism and rep.is_isomorphism


def test_check_morphism_zero_map_fails_unit():
    alg = group_algebra(cyclic_group(2), Q)
    zero = LinMap(Q, [{}, {}], 2)
    rep = check_morphism(zero, alg, alg)
    assert not rep.is_homomorphism
    assert any(f["kind"] == "unit" for f in rep.failures)


def test_subspace_membership_and_coords():
    alg = group_algebra(symmetric_group_3(), Q)
    sub = SubspaceBasis(alg, [{0: Q.one}, {1: Q.one}])
    v = sparse_vector([Q.from_int(2), Q.from_int(-3), Q.zero, Q.zero, Q.zero, Q.zero])
    assert sub.contains(v)
    coords = sub.coords(v)
    assert {k: str(c) for k, c in coords.items()} == {0: "2", 1: "-3"}
    assert not sub.contains({2: Q.one})
    assert sub.coords({2: Q.one}) is None


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([Q, F5]), st.integers(1, 5), st.data())
def test_subspace_coords_on_noncanonical_bases(field, n, data):
    # random bases have a pivot block far from the identity, so a transposed
    # or uninverted coordinate map shows here
    entry = st.builds(
        lambda a, b: field.div(field.from_int(a), field.from_int(b)),
        st.integers(-4, 4),
        st.integers(1, 3),
    )
    vector = st.lists(entry, min_size=n, max_size=n)
    k = data.draw(st.integers(0, n))
    vectors = [sparse_vector(v) for v in data.draw(st.lists(vector, min_size=k, max_size=k))]
    assume(span_dim(field, vectors) == k)
    sub = SubspaceBasis(group_algebra(cyclic_group(n), field), vectors)
    c = data.draw(st.lists(entry, min_size=k, max_size=k))
    v = [field.zero] * n
    for ci, vi in zip(c, vectors):
        v = [field.add(a, field.mul(ci, vi.get(j, field.zero))) for j, a in enumerate(v)]
    v = sparse_vector(v)
    assert sub.coords(v) == sparse_vector(c)
    w = sparse_vector(data.draw(vector))
    coords = sub.coords(w)
    if span_dim(field, vectors + [w]) > k:
        assert coords is None
    else:
        back = [field.zero] * n
        for i, vi in enumerate(vectors):
            ci = coords.get(i, field.zero)
            back = [field.add(a, field.mul(ci, vi.get(j, field.zero))) for j, a in enumerate(back)]
        assert sparse_vector(back) == w
    # SparseSolver's RREF and span dimension against dense rref, the test reference kept in linalg
    spanning = vectors + [w]
    dense = [sub.ambient.to_dense(u) for u in spanning]
    red, pivots = rref(Matrix(field, dense))
    canon = SubspaceBasis.from_spanning(sub.ambient, spanning)
    assert canon.vectors == [sparse_vector(r) for r in red.data[: len(pivots)]]
    assert span_dim(field, spanning) == rank(rows_map(field, dense)) == len(pivots)
    # v lies in the span of vectors: adding it changes no span, and makes vectors dependent
    assert canon.equals(SubspaceBasis.from_spanning(sub.ambient, [v] + spanning[::-1]))
    assert sub.equals(canon) == (len(pivots) == k)
    # a unit vector off the pivots moves a row out of the span, often keeping every pivot
    free = [j for j in range(n) if j not in pivots]
    if pivots and free:
        moved = [sub.ambient.to_dense(r) for r in canon.vectors]
        moved[-1][free[-1]] = field.add(moved[-1][free[-1]], field.one)
        assert not canon.equals(SubspaceBasis(sub.ambient, [sparse_vector(r) for r in moved]))
    with pytest.raises(AlgebraError):
        SubspaceBasis(sub.ambient, vectors + [v])


@pytest.mark.parametrize("field", [Q, F5], ids=["Q", "F5"])
def test_zero_subspace_coords(field):
    sub = SubspaceBasis(group_algebra(cyclic_group(3), field), [])
    assert sub.dim == 0
    assert sub.coords({}) == {}
    assert sub.coords({1: field.one}) is None
