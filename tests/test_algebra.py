import pytest
from conftest import rows_map
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
    span_dim,
    verify_algebra,
)
from hopftower.fields import PrimeField, RationalField
from hopftower.linalg import Matrix, rank, rref, sparse_vector
from hopftower.models import (
    cyclic_group,
    group_algebra,
    matrix_units_m2,
    quadratic_field_algebra,
    symmetric_group_3,
)

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
    # reference: both sides as products of sparse elements, (e_i e_j) e_k and
    # e_i (e_j e_k), over the triples in the same order
    one = Q.one
    expected = [
        {"triple": (i, j, k), "lhs": lhs, "rhs": rhs}
        for i in range(6)
        for j in range(6)
        for k in range(6)
        for lhs, rhs in [(bad.mul_sparse(bad.table[i][j], {k: one}), bad.mul_sparse({i: one}, bad.table[j][k]))]
        if lhs != rhs
    ]
    assert rep.assoc_failures[0] == expected[0]
    assert rep.assoc_failures == expected[:5]


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
        i, j = tq.pairs[c]
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
    # the sparse RREF against dense rref, which stays in linalg as the reference
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
