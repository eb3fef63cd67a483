from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from hopftower.fields import PrimeField, RationalField
from hopftower.linalg import (
    LinMap,
    Matrix,
    invert,
    kernel_basis,
    rank,
    rref,
    solve,
    sparse_vector,
)

Q = RationalField()
F2 = PrimeField(2)


def dense(field, rows):
    return Matrix(field, [[field.from_int(x) for x in row] for row in rows])


def mat(field, rows):
    """The linear map whose matrix has these integer rows."""
    ncols = len(rows[0]) if rows else 0
    cols = [sparse_vector([field.from_int(row[j]) for row in rows]) for j in range(ncols)]
    return LinMap(field, cols, len(rows))


def test_solve_identity():
    A = LinMap.identity(Q, 3)
    b = {i: Q.from_int(x) for i, x in enumerate((1, 2, 3))}
    x, kern = solve(A, b)
    assert x == b
    assert kern == []


def test_solve_zero_map():
    A = mat(Q, [[0, 0], [0, 0]])
    x, kern = solve(A, {})
    assert x == {}
    assert len(kern) == 2


def test_solve_f2_matches_enumeration():
    # [[1,1],[1,1]] x = (1,1) over F_2, checked against trying all 4 vectors
    A = mat(F2, [[1, 1], [1, 1]])
    b = [F2.one, F2.one]
    sols = [
        list(v)
        for v in product((0, 1), repeat=2)
        if [(v[0] + v[1]) % 2, (v[0] + v[1]) % 2] == b
    ]
    assert sols == [[0, 1], [1, 0]]
    x, kern = solve(A, sparse_vector(b))
    assert x in [sparse_vector(v) for v in sols]
    assert len(kern) == 1 and kern[0] == {0: 1, 1: 1}


def test_solve_inconsistent():
    A = mat(Q, [[1, 0], [1, 0]])
    assert solve(A, {0: Q.one}) is None


def test_invert_identity_and_diagonal():
    assert invert(LinMap.identity(Q, 2)) == LinMap.identity(Q, 2)
    D = mat(Q, [[2, 0], [0, 3]])
    Dinv = invert(D)
    assert Q.to_str(Dinv.columns[0][0]) == "1/2"
    assert Q.to_str(Dinv.columns[1][1]) == "1/3"


def test_invert_unipotent():
    A = mat(Q, [[1, 1], [0, 1]])
    Ainv = invert(A)
    assert A.compose(Ainv) == LinMap.identity(Q, 2)
    assert Ainv == mat(Q, [[1, -1], [0, 1]])


def test_invert_singular():
    assert invert(mat(Q, [[1, 1], [1, 1]])) is None


def test_dimension_mismatch_errors():
    from hopftower.linalg import DimensionError

    A = mat(Q, [[1, 2], [3, 4]])
    with pytest.raises(DimensionError):
        solve(A, {2: Q.one})
    with pytest.raises(DimensionError):
        solve(A, {-1: Q.one})
    with pytest.raises(DimensionError):
        A.compose(mat(Q, [[1, 2, 3]]))
    with pytest.raises(DimensionError):
        invert(mat(Q, [[1, 2, 3]]))
    with pytest.raises(DimensionError):
        Matrix(Q, [[Q.one, Q.one], [Q.one]])


def test_deterministic_outputs():
    rows = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
    r1, p1 = rref(dense(Q, rows))
    r2, p2 = rref(dense(Q, rows))
    assert r1.data == r2.data and p1 == p2
    assert [[str(x) for x in row] for row in r1.data] == [
        [str(x) for x in row] for row in r2.data
    ]


small_entries = st.integers(-6, 6)


@st.composite
def q_matrices(draw, max_dim=4):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    data = draw(
        st.lists(st.lists(small_entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    )
    return mat(Q, data)


@settings(max_examples=60, deadline=None)
@given(q_matrices(), st.lists(small_entries, min_size=1, max_size=4))
def test_solve_postconditions_rational(A, raw_b):
    b = sparse_vector([Q.from_int(x) for x in (raw_b * A.codomain_dim)[: A.codomain_dim]])
    res = solve(A, b)
    if res is None:
        # inconsistency witnessed by rank growth of the augmented matrix
        aug = LinMap(Q, A.columns + [b], A.codomain_dim)
        assert rank(aug) == rank(A) + 1
        return
    x, kern = res
    assert A.apply(x) == b
    for v in kern:
        assert A.apply(v) == {}
    assert rank(A) + len(kern) == A.domain_dim


@settings(max_examples=60, deadline=None)
@given(q_matrices())
def test_rank_nullity_and_rref_idempotent(A):
    assert rank(A) + len(kernel_basis(A)) == A.domain_dim
    z = Q.zero
    R, piv = rref(Matrix(Q, [[c.get(r, z) for c in A.columns] for r in range(A.codomain_dim)]))
    R2, piv2 = rref(R)
    assert R.data == R2.data and piv == piv2


def test_sparse_solver_handles_non_leading_pivot_columns():
    # regression: a row whose minimum column is fresh but which still carries
    # entries in existing pivot columns must be fully reduced before insertion
    s = __import__("hopftower.linalg", fromlist=["SparseSolver"]).SparseSolver(
        Q, 3, reduce_fully=True
    )
    one = Q.one
    assert s.add_row({1: one}, Q.from_int(5))  # x1 = 5
    assert s.add_row({0: one, 1: one}, Q.from_int(7))  # x0 + x1 = 7
    assert s.add_row({2: one}, Q.from_int(1))  # x2 = 1
    sol, free = s.solution()
    assert free == 0
    assert [str(v) for v in sol] == ["2", "5", "1"]


@settings(max_examples=60, deadline=None)
@given(q_matrices(), st.lists(small_entries, min_size=1, max_size=4))
def test_sparse_solver_agrees_with_dense_solve(A, raw_b):
    from hopftower.linalg import SparseSolver

    b = [Q.from_int(x) for x in (raw_b * A.codomain_dim)[: A.codomain_dim]]
    ref = solve(A, sparse_vector(b))
    s = SparseSolver(Q, A.domain_dim, reduce_fully=True)
    ok = True
    for row, rhs in zip(A.transpose().columns, b):
        ok = s.add_row(row, rhs) and ok
    if ref is None:
        assert not ok
    else:
        assert ok
        sol, free = s.solution()
        assert free == len(ref[1])
        assert A.apply(sparse_vector(sol)) == sparse_vector(b)
        if free == 0:
            assert sparse_vector(sol) == ref[0]


@st.composite
def f5_matrices(draw, max_dim=4):
    F = PrimeField(5)
    n = draw(st.integers(1, max_dim))
    data = draw(
        st.lists(st.lists(st.integers(0, 4), min_size=n, max_size=n), min_size=n, max_size=n)
    )
    return mat(F, data)


@settings(max_examples=60, deadline=None)
@given(f5_matrices())
def test_inverse_exact_prime_field(A):
    Ainv = invert(A)
    if Ainv is None:
        assert rank(A) < A.codomain_dim
    else:
        assert A.compose(Ainv) == LinMap.identity(A.field, A.codomain_dim)
        assert Ainv.compose(A) == LinMap.identity(A.field, A.codomain_dim)
