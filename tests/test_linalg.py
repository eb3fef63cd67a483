from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from hopftower.fields import PrimeField, RationalField
from hopftower.linalg import (
    Matrix,
    invert,
    kernel_basis,
    rank,
    rref,
    solve,
)

Q = RationalField()
F2 = PrimeField(2)


def mat(field, rows):
    return Matrix.from_int_rows(field, rows)


def test_solve_identity():
    A = Matrix.identity(Q, 3)
    b = [Q.from_int(x) for x in (1, 2, 3)]
    x, kern = solve(A, b)
    assert x == b
    assert kern == []


def test_solve_zero_map():
    A = mat(Q, [[0, 0], [0, 0]])
    b = [Q.zero, Q.zero]
    x, kern = solve(A, b)
    assert x == [Q.zero] * len(x)
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
    x, kern = solve(A, b)
    assert x in sols
    assert len(kern) == 1 and kern[0] == [1, 1]


def test_solve_inconsistent():
    A = mat(Q, [[1, 0], [1, 0]])
    assert solve(A, [Q.one, Q.zero]) is None


def test_invert_identity_and_diagonal():
    assert invert(Matrix.identity(Q, 2)) == Matrix.identity(Q, 2)
    D = mat(Q, [[2, 0], [0, 3]])
    Dinv = invert(D)
    assert Q.to_str(Dinv.data[0][0]) == "1/2"
    assert Q.to_str(Dinv.data[1][1]) == "1/3"


def test_invert_unipotent():
    A = mat(Q, [[1, 1], [0, 1]])
    Ainv = invert(A)
    assert A.mul(Ainv) == Matrix.identity(Q, 2)
    assert Ainv == mat(Q, [[1, -1], [0, 1]])


def test_invert_singular():
    assert invert(mat(Q, [[1, 1], [1, 1]])) is None


def test_dimension_mismatch_errors():
    from hopftower.linalg import DimensionError

    A = mat(Q, [[1, 2], [3, 4]])
    with pytest.raises(DimensionError):
        solve(A, [Q.one])
    with pytest.raises(DimensionError):
        A.matvec([Q.one])
    with pytest.raises(DimensionError):
        A.mul(mat(Q, [[1, 2, 3]]))
    with pytest.raises(DimensionError):
        invert(mat(Q, [[1, 2, 3]]))


def test_deterministic_outputs():
    rows = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
    r1, p1 = rref(mat(Q, rows))
    r2, p2 = rref(mat(Q, rows))
    assert r1 == r2 and p1 == p2
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
    return Matrix.from_int_rows(Q, data)


@settings(max_examples=60, deadline=None)
@given(q_matrices(), st.lists(small_entries, min_size=1, max_size=4))
def test_solve_postconditions_rational(A, raw_b):
    b = [Q.from_int(x) for x in (raw_b * A.rows)[: A.rows]]
    res = solve(A, b)
    if res is None:
        # inconsistency witnessed by rank growth of the augmented matrix
        aug = Matrix(Q, [row + [bv] for row, bv in zip(A.data, b)])
        assert rank(aug) == rank(A) + 1
        return
    x, kern = res
    assert A.matvec(x) == b
    for v in kern:
        assert A.matvec(v) == [Q.zero] * A.rows
    assert rank(A) + len(kern) == A.cols


@settings(max_examples=60, deadline=None)
@given(q_matrices())
def test_rank_nullity_and_rref_idempotent(A):
    assert rank(A) + len(kernel_basis(A)) == A.cols
    R, piv = rref(A)
    R2, piv2 = rref(R)
    assert R == R2 and piv == piv2


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

    b = [Q.from_int(x) for x in (raw_b * A.rows)[: A.rows]]
    dense = solve(A, b)
    s = SparseSolver(Q, A.cols, reduce_fully=True)
    ok = True
    for row, rhs in zip(A.data, b):
        sparse_row = {j: v for j, v in enumerate(row) if v}
        ok = s.add_row(sparse_row, rhs) and ok
    if dense is None:
        assert not ok
    else:
        assert ok
        sol, free = s.solution()
        assert free == len(dense[1])
        assert A.matvec(sol) == b
        if free == 0:
            assert sol == dense[0]


@st.composite
def f5_matrices(draw, max_dim=4):
    F = PrimeField(5)
    n = draw(st.integers(1, max_dim))
    data = draw(
        st.lists(st.lists(st.integers(0, 4), min_size=n, max_size=n), min_size=n, max_size=n)
    )
    return Matrix.from_int_rows(F, data)


@settings(max_examples=60, deadline=None)
@given(f5_matrices())
def test_inverse_exact_prime_field(A):
    Ainv = invert(A)
    if Ainv is None:
        assert rank(A) < A.rows
    else:
        assert A.mul(Ainv) == Matrix.identity(A.field, A.rows)
        assert Ainv.mul(A) == Matrix.identity(A.field, A.rows)
