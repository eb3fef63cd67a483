from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from hopftower.fields import PrimeField, RationalField
from hopftower.linalg import (
    LinMap,
    Matrix,
    SparseSolver,
    invert,
    kernel_basis,
    rank,
    rref,
    solve,
    sparse_vector,
)

Q = RationalField()
F2 = PrimeField(2)
F5 = PrimeField(5)
F7 = PrimeField(7)


def dense(field, rows):
    return Matrix(field, [[field.from_int(x) for x in row] for row in rows])


def mat(field, rows):
    """The linear map whose matrix has these integer rows."""
    ncols = len(rows[0]) if rows else 0
    cols = [sparse_vector([field.from_int(row[j]) for row in rows]) for j in range(ncols)]
    return LinMap(field, cols, len(rows))


def dense_reduced(A, extra):
    """Dense rref of A's matrix with the sparse columns extra appended."""
    f = A.field
    cols = A.columns + extra
    return rref(Matrix(f, [[c.get(r, f.zero) for c in cols] for r in range(A.codomain_dim)]))


def dense_solve(A, rhs):
    """The reference for solve: dense rref of [A | b] for one b at a time, and
    the kernel basis read off RREF(A)."""
    f = A.field
    n = A.domain_dim
    red, pivots = dense_reduced(A, [])
    kern = []
    for fc in range(n):
        if fc not in pivots:
            v = {fc: f.one}
            v.update((pc, f.neg(red.data[r][fc])) for r, pc in enumerate(pivots) if red.data[r][fc])
            kern.append(v)
    xs = []
    for b in rhs:
        red_b, piv_b = dense_reduced(A, [b])
        xs.append(None if n in piv_b else {pc: red_b.data[r][n] for r, pc in enumerate(piv_b) if red_b.data[r][n]})
    return xs, kern


def dense_invert(A):
    xs, kern = dense_solve(A, LinMap.identity(A.field, A.domain_dim).columns)
    return None if kern else LinMap(A.field, xs, A.domain_dim)


def test_solve_identity():
    A = LinMap.identity(Q, 3)
    b = {i: Q.from_int(x) for i, x in enumerate((1, 2, 3))}
    (x,), kern = solve(A, [b])
    assert x == b
    assert kern == []


def test_solve_zero_map():
    A = mat(Q, [[0, 0], [0, 0]])
    (x,), kern = solve(A, [{}])
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
    (x,), kern = solve(A, [sparse_vector(b)])
    assert x in [sparse_vector(v) for v in sols]
    assert len(kern) == 1 and kern[0] == {0: 1, 1: 1}


def test_solve_inconsistent():
    A = mat(Q, [[1, 0], [1, 0]])
    assert solve(A, [{0: Q.one}]) == ([None], [{1: Q.one}])
    # an inconsistent right-hand side before a consistent one leaves the latter's solution
    one = Q.one
    assert solve(A, [{0: one}, {0: one, 1: one}, {}]) == ([None, {0: one}, {}], [{1: one}])


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
        solve(A, [{}, {2: Q.one}])
    with pytest.raises(DimensionError):
        solve(A, [{-1: Q.one}])
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
    (x,), kern = solve(A, [b])
    assert ([x], kern) == dense_solve(A, [b])
    if x is not None:
        assert A.apply(x) == b
    for v in kern:
        assert A.apply(v) == {}
    assert rank(A) + len(kern) == A.domain_dim


@settings(max_examples=60, deadline=None)
@given(q_matrices())
def test_rank_nullity_and_rref_idempotent(A):
    R, piv = dense_reduced(A, [])
    assert rank(A) == len(piv)
    assert kernel_basis(A) == dense_solve(A, [])[1]
    assert rank(A) + len(kernel_basis(A)) == A.domain_dim
    R2, piv2 = rref(R)
    assert R.data == R2.data and piv == piv2


def test_sparse_solver_handles_non_leading_pivot_columns():
    # regression: a row whose minimum column is fresh but which still carries
    # entries in existing pivot columns must be fully reduced before insertion;
    # solve feeds the rows in order: x1 = 5, then x0 + x1 = 7, then x2 = 1
    A = mat(Q, [[0, 1, 0], [1, 1, 0], [0, 0, 1]])
    (x,), kern = solve(A, [{0: Q.from_int(5), 1: Q.from_int(7), 2: Q.one}])
    assert kern == []
    assert [str(x.get(i, 0)) for i in range(3)] == ["2", "5", "1"]


@settings(max_examples=60, deadline=None)
@given(q_matrices(), st.lists(small_entries, min_size=1, max_size=4))
def test_sparse_solver_agrees_with_dense_solve(A, raw_b):
    b = [Q.from_int(x) for x in (raw_b * A.codomain_dim)[: A.codomain_dim]]
    (ref,), ref_kern = dense_solve(A, [sparse_vector(b)])
    # the right-hand-side column of SparseSolver, as the depth-2 tensor system uses it
    s = SparseSolver(Q, A.domain_dim)
    ok = True
    for row, rhs in zip(A.transpose().columns, b):
        ok = s.add_row(row, rhs) and ok
    assert ok == (ref is not None)
    (x,), kern = solve(A, [sparse_vector(b)])
    assert x == ref and kern == ref_kern
    if ok:
        assert A.apply(x) == sparse_vector(b)
        assert A.domain_dim - s.rank() == len(kern)


def _unindexed_add_row(f, cols, pivots, row, rhs):
    """SparseSolver.add_row, back-substituting each new pivot into every
    pivot row: the reference for its column index."""
    work = {c: v for c, v in row.items() if v}
    if rhs:
        work[cols] = rhs
    for lead in [c for c in work if c in pivots]:
        c = work[lead]
        for col, val in pivots[lead].items():
            v = f.sub(work.get(col, f.zero), f.mul(c, val))
            if v:
                work[col] = v
            else:
                work.pop(col, None)
    if not work or min(work) == cols:
        return
    lead = min(work)
    inv = f.inv(work[lead])
    work = {c: f.mul(inv, v) for c, v in work.items()}
    for other in pivots.values():
        c = other.get(lead)
        if c is not None:
            for col, val in work.items():
                v = f.sub(other.get(col, f.zero), f.mul(c, val))
                if v:
                    other[col] = v
                else:
                    other.pop(col, None)
    pivots[lead] = work


@st.composite
def cancelling_rows(draw, max_cols=7):
    """(field, cols, [(row, rhs)]) over Q, F2 or F7: a few free rows, then
    combinations of the rows so far, some plus one unit vector, so that rows
    reduce to zero and new pivots cancel entries of the pivot rows."""
    field = draw(st.sampled_from([Q, F2, F7]))
    cols = draw(st.integers(1, max_cols))
    entry = st.integers(-3, 3)
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        rows.append([draw(entry) for _ in range(cols + 1)])
    for _ in range(draw(st.integers(1, 8))):
        coeffs = [draw(entry) for _ in rows]
        new = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(cols + 1)]
        if draw(st.booleans()):
            new[draw(st.integers(0, cols))] += 1
        rows.append(new)
    as_field = [[field.from_int(x) for x in row] for row in rows]
    return field, cols, [(sparse_vector(row[:cols]), row[cols]) for row in as_field]


@settings(max_examples=150, deadline=None)
@given(cancelling_rows())
def test_sparse_solver_column_index_matches_unindexed_back_substitution(system):
    field, cols, rows = system
    s = SparseSolver(field, cols)
    reference: dict = {}
    for row, rhs in rows:
        s.add_row(row, rhs)
        _unindexed_add_row(field, cols, reference, row, rhs)
        assert s.pivots == reference
        recomputed: dict = {}
        for lead, pivot_row in s.pivots.items():
            for col in pivot_row:
                if col != lead:
                    recomputed.setdefault(col, set()).add(lead)
        assert {col: leads for col, leads in s.users.items() if leads} == recomputed



@settings(max_examples=60, deadline=None)
@given(cancelling_rows())
def test_frozen_sparse_solver_frees_its_index_and_refuses_rows(system):
    """freeze keeps the pivots and reduce, drops the column index, and makes a
    later add_row raise, as it could no longer back-substitute."""
    field, cols, rows = system
    s = SparseSolver(field, cols)
    for row, rhs in rows[:-1]:
        s.add_row(row, rhs)
    pivots = {lead: dict(row) for lead, row in s.pivots.items()}
    reduced = [s.reduce(row) for row, _ in rows]
    s.freeze()
    assert s.users is None and s.pivots == pivots
    assert [s.reduce(row) for row, _ in rows] == reduced
    with pytest.raises(RuntimeError):
        s.add_row(rows[-1][0], rows[-1][1])
    assert s.pivots == pivots


def test_long_lived_spans_are_frozen(tower_s3_z2):
    """The subspaces, tensor quotients and endomorphism spaces keep their
    solvers only to reduce, so none of them keeps the column index."""
    from hopftower.algebra import SubspaceBasis, right_module_endomorphisms

    t = tower_s3_z2
    ext = t.base_sys.ext
    sub = SubspaceBasis(t.M1, t.incl1.columns)
    canonical = SubspaceBasis.from_spanning(t.M1, t.incl1.columns)
    endo = right_module_endomorphisms(ext.M, ext.embed)
    for solver in (sub._space, canonical._space, t.base_sys.tq._relations, t.levels[0].sys.tq._relations, endo._space):
        assert solver.users is None
        with pytest.raises(RuntimeError):
            solver.add_row({0: t.M.field.one}, t.M.field.zero)

@st.composite
def systems_with_an_early_inconsistent_rhs(draw, max_dim=4):
    """(A, rhs) over Q or F5: A has a dependent last row, so the unit vector at
    that row is inconsistent; it comes first, before consistent right-hand
    sides A x and arbitrary ones."""
    field = draw(st.sampled_from([Q, F5]))
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    data = draw(st.lists(st.lists(small_entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    coeffs = draw(st.lists(small_entries, min_size=rows, max_size=rows))
    data.append([sum(c * row[j] for c, row in zip(coeffs, data)) for j in range(cols)])
    A = mat(field, data)
    rhs = [{rows: field.one}]
    for _ in range(draw(st.integers(1, 3))):
        x = draw(st.lists(small_entries, min_size=cols, max_size=cols))
        rhs.append(A.apply(sparse_vector([field.from_int(v) for v in x])))
        other = draw(st.lists(small_entries, min_size=rows + 1, max_size=rows + 1))
        rhs.append(sparse_vector([field.from_int(v) for v in other]))
    return A, rhs


@settings(max_examples=80, deadline=None)
@given(systems_with_an_early_inconsistent_rhs())
def test_solve_many_rhs_agrees_one_at_a_time(system):
    A, rhs = system
    xs, kern = solve(A, rhs)
    assert xs[0] is None and xs[1] is not None
    assert (xs, kern) == dense_solve(A, rhs)
    for x, b in zip(xs, rhs):
        if x is not None:
            assert A.apply(x) == b


@st.composite
def f5_matrices(draw, max_dim=4):
    n = draw(st.integers(1, max_dim))
    data = draw(
        st.lists(st.lists(st.integers(0, 4), min_size=n, max_size=n), min_size=n, max_size=n)
    )
    return mat(F5, data)


@settings(max_examples=60, deadline=None)
@given(f5_matrices())
def test_inverse_exact_prime_field(A):
    Ainv = invert(A)
    assert Ainv == dense_invert(A)
    if Ainv is None:
        assert rank(A) < A.codomain_dim
    else:
        assert A.compose(Ainv) == LinMap.identity(A.field, A.codomain_dim)
        assert Ainv.compose(A) == LinMap.identity(A.field, A.codomain_dim)
