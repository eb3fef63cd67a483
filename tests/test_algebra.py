import random

import pytest
from conftest import naive_mul, non_associative, reference_failures, rows_map, word_span_dim
from hypothesis import assume, given, settings, strategies as st

from hopftower.algebra import (
    WITNESS_FAILURES,
    Algebra,
    AlgebraError,
    _assoc_failures,
    _generators,
    LinMap,
    SubspaceBasis,
    TensorQuotient,
    centralizer,
    check_morphism,
    generators,
    law_failures,
    matrix_algebra,
    matrix_element,
    matrix_map,
    right_module_endomorphisms,
    span_dim,
    tensor_algebra,
    verify_algebra,
)
from hopftower import algebra, galois, pipeline, tower
from hopftower.depth2 import DepthTwoData
from hopftower.frobenius import classify, solve_dual_bases
from hopftower.galois import action_b_on_m1, smash_product
from hopftower.hopf import sandwich_maps
from hopftower.fields import PrimeField, RationalField
from hopftower.fileio import algebra_to_dict, canonical_json, parse_algebra
from hopftower.linalg import Matrix, SparseSolver, rank, rref, sparse_add, sparse_axpy, sparse_scale, sparse_vector
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
F7 = PrimeField(7)


def rmul(alg, x):
    """Right multiplication by x as a linear map."""
    return LinMap(alg.field, [alg.mul_sparse({j: alg.field.one}, x) for j in range(alg.dim)], alg.dim)


def test_verify_group_algebra():
    alg = group_algebra(cyclic_group(2), Q)
    assert verify_algebra(alg)[0].ok


def test_verify_matrix_units_f2():
    # matrix-unit relations e_ij e_kl = [j = k] e_il
    alg = matrix_units_m2(F2)
    assert verify_algebra(alg)[0].ok


def test_verify_detects_perturbed_table():
    alg = group_algebra(symmetric_group_3(), Q)
    # perturb (01)(01): e instead becomes (02), which breaks associativity
    entries = [(i, j, k, c) for i, j, k, c in alg.entries() if (i, j) != (1, 1)]
    entries.append((1, 1, 2, Q.one))
    bad = Algebra.from_entries(Q, 6, entries, alg.unit)
    rep, _ = verify_algebra(bad)
    assert not rep.ok
    assert "triple" in rep.failures[-1], "offending triple must be reported"
    assert rep.failures == reference_failures(bad)


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
        rep, _ = verify_algebra(bad, seeds=seeds)
        expected = reference_failures(bad)
        assert rep.ok == (not expected), (i, j, k)
        if not rep.ok:
            assert rep.failures == expected, (i, j, k)
            restricted_rejections += not any("basis" in fl for fl in expected)
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
    sm = smash_product(act)
    assert verify_algebra(sm.algebra)[0].ok
    seeds = [sm.embed_x.apply(g) for g in generators(t.M1)] + [sm.embed_h.apply(g) for g in generators(H_B.algebra)]
    assert assert_verify_matches_reference(sm.algebra, seeds, 7) > 0


# -- the table layout: rows of nonzero products ------------------------------------


def assert_rows_of_nonzero_products(alg):
    """Every row of alg.table is a dict {j: e_i e_j} in ascending j whose
    products are all nonzero."""
    assert len(alg.table) == alg.dim
    for row in alg.table:
        assert list(row) == sorted(row) and all(0 <= j < alg.dim and row[j] for j in row)


@pytest.mark.parametrize("field", [Q, F7], ids=["Q", "F7"])
def test_from_entries_keeps_no_cancelled_product(field):
    """Entries that cancel leave no key, and entries listed out of order give
    rows in ascending j."""
    one, two = field.one, field.from_int(2)
    entries = [(0, 1, 1, one), (0, 0, 0, one), (0, 0, 0, field.neg(one)), (1, 1, 1, two), (1, 0, 1, one)]
    alg = Algebra.from_entries(field, 2, entries, {0: one})
    assert alg.table == [{1: {1: one}}, {0: {1: one}, 1: {1: two}}]
    assert list(alg.table[1]) == [0, 1]
    assert alg.cell(0, 0) == {} and alg.entries() == [(0, 1, 1, one), (1, 0, 1, one), (1, 1, 1, two)]


def test_entries_round_trip_through_fileio(stack_z3_f7):
    """The algebras the tower and the smash product build store only nonzero
    products, in ascending j, and come back from their file form unchanged."""
    t, d2, _p, H_B = stack_z3_f7[:4]
    act, _ = action_b_on_m1(t, d2, H_B, sandwich_maps(t, d2))
    for alg in (t.M, t.M1, t.M2, smash_product(act).algebra):
        assert_rows_of_nonzero_products(alg)
        data = algebra_to_dict(alg)
        back = parse_algebra(alg.field, data)
        assert back.entries() == alg.entries() and back.unit == alg.unit
        assert back.table == alg.table and [list(row) for row in back.table] == [list(row) for row in alg.table]
        assert canonical_json(algebra_to_dict(back)) == canonical_json(data)


def test_mutating_a_zero_product_leaves_the_algebra_unchanged():
    alg = matrix_units_m2(F2)
    entries = alg.entries()
    zeros = [(i, j) for i in range(alg.dim) for j in range(alg.dim) if j not in alg.table[i]]
    assert zeros
    for i, j in zeros:
        zero = alg.cell(i, j)
        assert zero == {}
        with pytest.raises(TypeError):
            zero[0] = F2.one
        assert alg.cell(i, j) == {} and j not in alg.table[i]
    assert alg.entries() == entries and verify_algebra(alg)[0].ok


# -- the sparse table kernels against scans over every pair -------------------------


def random_scalar(field, rng):
    """A nonzero scalar; over Q often a true fraction."""
    while True:
        c = field.div(field.from_int(rng.randint(-4, 4)), field.from_int(rng.choice((1, 3))))
        if c:
            return c


def random_element(field, dim, rng, density):
    return {k: random_scalar(field, rng) for k in range(dim) if rng.random() < density}


def random_table(field, rng):
    """An algebra each of whose basis products is nonzero with a probability
    drawn from 0.1-0.4, with one or two terms: associative only by chance.
    Its rows hold the nonzero products alone, in ascending j."""
    dim = rng.randint(2, 7)
    density = rng.uniform(0.1, 0.4)
    table = [
        {
            j: {rng.randrange(dim): random_scalar(field, rng) for _ in range(rng.randint(1, 2))}
            for j in range(dim)
            if rng.random() < density
        }
        for _ in range(dim)
    ]
    return Algebra(field, dim, table, {0: field.one})


def random_incidence(field, rng):
    """The incidence algebra of a random preorder on 2-3 points (basis e_xy
    for x <= y, e_xy e_yz = e_xz), its basis shuffled and rescaled:
    associative, with table density 1/points for the total preorder."""
    n = rng.randint(2, 3)
    rel = {(x, x) for x in range(n)} | {(x, y) for x in range(n) for y in range(n) if rng.random() < 0.4}
    while True:
        closure = rel | {(x, z) for x, y in rel for y2, z in rel if y == y2}
        if closure == rel:
            break
        rel = closure
    basis = sorted(rel)
    rng.shuffle(basis)
    index = {p: k for k, p in enumerate(basis)}
    scale = [random_scalar(field, rng) for _ in basis]
    # e'_p = scale[p] e_basis[p], so e'_p e'_q = scale[p] scale[q] / scale[r] e'_r
    entries = [
        (p, q, index[x, z], field.div(field.mul(scale[p], scale[q]), scale[index[x, z]]))
        for p, (x, y) in enumerate(basis)
        for q, (y2, z) in enumerate(basis)
        if y == y2
    ]
    unit = {index[x, x]: field.inv(scale[index[x, x]]) for x in range(n)}
    return Algebra.from_entries(field, len(basis), entries, unit)


def random_algebras(field, seed):
    """A random table, an incidence algebra and that algebra with two
    constants bumped."""
    rng = random.Random(seed)
    inc = random_incidence(field, rng)
    d = inc.dim
    bad = inc
    for _ in range(2):
        bad = bumped_constant(bad, rng.randrange(d), rng.randrange(d), rng.randrange(d))
    return rng, [random_table(field, rng), inc, bad]


def scan_assoc_failures(alg, rights):
    """Every (i, j, r) in order, both sides summed over every basis index l:
    (e_i e_j) g_r = sum_l c_ij^l (e_l g_r) and e_i (e_j g_r) = sum_l (e_j g_r)_l e_i e_l."""
    f, d = alg.field, alg.dim
    failures = []
    for i in range(d):
        for j in range(d):
            for r, right in enumerate(rights):
                lhs, rhs = [f.zero] * d, [f.zero] * d
                for l in range(d):
                    a, b = alg.cell(i, j).get(l, f.zero), right[j].get(l, f.zero)
                    for m in range(d):
                        lhs[m] = f.add(lhs[m], f.mul(a, right[l].get(m, f.zero)))
                        rhs[m] = f.add(rhs[m], f.mul(b, alg.cell(i, l).get(m, f.zero)))
                lhs, rhs = sparse_vector(lhs), sparse_vector(rhs)
                if lhs != rhs:
                    failures.append({"triple": (i, j, r), "lhs": lhs, "rhs": rhs})
    return failures


@pytest.mark.parametrize("field", [Q, F2, F7], ids=["Q", "F2", "F7"])
def test_assoc_failures_equal_the_scan_over_every_triple(field):
    """_assoc_failures visits only the live pairs; on random sparse tables,
    associative or not, with random right factors and with the full scan's
    basis columns, it lists what the scan over every (i, j, r) lists. Some of
    the failures found have e_i e_j = 0, so only their rhs is nonzero: those
    pairs are found through supp(e_j g) alone."""
    found, rhs_only = 0, 0
    for seed in range(40):
        rng, algebras = random_algebras(field, seed)
        for alg in algebras:
            one = field.one
            gens = [random_element(field, alg.dim, rng, 0.5) for _ in range(rng.randint(1, 3))]
            by_gens = [[naive_mul(alg, {l: one}, g) for l in range(alg.dim)] for g in gens]
            columns = [[alg.cell(l, k) for l in range(alg.dim)] for k in range(alg.dim)]
            for rights in (by_gens, columns):
                got = list(_assoc_failures(alg, rights))
                assert got == scan_assoc_failures(alg, rights), (seed, alg.dim)
                found += len(got)
                rhs_only += sum(not alg.cell(*fl["triple"][:2]) for fl in got)
        assert verify_algebra(algebras[1])[0].ok, seed
    assert found > 0 and rhs_only > 0


def _failures_over(factors):
    """A failure iterator: the factors that are negative, in order."""
    return (x for x in factors if x < 0)


def test_law_failures_passing_generators_never_build_the_scan():
    def basis():
        raise AssertionError("the scan was built")

    assert law_failures(_failures_over, [1, 2], basis) == []
    assert law_failures(_failures_over, [], basis) == []


def test_law_failures_list_the_scan_without_or_with_failing_generators():
    """The first WITNESS_FAILURES failures of the scan, which is not read
    past the last of them (None < 0 would raise)."""
    assert WITNESS_FAILURES == 4
    scan = [3, -1, -2, 4, -3, -4, None]
    for gens in (None, [2, -7]):
        assert law_failures(_failures_over, gens, lambda: scan) == [-1, -2, -3, -4]
        assert law_failures(_failures_over, gens, lambda: [1, 2]) == []


def test_law_failures_list_at_least_one():
    assert law_failures(_failures_over, None, lambda: [1, -5, 6]) == [-5]


@pytest.mark.parametrize("field", [Q, F2, F7], ids=["Q", "F2", "F7"])
def test_mul_sparse_equals_the_product_over_every_pair(field):
    """mul_sparse skips the basis pairs with e_i e_j = 0; on random sparse
    tables and elements it equals the product over every pair, also where
    terms cancel: x = a e_i + b e_i2 with e_i e_j and e_i2 e_j sharing e_k,
    and b chosen so that the e_k terms of x e_j cancel."""
    cancelled = 0
    for seed in range(40):
        rng, algebras = random_algebras(field, seed)
        for alg in algebras:
            d = alg.dim
            for _ in range(4):
                x, y = random_element(field, d, rng, 0.5), random_element(field, d, rng, 0.5)
                assert alg.mul_sparse(x, y) == naive_mul(alg, x, y), seed
            shared = [
                (i, i2, j, k)
                for i in range(d) for i2 in range(i + 1, d) for j in range(d)
                for k in alg.cell(i, j) if k in alg.cell(i2, j)
            ]
            if shared:
                i, i2, j, k = shared[rng.randrange(len(shared))]
                a = random_scalar(field, rng)
                b = field.neg(field.div(field.mul(a, alg.cell(i, j)[k]), alg.cell(i2, j)[k]))
                x, y = {i: a, i2: b}, {j: field.one}
                prod = alg.mul_sparse(x, y)
                assert prod == naive_mul(alg, x, y) and k not in prod, seed
                cancelled += 1
    assert cancelled > 0


# -- key order of the accumulators -------------------------------------------------
# sparse_add, sparse_axpy, mul_sparse and _assoc_failures store a new key's
# value directly (first write). Their dicts must list the keys in the order of
# the plain rule below, which adds every term to an implicit zero and pops a
# zero sum: a new key is appended, a cancelled key that comes back is appended
# again. Reports print witnesses in dict order, so == alone does not pin it.


class ZeroStartSum:
    """acc[key] = acc.get(key, 0) + val, popped when zero; counts the keys
    that cancel and later come back."""

    def __init__(self, field):
        self.field = field
        self.acc: dict = {}
        self.cancelled: set = set()
        self.returned = 0

    def add(self, key, val):
        f = self.field
        v = f.add(self.acc.get(key, f.zero), val)
        if v:
            self.returned += key in self.cancelled and key not in self.acc
            self.acc[key] = v
        elif self.acc.pop(key, None) is not None:
            self.cancelled.add(key)


def zero_start_product(alg, x, y):
    """x y summed in mul_sparse's order by ZeroStartSum."""
    f = alg.field
    ref = ZeroStartSum(f)
    for i, xi in x.items():
        for j, yj in y.items():
            c = f.mul(xi, yj)
            for k, t in alg.cell(i, j).items():
                ref.add(k, f.mul(c, t))
    return ref


def cancel_and_return_algebra(field):
    """A 3-dim table (not associative) and one right factor g, given as
    [e_l g for every l], where each accumulator cancels a key and brings it
    back: e_0 (e_0 + e_1 + e_2) cancels e_1 at the second term and restores
    it at the third; so does the rhs e_0 (e_0 g) of the triple (0, 0, g), and
    the lhs (e_1 e_0) g of (1, 0, g) does the same with e_0."""
    t = field.div(field.one, field.from_int(3))
    table = [
        {0: {1: t, 2: t}, 1: {1: field.neg(t)}, 2: {1: field.one}},
        {0: {0: field.one, 1: field.one, 2: field.one}, 1: {0: field.one}},
        {},
    ]
    right = [{0: field.one, 1: field.one, 2: field.one}, {0: field.neg(field.one)}, {0: field.one}]
    return Algebra(field, 3, table, {0: field.one}), right


@pytest.mark.parametrize("field", [Q, F2, F7], ids=["Q", "F2", "F7"])
def test_sparse_add_and_axpy_keep_the_zero_start_key_order(field):
    rng = random.Random(2001)
    returned = zeros = 0
    for _ in range(200):
        acc, axpy_acc = {}, {}
        ref, axpy_ref = ZeroStartSum(field), ZeroStartSum(field)
        for _ in range(12):
            key = rng.randrange(4)
            roll = rng.random()
            if roll < 0.15:
                val = field.zero
                zeros += 1
            elif roll < 0.5 and key in acc:
                val = field.neg(acc[key])  # cancels the key
            else:
                val = random_scalar(field, rng)
            sparse_add(field, acc, key, val)
            ref.add(key, val)
            assert list(acc.items()) == list(ref.acc.items())
            c = rng.choice([field.zero, field.one, random_scalar(field, rng)])
            v = {k: field.neg(axpy_acc[k]) if k in axpy_acc and rng.random() < 0.5 else random_scalar(field, rng)
                 for k in rng.sample(range(4), rng.randint(0, 3))}
            if c:
                v = {k: field.div(x, c) for k, x in v.items()}
            sparse_axpy(field, axpy_acc, c, v)
            for k, x in v.items():
                axpy_ref.add(k, field.mul(c, x))
            assert list(axpy_acc.items()) == list(axpy_ref.acc.items())
        returned += ref.returned + axpy_ref.returned
    assert returned > 0 and zeros > 0


@pytest.mark.parametrize("field", [Q, F2, F7], ids=["Q", "F2", "F7"])
def test_mul_sparse_keeps_the_zero_start_key_order(field):
    alg, _ = cancel_and_return_algebra(field)
    x, y = {0: field.one}, {0: field.one, 1: field.one, 2: field.one}
    ref = zero_start_product(alg, x, y)
    assert list(alg.mul_sparse(x, y).items()) == list(ref.acc.items())
    assert list(ref.acc) == [2, 1] and ref.returned == 1
    returned = 0
    for seed in range(40):
        rng, algebras = random_algebras(field, seed)
        for alg in algebras:
            for _ in range(4):
                x, y = random_element(field, alg.dim, rng, 0.6), random_element(field, alg.dim, rng, 0.6)
                ref = zero_start_product(alg, x, y)
                assert list(alg.mul_sparse(x, y).items()) == list(ref.acc.items()), seed
                assert ref.acc == naive_mul(alg, x, y), seed
                returned += ref.returned
    assert returned > 0


@pytest.mark.parametrize("field", [Q, F2, F7], ids=["Q", "F2", "F7"])
def test_assoc_failure_witnesses_keep_the_zero_start_key_order(field):
    """Both witnesses of every failure, summed in _assoc_failures' order by
    ZeroStartSum, list their keys in the same order."""
    alg, right = cancel_and_return_algebra(field)
    cases = [(alg, [right])]
    rng = random.Random(2002)
    for seed in range(40):
        for alg in random_algebras(field, seed)[1]:
            gens = [random_element(field, alg.dim, rng, 0.6) for _ in range(2)]
            cases.append((alg, [[alg.mul_sparse({l: field.one}, g) for l in range(alg.dim)] for g in gens]))
    returned = {"lhs": 0, "rhs": 0}
    for alg, rights in cases:
        for failure in _assoc_failures(alg, rights):
            i, j, r = failure["triple"]
            ref = {"lhs": ZeroStartSum(field), "rhs": ZeroStartSum(field)}
            for l, c in alg.cell(i, j).items():
                for m, t in rights[r][l].items():
                    ref["lhs"].add(m, field.mul(c, t))
            for l, c in rights[r][j].items():
                for m, t in alg.cell(i, l).items():
                    ref["rhs"].add(m, field.mul(c, t))
            for side in ("lhs", "rhs"):
                assert list(failure[side].items()) == list(ref[side].acc.items()), (failure, side)
                returned[side] += ref[side].returned
    assert returned["lhs"] > 0 and returned["rhs"] > 0


def word_closure_generators(alg, seeds=()):
    """generators() grown from the words: every word that enlarged the span
    is multiplied by every generator, each product formed with mul_sparse."""
    f = alg.field
    span = SparseSolver(f, alg.dim)
    words, gens = [], []

    def close(pending):
        while pending:
            w = pending.pop()
            before = span.rank()
            span.add_row(w, f.zero)
            if span.rank() > before:
                words.append(w)
                pending.extend(alg.mul_sparse(w, g) for g in gens)

    def extend(g):
        gens.append(g)
        close([alg.mul_sparse(w, g) for w in words])

    close([alg.unit])
    for s in seeds:
        if span.rank() == alg.dim:
            return gens
        extend(s)
    for k in range(alg.dim):
        if span.rank() == alg.dim:
            break
        if span.reduce({k: f.one}):
            extend({k: f.one})
    return gens


def assert_generators_are_the_word_closure(alg, seeds):
    gens, rights = _generators(alg, seeds)
    assert gens == word_closure_generators(alg, seeds) == generators(alg, seeds)
    one = alg.field.one
    assert rights == [[alg.mul_sparse({l: one}, g) for l in range(alg.dim)] for g in gens]


@pytest.mark.parametrize("field", [Q, F2, F7], ids=["Q", "F2", "F7"])
def test_generators_equal_the_word_closure(field):
    """The span grown from reduced rows decides as the span of the words does,
    on random tables, incidence algebras and bumped ones, whether they are
    associative or not, with random seeds: zero, repeated, or past a full
    span."""
    for seed in range(40):
        rng, algebras = random_algebras(field, seed)
        for alg in algebras:
            seeds = [random_element(field, alg.dim, rng, rng.choice((0.0, 0.3, 0.7))) for _ in range(rng.randint(0, 3))]
            if seeds and rng.random() < 0.3:
                seeds.append(dict(seeds[0]))
            assert_generators_are_the_word_closure(alg, seeds)


def test_generators_equal_the_word_closure_on_model_levels(model_z3_f7):
    t, _d2 = model_z3_f7
    for alg, seeds in ((t.M, ()), (t.M1, t.levels[0].incl_generators + [t.e1]),
                       (t.M2, t.levels[1].incl_generators + [t.e2])):
        assert_generators_are_the_word_closure(alg, seeds)
        assert_generators_are_the_word_closure(alg, ())

@pytest.mark.parametrize("group", ["z2", "z3", "z4"])
def test_pipeline_generators_span(group, monkeypatch):
    """Every algebra the model-f7 pipeline checks (M and both tower levels;
    the smash isomorphisms of a verified run form no smash table) is
    generated by the set its associativity check uses; on z4 the dim-64 M2
    needs at most 10, where basis elements alone need 28."""
    checked = []
    real = algebra.verify_algebra

    def recording(alg, seeds=()):
        seeds = list(seeds)
        checked.append((alg, seeds))
        return real(alg, seeds)

    for module in (pipeline, tower, galois):
        monkeypatch.setattr(module, "verify_algebra", recording)
    ext, _sidecar = generate_example("function-algebra", {"group": group, "field": "f7"})
    _tower, d2, rep = model_tower(model_bundle(f"function-algebra:{group}", ext.M.field))
    assert rep.ok
    checked.clear()
    override = DepthTwoData(A=d2.A, B=d2.B, C=d2.C, source="model")
    assert run_pipeline(ext, d2_override=override).exit_code() == 0
    assert len(checked) == 3  # M, M1, M2
    for alg, seeds in checked:
        assert word_span_dim(alg, generators(alg, seeds)) == alg.dim
    if group == "z4":
        sizes = [len(generators(alg, seeds)) for alg, seeds in checked if alg.dim == 64]
        assert len(sizes) == 1 and max(sizes) <= 10, sizes
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


def commutant_reference(field, n, maps):
    """A basis of {X : X R = R X for every R in maps}, X flattened with entry
    (a, b) at a * n + b: the kernel of the stacked constraints read off the
    dense rref."""
    rows = []
    for R in maps:
        r = [[R.columns[b].get(a, field.zero) for b in range(n)] for a in range(n)]
        for a in range(n):
            for b in range(n):
                # (X R - R X)[a][b] = sum_c X[a][c] r[c][b] - r[a][c] X[c][b]
                row = [field.zero] * (n * n)
                for c in range(n):
                    row[a * n + c] = field.add(row[a * n + c], r[c][b])
                    row[c * n + b] = field.sub(row[c * n + b], r[a][c])
                rows.append(row)
    reduced, pivots = rref(Matrix(field, rows))
    kernel = []
    for free in (j for j in range(n * n) if j not in pivots):
        v = {free: field.one}
        for i, p in enumerate(pivots):
            if reduced.data[i][free]:
                v[p] = field.neg(reduced.data[i][free])
        kernel.append(v)
    return kernel


def assert_is_commutant(endo, field, n, maps):
    """endo spans exactly the reference commutant of maps."""
    ref = commutant_reference(field, n, maps)
    assert endo.dim == len(ref) == span_dim(field, ref)
    assert all(endo.contains(v) for v in ref)


def test_endomorphism_algebra_trivial():
    field = Q
    unit_alg = Algebra.from_entries(field, 1, [(0, 0, 0, field.one)], {0: field.one})
    endo = right_module_endomorphisms(unit_alg, LinMap.identity(field, 1))
    assert endo.induced_algebra()[0].dim == 1
    assert_is_commutant(endo, field, 1, [LinMap.identity(field, 1)])


def test_endomorphism_algebra_field_extension():
    # Q(sqrt 2) as a module over Q: all linear maps, End = M_2(Q)
    X = quadratic_field_algebra(Q, Q.from_int(2))
    endo = right_module_endomorphisms(X, LinMap(Q, [X.unit], 2))
    E = endo.induced_algebra()[0]
    assert E.dim == 4
    assert verify_algebra(E)[0].ok
    assert E.table == matrix_algebra(Q, 2).table
    assert_is_commutant(endo, Q, 2, [LinMap.identity(Q, 2)])


def test_endomorphism_algebra_group_pair(ext_s3_a3):
    ext = ext_s3_a3
    endo = right_module_endomorphisms(ext.M, ext.embed)
    assert endo.dim == 12  # equals dim M (x)_N M
    assert_is_commutant(endo, Q, 6, [rmul(ext.M, n) for n in ext.embed.columns])


def test_endomorphism_coords_of_matrix(ext_s3_a3):
    ext = ext_s3_a3
    mats = [rmul(ext.M, n) for n in ext.embed.columns]
    end = matrix_algebra(Q, 6)
    endo = right_module_endomorphisms(ext.M, ext.embed)
    assert endo.equals(centralizer(end, SubspaceBasis.from_spanning(end, [matrix_element(r) for r in mats])))
    E = endo.induced_algebra()[0]
    for i, a in enumerate(endo.vectors):
        assert endo.coords(a) == {i: Q.one}
        for j, b in enumerate(endo.vectors):
            composed = matrix_element(matrix_map(Q, 6, a).compose(matrix_map(Q, 6, b)))
            assert end.mul_sparse(a, b) == composed
            assert endo.coords(composed) == E.cell(i, j)
    # right multiplication by the transposition (01) fails to commute with
    # right multiplication by the 3-cycles of A3
    r01 = rmul(ext.M, {1: Q.one})
    assert any(r01.compose(r) != r.compose(r01) for r in mats)
    assert endo.coords(matrix_element(r01)) is None


def test_endomorphism_rejects_bad_module():
    """Over a non-associative M the right multiplications by N need not span
    a subalgebra of End_k(M); End(M_N) is then not formed."""
    for field in ("rational", "f7"):
        ext = non_associative("group-pair", {"group": "s3", "subgroup": "z2", "field": field}, (1, 1, 1))
        M, f = ext.M, ext.M.field
        rights = [rmul(M, n) for n in ext.embed.columns]
        span = [matrix_element(r) for r in rights]
        assert any(span_dim(f, span + [matrix_element(r.compose(s))]) > span_dim(f, span)
                   for r in rights for s in rights)
        with pytest.raises(AlgebraError, match="not a unital subalgebra"):
            right_module_endomorphisms(M, ext.embed)


def tensor_square_reference(alg, v, w):
    """(x (x) y)(x' (x) y') componentwise, e_p (x) e_q at p * dim + q."""
    f, d = alg.field, alg.dim
    out = {}
    for pq, cv in v.items():
        p, q = divmod(pq, d)
        for rs, cw in w.items():
            r, s = divmod(rs, d)
            c = f.mul(cv, cw)
            right = alg.cell(q, s)
            for k, ck in alg.cell(p, r).items():
                for l, cl in right.items():
                    sparse_add(f, out, k * d + l, f.mul(c, f.mul(ck, cl)))
    return out


@pytest.mark.parametrize("alg", [
    group_algebra(symmetric_group_3(), Q),
    quadratic_field_algebra(F7, F7.from_int(3)),
    matrix_units_m2(F2),
], ids=["q[s3]", "f7(sqrt3)", "m2f2"])
def test_tensor_algebra_is_the_componentwise_product(alg):
    f, d = alg.field, alg.dim
    square = tensor_algebra(alg)
    assert square.dim == d * d
    assert square.unit == {i * d + j: f.mul(a, b) for i, a in alg.unit.items() for j, b in alg.unit.items()}
    for i in range(d * d):
        for j in range(d * d):
            assert square.mul_sparse({i: f.one}, {j: f.one}) == tensor_square_reference(alg, {i: f.one}, {j: f.one})
    rng = random.Random(26)
    for _ in range(20):
        v, w = ({k: f.from_int(rng.randint(-2, 2)) for k in rng.sample(range(d * d), 3)} for _ in range(2))
        v, w = ({k: c for k, c in x.items() if c} for x in (v, w))
        assert square.mul_sparse(v, w) == tensor_square_reference(alg, v, w)
    assert all(row == dict(sorted(row.items())) for row in square.table)
    assert verify_algebra(square)[0].ok


def test_check_morphism_identity_iso():
    alg = group_algebra(cyclic_group(2), Q)
    rep = check_morphism(LinMap.identity(Q, 2), alg, alg)
    assert rep.ok and not rep.failures


def test_check_morphism_zero_map_fails_unit():
    alg = group_algebra(cyclic_group(2), Q)
    zero = LinMap(Q, [{}, {}], 2)
    rep = check_morphism(zero, alg, alg)
    assert not rep.ok and rep.failures
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


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([Q, F5]), st.integers(1, 5), st.data())
def test_equals_is_independent_of_the_given_basis(field, n, data):
    """equals compares the canonical RREF rows of the spans: a subspace given
    by shuffled, rescaled independent vectors equals its from_spanning, so
    no caller needs to canonicalize before comparing."""
    entry = st.integers(-3, 3).map(field.from_int)
    vector = st.lists(entry, min_size=n, max_size=n).map(sparse_vector)
    vectors = data.draw(st.lists(vector, max_size=n))
    assume(span_dim(field, vectors) == len(vectors))
    alg = group_algebra(cyclic_group(n), field)
    scales = data.draw(st.lists(st.integers(1, 4).map(field.from_int), min_size=len(vectors), max_size=len(vectors)))
    assume(all(scales))
    given_basis = [sparse_scale(field, c, v) for c, v in zip(scales, vectors)]
    order = data.draw(st.permutations(range(len(vectors))))
    sub = SubspaceBasis(alg, [given_basis[i] for i in order])
    assert sub.equals(SubspaceBasis.from_spanning(alg, sub.vectors))
    assert SubspaceBasis.from_spanning(alg, vectors).equals(sub)


@pytest.mark.parametrize("field", [Q, F5], ids=["Q", "F5"])
def test_zero_subspace_coords(field):
    sub = SubspaceBasis(group_algebra(cyclic_group(3), field), [])
    assert sub.dim == 0
    assert sub.coords({}) == {}
    assert sub.coords({1: field.one}) is None
