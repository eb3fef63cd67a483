import functools
from dataclasses import replace

import pytest
from conftest import bumped, failed_level

from hopftower import depth2, frobenius
from hopftower.algebra import WITNESS_FAILURES, CheckOutcome, SubspaceBasis, module_generators, span_dim
from hopftower.depth2 import (
    DepthTwoData,
    _frobenius_sum_failures,
    _level_context,
    _LevelContext,
    _tensor_membership,
    _verify_pair,
    check_depth_two,
    conditional_expectations,
    f_scalar_on_c,
    nakayama_relations,
    verify_c_structure,
    verify_f_faithful,
)
from hopftower.fields import PrimeField, RationalField
from hopftower.frobenius import ExtensionSpec, verify_conditional_expectation
from hopftower.linalg import LinMap, invert, sparse_add, sparse_axpy, sparse_scale
from hopftower.models import generate_example, model_bundle, model_tower
from hopftower.pipeline import run_pipeline
from hopftower.report import FAIL, SKIP, Reporter

Q = RationalField()


# -- verdicts -----------------------------------------------------------------


def test_trivial_passes_with_unit_bases(d2_trivial):
    d2 = d2_trivial
    assert d2.passed()
    z, w = d2.level1.z, d2.level1.w
    assert len(z) == 1 and z[0] == {0: Q.one} and w[0] == {0: Q.one}


def test_normal_subgroup_passes(d2_s3_a3):
    d2 = d2_s3_a3
    assert (d2.A.dim, d2.B.dim) == (8, 8)
    assert d2.level1.passed and d2.level2.passed
    assert d2.level1.n0 == 2 and d2.level2.n0 == 2
    assert d2.level1.tensor_solvable and d2.level2.tensor_solvable
    assert d2.level1.paths_agree and d2.level2.paths_agree


def test_non_normal_subgroup_fails(d2_s3_z2):
    d2 = d2_s3_z2
    assert not d2.level1.passed and not d2.level2.passed
    # independent certificate: the dual-bases tensor system inside A (x) A
    # is inconsistent, and both code paths agree on the verdict
    assert d2.level1.tensor_solvable is False
    assert d2.level2.tensor_solvable is False
    assert d2.level1.paths_agree and d2.level2.paths_agree


def test_non_normal_reason_names_the_tensor_system(d2_s3_z2):
    # the witness search is skipped once the tensor system has no solution
    for verdict in (d2_s3_z2.level1, d2_s3_z2.level2):
        assert verdict.reason == "the dual-bases tensor system in the centralizer square is inconsistent"
        assert verdict.z is None and verdict.w is None


@pytest.mark.parametrize("field,group", [("f7", "z3"), ("f7", "z4"), ("rational", "z3")])
def test_function_algebra_passes_both_levels(field, group):
    ext, _ = generate_example("function-algebra", {"field": field, "group": group})
    state = run_pipeline(ext).state
    t, d2 = state.tower, state.d2
    assert d2.level1.passed and d2.level2.passed
    assert d2.level1.paths_agree and d2.level2.paths_agree
    # dim B = 9 or 16 exceeds n0 = 3 or 4: the witness is found, not read off
    assert d2.level2.n0 == t.M.dim and d2.B.dim > d2.level2.n0
    ctx = _LevelContext(up=t.M2, down=t.M1, cond_exp=t.E_M1, down_in_up=t.incl2, scope=d2.B)
    assert _verify_pair(ctx, *d2.uv) == (True, "")


def test_normal_vs_non_normal_verdicts_differ(d2_s3_a3, d2_s3_z2):
    assert d2_s3_a3.passed() and not d2_s3_z2.passed()


def test_sqrt2_tower_passes_depth_two(d2_sqrt2, tower_sqrt2):
    # reducible base: A = C_M1(Q) is all of M1 (dim 4); free bases exist in it
    assert d2_sqrt2.A.dim == tower_sqrt2.M1.dim == 4
    assert d2_sqrt2.passed()


def test_centralizer_image_contained_in_A(tower_s3_a3, d2_s3_a3):
    # C_M(N) embeds into A = C_M1(N), so dim A >= 4 for the normal pair
    from hopftower.algebra import centralizer

    t = tower_s3_a3
    ext = t.base_sys.ext
    cm = centralizer(ext.M, ext.N, require_subalgebra=False)
    assert cm.dim == 4
    for v in cm.vectors:
        assert d2_s3_a3.A.contains(t.incl1.apply(v))
    assert d2_s3_a3.A.dim >= 4


def test_verified_equations_hold(tower_s3_a3, d2_s3_a3):
    # spot-check the defining equations of the returned bases directly
    t, d2 = tower_s3_a3, d2_s3_a3
    z, w = d2.level1.z, d2.level1.w
    for x in range(t.M1.dim):
        ex = {x: Q.one}
        acc = {}
        for zi, wi in zip(z, w):
            exz = t.E_M.apply(t.M1.mul_sparse(ex, zi))
            term = t.M1.mul_sparse(t.incl1.apply(exz), wi)
            sparse_axpy(Q, acc, Q.one, term)
        assert acc == ex
    for i, wi in enumerate(w):
        for j, zj in enumerate(z):
            val = t.E_M.apply(t.M1.mul_sparse(wi, zj))
            expected = t.M.unit if i == j else {}
            assert val == expected


def test_mutilated_scope_gives_dimension_obstruction(tower_sqrt2):
    t = tower_sqrt2
    A_small = SubspaceBasis(t.M1, [t.M1.unit])
    B_small = SubspaceBasis(t.M2, [t.M2.unit])
    d2 = DepthTwoData(A=A_small, B=B_small, C=B_small)
    check_depth_two(t, d2)
    assert not d2.level1.passed
    assert "dimension obstruction" in d2.level1.reason
    assert d2.level1.tensor_solvable is False


def test_model_gram_route(model_z2, model_z3_f7):
    for t, d2 in (model_z2, model_z3_f7):
        assert d2.level1.passed and d2.level1.gram_route
        assert d2.level2.passed and d2.level2.gram_route
        assert d2.level1.paths_agree and d2.level2.paths_agree


def test_model_tensor_decomposition(model_z2):
    # m (x) a -> m a is a bijection M (x) A -> M1 (and one level up)
    t, d2 = model_z2
    f = t.M.field
    vecs = []
    for m in range(t.M.dim):
        mh = t.incl1.apply({m: f.one})
        for a in d2.A.vectors:
            vecs.append(t.M1.mul_sparse(mh, a))
    assert span_dim(f, vecs) == t.M1.dim == t.M.dim * d2.A.dim
    vecs = []
    for m in range(t.M1.dim):
        mh = t.incl2.apply({m: f.one})
        for b in d2.B.vectors:
            vecs.append(t.M2.mul_sparse(mh, b))
    assert span_dim(f, vecs) == t.M2.dim == t.M1.dim * d2.B.dim


def test_depth_two_separability_element(model_z2, d2_trivial, tower_trivial):
    # lam sum z_i (x) w_i is a separability element for A when dim A = n0
    # (z is the basis of A, w its inverse-Gram dual) and E is scalar on A A
    cases = [(model_z2[0], model_z2[1]), (tower_trivial, d2_trivial)]
    for t, d2 in cases:
        f = t.M.field
        z, w = d2.level1.z, d2.level1.w
        A_alg, _ = d2.A.induced_algebra()
        lam = t.lam
        za = [d2.A.coords(v) for v in z]
        wa = [d2.A.coords(v) for v in w]
        assert all(v is not None for v in za + wa)
        d = A_alg.dim
        tensor = {}
        for zi, wi in zip(za, wa):
            for p, cp in zi.items():
                for q, cq in wi.items():
                    c = f.mul(lam, f.mul(cp, cq))
                    if not f.is_zero(c):
                        tensor[p * d + q] = f.add(tensor.get(p * d + q, f.zero), c)
        # mu(e) = 1
        mu = {}
        for col, c in tensor.items():
            p, q = divmod(col, d)
            sparse_axpy(f, mu, f.one, A_alg.mul_sparse({p: c}, {q: f.one}))
        assert mu == A_alg.unit
        # a e = e a for every basis a
        from hopftower.frobenius import _tensor_central

        assert _tensor_central(A_alg, tensor)


# -- structure of C -----------------------------------------------------------


def test_c_structure_trivial(tower_trivial, d2_trivial):
    assert verify_c_structure(tower_trivial, d2_trivial).ok


def test_c_structure_models(model_z2, model_z3_f7):
    for t, d2 in (model_z2, model_z3_f7):
        out = verify_c_structure(t, d2)
        assert out.ok, out.failures[:2]
        n = d2.n
        assert d2.C.dim == n * n
        assert d2.A.dim == d2.B.dim == n


def test_c_structure_gating_when_not_scalar(tower_s3_a3, d2_s3_a3):
    # the honest S3/A3 tower has F(C) not inside k 1, so the C checks are
    # gated; the gate itself is what gets asserted here
    assert not f_scalar_on_c(tower_s3_a3, d2_s3_a3)


# -- conditional expectations ---------------------------------------------------


def test_conditional_expectations_trivial(tower_trivial, d2_trivial):
    E_A, E_B, out = conditional_expectations(tower_trivial, d2_trivial)
    assert out.ok
    assert E_A == LinMap.identity(Q, 1)
    assert E_B == LinMap.identity(Q, 1)


def test_conditional_expectations_models(model_z2, model_z3_f7):
    for t, d2 in (model_z2, model_z3_f7):
        E_A, E_B, out = conditional_expectations(t, d2)
        assert out.ok, out.failures[:2]
        # E_B(e1) = lam 1 was part of the verification; re-check explicitly
        f = t.M.field
        e1h = t.e1_in_m2()
        coords = d2.C.coords(e1h)
        assert E_B.apply(coords) == sparse_scale(f, t.lam, t.M2.unit)


# -- faithfulness of F ------------------------------------------------------------


def test_f_faithful_trivial(tower_trivial, d2_trivial):
    gram, out = verify_f_faithful(tower_trivial, d2_trivial)
    assert out.ok
    assert gram.codomain_dim == 1 and str(gram.columns[0][0]) == "1"


def test_f_faithful_models(model_z2, model_z3_f7):
    for t, d2 in (model_z2, model_z3_f7):
        gram, out = verify_f_faithful(t, d2)
        assert out.ok
        n2 = d2.C.dim
        assert gram.codomain_dim == gram.domain_dim == n2
        assert invert(gram) is not None


def test_f_faithful_skipped_for_reducible_base(tower_s3_a3, d2_s3_a3):
    gram, out = verify_f_faithful(tower_s3_a3, d2_s3_a3)
    assert not out.ok
    assert out.failures[0]["kind"] == "F-not-scalar-on-C"


# -- Nakayama relations ------------------------------------------------------------


def test_nakayama_relations_models(model_z2, model_z3_f7):
    for t, d2 in (model_z2, model_z3_f7):
        res = nakayama_relations(t, d2)
        assert res.report.ok, res.report.failures[:3]
        f = t.M.field
        # F is a trace here, so q = id on C
        assert res.q_C == LinMap.identity(f, d2.C.dim)


def test_nakayama_fixes_jones_idempotents(stack_trivial, stack_z2, stack_z3_f7):
    for stack in (stack_trivial, stack_z2, stack_z3_f7):
        t, d2 = stack[0], stack[1]
        naka = stack[5]
        assert naka.report.ok
        f = t.M.field
        for vec in (t.e1_in_m2(), t.e2):
            coords = d2.C.coords(vec)
            img = naka.q_C.apply(coords)
            acc = {}
            for k, c in img.items():
                sparse_axpy(f, acc, c, d2.C.vectors[k])
            assert acc == vec


def _reference_frobenius_sums(ctx, z, w):
    """The Frobenius-sum loop of _verify_pair written out directly, with each
    product formed where it is used."""
    f = ctx.up.field
    up = ctx.up
    for x in range(up.dim):
        ex = {x: f.one}
        left = {}
        right = {}
        for zi, wi in zip(z, w):
            term = up.mul_sparse(ctx.down_in_up.apply(ctx.cond_exp.apply(up.mul_sparse(ex, zi))), wi)
            sparse_axpy(f, left, f.one, term)
            term = up.mul_sparse(zi, ctx.down_in_up.apply(ctx.cond_exp.apply(up.mul_sparse(wi, ex))))
            sparse_axpy(f, right, f.one, term)
        if left != ex or right != ex:
            return False, f"Frobenius sum fails at basis {x}"
    return True, ""


@pytest.mark.parametrize("drop", [0, 2])
def test_verify_pair_frobenius_reason_matches_reference(drop):
    # dropping one pair keeps membership and orthogonality, so only the
    # Frobenius sums can fail, at the first basis element the dense loop names
    ext, _ = generate_example("function-algebra", {"field": "f7", "group": "z3"})
    state = run_pipeline(ext).state
    t, d2 = state.tower, state.d2
    ctx = _LevelContext(up=t.M2, down=t.M1, cond_exp=t.E_M1, down_in_up=t.incl2, scope=d2.B)
    z, w = d2.uv
    z, w = z[:drop] + z[drop + 1:], w[:drop] + w[drop + 1:]
    got = _verify_pair(ctx, z, w)
    assert got[0] is False and got[1].startswith("Frobenius sum fails at basis")
    assert got == _reference_frobenius_sums(ctx, z, w)


# -- one-sided module generators ---------------------------------------------

CATALOG = (
    ("trivial", {}),
    ("quadratic-field", {}),
    ("group-pair", {"group": "s3", "subgroup": "a3"}),
    ("group-pair", {"group": "s3", "subgroup": "z2"}),
    ("group-pair", {"group": "z4", "subgroup": "z2"}),
    ("group-pair", {"group": "z2", "subgroup": "z1"}),
    ("function-algebra", {"group": "z2"}),
    ("function-algebra", {"group": "z3"}),
    ("function-algebra", {"group": "z4"}),
)
TOWERS = {
    **{
        f"{tag}/{example}" + (":" + "/".join(params.values()) if params else ""): (example, dict(params, field=field))
        for field, tag in (("rational", "q"), ("f7", "f7"))
        for example, params in CATALOG
    },
    "f2/m2f2": ("m2f2", {}),
    **{f"f7/model:{g}": ("model", {"group": g}) for g in ("z2", "z3", "z4")},
}


@functools.lru_cache(maxsize=None)
def _tower(case):
    """(tower, depth-2 data) of a catalog case along the pipeline, or of a
    model tower over F7 with its model centralizers."""
    example, params = TOWERS[case]
    if example == "model":
        t, d2, rep = model_tower(model_bundle(f"function-algebra:{params['group']}", PrimeField(7)))
        assert rep.ok, rep.failures
        return t, check_depth_two(t, d2)
    state = run_pipeline(generate_example(example, params)[0], upto="depth2").state
    return state.tower, state.d2


def _levels(case):
    t, d2 = _tower(case)
    return [(t.levels[0], d2.A, d2.level1), (t.levels[1], d2.B, d2.level2)]


def _on_basis(ctx):
    return replace(ctx, left_gens=None, right_gens=None)


@pytest.mark.parametrize("case", list(TOWERS))
def test_generator_path_agrees_with_full_basis(case):
    for level, scope, verdict in _levels(case):
        ctx = _level_context(level, scope)
        n0 = level.algebra.dim // level.below.dim
        assert len(ctx.left_gens) == len(ctx.right_gens) == n0
        full = _on_basis(ctx)
        assert _tensor_membership(ctx) == _tensor_membership(full) == verdict.tensor_solvable
        if verdict.passed:
            assert _verify_pair(ctx, verdict.z, verdict.w) == _verify_pair(full, verdict.z, verdict.w) == (True, "")


def _perturbed_witnesses(f, z, w):
    """Per pair i: the pair dropped, w_i scaled by 2, and one added to the
    lowest coordinate of w_i."""
    for i in range(len(z)):
        bumped_wi = dict(w[i])
        sparse_add(f, bumped_wi, min(w[i]), f.one)
        yield z[:i] + z[i + 1:], w[:i] + w[i + 1:]
        yield z, w[:i] + [sparse_scale(f, f.from_int(2), w[i])] + w[i + 1:]
        yield z, w[:i] + [bumped_wi] + w[i + 1:]


@pytest.mark.parametrize("case", ["q/group-pair:z4/z2", "f7/function-algebra:z3", "f7/model:z3"])
def test_generator_path_agrees_on_perturbed_witnesses(case):
    # every perturbation breaks a Frobenius sum; the generator check must see
    # it and list the same failures as the full loop, whose first failing
    # basis element _verify_pair names
    for level, scope, verdict in _levels(case):
        ctx = _level_context(level, scope)
        full = _on_basis(ctx)
        f = level.algebra.field
        count = 0
        for z, w in _perturbed_witnesses(f, verdict.z, verdict.w):
            got = _frobenius_sum_failures(ctx, z, w)
            assert 0 < len(got) <= WITNESS_FAILURES
            assert got == _frobenius_sum_failures(full, z, w)
            assert (False, f"Frobenius sum fails at basis {got[0][0]}") == _reference_frobenius_sums(full, z, w)
            assert _verify_pair(ctx, z, w) == _verify_pair(full, z, w)
            count += 1
        assert count == 3 * len(verdict.z)


@pytest.mark.parametrize("check", ["algebra-axioms", "condexp-bimodule", "inclusion-monomorphism"])
def test_failed_level_check_gives_basis_generators(tower_s3_a3, d2_s3_a3, check):
    level = tower_s3_a3.levels[1]
    assert len(_level_context(level, d2_s3_a3.B).left_gens) == 2
    ctx = _level_context(failed_level(level, check), d2_s3_a3.B)
    assert ctx.left_gens is None and ctx.right_gens is None


def test_context_without_generators_uses_the_basis(tower_s3_a3, d2_s3_a3):
    t = tower_s3_a3
    ctx = _LevelContext(up=t.M1, down=t.M, cond_exp=t.E_M, down_in_up=t.incl1, scope=d2_s3_a3.A)
    assert ctx.left_gens is None and ctx.right_gens is None
    # no generators: the tensor system is imposed at every basis element
    basis = [{x: Q.one} for x in range(t.M1.dim)]
    assert _tensor_membership(ctx) == _tensor_membership(replace(ctx, left_gens=basis, right_gens=basis))
    z, w = d2_s3_a3.level1.z, d2_s3_a3.level1.w
    assert _verify_pair(ctx, z, w) == (True, "")


def test_bimodule_failure_keeps_the_level_on_the_basis(tower_s3_a3, d2_s3_a3):
    """With E_M bumped, condexp-bimodule fails for real, and on the generators
    the tensor system would come out differently: the gate is what keeps the
    decision exact."""
    level = tower_s3_a3.levels[0]
    bad = bumped(level.cond_exp, 0, 0)
    n1 = SubspaceBasis(level.algebra, level.incl.columns)
    outcome = verify_conditional_expectation(ExtensionSpec(level.algebra, n1, E=bad), bad)
    assert not outcome.ok
    ctx = _level_context(replace(failed_level(level, "condexp-bimodule", outcome), cond_exp=bad), d2_s3_a3.A)
    assert ctx == _on_basis(ctx)
    honest = _level_context(level, d2_s3_a3.A)
    on_gens = replace(ctx, left_gens=honest.left_gens, right_gens=honest.right_gens)
    assert _tensor_membership(on_gens) != _tensor_membership(ctx)


def test_base_system_and_depth_two_share_the_dual_bases_equations(monkeypatch):
    """One builder forms the Frobenius-sum equations: solve_dual_bases over
    the basis of M, then each depth-2 level over the basis of its scope."""
    ext, _sidecar = generate_example("group-pair", {"group": "s3", "subgroup": "a3"})
    calls = []
    real = frobenius.dual_bases_equations

    def recording(up, e_m, factors, unknowns, elements):
        calls.append((up, factors))
        return real(up, e_m, factors, unknowns, elements)

    monkeypatch.setattr(frobenius, "dual_bases_equations", recording)
    monkeypatch.setattr(depth2, "dual_bases_equations", recording)
    state = run_pipeline(ext).state
    t, d2 = state.tower, state.d2
    assert d2.passed() and len(calls) == 3
    expected = [(t.M, [{i: Q.one} for i in range(t.M.dim)]), (t.M1, d2.A.vectors), (t.M2, d2.B.vectors)]
    for (up, factors), (alg, vectors) in zip(calls, expected):
        assert up is alg and factors == vectors


def _module_span_dim(level, side, gens):
    up = level.algebra
    vecs = [up.mul_sparse(d, g) if side == "left" else up.mul_sparse(g, d) for g in gens for d in level.incl.columns]
    return span_dim(up.field, vecs)


@pytest.mark.parametrize("case", ["f7/function-algebra:z4", "f2/m2f2", "f7/model:z4"])
def test_module_generators_span_with_n0_elements(case):
    t, _ = _tower(case)
    for level in t.levels:
        up = level.algebra
        n0 = up.dim // level.below.dim
        xs = [x for x, _ in level.sys.dual_pairs]
        ys = [y for _, y in level.sys.dual_pairs]
        for side, seeds in (("left", ys), ("right", xs)):
            gens = module_generators(up, level.incl, side, seeds)
            assert len(gens) == n0 < up.dim
            assert _module_span_dim(level, side, gens) == up.dim
            # one seed is completed from basis elements, short of the whole basis
            gens = module_generators(up, level.incl, side, seeds[:1])
            assert gens[0] == seeds[0] and n0 < len(gens) < up.dim
            assert _module_span_dim(level, side, gens) == up.dim
            gens = module_generators(up, level.incl, side)
            assert all(len(g) == 1 for g in gens) and _module_span_dim(level, side, gens) == up.dim


def test_module_generators_fall_back_to_the_basis(tower_s3_a3):
    # incl(1) = 0 is not the unit: no set of elements spans, so the basis is returned
    level = tower_s3_a3.levels[0]
    up = level.algebra
    zero = LinMap(Q, [{} for _ in level.incl.columns], up.dim)
    basis = [{x: Q.one} for x in range(up.dim)]
    for side in ("left", "right"):
        assert module_generators(up, zero, side) == basis


# -- the crosscheck on an exhausted witness search ------------------------------


def _first_scope_vector_only(ctx, count):
    """count copies of the first scope vector: after it, no candidate adds rank."""
    for _ in range(count):
        yield dict(ctx.scope.vectors[0])


def test_exhausted_free_basis_search_skips_the_crosscheck(monkeypatch):
    """On f7/function-algebra:z3 dim A = dim B = 9 > n0 = 3, so both levels
    search the 81 scope combinations for a free basis. When they run out
    while the tensor system is solvable, the search stopped: the crosscheck
    is SKIPped with its reason and the run exits 0."""
    monkeypatch.setattr(depth2, "_scope_combinations", _first_scope_vector_only)
    ext, _ = generate_example("function-algebra", {"field": "f7", "group": "z3"})
    report = run_pipeline(ext)
    by_id = {r.check_id: r for r in report.results}
    d2 = report.state.d2
    assert (d2.A.dim, d2.B.dim) == (9, 9)
    for verdict in (d2.level1, d2.level2):
        assert verdict.tensor_solvable and not verdict.passed and verdict.exhausted == 81
    assert by_id["depth2-level-2"].status == SKIP
    assert by_id["depth2-crosscheck"].status == SKIP
    assert by_id["depth2-crosscheck"].reason == "tensor system solvable, no free basis among 81 combinations"
    assert all(r.status != FAIL for r in report.results) and report.exit_code() == 0


def test_other_disagreement_still_fails_the_crosscheck(monkeypatch):
    """A free basis whose orthogonality system has no solution, while the
    tensor system is solvable, is a disagreement of the two paths, not a
    stopped search: FAIL and exit 1."""
    monkeypatch.setattr(depth2, "_dual_w", lambda ctx, z: None)
    ext, _ = generate_example("function-algebra", {"field": "f7", "group": "z3"})
    report = run_pipeline(ext)
    by_id = {r.check_id: r for r in report.results}
    assert report.state.d2.level1.exhausted is None
    assert by_id["depth2-crosscheck"].status == FAIL and report.exit_code() == 1


# -- the failing branches of c-structure, cond-exp-ea-eb and nakayama-relations


@functools.lru_cache(maxsize=None)
def _model_z3_run():
    """Tower and depth-2 data of the f7/model:z3 pipeline run, where every
    depth-2 check passes."""
    ext, _ = generate_example("function-algebra", {"group": "z3", "field": "f7"})
    _t, d2, _rep = model_tower(model_bundle("function-algebra:z3", ext.M.field))
    report = run_pipeline(ext, d2_override=DepthTwoData(A=d2.A, B=d2.B, C=d2.C, source="model"))
    assert report.exit_code() == 0
    return report.state.tower, report.state.d2


def test_c_structure_fails_on_rotated_matrix_units():
    """u rotated by one: the units u_i e1 v_j still lie in C, but fail
    xi_ij xi_kl = delta_jk xi_il at the corners, so the n^4 scan lists its
    first WITNESS_FAILURES failures; the units no longer sum to 1."""
    t, d2 = _model_z3_run()
    u, v = d2.uv
    out = verify_c_structure(t, replace(d2, uv=(u[1:] + u[:1], v)))
    tuples = [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 2), (0, 0, 2, 0)]
    assert len(tuples) == WITNESS_FAILURES
    assert out == CheckOutcome(False, [{"kind": "matrix-unit-relations", "tuple": x} for x in tuples]
                               + [{"kind": "matrix-units-do-not-sum-to-1"}])
    rep = Reporter()
    assert rep.outcome("c-structure", out).witness == {"failures": out.failures[:WITNESS_FAILURES]}


def test_cond_exp_fails_on_a_doubled_f():
    """F doubled doubles E_B(c) = sum_j F(c u_j) v_j: it is not the identity
    on B, breaks E_B(b e1 b') = lam b b' for each b and E_B(e1) = lam 1, and
    F o E_B != F; E_A and its laws do not read F."""
    t, d2 = _model_z3_run()
    f = t.M.field
    doubled = LinMap(f, [sparse_scale(f, f.from_int(2), c) for c in t.F.columns], t.F.codomain_dim)
    _E_A, _E_B, out = conditional_expectations(replace(t, F=doubled), d2)
    assert out == CheckOutcome(False, [{"kind": "E_B-not-identity-on-B"}] + [{"kind": "E_B(be1b')-identity"}] * 3
                               + [{"kind": "E_B(e1) != lam 1"}, {"kind": "F-o-E_B != F", "basis": 0}])


@pytest.mark.parametrize("on_generators", [True, False])
@pytest.mark.parametrize("column, failures", [
    (0, [{"kind": "q-on-C-failed", "detail": [{"kind": "non-unique"}]}]),
    (1, [{"kind": "q|_A != q_A", "basis": 1}, {"kind": "q|_B != q_B", "basis": 0}, {"kind": "q-tilde-failed"},
         {"kind": "commuting-square", "basis": 0}, {"kind": "q(e1) != e1"}, {"kind": "q(e2) != e2"}]),
])
def test_nakayama_relations_fail_on_a_moved_f(on_generators, column, failures):
    """F(e_column) moved by 1 in M leaves F scalar-valued on C, but its
    Nakayama map q on C is no longer unique (column 0), or no longer
    restricts to q_A and q_B, commutes with E_M1 or fixes e1 and e2."""
    t, d2 = _model_z3_run()
    f = t.M.field
    cols = [dict(c) for c in t.F.columns]
    sparse_axpy(f, cols[column], f.one, t.M.unit)
    moved = replace(t, F=LinMap(f, cols, t.F.codomain_dim))
    assert f_scalar_on_c(moved, d2)
    assert nakayama_relations(moved, d2, on_generators).report == CheckOutcome(False, failures)
