"""The "for every n in N" identities of the tower decided on generators of N.

TensorQuotient's balanced relations, centralizer constraints and
check_morphism's multiplicativity each hold for a subalgebra's worth of
elements once they hold on its generators and the ambient algebras are
associative (the docstrings give the one-line proofs). These tests pin, on
every catalog example over Q and F7, that the generator path gives the same
quotient, the same canonical centralizer bases and the same failure lists as
the basis loop, and that once a check failed every later site runs the basis
loop.
"""
import functools
from dataclasses import replace

import pytest
from conftest import bumped, check_passed, non_associative, with_failed_check, word_span_dim

from hopftower import algebra, depth2, frobenius, tower
from hopftower.algebra import (
    LinMap,
    SubspaceBasis,
    TensorQuotient,
    centralizer,
    check_morphism,
    generators,
)
from hopftower.depth2 import second_centralizers
from hopftower.frobenius import CheckOutcome
from hopftower.models import generate_example
from hopftower.pipeline import run_pipeline

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
CASES = {
    f"{tag}/{example}" + (":" + "/".join(params.values()) if params else ""): (example, dict(params, field=field))
    for field, tag in (("rational", "q"), ("f7", "f7"))
    for example, params in CATALOG
}


@functools.lru_cache(maxsize=None)
def _state(case_id: str):
    """The pipeline state of one catalog case: its extension, tower and centralizers."""
    example, params = CASES[case_id]
    ext, _sidecar = generate_example(example, params)
    state = run_pipeline(ext).state
    assert state.tower is not None and state.d2 is not None
    return state


def _same_quotient(a: TensorQuotient, b: TensorQuotient) -> bool:
    return a._relations.pivots == b._relations.pivots and a.basis == b.basis


@pytest.mark.parametrize("case_id", list(CASES))
def test_tensor_quotient_same_on_generators(case_id):
    state = _state(case_id)
    t, ext = state.tower, state.ext
    n_gens = generators(ext.n_algebra)
    assert len(n_gens) < ext.N.dim
    n_in_m = [ext.embed.apply(g) for g in n_gens]
    for factors in (2, 3):
        on_basis = TensorQuotient(ext.M, ext.N, factors)
        assert _same_quotient(TensorQuotient(ext.M, ext.N, factors, n_generators=n_in_m), on_basis)
    # the quotient M1 (x)_M M1 that built M2, on incl(S_M), against the basis of incl(M)
    level1 = t.levels[0]
    on_basis = TensorQuotient(t.M1, level1.sys.ext.N)
    assert _same_quotient(level1.sys.tq, on_basis)
    assert _same_quotient(TensorQuotient(t.M1, level1.sys.ext.N, n_generators=level1.incl_generators), on_basis)


@pytest.mark.parametrize("case_id", list(CASES))
def test_centralizers_same_on_generators(case_id):
    state = _state(case_id)
    t, d2 = state.tower, state.d2
    n_in_m1 = t.incl1.compose(t.base_sys.ext.embed)
    m_in_m2 = t.incl2.compose(t.incl1)
    n_in_m2 = t.incl2.compose(n_in_m1)
    sites = [
        (t.M1, n_in_m1, [n_in_m1.apply(g) for g in t.n_generators], d2.A),
        (t.M2, m_in_m2, [t.incl2.apply(g) for g in t.levels[0].incl_generators], d2.B),
        (t.M2, n_in_m2, [n_in_m2.apply(g) for g in t.n_generators], d2.C),
    ]
    for ambient, into, gens, from_pipeline in sites:
        sub = SubspaceBasis(ambient, into.columns)
        assert len(gens) < sub.dim
        on_basis = centralizer(ambient, sub)
        assert centralizer(ambient, sub, sub_generators=gens).vectors == on_basis.vectors
        assert from_pipeline.vectors == on_basis.vectors


@pytest.mark.parametrize("case_id", list(CASES))
def test_level_generators_generate_their_level(case_id):
    """Each level keeps the set its associativity check ran on, formed by
    generators() from incl(S) and e, so its words span the level; the level-2
    inclusion check takes level 1's set as generators of M1."""
    for level in _state(case_id).tower.levels:
        assert level.generators == generators(level.algebra, level.incl_generators + [level.e])
        assert word_span_dim(level.algebra, level.generators) == level.algebra.dim


@pytest.mark.parametrize("case_id", list(CASES))
def test_check_morphism_same_failures_on_generators(case_id):
    """Each inclusion, perturbed in the column of every basis element and in
    rows spread over the codomain, gets the same report, failure list
    included, on generators of its domain as from the scan over basis pairs."""
    t = _state(case_id).tower
    m_gens = generators(t.M)
    assert [t.incl1.apply(g) for g in m_gens] == t.levels[0].incl_generators
    inclusions = [(t.incl1, t.M, t.M1, m_gens), (t.incl2, t.M1, t.M2, t.levels[0].generators)]
    rejected_with_unit = 0
    for f_map, A, B, gens in inclusions:
        assert check_morphism(f_map, A, B, domain_generators=gens) == check_morphism(f_map, A, B)
        assert not check_morphism(f_map, A, B).failures
        for col in range(A.dim):
            for row in sorted({0, B.dim // 2, B.dim - 1, (7 * col + 3) % B.dim}):
                bad = bumped(f_map, row, col)
                on_gens = check_morphism(bad, A, B, domain_generators=gens)
                assert on_gens == check_morphism(bad, A, B), (col, row)
                rejected_with_unit += on_gens.failures[:1] != [] and on_gens.failures[0]["kind"] == "mult"
    if t.M.dim > 1:
        assert rejected_with_unit > 0


# ---------------------------------------------------------------------------
# the gates
# ---------------------------------------------------------------------------


@pytest.fixture
def sites(monkeypatch):
    """Record every call of the generator sites: (site, ambient dim, the
    generators passed or None, the result), and which subspaces had their
    closure checked by is_unital_subalgebra."""
    calls = []
    closure_checked = []
    real_centralizer, real_morphism = algebra.centralizer, algebra.check_morphism
    real_tq, real_closure = TensorQuotient.__init__, SubspaceBasis.is_unital_subalgebra
    real_condexp = frobenius.verify_conditional_expectation

    def rec_centralizer(alg, sub, require_subalgebra=True, sub_generators=None):
        out = real_centralizer(alg, sub, require_subalgebra, sub_generators)
        calls.append(("centralizer", alg.dim, sub_generators, out))
        return out

    def rec_morphism(f_map, A, B, domain_generators=None):
        out = real_morphism(f_map, A, B, domain_generators)
        calls.append(("check_morphism", A, domain_generators, (f_map, B, out)))
        return out

    def rec_condexp(ext, E, n_generators=None, module_generators=None):
        # the tower decides a level's bimodule law on its module generators only
        assert n_generators is None
        out = real_condexp(ext, E, n_generators, module_generators)
        calls.append(("condexp", ext.M.dim, module_generators, out))
        return out

    def rec_tq(self, M, N, factors=2, n_generators=None):
        real_tq(self, M, N, factors, n_generators)
        calls.append((f"tensor-{factors}", M.dim, n_generators, self))

    def rec_closure(self):
        closure_checked.append(self)
        return real_closure(self)

    for module in (depth2, frobenius):
        monkeypatch.setattr(module, "centralizer", rec_centralizer)
    monkeypatch.setattr(tower, "check_morphism", rec_morphism)
    monkeypatch.setattr(tower, "verify_conditional_expectation", rec_condexp)
    monkeypatch.setattr(TensorQuotient, "__init__", rec_tq)
    monkeypatch.setattr(SubspaceBasis, "is_unital_subalgebra", rec_closure)
    return calls, closure_checked


def _second_centralizer_calls(calls):
    # classify's C_M(N) comes first and always runs on the basis
    found = [c for c in calls if c[0] == "centralizer"]
    assert len(found) == 4
    return found[1:]


@pytest.mark.parametrize("case_id", ["q/group-pair:s3/z2", "f7/function-algebra:z4"])
def test_honest_pipeline_takes_every_generator_path(sites, case_id):
    calls, _closure = sites
    example, params = CASES[case_id]
    ext, _sidecar = generate_example(example, params)
    state = run_pipeline(ext).state
    t = state.tower
    tensors = [c for c in calls if c[0].startswith("tensor-")]
    # solve_dual_bases' quotient M (x)_N M, then M1 (x)_M M1 and the triple quotient
    assert [(c[0], c[2] is None) for c in tensors] == [("tensor-2", True), ("tensor-2", False), ("tensor-3", False)]
    assert all(gens is not None for _, _, gens, _ in _second_centralizer_calls(calls))
    morphisms = [c for c in calls if c[0] == "check_morphism"]
    assert [c[1] for c in morphisms[:2]] == [t.M, t.M1]
    assert morphisms[1][2] is t.levels[0].generators
    # each level's bimodule check runs on the module generators the level keeps
    assert [c[2] for c in calls if c[0] == "condexp"] == [level.module_generators() for level in t.levels]
    assert all(level.module_generators() is not None for level in t.levels)
    assert all(word_span_dim(A, gens) == A.dim for _, A, gens, _ in morphisms[:2])
    # each level's extension over the level below is built from the verified inclusion
    for level in t.levels:
        assert level.sys.ext.n_algebra is level.below and level.sys.ext.embed is level.incl


@pytest.mark.parametrize("field", ["rational", "f7"])
@pytest.mark.parametrize(
    "example, params, bump",
    [("group-pair", {"group": "z4", "subgroup": "z2"}, (1, 1, 1)),
     ("group-pair", {"group": "s3", "subgroup": "z2"}, (2, 3, 1))],
    ids=["z4/z2", "s3/z2"],
)
def test_non_associative_m_keeps_every_site_on_the_basis(sites, example, params, bump, field):
    calls, closure_checked = sites
    ext = non_associative(example, dict(params, field=field), bump)
    report = run_pipeline(ext)
    status = {r.check_id: r.status for r in report.results}
    assert status["algebra-axioms"] == "fail" and status["second-centralizers"] == "pass"
    t = report.state.tower
    level1 = t.levels[0]
    assert not check_passed(level1, "inclusion-monomorphism")
    assert not level1.verified and not t.levels[1].verified
    # every quotient takes its relations on the basis of N or of incl(M)
    assert [c[2] for c in calls if c[0].startswith("tensor-")] == [None, None, None]
    # every centralizer runs its constraints on the basis and asserts closure
    for _, _, gens, out in _second_centralizer_calls(calls):
        assert gens is None
        assert any(checked is out for checked in closure_checked)
    # both inclusions and both bimodule checks run the full scan
    morphisms = [c for c in calls if c[0] == "check_morphism"]
    assert [(c[1], c[2]) for c in morphisms[:2]] == [(ext.M, None), (t.M1, None)]
    _, A, gens, (f_map, B, out) = morphisms[1]
    assert out == algebra.check_morphism(f_map, t.M1, B)
    assert [c[2] for c in calls if c[0] == "condexp"] == [None, None]
    # the extension M1 / M is rebuilt from the subspace incl(M)
    assert level1.sys.ext.n_algebra is not ext.M


@pytest.mark.parametrize("check", ["algebra-axioms", "inclusion-monomorphism"])
@pytest.mark.parametrize("level", [0, 1])
def test_failed_level_check_keeps_centralizers_on_the_basis(sites, tower_s3_a3, ext_s3_a3, level, check):
    calls, closure_checked = sites
    t = replace(with_failed_check(tower_s3_a3, level, check), n_generators=generators(ext_s3_a3.n_algebra))
    A, B, C = second_centralizers(t)
    on_gens = [gens is not None for _, _, gens, _ in calls]
    # A is in M1 and runs on generators while level 1 is verified; B and C are
    # in M2 and need level 2
    assert on_gens == [level > 0, False, False]
    for (_, _, gens, out), want in zip(calls, (A, B, C)):
        assert out is want
        if gens is None:
            assert any(checked is out for checked in closure_checked)
    honest = second_centralizers(replace(tower_s3_a3, n_generators=t.n_generators))
    assert [x.vectors for x in (A, B, C)] == [x.vectors for x in honest]


def test_failed_m1_axioms_keep_level_two_on_the_basis(sites, monkeypatch):
    """With level 1's algebra-axioms reported failed, every site after it
    runs on the basis: both inclusion checks, both bimodule checks, the
    level-2 quotient, the triple quotient and all three centralizers."""
    calls, _closure = sites
    real_check = tower.verify_algebra
    checked = []

    def failing_m1(alg, seeds=()):
        outcome, gens = real_check(alg, seeds)
        checked.append(alg)
        if len(checked) == 1:  # M1, the first algebra basic_construction checks
            outcome = CheckOutcome(False, [{"kind": "failed"}])
        return outcome, gens

    monkeypatch.setattr(tower, "verify_algebra", failing_m1)
    example, params = CASES["q/group-pair:s3/z2"]
    ext, _sidecar = generate_example(example, params)
    t = run_pipeline(ext).state.tower
    assert checked[0] is t.M1 and not check_passed(t.levels[0], "algebra-axioms")
    assert [c[2] is None for c in calls if c[0].startswith("tensor-")] == [True, True, True]
    morphisms = [c for c in calls if c[0] == "check_morphism"]
    assert [(c[1], c[2]) for c in morphisms[:2]] == [(t.M, None), (t.M1, None)]
    for _, A, _gens, (f_map, B, out) in morphisms[:2]:
        assert not out.failures and out == algebra.check_morphism(f_map, A, B)
    assert [c[2] for c in calls if c[0] == "condexp"] == [None, None]
    assert [gens is None for _, _, gens, _ in _second_centralizer_calls(calls)] == [True, True, True]
