"""The module and bimodule laws of the tower, depth-2, Hopf and Galois stages
decided on generators.

Pimsner-Popa, the bimodule law of each level's E and its Frobenius identities
run on the module generators of each tower level, End(M_N) ~ M1 on level 1's
generators, the E_B and E_A bimodule laws on generators of B and A, the
Nakayama automorphisms on generators of C, A and B, the matrix units of C on
their corners, the exchange relation on level 1's right-module generators,
both action identities of the Hopf stage and the module-algebra laws of the
Galois stage on 1 and generators of the acted-on algebra. Each shortcut holds
for a submodule's or a subalgebra's worth of elements once it holds on
generators (the docstrings give the one-line proofs). These tests pin, on the
model towers z2, z3 and z4 over F7 and on the catalog (the tower sites over
every catalog case over Q), that each site reports what its basis scan
reports, on the honest input and on perturbed ones, and that once a check
failed every later site runs its basis scan.
"""
import functools
import importlib
import pkgutil
import sys
from collections import Counter
from dataclasses import replace

import pytest
from conftest import bumped, with_failed_check, word_span_dim

import hopftower
from hopftower import algebra, depth2, frobenius, galois, hopf, pipeline, tower
from hopftower.algebra import Algebra, SubspaceBasis, generators
from hopftower.depth2 import (
    DepthTwoData,
    _bimodule_failures,
    _subalgebra_generators,
    check_depth_two,
    conditional_expectations,
    nakayama_relations,
    verify_c_structure,
)
from hopftower.frobenius import (
    CheckOutcome,
    _automorphism_failures,
    nakayama,
    nakayama_of_functional,
    scalar_of,
    verify_conditional_expectation,
    verify_frobenius_identities,
)
from hopftower.fields import RationalField
from hopftower.galois import ModuleAlgebraAction, action_a_on_m, action_b_on_m1, verify_module_algebra
from hopftower.hopf import _tower_axioms, sandwich_maps
from hopftower.linalg import LinMap, sparse_add
from hopftower.models import generate_example, model_bundle, model_tower
from hopftower.pipeline import run_pipeline
from hopftower.tower import build_tower, verify_pimsner_popa

CASES = ["f7/model:z2", "f7/model:z3", "f7/model:z4", "q/trivial"]


def _run(case: str):
    """The pipeline report of a case: a model tower with its model centralizers, or trivial over Q."""
    if case == "q/trivial":
        return run_pipeline(generate_example("trivial", {})[0])
    group = case.split(":")[1]
    ext, _sidecar = generate_example("function-algebra", {"group": group, "field": "f7"})
    _t, d2, rep = model_tower(model_bundle(f"function-algebra:{group}", ext.M.field))
    assert rep.ok, rep.failures
    return run_pipeline(ext, d2_override=DepthTwoData(A=d2.A, B=d2.B, C=d2.C, source="model"))


@functools.lru_cache(maxsize=None)
def _state(case: str):
    state = _run(case).state
    assert state.H_B is not None and state.H_A is not None
    return state


def _spread(dim: int, k: int) -> list:
    """A few row indices spread over range(dim)."""
    return sorted({0, dim // 2, dim - 1, (7 * k + 3) % dim})


def _without_module_generators(t):
    """The tower with level 1's condexp-bimodule reported failed, so that
    neither level is verified and neither has module generators."""
    return with_failed_check(t, 0, "condexp-bimodule")


# ---------------------------------------------------------------------------
# Pimsner-Popa on the module generators of each level
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", CASES)
def test_pimsner_popa_same_on_module_generators(case):
    t = _state(case).tower
    on_basis = _without_module_generators(t)
    assert all(level.module_generators() is not None for level in t.levels)
    assert all(level.module_generators() is None for level in on_basis.levels)
    assert verify_pimsner_popa(t) == verify_pimsner_popa(on_basis) == CheckOutcome(True, [])
    # the identities hold for any e once E is a bimodule map: a bumped e of
    # either level gets the scan's failure list
    rejected = 0
    for k, level in enumerate(t.levels):
        f = level.algebra.field
        for row in _spread(level.algebra.dim, k):
            e = dict(level.e)
            sparse_add(f, e, row, f.one)
            levels = list(t.levels)
            levels[k] = replace(level, e=e)
            bad = replace(t, levels=levels)
            got = verify_pimsner_popa(bad)
            assert got == verify_pimsner_popa(_without_module_generators(bad)), (k, row)
            rejected += not got.ok
    assert rejected > 0


@pytest.mark.parametrize("emptied", [0, 1], ids=["left", "right"])
def test_pimsner_popa_checks_each_identity_on_its_own_side(emptied):
    """The left identity runs on the right-module generators and the right
    identity on the left-module ones: with one set emptied, a bumped e is
    still caught on the other and the basis loop reports it."""
    t = _state("f7/model:z3").tower
    level = t.levels[0]
    f = level.algebra.field
    e = dict(level.e)
    sparse_add(f, e, 0, f.one)
    gens = list(level.module_generators())
    gens[emptied] = []
    bad = replace(t, levels=[replace(level, e=e, _module_generators=tuple(gens)), t.levels[1]])
    on_basis = verify_pimsner_popa(_without_module_generators(bad))
    assert not on_basis.ok and verify_pimsner_popa(bad) == on_basis


@pytest.mark.parametrize("check", ["algebra-axioms", "condexp-bimodule", "inclusion-monomorphism"])
def test_pimsner_popa_failed_gate_runs_the_basis_loop(check):
    """A failed check of a level takes the module generators of that level
    and of every level above it; the levels below keep theirs."""
    t = _state("f7/model:z3").tower
    for k in (0, 1):
        broken = with_failed_check(t, k, check)
        assert [level.module_generators() is None for level in broken.levels] == [n >= k for n in (0, 1)]
        assert verify_pimsner_popa(broken) == verify_pimsner_popa(t)


def test_depth_two_reuses_the_level_module_generators():
    state = _state("f7/model:z4")
    for level, scope in zip(state.tower.levels, (state.d2.A, state.d2.B)):
        ctx = depth2._level_context(level, scope)
        assert (ctx.left_gens, ctx.right_gens) == level.module_generators()
        assert ctx.left_gens is level.module_generators()[0]


# ---------------------------------------------------------------------------
# the E_B and E_A bimodule laws on generators of B and A
# ---------------------------------------------------------------------------


@pytest.fixture
def bimodule_sites(monkeypatch):
    """Record the label and the generators passed to each bimodule check."""
    calls = []
    real = depth2._bimodule_failures

    def recording(C, E, below, sub, into_m2, label, gens=None):
        out = real(C, E, below, sub, into_m2, label, gens)
        calls.append((label, gens, out))
        return out

    monkeypatch.setattr(depth2, "_bimodule_failures", recording)
    return calls


@pytest.mark.parametrize("case", CASES)
def test_bimodule_laws_same_on_generators(case):
    state = _state(case)
    t, d2 = state.tower, state.d2
    E_A, E_B, out = conditional_expectations(t, d2)
    assert out.ok
    assert conditional_expectations(with_failed_check(t, 1, "algebra-axioms"), d2)[2] == out
    sites = [(E_B, t.M2, d2.B, lambda b: b, "B"), (E_A, t.M1, d2.A, t.incl2.apply, "A")]
    rejected = 0
    for E, below, sub, into_m2, label in sites:
        gens = _subalgebra_generators(sub)
        assert gens is not None
        assert _bimodule_failures(d2.C, E, below, sub.vectors, into_m2, label, gens) == []
        # any E: C -> below gets the scan's failure list, one column bumped
        for col in range(d2.C.dim):
            for row in _spread(below.dim, col):
                bad = bumped(E, row, col)
                got = _bimodule_failures(d2.C, bad, below, sub.vectors, into_m2, label, gens)
                assert got == _bimodule_failures(d2.C, bad, below, sub.vectors, into_m2, label), (label, col, row)
                rejected += bool(got)
    if t.M2.dim > 1:
        assert rejected > 0


@pytest.mark.parametrize(
    "level, check, on_generators",
    [(None, None, ["B", "A"]),
     (0, "algebra-axioms", []),
     (1, "algebra-axioms", []),
     (1, "inclusion-monomorphism", [])],
    ids=["honest", "m1-axioms", "m2-axioms", "incl2"],
)
def test_bimodule_gates(bimodule_sites, level, check, on_generators):
    state = _state("f7/model:z3")
    t = state.tower if level is None else with_failed_check(state.tower, level, check)
    _E_A, _E_B, out = conditional_expectations(t, state.d2)
    assert out.ok
    assert [label for label, gens, _ in bimodule_sites if gens is not None] == on_generators
    assert [label for label, _, _ in bimodule_sites] == ["B", "A"]


def test_subalgebra_generators_need_a_unital_subalgebra():
    d2 = _state("f7/model:z3").d2
    gens = _subalgebra_generators(d2.B)
    assert gens is not None and all(d2.B.contains(g) for g in gens)
    assert _subalgebra_generators(SubspaceBasis(d2.C.ambient, d2.C.vectors[1:2])) is None


# ---------------------------------------------------------------------------
# both action identities of the Hopf stage on generators of M1
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", CASES)
def test_action_identities_same_on_generators(case):
    state = _state(case)
    t, d2, H_B = state.tower, state.d2, state.H_B
    y_gens = [t.M1.unit] + t.levels[0].generators
    assert _tower_axioms(H_B, t, d2, state.sandwiches, y_gens) == _tower_axioms(H_B, t, d2, state.sandwiches) == []
    # any sandwich maps get the scan's failure list, one entry bumped
    left, right = state.sandwiches
    rejected = 0
    for side in (0, 1):
        for j, m in enumerate((left, right)[side]):
            for row in _spread(m.codomain_dim, j):
                maps = [bumped(x, row, (7 * j) % m.domain_dim) if n == j else x for n, x in enumerate((left, right)[side])]
                sandwiches = (maps, right) if side == 0 else (left, maps)
                got = _tower_axioms(H_B, t, d2, sandwiches, y_gens)
                assert got == _tower_axioms(H_B, t, d2, sandwiches), (side, j, row)
                rejected += any("action-identity" in x["kind"] for x in got)
    assert rejected > 0


@pytest.fixture
def tower_axiom_sites(monkeypatch):
    calls = []
    real = hopf._tower_axioms

    def recording(H, t, d2, sandwiches, y_generators=None, x_generators=None):
        calls.append(y_generators)
        return real(H, t, d2, sandwiches, y_generators, x_generators)

    monkeypatch.setattr(hopf, "_tower_axioms", recording)
    return calls


def test_action_identity_gates(tower_axiom_sites):
    state = _state("f7/model:z3")
    t, d2, H_B = state.tower, state.d2, state.H_B
    ctx = (t, d2, state.sandwiches)
    honest = hopf.verify_hopf_axioms(H_B, tower_ctx=ctx)
    assert honest.ok and tower_axiom_sites[-1] == [t.M1.unit] + t.levels[0].generators
    for level, check in ((0, "algebra-axioms"), (1, "algebra-axioms"), (1, "inclusion-monomorphism")):
        out = hopf.verify_hopf_axioms(H_B, tower_ctx=(with_failed_check(t, level, check),) + ctx[1:])
        assert out == honest and tower_axiom_sites[-1] is None
    # a failure found before, here a coproduct that is not coassociative
    bad = replace(H_B, delta=bumped(H_B.delta, 0, 1))
    out = hopf.verify_hopf_axioms(bad, tower_ctx=ctx)
    assert not out.ok and tower_axiom_sites[-1] is None


def test_hopf_axioms_stop_at_the_failures_a_report_shows(tower_axiom_sites):
    """With eps(b_1) raised by one, the counit laws, eps(1) = 1 and the first
    eps-multiplicative pair fail: the four failures a report shows, returned
    without the later loops and without the tower identities."""
    state = _state("f7/model:z3")
    t, d2, H_B = state.tower, state.d2, state.H_B
    bad = replace(H_B, counit=bumped(H_B.counit, 0, 1))
    calls = len(tower_axiom_sites)
    out = hopf.verify_hopf_axioms(bad, tower_ctx=(t, d2, state.sandwiches))
    assert [x["kind"] for x in out.failures] == ["counit-left", "counit-right", "eps-unital", "eps-multiplicative"]
    assert len(tower_axiom_sites) == calls


# ---------------------------------------------------------------------------
# the module-algebra laws of the Galois stage on generators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", CASES)
def test_module_algebra_law_same_on_generators(case):
    state = _state(case)
    t, d2 = state.tower, state.d2
    act_b, out_b = action_b_on_m1(t, d2, state.H_B, state.sandwiches, t.levels[0].generators)
    m_gens = generators(t.M)
    act_a, out_a = action_a_on_m(t, d2, state.H_A, m_gens)
    assert out_b.ok and out_a.ok
    rejected = 0
    for act, gens in ((act_b, t.levels[0].generators), (act_a, m_gens)):
        assert verify_module_algebra(act, x_generators=gens) == verify_module_algebra(act) == CheckOutcome(True, [])
        # any action maps get the scan's failure list, one entry bumped
        X = act.algebra
        for i in range(len(act.maps)):
            for row in _spread(X.dim, i):
                maps = [bumped(m, row, (3 * i + row) % X.dim) if n == i else m for n, m in enumerate(act.maps)]
                bad = ModuleAlgebraAction(act.hopf, X, maps)
                got = verify_module_algebra(bad, gens)
                assert got == verify_module_algebra(bad), (i, row)
                rejected += any(x["kind"] == "module-algebra-law" for x in got.failures)
    assert rejected > 0


@pytest.fixture
def module_law_sites(monkeypatch):
    calls = []
    real = galois.verify_module_algebra

    def recording(act, x_generators=None):
        calls.append((act.algebra, x_generators))
        return real(act, x_generators)

    monkeypatch.setattr(galois, "verify_module_algebra", recording)
    return calls


def test_module_algebra_gates(module_law_sites, monkeypatch):
    report = _run("f7/model:z3")
    t = report.state.tower
    assert [(X, gens) for X, gens in module_law_sites] == [(t.M1, t.levels[0].generators), (t.M, generators(t.M))]
    # with hopf-axioms reported failed, both actions run the basis scan
    real = pipeline.verify_hopf_axioms

    def failing(*args, **kwargs):
        return CheckOutcome(False, real(*args, **kwargs).failures + [{"kind": "failed"}])

    monkeypatch.setattr(pipeline, "verify_hopf_axioms", failing)
    module_law_sites.clear()
    failed = _run("f7/model:z3")
    assert [gens is None for _, gens in module_law_sites] == [True, True]
    statuses = {r.check_id: r.status for r in failed.results}
    assert statuses["hopf-axioms"] == "fail" and statuses["action-b-on-m1"] == "pass"


# ---------------------------------------------------------------------------
# the induced algebra of a subspace, built once
# ---------------------------------------------------------------------------


def test_induced_algebra_is_built_once():
    d2 = _state("f7/model:z3").d2
    for sub in (d2.A, d2.B, d2.C):
        first = sub.induced_algebra()
        assert sub.induced_algebra() is first
        fresh = SubspaceBasis(sub.ambient, sub.vectors).induced_algebra()
        assert first[0].table == fresh[0].table and first[0].unit == fresh[0].unit
        assert first[1] == fresh[1]


# ---------------------------------------------------------------------------
# the tower-level sites: condexp-bimodule, level-frobenius-identities and
# endo-ring-iso on the module generators and generators of each level
# ---------------------------------------------------------------------------

CATALOG_Q = ["q/trivial", "q/quadratic-field", "q/group-pair:s3/a3", "q/group-pair:s3/z2", "q/group-pair:z4/z2",
             "q/group-pair:z2/z1", "q/function-algebra:z2", "q/function-algebra:z3", "q/function-algebra:z4"]
TOWER_CASES = CASES[:3] + CATALOG_Q


@functools.lru_cache(maxsize=None)
def _tower(case: str):
    """The tower of a model case, or of a catalog case over Q."""
    if case.startswith("f7/model:"):
        return _state(case).tower
    example, _, rest = case[2:].partition(":")
    params = dict(zip(("group", "subgroup"), rest.split("/"))) if rest else {}
    t = run_pipeline(generate_example(example, dict(params, field="rational"))[0], upto="tower").state.tower
    assert all(level.verified for level in t.levels)
    return t


@pytest.mark.parametrize("case", TOWER_CASES)
def test_level_laws_same_on_module_generators(case):
    """Each level's bimodule law of E and its Frobenius identities give the
    scan's outcome on the level's module generators, on the honest level, on
    a bumped E column and on a bumped element of one dual-basis pair."""
    t = _tower(case)
    rejected_e = rejected_pairs = 0
    for k, level in enumerate(t.levels):
        gens = level.module_generators()
        sys, E, f = level.sys, level.cond_exp, level.algebra.field
        ext = sys.ext
        assert gens is not None
        assert (verify_conditional_expectation(ext, E, module_generators=gens) == verify_conditional_expectation(ext, E)
                == CheckOutcome(True, []))
        assert verify_frobenius_identities(sys, gens) == verify_frobenius_identities(sys) == CheckOutcome(True, [])
        for col in _spread(E.domain_dim, k):
            for row in _spread(E.codomain_dim, col):
                bad = bumped(E, row, col)
                got = verify_conditional_expectation(ext, bad, module_generators=gens)
                assert got == verify_conditional_expectation(ext, bad), (k, col, row)
                rejected_e += not got.ok
        for i in _spread(len(sys.dual_pairs), k):
            for side in (0, 1):
                for row in _spread(level.algebra.dim, i + side):
                    pair = list(sys.dual_pairs[i])
                    pair[side] = dict(pair[side])
                    sparse_add(f, pair[side], row, f.one)
                    bad_sys = replace(sys, dual_pairs=[tuple(pair) if n == i else p for n, p in enumerate(sys.dual_pairs)])
                    got = verify_frobenius_identities(bad_sys, gens)
                    assert got == verify_frobenius_identities(bad_sys), (k, i, side, row)
                    rejected_pairs += not got.ok
    assert rejected_e > 0 and rejected_pairs > 0


@pytest.fixture
def endo_tables(monkeypatch):
    """Record each check_morphism call endo_ring_iso makes: the scan that
    forms End(M_N)'s multiplication table."""
    calls = []
    real = tower.check_morphism

    def recording(f_map, A, B, domain_generators=None):
        calls.append(A)
        return real(f_map, A, B, domain_generators)

    monkeypatch.setattr(tower, "check_morphism", recording)
    return calls


@pytest.mark.parametrize("case", TOWER_CASES)
def test_endo_ring_iso_same_on_generators(case, endo_tables, monkeypatch):
    """psi(1) = id and psi multiplicative on level 1's generators decide
    End(M_N) ~ M1 without End's multiplication table; an unverified level
    and a bumped psi map run the scan over basis pairs with its outcome."""
    t = _tower(case)
    endo_tables.clear()  # the inclusion checks, when the tower is built here
    sys, level = t.base_sys, t.levels[0]
    honest = tower.endo_ring_iso(sys, level)
    assert honest.ok and endo_tables == []
    assert tower.endo_ring_iso(sys, replace(level, verified=False)) == honest and len(endo_tables) == 1
    # M1 with its opposite product, still associative: phi and psi stay mutually
    # inverse, and psi is multiplicative exactly when M1 is commutative
    alg = level.algebra
    op = replace(level, algebra=Algebra.from_entries(alg.field, alg.dim, [(j, i, k, c) for i, j, k, c in alg.entries()],
                                                     alg.unit))
    got = tower.endo_ring_iso(sys, op)
    assert got == tower.endo_ring_iso(sys, replace(op, verified=False))
    assert got.ok == (op.algebra.table == alg.table)
    real = tower._psi_maps
    rejected = 0
    for q in _spread(level.algebra.dim, 1):
        for row in _spread(t.M.dim, q):
            monkeypatch.setattr(tower, "_psi_maps", lambda s, q=q, row=row: [
                bumped(m, row, (row + q) % t.M.dim) if n == q else m for n, m in enumerate(real(s))])
            got = tower.endo_ring_iso(sys, level)
            assert got == tower.endo_ring_iso(sys, replace(level, verified=False)), (q, row)
            rejected += not got.ok
    assert rejected > 0


@pytest.fixture
def level_sites(monkeypatch):
    """Record the module generators each level's bimodule check and
    Frobenius identities are handed."""
    calls = []
    real_condexp, real_identities = tower.verify_conditional_expectation, tower.verify_frobenius_identities

    def rec_condexp(ext, E, n_generators=None, module_generators=None):
        calls.append(("condexp", module_generators))
        return real_condexp(ext, E, n_generators, module_generators)

    def rec_identities(sys, module_generators=None):
        calls.append(("identities", module_generators))
        return real_identities(sys, module_generators)

    monkeypatch.setattr(tower, "verify_conditional_expectation", rec_condexp)
    monkeypatch.setattr(tower, "verify_frobenius_identities", rec_identities)
    return calls


def test_level_sites_need_a_verified_level(level_sites, endo_tables):
    """On a verified base each level hands its module generators to both
    checks and endo-ring-iso forms no table; on an unverified one every level
    runs the scans."""
    sys = _tower("q/group-pair:s3/z2").base_sys
    honest = build_tower(sys, base_verified=True)
    assert level_sites == [(site, level.module_generators()) for level in honest.levels
                           for site in ("condexp", "identities")]
    level_sites.clear()
    unverified = build_tower(sys, base_verified=False)
    assert level_sites == [(site, None) for _ in range(2) for site in ("condexp", "identities")]
    assert [level.checks for level in unverified.levels] == [level.checks for level in honest.levels]
    endo_tables.clear()  # the inclusion checks of both builds
    assert tower.endo_ring_iso(sys, honest.levels[0]).ok and endo_tables == []
    assert tower.endo_ring_iso(sys, unverified.levels[0]).ok and len(endo_tables) == 1


@pytest.mark.parametrize("case", TOWER_CASES)
def test_endo_ring_iso_decides_psi_through_mult_failures(case, monkeypatch):
    """A verified level hands mult_failures its own generators for psi into
    End_k(M); an unverified level goes to the scan of phi without calling it."""
    t = _tower(case)
    sys, level = t.base_sys, t.levels[0]
    calls = []
    real = tower.mult_failures

    def recording(f_map, A, B, generators):
        calls.append(generators)
        return real(f_map, A, B, generators)

    monkeypatch.setattr(tower, "mult_failures", recording)
    assert tower.endo_ring_iso(sys, level).ok
    assert len(calls) == 1 and calls[0] is level.generators
    calls.clear()
    assert tower.endo_ring_iso(sys, replace(level, verified=False)).ok and calls == []


# ---------------------------------------------------------------------------
# the Hopf-path sites: the Nakayama automorphisms, the exchange relation and
# the matrix units of C
# ---------------------------------------------------------------------------


def _nakayama_generators(t, d2) -> tuple:
    """S_A, S_B and incl2(S_A) + S_B in C coordinates, as nakayama_relations forms them."""
    s_a, s_b = d2.A.induced_generators(), d2.B.induced_generators()
    a_embed, b_embed = d2.A.induced_algebra()[1], d2.B.induced_algebra()[1]
    s_c = [d2.C.coords(t.incl2.apply(a_embed.apply(g))) for g in s_a] + [d2.C.coords(b_embed.apply(g)) for g in s_b]
    return s_a, s_b, s_c


@pytest.mark.parametrize("case", CASES)
def test_nakayama_same_on_generators(case):
    """q, q_A, q_B and q~ are checked multiplicative on generators with the
    scan's outcome, on the honest maps and on each bumped q; the Gram-pass
    Nakayama map of a functional is the one the scope-based solver gives."""
    state = _state(case)
    t, d2 = state.tower, state.d2
    on_gens = nakayama_relations(t, d2, on_generators=True)
    assert on_gens == nakayama_relations(t, d2) and on_gens.report.ok
    s_a, s_b, s_c = _nakayama_generators(t, d2)
    rejected = 0
    for sub, q, gens, functional in ((d2.C, on_gens.q_C, s_c, t.F), (d2.A, on_gens.q_A, s_a, t.E_M),
                                     (d2.B, on_gens.q_B, s_b, t.E_M1)):
        alg = sub.induced_algebra()[0]
        assert word_span_dim(alg, gens) == alg.dim
        row = [scalar_of(_values_in(t, functional), functional.apply(v)) for v in sub.vectors]
        whole = SubspaceBasis(alg, [{i: alg.field.one} for i in range(alg.dim)])
        phi = LinMap(alg.field, [{0: c} if c else {} for c in row], 1)
        assert nakayama_of_functional(alg, row, gens) == nakayama_of_functional(alg, row) == nakayama(alg, phi, whole)
        assert nakayama_of_functional(alg, row)[0] == q
        for col in _spread(alg.dim, 0):
            for r in _spread(alg.dim, col):
                bad = bumped(q, r, col)
                got = _automorphism_failures(bad, alg, gens)
                assert got == _automorphism_failures(bad, alg, None), (col, r)
                rejected += any(x["kind"] == "not-multiplicative" for x in got)
    assert rejected > 0


def test_automorphism_check_needs_every_generator():
    """On k[x, y]/(x^2, y^2), with basis 1, x, y, xy and generators x, y, the
    unital map q(y) = y + 1, q(xy) = xy + x is multiplicative on every pair
    (e_i, x) but not on (y, y): the check reads every generator."""
    f = RationalField()
    one = f.one
    alg = Algebra.from_entries(f, 4, [(0, j, j, one) for j in range(4)] + [(j, 0, j, one) for j in (1, 2, 3)]
                               + [(1, 2, 3, one), (2, 1, 3, one)], {0: one})
    gens = generators(alg)
    assert gens == [{1: one}, {2: one}]
    q = LinMap(f, [{0: one}, {1: one}, {2: one, 0: one}, {3: one, 1: one}], 4)
    got = _automorphism_failures(q, alg, gens)
    assert got == _automorphism_failures(q, alg, None)
    assert {"kind": "not-multiplicative", "pair": (2, 2)} in got


def _values_in(t, functional):
    """The algebra a scalar-valued functional of the tower takes values in."""
    return t.M1 if functional is t.E_M1 else t.M


def test_nakayama_gates(monkeypatch):
    """Every check before nakayama-relations passed: generators; a failed
    c-structure (C may then not be AB): the scan, with the same relations."""
    calls = []
    real = pipeline.nakayama_relations

    def recording(t, d2, on_generators=False):
        out = real(t, d2, on_generators)
        calls.append((on_generators, out))
        return out

    monkeypatch.setattr(pipeline, "nakayama_relations", recording)
    _run("f7/model:z3")
    assert calls[-1][0] is True and calls[-1][1].report.ok
    real_c = pipeline.verify_c_structure
    monkeypatch.setattr(pipeline, "verify_c_structure",
                        lambda t, d2: CheckOutcome(False, real_c(t, d2).failures + [{"kind": "failed"}]))
    _run("f7/model:z3")
    assert calls[-1][0] is False and calls[-1][1] == calls[0][1]


@pytest.mark.parametrize("case", CASES)
def test_exchange_relation_same_on_module_generators(case):
    """The exchange relation on level 1's G_R gives the scan's failure list,
    on the honest sandwich maps and with one left sandwich map bumped."""
    state = _state(case)
    t, d2, H_B = state.tower, state.d2, state.H_B
    x_gens = t.levels[0].module_generators()[1]
    left, right = state.sandwiches
    assert _tower_axioms(H_B, t, d2, state.sandwiches, None, x_gens) == _tower_axioms(
        H_B, t, d2, state.sandwiches) == []
    rejected = 0
    for j, m in enumerate(left):
        for row in _spread(m.codomain_dim, j):
            maps = [bumped(x, row, (5 * j + row) % m.domain_dim) if n == j else x for n, x in enumerate(left)]
            got = _tower_axioms(H_B, t, d2, (maps, right), None, x_gens)
            assert got == _tower_axioms(H_B, t, d2, (maps, right)), (j, row)
            rejected += any(x["kind"] == "exchange-relation" for x in got)
    assert rejected > 0


@pytest.fixture
def exchange_sites(monkeypatch):
    calls = []
    real = hopf._tower_axioms

    def recording(H, t, d2, sandwiches, y_generators=None, x_generators=None):
        calls.append(x_generators)
        return real(H, t, d2, sandwiches, y_generators, x_generators)

    monkeypatch.setattr(hopf, "_tower_axioms", recording)
    return calls


def test_exchange_relation_gates(exchange_sites):
    """G_R is handed on only while level 2 is verified and the designated B
    commutes with incl(S_M): a B that does not gets the scan."""
    state = _state("f7/model:z3")
    t, d2, H_B = state.tower, state.d2, state.H_B
    honest = hopf.verify_hopf_axioms(H_B, tower_ctx=(t, d2, state.sandwiches))
    assert honest.ok and exchange_sites[-1] is t.levels[0].module_generators()[1]
    out = hopf.verify_hopf_axioms(H_B, tower_ctx=(with_failed_check(t, 1, "algebra-axioms"), d2, state.sandwiches))
    assert out == honest and exchange_sites[-1] is None
    M2, one = t.M2, t.M2.field.one
    other = replace(d2, B=SubspaceBasis(M2, [{k: one} for k in range(d2.B.dim)]))
    m_in_m2 = [t.incl2.apply(g) for g in t.levels[0].incl_generators]
    assert not all(M2.commutes(b, m) for b in other.B.vectors for m in m_in_m2)
    sandwiches = sandwich_maps(t, other)
    out = hopf.verify_hopf_axioms(H_B, tower_ctx=(t, other, sandwiches))
    assert exchange_sites[-1] is None
    assert not out.ok and out.failures == hopf._tower_axioms(H_B, t, other, sandwiches)


@pytest.mark.parametrize("case", CASES)
def test_matrix_units_same_from_corners(case, monkeypatch):
    """The matrix-unit relations decided from the corners xi_i0, xi_0j give
    the n^4 scan's outcome, on the honest units and with one u_i moved inside
    B; an unverified level 2 runs the scan only."""
    state = _state(case)
    t, d2 = state.tower, state.d2
    unverified = with_failed_check(t, 1, "algebra-axioms")
    corners = []
    real = depth2.law_failures
    monkeypatch.setattr(depth2, "law_failures", lambda *a: corners.append(a[1]) or real(*a))
    honest = verify_c_structure(t, d2)
    n = d2.n
    assert honest.ok and corners == [[(i, 0, 0, j) for i in range(n) for j in range(n)]
                                     + [(0, j, k, 0) for j in range(n) for k in range(n)]]
    assert verify_c_structure(unverified, d2) == honest and corners[1:] == [None]
    u, v = d2.uv
    f = t.M2.field
    rejected = 0
    for i in range(len(u)):
        for k in _spread(d2.B.dim, i):
            moved = dict(u[i])
            for key, c in d2.B.vectors[k].items():
                sparse_add(f, moved, key, c)
            bad = replace(d2, uv=([moved if n == i else x for n, x in enumerate(u)], v))
            got = verify_c_structure(t, bad)
            assert got == verify_c_structure(unverified, bad), (i, k)
            rejected += any(x["kind"] == "matrix-unit-relations" for x in got.failures)
    assert rejected > 0


# ---------------------------------------------------------------------------
# one fallback: every generator site calls algebra.law_failures
# ---------------------------------------------------------------------------

BINDERS = (algebra, frobenius, tower, depth2, galois, hopf)
# the tower and depth-2 sites that decide a law on generators, and their calls per run
SPLIT_SIDE_SITES = {"_pimsner_popa_failures": 2, "_frobenius_sum_failures": 2, "_bimodule_failures": 2,
                    "verify_c_structure": 1}


@pytest.fixture
def law_failure_calls(monkeypatch):
    """(calling function, generators passed) of every law_failures call, in
    every module that binds it."""
    calls = []
    real = algebra.law_failures

    def recording(failures, generators, basis):
        calls.append((sys._getframe(1).f_code.co_name, generators))
        return real(failures, generators, basis)

    for module in BINDERS:
        assert module.law_failures is real
        monkeypatch.setattr(module, "law_failures", recording)
    return calls


def test_law_failures_is_bound_by_the_wrapped_modules_only():
    names = [info.name for info in pkgutil.iter_modules(hopftower.__path__)]
    modules = [importlib.import_module(f"hopftower.{name}") for name in names]
    assert {m.__name__ for m in modules if hasattr(m, "law_failures")} == {m.__name__ for m in BINDERS}


def test_every_generator_site_runs_through_law_failures(law_failure_calls):
    """On f7/model:z3, where every stage runs, each site is handed its
    generators, Pimsner-Popa and the depth-2 sums at both levels; only the
    base Frobenius identities of M over N, which has no module generators,
    run on the basis. The smash isomorphisms are no law_failures site: their
    exchange relation runs on generators alone (tests/test_galois.py)."""
    ext, _sidecar = generate_example("function-algebra", {"group": "z3", "field": "f7"})
    _t, d2, _rep = model_tower(model_bundle("function-algebra:z3", ext.M.field))
    law_failure_calls.clear()
    report = run_pipeline(ext, d2_override=DepthTwoData(A=d2.A, B=d2.B, C=d2.C, source="model"))
    assert report.exit_code() == 0
    on_gens = Counter(site for site, gens in law_failure_calls if gens is not None)
    assert {site: on_gens[site] for site in SPLIT_SIDE_SITES} == SPLIT_SIDE_SITES
    assert {"verify_algebra", "mult_failures", "verify_conditional_expectation", "verify_frobenius_identities",
            "_tower_axioms", "verify_module_algebra"} <= set(on_gens)
    assert "_iso_by_exchange" not in {site for site, _gens in law_failure_calls}
    assert [site for site, gens in law_failure_calls if gens is None] == ["verify_frobenius_identities"]


def test_failed_check_hands_the_split_side_sites_no_generators(law_failure_calls):
    state = _state("f7/model:z3")
    t, d2 = state.tower, state.d2
    broken = with_failed_check(t, 0, "algebra-axioms")
    law_failure_calls.clear()
    assert verify_pimsner_popa(broken).ok
    assert check_depth_two(broken, DepthTwoData(A=d2.A, B=d2.B, C=d2.C)).passed()
    assert conditional_expectations(broken, d2)[2].ok and verify_c_structure(broken, d2).ok
    assert Counter(site for site, _gens in law_failure_calls) == SPLIT_SIDE_SITES
    assert all(gens is None for _site, gens in law_failure_calls)
