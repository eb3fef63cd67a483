"""The module and bimodule laws of the tower, depth-2, Hopf and Galois stages
decided on generators.

Pimsner-Popa runs on the module generators of each tower level, the E_B and
E_A bimodule laws on generators of B and A, both action identities of the
Hopf stage and the module-algebra laws of the Galois stage on 1 and
generators of the acted-on algebra. Each shortcut holds for a submodule's or
a subalgebra's worth of elements once it holds on generators (the docstrings
give the one-line proofs). These tests pin, on the model towers z2, z3 and z4
over F7 and on the catalog's trivial extension, that each site reports what
its basis scan reports, on the honest input and on perturbed ones, and that
once a check failed every later site runs its basis scan.
"""
import functools
from dataclasses import replace

import pytest
from conftest import bumped, with_failed_check

from hopftower import depth2, galois, hopf, pipeline
from hopftower.algebra import SubspaceBasis, generators
from hopftower.depth2 import DepthTwoData, _bimodule_failures, _subalgebra_generators, conditional_expectations
from hopftower.frobenius import CheckOutcome
from hopftower.galois import ModuleAlgebraAction, action_a_on_m, action_b_on_m1, verify_module_algebra
from hopftower.hopf import _tower_axioms
from hopftower.linalg import sparse_add
from hopftower.models import generate_example, model_bundle, model_tower
from hopftower.pipeline import run_pipeline
from hopftower.tower import verify_pimsner_popa

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
    assert _tower_axioms(H_B, t, d2, state.sandwiches, 8, y_gens) == _tower_axioms(H_B, t, d2, state.sandwiches, 8) == []
    # any sandwich maps get the scan's failure list, one entry bumped
    left, right = state.sandwiches
    rejected = 0
    for side in (0, 1):
        for j, m in enumerate((left, right)[side]):
            for row in _spread(m.codomain_dim, j):
                maps = [bumped(x, row, (7 * j) % m.domain_dim) if n == j else x for n, x in enumerate((left, right)[side])]
                sandwiches = (maps, right) if side == 0 else (left, maps)
                for budget in (2, 8):
                    got = _tower_axioms(H_B, t, d2, sandwiches, budget, y_gens)
                    assert got == _tower_axioms(H_B, t, d2, sandwiches, budget), (side, j, row, budget)
                    rejected += any("action-identity" in x["kind"] for x in got)
    assert rejected > 0


@pytest.fixture
def tower_axiom_sites(monkeypatch):
    calls = []
    real = hopf._tower_axioms

    def recording(H, t, d2, sandwiches, budget, y_generators=None):
        calls.append(y_generators)
        return real(H, t, d2, sandwiches, budget, y_generators)

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
