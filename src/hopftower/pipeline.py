"""The verification pipeline: Frobenius system, tower, depth 2, Hopf
reconstruction, Galois and smash checks, with hypothesis gating.

Hypothesis failures (reducible base, no depth 2) skip downstream checks with
machine-readable reasons instead of failing them; only identity checks that
actually ran and came out false make the run fail.

A check that decides a "for all x" identity on generators takes that shortcut
only while every check recorded before it passed (Reporter.all_passed); the
tower keeps the same fact per level as TowerLevel.verified. Otherwise it runs
its basis scan, which gives the same result wherever the shortcut's premises
hold and lists the failures where they do not.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import AlgebraError, SubspaceBasis, generators
from .depth2 import (
    DepthTwoData,
    check_depth_two,
    conditional_expectations,
    f_scalar_on_c,
    nakayama_relations,
    second_centralizers,
    verify_c_structure,
    verify_f_faithful,
)
from .fields import field_to_spec
from .fileio import digest, extension_to_dict
from .frobenius import (
    ExtensionSpec,
    FrobeniusError,
    algebra_outcome,
    classify,
    normalize,
    pairs_to_tensor,
    solve_dual_bases,
    verify_conditional_expectation,
    verify_frobenius_identities,
)
from .galois import (
    action_a_on_m,
    action_b_on_m1,
    cleft_data,
    galois_map,
    verify_invariants,
    verify_smash_iso_theta,
)
from .hopf import (
    HopfStructure,
    antipode,
    compute_pairing,
    comultiplication,
    dualize,
    sandwich_maps,
    verify_hopf_axioms,
)
from .report import FAIL, PASS, SKIP, PipelineReport, Reporter
from .tower import (
    TowerData,
    TowerError,
    basic_construction,
    build_tower,
    endo_ring_iso,
    verify_braid_relations,
    verify_cyclic_span,
    verify_pimsner_popa,
)

STAGES = ("frobenius", "tower", "depth2", "hopf", "galois")
NON_ASSOCIATIVE = "M fails algebra-axioms"


@dataclass
class PipelineState:
    ext: ExtensionSpec
    sys: Optional[object] = None
    tower: Optional[object] = None
    d2: Optional[DepthTwoData] = None
    pairing: Optional[object] = None
    sandwiches: Optional[tuple] = None  # E_M1 sandwich maps on the basis of M2
    H_B: Optional[HopfStructure] = None
    H_A: Optional[HopfStructure] = None
    naka: Optional[object] = None
    m_associative: bool = False  # M passed its algebra-axioms check


def run_pipeline(
    ext: ExtensionSpec,
    upto: str = "galois",
    levels: int = 2,
    d2_override: Optional[DepthTwoData] = None,
    check_filter: Optional[str] = None,
) -> PipelineReport:
    """Run all stages up to `upto` and assemble a deterministic report."""
    if upto not in STAGES:
        raise ValueError(f"unknown stage {upto!r}")
    rep = Reporter()
    state = PipelineState(ext=ext)
    hypotheses: dict = {}
    dims = {"m": ext.M.dim, "n": ext.N.dim}

    # one generating set each of M and N, for the checks that run on generators
    m_generators = generators(ext.M)
    n_generators = generators(ext.n_algebra)
    tower_gate = _stage_frobenius(rep, state, hypotheses, m_generators, n_generators)
    flags = state.sys.flags if state.sys is not None else None
    stop = STAGES.index(upto)

    if state.sys is None:
        tower_gate = tower_gate or "no Frobenius system: dual bases could not be solved"
    elif not flags.strongly_separable:
        if not flags.index_scalar:
            tower_gate = "index is not a scalar multiple of 1 (status: index non-scalar)"
        else:
            tower_gate = "extension is not strongly separable (E(1) = 0 or index = 0)"

    if stop >= 1:
        _stage_tower(rep, state, hypotheses, dims, tower_gate, levels, m_generators, n_generators)
    depth2_gate = tower_gate
    if depth2_gate is None and levels < 2:
        depth2_gate = "tower built to level 1 only (--levels 1)"
    if depth2_gate is None and state.tower is None and stop >= 2:
        depth2_gate = "tower construction failed"
    hopf_gate = depth2_gate
    if stop >= 2:
        hopf_gate = _stage_depth2(rep, state, hypotheses, dims, depth2_gate, d2_override)
    if stop >= 3:
        _stage_hopf(rep, state, hypotheses, hopf_gate)
    galois_gate = hopf_gate
    if galois_gate is None and stop >= 4 and state.H_B is None:
        galois_gate = "Hopf reconstruction did not complete"
    if stop >= 4:
        _stage_galois(rep, state, hypotheses, galois_gate, m_generators)

    verdict = _verdict(rep, hypotheses)
    results = rep.results
    if check_filter:
        results = [r for r in results if check_filter in r.check_id]
    return PipelineReport(
        input_digest=digest(extension_to_dict(ext)),
        field=field_to_spec(ext.M.field),
        hypotheses=hypotheses,
        results=results,
        verdict=verdict,
        dims=dims,
        state=state,
    )


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def _stage_frobenius(
    rep: Reporter, state: PipelineState, hypotheses: dict, m_generators: list, n_generators: list
) -> Optional[str]:
    """Run the Frobenius checks; return the gate of the stages after it when
    the classification could not run on a non-associative M, else None."""
    ext = state.ext
    f = ext.M.field
    axioms = algebra_outcome(ext.M, m_generators)
    rep.outcome("algebra-axioms", axioms)
    state.m_associative = axioms.ok
    sub_ok = ext.N.is_unital_subalgebra()
    rep.add("subalgebra-unital", PASS if sub_ok else FAIL)
    if ext.E is None:
        rep.add("cond-expectation", FAIL, reason="no conditional expectation supplied")
        hypotheses["frobenius"] = False
        return None
    # the bimodule checks run on generators of N while every check so far passed
    n_gens = n_generators if rep.all_passed() else None
    ce = verify_conditional_expectation(ext, ext.E, n_generators=n_gens)
    try:
        sys = solve_dual_bases(ext, ext.E)
    except FrobeniusError as exc:
        rep.outcome("cond-expectation", ce)
        rep.add("dual-bases", FAIL, reason=str(exc))
        hypotheses["frobenius"] = False
        return None
    rep.add("dual-bases", PASS, witness={"terms": len(sys.dual_pairs)})
    if ext.dual_pairs is not None:
        # a supplied tensor must agree with the solved one in M (x)_N M
        supplied = pairs_to_tensor(sys.tq, ext.M, ext.dual_pairs)
        if supplied != sys.dual_tensor:
            rep.add(
                "frobenius-identities",
                FAIL,
                reason="supplied dual bases disagree with the unique solved tensor",
            )
            hypotheses["frobenius"] = False
            return None
    try:
        flags = classify(ext, sys)
    except AlgebraError as exc:
        if axioms.ok:
            raise
        # C_M(N) need not be closed under products once M is not associative
        gate = f"{NON_ASSOCIATIVE}: {exc}"
        rep.outcome("cond-expectation", ce)
        for cid in ("frobenius-identities", "index-central"):
            rep.add(cid, SKIP, reason=gate)
        hypotheses["frobenius"] = False
        return gate
    if not flags.normalized:
        try:
            sys = normalize(sys)
            flags = classify(ext, sys)
            rep.add("normalization", PASS, witness={"rescaled": True})
        except FrobeniusError as exc:
            rep.add("normalization", FAIL, reason=str(exc))
            hypotheses["frobenius"] = False
            return None
    if sys.E is not ext.E:  # normalization rescaled E: check the new one
        ce = verify_conditional_expectation(ext, sys.E, n_generators=n_gens)
    rep.outcome("cond-expectation", ce)
    rep.outcome("frobenius-identities", verify_frobenius_identities(sys))
    central = all(ext.M.commutes(sys.index, {i: f.one}) for i in range(ext.M.dim))
    rep.add("index-central", PASS if central else FAIL)
    state.sys = sys
    hypotheses["frobenius"] = True
    hypotheses["normalized"] = True
    hypotheses["index_scalar"] = bool(flags.index_scalar)
    hypotheses["lambda_inverse"] = f.to_str(sys.lambda_inverse) if flags.index_scalar else None
    hypotheses["split"] = bool(flags.split)
    hypotheses["separable"] = bool(flags.separable)
    hypotheses["strongly_separable"] = bool(flags.strongly_separable)
    hypotheses["irreducible"] = bool(flags.irreducible)
    hypotheses["centralizer_dim"] = flags.centralizer_dim
    return None


def _stage_tower(rep, state, hypotheses, dims, gate, levels, m_generators, n_generators) -> None:
    tower_checks = ("tower-level-1", "tower-level-2", "triple-tensor",
                    "braid-relations", "pimsner-popa", "cyclic-span", "endo-ring-iso")
    if gate is not None:
        for cid in tower_checks:
            rep.add(cid, SKIP, reason=gate)
        return

    def stopped(exc):
        # every step of the construction presumes that M is an algebra: over
        # a non-associative M the FAIL is M's own algebra-axioms
        if state.m_associative:
            rep.add("tower-level-1", FAIL, reason=str(exc))
        else:
            rep.add("tower-level-1", SKIP, reason=f"{NON_ASSOCIATIVE}: {exc}")
        for cid in tower_checks[1:]:
            rep.add(cid, SKIP, reason="tower construction failed")

    def level_result(cid, level):
        failures = [
            {"check": name, "failures": out.failures[:2]}
            for name, out in level.checks
            if not out.ok
        ]
        rep.add(cid, PASS if not failures else FAIL,
                witness={"failures": failures} if failures else None)

    if levels < 2:
        try:
            level1 = basic_construction(state.sys, m_generators, rep.all_passed())
        except (TowerError, FrobeniusError) as exc:
            stopped(exc)
            return
        dims["m1"] = level1.algebra.dim
        level_result("tower-level-1", level1)
        only_one = "tower built to level 1 only (--levels 1)"
        for cid in ("tower-level-2", "triple-tensor", "braid-relations", "pimsner-popa"):
            rep.add(cid, SKIP, reason=only_one)
        pseudo = TowerData(base_sys=state.sys, levels=[level1, level1], F=level1.cond_exp, emtwo_checks=[])
        rep.outcome("cyclic-span", verify_cyclic_span(pseudo))
        endo = endo_ring_iso(state.sys, level1)
        rep.add("endo-ring-iso", PASS if endo.ok else FAIL,
                witness=None if endo.ok else {"failures": endo.failures[:3]})
        return
    try:
        tower = build_tower(state.sys, m_generators, rep.all_passed(), n_generators)
    except (TowerError, FrobeniusError) as exc:
        stopped(exc)
        return
    state.tower = tower
    dims["m1"] = tower.M1.dim
    dims["m2"] = tower.M2.dim
    level_result("tower-level-1", tower.levels[0])
    level_result("tower-level-2", tower.levels[1])
    emtwo_failures = [
        {"check": name, "failures": out.failures[:2]}
        for name, out in tower.emtwo_checks
        if not out.ok
    ]
    rep.add("triple-tensor", PASS if not emtwo_failures else FAIL,
            witness={"failures": emtwo_failures} if emtwo_failures else None)
    rep.outcome("braid-relations", verify_braid_relations(tower))
    rep.outcome("pimsner-popa", verify_pimsner_popa(tower))
    rep.outcome("cyclic-span", verify_cyclic_span(tower))
    endo = endo_ring_iso(state.sys, tower.levels[0])
    rep.add(
        "endo-ring-iso",
        PASS if endo.ok else FAIL,
        witness=None if endo.ok else {"failures": endo.failures[:3]},
    )


def _stage_depth2(rep, state, hypotheses, dims, gate, d2_override) -> Optional[str]:
    """Run the depth-2 checks; return the gate of the stages after it, or None."""
    d2_checks = ("second-centralizers", "depth2-level-1", "depth2-level-2", "depth2-crosscheck",
                 "c-structure", "cond-exp-ea-eb", "f-faithful", "nakayama-relations")
    if gate is not None:
        for cid in d2_checks:
            rep.add(cid, SKIP, reason=gate)
        return gate
    t = state.tower
    if d2_override is not None:
        d2 = d2_override
        rep.add("second-centralizers", PASS,
                witness={"dims": {"A": d2.A.dim, "B": d2.B.dim, "C": d2.C.dim}, "source": d2.source})
    else:
        A, B, C = second_centralizers(t)
        d2 = DepthTwoData(A=A, B=B, C=C)
        rep.add("second-centralizers", PASS,
                witness={"dims": {"A": A.dim, "B": B.dim, "C": C.dim}})
    dims["A"] = d2.A.dim
    dims["B"] = d2.B.dim
    dims["C"] = d2.C.dim
    check_depth_two(t, d2)
    state.d2 = d2
    for cid, verdict in (("depth2-level-1", d2.level1), ("depth2-level-2", d2.level2)):
        if verdict.passed:
            rep.add(cid, PASS, witness={"n": verdict.n0, "gram_route": verdict.gram_route})
        else:
            # a failing depth-2 hypothesis is recorded on the hypothesis list,
            # not as a failed identity check
            rep.add(cid, SKIP, reason=f"depth-2 hypothesis fails: {verdict.reason}")
    agree = bool(d2.level1.paths_agree) and bool(d2.level2.paths_agree)
    rep.add("depth2-crosscheck", PASS if agree else FAIL,
            witness={
                "level1": {"constructive": d2.level1.passed, "tensor_system": d2.level1.tensor_solvable},
                "level2": {"constructive": d2.level2.passed, "tensor_system": d2.level2.tensor_solvable},
            })
    hypotheses["depth_two"] = d2.passed()
    downstream_gate = None
    if not d2.passed():
        downstream_gate = "depth-2 hypothesis fails: no orthogonal dual bases in the centralizers"
    elif not f_scalar_on_c(t, d2):
        downstream_gate = "F is not scalar-valued on C (base centralizer C_M(N) is larger than k)"
    if downstream_gate is not None:
        for cid in ("c-structure", "cond-exp-ea-eb", "f-faithful", "nakayama-relations"):
            rep.add(cid, SKIP, reason=downstream_gate)
        return downstream_gate
    rep.outcome("c-structure", verify_c_structure(t, d2))
    _, _, ce_out = conditional_expectations(t, d2)
    rep.outcome("cond-exp-ea-eb", ce_out)
    _, ff_out = verify_f_faithful(t, d2)
    rep.outcome("f-faithful", ff_out)
    naka = nakayama_relations(t, d2)
    state.naka = naka
    rep.outcome("nakayama-relations", naka.report)
    return None


def _stage_hopf(rep, state, hypotheses, gate) -> None:
    hopf_checks = ("pairing", "comultiplication", "antipode", "hopf-axioms", "dual-hopf")
    if gate is not None:
        for cid in hopf_checks:
            rep.add(cid, SKIP, reason=gate)
        return
    t, d2 = state.tower, state.d2
    pairing, p_out = compute_pairing(t, d2)
    rep.outcome("pairing", p_out)
    if pairing is None:
        for cid in hopf_checks[1:]:
            rep.add(cid, SKIP, reason="pairing unavailable")
        return
    state.pairing = pairing
    delta, eps, c_out = comultiplication(pairing, t, d2)
    rep.outcome("comultiplication", c_out)
    state.sandwiches = sandwich_maps(t, d2)
    S, s_out = antipode(t, d2, pairing, state.sandwiches)
    rep.outcome("antipode", s_out)
    if S is None:
        for cid in ("hopf-axioms", "dual-hopf"):
            rep.add(cid, SKIP, reason="no antipode")
        return
    H_B = HopfStructure(pairing.B_alg, delta, eps, S)
    state.H_B = H_B
    q_b = state.naka.q_B if state.naka is not None else None
    ax = verify_hopf_axioms(H_B, q_scope=q_b, expect_involutive=q_b is not None,
                            tower_ctx=(t, d2, state.sandwiches))
    rep.outcome("hopf-axioms", ax)
    H_A, d_out = dualize(pairing, H_B, t, d2)
    state.H_A = H_A
    rep.outcome("dual-hopf", d_out)
    hypotheses["hopf_reconstructed"] = ax.ok and d_out.ok
    hypotheses["dim_A"] = d2.A.dim
    hypotheses["dim_B"] = d2.B.dim


def _stage_galois(rep, state, hypotheses, gate, m_generators) -> None:
    galois_checks = ("action-b-on-m1", "invariants-m1", "smash-theta",
                     "action-a-on-m", "invariants-m", "cleft-cocycle", "galois-map")
    if gate is not None:
        for cid in galois_checks:
            rep.add(cid, SKIP, reason=gate)
        return
    t, d2 = state.tower, state.d2
    # the module-algebra laws run on generators of the acted-on algebra while
    # every check so far passed
    m1_gens = t.levels[0].generators if rep.all_passed() else None
    act_b, out = action_b_on_m1(t, d2, state.H_B, state.sandwiches, m1_gens)
    rep.outcome("action-b-on-m1", out)
    m_img = SubspaceBasis(t.M1, t.incl1.columns)
    rep.outcome("invariants-m1", verify_invariants(act_b, m_img))
    rep.outcome("smash-theta", verify_smash_iso_theta(t, d2, state.H_B, act_b))
    m_gens = m_generators if rep.all_passed() else None
    act_a, out = action_a_on_m(t, d2, state.H_A, m_gens)
    rep.outcome("action-a-on-m", out)
    if act_a is None or not out.ok:
        for cid in ("invariants-m", "cleft-cocycle", "galois-map"):
            rep.add(cid, SKIP, reason="A-action unavailable")
        return
    ext = state.ext
    n_img = SubspaceBasis(t.M, ext.embed.columns)
    rep.outcome("invariants-m", verify_invariants(act_a, n_img))
    rep.outcome("cleft-cocycle", cleft_data(t, d2, state.H_A, state.H_B, state.pairing, act_a, act_b, m_generators))
    gm = galois_map(t.M, ext.N, state.sys.tq, act_a, state.H_A.dim)
    rep.outcome("galois-map", gm)
    hypotheses["galois_extension"] = gm.ok


# ---------------------------------------------------------------------------
# verdict
# ---------------------------------------------------------------------------


def _verdict(rep: Reporter, hypotheses: dict) -> dict:
    """Which hypotheses held and which conclusions were certified, in the
    shape of the equivalence: an irreducible depth-2 extension is strongly
    separable iff it is Hopf-Galois."""
    status = {r.check_id: r.status for r in rep.results}

    def certified(*ids):
        return all(status.get(i) == PASS for i in ids)

    conclusions = {
        "frobenius_system": bool(hypotheses.get("frobenius")),
        "tower_identities": certified("braid-relations", "pimsner-popa", "endo-ring-iso"),
        "depth_two": bool(hypotheses.get("depth_two")),
        "hopf_reconstruction": certified("hopf-axioms", "dual-hopf"),
        "smash_products": certified("smash-theta", "cleft-cocycle"),
        "galois_extension": certified("galois-map"),
    }
    held = [
        k
        for k in ("strongly_separable", "irreducible", "depth_two")
        if hypotheses.get(k)
    ]
    failed_hyp = [
        k
        for k in ("strongly_separable", "irreducible", "depth_two")
        if hypotheses.get(k) is False
    ]
    counts = rep.counts()
    if counts[FAIL]:
        summary = "some verified identities FAILED; the input is inconsistent with the claimed structure"
    elif conclusions["galois_extension"]:
        summary = (
            "hypotheses held (" + ", ".join(held) + "): the extension is Hopf-Galois "
            "with reconstructed dual Hopf algebra pair acting as verified"
        )
    elif failed_hyp:
        summary = (
            "hypotheses not satisfied (" + ", ".join(failed_hyp) + "); "
            "conclusions depending on them were skipped, everything verified passed"
        )
    else:
        summary = "all executed checks passed"
    return {
        "hypotheses_held": held,
        "hypotheses_failed": failed_hyp,
        "conclusions_certified": [k for k, v in conclusions.items() if v],
        "summary": summary,
    }
