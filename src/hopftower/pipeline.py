"""The verification pipeline: Frobenius system, tower, depth 2, Hopf
reconstruction, Galois and smash checks, with hypothesis gating.

Every stage has the signature stage(rep, state) -> next_gate: it records
each of its checks exactly once and returns the reason its hypotheses or
constructions stopped short (an index that is not a scalar, a tower built to
level 1 only, a Hopf reconstruction that did not complete), or None; an early
exit hands its whole check tuple to Reporter.skip, which records only the
checks not yet recorded. run_pipeline loops over the stages up to the last
one asked for and is the one place that reads a gate: once a stage returns a
reason, every check of each later stage is skipped with it. Hypothesis
failures (reducible base, no depth 2) thus skip downstream checks with
machine-readable reasons instead of failing them; only identity checks that
actually ran and came out false make the run fail.

A check that decides a "for all x" identity on generators takes that shortcut
only while every check recorded before it passed (Reporter.all_passed); the
tower keeps the same fact per level as TowerLevel.verified. Otherwise, or
when the generators show a failure, it runs its basis scan, which gives the
same result wherever the shortcut's premises hold and lists the failures
where they do not; algebra.law_failures is that one fallback for the algebra
axioms, morphisms, conditional expectations, Frobenius identities and the
depth-2 Frobenius sums, Pimsner-Popa, the E_A and E_B bimodule laws, the
matrix units of C, Nakayama automorphisms, End(M_N) ~ M1 (psi into End_k(M)),
module-algebra laws, and the Hopf action identities and exchange relation.
The smash isomorphisms take the exchange relation on generators as their
shortcut; their fallback is the smash table, with the map checked on every
basis pair (galois.verify_smash_iso_theta, galois.cleft_data).
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

from .algebra import AlgebraError, SubspaceBasis, generators, verify_algebra
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
    TowerError,
    build_tower,
    endo_ring_iso,
    verify_braid_relations,
    verify_cyclic_span,
    verify_pimsner_popa,
)

STAGES = ("frobenius", "tower", "depth2", "hopf", "galois")
NON_ASSOCIATIVE = "M fails algebra-axioms"
ONE_LEVEL = "tower built to level 1 only (--levels 1)"

# the checks of each stage, in report order; "normalization" is recorded only
# when it runs
FROBENIUS_CHECKS = ("algebra-axioms", "subalgebra-unital", "cond-expectation", "dual-bases",
                    "frobenius-identities", "index-central")
LEVEL_TWO_CHECKS = ("tower-level-2", "triple-tensor", "braid-relations", "pimsner-popa")
TOWER_CHECKS = ("tower-level-1", *LEVEL_TWO_CHECKS, "cyclic-span", "endo-ring-iso")
DEPTH2_CHECKS = ("second-centralizers", "depth2-level-1", "depth2-level-2", "depth2-crosscheck",
                 "c-structure", "cond-exp-ea-eb", "f-faithful", "nakayama-relations")
HOPF_CHECKS = ("pairing", "comultiplication", "antipode", "hopf-axioms", "dual-hopf")
GALOIS_CHECKS = ("action-b-on-m1", "invariants-m1", "smash-theta",
                 "action-a-on-m", "invariants-m", "cleft-cocycle", "galois-map")


@dataclass
class PipelineState:
    # the run's inputs
    ext: ExtensionSpec
    levels: int
    d2_override: Optional[DepthTwoData]
    m_generators: list  # one generating set of M
    n_generators: list  # one of N, in N-coordinates
    # what the stages found and built
    dims: dict
    hypotheses: dict = dc_field(default_factory=dict)
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
) -> PipelineReport:
    """Run all stages up to `upto` and assemble a deterministic report."""
    if upto not in STAGES:
        raise ValueError(f"unknown stage {upto!r}")
    rep = Reporter()
    state = PipelineState(
        ext=ext,
        levels=levels,
        d2_override=d2_override,
        m_generators=generators(ext.M),
        n_generators=generators(ext.n_algebra),
        dims={"m": ext.M.dim, "n": ext.N.dim},
    )
    gate = None
    for stage, checks in _STAGE_RUNS[: STAGES.index(upto) + 1]:
        gate = stage(rep, state) if gate is None else rep.skip(checks, gate)

    return PipelineReport(
        input_digest=digest(extension_to_dict(ext)),
        field=field_to_spec(ext.M.field),
        hypotheses=state.hypotheses,
        results=rep.results,
        verdict=_verdict(rep, state.hypotheses),
        dims=state.dims,
        state=state,
    )


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


def _stage_frobenius(rep: Reporter, state: PipelineState) -> Optional[str]:
    """Decide the Frobenius system and its flags; gate the tower on strong
    separability. An exit before the system is complete skips the stage's
    checks not yet recorded and hands the tower stage the same reason."""
    ext = state.ext
    f = ext.M.field
    hypotheses = state.hypotheses

    def stop(reason: str) -> str:
        hypotheses["frobenius"] = False
        return rep.skip(FROBENIUS_CHECKS, reason)

    axioms = verify_algebra(ext.M, state.m_generators)[0]
    rep.outcome("algebra-axioms", axioms)
    state.m_associative = axioms.ok
    sub_ok = ext.N.is_unital_subalgebra()
    rep.add("subalgebra-unital", PASS if sub_ok else FAIL)
    if ext.E is None:
        reason = "no conditional expectation supplied"
        rep.add("cond-expectation", FAIL, reason=reason)
        return stop(reason)
    # the bimodule checks run on generators of N while every check so far passed
    n_gens = state.n_generators if rep.all_passed() else None
    ce = verify_conditional_expectation(ext, ext.E, n_generators=n_gens)
    try:
        sys = solve_dual_bases(ext, ext.E)
    except FrobeniusError as exc:
        rep.outcome("cond-expectation", ce)
        rep.add("dual-bases", FAIL, reason=str(exc))
        return stop("no Frobenius system: dual bases could not be solved")
    rep.add("dual-bases", PASS, witness={"terms": len(sys.dual_pairs)})
    # a supplied tensor must agree with the solved one in M (x)_N M
    if ext.dual_pairs is not None and pairs_to_tensor(sys.tq, ext.M, ext.dual_pairs) != sys.dual_tensor:
        reason = "supplied dual bases disagree with the unique solved tensor"
        rep.outcome("cond-expectation", ce)
        rep.add("frobenius-identities", FAIL, reason=reason)
        return stop(reason)
    try:
        flags = classify(ext, sys)
    except AlgebraError as exc:
        if axioms.ok:
            raise
        # C_M(N) need not be closed under products once M is not associative
        rep.outcome("cond-expectation", ce)
        return stop(f"{NON_ASSOCIATIVE}: {exc}")
    if not flags.normalized:
        try:
            sys = normalize(sys)
            flags = classify(ext, sys)
            rep.add("normalization", PASS, witness={"rescaled": True})
        except FrobeniusError as exc:
            rep.add("normalization", FAIL, reason=str(exc))
            return stop(f"normalization failed: {exc}")
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
    if flags.strongly_separable:
        return None
    if not flags.index_scalar:
        return "index is not a scalar multiple of 1 (status: index non-scalar)"
    return "extension is not strongly separable (E(1) = 0 or index = 0)"


def _construction_result(rep: Reporter, check_id: str, checks: list) -> None:
    """Record one check over the named outcomes of a tower construction,
    with the failed ones as its witness."""
    failures = [{"check": name, "failures": out.failures[:2]} for name, out in checks if not out.ok]
    rep.add(check_id, PASS if not failures else FAIL, witness={"failures": failures} if failures else None)


def _stage_tower(rep: Reporter, state: PipelineState) -> Optional[str]:
    """Build the tower to state.levels and check it; gate depth 2 when only
    level 1 was asked for or the construction failed."""
    next_gate = ONE_LEVEL if state.levels < 2 else None
    try:
        tower = build_tower(state.sys, state.m_generators, rep.all_passed(), state.n_generators, state.levels)
    except (TowerError, FrobeniusError) as exc:
        # every step of the construction presumes that M is an algebra: over
        # a non-associative M the FAIL is M's own algebra-axioms
        if state.m_associative:
            rep.add("tower-level-1", FAIL, reason=str(exc))
        else:
            rep.add("tower-level-1", SKIP, reason=f"{NON_ASSOCIATIVE}: {exc}")
        failed = rep.skip(TOWER_CHECKS, "tower construction failed")
        return next_gate or failed
    state.tower = tower
    state.dims["m1"] = tower.M1.dim
    for cid, level in zip(("tower-level-1", "tower-level-2"), tower.levels):
        _construction_result(rep, cid, level.checks)
    if next_gate is not None:
        rep.skip(LEVEL_TWO_CHECKS, next_gate)
    else:
        state.dims["m2"] = tower.M2.dim
        _construction_result(rep, "triple-tensor", tower.emtwo_checks)
        rep.outcome("braid-relations", verify_braid_relations(tower))
        rep.outcome("pimsner-popa", verify_pimsner_popa(tower))
    rep.outcome("cyclic-span", verify_cyclic_span(tower))
    endo = endo_ring_iso(state.sys, tower.levels[0])
    rep.add(
        "endo-ring-iso",
        PASS if endo.ok else FAIL,
        witness=None if endo.ok else {"failures": endo.failures[:3]},
    )
    return next_gate


def _stage_depth2(rep: Reporter, state: PipelineState) -> Optional[str]:
    """Run the depth-2 checks; gate the Hopf stage on depth 2 and on F being
    scalar-valued on C."""
    t, d2 = state.tower, state.d2_override
    if d2 is not None:
        # a designated A, B or C must be a unital subalgebra, as every later
        # stage reads products through its induced algebra
        for name, sub in (("A", d2.A), ("B", d2.B), ("C", d2.C)):
            try:
                sub.induced_algebra()
            except AlgebraError as exc:
                reason = f"designated {name}: {exc}"
                rep.add("second-centralizers", FAIL, reason=reason)
                return rep.skip(DEPTH2_CHECKS, reason)
        rep.add("second-centralizers", PASS,
                witness={"dims": {"A": d2.A.dim, "B": d2.B.dim, "C": d2.C.dim}, "source": d2.source})
    else:
        try:
            A, B, C = second_centralizers(t)
        except AlgebraError as exc:
            if state.m_associative:
                raise
            # the relative commutants need not be subalgebras once M is not associative
            return rep.skip(DEPTH2_CHECKS, f"{NON_ASSOCIATIVE}: {exc}")
        d2 = DepthTwoData(A=A, B=B, C=C)
        rep.add("second-centralizers", PASS,
                witness={"dims": {"A": A.dim, "B": B.dim, "C": C.dim}})
    dims = state.dims
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
    # an exhausted free-basis search decided nothing: SKIP, unless a level disagrees
    levels = (d2.level1, d2.level2)
    stopped = [v.exhausted for v in levels if v.exhausted is not None]
    status = FAIL if any(not v.paths_agree and v.exhausted is None for v in levels) else SKIP if stopped else PASS
    rep.add("depth2-crosscheck", status,
            witness={
                "level1": {"constructive": d2.level1.passed, "tensor_system": d2.level1.tensor_solvable},
                "level2": {"constructive": d2.level2.passed, "tensor_system": d2.level2.tensor_solvable},
            },
            reason=f"tensor system solvable, no free basis among {stopped[0]} combinations" if status == SKIP else None)
    state.hypotheses["depth_two"] = d2.passed()
    if not d2.passed():
        return rep.skip(DEPTH2_CHECKS, "depth-2 hypothesis fails: no orthogonal dual bases in the centralizers")
    if not f_scalar_on_c(t, d2):
        return rep.skip(DEPTH2_CHECKS, "F is not scalar-valued on C (base centralizer C_M(N) is larger than k)")
    rep.outcome("c-structure", verify_c_structure(t, d2))
    _, _, ce_out = conditional_expectations(t, d2)
    rep.outcome("cond-exp-ea-eb", ce_out)
    _, ff_out = verify_f_faithful(t, d2)
    rep.outcome("f-faithful", ff_out)
    naka = nakayama_relations(t, d2, rep.all_passed())
    state.naka = naka
    rep.outcome("nakayama-relations", naka.report)
    return None


def _stage_hopf(rep: Reporter, state: PipelineState) -> Optional[str]:
    """Reconstruct the Hopf pair; gate the Galois stage when it did not complete."""
    incomplete = "Hopf reconstruction did not complete"
    t, d2 = state.tower, state.d2
    pairing, p_out = compute_pairing(t, d2)
    rep.outcome("pairing", p_out)
    if pairing is None:
        rep.skip(HOPF_CHECKS, "pairing unavailable")
        return incomplete
    state.pairing = pairing
    delta, eps, c_out = comultiplication(pairing, t, d2)
    rep.outcome("comultiplication", c_out)
    state.sandwiches = sandwich_maps(t, d2)
    S, s_out = antipode(t, d2, pairing, state.sandwiches)
    rep.outcome("antipode", s_out)
    if S is None:
        rep.skip(HOPF_CHECKS, "no antipode")
        return incomplete
    H_B = HopfStructure(pairing.B_alg, delta, eps, S)
    state.H_B = H_B
    q_b = state.naka.q_B if state.naka is not None else None
    ax = verify_hopf_axioms(H_B, q_scope=q_b, expect_involutive=q_b is not None,
                            tower_ctx=(t, d2, state.sandwiches))
    rep.outcome("hopf-axioms", ax)
    H_A, d_out = dualize(pairing, H_B, t, d2)
    state.H_A = H_A
    rep.outcome("dual-hopf", d_out)
    hypotheses = state.hypotheses
    hypotheses["hopf_reconstructed"] = ax.ok and d_out.ok
    hypotheses["dim_A"] = d2.A.dim
    hypotheses["dim_B"] = d2.B.dim
    return None


def _stage_galois(rep: Reporter, state: PipelineState) -> Optional[str]:
    """The actions, smash products and Galois map of the reconstructed pair."""
    t, d2 = state.tower, state.d2
    # the module-algebra laws run on generators of the acted-on algebra while
    # every check so far passed
    m1_gens = t.levels[0].generators if rep.all_passed() else None
    act_b, out = action_b_on_m1(t, d2, state.H_B, state.sandwiches, m1_gens)
    rep.outcome("action-b-on-m1", out)
    m_img = SubspaceBasis(t.M1, t.incl1.columns)
    rep.outcome("invariants-m1", verify_invariants(act_b, m_img))
    # the smash isomorphisms are decided from the exchange relation on
    # generators under the same gate, read once their actions are recorded
    m1_gens = t.levels[0].generators if rep.all_passed() else None
    rep.outcome("smash-theta", verify_smash_iso_theta(t, d2, state.H_B, act_b, m1_gens))
    m_gens = state.m_generators if rep.all_passed() else None
    act_a, out = action_a_on_m(t, d2, state.H_A, m_gens)
    rep.outcome("action-a-on-m", out)
    if act_a is None or not out.ok:
        return rep.skip(GALOIS_CHECKS, "A-action unavailable")
    ext = state.ext
    n_img = SubspaceBasis(t.M, ext.embed.columns)
    rep.outcome("invariants-m", verify_invariants(act_a, n_img))
    m_gens = state.m_generators if rep.all_passed() else None
    rep.outcome("cleft-cocycle", cleft_data(t, d2, state.H_A, state.pairing, act_a, act_b, m_gens))
    gm = galois_map(act_a, state.sys.tq)
    rep.outcome("galois-map", gm)
    state.hypotheses["galois_extension"] = gm.ok
    return None


_STAGE_RUNS = ((_stage_frobenius, FROBENIUS_CHECKS), (_stage_tower, TOWER_CHECKS), (_stage_depth2, DEPTH2_CHECKS),
               (_stage_hopf, HOPF_CHECKS), (_stage_galois, GALOIS_CHECKS))  # in STAGES order


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
    names = ("strongly_separable", "irreducible", "depth_two")
    held = [k for k in names if hypotheses.get(k)]
    failed_hyp = [k for k in names if hypotheses.get(k) is False]
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
