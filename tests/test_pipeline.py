import hashlib

import pytest
from conftest import non_associative, reference_failures, sweep_tool

from hopftower import algebra, pipeline, tower
from hopftower.fields import PrimeField, RationalField
from hopftower.fileio import canonical_json
from hopftower.frobenius import ExtensionSpec
from hopftower.linalg import LinMap, sparse_scale
from hopftower.models import function_algebra_extension, generate_example
from hopftower.pipeline import run_pipeline
from hopftower.report import FAIL, PASS, SKIP, Reporter

Q = RationalField()


def by_id(report):
    return {r.check_id: r for r in report.results}


def test_upto_frobenius_only(ext_sqrt2):
    report = run_pipeline(ext_sqrt2, upto="frobenius")
    ids = {r.check_id for r in report.results}
    assert "frobenius-identities" in ids
    assert "tower-level-1" not in ids
    assert report.exit_code() == 0


def test_upto_tower(ext_sqrt2):
    report = run_pipeline(ext_sqrt2, upto="tower")
    ids = {r.check_id for r in report.results}
    assert "braid-relations" in ids and "second-centralizers" not in ids


def test_depth2_stage_skipped_at_level_one(ext_sqrt2):
    report = run_pipeline(ext_sqrt2, upto="depth2", levels=1)
    res = by_id(report)
    assert res["depth2-level-1"].status == "skipped"
    assert "--levels 1" in res["depth2-level-1"].reason


def test_full_pipeline_on_model_designated_centralizers(model_z2):
    # the pipeline accepts externally designated A/B/C (model towers); every
    # stage must then pass, reconstructing the dual Hopf pair of dimension |G|
    from hopftower.depth2 import DepthTwoData

    t_fixture, d2_fixture = model_z2
    ext = function_algebra_extension(Q, "z2")
    d2 = DepthTwoData(
        A=d2_fixture.A, B=d2_fixture.B, C=d2_fixture.C, source="model"
    )
    report = run_pipeline(ext, d2_override=d2)
    res = by_id(report)
    failed = [cid for cid, r in res.items() if r.status == "fail"]
    skipped = [cid for cid, r in res.items() if r.status == "skipped"]
    assert not failed, failed
    assert not skipped, skipped
    assert report.hypotheses["dim_A"] == 2 and report.hypotheses["dim_B"] == 2
    assert report.hypotheses["galois_extension"] is True
    assert report.hypotheses["irreducible"] is False  # honest flag stays honest
    assert "hopf_reconstruction" in report.verdict["conclusions_certified"]
    assert "galois_extension" in report.verdict["conclusions_certified"]


def test_full_pipeline_model_f7(model_z3_f7):
    from hopftower.depth2 import DepthTwoData

    t_fixture, d2_fixture = model_z3_f7
    ext = function_algebra_extension(PrimeField(7), "z3")
    d2 = DepthTwoData(A=d2_fixture.A, B=d2_fixture.B, C=d2_fixture.C, source="model")
    report = run_pipeline(ext, d2_override=d2)
    assert report.exit_code() == 0
    assert all(r.status == "pass" for r in report.results)


@pytest.mark.parametrize("name", ["A", "B", "C"])
def test_designated_subspace_not_closed_fails_second_centralizers(model_z3_f7, name):
    """A designated A, B or C whose vector 0 is bumped at its lowest key is
    no longer closed under products: second-centralizers FAILs naming it and
    every later check is skipped with that reason, so no later stage forms
    (and raises on) its induced algebra."""
    from hopftower.algebra import SubspaceBasis
    from hopftower.depth2 import DepthTwoData
    from hopftower.linalg import sparse_add

    _t, d2_fixture = model_z3_f7
    f = PrimeField(7)
    subs = {"A": d2_fixture.A, "B": d2_fixture.B, "C": d2_fixture.C}
    vecs = [dict(v) for v in subs[name].vectors]
    sparse_add(f, vecs[0], min(vecs[0]), f.one)
    subs[name] = SubspaceBasis(subs[name].ambient, vecs)
    report = run_pipeline(function_algebra_extension(f, "z3"), d2_override=DepthTwoData(**subs, source="model"))
    reason = f"designated {name}: subspace not closed under multiplication"
    results = report.results
    at = [r.check_id for r in results].index("second-centralizers")
    assert (results[at].status, results[at].reason) == ("fail", reason)
    assert [r.check_id for r in results if r.status == "fail"] == ["second-centralizers"]
    assert all((r.status, r.reason) == ("skipped", reason) for r in results[at + 1:])
    assert _unlisted_or_repeated(report, "galois") == {}


def test_verdict_shape(ext_s3_z2):
    report = run_pipeline(ext_s3_z2)
    v = report.verdict
    assert set(v) == {"hypotheses_held", "hypotheses_failed", "conclusions_certified", "summary"}
    assert "depth_two" in v["hypotheses_failed"]
    assert "irreducible" in v["hypotheses_failed"]
    assert "tower_identities" in v["conclusions_certified"]


def test_report_counts_and_registry(ext_trivial):
    from hopftower.report import CHECK_STATEMENTS

    report = run_pipeline(ext_trivial)
    for r in report.results:
        assert r.check_id in CHECK_STATEMENTS
        assert r.statement == CHECK_STATEMENTS[r.check_id]
    data = report.to_dict()
    assert set(data) == {"input_digest", "field", "dims", "hypotheses", "checks", "verdict"}
    # no timing anywhere in the serialized report
    import json

    assert "elapsed" not in json.dumps(data)


def test_generated_vs_constructed_extension_agree():
    ext1, _ = generate_example("group-pair", {"group": "s3", "subgroup": "a3"})
    r1 = run_pipeline(ext1, upto="tower")
    ext2, _ = generate_example("group-pair", {"group": "s3", "subgroup": "a3"})
    r2 = run_pipeline(ext2, upto="tower")
    assert [ (r.check_id, r.status) for r in r1.results ] == [
        (r.check_id, r.status) for r in r2.results
    ]
    assert r1.input_digest == r2.input_digest


def test_generators_of_m_are_computed_once(monkeypatch):
    """run_pipeline hands one generating set of M to the algebra-axioms check
    and to the tower, which pass it on as seeds, and one of N to the
    cond-expectation checks and the tower, which use it as it is."""
    calls = []
    real = algebra.generators

    def recording(alg, seeds=()):
        seeds = list(seeds)
        calls.append((alg, seeds))
        return real(alg, seeds)

    for module in (algebra, pipeline, tower):
        monkeypatch.setattr(module, "generators", recording)
    ext, _ = generate_example("group-pair", {"group": "s3", "subgroup": "a3"})
    assert run_pipeline(ext).exit_code() == 0
    from_scratch = [seeds for alg, seeds in calls if alg is ext.M and not seeds]
    assert len(from_scratch) == 1
    assert [seeds for alg, seeds in calls if alg is ext.n_algebra] == [[]]


def _doubled_e(ext):
    """ext with E replaced by 2E, which normalization must rescale."""
    f = ext.M.field
    E = LinMap(f, [sparse_scale(f, f.from_int(2), c) for c in ext.E.columns], ext.E.codomain_dim)
    return ExtensionSpec(ext.M, ext.N, E=E)


@pytest.mark.parametrize(
    "rescale, n_calls, digest",
    [
        (False, 1, "e604f04f79914bee0f924411adc7e6b51fd006f4e13804038e4bcd46ff977d27"),
        (True, 2, "704c427ca94e7f8e8dba9662c8d34d3ba8afeb0bed1447e5cfaf899e5fd78b5f"),
    ],
    ids=["s3/a3", "s3/a3-doubled-E"],
)
def test_cond_expectation_runs_again_only_on_a_rescaled_e(monkeypatch, rescale, n_calls, digest):
    """The Frobenius stage reports the cond-expectation outcome it computed
    on the supplied E, and checks again only the E that normalization made.
    The reports are pinned to the ones of the stage that always checked twice."""
    calls = []
    real = pipeline.verify_conditional_expectation

    def counting(ext, E, **kwargs):
        calls.append(E)
        return real(ext, E, **kwargs)

    monkeypatch.setattr(pipeline, "verify_conditional_expectation", counting)
    ext, _ = generate_example("group-pair", {"group": "s3", "subgroup": "a3"})
    if rescale:
        ext = _doubled_e(ext)
    report = run_pipeline(ext)
    assert len(calls) == n_calls and calls[0] is ext.E
    res = by_id(report)
    assert res["cond-expectation"].status == "pass"
    assert ("normalization" in res) == rescale
    assert hashlib.sha256(canonical_json(report.to_dict()).encode()).hexdigest() == digest


@pytest.mark.parametrize("field", ["rational", "f7"])
@pytest.mark.parametrize(
    "example, params, bump, stopped_at",
    [("group-pair", {"group": "s3", "subgroup": "a3"}, (1, 2, 1), "frobenius-identities"),
     ("group-pair", {"group": "s3", "subgroup": "z2"}, (1, 1, 1), "tower-level-1"),
     ("quadratic-field", {}, (0, 0, 0), "tower-level-1")],
    ids=["s3/a3", "s3/z2", "quadratic-field"],
)
def test_non_associative_m_ends_in_a_report(example, params, bump, stopped_at, field):
    """A non-associative M whose classification (s3/a3: C_M(N) is not closed
    under products) or level extension (s3/z2: incl(M) is not a unital
    subalgebra of M1; quadratic-field, where the bump also breaks the unit
    law: incl is not injective) cannot be formed ends in a report:
    algebra-axioms FAILs with the failure list of the scan over every basis
    element and triple, and the checks that need M to be an algebra are
    skipped with the reason."""
    ext = non_associative(example, dict(params, field=field), bump)
    expected = reference_failures(ext.M)
    assert any("basis" in fl for fl in expected) == (example == "quadratic-field")
    for levels in (1, 2):
        report = run_pipeline(ext, levels=levels)
        res = by_id(report)
        assert res["algebra-axioms"].status == "fail"
        assert res["algebra-axioms"].witness == {"failures": expected[:4]}
        assert [cid for cid, r in res.items() if r.status == "fail"] == ["algebra-axioms"]
        assert res[stopped_at].status == "skipped"
        assert res[stopped_at].reason.startswith(pipeline.NON_ASSOCIATIVE + ": ")
        statuses = [r.status for r in res.values()]
        assert set(statuses[list(res).index(stopped_at):]) == {"skipped"}
        assert report.hypotheses["frobenius"] is (stopped_at == "tower-level-1")
        assert report.exit_code() == 1
        assert canonical_json(report.to_dict()) == canonical_json(run_pipeline(ext, levels=levels).to_dict())
    if example == "quadratic-field":
        assert res[stopped_at].reason == pipeline.NON_ASSOCIATIVE + ": the inclusion of the level below is not injective"


@pytest.mark.parametrize("field", ["rational", "f7"])
def test_non_associative_m_without_second_centralizers_ends_in_a_report(field):
    """z4/z2 with c_31^0 raised: the tower is built and its checks FAIL, and
    the relative commutants cannot be formed, as the image of M is not a
    unital subalgebra of M2. The depth-2 stage and every stage after it are
    skipped with the non-associative reason, at every stage asked for."""
    ext = non_associative("group-pair", {"group": "z4", "subgroup": "z2", "field": field}, (3, 1, 0))
    for upto in ("depth2", "galois"):
        report = run_pipeline(ext, upto=upto)
        res = by_id(report)
        assert res["algebra-axioms"].status == "fail"
        assert {"tower-level-1", "tower-level-2", "endo-ring-iso"} <= {
            cid for cid, r in res.items() if r.status == "fail"}
        after = list(res)[list(res).index("second-centralizers"):]
        assert after[:len(pipeline.DEPTH2_CHECKS)] == list(pipeline.DEPTH2_CHECKS)
        reason = res["second-centralizers"].reason
        assert reason == pipeline.NON_ASSOCIATIVE + ": centralizer: given subspace is not a unital subalgebra"
        assert all(res[cid].status == "skipped" and res[cid].reason == reason for cid in after)
        assert "depth_two" not in report.hypotheses
        assert report.exit_code() == 1
        assert canonical_json(report.to_dict()) == canonical_json(run_pipeline(ext, upto=upto).to_dict())
    one_level = by_id(run_pipeline(ext, levels=1))
    assert one_level["second-centralizers"].reason == pipeline.ONE_LEVEL


# ---------------------------------------------------------------------------
# every stage a run reaches lists each of its checks exactly once
# ---------------------------------------------------------------------------

# the checks of each stage, written out apart from the pipeline's own lists;
# "normalization" is listed only when it ran
STAGE_CHECKS = {
    "frobenius": ("algebra-axioms", "subalgebra-unital", "cond-expectation", "dual-bases",
                  "frobenius-identities", "index-central"),
    "tower": ("tower-level-1", "tower-level-2", "triple-tensor", "braid-relations", "pimsner-popa",
              "cyclic-span", "endo-ring-iso"),
    "depth2": ("second-centralizers", "depth2-level-1", "depth2-level-2", "depth2-crosscheck",
               "c-structure", "cond-exp-ea-eb", "f-faithful", "nakayama-relations"),
    "hopf": ("pairing", "comultiplication", "antipode", "hopf-axioms", "dual-hopf"),
    "galois": ("action-b-on-m1", "invariants-m1", "smash-theta", "action-a-on-m", "invariants-m",
               "cleft-cocycle", "galois-map"),
}

# the catalog cases of tools/sweep.py over Q and F7, and m2f2 over F2
CATALOG_INPUTS = [case for case_id, case in sweep_tool().catalog().items()
                  if case_id.startswith(("q/", "f7/")) or case_id == "f2/m2f2"]


def _unlisted_or_repeated(report, upto: str) -> dict:
    """check id -> times listed, for every check listed other than once among
    the stages up to `upto`, and for any check from outside them."""
    stages = list(STAGE_CHECKS)[: pipeline.STAGES.index(upto) + 1]
    want = [cid for stage in stages for cid in STAGE_CHECKS[stage]]
    ids = [r.check_id for r in report.results]
    out = {cid: ids.count(cid) for cid in want if ids.count(cid) != 1}
    out.update({cid: ids.count(cid) for cid in ids if cid not in want and cid != "normalization"})
    if ids.count("normalization") > 1:
        out["normalization"] = ids.count("normalization")
    return out


@pytest.mark.parametrize(
    "example, params", CATALOG_INPUTS, ids=[f"{e}:{'/'.join(p.values())}" for e, p in CATALOG_INPUTS]
)
def test_catalog_reports_list_every_check_once(example, params):
    ext, _ = generate_example(example, params)
    for upto in pipeline.STAGES:
        for levels in (1, 2):
            assert _unlisted_or_repeated(run_pipeline(ext, upto=upto, levels=levels), upto) == {}, (upto, levels)


def _fn_z2(E_entries=None, pairs=True):
    """k^(Z/2) over k 1 over Q, with E given by its two entries and the
    model's dual bases (|G| delta_g, delta_g) when pairs is set."""
    ext = function_algebra_extension(Q, "z2")
    E = None if E_entries is None else LinMap(Q, [{0: Q.parse(v)} if v != "0" else {} for v in E_entries], 1)
    return ExtensionSpec(ext.M, ext.N, E=E, dual_pairs=ext.dual_pairs if pairs else None)


# one input per early exit of the Frobenius stage, with the reason it hands on
FROBENIUS_EXITS = {
    "no-E": (lambda: _fn_z2(None), "no conditional expectation supplied"),
    "dual-bases-unsolvable": (lambda: _fn_z2(("0", "0"), pairs=False),
                              "no Frobenius system: dual bases could not be solved"),
    "supplied-pairs-disagree": (lambda: _fn_z2(("1", "1")),
                                "supplied dual bases disagree with the unique solved tensor"),
    "normalization-fails": (lambda: _fn_z2(("1", "-1"), pairs=False),
                            "normalization failed: E(1) = 0, cannot normalize"),
    "non-associative": (
        lambda: non_associative("group-pair", {"group": "s3", "subgroup": "a3"}, (1, 2, 1)),
        pipeline.NON_ASSOCIATIVE + ": ",
    ),
}


@pytest.mark.parametrize("exit_name", list(FROBENIUS_EXITS))
def test_frobenius_exits_list_every_check_once(exit_name):
    """An exit of the Frobenius stage before its system is complete reports
    the cond-expectation outcome it computed, skips the stage's checks it did
    not reach, and hands the tower stage the same reason."""
    make, reason = FROBENIUS_EXITS[exit_name]
    ext = make()
    for upto in pipeline.STAGES:
        for levels in (1, 2):
            report = run_pipeline(ext, upto=upto, levels=levels)
            assert _unlisted_or_repeated(report, upto) == {}, (upto, levels)
            assert report.hypotheses["frobenius"] is False
            assert report.exit_code() == 1
    res = by_id(report)
    assert ("normalization" in res) == (exit_name == "normalization-fails")
    assert res["index-central"].status == "skipped" and res["index-central"].reason.startswith(reason)
    assert res["tower-level-1"].reason == res["index-central"].reason


# one early exit per construction of the Hopf and Galois stages that can come
# back empty: the patched function, the check it records, the reason its stage
# skips the rest of its checks with, and the gate it hands the next stage
HOPF_GALOIS_EXITS = {
    "no-pairing": ("compute_pairing", "pairing", "pairing unavailable", "Hopf reconstruction did not complete"),
    "no-antipode": ("antipode", "antipode", "no antipode", "Hopf reconstruction did not complete"),
    "no-action": ("action_a_on_m", "action-a-on-m", "A-action unavailable", None),
}


@pytest.mark.parametrize("exit_name", list(HOPF_GALOIS_EXITS))
def test_hopf_and_galois_exits_list_every_check_once(monkeypatch, exit_name):
    """On the trivial extension, where every check passes, a construction
    patched to return its own outcome but no object ends its stage: the rest
    of the stage is skipped with the stage's reason, in order, and every check
    of the later stages with the gate it hands on."""
    name, check_id, reason, gate = HOPF_GALOIS_EXITS[exit_name]
    real = getattr(pipeline, name)
    monkeypatch.setattr(pipeline, name, lambda *args: (None, real(*args)[1]))
    ext, _sidecar = generate_example("trivial")
    stage = next(s for s, checks in STAGE_CHECKS.items() if check_id in checks)
    for upto in pipeline.STAGES[pipeline.STAGES.index(stage):]:
        report = run_pipeline(ext, upto=upto)
        assert _unlisted_or_repeated(report, upto) == {}, upto
        assert [r.check_id for r in report.results if r.status == SKIP and not r.reason] == [], upto
        assert report.exit_code() == 0
    res = by_id(report)
    assert res[check_id].status == PASS
    rest = list(STAGE_CHECKS[stage][STAGE_CHECKS[stage].index(check_id) + 1:])
    later = [cid for s in list(STAGE_CHECKS)[pipeline.STAGES.index(stage) + 1:] for cid in STAGE_CHECKS[s]]
    assert list(res)[list(res).index(check_id) + 1:] == rest + later
    assert [(res[cid].status, res[cid].reason) for cid in rest] == [(SKIP, reason)] * len(rest)
    assert [(res[cid].status, res[cid].reason) for cid in later] == [(SKIP, gate)] * len(later)


def test_skip_records_only_the_checks_not_yet_recorded():
    """Reporter.skip leaves a recorded check as it is and skips the others in
    the order given, so an early exit passes its stage's whole tuple."""
    rep = Reporter()
    rep.add("pairing", PASS)
    rep.add("antipode", FAIL)
    assert rep.skip(pipeline.HOPF_CHECKS, "no antipode") == "no antipode"
    assert [(r.check_id, r.status, r.reason) for r in rep.results] == [
        ("pairing", PASS, None),
        ("antipode", FAIL, None),
        ("comultiplication", SKIP, "no antipode"),
        ("hopf-axioms", SKIP, "no antipode"),
        ("dual-hopf", SKIP, "no antipode"),
    ]
