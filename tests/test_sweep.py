"""A fixed slice of the byte-identity sweep (tools/sweep.py): the
quadratic-field and z4/z2 extensions over Q and F7, and z2/z1 over F2, which
is not strongly separable, clean and under each early stop, with every single
structure-constant bump that builds and with every single E bump, end in
reports."""
from conftest import sweep_tool
from test_golden_reports import GOLDEN
from test_pipeline import _unlisted_or_repeated

from hopftower import galois, pipeline
from hopftower.pipeline import run_pipeline
from hopftower.report import FAIL, SKIP

SLICE = ["q/quadratic-field", "f7/quadratic-field", "q/group-pair:z4/z2", "f7/group-pair:z4/z2",
         "f2/group-pair:z2/z1"]


def test_slice_ends_in_reports_with_a_reason_on_every_skip():
    """No input raises, every skipped check names its reason and every check
    of every stage is listed once. The slice
    holds the bumps that once raised from the level extension (c_00^0) and
    from the relative commutants (z4/z2, c_31^0)."""
    sweep = sweep_tool()
    seen = []
    for input_id, ext, d2, run in sweep.inputs(SLICE, models=False):
        report = run_pipeline(ext, d2_override=d2, **run)
        assert [r.check_id for r in report.results if r.status == SKIP and not r.reason] == [], input_id
        assert _unlisted_or_repeated(report, run.get("upto", "galois")) == {}, input_id
        seen.append(input_id)
    # each case clean on the full run and the 5 RUNS, with the bumps under
    # which N stays a unital subalgebra, 7 of the 8 of the quadratic field
    # and of z2/z1 and 56 of the 64 of z4/z2, and with the dim M x dim N
    # bumps of E, 2, 8 and 2
    assert len(seen) == 2 * (6 + 7 + 2) + 2 * (6 + 56 + 8) + (6 + 7 + 2)
    assert {"q/quadratic-field@0.0.0", "f7/quadratic-field@0.0.0",
            "q/group-pair:z4/z2@3.1.0", "f7/group-pair:z4/z2@3.1.0",
            "q/quadratic-field@E.0.1", "f7/group-pair:z4/z2@E.1.3",
            "q/quadratic-field~upto=frobenius", "f7/group-pair:z4/z2~upto=hopf",
            "f2/group-pair:z2/z1~levels=1"} <= set(seen)


def test_clean_inputs_follow_the_golden_path(monkeypatch):
    """A clean catalog input with a golden digest has that digest as its
    line, then the digest of its text report and its exit code; a raising run
    is a line, not the end of the sweep."""
    sweep = sweep_tool()
    lines, expected = {}, {}
    golden = [case_id for case_id in SLICE if case_id in GOLDEN]
    for input_id, ext, d2, run in sweep.inputs(golden, models=False):
        if not run and "@" not in input_id:
            lines[input_id] = sweep.line(ext, d2, run)
            text = run_pipeline(ext, d2_override=d2).render_text()
            expected[input_id] = f"{GOLDEN[input_id]} text={sweep.sha256(text)} exit=0"
    assert lines == expected and set(lines) == set(golden) and len(golden) == 4

    def raising(ext, d2_override=None, **run):
        raise ZeroDivisionError

    monkeypatch.setattr(pipeline, "run_pipeline", raising)
    assert sweep.line(None, None, {}) == "raised: ZeroDivisionError"


def test_c_as_b_inputs_reach_the_closed_gate_galois_path(monkeypatch):
    """The model reports with B also designated as C fail c-structure, so the
    Galois stage forms its smash tables with smash_product and runs the
    module-algebra law of both actions over the basis."""
    sweep = sweep_tool()
    tables, scans = [], []
    real_smash, real_law = galois.smash_product, galois.law_failures

    def smash(act):
        tables.append(act.algebra.dim)
        return real_smash(act)

    def law(failures, generators, basis):
        return real_law(failures, generators, lambda: scans.append(generators) or basis())

    monkeypatch.setattr(galois, "smash_product", smash)
    monkeypatch.setattr(galois, "law_failures", law)
    runs = {}
    for input_id, ext, d2, run in sweep.inputs([], models=True):
        if input_id.endswith("~c=b"):
            tables.clear()
            scans.clear()
            report = run_pipeline(ext, d2_override=d2, **run)
            failed = [r.check_id for r in report.results if r.status == FAIL]
            runs[input_id] = (failed, len(tables), len(scans))
    assert runs == {f"f7/model:{g}~c=b": (["c-structure", "cond-exp-ea-eb", "nakayama-relations", "smash-theta"], 3, 2)
                    for g in ("z2", "z3", "z4")}
