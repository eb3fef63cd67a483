"""Tests of the benchmark itself, on a two-case smoke list.

    python3 -m pytest bench/test_bench.py
"""
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracer import PER_LAYER, Tracer

BENCH = Path(run.__file__).resolve().parent
SMOKE_IDS = ("q/trivial", "f7/quadratic-field")


@pytest.fixture(scope="module", autouse=True)
def on_path():
    sys.path.insert(0, str(run.SRC))
    yield
    sys.path.remove(str(run.SRC))


def smoke_cases():
    by_id = {c.id: c for cases in run.WORKLOADS.values() for c in cases}
    return [by_id[cid] for cid in SMOKE_IDS]


def smoke(expected=None, trace=False):
    return run.run_workload("smoke", smoke_cases(), seed=1, seconds=0, trace=trace,
                            expected=expected or run.load_expected())


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_end_to_end_metrics_printed_by_name_with_unit():
    result = smoke()
    out = io.StringIO()
    run.emit(result, out)
    text = out.getvalue()
    final = last_json(text)
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0
    assert final["attempted"] == run.MIN_PASSES * len(SMOKE_IDS)
    for name, unit in run.END_TO_END:
        assert final["metrics"][name]["unit"] == unit
        assert final["metrics"][name]["value"] > 0
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in text.splitlines())
    details = json.loads(text.splitlines()[-2][len("results "):])
    assert set(details["meta"]) == {"scalar_backend", "python", "nproc", "commit", "src_lines"}
    assert all(len(c["sha256"]) == 64 for c in details["cases"].values())


def test_wrong_expected_outcome_counts_as_failure():
    expected = run.load_expected()
    expected["q/trivial"] = {**expected["q/trivial"], "lambda_inverse": "2"}
    result = smoke(expected)
    assert result.failed == run.MIN_PASSES
    assert result.metrics["pass_ratio"][0] == pytest.approx(0.5)
    assert result.correct is False
    assert result.details["cases"]["q/trivial"]["status"] == "FAIL"


def test_known_defect_counts_as_failure_but_not_as_incorrect():
    expected = run.load_expected()
    expected["q/trivial"] = {**expected["q/trivial"], "lambda_inverse": "2",
                             "known_defect": {"lambda_inverse": "1"}}
    result = smoke(expected)
    assert result.failed == run.MIN_PASSES
    assert result.correct is True
    assert result.details["cases"]["q/trivial"]["status"] == "known-defect"


def test_times_are_scaled_by_the_calibration_loop(monkeypatch):
    monkeypatch.setattr(run, "calibration_s", lambda: 2 * run.CAL_REF_S)
    scaled, wall, out = run.measured(lambda: "done")
    assert out == "done"
    assert scaled == pytest.approx(wall / 2)


def bindings():
    """Every binding in the hopftower modules and the classes they define."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "hopftower" or name.startswith("hopftower."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type):
                    for member, v in vars(value).items():
                        out[(name, attr, member)] = v
    return out


def test_tracer_restores_every_binding():
    prog = run.Program()
    (inp,) = run.generate(prog, smoke_cases()[:1])
    before = bindings()
    with Tracer() as tracer:
        _, _, traced_text, _, error = run.verify(prog, inp)
        assert error is None
        during = bindings()
        assert any(during[k] is not before[k] for k in before)
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    calls = {k: s.calls for k, s in tracer.stats.items()}
    assert calls["pipeline.run_pipeline"] == 1 and calls["linalg.rref"] > 0
    _, _, text, _, _ = run.verify(prog, inp)
    assert text == traced_text
    assert {k: s.calls for k, s in tracer.stats.items()} == calls


def test_traced_run_reports_every_per_layer_metric():
    result = smoke(trace=True)
    assert result.correct is True and result.failed == 0
    assert [(k, u) for k, (_v, u) in result.metrics.items()] == list(PER_LAYER)
    m = {k: v for k, (v, _u) in result.metrics.items()}
    assert m["pipeline.run_pipeline.incl_s"] >= sum(m[f"pipeline.stage.{s}_s"] for s in
                                                    ("frobenius", "tower", "depth2", "hopf", "galois"))
    assert m["models.generate_example.incl_s"] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    ids = {c.id for cases in run.WORKLOADS.values() for c in cases}
    assert ids == set(run.load_expected())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "catalog-fp", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
