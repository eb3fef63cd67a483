"""The benchmark recorder starts each run from a small process."""
import importlib.util
import resource
import subprocess
import sys
from pathlib import Path

RECORDER = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
PEAK_KB = [sys.executable, "-c", "import resource; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"]


def _recorder():
    spec = importlib.util.spec_from_file_location("bench_record", RECORDER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_launched_run_does_not_inherit_the_recorder_peak():
    """A child started straight from a process holding 100 MB reads that as
    its own ru_maxrss; one started through the recorder's launcher reads its
    own size only."""
    hog = b"x" * (100 << 20)  # written byte by byte, so resident
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    direct_kb = int(subprocess.run(PEAK_KB, capture_output=True, text=True, check=True).stdout)
    launched_kb = int(_recorder().launch(PEAK_KB))
    assert len(hog) == 100 << 20 and own_kb > 100 << 10
    assert direct_kb > 100 << 10
    assert launched_kb < 50 << 10


def test_launcher_keeps_the_exit_status():
    code = subprocess.run([*_recorder().LAUNCHER, sys.executable, "-c", "raise SystemExit(3)"]).returncode
    assert code == 3


def test_src_lines_counts_the_python_files_under_src(tmp_path):
    """Every .py file under src/, nested or not, with or without a final
    newline; other files and files outside src/ are not counted."""
    pkg = tmp_path / "src" / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\n\ny = 2\n", encoding="utf-8")
    (pkg / "sub" / "b.py").write_text("z = 3\nw = 4", encoding="utf-8")
    (pkg / "notes.txt").write_text("not\ncode\n", encoding="utf-8")
    (tmp_path / "setup.py").write_text("outside = True\n", encoding="utf-8")
    assert _recorder().src_lines(tmp_path) == 5


def _pairs(parent: list, change: list, name: str = "verify_s") -> list:
    return [{"parent": {"metrics": {name: p}}, "change": {"metrics": {name: c}}} for p, c in zip(parent, change)]


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # median 1.00, inclusive IQR 0.035


def test_claim_holds_needs_nine_pairs_and_a_gap_past_the_parent_iqr():
    summarize = _recorder().summarize
    lower = {"verify_s": "lower"}
    bound = {"verify_s": 0.25}
    faster = [p - 0.10 for p in PARENT]
    row = summarize(_pairs(PARENT, faster), lower, bound)["verify_s"]
    assert row["change_better_pairs"] == "10/10" and row["claim_holds"] and row["within_bound"]
    # two lost pairs: 8/10 is not enough, whatever the gap
    eight = faster[:8] + [p + 0.5 for p in PARENT[8:]]
    assert not summarize(_pairs(PARENT, eight), lower, bound)["verify_s"]["claim_holds"]
    # every pair won, but by less than the parent's interquartile range
    close = [p - 0.01 for p in PARENT]
    row = summarize(_pairs(PARENT, close), lower, bound)["verify_s"]
    assert row["change_better_pairs"] == "10/10" and not row["claim_holds"]
    # "higher" metrics win the other way
    higher = summarize(_pairs(PARENT, [p + 0.10 for p in PARENT], "pass_ratio"), {"pass_ratio": "higher"},
                       {"pass_ratio": 0.05})["pass_ratio"]
    assert higher["claim_holds"] and higher["within_bound"]


def test_within_bound_reads_the_bound_as_a_fraction_of_the_parent_median():
    summarize = _recorder().summarize
    lower = {"peak_rss_mb": "lower"}
    bound = {"peak_rss_mb": 0.1}
    assert summarize(_pairs(PARENT, [p * 1.09 for p in PARENT], "peak_rss_mb"), lower, bound)["peak_rss_mb"][
        "within_bound"]
    worse = summarize(_pairs(PARENT, [p * 1.11 for p in PARENT], "peak_rss_mb"), lower, bound)["peak_rss_mb"]
    assert not worse["within_bound"] and not worse["claim_holds"]
    higher = {"pass_ratio": "higher"}
    ratio = {"pass_ratio": 0.05}
    assert summarize(_pairs(PARENT, [p * 0.96 for p in PARENT], "pass_ratio"), higher, ratio)["pass_ratio"][
        "within_bound"]
    assert not summarize(_pairs(PARENT, [p * 0.94 for p in PARENT], "pass_ratio"), higher, ratio)["pass_ratio"][
        "within_bound"]


def _traced(values: dict) -> dict:
    return {"metrics": {"metrics": {name: {"unit": unit, "value": v} for name, (unit, v) in values.items()}}}


def test_layer_medians_keep_the_spread_of_the_traced_runs():
    """A per-layer time reads its median, min and max over the traced runs;
    a call count repeats, so all three agree."""
    runs = [_traced({"x.self_s": ("s", t), "x.calls": ("count", 40)}) for t in (0.165, 0.258, 0.165)]
    layers = _recorder().layer_medians(runs)
    assert layers["x.self_s"] == {"unit": "s", "value": 0.165, "min": 0.165, "max": 0.258}
    assert layers["x.calls"] == {"unit": "count", "value": 40, "min": 40, "max": 40}
