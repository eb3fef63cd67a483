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
