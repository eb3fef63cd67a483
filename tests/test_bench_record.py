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
