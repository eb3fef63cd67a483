"""hopftower benchmark: time to a verified report, one case at a time.

Each case follows the user path in-process: extension JSON text ->
fileio.extension_from_dict -> pipeline.run_pipeline ->
fileio.canonical_json(report.to_dict()). The loop is closed: one process,
one case at a time, no threads. The seed sets the case order within each
pass; the program only sees the generated extension text (and, for the model
workload, the model centralizers the tests also pass as ``d2_override``).

Run from the repository root:

    python3 bench/run.py --workload catalog-q --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
untraced passes, then one traced set-up and one traced pass, and prints the
per-layer metrics (see tracer.py). Every report is checked against the
hand-written table in expected.json. The last line of standard output is the
result object; the line before it holds the per-case sha256 of every report
and the run metadata.
"""
from __future__ import annotations

import argparse
import copy
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from pathlib import Path
from typing import Optional

from tracer import PER_LAYER, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
MIN_PASSES = 3
clock = time.perf_counter

# The shared host this was tuned on changes speed by up to a factor of 1.8
# within seconds, and a slow or fast spell can outlast a run. So a fixed
# stdlib-only loop (calibration_s) is timed CAL_LOOPS times just before and
# just after every measured piece of work, and once every PROBE_INTERVAL_S
# while it runs. The work's wall time, less the time spent in those probes, is
# multiplied by the mean of CAL_REF_S / loop time over all the samples: the
# machine's average speed relative to the reference speed. Reported times read
# as seconds at that reference speed; the wall times go to the results line.
# The loop calls no hopftower code, so a change to the program moves the
# scaled time as much as the wall time.
CAL_LOOPS = 20
PROBE_INTERVAL_S = 0.02
CAL_REF_S = 0.0002  # about the loop's mean time on a 2-core Xeon VM at 2.0 GHz, Python 3.11

# Every parameter set generate_example accepts for the catalog entries that
# take a field parameter (m2f2 is fixed to F_2).
CATALOG = (
    ("trivial", ()),
    ("quadratic-field", ()),
    ("group-pair", (("group", "s3"), ("subgroup", "a3"))),
    ("group-pair", (("group", "s3"), ("subgroup", "z2"))),
    ("group-pair", (("group", "z4"), ("subgroup", "z2"))),
    ("group-pair", (("group", "z2"), ("subgroup", "z1"))),
    ("function-algebra", (("group", "z2"),)),
    ("function-algebra", (("group", "z3"),)),
    ("function-algebra", (("group", "z4"),)),
)


@dataclass(frozen=True)
class Case:
    id: str
    example: str
    params: tuple
    model: bool = False  # run with the model centralizers of k^G as d2_override


def catalog_cases(field: str, tag: str) -> list:
    out = []
    for example, params in CATALOG:
        label = "/".join(v for k, v in params if k in ("group", "subgroup"))
        case_id = f"{tag}/{example}" + (f":{label}" if label else "")
        out.append(Case(case_id, example, params + (("field", field),)))
    return out


WORKLOADS = {
    "catalog-q": catalog_cases("rational", "q"),
    "catalog-fp": catalog_cases("f7", "f7") + [Case("f2/m2f2", "m2f2", ())],
    "model-f7": [
        Case(f"f7/model:{g}", "function-algebra", (("group", g), ("field", "f7")), model=True)
        for g in ("z2", "z3", "z4")
    ],
}

END_TO_END = (
    ("verify_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_ratio", "ratio"),
)


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------


def calibration_s() -> float:
    """Wall time of a fixed loop of dict updates and Fraction sums."""
    t0 = clock()
    counts, total = {}, Fraction(0)
    for i in range(300):
        k = (i * 7919) % 211
        counts[k] = counts.get(k, 0) + i
        if i % 10 == 0:
            total += Fraction(i % 13 + 1, i % 11 + 2)
    if sum(3 * v for v in counts.values()) != 134550 or total != Fraction(134411, 3465):
        raise RuntimeError("calibration loop computed a wrong value")
    return clock() - t0


calibrations = []  # every loop time measured in this process


def measured(work) -> tuple:
    """Run work(); (seconds scaled to the reference speed, wall seconds, its result).

    The heap is collected first, so that no garbage of earlier work is
    collected on this work's time. The probes during the work come from a
    SIGALRM interval timer. The collector is off inside a probe, so that a
    collection the work's own allocations are due for is not charged to the
    probe.
    """
    gc.collect()
    samples = [calibration_s() for _ in range(CAL_LOOPS)]
    in_probes = 0.0

    def probe(_signum, _frame):
        nonlocal in_probes
        t0 = clock()
        enabled = gc.isenabled()
        gc.disable()
        try:
            samples.append(calibration_s())
        finally:
            if enabled:
                gc.enable()
        in_probes += clock() - t0

    previous = signal.signal(signal.SIGALRM, probe)
    t0 = clock()
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    try:
        out = work()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = clock() - t0 - in_probes
        signal.signal(signal.SIGALRM, previous)
    samples.extend(calibration_s() for _ in range(CAL_LOOPS))
    calibrations.extend(samples)
    return wall * statistics.fmean(CAL_REF_S / s for s in samples), wall, out


# ---------------------------------------------------------------------------
# set-up: import the package and generate the inputs
# ---------------------------------------------------------------------------


@dataclass
class Input:
    case: Case
    text: str  # the extension file, as a user would hand it to `hopftower verify`
    model_abc: Optional[tuple] = None  # (A, B, C) of the model tower


class Program:
    """The freshly imported hopftower modules the benchmark calls."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "hopftower" or n.startswith("hopftower.")]:
            del sys.modules[name]
        pkg = importlib.import_module("hopftower")
        if Path(pkg.__file__).resolve().parent != SRC / "hopftower":
            raise RuntimeError(f"imported hopftower from {pkg.__file__}, not from {SRC}")
        for name in ("depth2", "fields", "fileio", "models", "pipeline"):
            setattr(self, name, importlib.import_module(f"hopftower.{name}"))


def set_up(cases: list) -> tuple:
    prog = Program()
    return prog, generate(prog, cases)


def generate(prog: Program, cases: list) -> list:
    inputs = []
    for case in cases:
        ext, _sidecar = prog.models.generate_example(case.example, dict(case.params))
        text = prog.fileio.canonical_json(prog.fileio.extension_to_dict(ext))
        abc = None
        if case.model:
            bundle = prog.models.model_bundle(f"function-algebra:{dict(case.params)['group']}", ext.M.field)
            _tower, d2, rep = prog.models.model_tower(bundle)
            if not rep.ok:
                raise RuntimeError(f"{case.id}: model tower fails its own checks: {rep.failures[:1]}")
            abc = (d2.A, d2.B, d2.C)
        inputs.append(Input(case, text, abc))
    return inputs


# ---------------------------------------------------------------------------
# one verification, and its judgement
# ---------------------------------------------------------------------------


def verify(prog: Program, inp: Input) -> tuple:
    """(scaled seconds, wall seconds, report text or None, exit code or None, error or None)."""
    d2 = None
    if inp.model_abc is not None:
        # check_depth_two fills the override in place, so every run gets fresh
        # copies; copying is not timed
        A, B, C = copy.deepcopy(inp.model_abc)
        d2 = prog.depth2.DepthTwoData(A=A, B=B, C=C, source="model")

    def work():
        try:
            ext = prog.fileio.extension_from_dict(json.loads(inp.text))
            report = prog.pipeline.run_pipeline(ext, d2_override=d2)
            return prog.fileio.canonical_json(report.to_dict()), report.exit_code(), None
        except Exception as exc:  # a raising case is a failed case, not a crashed benchmark
            return None, None, f"raised {type(exc).__name__}: {exc}"

    seconds, wall, (text, exit_code, error) = measured(work)
    return seconds, wall, text, exit_code, error


def observe(report: dict, exit_code: int) -> dict:
    """The facts of a report that expected.json may pin down."""
    status = {c["id"]: c["status"] for c in report["checks"]}
    hyp, dims = report["hypotheses"], report["dims"]
    out = {k: dims.get(k) for k in ("m", "m1", "m2")}
    for k in ("lambda_inverse", "split", "separable", "strongly_separable", "irreducible",
              "dim_A", "dim_B", "galois_extension"):
        out[k] = hyp.get(k)
    out["depth2-level-1"] = status.get("depth2-level-1")
    out["depth2-level-2"] = status.get("depth2-level-2")
    out["hopf_ran"] = status.get("pairing", "skipped") != "skipped"
    out["galois_ran"] = status.get("action-b-on-m1", "skipped") != "skipped"
    out["failed_checks"] = sorted(cid for cid, s in status.items() if s == "fail")
    out["skipped_checks"] = sorted(cid for cid, s in status.items() if s == "skipped")
    out["exit_code"] = exit_code
    return out


def mismatches(expect: dict, observed: dict) -> dict:
    """key -> observed value, for every expected key the report disagrees on."""
    return {k: observed[k] for k, v in expect.items() if k != "known_defect" and observed[k] != v}


@dataclass
class CaseLog:
    expect: dict
    times: list = dc_field(default_factory=list)
    wall_times: list = dc_field(default_factory=list)
    traced_times: list = dc_field(default_factory=list)
    sha256: Optional[str] = None
    runs: int = 0
    failed_runs: int = 0
    problems: list = dc_field(default_factory=list)
    unexpected: bool = False  # a failure other than the case's known defect

    def record(self, seconds: float, wall: float, text, exit_code, error, traced: bool) -> bool:
        """Judge one run; True when it failed."""
        if traced:
            self.traced_times.append(seconds)
        else:
            self.times.append(seconds)
            self.wall_times.append(wall)
        self.runs += 1
        problems, unexpected = [], False
        if error is not None:
            problems.append(error)
            unexpected = True
        else:
            sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if self.sha256 is None:
                self.sha256 = sha
            elif sha != self.sha256:
                problems.append(f"report bytes differ from the first run ({'traced' if traced else 'untraced'})")
                unexpected = True
            known = self.expect.get("known_defect", {})
            for k, got in mismatches(self.expect, observe(json.loads(text), exit_code)).items():
                problems.append(f"{k}: expected {self.expect[k]!r}, got {got!r}")
                unexpected = unexpected or k not in known or known[k] != got
        for p in problems:
            if p not in self.problems:
                self.problems.append(p)
        self.unexpected = self.unexpected or unexpected
        self.failed_runs += bool(problems)
        return bool(problems)

    def status(self) -> str:
        if not self.failed_runs:
            return "pass"
        return "FAIL" if self.unexpected else "known-defect"


def load_expected(path: Path = BENCH / "expected.json") -> dict:
    data = json.loads(path.read_text(encoding="utf-8"))
    return {cid: {**data["defaults"], **entry} for cid, entry in data["cases"].items()}


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    details: dict


def run_workload(name: str, cases: list, seed: int, seconds: float, trace: bool, expected: dict) -> Result:
    setup_times, setup_wall, inputs, prog = [], [], None, None
    for _ in range(SETUP_REPEATS):
        scaled, wall, (prog, fresh) = measured(lambda: set_up(cases))
        setup_times.append(scaled)
        setup_wall.append(wall)
        if inputs is not None and [i.text for i in fresh] != [i.text for i in inputs]:
            raise RuntimeError("input generation is not deterministic")
        inputs = fresh

    logs = {inp.case.id: CaseLog(expected[inp.case.id]) for inp in inputs}
    rng = random.Random(seed)
    failed_untraced = attempted_untraced = passes = 0
    start, pass_s = clock(), 0.0
    # a pass starts only while one as long as the last can still end in time
    while passes < MIN_PASSES or clock() - start + pass_s <= seconds:
        t0 = clock()
        order = list(inputs)
        rng.shuffle(order)
        for inp in order:
            failed_untraced += logs[inp.case.id].record(*verify(prog, inp), traced=False)
            attempted_untraced += 1
        passes += 1
        pass_s = clock() - t0
    verify_s = sum(statistics.median(log.times) for log in logs.values())

    if not trace:
        metrics = {
            "verify_s": verify_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_ratio": 1 - failed_untraced / attempted_untraced,
        }
        units = dict(END_TO_END)
    else:
        with Tracer() as tracer:
            traced = generate(prog, cases)
            if [i.text for i in traced] != [i.text for i in inputs]:
                raise RuntimeError("traced input generation differs from the untraced one")
            order = list(traced)
            rng.shuffle(order)
            for inp in order:
                logs[inp.case.id].record(*verify(prog, inp), traced=True)
        metrics = tracer.metrics()
        traced_s = sum(log.traced_times[0] for log in logs.values())
        metrics["trace.overhead_s"] = traced_s - verify_s
        units = dict(PER_LAYER)

    details = {
        "workload": name,
        "seed": seed,
        "passes": passes,
        "setup_s_each": setup_times,
        "setup_wall_s_each": setup_wall,
        "verify_wall_s": sum(statistics.median(log.wall_times) for log in logs.values()),
        "calibration_median_s": statistics.median(calibrations),
        "meta": metadata(prog),
        "cases": {
            cid: {
                "status": log.status(),
                "sha256": log.sha256,
                "median_s": statistics.median(log.times),
                "times_s": log.times,
                "wall_times_s": log.wall_times,
                "problems": log.problems,
            }
            for cid, log in sorted(logs.items())
        },
    }
    return Result(
        correct=not any(log.unexpected for log in logs.values()),
        attempted=sum(log.runs for log in logs.values()),
        failed=sum(log.failed_runs for log in logs.values()),
        metrics={k: (v, units[k]) for k, v in metrics.items()},
        details=details,
    )


def metadata(prog: Program) -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "hopftower").glob("*.py"))
    return {
        "scalar_backend": prog.fields._rat.__module__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_lines": src_lines,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def emit(result: Result, out=sys.stdout) -> None:
    d = result.details
    print(f"workload {d['workload']}: seed {d['seed']}, {d['passes']} untraced passes over "
          f"{len(d['cases'])} cases, closed loop, one process", file=out)
    for cid, c in d["cases"].items():
        line = f"  {cid:26s} {c['status']:12s} {c['median_s']:9.4f} s  sha256 {c['sha256']}"
        print(line + "".join(f"\n      {p}" for p in c["problems"]), file=out)
    for name, (value, unit) in result.metrics.items():
        print(f"{name} = {value:.6g} {unit}", file=out)
    print(f"correct = {result.correct}, failed {result.failed} of {result.attempted} case runs", file=out)
    print("results " + json.dumps(d, sort_keys=True), file=out)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }), file=out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hopftower" / "__init__.py").is_file():
        print(f"error: no hopftower package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), load_expected())
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
