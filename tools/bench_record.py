"""Compare two commits on every benchmark workload and write a BENCH_*.json.

Exports each commit with ``git archive`` into a fresh temporary directory and
runs its own ``bench/run.py --seconds 30 --trace 0`` there on every workload,
in 10 alternating pairs: pair i uses seed ``--seed0 + i`` on both sides, and
even pairs run the parent first, odd pairs the change. Then it makes three
``--trace 1`` runs of every workload per side, alternating in the same way, as
a single traced pass carries the whole run-to-run spread of the machine. Run
from the repository root, for example:

    python3 tools/bench_record.py --parent HEAD~1 --change HEAD \
        --seed0 801 --out BENCH_6.json

The file names each side's commit, the git tree of its ``src/`` and the line
count of the Python files under that ``src/``. It holds,
per workload, every pair's end-to-end metrics, each side's median and
quartiles with the number of pairs the change won and the two verdicts of
the acceptance rule (``summarize``; the bounds are read from the change's
``BENCHMARK.json``), and the full ``results``
line of the first pair on each side; and, per workload and side, the median,
min and max of each per-layer metric over the traced runs, beside each
traced run's metrics and ``results`` line. Only the call counts among them
repeat exactly; the per-layer times spread as widely as the machine does.

Each run is started through ``LAUNCHER``, a shell that forks it. A process
started straight from this one would read this process's resident size as
its own starting ``ru_maxrss``, and so as its ``peak_rss_mb``.
"""
from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

WORKLOADS = ("model-f7", "catalog-q", "catalog-fp")
SIDES = ("parent", "change")
PAIRS = 10
TRACED_RUNS = 3
SECONDS = 30
# "$@" is not the last command, so the shell forks it rather than exec it
LAUNCHER = ("/bin/sh", "-c", '"$@"; exit $?', "sh")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], capture_output=True, check=True).stdout


def src_lines(root: Path) -> int:
    """Lines of the Python files under root/src."""
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (root / "src").rglob("*.py"))


def export(rev: str, into: Path) -> dict:
    """Extract the files of rev into a new directory; its commit, src/ tree and
    src/ line count."""
    into.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(into, filter="data")
    return {
        "rev": rev,
        "commit": git("rev-parse", f"{rev}^{{commit}}").decode().strip(),
        "src_tree": git("rev-parse", f"{rev}:src").decode().strip(),
        "src_lines": src_lines(into),
    }


def launch(cmd: list, cwd=None) -> str:
    """The standard output of cmd, run through LAUNCHER."""
    return subprocess.run([*LAUNCHER, *cmd], cwd=cwd, capture_output=True, text=True, check=True).stdout


def run_bench(root: Path, workload: str, seed: int, trace: int) -> dict:
    """One bench/run.py run: its metrics line and its results line, parsed."""
    out = launch([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                  "--seconds", str(SECONDS), "--trace", str(trace)], cwd=root)
    lines = out.strip().splitlines()
    if not lines[-2].startswith("results "):
        raise RuntimeError(f"unexpected bench output in {root}: {lines[-2][:80]!r}")
    return {"metrics": json.loads(lines[-1]), "results": json.loads(lines[-2][len("results "):])}


def summarize(pairs: list, better: dict, bounds: dict) -> dict:
    """Per metric: each side's median and quartiles, the pairs the change won
    (ties count for neither side), and the verdicts of the acceptance rule:
    - claim_holds: the change won at least 9 in 10 of the pairs, and its
      median beats the parent's by more than the parent's interquartile range;
    - within_bound: the change median is no worse than the parent median by
      more than the metric's bound, a fraction of the parent median.
    """
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        sign = 1 if better[name] == "lower" else -1  # sign * (parent - change) > 0: the change is better
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        row = {}
        for side in SIDES:
            q1, med, q3 = statistics.quantiles(values[side], n=4, method="inclusive")
            row[side] = {"median": med, "q1": q1, "q3": q3}
        wins = sum(sign * (p - c) > 0 for p, c in zip(values["parent"], values["change"]))
        row["change_better_pairs"] = f"{wins}/{len(pairs)}"
        parent, change = row["parent"], row["change"]
        gap = sign * (parent["median"] - change["median"])
        row["claim_holds"] = 10 * wins >= 9 * len(pairs) and gap > parent["q3"] - parent["q1"]
        row["within_bound"] = -gap <= bounds[name] * abs(parent["median"])
        out[name] = row
    return out


def layer_medians(runs: list) -> dict:
    """Per metric of the traced runs: its unit, its median value and its min
    and max over the runs. Only call counts repeat exactly from run to run;
    a per-layer time of one traced pass carries the machine's whole
    run-to-run spread, so a time difference inside [min, max] locates
    nothing."""
    metrics = [run["metrics"]["metrics"] for run in runs]
    out = {}
    for name, m in metrics[0].items():
        values = [ms[name]["value"] for ms in metrics]
        out[name] = {"unit": m["unit"], "value": statistics.median(values), "min": min(values), "max": max(values)}
    return out


def compare(args, work: Path) -> dict:
    roots = {side: work / side for side in SIDES}
    sides = {side: export(getattr(args, side), roots[side]) for side in SIDES}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"command": f"bench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
              "sides": sides, "workloads": {}, "trace": {}}
    for workload in WORKLOADS:
        pairs = []
        for i in range(PAIRS):
            seed = args.seed0 + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            runs = {side: run_bench(roots[side], workload, seed, 0) for side in order}
            pairs.append({"seed": seed, "first": order[0], **runs})
            print(workload, seed, {s: runs[s]["metrics"]["metrics"]["verify_s"]["value"] for s in SIDES},
                  file=sys.stderr)
        flat = [
            {"seed": p["seed"], "first": p["first"],
             **{s: {"correct": p[s]["metrics"]["correct"],
                    "metrics": {k: v["value"] for k, v in p[s]["metrics"]["metrics"].items()}}
                for s in SIDES}}
            for p in pairs
        ]
        record["workloads"][workload] = {
            "summary": summarize(flat, better, bounds),
            "pairs": flat,
            "results_first_pair": {s: pairs[0][s]["results"] for s in SIDES},
        }
    for workload in WORKLOADS:
        runs = {side: [] for side in SIDES}
        for i in range(TRACED_RUNS):
            seed = args.seed0 + i
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                runs[side].append({"seed": seed, **run_bench(roots[side], workload, seed, 1)})
        record["trace"][workload] = {
            side: {"median": layer_medians(runs[side]), "runs": runs[side]} for side in SIDES
        }
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--change", required=True, help="git revision of the change")
    ap.add_argument("--seed0", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bench_record_") as work:
        record = compare(args, Path(work))
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
