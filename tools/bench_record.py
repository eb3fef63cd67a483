"""Compare two commits on every benchmark workload and write a BENCH_*.json.

Exports each commit with ``git archive`` into a fresh temporary directory and
runs its own ``bench/run.py --seconds 30 --trace 0`` there on every workload,
in 10 alternating pairs: pair i uses seed ``--seed0 + i`` on both sides, and
even pairs run the parent first, odd pairs the change. Then it makes one
``--trace 1`` run of ``model-f7`` per side. Run from the repository root, for
example:

    python3 tools/bench_record.py --parent HEAD~1 --change HEAD \
        --seed0 801 --out BENCH_6.json

The file names each side's commit and the git tree of its ``src/``. It holds,
per workload, every pair's end-to-end metrics, each side's median and
quartiles with the number of pairs the change won, and the full ``results``
line of the first pair on each side; and, per side, the traced run's
per-layer metrics and its ``results`` line.
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
SECONDS = 30
TRACE_WORKLOAD = "model-f7"


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], capture_output=True, check=True).stdout


def export(rev: str, into: Path) -> dict:
    """Extract the files of rev into a new directory; its commit and src/ tree."""
    into.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(into, filter="data")
    return {
        "rev": rev,
        "commit": git("rev-parse", f"{rev}^{{commit}}").decode().strip(),
        "src_tree": git("rev-parse", f"{rev}:src").decode().strip(),
    }


def run_bench(root: Path, workload: str, seed: int, trace: int) -> dict:
    """One bench/run.py run: its metrics line and its results line, parsed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    if not lines[-2].startswith("results "):
        raise RuntimeError(f"unexpected bench output in {root}: {lines[-2][:80]!r}")
    return {"metrics": json.loads(lines[-1]), "results": json.loads(lines[-2][len("results "):])}


def summarize(pairs: list, better: dict) -> dict:
    """Per metric: each side's median and quartiles, and the pairs the change
    won (ties count for neither side)."""
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        lower = better[name] == "lower"
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        row = {}
        for side in SIDES:
            q1, med, q3 = statistics.quantiles(values[side], n=4, method="inclusive")
            row[side] = {"median": med, "q1": q1, "q3": q3}
        wins = sum(
            (c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"])
        )
        row["change_better_pairs"] = f"{wins}/{len(pairs)}"
        out[name] = row
    return out


def compare(args, work: Path) -> dict:
    roots = {side: work / side for side in SIDES}
    sides = {side: export(getattr(args, side), roots[side]) for side in SIDES}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
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
            "summary": summarize(flat, better),
            "pairs": flat,
            "results_first_pair": {s: pairs[0][s]["results"] for s in SIDES},
        }
    for side in SIDES:
        run = run_bench(roots[side], TRACE_WORKLOAD, args.seed0, 1)
        record["trace"][side] = {"workload": TRACE_WORKLOAD, "seed": args.seed0,
                                 "metrics": run["metrics"], "results": run["results"]}
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
