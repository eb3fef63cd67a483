"""Byte-identity sweep: one line per input of a fixed corpus, the sha256 of
its canonical JSON report, of its text report (``render_text``) and its exit
code, as ``<json sha256> text=<sha256> exit=<code>``, or ``raised: <type>``
when the run raised.

The corpus:

- the 9 catalog examples over Q, F7, F5, F3 and F2, but those
  generate_example refuses (function-algebra z3 over F3, function-algebra z2
  and z4 and quadratic-field d=2 over F2), plus m2f2 over F2, through the
  user path of tests/test_golden_reports.py (generate_example ->
  canonical_json of extension_to_dict -> extension_from_dict ->
  run_pipeline), so the digests over Q and F7 are the golden ones;
- each of them with every single structure-constant bump: c_ij^k of M raised
  by one for one (i, j, k), whenever N is still a unital subalgebra of the
  bumped M (else the extension does not build);
- those with dim M <= 6 with every single E bump: entry (r, m) of E, the
  N-coordinate r of E(e_m), raised by one (253 inputs);
- the three model-f7 reports: function-algebra z2, z3 and z4 over F7 with the
  model tower's A, B and C as ``d2_override``, as bench/run.py runs them;
- each clean catalog case and model report also under every ``upto`` before
  galois and under ``levels=1`` (RUNS), so each stage's skip path is swept;
  the id ends in "~upto=<stage>" or "~levels=1";
- the three model reports with the model's B also designated as C (ids
  "f7/model:<g>~c=b"): c-structure fails, so the Galois stage runs its
  closed-gate path, the smash tables of smash_product and the module-algebra
  basis scans, which no other input reaches.

Run from the repository root:

    python3 tools/sweep.py                     # this tree's lines
    python3 tools/sweep.py --parent HEAD~1     # and the inputs that differ at HEAD~1

Each tree is swept in a child process with its own src/ on PYTHONPATH. With
--parent, REV is first exported through bench_record.export into a temporary
directory; the inputs whose lines differ are listed with both lines, and the
exit status is 1 when there is any.
"""
from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from itertools import product
from pathlib import Path
from typing import Iterator, Optional

ROOT = Path(__file__).resolve().parent.parent

# the one list of catalog cases: tests/test_golden_reports.py and
# tests/test_pipeline.py read it through catalog(); bench/run.py keeps a copy
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
FIELDS = (("rational", "q"), ("f7", "f7"), ("f5", "f5"), ("f3", "f3"), ("f2", "f2"))
MODEL_GROUPS = ("z2", "z3", "z4")
E_BUMP_MAX_DIM = 6  # the cases whose E is bumped entry by entry
# the run_pipeline options each clean input is also run under
RUNS = ({"upto": "frobenius"}, {"upto": "tower"}, {"upto": "depth2"}, {"upto": "hopf"}, {"levels": 1})


def catalog() -> dict:
    """case id -> (example name, generate_example params) for every case of
    CATALOG over FIELDS that generate_example accepts, and m2f2 over F2; ids
    as in bench/run.py."""
    from hopftower.models import ModelError, generate_example

    out = {}
    for field, tag in FIELDS:
        for example, params in CATALOG:
            case = (example, dict(params, field=field))
            try:
                generate_example(*case)
            except ModelError:  # char k divides |G|, or d = 0 in k
                continue
            label = "/".join(v for k, v in params if k in ("group", "subgroup"))
            out[f"{tag}/{example}" + (f":{label}" if label else "")] = case
    out["f2/m2f2"] = ("m2f2", {})
    return out


def bumped(ext, bump: tuple):
    """ext with c_ij^k of M raised by one, bump = (i, j, k), or None when N is
    no longer a unital subalgebra of the bumped M."""
    from hopftower.algebra import Algebra, AlgebraError, SubspaceBasis
    from hopftower.frobenius import ExtensionSpec

    M = ext.M
    bad = Algebra.from_entries(M.field, M.dim, M.entries() + [bump + (M.field.one,)], M.unit)
    try:
        return ExtensionSpec(bad, SubspaceBasis(bad, ext.N.vectors), E=ext.E)
    except AlgebraError:
        return None


def e_bumped(ext, row: int, col: int):
    """ext with entry (row, col) of E, the N-coordinate row of E(e_col),
    raised by one. Supplied dual bases are dropped, as for bumped(): the run
    solves them from the bumped E."""
    from hopftower.frobenius import ExtensionSpec
    from hopftower.linalg import LinMap, sparse_add

    f = ext.M.field
    cols = [dict(c) for c in ext.E.columns]
    sparse_add(f, cols[col], row, f.one)
    return ExtensionSpec(ext.M, ext.N, E=LinMap(f, cols, ext.E.codomain_dim))


def inputs(case_ids: Optional[list] = None, models: bool = True) -> Iterator[tuple]:
    """(input id, extension, d2_override, run_pipeline options) over the
    corpus, or over the named catalog cases and their bumps; a bumped input's
    id is the case id with "@i.j.k" for c_ij^k, and with "@E.r.m" for entry
    (r, m) of E."""
    from hopftower.depth2 import DepthTwoData
    from hopftower.fileio import canonical_json, extension_from_dict, extension_to_dict
    from hopftower.models import generate_example, model_bundle, model_tower

    cases = catalog()
    for case_id in cases if case_ids is None else case_ids:
        ext, _sidecar = generate_example(*cases[case_id])
        text = canonical_json(extension_to_dict(ext))
        yield from _runs(case_id, lambda: (extension_from_dict(json.loads(text)), None))
        for bump in product(range(ext.M.dim), repeat=3):
            bad = bumped(ext, bump)
            if bad is not None:
                yield f"{case_id}@{'.'.join(map(str, bump))}", bad, None, {}
        if ext.M.dim <= E_BUMP_MAX_DIM:
            for row, col in product(range(ext.N.dim), range(ext.M.dim)):
                yield f"{case_id}@E.{row}.{col}", e_bumped(ext, row, col), None, {}
    if not models:
        return
    for group in MODEL_GROUPS:
        ext, _sidecar = generate_example("function-algebra", {"group": group, "field": "f7"})
        text = canonical_json(extension_to_dict(ext))
        _tower, d2, rep = model_tower(model_bundle(f"function-algebra:{group}", ext.M.field))
        if not rep.ok:
            raise RuntimeError(f"model tower z{group} fails its own checks: {rep.failures[:1]}")
        yield from _runs(f"f7/model:{group}", lambda: (
            extension_from_dict(json.loads(text)),
            DepthTwoData(*copy.deepcopy((d2.A, d2.B, d2.C)), source="model")))
        yield (f"f7/model:{group}~c=b", extension_from_dict(json.loads(text)),
               DepthTwoData(*copy.deepcopy((d2.A, d2.B, d2.B)), source="model"), {})


def _runs(input_id: str, fresh) -> Iterator[tuple]:
    """input_id on the full run, then under each of RUNS, each on its own
    (extension, d2_override) from fresh()."""
    for run in ({}, *RUNS):
        yield (input_id + "".join(f"~{k}={v}" for k, v in run.items()), *fresh(), run)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def line(ext, d2_override, run: dict) -> str:
    """The sha256 of the canonical JSON report and of the text report, and
    the exit code, or "raised: <type>", of run_pipeline with the options run."""
    from hopftower.fileio import canonical_json
    from hopftower.pipeline import run_pipeline

    try:
        report = run_pipeline(ext, d2_override=d2_override, **run)
        json_text, text = canonical_json(report.to_dict()), report.render_text()
    except Exception as exc:  # a raising input is a line of the sweep, not its end
        return f"raised: {type(exc).__name__}"
    return f"{sha256(json_text)} text={sha256(text)} exit={report.exit_code()}"


def sweep(root: Path) -> dict:
    """input id -> line, swept in a child process on root/src."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--worker"], env=env,
                         capture_output=True, text=True, check=True).stdout
    return dict(row.split(" ", 1) for row in out.splitlines())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--parent", help="git revision to compare this tree's lines with")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        for input_id, ext, d2, run in inputs():
            print(input_id, line(ext, d2, run), flush=True)
        return 0
    change = sweep(ROOT)
    raised = sum(v.startswith("raised") for v in change.values())
    print(f"{len(change)} inputs, {raised} raised")
    if args.parent is None:
        for input_id, value in change.items():
            print(input_id, value)
        return 0
    from bench_record import export

    with tempfile.TemporaryDirectory(prefix="sweep_") as work:
        meta = export(args.parent, Path(work) / "parent")
        parent = sweep(Path(work) / "parent")
    differ = [i for i in {**parent, **change} if parent.get(i) != change.get(i)]
    print(f"parent {meta['commit']}: {len(parent)} inputs, "
          f"{sum(v.startswith('raised') for v in parent.values())} raised; {len(differ)} differ")
    for input_id in differ:
        print(input_id, "parent:", parent.get(input_id, "-"), "change:", change.get(input_id, "-"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
