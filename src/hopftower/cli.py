"""Command-line front end.

Subcommands: verify | tower | depth2 | hopf | examples | pair-check.
Exit codes: 0 = all non-skipped checks pass, 1 = some check failed,
2 = invalid input. Reports are deterministic: identical inputs produce
byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .fields import field_to_spec
from .fileio import (
    InputError,
    canonical_json,
    digest,
    extension_to_dict,
    hopf_to_dict,
    load_extension,
    load_pair_file,
    tower_to_dict,
)
from .hopf import HopfError, bialgebra_from_abstract_pairing
from .models import CATALOG, ModelError, generate_example
from .pipeline import run_pipeline
from .report import PASS, PipelineReport, Reporter


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopftower",
        description=(
            "Exact verification of Frobenius extensions, Jones towers, "
            "depth-2 conditions and Hopf algebra reconstruction."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("path", help="extension file (JSON)")
        p.add_argument("--json", action="store_true", help="emit the JSON report")
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument("--check", default=None, help="only show checks whose id contains this string")

    p = sub.add_parser("verify", help="run the full pipeline on an extension file")
    add_common(p)
    p.add_argument("--levels", type=int, choices=(1, 2), default=2, help="tower levels to build")

    p = sub.add_parser("tower", help="run only through the tower stage")
    add_common(p)
    p.add_argument("--levels", type=int, choices=(1, 2), default=2)
    p.add_argument("--dump", default=None, metavar="PATH",
                   help="also write the tower (tables, idempotents, expectations) as JSON")

    p = sub.add_parser("depth2", help="run through the depth-2 stage")
    add_common(p)

    p = sub.add_parser("hopf", help="run the pipeline and dump the reconstructed Hopf algebras")
    p.add_argument("path", help="extension file or abstract pairing file (JSON)")
    p.add_argument("--out", default=".", help="directory for the dump files")

    p = sub.add_parser("examples", help="generate a catalog example extension file")
    p.add_argument("name", nargs="?", default=None, help=f"one of {sorted(CATALOG)}")
    p.add_argument("--param", action="append", default=[], metavar="K=V",
                   help="example parameter, e.g. group=s3 subgroup=a3 field=f7 d=2")
    p.add_argument("--out", default=None, help="output path (sidecar goes next to it)")

    p = sub.add_parser("pair-check", help="verify an abstract pairing file (oracle path)")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    return parser


def _emit(report, args) -> None:
    if getattr(args, "json", False) or getattr(args, "out", None):
        text = canonical_json(report.to_dict())
    else:
        text = report.render_text()
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _reason(report, check_prefix: str):
    """The first recorded reason among the report's checks with this id prefix."""
    return next(
        (r.reason for r in report.results if r.check_id.startswith(check_prefix) and r.reason), None
    )


def cmd_verify(args, upto: str) -> int:
    try:
        ext, _ = load_extension(args.path)
        if ext.E is None:
            raise InputError("file carries no conditional expectation matrix; nothing to verify")
    except InputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    report = run_pipeline(
        ext,
        upto=upto,
        levels=getattr(args, "levels", 2),
        check_filter=getattr(args, "check", None),
    )
    _emit(report, args)
    dump_path = getattr(args, "dump", None)
    if dump_path:
        t = report.state.tower
        if t is None:
            reason = _reason(report, "tower-level") or "the tower was not built"
            print(f"tower dump unavailable: {reason}", file=sys.stderr)
        else:
            Path(dump_path).write_text(canonical_json(tower_to_dict(t)), encoding="utf-8")
    return report.exit_code()


def cmd_hopf(args) -> int:
    outdir = Path(args.out)
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    if isinstance(raw, dict) and "pairing" in raw:
        return _hopf_from_pair_file(args, outdir)
    try:
        ext, _ = load_extension(args.path)
    except InputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    report = run_pipeline(ext, upto="hopf")
    status = {r.check_id: r.status for r in report.results}
    if status.get("hopf-axioms") != PASS or status.get("dual-hopf") != PASS:
        reason = _reason(report, "pairing") or "hypothesis-gated checks were skipped or failed"
        print(f"reconstruction not reached: {reason}", file=sys.stderr)
        return 1
    state = report.state
    t, d2, pairing = state.tower, state.d2, state.pairing
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "hopf_B.json").write_text(
        canonical_json(hopf_to_dict(state.H_B, pairing.P, d2.B.coords(t.e2))), encoding="utf-8"
    )
    (outdir / "hopf_A.json").write_text(
        canonical_json(hopf_to_dict(state.H_A, pairing.P.transpose(), d2.A.coords(t.e1))),
        encoding="utf-8",
    )
    print(f"wrote {outdir / 'hopf_A.json'} and {outdir / 'hopf_B.json'}")
    return 0


def _hopf_from_pair_file(args, outdir: Path) -> int:
    try:
        _, A, B, P, S, _raw = load_pair_file(args.path)
    except InputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    try:
        H, out = bialgebra_from_abstract_pairing(A, B, P, antipode_candidate=S)
    except HopfError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    if not out.ok:
        print("pairing data fails the coalgebra/bialgebra identities", file=sys.stderr)
        return 1
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "hopf_B.json").write_text(canonical_json(hopf_to_dict(H, P)), encoding="utf-8")
    print(f"wrote {outdir / 'hopf_B.json'}")
    return 0


def cmd_examples(args) -> int:
    if args.name is None:
        for name in sorted(CATALOG):
            print(f"{name}: {CATALOG[name]}")
        return 0
    params = {}
    for item in args.param:
        if "=" not in item:
            print(f"invalid input: parameter {item!r} is not K=V", file=sys.stderr)
            return 2
        k, v = item.split("=", 1)
        params[k] = v
    try:
        ext, sidecar = generate_example(args.name, params)
    except ModelError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        print(f"catalog: {', '.join(sorted(CATALOG))}", file=sys.stderr)
        return 2
    data = extension_to_dict(ext)
    out = args.out or f"{args.name}.json"
    Path(out).write_text(canonical_json(data), encoding="utf-8")
    side_path = Path(out).with_suffix(".expect.json")
    side_path.write_text(canonical_json(sidecar), encoding="utf-8")
    print(f"wrote {out} and {side_path}")
    return 0


def cmd_pair_check(args) -> int:
    try:
        field, A, B, P, S, raw = load_pair_file(args.path)
    except InputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    rep = Reporter()
    try:
        _, out = bialgebra_from_abstract_pairing(A, B, P, antipode_candidate=S)
        rep.outcome("pair-coalgebra", out)
    except HopfError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    report = PipelineReport(
        input_digest=digest(raw),
        field=field_to_spec(field),
        hypotheses={"pairing_invertible": True, "antipode_supplied": S is not None},
        results=rep.results,
        verdict={"summary": "abstract pairing " + ("verified" if rep.all_passed() else "FAILED")},
        dims={"A": A.dim, "B": B.dim},
    )
    _emit(report, args)
    return report.exit_code()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args, upto="galois")
    if args.command == "tower":
        return cmd_verify(args, upto="tower")
    if args.command == "depth2":
        return cmd_verify(args, upto="depth2")
    if args.command == "hopf":
        return cmd_hopf(args)
    if args.command == "examples":
        return cmd_examples(args)
    if args.command == "pair-check":
        return cmd_pair_check(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
