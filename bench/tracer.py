"""Outside-in span tracer for the hopftower modules.

The tracer edits nothing under ``src/``. It wraps the listed public functions
and methods from outside: a function is rebound in every ``hopftower`` module
namespace that holds it (modules bind names at import time, as in
``from .linalg import rref``), and a method is replaced on its class.
``uninstall`` puts every original binding back.

Each wrapped call is a span on one stack. A span's self time is its duration
minus the time its child spans cover; its inclusive time counts only the
outermost activation of a recursive call. ``Algebra.mul_sparse`` runs tens of
millions of times on the larger towers, so it is counted and never timed.
``fields`` is not wrapped at all: its scalar operations would dominate the run.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute) of every public call timed as a span. Some carry no
# metric of their own; they are wrapped so that the stage sums below cover
# every public call that run_pipeline makes.
SPANS = (
    ("linalg", "rref"),
    ("linalg", "solve"),
    ("linalg", "kernel_basis"),
    ("linalg", "invert"),
    ("linalg", "SparseSolver.add_row"),
    ("algebra", "verify_algebra"),
    ("algebra", "SubspaceBasis.coords"),
    ("algebra", "centralizer"),
    ("algebra", "TensorQuotient.__init__"),
    ("algebra", "check_morphism"),
    ("frobenius", "solve_dual_bases"),
    ("frobenius", "verify_frobenius_identities"),
    ("frobenius", "verify_conditional_expectation"),
    ("frobenius", "pairs_to_tensor"),
    ("frobenius", "classify"),
    ("frobenius", "normalize"),
    ("tower", "build_tower"),
    ("tower", "basic_construction"),
    ("tower", "verify_pimsner_popa"),
    ("tower", "endo_ring_iso"),
    ("tower", "verify_braid_relations"),
    ("tower", "verify_cyclic_span"),
    ("depth2", "second_centralizers"),
    ("depth2", "check_depth_two"),
    ("depth2", "verify_c_structure"),
    ("depth2", "conditional_expectations"),
    ("depth2", "nakayama_relations"),
    ("depth2", "f_scalar_on_c"),
    ("depth2", "verify_f_faithful"),
    ("hopf", "compute_pairing"),
    ("hopf", "comultiplication"),
    ("hopf", "antipode"),
    ("hopf", "verify_hopf_axioms"),
    ("hopf", "dualize"),
    ("galois", "action_b_on_m1"),
    ("galois", "verify_smash_iso_theta"),
    ("galois", "action_a_on_m"),
    ("galois", "cleft_data"),
    ("galois", "galois_map"),
    ("galois", "verify_module_algebra"),
    ("galois", "verify_invariants"),
    ("models", "generate_example"),
    ("models", "model_bundle"),
    ("models", "model_tower"),
    ("fileio", "extension_from_dict"),
    ("fileio", "extension_to_dict"),
    ("fileio", "canonical_json"),
    ("fileio", "digest"),
    ("report", "PipelineReport.to_dict"),
    ("pipeline", "run_pipeline"),
)
COUNTED = (("algebra", "Algebra.mul_sparse"),)

# work measures computed from a span's arguments
WORK = {
    "linalg.rref": lambda args: args[0].rows * args[0].cols,
    "algebra.verify_algebra": lambda args: args[0].dim ** 3,
}

PACKAGE = "hopftower"
STAGES = ("frobenius", "tower", "depth2", "hopf", "galois")
PIPELINE = "pipeline.run_pipeline"


def _stage_of(key: str):
    """Stage a direct call from run_pipeline belongs to, by the callee's module."""
    if key == "algebra.verify_algebra":  # the algebra-axioms check opens the run
        return "frobenius"
    module = key.split(".", 1)[0]
    return module if module in STAGES else None


# Per-layer metrics, in the order they are reported: (name, unit).
PER_LAYER = (
    ("linalg.rref.calls", "count"),
    ("linalg.rref.self_s", "s"),
    ("linalg.rref.cells", "cells"),
    ("linalg.solve.calls", "count"),
    ("linalg.kernel_basis.calls", "count"),
    ("linalg.invert.calls", "count"),
    ("linalg.SparseSolver.add_row.calls", "count"),
    ("linalg.SparseSolver.add_row.self_s", "s"),
    ("algebra.verify_algebra.calls", "count"),
    ("algebra.verify_algebra.self_s", "s"),
    ("algebra.verify_algebra.triples", "triples"),
    ("algebra.Algebra.mul_sparse.calls", "count"),
    ("algebra.SubspaceBasis.coords.calls", "count"),
    ("algebra.SubspaceBasis.coords.incl_s", "s"),
    ("algebra.centralizer.self_s", "s"),
    ("algebra.TensorQuotient.init.self_s", "s"),
    ("algebra.check_morphism.self_s", "s"),
    ("frobenius.solve_dual_bases.incl_s", "s"),
    ("frobenius.verify_frobenius_identities.self_s", "s"),
    ("frobenius.verify_conditional_expectation.self_s", "s"),
    ("tower.build_tower.incl_s", "s"),
    ("tower.basic_construction.self_s", "s"),
    ("tower.verify_pimsner_popa.self_s", "s"),
    ("tower.endo_ring_iso.incl_s", "s"),
    ("depth2.second_centralizers.incl_s", "s"),
    ("depth2.check_depth_two.self_s", "s"),
    ("depth2.verify_c_structure.incl_s", "s"),
    ("depth2.conditional_expectations.incl_s", "s"),
    ("depth2.nakayama_relations.incl_s", "s"),
    ("hopf.compute_pairing.incl_s", "s"),
    ("hopf.comultiplication.incl_s", "s"),
    ("hopf.antipode.incl_s", "s"),
    ("hopf.verify_hopf_axioms.self_s", "s"),
    ("hopf.dualize.incl_s", "s"),
    ("galois.action_b_on_m1.incl_s", "s"),
    ("galois.verify_smash_iso_theta.incl_s", "s"),
    ("galois.action_a_on_m.incl_s", "s"),
    ("galois.cleft_data.incl_s", "s"),
    ("galois.galois_map.incl_s", "s"),
    ("galois.verify_module_algebra.self_s", "s"),
    ("models.generate_example.incl_s", "s"),
    ("models.model_bundle.incl_s", "s"),
    ("models.model_tower.incl_s", "s"),
    ("fileio.extension_from_dict.incl_s", "s"),
    ("report.PipelineReport.to_dict.incl_s", "s"),
    ("fileio.canonical_json.incl_s", "s"),
    ("pipeline.run_pipeline.incl_s", "s"),
    ("pipeline.stage.frobenius_s", "s"),
    ("pipeline.stage.tower_s", "s"),
    ("pipeline.stage.depth2_s", "s"),
    ("pipeline.stage.hopf_s", "s"),
    ("pipeline.stage.galois_s", "s"),
    ("pipeline.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class Stat:
    __slots__ = ("calls", "incl_s", "self_s", "work", "active")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.work = 0
        self.active = 0


class Tracer:
    """Context manager: wraps the spans on entry and restores them on exit."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.stages = dict.fromkeys(STAGES, 0.0)
        self._stack = [["", 0.0]]  # [span key, time covered by its children]
        self._undo: list[tuple] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")]
        try:
            for module, attr in SPANS:
                self._wrap(modules, module, attr, self._span)
            for module, attr in COUNTED:
                self._wrap(modules, module, attr, self._counter)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _wrap(self, modules, module: str, attr: str, make) -> None:
        home = sys.modules[f"{PACKAGE}.{module}"]
        key = f"{module}.{attr}".replace(".__init__", ".init")
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(home, cls_name)
            original = cls.__dict__[method]
            self._undo.append((cls, method, original))
            setattr(cls, method, make(key, original))
            return
        original = getattr(home, attr)
        wrapper = make(key, original)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    self._undo.append((m, name, original))
                    setattr(m, name, wrapper)

    def _span(self, key: str, fn):
        stat = self.stats[key]
        stack = self._stack
        stage = _stage_of(key)
        work = WORK.get(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if work is not None:
                stat.work += work(args)
            frame = [key, 0.0]
            stack.append(frame)
            stat.active += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat.active -= 1
                stat.calls += 1
                stat.self_s += dt - frame[1]
                if not stat.active:
                    stat.incl_s += dt
                parent = stack[-1]
                parent[1] += dt
                if stage is not None and parent[0] == PIPELINE:
                    self.stages[stage] += dt

        return wrapper

    def _counter(self, key: str, fn):
        stat = self.stats[key]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def metrics(self) -> dict:
        """Every per-layer metric except trace.overhead_s, which needs an untraced run."""
        out = {}
        for name, _unit in PER_LAYER:
            if name.startswith("pipeline.stage."):
                out[name] = self.stages[name[len("pipeline.stage."):-len("_s")]]
            elif name == "pipeline.self_s":
                out[name] = self.stats[PIPELINE].self_s
            elif name != "trace.overhead_s":
                key, field = name.rsplit(".", 1)
                stat = self.stats[key]
                out[name] = {
                    "calls": stat.calls,
                    "self_s": stat.self_s,
                    "incl_s": stat.incl_s,
                    "cells": stat.work,
                    "triples": stat.work,
                }[field]
        return out
