"""Check registry and deterministic report assembly.

Every check id maps to exactly one statement string describing the identity
or property it decides. Reports serialize canonically (sorted keys, stable
ordering by insertion) so repeated runs are byte-identical; wall-clock
timings are kept on the in-memory objects only and never serialized.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from typing import Optional

PASS = "pass"
FAIL = "fail"
SKIP = "skipped"

CHECK_STATEMENTS = {
    "input-parse": "input file parses and validates against the extension schema",
    "algebra-axioms": "associativity and unit laws hold on all basis triples and pairs",
    "subalgebra-unital": "the embedded subalgebra is closed under products and contains 1",
    "cond-expectation": "E(1) = 1 and E(n m n') = n E(m) n' on all basis tuples",
    "dual-bases": "the dual-bases tensor solving sum E(m x_i) y_i = m = sum x_i E(y_i m) exists and is unique",
    "frobenius-identities": "both Frobenius sums reproduce every basis element exactly",
    "index-central": "the index sum x_i y_i commutes with every basis element",
    "normalization": "E(1) is an invertible scalar and the system is rescaled so E(1) = 1",
    "tower-level-1": "the basic construction on M (x)_N M: unit, idempotent e1, inclusion, conditional expectation",
    "tower-level-2": "the basic construction repeated on M1 (x)_M M1",
    "triple-tensor": "M2 agrees with the three-fold tensor picture (rebracketing bijective, conditional expectation and e2 closed forms match)",
    "braid-relations": "e1 e2 e1 = lam e1 and e2 e1 e2 = lam e2; E_M(e1) = lam 1 and E_M1(e2) = lam 1",
    "pimsner-popa": "lam^-1 e E(e x) = e x and the opposite-sided identities at both levels",
    "cyclic-span": "M1 is spanned by x e1 y over x, y in M",
    "endo-ring-iso": "f -> sum f(x_i) (x) y_i is an algebra isomorphism End(M_N) -> M1 with the stated inverse",
    "second-centralizers": "bases of A = C_M1(N), B = C_M2(M), C = C_M2(N) computed",
    "depth2-level-1": "orthogonal dual bases for E_M exist in A (free basis extracted and re-verified)",
    "depth2-level-2": "orthogonal dual bases for E_M1 exist in B (free basis extracted and re-verified)",
    "depth2-crosscheck": "the constructive solver and the independent dual-bases-tensor solver agree at both levels",
    "c-structure": "A (x) B = C = B (x) A via multiplication, C = A e2 A, e1 c e1 = e1 E_M1(c), C is a full matrix algebra via explicit matrix units, char k does not divide n",
    "cond-exp-ea-eb": "E_B(c) = sum F(c u_j) v_j and E_A = E_M1 on C are conditional expectations; E_B(b e1 b') = lam b b'; Markov relations of F",
    "f-faithful": "the Gram matrix of F on C is invertible",
    "nakayama-relations": "q of F restricts to q_A on A and q_B on B, commutes with E_M1, and fixes e1 and e2",
    "pairing": "<a, b> = lam^-2 F(a e2 e1 b) is non-degenerate and b -> E_M1(e2 e1 b) is a bijection B -> A",
    "comultiplication": "<a, b_(1)><a', b_(2)> = <a a', b> defines Delta; eps(b) = <1, b> = lam^-1 F(b e2); Delta(1) = 1 (x) 1; eps multiplicative",
    "antipode": "E_M1(b e1 e2) = E_M1(e2 e1 S(b)) defines a bijective S with E_M1(b x e2) = E_M1(e2 x S(b)) for all x",
    "hopf-axioms": "coassociativity, counit laws, Delta and eps algebra maps, antipode equations, S anti-(co)morphism, S^2 vs the Nakayama restriction, exchange relation, convolution identities, e2 integral, e1/e2 central",
    "dual-hopf": "the pairing transposes the structure to a Hopf algebra on A dual to B; eps_A(e1) = 1 and e1 is an integral in A",
    "action-b-on-m1": "b . x = lam^-1 E_M1(b x e2) is a module-algebra action agreeing with b_(1) x S(b_(2)); e2 . x = E_M(x)",
    "invariants-m1": "the invariants of the B-action on M1 equal the image of M",
    "smash-theta": "x # b -> x b is an algebra isomorphism M1 # B -> M2 restricting to A # B -> C",
    "action-a-on-m": "a . m = a_(1) m S(a_(2)) lands in M and is a module-algebra action; e1 . x = E(x)",
    "invariants-m": "the invariants of the A-action on M equal the image of N",
    "cleft-cocycle": "the inclusion A -> M1 is a total integral with convolution inverse iota S_A, the associated cocycle is trivial, and m # a -> m a is an isomorphism M # A -> M1",
    "galois-map": "the Galois map a (x) a' -> a a'_(0) (x) a'_(1) on M (x)_N M is bijective",
    "pair-coalgebra": "the abstract pairing defines a coalgebra satisfying its defining identity and the bialgebra axioms",
}


@dataclass
class CheckResult:
    check_id: str
    status: str
    witness: Optional[dict] = None
    reason: Optional[str] = None
    elapsed: float = 0.0  # informational only, never serialized

    @property
    def statement(self) -> str:
        return CHECK_STATEMENTS[self.check_id]

    def to_dict(self) -> dict:
        out = {
            "id": self.check_id,
            "statement": self.statement,
            "status": self.status,
        }
        if self.reason is not None:
            out["reason"] = self.reason
        if self.witness:
            out["witness"] = sanitize(self.witness)
        return out


def sanitize(obj, depth: int = 0):
    """JSON-safe copy of witness data: scalars become strings, tuples lists."""
    if depth > 6:
        return "..."
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, dict):
        return {str(k): sanitize(v, depth + 1) for k, v in list(obj.items())[:16]}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v, depth + 1) for v in list(obj)[:16]]
    return str(obj)


class Reporter:
    """Ordered check collection; order of insertion is the report order."""

    def __init__(self):
        self.results: list[CheckResult] = []
        self._t0 = time.monotonic()

    def add(self, check_id: str, status: str, witness=None, reason=None) -> CheckResult:
        if check_id not in CHECK_STATEMENTS:
            raise KeyError(f"unregistered check id {check_id!r}")
        now = time.monotonic()
        res = CheckResult(check_id, status, witness=witness, reason=reason, elapsed=now - self._t0)
        self._t0 = now
        self.results.append(res)
        return res

    def outcome(self, check_id: str, out, skip_reason: Optional[str] = None) -> CheckResult:
        """Record a CheckOutcome-like object (ok + failures)."""
        if skip_reason is not None:
            return self.add(check_id, SKIP, reason=skip_reason)
        if out.ok:
            return self.add(check_id, PASS)
        return self.add(check_id, FAIL, witness={"failures": out.failures[:4]})

    def all_passed(self) -> bool:
        return all(r.status != FAIL for r in self.results)

    def counts(self) -> dict:
        out = {PASS: 0, FAIL: 0, SKIP: 0}
        for r in self.results:
            out[r.status] += 1
        return out


@dataclass
class PipelineReport:
    input_digest: str
    field: dict
    hypotheses: dict
    results: list
    verdict: dict
    dims: dict = dc_field(default_factory=dict)
    # the pipeline's in-memory objects (tower, depth-2 data, Hopf pair) for
    # commands that dump them; never serialized
    state: Optional[object] = dc_field(default=None, repr=False, compare=False)

    def exit_code(self) -> int:
        return 0 if all(r.status != FAIL for r in self.results) else 1

    def to_dict(self) -> dict:
        return {
            "input_digest": self.input_digest,
            "field": self.field,
            "dims": sanitize(self.dims),
            "hypotheses": sanitize(self.hypotheses),
            "checks": [r.to_dict() for r in self.results],
            "verdict": sanitize(self.verdict),
        }

    def render_text(self) -> str:
        lines = []
        counts = {"pass": 0, "fail": 0, "skipped": 0}
        for r in self.results:
            counts[r.status] += 1
            mark = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[r.status]
            line = f"[{mark}] {r.check_id}"
            if r.reason:
                line += f" ({r.reason})"
            lines.append(line)
        lines.append(
            f"checks: {counts['pass']} passed, {counts['fail']} failed, {counts['skipped']} skipped"
        )
        hyp = ", ".join(f"{k}={v}" for k, v in self.hypotheses.items())
        lines.append(f"hypotheses: {hyp}")
        lines.append(f"verdict: {self.verdict.get('summary', '')}")
        return "\n".join(lines) + "\n"
