"""File schemas and canonical serialization.

One extension-file schema is shared by every command: ground field, algebra
(dim, unit, sparse structure constants), the subalgebra embedding, an
optional conditional-expectation matrix and optional dual-bases pairs.
Scalars serialize as strings: rationals "p/q" in lowest terms ("/q" omitted
when the denominator is 1), prime-field elements as least non-negative
residues. Serialization is canonical so reports are byte-identical.
"""
from __future__ import annotations

import hashlib
import json
from typing import Optional

from .algebra import Algebra, AlgebraError, SubspaceBasis, verify_algebra
from .fields import Field, FieldError, field_from_spec, field_to_spec, integral
from .frobenius import ExtensionSpec
from .linalg import LinMap, sparse_vector


class InputError(ValueError):
    """Malformed or inconsistent input file (CLI exit code 2)."""


def canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=True) + "\n"


def digest(obj) -> str:
    return "sha256:" + hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# scalars and matrices
# ---------------------------------------------------------------------------


def scalar_to_str(field: Field, x) -> str:
    return field.to_str(x)


def parse_scalar(field: Field, s) -> object:
    if isinstance(s, int) and not isinstance(s, bool):
        return field.from_int(s)
    if not isinstance(s, str):
        raise InputError(f"scalar must be a string or integer, got {type(s).__name__}")
    try:
        return field.parse(s)
    except FieldError as exc:
        raise InputError(str(exc)) from exc


def vector_to_list(field: Field, v: list) -> list:
    return [scalar_to_str(field, x) for x in v]


def parse_vector(field: Field, data, length: int) -> list:
    if not isinstance(data, list) or len(data) != length:
        raise InputError(f"vector must be a list of length {length}")
    return [parse_scalar(field, x) for x in data]


def parse_element(field: Field, data, length: int) -> dict:
    """An algebra element written as a coordinate list, as a sparse dict."""
    return sparse_vector(parse_vector(field, data, length))


def matrix_to_rows(field: Field, m: LinMap) -> list:
    """A linear map written as the dense rows of its matrix."""
    z = field.zero
    return [vector_to_list(field, [c.get(r, z) for c in m.columns]) for r in range(m.codomain_dim)]


def parse_matrix(field: Field, data, rows: int, cols: int) -> LinMap:
    """A linear map written as the dense rows of its matrix."""
    if not isinstance(data, list) or len(data) != rows:
        raise InputError(f"matrix must have {rows} rows")
    parsed = [parse_vector(field, row, cols) for row in data]
    return LinMap(field, [{r: row[j] for r, row in enumerate(parsed) if row[j]} for j in range(cols)], rows)


# ---------------------------------------------------------------------------
# algebras and extensions
# ---------------------------------------------------------------------------


def algebra_to_dict(alg: Algebra) -> dict:
    f = alg.field
    return {
        "dim": alg.dim,
        "unit": vector_to_list(f, alg.to_dense(alg.unit)),
        "structure": [[i, j, k, scalar_to_str(f, c)] for i, j, k, c in alg.entries()],
    }


def parse_algebra(field: Field, data) -> Algebra:
    if not isinstance(data, dict):
        raise InputError("algebra must be an object")
    try:
        dim = integral(data["dim"])
        unit = parse_element(field, data["unit"], dim)
        entries = []
        for item in data["structure"]:
            if not isinstance(item, list) or len(item) != 4:
                raise InputError("structure entries must be [i, j, k, scalar]")
            i, j, k, c = item
            entries.append((integral(i), integral(j), integral(k), parse_scalar(field, c)))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed algebra: {exc}") from exc
    try:
        return Algebra.from_entries(field, dim, entries, unit)
    except AlgebraError as exc:
        raise InputError(str(exc)) from exc


def extension_to_dict(ext: ExtensionSpec) -> dict:
    M = ext.M
    f = M.field
    out = {
        "field": field_to_spec(f),
        "algebra": algebra_to_dict(M),
        "subalgebra": [vector_to_list(f, M.to_dense(v)) for v in ext.N.vectors],
    }
    if ext.E is not None:
        out["cond_expectation"] = matrix_to_rows(f, ext.E)
    else:
        out["cond_expectation"] = None
    if ext.dual_pairs is not None:
        out["dual_bases"] = [
            [vector_to_list(f, M.to_dense(x)), vector_to_list(f, M.to_dense(y))] for x, y in ext.dual_pairs
        ]
    else:
        out["dual_bases"] = None
    return out


def extension_from_dict(data) -> ExtensionSpec:
    if not isinstance(data, dict):
        raise InputError("extension file must be a JSON object")
    try:
        field = field_from_spec(data["field"])
    except (KeyError, FieldError, TypeError) as exc:
        raise InputError(f"bad field spec: {exc}") from exc
    M = parse_algebra(field, data.get("algebra"))
    axioms, _ = verify_algebra(M)
    if not axioms.ok:
        raise InputError(f"algebra axioms fail: first failure {axioms.failures[0]}")
    sub = data.get("subalgebra")
    if not isinstance(sub, list) or not sub:
        raise InputError("subalgebra embedding rows are required")
    vectors = [parse_element(field, row, M.dim) for row in sub]
    try:
        N = SubspaceBasis(M, vectors)
    except AlgebraError as exc:
        raise InputError(str(exc)) from exc
    E = None
    if data.get("cond_expectation") is not None:
        E = parse_matrix(field, data["cond_expectation"], len(vectors), M.dim)
    pairs = None
    if data.get("dual_bases") is not None:
        if not isinstance(data["dual_bases"], list):
            raise InputError("dual_bases must be a list of [x, y] vector pairs")
        pairs = []
        for item in data["dual_bases"]:
            if not isinstance(item, list) or len(item) != 2:
                raise InputError("dual_bases entries must be [x, y] vector pairs")
            pairs.append((parse_element(field, item[0], M.dim), parse_element(field, item[1], M.dim)))
    try:
        return ExtensionSpec(M, N, E=E, dual_pairs=pairs)
    except AlgebraError as exc:
        raise InputError(str(exc)) from exc


def read_json(path: str):
    """The parsed JSON of a file, read once; InputError names the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc


def load_extension(path: str) -> tuple[ExtensionSpec, dict]:
    data = read_json(path)
    return extension_from_dict(data), data


# ---------------------------------------------------------------------------
# abstract pairing files
# ---------------------------------------------------------------------------


def pair_file_from_dict(data) -> tuple:
    """(field, A_alg, B_alg, P, antipode_or_None) from a pair-check file."""
    if not isinstance(data, dict):
        raise InputError("pair file must be a JSON object")
    try:
        field = field_from_spec(data["field"])
    except (KeyError, FieldError, TypeError) as exc:
        raise InputError(f"bad field spec: {exc}") from exc
    A = parse_algebra(field, data.get("algebra_a"))
    B = parse_algebra(field, data.get("algebra_b"))
    for name, alg in (("algebra_a", A), ("algebra_b", B)):
        axioms, _ = verify_algebra(alg)
        if not axioms.ok:
            raise InputError(f"{name} axioms fail: first failure {axioms.failures[0]}")
    P = parse_matrix(field, data.get("pairing"), A.dim, B.dim)
    S = None
    if data.get("antipode_b") is not None:
        S = parse_matrix(field, data["antipode_b"], B.dim, B.dim)
    return field, A, B, P, S


def load_pair_file(path: str) -> tuple:
    data = read_json(path)
    return pair_file_from_dict(data) + (data,)


# ---------------------------------------------------------------------------
# dumps
# ---------------------------------------------------------------------------


def hopf_to_dict(H, pairing_matrix: LinMap, integral: Optional[dict] = None) -> dict:
    f = H.algebra.field
    out = {
        "field": field_to_spec(f),
        "algebra": algebra_to_dict(H.algebra),
        "comultiplication": matrix_to_rows(f, H.delta),
        "counit": matrix_to_rows(f, H.counit),
        "antipode": matrix_to_rows(f, H.antipode) if H.antipode is not None else None,
        "pairing": matrix_to_rows(f, pairing_matrix),
    }
    if integral is not None:
        out["integral"] = vector_to_list(f, H.algebra.to_dense(integral))
    return out


def tower_to_dict(t) -> dict:
    f = t.M.field
    levels = [
        {
            **algebra_to_dict(level.algebra),
            "jones_idempotent": vector_to_list(f, level.algebra.to_dense(level.e)),
            "cond_expectation": matrix_to_rows(f, level.cond_exp),
            "inclusion": matrix_to_rows(f, level.incl),
        }
        for level in t.levels
    ]
    return {"field": field_to_spec(f), "levels": levels, "lambda_inverse": scalar_to_str(f, t.base_sys.lambda_inverse)}
