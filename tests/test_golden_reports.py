"""Golden report digests for every catalog case the benchmark runs.

Each case follows the user path: generate_example -> canonical_json of
extension_to_dict -> json.loads -> extension_from_dict -> run_pipeline ->
sha256 of canonical_json(report.to_dict()). A speed-up or refactor must leave
every report byte-identical, so each digest is pinned to the value the code
gave before the coordinate-map and associativity kernels were rewritten. The
digests equal the per-case ``sha256`` in the results line of
``bench/run.py`` for catalog-q and catalog-fp.

The function-algebra z3 and z4 digests (over Q and F7) encode the known
depth2-crosscheck FAIL of those cases. They will change, on purpose, when the
complete depth-2 decision (ROADMAP direction 1) lands.
"""
import hashlib
import json

import pytest

from hopftower.fileio import canonical_json, extension_from_dict, extension_to_dict
from hopftower.models import generate_example
from hopftower.pipeline import run_pipeline

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


def _cases() -> dict:
    """case id -> (example name, generate_example params), ids as in bench/run.py."""
    out = {}
    for field, tag in (("rational", "q"), ("f7", "f7")):
        for example, params in CATALOG:
            label = "/".join(v for k, v in params if k in ("group", "subgroup"))
            case_id = f"{tag}/{example}" + (f":{label}" if label else "")
            out[case_id] = (example, dict(params + (("field", field),)))
    out["f2/m2f2"] = ("m2f2", {})
    return out


CASES = _cases()


GOLDEN = {
    "q/trivial": "9762c0660b2a4c8a693ae54c91f323a53eb08c49c0775defe0bdb0983b56fca9",
    "q/quadratic-field": "8523bf5d735440bd2e8893c3c581e817acd94c2316d6cfd6d7c561e0113c9880",
    "q/group-pair:s3/a3": "e604f04f79914bee0f924411adc7e6b51fd006f4e13804038e4bcd46ff977d27",
    "q/group-pair:s3/z2": "5c32051c262c516b4195a6bee44910ebe551da3de9a59c9a136a608cad9e7154",
    "q/group-pair:z4/z2": "ba0c940537edd0487f4756b6e8cf0b6afc469557b11fa8b78afa052532bef123",
    "q/group-pair:z2/z1": "cc0d1e1d6a68cc5f4c278e6ca8f6a67230ddaf08250146358ce23e8f3834fb80",
    "q/function-algebra:z2": "37427acafbf5fe3f0c49a3b7eb5c8b08119b4bd6d4f145d956f7a24b351ae99b",
    "q/function-algebra:z3": "7ca49a5983a0fe868dd8d55c5b1348c88c982a468baef19c795debb0755b025e",
    "q/function-algebra:z4": "4152c89f3e89d42ec2e4cb65812b8a720bcf89914c1fcdd78e595407d4d6099b",
    "f7/trivial": "218ad8bea62dc4a6f0f07a02dab47864262606bf7268144d45ea82ec7b1beee0",
    "f7/quadratic-field": "7e92d6971f94a1a9f2dee4273a7416388ff9816fec7788d5ac202c4eb50dba5b",
    "f7/group-pair:s3/a3": "b4d7ce6e3fad3e2d25bbaa7005a6f376f8e3a9daf1f2d0d7571edb2b40c5a29a",
    "f7/group-pair:s3/z2": "9fffa57435bf971165ce71e468179cbe85981568c70c4fdd61831f78fd8667b9",
    "f7/group-pair:z4/z2": "35ea43b42f32d0387ee0e10fb12c9100a2fbd50315dcc4ce7bc60a6992aae2fd",
    "f7/group-pair:z2/z1": "b382c89f66c0dd609b55c2c01a1390cef0ed50ed434fa94c77fc21c1f3899106",
    "f7/function-algebra:z2": "f47a4bf9da3c5df35aec09f65ae814cb532b29fe3a38e54140f975b54d7510c5",
    "f7/function-algebra:z3": "097bec3658b2b55efbc2638b9f67c26d25e7914112ae42f3d79fb75e046970c1",
    "f7/function-algebra:z4": "f47eebf3eb9b346806cfba54684118a9d220e5a40d07a887911a2048dadfdd5e",
    "f2/m2f2": "81b45f77250fb303ae83f12161a1756bf3f33b6782a2d8fc32ccafd082194798",
}


@pytest.mark.parametrize("case_id", list(CASES))
def test_report_digest_is_golden(case_id):
    example, params = CASES[case_id]
    ext, _sidecar = generate_example(example, params)
    text = canonical_json(extension_to_dict(ext))
    report = run_pipeline(extension_from_dict(json.loads(text)))
    got = hashlib.sha256(canonical_json(report.to_dict()).encode("utf-8")).hexdigest()
    assert got == GOLDEN[case_id]
