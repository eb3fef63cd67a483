import json
import subprocess
import sys

import pytest

from hopftower.cli import main


@pytest.fixture(scope="module")
def catalog_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("catalog")
    specs = [
        ("trivial", [], "ext0.json"),
        ("group-pair", ["--param", "group=s3", "--param", "subgroup=a3"], "ext1.json"),
        ("group-pair", ["--param", "group=s3", "--param", "subgroup=z2"], "ext2.json"),
        ("quadratic-field", [], "ext3.json"),
        ("m2f2", [], "ext4.json"),
        ("function-algebra", ["--param", "group=z2"], "fnz2.json"),
    ]
    for name, params, fname in specs:
        code = main(["examples", name, *params, "--out", str(d / fname)])
        assert code == 0
    return d


def test_examples_writes_sidecar(catalog_dir):
    assert (catalog_dir / "ext1.expect.json").exists()
    sidecar = json.loads((catalog_dir / "ext1.expect.json").read_text())
    assert sidecar["expect"]["lambda_inverse"] == "2"


def test_examples_unknown_name(capsys):
    assert main(["examples", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "catalog" in err


@pytest.mark.parametrize(
    "param",
    [
        pytest.param("d=abc", id="abc"),
        pytest.param("d=1.5", id="1.5"),
        # field names take ASCII digits only, as the scalar grammar does
        "field=f1_009",
        "field=f\u0667",
        "field=f+7",
        "field=f 7",
        "field=f-7",
        "field=f",
    ],
)
def test_examples_malformed_scalar_param(tmp_path, capsys, param):
    out = tmp_path / "q.json"
    assert main(["examples", "quadratic-field", "--param", param, "--out", str(out)]) == 2
    assert "invalid input" in capsys.readouterr().err
    assert not out.exists()


def test_examples_listing(capsys):
    assert main(["examples"]) == 0
    out = capsys.readouterr().out
    assert "m2f2" in out and "group-pair" in out


def test_examples_byte_identical(catalog_dir, tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    main(["examples", "m2f2", "--out", str(p1)])
    main(["examples", "m2f2", "--out", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()


def test_verify_trivial_full_pass(catalog_dir, capsys):
    code = main(["verify", str(catalog_dir / "ext0.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 failed" in out and "0 skipped" in out
    assert "Hopf-Galois" in out


def test_verify_group_pair_skips(catalog_dir, capsys):
    code = main(["verify", str(catalog_dir / "ext1.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "[SKIP]" in out and "[FAIL]" not in out
    assert "F is not scalar-valued on C" in out


def test_verify_non_normal_depth_two_hypothesis(catalog_dir, capsys):
    code = main(["verify", str(catalog_dir / "ext2.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "depth-2 hypothesis fails" in out
    assert "depth_two=False" in out


def test_verify_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", str(bad)]) == 2
    # structurally valid JSON but a non-associative table
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(
        json.dumps(
            {
                "field": {"kind": "rational"},
                "algebra": {
                    "dim": 2,
                    "unit": ["1", "0"],
                    "structure": [
                        [0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 1, "1"],
                    ],
                },
                "subalgebra": [["1", "0"]],
            }
        )
    )
    assert main(["verify", str(bad2)]) == 2
    err = capsys.readouterr().err
    assert "invalid input" in err


def test_verify_missing_e(tmp_path, capsys):
    f = tmp_path / "noe.json"
    f.write_text(
        json.dumps(
            {
                "field": {"kind": "rational"},
                "algebra": {"dim": 1, "unit": ["1"], "structure": [[0, 0, 0, "1"]]},
                "subalgebra": [["1"]],
            }
        )
    )
    assert main(["verify", str(f)]) == 2


def test_verify_json_deterministic(catalog_dir, tmp_path):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    main(["verify", str(catalog_dir / "ext3.json"), "--json", "--out", str(r1)])
    main(["verify", str(catalog_dir / "ext3.json"), "--json", "--out", str(r2)])
    assert r1.read_bytes() == r2.read_bytes()
    report = json.loads(r1.read_text())
    assert report["input_digest"].startswith("sha256:")
    assert all("statement" in c for c in report["checks"])


def test_tower_subcommand_levels(catalog_dir, capsys):
    code = main(["tower", str(catalog_dir / "ext3.json"), "--levels", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "braid-relations" in out
    assert "pairing" not in out  # later stages not run


def test_tower_level_one_only(catalog_dir, capsys):
    code = main(["tower", str(catalog_dir / "ext3.json"), "--levels", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] tower-level-1" in out
    assert "[SKIP] braid-relations" in out and "--levels 1" in out


def test_tower_dump(catalog_dir, tmp_path):
    dump = tmp_path / "tower.json"
    code = main(["tower", str(catalog_dir / "ext3.json"), "--dump", str(dump),
                 "--json", "--out", str(tmp_path / "r.json")])
    assert code == 0
    data = json.loads(dump.read_text())
    assert [lvl["dim"] for lvl in data["levels"]] == [4, 8]
    assert data["lambda_inverse"] == "2"
    for lvl in data["levels"]:
        assert {"structure", "jones_idempotent", "cond_expectation", "inclusion"} <= set(lvl)


def test_depth2_subcommand(catalog_dir, capsys):
    code = main(["depth2", str(catalog_dir / "ext1.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "depth2-level-1" in out and "galois-map" not in out


def test_check_filter(catalog_dir, capsys):
    code = main(["verify", str(catalog_dir / "ext0.json"), "--check", "braid"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] braid-relations" in out
    assert "pimsner" not in out


def test_hopf_dump_trivial(catalog_dir, tmp_path, capsys):
    outdir = tmp_path / "dump"
    code = main(["hopf", str(catalog_dir / "ext0.json"), "--out", str(outdir)])
    assert code == 0
    a = json.loads((outdir / "hopf_A.json").read_text())
    b = json.loads((outdir / "hopf_B.json").read_text())
    for dump in (a, b):
        assert dump["algebra"]["dim"] == 1
        assert dump["antipode"] == [["1"]]
        assert dump["integral"] == ["1"]


def test_hopf_gated_for_reducible_base(catalog_dir, tmp_path, capsys):
    code = main(["hopf", str(catalog_dir / "ext1.json"), "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert "reconstruction not reached" in err


def test_pair_check_command(tmp_path, capsys):
    from hopftower.fileio import algebra_to_dict, matrix_to_rows
    from hopftower.models import GROUPS, evaluation_pairing, function_algebra, group_algebra, group_hopf
    from hopftower.fields import RationalField

    Q = RationalField()
    G = GROUPS["z3"]()
    pair = group_hopf(G, Q)
    data = {
        "field": {"kind": "rational"},
        "algebra_a": algebra_to_dict(group_algebra(G, Q)),
        "algebra_b": algebra_to_dict(function_algebra(G, Q)),
        "pairing": matrix_to_rows(Q, evaluation_pairing(G, Q)),
        "antipode_b": matrix_to_rows(Q, pair.H_dual.antipode),
    }
    f = tmp_path / "pair.json"
    f.write_text(json.dumps(data))
    code = main(["pair-check", str(f)])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] pair-coalgebra" in out

    # degenerate pairing is invalid input
    data["pairing"] = [["0", "0", "0"]] * 3
    f2 = tmp_path / "pair_bad.json"
    f2.write_text(json.dumps(data))
    assert main(["pair-check", str(f2)]) == 2


def test_hopf_from_pair_file(tmp_path, capsys):
    from hopftower.fileio import algebra_to_dict
    from hopftower.models import GROUPS, evaluation_pairing, function_algebra, group_algebra
    from hopftower.fields import RationalField

    Q = RationalField()
    G = GROUPS["z2"]()
    data = {
        "field": {"kind": "rational"},
        "algebra_a": algebra_to_dict(group_algebra(G, Q)),
        "algebra_b": algebra_to_dict(function_algebra(G, Q)),
        "pairing": [["1", "0"], ["0", "1"]],
    }
    f = tmp_path / "pair.json"
    f.write_text(json.dumps(data))
    outdir = tmp_path / "dump"
    assert main(["hopf", str(f), "--out", str(outdir)]) == 0
    dump = json.loads((outdir / "hopf_B.json").read_text())
    # Delta(delta_e) = delta_e (x) delta_e + delta_g (x) delta_g
    assert dump["comultiplication"][0][0] == "1"


def test_console_script_entrypoint(catalog_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "hopftower.cli", "verify", str(catalog_dir / "ext0.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "galois-map" in proc.stdout


def test_loader_never_crashes_on_fuzzed_input(tmp_path):
    """The extension loader either parses or raises InputError, never
    anything else, over a grid of structurally broken inputs."""
    from hopftower.fileio import InputError, extension_from_dict

    base = {
        "field": {"kind": "rational"},
        "algebra": {"dim": 1, "unit": ["1"], "structure": [[0, 0, 0, "1"]]},
        "subalgebra": [["1"]],
        "cond_expectation": [["1"]],
    }
    mutations = [
        {},
        [],
        {"field": None},
        {"field": {"kind": "octonion"}},
        {"field": {"kind": "prime"}},
        {"field": {"kind": "prime", "modulus": "x"}},
        {**base, "algebra": None},
        {**base, "algebra": {"dim": "two", "unit": ["1"], "structure": []}},
        {**base, "algebra": {"dim": -1, "unit": [], "structure": []}},
        {**base, "algebra": {"dim": 1, "unit": ["1"], "structure": 7}},
        {**base, "algebra": {"dim": 1, "unit": ["1"], "structure": [[0, 0]]}},
        {**base, "algebra": {"dim": 1, "unit": ["1"], "structure": [[0, 0, 0, []]]}},
        {**base, "subalgebra": "nope"},
        {**base, "subalgebra": [["1"], ["1"]]},  # dependent rows
        {**base, "subalgebra": [["0"]]},  # zero row is dependent
        {**base, "cond_expectation": [["1", "2"]]},
        {**base, "dual_bases": [["1"]]},
        {**base, "dual_bases": [[["1"], ["1"], ["1"]]]},
        # JSON booleans are ints in Python, and int() truncates floats: both
        # must be refused where the format wants a scalar or an integer
        {**base, "algebra": {"dim": 1, "unit": [True], "structure": [[0, 0, 0, "1"]]}},
        {**base, "algebra": {"dim": 1, "unit": ["1"], "structure": [[0, 0, 0, True]]}},
        {**base, "subalgebra": [[True]]},
        {**base, "cond_expectation": [[True]]},
        {**base, "algebra": {"dim": True, "unit": ["1"], "structure": [[0, 0, 0, "1"]]}},
        {**base, "algebra": {"dim": 1.5, "unit": ["1"], "structure": [[0, 0, 0, "1"]]}},
        {**base, "algebra": {"dim": float("inf"), "unit": ["1"], "structure": [[0, 0, 0, "1"]]}},
        {**base, "algebra": {"dim": 1, "unit": ["1"], "structure": [[False, 0, 0, "1"]]}},
        {**base, "algebra": {"dim": 1, "unit": ["1"], "structure": [[0, 0.5, 0, "1"]]}},
        {**base, "algebra": {"dim": 1, "unit": ["1"], "structure": [[0, 0, float("nan"), "1"]]}},
        {**base, "field": {"kind": "prime", "modulus": 7.5}},
        {**base, "field": {"kind": "prime", "modulus": True}},
    ]
    parsed = 0
    for data in mutations:
        try:
            extension_from_dict(data)
            parsed += 1
        except InputError:
            pass
    assert parsed == 0
