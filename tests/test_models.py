import pytest

from hopftower.algebra import LinMap, SubspaceBasis
from hopftower.fields import PrimeField, RationalField
from hopftower.frobenius import verify_frobenius_identities
from hopftower.galois import ModuleAlgebraAction
from hopftower.models import (
    GROUPS,
    ModelError,
    cyclic_group,
    galois_frobenius_system,
    generate_example,
    group_hopf,
    symmetric_group_3,
)

Q = RationalField()
F7 = PrimeField(7)
F2 = PrimeField(2)


# -- groups -------------------------------------------------------------------


def test_group_presentations_verify():
    for gname, ctor in GROUPS.items():
        assert ctor().verify(), gname


def test_s3_inverses():
    G = symmetric_group_3()
    for i in range(6):
        j = G.inverse(i)
        assert G.mul[i][j] == 0 and G.mul[j][i] == 0


# -- group Hopf pairs -----------------------------------------------------------


def test_group_hopf_z2_integrals():
    pair = group_hopf(cyclic_group(2), Q)
    assert pair.report.ok
    # t = (e + g)/2, f = 2 delta_e
    assert {k: str(c) for k, c in pair.t.items()} == {0: "1/2", 1: "1/2"}
    assert {k: str(c) for k, c in pair.f.items()} == {0: "2"}


def test_group_hopf_char_divides_order():
    with pytest.raises(ModelError):
        group_hopf(cyclic_group(2), F2)


def test_group_hopf_s3_f7():
    pair = group_hopf(symmetric_group_3(), F7)
    assert pair.report.ok


# -- derived Frobenius systems -----------------------------------------------------


def test_quadratic_model_reproduces_field_extension(bundle_sqrt2, sys_sqrt2):
    # E(a + b sqrt2) = a, lambda^-1 = 2, dual bases as in the plain extension
    assert bundle_sqrt2.sys.E == sys_sqrt2.E
    assert bundle_sqrt2.sys.dual_tensor == sys_sqrt2.dual_tensor
    assert str(bundle_sqrt2.sys.lambda_inverse) == "2"


def test_translation_model_f7(bundle_z3_f7):
    assert bundle_z3_f7.sys.lambda_inverse == 3
    assert verify_frobenius_identities(bundle_z3_f7.sys).ok
    # E is the normalized averaging over translates
    E = bundle_z3_f7.sys.E
    inv3 = F7.inv(F7.from_int(3))
    assert all(col == {0: inv3} for col in E.columns)


def test_trivial_action_diagnostic():
    # invariants of the trivial action are everything, not k: diagnosed
    pair = group_hopf(cyclic_group(2), Q)
    X = __import__("hopftower.models", fromlist=["function_algebra"]).function_algebra(
        cyclic_group(2), Q
    )
    triv = ModuleAlgebraAction(pair.H, X, [LinMap.identity(Q, 2), LinMap.identity(Q, 2)])
    expected_n = SubspaceBasis(X, [X.unit])
    with pytest.raises(ModelError):
        galois_frobenius_system(pair, triv, expected_n=expected_n)


def test_model_bundle_reports(bundle_z2, bundle_z3_f7, bundle_sqrt2):
    for b in (bundle_z2, bundle_z3_f7, bundle_sqrt2):
        assert b.report.ok


# -- generated examples --------------------------------------------------------------


def test_generate_trivial():
    ext, sidecar = generate_example("trivial")
    assert ext.M.dim == 1
    assert sidecar["expect"]["lambda_inverse"] == "1"


def test_generate_group_pair_s3_a3():
    ext, sidecar = generate_example("group-pair", {"group": "s3", "subgroup": "a3"})
    assert ext.M.dim == 6 and ext.N.dim == 3
    assert sidecar["expect"]["lambda_inverse"] == "2"
    assert sidecar["expect"]["depth_two"]["level1"] == "pass"
    sys = __import__("hopftower.frobenius", fromlist=["solve_dual_bases"]).solve_dual_bases(ext)
    assert str(sys.lambda_inverse) == "2"


def test_generate_group_pair_non_normal_sidecar():
    ext, sidecar = generate_example("group-pair", {"group": "s3", "subgroup": "z2"})
    assert sidecar["expect"]["depth_two"]["level1"] == "fail"


def test_generate_m2f2_matches_printed_tensor(ext_m2f2):
    ext, sidecar = generate_example("m2f2")
    assert ext.M.field == ext_m2f2.M.field
    assert ext.dual_pairs is not None and len(ext.dual_pairs) == 6
    assert sidecar["expect"]["dual_tensor_terms"] == 6


def test_generate_function_algebra_f7():
    ext, sidecar = generate_example("function-algebra", {"group": "z3", "field": "f7"})
    assert ext.M.dim == 3
    assert sidecar["expect"]["lambda_inverse"] == "3"


@pytest.mark.parametrize("spec, p", [("f2", 2), ("f7", 7), ("f1009", 1009)])
def test_field_param_reads_prime_names(spec, p):
    ext, _ = generate_example("trivial", {"field": spec})
    assert ext.M.field == PrimeField(p)


def test_generate_unknown_name():
    with pytest.raises(ModelError):
        generate_example("no-such-example")


def test_generate_bad_params():
    with pytest.raises(ModelError):
        generate_example("group-pair", {"group": "s3", "subgroup": "z9"})
    with pytest.raises(ModelError):
        generate_example("quadratic-field", {"d": "0"})


def test_generated_files_are_deterministic():
    from hopftower.fileio import canonical_json, extension_to_dict

    a1 = canonical_json(extension_to_dict(generate_example("m2f2")[0]))
    a2 = canonical_json(extension_to_dict(generate_example("m2f2")[0]))
    assert a1 == a2
    b1 = canonical_json(
        extension_to_dict(generate_example("group-pair", {"group": "s3", "subgroup": "a3"})[0])
    )
    b2 = canonical_json(
        extension_to_dict(generate_example("group-pair", {"group": "s3", "subgroup": "a3"})[0])
    )
    assert b1 == b2


def test_extension_roundtrip_through_files():
    from hopftower.fileio import extension_from_dict, extension_to_dict

    ext, _ = generate_example("group-pair", {"group": "s3", "subgroup": "a3"})
    data = extension_to_dict(ext)
    ext2 = extension_from_dict(data)
    assert ext2.M.dim == ext.M.dim
    assert extension_to_dict(ext2) == data


def test_model_tower_verifications(model_z2, model_z3_f7):
    # e1 and e2 are the embedded normalized integrals; A and B sit inside the
    # honest centralizers (asserted in the fixture); here re-check dims
    for (t, d2), n in ((model_z2, 2), (model_z3_f7, 3)):
        assert d2.A.dim == n and d2.B.dim == n and d2.C.dim == n * n
        assert t.M1.dim == n * n and t.M2.dim == n ** 3
