import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from hopftower import fields
from hopftower.fields import (
    PSI_13,
    FieldError,
    PrimeField,
    RationalField,
    field_from_spec,
    field_to_spec,
    is_prime,
)


def test_rational_basics():
    Q = RationalField()
    a = Q.parse("3/4")
    b = Q.parse("-1/4")
    assert Q.to_str(Q.add(a, b)) == "1/2"
    assert Q.to_str(Q.mul(a, Q.from_int(4))) == "3"
    assert Q.to_str(Q.inv(Q.from_int(-2))) == "-1/2"
    assert Q.is_zero(Q.sub(a, a))


def test_rational_serialization_lowest_terms():
    Q = RationalField()
    assert Q.to_str(Q.parse("4/8")) == "1/2"
    assert Q.to_str(Q.parse("6/3")) == "2"
    assert Q.to_str(Q.parse("-3/-6")) == "1/2"


def test_prime_field_basics():
    F = PrimeField(7)
    assert F.add(5, 4) == 2
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.to_str(F.parse("12")) == "5"
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_prime_field_rejects_composite():
    with pytest.raises(FieldError):
        PrimeField(6)
    with pytest.raises(FieldError):
        PrimeField(1)


# psi_12 = 399165290221 * 798330580441 is a strong pseudoprime to every prime
# base up to 37; psi_13 = 1287836182261 * 2575672364521 to every one up to 41
PSI_12 = 318_665_857_834_031_151_167_461


def test_prime_field_rejects_strong_pseudoprimes():
    assert PSI_12 == 399165290221 * 798330580441 and PSI_13 == 1287836182261 * 2575672364521
    assert not is_prime(PSI_12)
    for n in (PSI_12, PSI_13, PSI_13 + 2):
        with pytest.raises(FieldError):
            PrimeField(n)
    assert PrimeField(2**61 - 1).inv(2) == 2**60


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 97, 101, 2**31 - 1]
    for p in primes:
        assert is_prime(p)
    for n in [0, 1, 4, 9, 91, 561, 2**31 - 2]:
        assert not is_prime(n)


def test_field_spec_roundtrip():
    for f in (RationalField(), PrimeField(5)):
        assert field_from_spec(field_to_spec(f)) == f


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_rational_field_axioms(a, b, c):
    Q = RationalField()
    x, y, z = Q.from_int(a), Q.from_int(b), Q.from_int(c)
    assert Q.eq(Q.add(x, y), Q.add(y, x))
    assert Q.eq(Q.mul(Q.add(x, y), z), Q.add(Q.mul(x, z), Q.mul(y, z)))
    if b:
        assert Q.eq(Q.mul(Q.div(x, y), y), x)


@given(st.integers(0, 100), st.integers(0, 100))
def test_prime_field_axioms(a, b):
    F = PrimeField(11)
    x, y = F.from_int(a), F.from_int(b)
    assert F.add(x, y) == F.add(y, x)
    assert 0 <= F.mul(x, y) < 11
    if y:
        assert F.mul(F.div(x, y), y) == x


# -- scalar grammar, on every rational backend that imports ------------------
# RationalField makes every non-integral scalar through fields._rat (in parse
# and inv; sums and products of those stay in the backend type: the direct
# kernel for Fractions, the backend's own operators for any other type), so
# patching _rat selects the backend. Where gmpy2 is installed fields leaves
# Fraction unbound (None); the Fraction leg binds it, so that the kernel runs.


@pytest.fixture(params=["fraction", "gmpy2"])
def Q_backend(request, monkeypatch):
    if request.param == "fraction":
        rat = Fraction
        monkeypatch.setattr(fields, "Fraction", Fraction)
    else:
        rat = pytest.importorskip("gmpy2").mpq
    monkeypatch.setattr(fields, "_rat", rat)
    return RationalField(), rat


@pytest.mark.parametrize(
    "text, expected",
    [
        ("4/8", "1/2"),
        ("6/3", "2"),
        ("-3/-6", "1/2"),
        ("3/-6", "-1/2"),
        ("+3/+6", "1/2"),
        ("-0", "0"),
        ("0/5", "0"),
        ("007", "7"),
        (" -1/2\n", "-1/2"),
    ],
)
def test_rational_parse_normalises_signs(Q_backend, text, expected):
    Q, rat = Q_backend
    x = Q.parse(text)
    # an int exactly when integral, the backend type otherwise
    assert type(x) is (type(rat(1, 2)) if "/" in expected else int)
    assert Q.to_str(x) == expected


@pytest.mark.parametrize(
    "text",
    ["1.5", "1e3", "1_000", "\u0663", "\u0663/\u0664", "\u00b2", "3/", "/3", "1/0",
     "--1", "+-1", "1 /2", "1/ 2", "1/2/3", "", "/", "0x10", "nan", "inf"],
)
def test_rational_parse_rejects_outside_grammar(Q_backend, text):
    Q, _ = Q_backend
    with pytest.raises(FieldError):
        Q.parse(text)


def test_rational_parse_reads_back_canonical_strings(Q_backend):
    # Every canonical scalar the program writes must parse to the value it
    # came from, so reports do not depend on which backend runs.
    Q, rat = Q_backend
    values = [rat(n, d) for n in range(-40, 41) for d in range(1, 41)]
    values += [rat(-(10**40) - 1, 3**50), rat(2**100)]
    for x in values:
        parsed = Q.parse(Q.to_str(x))
        assert parsed == x and Q.to_str(parsed) == Q.to_str(x)


def _is_canonical(x, rat) -> bool:
    return type(x) is (int if x.denominator == 1 else type(rat(1, 2)))


# small denominators, so that many values are integral and many products and
# sums cancel to integers, e.g. 2 * (1/2); and a few large values, so that the
# kernel's gcd steps run on multi-word numerators and denominators
_LARGE = [
    Fraction(10**40 + 1, 3**50), Fraction(-(10**40) - 1, 3**50), Fraction(10**40, 3**50),
    Fraction(-(10**40), 3**50), Fraction(2**100), Fraction(-(2**100)), Fraction(1, 2**100),
    Fraction(3**50, 2**100 + 1),
]
_small_rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
_rationals = st.one_of(_small_rationals, st.sampled_from(_LARGE))


def _assert_canonical_value(Q, got, want, rat):
    """got is want, as the program keeps it: an int exactly when integral,
    otherwise the backend type in lowest terms with a positive denominator."""
    assert Q.to_str(got) == str(want)
    assert _is_canonical(got, rat), (got, want)
    assert got.denominator > 0 and gcd(int(got.numerator), int(got.denominator)) == 1
    assert hash(got) == hash(want)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_rationals, _rationals)
# inverses of +-1, of other +-ints, of +-1/n and of general +-n/d
@example(Fraction(1), Fraction(-1))
@example(Fraction(7), Fraction(-12))
@example(Fraction(1, 5), Fraction(-1, 9))
@example(Fraction(12, 7), Fraction(-5, 12))
@example(Fraction(1, 2**100), Fraction(-(3**50), 2**100 + 1))
# 0 and 1 beside a fraction on either side: the identity shortcuts
@example(Fraction(0), Fraction(-5, 12))
@example(Fraction(7, 3), Fraction(0))
@example(Fraction(1), Fraction(1, 3))
@example(Fraction(-(3**50), 2**100 + 1), Fraction(1))
def test_rational_ops_match_fraction_in_canonical_form(Q_backend, a, b):
    # every operation agrees with plain Fraction arithmetic, in both operand
    # orders, and returns an int exactly when the value is integral
    Q, rat = Q_backend
    x, y = Q.parse(str(a)), Q.parse(str(b))
    results = [
        (x, a), (y, b), (Q.zero, Fraction(0)), (Q.one, Fraction(1)),
        (Q.from_int(a.numerator), Fraction(a.numerator)),
        (Q.add(x, y), a + b), (Q.sub(x, y), a - b), (Q.mul(x, y), a * b), (Q.neg(x), -a),
        (Q.add(y, x), b + a), (Q.sub(y, x), b - a), (Q.mul(y, x), b * a), (Q.neg(y), -b),
    ]
    if a:
        results += [(Q.inv(x), 1 / a), (Q.div(y, x), b / a)]
    if b:
        results += [(Q.inv(y), 1 / b), (Q.div(x, y), a / b)]
    for got, want in results:
        _assert_canonical_value(Q, got, want, rat)
        assert Q.is_zero(got) == (want == 0)


@pytest.mark.parametrize(
    "text", ["1/2", "-7/3", f"{10**40 + 1}/{3**50}", f"-{3**50}/{2**100 + 1}"], ids=["1/2", "-7/3", "large", "-large"]
)
def test_rational_identities_return_the_fraction_operand(monkeypatch, text):
    # x + 0, 0 + x, x * 1 and 1 * x give back the Fraction x itself: no new
    # Fraction and no gcd. Scalars are immutable, so sharing x is safe.
    monkeypatch.setattr(fields, "Fraction", Fraction)
    monkeypatch.setattr(fields, "_rat", Fraction)
    Q = RationalField()
    x = Q.parse(text)
    assert type(x) is Fraction and type(Q.zero) is int and type(Q.one) is int
    assert Q.add(Q.zero, x) is x
    assert Q.add(x, Q.zero) is x
    assert Q.mul(Q.one, x) is x
    assert Q.mul(x, Q.one) is x


_CANCELLING = [
    # (a, op, b, result): sums, differences and products that cancel to an
    # int, to 0, or partly, with an int operand on either side
    ("1/2", "add", "1/2", "1"), ("5/6", "add", "1/6", "1"), ("-1/2", "add", "1/2", "0"),
    ("1/6", "add", "1/3", "1/2"), ("1/3", "sub", "1/3", "0"), ("7/6", "sub", "1/6", "1"),
    ("2", "mul", "1/2", "1"), ("1/3", "mul", "3", "1"), ("0", "mul", "1/3", "0"),
    ("1/3", "mul", "0", "0"), ("6", "mul", "-1/4", "-3/2"), ("3/4", "mul", "2/3", "1/2"),
    ("-2/3", "mul", "3/2", "-1"), ("0", "add", "1/2", "1/2"), ("1/2", "sub", "0", "1/2"),
    ("0", "sub", "1/2", "-1/2"), ("2", "sub", "1/2", "3/2"), ("1/2", "sub", "2", "-3/2"),
    (f"{10**40 + 1}/{3**50}", "sub", f"{10**40 + 1}/{3**50}", "0"),
    (f"{3**50}", "mul", f"{10**40 + 1}/{3**50}", f"{10**40 + 1}"),
    (f"{10**40 + 1}/{3**50}", "mul", f"{3**50}/{10**40 + 1}", "1"),
    (f"-{10**40}/{3**50}", "add", f"{10**40}/{3**50}", "0"),
    (f"1/{2**100}", "add", f"{2**100 - 1}/{2**100}", "1"),
    (f"1/{2**100}", "mul", f"{2**99}", "1/2"),
]


@pytest.mark.parametrize("a, op, b, expected", _CANCELLING)
def test_rational_ops_cancel_to_canonical_form(Q_backend, a, op, b, expected):
    Q, rat = Q_backend
    got = getattr(Q, op)(Q.parse(a), Q.parse(b))
    want = getattr(operator, op)(Fraction(a), Fraction(b))
    assert str(want) == expected
    _assert_canonical_value(Q, got, want, rat)


@pytest.mark.parametrize(
    "n, d", [(1, 2), (-1, 2), (3, 4), (-7, 12), (10**40 + 1, 3**50), (-(3**50), 2**100 + 1)]
)
def test_fraction_builder_matches_the_stdlib(monkeypatch, n, d):
    # fields._fraction sets Fraction's two slots directly; a different slot
    # layout on some Python version must fail here, not give wrong values
    monkeypatch.setattr(fields, "Fraction", Fraction)
    assert Fraction.__slots__ == ("_numerator", "_denominator")
    got, want = fields._fraction(n, d), Fraction(n, d)
    assert type(got) is Fraction
    assert got == want and hash(got) == hash(want) and str(got) == str(want)
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator) == (n, d)


@pytest.mark.parametrize("text, expected", [("12", 5), ("-7", 0), ("-1", 6), ("+3", 3), (" 8 ", 1)])
def test_prime_parse_integer_tokens(text, expected):
    assert PrimeField(7).parse(text) == expected


@pytest.mark.parametrize("text", ["1_000", "\u0663", "\u00b2", "1.5", "3/4", "", "-", "--1"])
def test_prime_parse_rejects_outside_grammar(text):
    with pytest.raises(FieldError):
        PrimeField(7).parse(text)


@pytest.mark.parametrize("text", ["1_0", " 7 ", "\u0667", "7"])
def test_format_integers_refuse_strings(text):
    """dim, the structure indices and a prime modulus are JSON integers; int()
    alone would read "1_0" as 10 and the Arabic-Indic seven as 7."""
    with pytest.raises(ValueError):
        fields.integral(text)
    with pytest.raises(FieldError):
        field_from_spec({"kind": "prime", "modulus": text})
