from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hopftower import fields
from hopftower.fields import (
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
# and inv; sums and products of those stay in the backend type), so patching
# _rat selects the backend.


@pytest.fixture(params=["fraction", "gmpy2"])
def Q_backend(request, monkeypatch):
    rat = Fraction if request.param == "fraction" else pytest.importorskip("gmpy2").mpq
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
# sums cancel to integers, e.g. 2 * (1/2)
_small_rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_small_rationals, _small_rationals)
def test_rational_ops_match_fraction_in_canonical_form(Q_backend, a, b):
    # every operation agrees with plain Fraction arithmetic and returns an int
    # exactly when the value is integral
    Q, rat = Q_backend
    x, y = Q.parse(str(a)), Q.parse(str(b))
    results = [
        (x, a), (y, b), (Q.zero, Fraction(0)), (Q.one, Fraction(1)),
        (Q.from_int(a.numerator), Fraction(a.numerator)),
        (Q.add(x, y), a + b), (Q.sub(x, y), a - b), (Q.mul(x, y), a * b), (Q.neg(x), -a),
    ]
    if b:
        results += [(Q.inv(y), 1 / b), (Q.div(x, y), a / b)]
    for got, want in results:
        assert Q.to_str(got) == str(want)
        assert _is_canonical(got, rat), (got, want)
        assert Q.is_zero(got) == (want == 0)


@pytest.mark.parametrize("text, expected", [("12", 5), ("-7", 0), ("-1", 6), ("+3", 3), (" 8 ", 1)])
def test_prime_parse_integer_tokens(text, expected):
    assert PrimeField(7).parse(text) == expected


@pytest.mark.parametrize("text", ["1_000", "\u0663", "\u00b2", "1.5", "3/4", "", "-", "--1"])
def test_prime_parse_rejects_outside_grammar(text):
    with pytest.raises(FieldError):
        PrimeField(7).parse(text)
