"""Exact scalar arithmetic: arbitrary-precision rationals and prime fields F_p.

Scalars are plain Python objects; every arithmetic operation goes through a
Field instance so there is exactly one place where reduction and
canonicalisation happen. No floating point anywhere. A rational is a Python
int when it is integral and otherwise a backend rational in lowest terms
(gmpy2.mpq where gmpy2 is installed, fractions.Fraction otherwise), so the
integer structure constants, idempotents and unit vectors that make up most of
the work multiply and add as ints, with no gcd. Prime-field scalars are small
ints. Equal values compare and hash equal across int and the backend type, and
``str`` gives the same text for both.

Scalar strings follow one grammar on both rational backends: Q reads
``[+-]?digits(/[+-]?digits)?`` and F_p reads ``[+-]?digits``, with ASCII
digits only, a nonzero denominator and surrounding whitespace ignored. The
string is split and checked here and the backend is only ever handed Python
ints, so gmpy2 and Fraction parse every string to the same value.
"""
from __future__ import annotations

from typing import Iterable

try:
    from gmpy2 import mpq as _rat
except ImportError:
    from fractions import Fraction as _rat


class FieldError(ValueError):
    """Invalid field construction or scalar parse."""


def digits_token(tok: str) -> int:
    """Value of a token of ASCII digits only, with no sign.

    ``int()`` alone would also take ``_`` separators, surrounding whitespace and
    non-ASCII digits such as Arabic-Indic ones, so the token is checked first.
    Raises ValueError for anything else.
    """
    if tok.isdigit() and tok.isascii():
        return int(tok)
    raise ValueError(f"not an integer token: {tok!r}")


def _int_token(tok: str) -> int:
    """Value of an integer token ``[+-]?digits``, the digits as in ``digits_token``."""
    if tok[:1] in ("+", "-"):
        n = digits_token(tok[1:])
        return -n if tok[0] == "-" else n
    return digits_token(tok)


def integral(x) -> int:
    """``int(x)``, but ValueError for a bool (JSON true/false) or a non-integral float."""
    if isinstance(x, bool) or (isinstance(x, float) and not x.is_integer()):
        raise ValueError(f"expected an integer, got {x!r}")
    return int(x)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Common scalar interface; instances are stateless and hashable.

    Scalars are kept canonical (rationals as ints when integral and in lowest
    terms otherwise, residues as least non-negative ints), so zero-tests may
    use plain truthiness.
    """

    kind: str
    zero = None  # set by subclasses
    one = None

    def __repr__(self):
        return f"Field({self.kind})"

    # -- subclass API -------------------------------------------------
    def from_int(self, n: int):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def parse(self, s: str):
        raise NotImplementedError

    # -- shared helpers -----------------------------------------------
    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return not a

    def eq(self, a, b) -> bool:
        return a == b

    def sum(self, items: Iterable):
        total = self.zero
        for x in items:
            total = self.add(total, x)
        return total

    def to_str(self, a) -> str:
        return str(a)

    def witness(self, obj):
        """A scalar, dense vector or sparse dict as a report witness shows it.

        ``report.sanitize`` keeps ints and turns other scalars into strings, so
        F_p residues appear as ints; ``RationalField`` overrides this to keep
        every Q scalar a string, integral or not.
        """
        return obj


def _q(r):
    """A backend rational in canonical form: int when integral, else unchanged.

    ``numerator`` and ``denominator`` exist on Fraction and on mpq alike.
    """
    return int(r.numerator) if r.denominator == 1 else r


class RationalField(Field):
    """Q: int scalars when integral, gmpy2.mpq or Fraction in lowest terms otherwise.

    An operation on two ints stays an int without touching the backend; any
    other result is put back in canonical form by ``_q``, so that, for example,
    2 * (1/2) is the int 1.
    """

    kind = "rational"
    zero = 0
    one = 1

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(self.kind)

    def from_int(self, n: int):
        return int(n)

    def add(self, a, b):
        c = a + b
        return c if isinstance(c, int) else _q(c)

    def sub(self, a, b):
        c = a - b
        return c if isinstance(c, int) else _q(c)

    def mul(self, a, b):
        c = a * b
        return c if isinstance(c, int) else _q(c)

    def neg(self, a):
        # negation keeps integrality either way
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _q(1 / _rat(a))

    def parse(self, s: str):
        num, slash, den = s.strip().partition("/")
        try:
            if not slash:
                return _int_token(num)
            return _q(_rat(_int_token(num), _int_token(den)))
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"bad rational scalar {s!r}") from exc

    def witness(self, obj):
        if isinstance(obj, dict):
            return {k: str(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [str(v) for v in obj]
        return str(obj)


class PrimeField(Field):
    """F_p with int scalars stored as least non-negative residues."""

    kind = "prime"

    def __init__(self, p: int):
        if not is_prime(p):
            raise FieldError(f"modulus {p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def __repr__(self):
        return f"Field(F_{self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash((self.kind, self.p))

    def from_int(self, n: int):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def parse(self, s: str):
        try:
            return _int_token(s.strip()) % self.p
        except ValueError as exc:
            raise FieldError(f"bad prime-field scalar {s!r}") from exc


def field_from_spec(spec) -> Field:
    """Build a field from its serialised form {"kind": ...}."""
    if not isinstance(spec, dict):
        raise FieldError(f"field spec must be an object, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind == "rational":
        return RationalField()
    if kind == "prime":
        try:
            modulus = integral(spec["modulus"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FieldError(f"prime field needs an integer modulus: {exc}") from exc
        return PrimeField(modulus)
    raise FieldError(f"unknown field kind {kind!r}")


def field_to_spec(field: Field) -> dict:
    if isinstance(field, PrimeField):
        return {"kind": "prime", "modulus": field.p}
    return {"kind": "rational"}
