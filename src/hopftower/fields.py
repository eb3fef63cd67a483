"""Exact scalar arithmetic: arbitrary-precision rationals and prime fields F_p.

Scalars are plain Python objects; every arithmetic operation goes through a
Field instance so there is exactly one place where reduction and
canonicalisation happen. No floating point anywhere. A rational is a Python
int when it is integral and otherwise a backend rational in lowest terms
(gmpy2.mpq where gmpy2 is installed, fractions.Fraction otherwise), so the
integer structure constants, idempotents and unit vectors that make up most of
the work multiply and add as ints, with no gcd. Prime-field scalars are small
ints. Equal values compare and hash equal across int and the backend type, and
``str`` gives the same text for both. Q arithmetic on ints and Fractions runs
on a kernel here that works on numerators and denominators directly, with the
stdlib's gcd steps and without Fraction's operator dispatch and
re-normalisation; see ``RationalField``. A sum with 0 and a product with 1
return the Fraction operand itself, so the accumulate loops, whose first term
is added to an implicit zero, and the unit scalings build no new Fraction.
gmpy2's mpq keeps its own operators.

Scalar strings follow one grammar on both rational backends: Q reads
``[+-]?digits(/[+-]?digits)?`` and F_p reads ``[+-]?digits``, with ASCII
digits only, a nonzero denominator and surrounding whitespace ignored. The
string is split and checked here and the backend is only ever handed Python
ints, so gmpy2 and Fraction parse every string to the same value.
"""
from __future__ import annotations

from math import gcd

try:
    from gmpy2 import mpq as _rat

    Fraction = None  # no scalar is a Fraction then, so the kernel never runs
except ImportError:
    from fractions import Fraction

    _rat = Fraction


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
    """``int(x)``, but ValueError for a string, a bool (JSON true/false) or a non-integral float."""
    if isinstance(x, (str, bool)) or (isinstance(x, float) and not x.is_integer()):
        raise ValueError(f"expected an integer, got {x!r}")
    return int(x)


# the primes up to 41, and psi_13, the least odd composite that is a strong
# probable prime to all of them (Sorenson-Webster, Math. Comp. 86, 2017)
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on PRIME_BASES: exact for n < PSI_13."""
    if n < 2:
        return False
    for p in PRIME_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in PRIME_BASES:
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


def _fraction(n: int, d: int) -> Fraction:
    """The Fraction n/d for coprime ints n and d > 1, without normalising it again.

    ``Fraction(n, d)`` would recompute a gcd known to be 1. A Fraction keeps
    its value in the two slots ``_numerator`` and ``_denominator`` on CPython
    3.10 to 3.13, and ``tests/test_fields.py`` pins that layout.
    """
    r = object.__new__(Fraction)
    r._numerator = n
    r._denominator = d
    return r


def _add(na: int, da: int, nb: int, db: int):
    """na/da + nb/db in canonical form, for two fractions in lowest terms with da, db > 1.

    The gcd steps of ``Fraction._add`` (Knuth, TAOCP vol. 2, 4.5.1). With
    g = gcd(da, db) the sum is t / (da/g · db) where t = na·(db/g) + nb·(da/g).
    As both fractions are in lowest terms, t is coprime to da/g and to db/g,
    so gcd(t, g) is all that cancels; when g = 1 nothing does.
    """
    g = gcd(da, db)
    if g == 1:
        return _fraction(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    n, d = t // g2, s * (db // g2)
    return n if d == 1 else _fraction(n, d)


def _mul(na: int, da: int, nb: int, db: int):
    """na/da · nb/db in canonical form, for two fractions in lowest terms with da, db > 1.

    After gcd(na, db) and gcd(nb, da) are cancelled, each factor of the
    numerator is coprime to each factor of the denominator.
    """
    g1, g2 = gcd(na, db), gcd(nb, da)
    n, d = (na // g1) * (nb // g2), (da // g2) * (db // g1)
    return n if d == 1 else _fraction(n, d)


def _scale(c: int, n: int, d: int):
    """c · n/d in canonical form, for an int c and n/d in lowest terms with d > 1.

    ``_mul(c, 1, n, d)`` gives the same result with one more gcd, gcd(n, 1).
    """
    g = gcd(c, d)
    n, d = c // g * n, d // g
    return n if d == 1 else _fraction(n, d)


class RationalField(Field):
    """Q: int scalars when integral, gmpy2.mpq or Fraction in lowest terms otherwise.

    ``add``, ``sub``, ``mul``, ``neg`` and ``inv`` dispatch on the exact operand types.
    Two ints use int arithmetic. An int and a Fraction, or two Fractions, go to
    the kernel above, which works on numerators and denominators and cancels
    exactly what the stdlib's ``_add`` and ``_mul`` cancel. Its result is
    therefore in lowest terms with a positive denominator: an int when the
    denominator is 1, else a Fraction built by ``_fraction``. An int plus a
    fraction n/d needs no gcd at all, since gcd(c·d + n, d) = gcd(n, d) = 1,
    and an int times n/d needs one, in ``_scale``; an inverse needs none, as
    d/n of a fraction in lowest terms is one too. These int cases are written
    out rather than passed to ``_add`` and ``_mul`` as c/1: they are most of
    the mixed operations, and the extra call and gcd slow the Q benchmark
    measurably. 0 + x, x + 0, 1 · x and x · 1 for a Fraction x return x
    itself, with no ``_fraction`` and no gcd: scalars are immutable and
    canonical, so sharing the object is safe, and on a Q catalog pass these
    cases are about two thirds of the Fractions the kernel would otherwise
    build. Any other operand type, gmpy2's mpq in particular, keeps its
    own operators, which are already C code; ``_q`` turns an integral result
    into an int, so that, for example, 2 * (1/2) is the int 1 on either
    backend. Where gmpy2 is installed no scalar is a Fraction: the module then
    leaves ``fractions`` unimported and ``Fraction`` None, and the kernel never
    runs. Operands are canonical Q scalars: every scalar the program holds was
    made here.
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
        ta, tb = type(a), type(b)
        if ta is int:
            if tb is int:
                return a + b
            if tb is Fraction:
                if not a:
                    return b
                return _fraction(a * b._denominator + b._numerator, b._denominator)
        elif ta is Fraction:
            if tb is Fraction:
                return _add(a._numerator, a._denominator, b._numerator, b._denominator)
            if tb is int:
                if not b:
                    return a
                return _fraction(a._numerator + b * a._denominator, a._denominator)
        return _q(a + b)

    def sub(self, a, b):
        ta, tb = type(a), type(b)
        if ta is int:
            if tb is int:
                return a - b
            if tb is Fraction:
                return _fraction(a * b._denominator - b._numerator, b._denominator)
        elif ta is Fraction:
            if tb is Fraction:
                return _add(a._numerator, a._denominator, -b._numerator, b._denominator)
            if tb is int:
                return _fraction(a._numerator - b * a._denominator, a._denominator)
        return _q(a - b)

    def mul(self, a, b):
        ta, tb = type(a), type(b)
        if ta is int:
            if tb is int:
                return a * b
            if tb is Fraction:
                if a == 1:
                    return b
                return _scale(a, b._numerator, b._denominator)
        elif ta is Fraction:
            if tb is Fraction:
                return _mul(a._numerator, a._denominator, b._numerator, b._denominator)
            if tb is int:
                if b == 1:
                    return a
                return _scale(b, a._numerator, a._denominator)
        return _q(a * b)

    def neg(self, a):
        # negation keeps integrality and lowest terms
        if type(a) is Fraction:
            return _fraction(-a._numerator, a._denominator)
        return -a

    def inv(self, a):
        # 1/a of a canonical a is already in lowest terms: swap numerator and
        # denominator and move the sign, with no gcd
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        ta = type(a)
        if ta is int and (a == 1 or a == -1):
            return a
        if Fraction is not None:
            if ta is int:
                return _fraction(1, a) if a > 0 else _fraction(-1, -a)
            if ta is Fraction:
                n, d = a._numerator, a._denominator
                if n < 0:
                    n, d = -n, -d
                return d if n == 1 else _fraction(d, n)
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
        if p >= PSI_13:
            raise FieldError(f"modulus {p} is at least {PSI_13}, beyond the range where primality is certified")
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
