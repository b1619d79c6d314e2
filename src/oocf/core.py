"""Exact arithmetic foundation: reduced rationals, real quadratic surds,
and 2x2 integer matrices acting as Moebius maps.

Rationals are ``fractions.Fraction`` throughout (always reduced, positive
denominator).  ``QuadIrr`` represents (p + s*sqrt(d))/q over one fixed
positive non-square d; every comparison is decided by integer sign
computations, never by floating point.  All values are immutable and all
operations are pure functions.

The public ``QuadIrr(...)`` constructor validates its input; field results
and Moebius images, over a d already checked, are reduced once by ``_quad``.
"""

import math
import re
from fractions import Fraction
from typing import NamedTuple, Union

ONE_RATIONAL = "one_rational"
INF_RATIONAL = "inf_rational"


def classify(r) -> str:
    """Parity class of a reduced fraction.

    Both parts odd gives "one_rational"; mixed parity gives "inf_rational".
    A reduced fraction can never have both parts even, so the two classes
    are exhaustive.
    """
    f = Fraction(r)
    if f.numerator % 2 == 1 and f.denominator % 2 == 1:
        return ONE_RATIONAL
    return INF_RATIONAL


def is_one_rational(r) -> bool:
    return classify(r) == ONE_RATIONAL


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def sign_linear(m: int, n: int, d: int) -> int:
    """Sign of m + n*sqrt(d) for integers m, n and positive non-square d.

    Never zero unless m = n = 0: sqrt(d) is irrational, so the mixed case
    reduces to comparing m*m against n*n*d with sign bookkeeping.
    """
    if n == 0:
        return _sign(m)
    if m == 0:
        return _sign(n)
    if (m > 0) == (n > 0):
        return 1 if m > 0 else -1
    s = _sign(m)
    return s if m * m > n * n * d else -s


def _floor_mul_sqrt(s: int, d: int) -> int:
    # floor(s*sqrt(d)); s*sqrt(d) is irrational for s != 0 and non-square d
    if s == 0:
        return 0
    r = math.isqrt(s * s * d)
    return r if s > 0 else -r - 1


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


class QuadIrr:
    """Exact element (p + s*sqrt(d))/q of a real quadratic field.

    Canonical form: q >= 1, gcd(|p|, |s|, q) = 1, s != 0 (a vanishing
    irrational part is a plain Fraction, use that instead), and d a positive
    non-square.  Two values over the same literal d are equal iff their
    canonical forms coincide; mixing different d values is an error.  d is
    deliberately not reduced to a squarefree radicand, so no factorization
    is ever needed.
    """

    __slots__ = ("p", "s", "d", "q")

    def __init__(self, p: int, s: int, d: int, q: int = 1):
        if q == 0:
            raise ValueError("zero denominator")
        if s == 0:
            raise ValueError("zero sqrt coefficient: value is rational, use Fraction")
        if d <= 0 or is_square(d):
            raise ValueError(f"d must be a positive non-square, got {d}")
        if q < 0:
            p, s, q = -p, -s, -q
        g = math.gcd(math.gcd(abs(p), abs(s)), q)
        self.p = p // g
        self.s = s // g
        self.d = d
        self.q = q // g

    # -- coercion -------------------------------------------------------

    def _coerce(self, other):
        """Return (p, s, q) of ``other`` over this value's d, or None."""
        if type(other) is int:
            return other, 0, 1
        if isinstance(other, QuadIrr):
            if other.d != self.d:
                raise ValueError(f"mixed quadratic fields: sqrt({self.d}) vs sqrt({other.d})")
            return other.p, other.s, other.q
        if isinstance(other, int):
            return other, 0, 1
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator
        return None

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p2, s2, q2 = o
        return _make(self.p * q2 + p2 * self.q, self.s * q2 + s2 * self.q,
                     self.d, self.q * q2)

    __radd__ = __add__

    def __neg__(self):
        return _quad(-self.p, -self.s, self.d, self.q)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p2, s2, q2 = o
        return _make(self.p * q2 - p2 * self.q, self.s * q2 - s2 * self.q,
                     self.d, self.q * q2)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p2, s2, q2 = o
        return _make(p2 * self.q - self.p * q2, s2 * self.q - self.s * q2,
                     self.d, self.q * q2)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p2, s2, q2 = o
        return _make(self.p * p2 + self.s * s2 * self.d,
                     self.p * s2 + self.s * p2, self.d, self.q * q2)

    __rmul__ = __mul__

    def inverse(self) -> "QuadIrr":
        return _quotient(self.d, 1, 0, 1, self.p, self.s, self.q)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _quotient(self.d, self.p, self.s, self.q, *o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _quotient(self.d, *o, self.p, self.s, self.q)

    def conjugate(self) -> "QuadIrr":
        return _quad(self.p, -self.s, self.d, self.q)

    # -- order ----------------------------------------------------------

    def _cmp(self, other) -> int:
        if type(other) is int:
            return sign_linear(self.p - other * self.q, self.s, self.d)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p2, s2, q2 = o
        return sign_linear(self.p * q2 - p2 * self.q,
                           self.s * q2 - s2 * self.q, self.d)

    def __eq__(self, other):
        if type(other) is int:
            return False  # s != 0 means the value is irrational
        if isinstance(other, QuadIrr):
            return (self.d == other.d and self.p == other.p
                    and self.s == other.s and self.q == other.q)
        if isinstance(other, (int, Fraction)):
            return False  # s != 0 means the value is irrational
        return NotImplemented

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def __hash__(self):
        return hash((self.p, self.s, self.d, self.q))

    # -- misc -----------------------------------------------------------

    def __abs__(self):
        return -self if self._cmp(0) < 0 else self

    def __floor__(self) -> int:
        return (self.p + _floor_mul_sqrt(self.s, self.d)) // self.q

    def __float__(self) -> float:
        """Within one ulp of the value, whatever cancels between p and s*sqrt(d).

        F = floor(x * 2^k) is exact integer work; k grows until |F| >= 2^53.
        Then x lies in [F, F + 1) / 2^k, less than ulp/2 from F / 2^k, and
        the correctly rounded int division adds at most ulp/2 more.
        """
        k = 64
        while True:
            f = ((self.p << k) + _floor_mul_sqrt(self.s << k, self.d)) // self.q
            n = abs(f).bit_length()
            if n >= 54:
                return f / (1 << k)
            k += 55 - n

    def __repr__(self):
        return f"QuadIrr({self.p}, {self.s}, {self.d}, {self.q})"

    def __str__(self):
        return format_real(self)


RealInput = Union[Fraction, QuadIrr]


def _quad(p: int, s: int, d: int, q: int) -> QuadIrr:
    """(p + s*sqrt(d))/q in canonical form, for s, q != 0 and d already
    checked: the trusted constructor of field results, with no check."""
    if q < 0:
        p, s, q = -p, -s, -q
    g = math.gcd(p, s, q)
    x = object.__new__(QuadIrr)
    x.p = p // g
    x.s = s // g
    x.d = d
    x.q = q // g
    return x


def _fraction(p: int, q: int) -> Fraction:
    """p/q for coprime ints p and q > 0: the trusted constructor of pairs
    proven reduced, with no type dispatch, no gcd and no check.  It fills
    the two slots ``_numerator`` and ``_denominator`` that ``Fraction``
    has on CPython 3.10-3.13."""
    f = object.__new__(Fraction)
    f._numerator = p
    f._denominator = q
    return f


def _make(p: int, s: int, d: int, q: int):
    """Quadratic-field value in canonical form; collapses to Fraction when rational."""
    if s == 0:
        return Fraction(p, q)
    return _quad(p, s, d, q)


def _quotient(d: int, p1: int, s1: int, q1: int, p2: int, s2: int, q2: int):
    """((p1 + s1*sqrt(d))/q1) / ((p2 + s2*sqrt(d))/q2), times p2 - s2*sqrt(d)
    above and below; the norm p2^2 - s2^2*d is 0 only for a zero divisor."""
    norm = p2 * p2 - s2 * s2 * d
    if norm == 0:
        raise ZeroDivisionError("division by zero")
    return _make(q2 * (p1 * p2 - s1 * s2 * d), q2 * (s1 * p2 - p1 * s2), d, q1 * norm)


def frac_sqrt(d: int) -> QuadIrr:
    """Fractional part of sqrt(d): sqrt(d) - floor(sqrt(d)), for non-square d."""
    return QuadIrr(-math.isqrt(d), 1, d, 1)


# ---------------------------------------------------------------------------
# 2x2 integer matrices acting on the projective line


class Mat2(NamedTuple):
    """Integer matrix [[a, b], [c, d]] acting by z -> (a*z + b)/(c*z + d)."""

    a: int
    b: int
    c: int
    d: int

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a * other.a + self.b * other.c,
                    self.a * other.b + self.b * other.d,
                    self.c * other.a + self.d * other.c,
                    self.c * other.b + self.d * other.d)

    def apply(self, x):
        """Moebius image (a*x + b)/(c*x + d) of an exact x in one quotient, a
        Fraction for a rational x or a det-0 matrix; raises at the pole.  On
        (p + s*sqrt(D))/q it is (n0 + n1*sqrt(D))/(m0 + m1*sqrt(D)), n0 = a*p +
        b*q, n1 = a*s, m0 = c*p + d*q, m1 = c*s: 0 below only at c = d = 0."""
        a, b, c, d = self
        if isinstance(x, QuadIrr):
            m0, m1 = c * x.p + d * x.q, c * x.s
            if m0 == 0 == m1:
                raise ValueError("Moebius map pole: c*x + d = 0")
            return _quotient(x.d, a * x.p + b * x.q, a * x.s, 1, m0, m1, 1)
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"Moebius image of {x!r}: pass an int, Fraction or QuadIrr")
        n, m = x.numerator, x.denominator
        if c * n + d * m == 0:
            raise ValueError("Moebius map pole: c*x + d = 0")
        return Fraction(a * n + b * m, c * n + d * m)

    def theta_member(self) -> bool:
        """Membership in the theta group: det 1 and mod-2 reduction equal to
        the identity or to the order-4 rotation [[0,-1],[1,0]]."""
        return self.det() == 1 and theta_coset_member(self)


IDENTITY = Mat2(1, 0, 0, 1)


def theta_coset_member(m: Mat2) -> bool:
    """True when m lies in the theta group or its swap coset: |det| = 1 and
    mod-2 reduction is the identity or the antidiagonal."""
    if m.det() not in (1, -1):
        return False
    r = (m.a % 2, m.b % 2, m.c % 2, m.d % 2)
    return r == (1, 0, 0, 1) or r == (0, 1, 1, 0)


# ---------------------------------------------------------------------------
# Number grammar: "p/q", "(P+S*sqrt(D))/Q", "sqrt(D)"; whitespace-insensitive

_RAT_RE = re.compile(r"^([+-]?\d+)(?:/([+-]?\d+))?$")
_SQRT_RE = re.compile(r"^sqrt\((\d+)\)$")
_QUAD_RE = re.compile(r"^\(([+-]?\d+)([+-]\d+)\*sqrt\((\d+)\)\)/(\d+)$")


def parse_real(text: str) -> RealInput:
    """Parse "p/q", "(P+S*sqrt(D))/Q", or "sqrt(D)" into an exact value."""
    compact = "".join(text.split())
    m = _RAT_RE.match(compact)
    if m:
        den = int(m.group(2)) if m.group(2) is not None else 1
        if den == 0:
            raise ValueError("zero denominator")
        return Fraction(int(m.group(1)), den)
    m = _SQRT_RE.match(compact)
    if m:
        d = int(m.group(1))
        if is_square(d):
            return Fraction(math.isqrt(d))
        return _quad(0, 1, d, 1)
    m = _QUAD_RE.match(compact)
    if m:
        p, s, d, q = (int(m.group(i)) for i in range(1, 5))
        if q == 0:
            raise ValueError("zero denominator")
        if is_square(d):
            return Fraction(p + s * math.isqrt(d), q)
        return _make(p, s, d, q)
    raise ValueError(f"cannot parse number {text!r}; expected p/q, "
                     "(P+S*sqrt(D))/Q, or sqrt(D)")


def format_real(x) -> str:
    if isinstance(x, QuadIrr):
        return f"({x.p}{x.s:+d}*sqrt({x.d}))/{x.q}"
    f = x if isinstance(x, Fraction) else Fraction(x)
    return f"{f.numerator}/{f.denominator}"
