"""Odd-odd continued fraction digit streams.

``expand`` follows the canonical half-open branch convention, so every input
has exactly one digit sequence here; the two-expansion multiplicity of
nonzero rationals is exposed separately by ``all_expansions``.  Expansions
of quadratic irrationals are detected as eventually periodic by exact
repetition of the tail value zeta_n = T^(n-1)(x).  Every expansion, here
and in ``rcf``, runs on the driver ``orbit`` or its lazy form
``orbit_stream``, one step per run of equal digits: the odd-odd steps
(``maps.oocf_rational_step``, ``maps.oocf_surd_step``) take a whole run of
(2,-1) digits on bare-integer states at once, and any other map one digit
per step.  Each run still comes out as one digit per map application.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby, repeat
from typing import Iterator, Optional

from .core import Mat2, QuadIrr, _make, is_square
from .maps import OocfDigit, _unit, check_digit, oocf_rational_step, oocf_surd_step
# not called here: perfbench/test_checks.py reads expansion.oocf_branch_of
from .maps import oocf_branch_of  # noqa: F401

FINITE = "finite"
TAIL_2M1 = "tail_2m1"
PERIODIC = "periodic"
TRUNCATED = "truncated"

_TERMINATORS = (FINITE, TAIL_2M1, PERIODIC, TRUNCATED)
_HARD_CAP = 10 ** 6
_OOCF_ENDS = {(1, 1): FINITE, (0, 1): TAIL_2M1}


def _check_tail(digits, terminator: str, period_start: Optional[int]) -> None:
    """Terminator and period checks shared by the expansion constructors."""
    if terminator not in _TERMINATORS:
        raise ValueError(f"unknown terminator {terminator!r}")
    if terminator == PERIODIC:
        if not (isinstance(period_start, int) and 0 <= period_start < len(digits)):
            raise ValueError("periodic expansion needs a period_start inside the digits")
        per = digits[period_start:]
        n = len(per)
        if any(per == per[:k] * (n // k) for k in range(1, n) if n % k == 0):
            raise ValueError(f"period {per} is a repetition of a shorter word")
    elif period_start is not None:
        raise ValueError("period_start is only meaningful for periodic expansions")


@dataclass(frozen=True)
class OocfExpansion:
    """A digit prefix plus how the tail continues.

    finite      exact value, reached state 1 (value is a one-rational)
    tail_2m1    trailing (2,-1) repeated forever, reached state 0
                (value is an inf-rational)
    periodic    digits repeat from index ``period_start`` onward; the
                stored digits are the preperiod plus one full period
    truncated   a plain prefix, tail unknown
    """

    digits: tuple[OocfDigit, ...]
    terminator: str
    period_start: Optional[int] = None

    def __post_init__(self):
        digits = tuple(self.digits)
        for a, e in digits:
            check_digit(a, e)
        digits = tuple(OocfDigit(int(a), int(e)) for a, e in digits)
        object.__setattr__(self, "digits", digits)
        _check_tail(digits, self.terminator, self.period_start)

    @classmethod
    def _of_orbit(cls, digits, terminator: str, period_start: Optional[int]):
        """The expansion of an odd-odd ``orbit`` result, without
        ``__post_init__``: the orbit emits only legal ``OocfDigit``s, and
        its first repeated state gives a minimal period."""
        e = object.__new__(cls)
        put = object.__setattr__
        put(e, "digits", tuple(digits))
        put(e, "terminator", terminator)
        put(e, "period_start", period_start)
        return e

    @property
    def preperiod(self) -> tuple[OocfDigit, ...]:
        if self.terminator != PERIODIC:
            raise ValueError("not a periodic expansion")
        return self.digits[:self.period_start]

    @property
    def period(self) -> tuple[OocfDigit, ...]:
        if self.terminator != PERIODIC:
            raise ValueError("not a periodic expansion")
        return self.digits[self.period_start:]


def orbit(step, x, ends, max_digits: Optional[int] = None):
    """Run ``step`` (state -> (digit, count, next state)) from x, where
    count >= 1 copies of the digit lead from the state to the next one.

    Returns (digits, terminator, period_start), one digit per map
    application.  The walk stops at the first state that is a key of
    ``ends`` with terminator ``ends[state]``; an orbit without ends (that
    of an irrational) stops at its first repeated state with ``periodic``
    and the index of its first visit.  Either stops with ``truncated``
    once ``max_digits`` digits are out; past _HARD_CAP digits it raises
    RuntimeError.  A budget or cap inside a run cuts it at that digit.

    States are only seen at run ends, so a cycle entered mid-run shows
    up at a run end past its start.  Equal digits before equal states
    mean equal states (each digit has one inverse branch), so the start
    moves back while the digits one period apart agree.  An orbit with
    ends keeps no table of states.  Either walk goes one run past the
    limit, where a cycle that closes at the limit shows; that run is
    stored only up to the limit, and an end it reaches is not returned.

    The digits are the step's own output and are not checked here: digits
    are validated once, where they enter from outside (``OocfExpansion``,
    ``convergent_stream``), and engine output is trusted.
    """
    limit = _HARD_CAP if max_digits is None else max(0, min(max_digits, _HARD_CAP))
    digits: list = []
    append, extend = digits.append, digits.extend
    visit = {}.setdefault
    state, n = x, 0
    while True:
        if ends:
            if state in ends and n <= limit:  # past the limit: cut to truncated
                return digits, ends[state], None
        elif (first := visit(state, n)) != n:
            period = n - first
            while first:  # past the limit, every digit is the last run's d
                j = first - 1 + period
                if digits[first - 1] != (digits[j] if j < limit else d):
                    break
                first -= 1
            if first + period <= limit:
                del digits[first + period:]
                return digits, PERIODIC, first
            break
        if n > limit:
            break
        d, c, state = step(state)
        if c == 1:
            append(d)
        else:
            extend(repeat(d, min(c, limit - n)))
        n += c
    del digits[limit:]
    if max_digits is not None and limit >= max_digits:  # the budget ran out
        return digits, TRUNCATED, None
    raise RuntimeError("expansion exceeded the hard digit cap")


def orbit_stream(step, x, ends) -> Iterator:
    """Lazy form of ``orbit``: the digits of x until the state is one of
    ``ends`` (never, for an irrational x; bound it by a count)."""
    state = x
    while state not in ends:
        d, c, state = step(state)
        for _ in range(c):  # c may pass sys.maxsize, the bound of repeat
            yield d


def _oocf_orbit(x):
    """(step, integer state, ends) of the odd-odd orbit of x in [0, 1].

    A rational enters as its coprime pair (p, q), and a quadratic
    (p + s*sqrt(d))/q as the surd state (P, Q) = +-(p*q, q*q) over
    D = s^2*d*q^2, with the sign of s.
    """
    x = _unit(x)
    if isinstance(x, QuadIrr):
        sign = 1 if x.s > 0 else -1
        step = oocf_surd_step(x.s * x.s * x.d * x.q * x.q)
        return step, (sign * x.p * x.q, sign * x.q * x.q), {}
    x = Fraction(x)
    return oocf_rational_step, (x.numerator, x.denominator), _OOCF_ENDS


def digit_stream(x) -> Iterator[OocfDigit]:
    """Canonical digits of x, one per map application, until the orbit
    reaches 0 or 1 (never, for irrational x)."""
    yield from orbit_stream(*_oocf_orbit(x))


def expand(x, max_digits: Optional[int] = None) -> OocfExpansion:
    """Canonical expansion of x in [0, 1].

    Stops with terminator ``finite`` when the orbit reaches 1, ``tail_2m1``
    at 0, ``periodic`` when a quadratic tail value repeats, and
    ``truncated`` once ``max_digits`` digits are emitted.
    """
    return OocfExpansion._of_orbit(*orbit(*_oocf_orbit(x), max_digits))


def all_expansions(x) -> list[OocfExpansion]:
    """Both expansions of a nonzero rational x in (0, 1).

    A one-rational has two finite expansions differing only in the final
    digit, (k,1) versus (k+1,-1); an inf-rational has two expansions with
    a (2,-1) tail differing where the orbit reaches k/(k+1), canonical
    digit (k+2,-1) versus (k,1).  The canonical expansion comes first.
    """
    if isinstance(x, QuadIrr):
        raise ValueError("irrational input has a unique expansion; use expand()")
    x = Fraction(_unit(x))
    if not 0 < x < 1:
        raise ValueError("two-expansion enumeration needs rational x in (0, 1)")
    canon = expand(x)
    last = canon.digits[-1]
    if canon.terminator == FINITE:
        twin = OocfDigit(last.a + 1, -1)
    else:
        twin = OocfDigit(last.a - 2, 1)
    other = OocfExpansion(canon.digits[:-1] + (twin,), canon.terminator)
    return [canon, other]


def _digit_product(digits) -> Mat2:
    """Product of the digit matrices [[k-1, k+e-1], [k, k+e]] of already
    validated digits, folded on bare ints.  Each row (a, b) becomes
    (k*(a+b) - a, that + e*(a+b)), which is (a, b) times the matrix; a run
    of n digits (2,-1) is one product by [[1, 0], [2n, 1]], the n-th power
    of [[1, 0], [2, 1]], which adds 2n*b to a and 2n*d to c."""
    a, b, c, d = 1, 0, 0, 1
    for (k, e), run in groupby(digits):
        if k == 2 and e == -1:
            n2 = 2 * len(list(run))
            a += n2 * b
            c += n2 * d
            continue
        for _ in run:
            s = a + b
            a = k * s - a
            b = a + e * s
            s = c + d
            c = k * s - c
            d = c + e * s
    return Mat2(a, b, c, d)


def _periodic_tail_value(period, disc: Optional[int]):
    """The one root in [0, 1] of M z = z for the period's matrix M.

    M z = z is c z^2 + (d - a) z - b = 0, where c > 0 because every digit
    matrix has nonnegative entries and c = a >= 1.  Each inverse branch
    maps [0, 1] into [0, 1), so M(0) >= 0 and M(1) < 1: M(z) - z is
    positive at 0, or zero there only for the word ((2,-1),) whose root 0
    is double, and negative at 1.  The quadratic thus has exactly one root
    in [0, 1], its larger one.

    The root is represented over the literal radicand ``disc`` when the
    discriminant times disc is a perfect square (always the case when the
    expansion came from an element of Q(sqrt(disc))); otherwise, and for
    a ``disc`` that is not a positive int, the raw discriminant serves as
    the radicand.  No integer factorization is used.
    """
    m = _digit_product(period)
    qa, qb = m.c, m.d - m.a
    disc0 = qb * qb + 4 * qa * m.b
    if is_square(disc0):
        return Fraction(-qb + math.isqrt(disc0), 2 * qa)
    if isinstance(disc, int) and disc > 0 and is_square(disc0 * disc):
        return _make(-qb * disc, math.isqrt(disc0 * disc), disc, 2 * qa * disc)
    return _make(-qb, 1, disc0, 2 * qa)


def evaluate(e: OocfExpansion, disc: Optional[int] = None):
    """Exact value of an expansion: the Moebius image under the product of
    its digit matrices of the tail value, 1 for a finite or truncated
    prefix (the principal convergent), 0 after a (2,-1) tail (the
    stabilized pseudo-convergent), and for a periodic expansion the fixed
    point of the period matrix, under the preperiod's product.  ``disc``
    names the quadratic field the periodic value should be expressed over.
    """
    prefix, z = e.digits, 1
    if e.terminator == TAIL_2M1:
        z = 0
    elif e.terminator == PERIODIC:
        prefix, z = e.preperiod, _periodic_tail_value(e.period, disc)
    return _digit_product(prefix).apply(z)


def detect_period(x: QuadIrr, cap: int = 10 ** 5) -> tuple[int, int]:
    """Smallest (preperiod length, period length) of the expansion of a
    quadratic irrational in (0, 1), found by exact tail-value hashing."""
    if not isinstance(x, QuadIrr):
        raise ValueError("period detection needs a quadratic irrational")
    digits, terminator, start = orbit(*_oocf_orbit(x), cap + 1)
    if terminator != PERIODIC:
        raise RuntimeError(f"no repeated tail value within {cap} steps")
    return start, len(digits) - start
