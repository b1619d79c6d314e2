"""Regular and even-integer continued fractions and their bridges to the
odd-odd expansion: intermediate convergents, the inverse-branch action on
RCF digit strings, RCF-to-OOCF conversion, and the conjugacy
x -> (1-x)/(1+x) with its digit correspondence.  An exact RCF digit
string converts by its value; a truncated one to the digits shared by every
point of its cylinder, the open interval that its continuations fill.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, NamedTuple, Optional

from .core import QuadIrr, is_one_rational
from .maps import (_unit, branch_apply, branch_interval, branch_inverse,
                   check_digit, eicf_map, eicf_step, gauss_step,
                   oocf_branch_of, oocf_step)
from .expansion import (FINITE, PERIODIC, TAIL_2M1, TRUNCATED, OocfExpansion,
                        digit_stream, expand, orbit, orbit_stream)
from .convergents import convergent_stream, principal_convergents_up_to


# ---------------------------------------------------------------------------
# Regular continued fractions of values in [0, 1] (d0 = 0 throughout)

@dataclass(frozen=True)
class RcfExpansion:
    """Digits d1, d2, ... of x = [0; d1, d2, ...], all >= 1.

    Exact (finite) expansions are normalized to the canonical Gauss-map
    form: a trailing [..., t, 1] collapses to [..., t+1], so the last digit
    is >= 2 whenever there is more than one.  [] is 0 and [1] is 1.
    """

    digits: tuple[int, ...]
    terminator: str = FINITE

    def __post_init__(self):
        ds = tuple(int(d) for d in self.digits)
        if any(d < 1 for d in ds):
            raise ValueError("RCF digits must be positive")
        if self.terminator not in (FINITE, TRUNCATED):
            raise ValueError(f"bad RCF terminator {self.terminator!r}")
        if self.terminator == FINITE and len(ds) > 1 and ds[-1] == 1:
            ds = ds[:-2] + (ds[-2] + 1,)
        object.__setattr__(self, "digits", ds)

    def value(self) -> Fraction:
        if self.terminator != FINITE:
            raise ValueError("truncated expansion has no exact value")
        _, _, p, q = _rcf_ends(self.digits)
        return Fraction(p, q)


def rcf_digit_stream(x) -> Iterator[int]:
    """Gauss-map digits of x in [0, 1], exact; stops when the orbit dies at 0."""
    yield from orbit_stream(gauss_step, _unit(x), (0,))


def rcf_expand(x, max_digits: Optional[int] = None) -> RcfExpansion:
    if isinstance(x, QuadIrr) and max_digits is None:
        raise ValueError("irrational input needs an explicit digit budget")
    digits, end, _ = orbit(gauss_step, _unit(x), {0: FINITE}, max_digits)
    return RcfExpansion(tuple(digits), end)


def _rcf_pq(digits) -> Iterator[tuple[int, int, int, int, int]]:
    """(d_n, p_(n-2), q_(n-2), p_(n-1), q_(n-1)) for levels n = 1, 2, ...;
    lazy, so ``digits`` may be an endless stream."""
    p2, q2, p1, q1 = 1, 0, 0, 1
    for d in digits:
        yield d, p2, q2, p1, q1
        p2, q2, p1, q1 = p1, q1, d * p1 + p2, d * q1 + q2


def _rcf_ends(digits) -> tuple[int, int, int, int]:
    """(p_(n-1), q_(n-1), p_n, q_n) after the last of n >= 0 digits."""
    d, p2, q2, p1, q1 = 0, 0, 1, 1, 0      # n = 0: p_-1/q_-1 = 1/0, p_0 = 0
    for d, p2, q2, p1, q1 in _rcf_pq(digits):
        pass
    return p1, q1, d * p1 + p2, d * q1 + q2


def _level(d, p2, q2, p1, q1) -> list[Fraction]:
    return [Fraction(p2 + j * p1, q2 + j * q1) for j in range(1, d + 1)]


def rcf_convergents(e: RcfExpansion) -> list[Fraction]:
    return [Fraction(d * p1 + p2, d * q1 + q2) for d, p2, q2, p1, q1 in _rcf_pq(e.digits)]


def intermediate_convergents(e: RcfExpansion, n: int) -> list[Fraction]:
    """(p_(n-2) + j p_(n-1)) / (q_(n-2) + j q_(n-1)) for j = 1..d_n."""
    if not 1 <= n <= len(e.digits):
        raise ValueError(f"level {n} outside the expansion")
    return _level(*next(islice(_rcf_pq(e.digits), n - 1, None)))


def intermediate_set(e: RcfExpansion) -> set[Fraction]:
    out: set[Fraction] = set()
    for row in _rcf_pq(e.digits):
        out.update(_level(*row))
    return out


# ---------------------------------------------------------------------------
# Conversion of RCF digit strings: exact ones by value, truncated by cylinder

def _cylinder(digits) -> list[Fraction]:
    """Ends of the open interval filled by the x whose RCF expansion
    strictly extends ``digits``: p_n/q_n and (p_n + p_(n-1))/(q_n + q_(n-1)),
    the values at tail 0 and tail 1; (0, 1) for no digits."""
    p1, q1, p, q = _rcf_ends(digits)
    return sorted((Fraction(p, q), Fraction(p + p1, q + q1)))


def _decided(lo, hi, branch_of, cell, apply) -> list:
    """Digits shared by every point of the open interval (lo, hi) under the
    map with digit ``branch_of(x)``, closed cells ``cell(d)`` and branches
    ``apply(d, x)``.  The midpoint names each candidate digit, as lo may sit
    on a boundary owned by the cell to its left; the walk stops at the first
    candidate whose cell does not hold [lo, hi]."""
    out = []
    while True:
        d = branch_of((lo + hi) / 2)
        c_lo, c_hi = cell(d)
        if lo < c_lo or c_hi < hi:
            return out
        out.append(d)
        lo, hi = sorted((apply(d, lo), apply(d, hi)))


def change_rcf(digit: tuple[int, int], e: RcfExpansion) -> RcfExpansion:
    """RCF expansion of f_(a,eps)(x) given the RCF expansion of x.

    An exact string goes through its value.  A truncated one is rewritten
    to the RCF digits shared by the image under f_(a,eps) of its cylinder,
    walked through the Gauss cells [1/(d+1), 1/d].
    """
    if e.terminator == FINITE:
        return rcf_expand(branch_inverse(digit, e.value()))
    lo, hi = sorted(branch_inverse(digit, t) for t in _cylinder(e.digits))
    digits = _decided(lo, hi, lambda x: math.floor(1 / x),
                      lambda d: (Fraction(1, d + 1), Fraction(1, d)),
                      lambda d, x: 1 / x - d)
    return RcfExpansion(tuple(digits), TRUNCATED)


def rcf_to_oocf(e: RcfExpansion) -> OocfExpansion:
    """Convert an RCF digit string to the canonical odd-odd expansion.

    An exact string converts through its value.  A truncated one is a
    prefix of a longer expansion: the output holds every odd-odd digit
    shared by all points of its cylinder, and stops, truncated, at the
    first digit they do not share.
    """
    if e.terminator == FINITE:
        return expand(e.value())
    digits = _decided(*_cylinder(e.digits), oocf_branch_of,
                      lambda d: branch_interval(*d), branch_apply)
    return OocfExpansion(tuple(digits), TRUNCATED)


# ---------------------------------------------------------------------------
# Even-integer continued fractions and the conjugacy

class EicfDigit(NamedTuple):
    b: int
    eta: int


@dataclass(frozen=True)
class EicfExpansion:
    """Even-integer digits (b, eta); terminators mirror OocfExpansion, with
    tail_2m1 again meaning a trailing (2,-1) repeated forever (the orbit
    reached the fixed point 1) and finite meaning the orbit reached 0."""

    digits: tuple[EicfDigit, ...]
    terminator: str
    period_start: Optional[int] = None

    def __post_init__(self):
        ds = tuple(EicfDigit(int(b), int(h)) for b, h in self.digits)
        for b, h in ds:
            if b < 2 or b % 2 or h not in (1, -1):
                raise ValueError(f"illegal even-integer digit ({b}, {h})")
        object.__setattr__(self, "digits", ds)
        if self.terminator not in (FINITE, TAIL_2M1, PERIODIC, TRUNCATED):
            raise ValueError(f"unknown terminator {self.terminator!r}")
        if (self.terminator == PERIODIC) != (self.period_start is not None):
            raise ValueError("period_start goes with periodic expansions only")


def eicf_digit_stream(x) -> Iterator[EicfDigit]:
    """Even-integer digits of x until the orbit reaches 0 or 1."""
    for d in orbit_stream(eicf_step, x, (0, 1)):
        yield EicfDigit(*d)


def eicf_expand(x, max_digits: Optional[int] = None) -> EicfExpansion:
    x = _unit(x)
    ends = {} if isinstance(x, QuadIrr) else {0: FINITE, 1: TAIL_2M1}
    return EicfExpansion(*orbit(eicf_step, x, ends, max_digits))


def eicf_convergents(digits) -> list[Fraction]:
    """Values of the truncations 1/(b1 + eta1/(b2 + ...)) for n = 1..len."""
    out = []
    r_prev2, r_prev = 1, 0
    s_prev2, s_prev = 0, 1
    eta_prev = 1
    for b, eta in digits:
        r = b * r_prev + eta_prev * r_prev2
        s = b * s_prev + eta_prev * s_prev2
        out.append(Fraction(r, s))
        r_prev2, r_prev, s_prev2, s_prev = r_prev, r, s_prev, s
        eta_prev = eta
    return out


def conjugacy(x):
    """The involution f(x) = (1-x)/(1+x) conjugating the odd-odd map to the
    even-integer map."""
    x = _unit(x)
    return (1 - x) / (1 + x)


def phi_digit(digit: tuple[int, int]) -> EicfDigit:
    """Digit correspondence phi: (k+1,-1) -> (2k,-1), (k,1) -> (2k,1)."""
    a, eps = digit
    check_digit(a, eps)
    if eps == -1:
        return EicfDigit(2 * (a - 1), -1)
    return EicfDigit(2 * a, 1)


# ---------------------------------------------------------------------------
# Verification reports

@dataclass(frozen=True)
class IntermediateReport:
    principals: list[Fraction]
    missing: list[Fraction]
    passed: bool


def verify_intermediate(x, n_max: int) -> IntermediateReport:
    """Every odd-odd principal convergent of x with index <= n_max occurs
    among the intermediate convergents of the RCF of x.

    For an inf-rational the terminal digit (the one sending the tail value
    to 0) is excluded: past that point the expansion only restates x through
    its (2,-1) tail and its principal convergents leave the intermediate
    family (the containment argument needs a nonzero tail value).
    """
    if x == 0:
        raise ValueError("x = 0 has no RCF digits and no intermediate convergents")
    if isinstance(x, QuadIrr):
        digits = list(islice(digit_stream(x), n_max))
    else:
        e = expand(Fraction(x))
        digits = list(e.digits if e.terminator == FINITE else e.digits[:-1])
        digits = digits[:n_max]
    principals = [t.principal for t in convergent_stream(digits)]
    max_q = max(t.denominator for t in principals)
    inter: set[Fraction] = set()
    for d, p2, q2, p1, q1 in _rcf_pq(rcf_digit_stream(x)):
        inter.update(_level(d, p2, q2, p1, q1))
        if q1 > max_q:
            break
    missing = [c for c in principals if c not in inter]
    return IntermediateReport(principals, missing, not missing)


@dataclass(frozen=True)
class ConjugacyReport:
    map_commutes: bool
    digits_correspond: bool
    steps: int

    @property
    def passed(self) -> bool:
        return self.map_commutes and self.digits_correspond


def _transition(y):
    # odd-odd step that emits (digit, state, image) in place of the digit
    d, t = oocf_step(y)
    return (d, y, t), t


def verify_conjugacy(x, steps: int) -> ConjugacyReport:
    """Check f(T_oocf(y)) = T_eicf(f(y)) along the orbit of x and the
    digitwise phi correspondence between the odd-odd digits of x and the
    even-integer digits of f(x)."""
    walk = list(islice(orbit_stream(_transition, x, (0, 1)), steps))
    ok_map = all(conjugacy(t) == eicf_map(conjugacy(y)) for _, y, t in walk)
    oo = [d for d, _, _ in walk]
    ee = list(islice(eicf_digit_stream(conjugacy(x)), steps))
    ok_digits = (len(oo) == len(ee)
                 and all(phi_digit(d) == e for d, e in zip(oo, ee)))
    return ConjugacyReport(ok_map, ok_digits, steps)


@dataclass(frozen=True)
class EicfBestReport:
    candidates: list[Fraction]
    odd_odd: list[Fraction]
    missing: list[Fraction]
    passed: bool


def eicf_best_to_oocf(x, n_max: int) -> EicfBestReport:
    """The one-rational members of {1 - p^E_n(1-x)/q^E_n(1-x)} must appear
    among the odd-odd principal convergents of x."""
    if not isinstance(x, QuadIrr):
        raise ValueError("needs an irrational input")
    digits = list(islice(eicf_digit_stream(1 - x), n_max))
    candidates = [1 - c for c in eicf_convergents(digits)]
    odd_odd = [c for c in candidates if is_one_rational(c)]
    max_q = max((c.denominator for c in odd_odd), default=1)
    principals = set(principal_convergents_up_to(x, max_q))
    missing = [c for c in odd_odd if c not in principals]
    return EicfBestReport(candidates, odd_odd, missing, not missing)
