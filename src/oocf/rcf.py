"""Regular and even-integer continued fractions and their bridges to the
odd-odd expansion: intermediate convergents, the inverse-branch rewriting of
RCF digit strings, a streaming RCF-to-OOCF converter, and the conjugacy
x -> (1-x)/(1+x) with its digit correspondence.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, NamedTuple, Optional

from .core import QuadIrr, is_one_rational
from .maps import _unit, check_digit, eicf_map, eicf_step, gauss_step, oocf_step
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
        v = Fraction(0)
        for d in reversed(self.digits):
            v = Fraction(1, d + v)
        return v


def rcf_digit_stream(x) -> Iterator[int]:
    """Gauss-map digits of x in [0, 1], exact; stops when the orbit dies at 0."""
    yield from orbit_stream(gauss_step, _unit(x), (0,))


def rcf_expand(x, max_digits: Optional[int] = None) -> RcfExpansion:
    if isinstance(x, QuadIrr) and max_digits is None:
        raise ValueError("irrational input needs an explicit digit budget")
    digits = []
    for d in rcf_digit_stream(x):
        if max_digits is not None and len(digits) >= max_digits:
            return RcfExpansion(tuple(digits), TRUNCATED)
        digits.append(d)
    return RcfExpansion(tuple(digits), FINITE)


def _rcf_pq(digits) -> Iterator[tuple[int, int, int, int, int]]:
    """(d_n, p_(n-2), q_(n-2), p_(n-1), q_(n-1)) for levels n = 1, 2, ...;
    lazy, so ``digits`` may be an endless stream."""
    p2, q2, p1, q1 = 1, 0, 0, 1
    for d in digits:
        yield d, p2, q2, p1, q1
        p2, q2, p1, q1 = p1, q1, d * p1 + p2, d * q1 + q2


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
# Inverse-branch action on RCF digit strings

def change_rcf(digit: tuple[int, int], e: RcfExpansion) -> RcfExpansion:
    """RCF expansion of f_(a,eps)(x) given the RCF expansion of x.

    Head rewriting by cases (x = [0; d1, d2, ...]):

        eps = +1, a = 1    [0; 2, d1, d2, ...]
        eps = +1, a >= 2   [0; 1, a-1, 1, d1, d2, ...]
        eps = -1, a = 2    [0; d1+2, d2, ...]
        eps = -1, a >= 3   [0; 1, a-2, d1+1, d2, ...]

    The empty expansion (x = 0) drops the d1-dependent part.  Results are
    renormalized by the constructor.
    """
    a, eps = digit
    check_digit(a, eps)
    ds = list(e.digits)
    if eps == 1:
        if a == 1:
            out = [2] + ds
        else:
            out = [1, a - 1, 1] + ds
    else:
        if not ds:
            if e.terminator != FINITE:
                raise ValueError("cannot rewrite an empty truncated expansion")
            out = [] if a == 2 else [1, a - 2]
        elif a == 2:
            out = [ds[0] + 2] + ds[1:]
        else:
            out = [1, a - 2, ds[0] + 1] + ds[1:]
    return RcfExpansion(tuple(out), e.terminator)


# ---------------------------------------------------------------------------
# Streaming RCF -> OOCF conversion

def rcf_to_oocf(e: RcfExpansion) -> OocfExpansion:
    """Convert an RCF digit string to the canonical odd-odd expansion.

    Odd d1 yields (d1-1)/2 copies of (2,-1) and then a digit decided by the
    tail t = [0; d3, d4, ...]: (d2+1, 1) when t is in [1/2, 1), which reads
    off the digit string as "d3 = 1" or "d3 = 2 ends the expansion", and
    (d2+2, -1) when t is in [0, 1/2).  Even d1 yields (d1/2 - 1) copies of
    (2,-1), then (1,1), then recurses past d1.  An exact expansion with a
    single last digit m >= 2 is consumed through its twin form [m-1, 1],
    which is what the canonical half-open branch convention produces at the
    two-expansion points.  A truncated input is a prefix of a longer
    expansion: every digit shared by all such continuations is emitted, and
    the output stops, truncated, at the first digit they do not share.
    """
    ds = list(e.digits)
    exact = e.terminator == FINITE
    out: list[tuple[int, int]] = []
    while True:
        if not ds:
            return OocfExpansion(tuple(out), TAIL_2M1 if exact else TRUNCATED)
        if exact and ds == [1]:
            return OocfExpansion(tuple(out), FINITE)
        if exact and len(ds) == 1:
            ds = [ds[0] - 1, 1]
        d1 = ds[0]
        if d1 % 2 == 0:
            out.extend([(2, -1)] * (d1 // 2 - 1))
            out.append((1, 1))
            ds = ds[1:]
            continue
        out.extend([(2, -1)] * ((d1 - 1) // 2))
        if len(ds) == 1:
            return OocfExpansion(tuple(out), TRUNCATED)
        d2 = ds[1]
        tail = ds[2:]
        if not tail:
            if exact:
                out.append((d2 + 2, -1))
                return OocfExpansion(tuple(out), TAIL_2M1)
            return OocfExpansion(tuple(out), TRUNCATED)
        e1 = tail[0]
        if e1 == 1:
            out.append((d2 + 1, 1))
            ds = tail[1:]
            continue
        if exact and e1 == 2 and len(tail) == 1:
            out.append((d2 + 1, 1))
            return OocfExpansion(tuple(out), FINITE)
        out.append((d2 + 2, -1))
        ds = [e1 - 1] + tail[1:]


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
