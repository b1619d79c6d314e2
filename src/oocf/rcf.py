"""Regular and even-integer continued fractions and their bridges to the
odd-odd expansion: intermediate convergents, the inverse-branch action on
RCF digit strings, RCF-to-OOCF conversion (an exact digit string by its
value, a truncated one by a walk that takes in RCF digits and gives out
the digits all its continuations share, in time linear in the prefix), and
the conjugacy f(x) = (1-x)/(1+x).
The even-integer digits of x are phi of the odd-odd digits of f(x); only
``verify_conjugacy`` steps the even-integer map, as an independent check.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, NamedTuple, Optional

from .core import IDENTITY, Mat2, QuadIrr, is_one_rational
from .maps import (OocfDigit, _unit, branch_interval, branch_inverse, check_digit,
                   digit_matrix, eicf_step, gauss_step, oocf_branch_of, oocf_step)
from .expansion import (_HARD_CAP, FINITE, TRUNCATED, OocfExpansion, _check_tail,
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
        ds = tuple(self.digits)
        if not all(isinstance(d, int) and d >= 1 for d in ds):
            raise ValueError("RCF digits must be positive integers")
        ds = tuple(map(int, ds))
        if self.terminator not in (FINITE, TRUNCATED):
            raise ValueError(f"bad RCF terminator {self.terminator!r}")
        if self.terminator == FINITE and len(ds) > 1 and ds[-1] == 1:
            ds = ds[:-2] + (ds[-2] + 1,)
        object.__setattr__(self, "digits", ds)

    def value(self) -> Fraction:
        if self.terminator != FINITE:
            raise ValueError("truncated expansion has no exact value")
        p, q = 0, 1
        for d in reversed(self.digits):
            p, q = q, d * q + p
        return Fraction(p, q)


def _gauss_run(x):
    """``gauss_step`` in the orbit driver's form: one digit per step."""
    d, y = gauss_step(x)
    return d, 1, y


def rcf_digit_stream(x) -> Iterator[int]:
    """Gauss-map digits of x in [0, 1], exact; stops when the orbit dies at 0."""
    yield from orbit_stream(_gauss_run, _unit(x), (0,))


def rcf_expand(x, max_digits: Optional[int] = None) -> RcfExpansion:
    if isinstance(x, QuadIrr) and max_digits is None:
        raise ValueError("irrational input needs an explicit digit budget")
    digits, end, _ = orbit(_gauss_run, _unit(x), {0: FINITE}, max_digits)
    return RcfExpansion(tuple(digits), end)


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


# ---------------------------------------------------------------------------
# Conversion of RCF digit strings: exact ones by value, truncated by a walk

def _walk(m: Mat2, digits, branch_of, cell, egest) -> list:
    """Digits shared by every x = m(t), t in (0, 1), where m takes in the
    RCF ``digits`` k of t as m [[0, 1], [1, k]].  Before each, and after the
    last, while m(0) and m(1) lie in the closed ``cell`` of the digit d their
    midpoint names, ``egest(d, hi)`` gives n >= 1 digits d and their map E,
    and m <- E m.  Past _HARD_CAP digits it raises RuntimeError."""
    out = []
    digits = iter(digits)
    while True:
        lo, hi = sorted((m.apply(0), m.apply(1)))
        d = branch_of((lo + hi) / 2)
        c_lo, c_hi = cell(d)
        if c_lo <= lo and hi <= c_hi:
            n, e = egest(d, hi)
            if len(out) + n > _HARD_CAP:
                raise RuntimeError("expansion exceeded the hard digit cap")
            out += [d] * n
            m = e @ m
        elif (k := next(digits, None)) is None:
            return out
        else:
            m = m @ Mat2(0, 1, 1, k)


def _oocf_egest(d, hi):
    """One odd-odd digit d and its branch map, the adjugate of its digit
    matrix; a run of (2,-1) in one step, as its n-th iterate is 1/(1/x - 2n)
    and the whole interval takes it again while 1/hi - 2j >= 3."""
    if d != (2, -1):
        a, b, c, e = digit_matrix(*d)
        return 1, Mat2(e, -b, -c, a)
    n = (1 / hi - 3) // 2 + 1
    return n, Mat2(1, 0, -2 * n, 1)


def change_rcf(digit: tuple[int, int], e: RcfExpansion) -> RcfExpansion:
    """RCF expansion of f_(a,eps)(x) given the RCF expansion of x.

    An exact string goes through its value.  A truncated one is rewritten
    by ``_walk`` from the digit matrix of (a, eps), in time linear in the
    prefix: Gauss digits k, cells [1/(k+1), 1/k], maps [[-k, 1], [1, 0]].
    """
    if e.terminator == FINITE:
        return rcf_expand(branch_inverse(digit, e.value()))
    digits = _walk(digit_matrix(*digit), e.digits, lambda x: math.floor(1 / x),
                   lambda k: (Fraction(1, k + 1), Fraction(1, k)),
                   lambda k, hi: (1, Mat2(-k, 1, 1, 0)))
    return RcfExpansion(tuple(digits), TRUNCATED)


def rcf_to_oocf(e: RcfExpansion) -> OocfExpansion:
    """Convert an RCF digit string to the canonical odd-odd expansion.

    An exact string converts through its value.  A truncated one is a
    prefix of a longer expansion: ``_walk`` gives out every odd-odd digit
    all its continuations share, in time linear in the prefix, and stops,
    truncated, at the first they do not.  Its digits are legal, so they are
    wrapped without the per-digit check, as ``expand`` wraps the orbit's.
    """
    if e.terminator == FINITE:
        return expand(e.value())
    digits = _walk(IDENTITY, e.digits, lambda x: OocfDigit(*oocf_branch_of(x)),
                   lambda d: branch_interval(*d), _oocf_egest)
    return OocfExpansion._of_orbit(digits, TRUNCATED, None)


# ---------------------------------------------------------------------------
# Even-integer continued fractions and the conjugacy

class EicfDigit(NamedTuple):
    b: int
    eta: int


def _eicf_digit(b, h) -> EicfDigit:
    """(b, h) as an EicfDigit, checked: ints b >= 2, b even, and h = +-1."""
    if not (isinstance(b, int) and isinstance(h, int) and b >= 2
            and b % 2 == 0 and h in (1, -1)):
        raise ValueError(f"illegal even-integer digit ({b}, {h})")
    return EicfDigit(int(b), int(h))


@dataclass(frozen=True)
class EicfExpansion:
    """Even-integer digits (b, eta); terminators mirror OocfExpansion, with
    tail_2m1 again meaning a trailing (2,-1) repeated forever (the orbit
    reached the fixed point 1) and finite meaning the orbit reached 0."""

    digits: tuple[EicfDigit, ...]
    terminator: str
    period_start: Optional[int] = None

    def __post_init__(self):
        ds = tuple(_eicf_digit(b, h) for b, h in self.digits)
        object.__setattr__(self, "digits", ds)
        _check_tail(ds, self.terminator, self.period_start)


def eicf_digit_stream(x) -> Iterator[EicfDigit]:
    """Even-integer digits of x: phi of the odd-odd digits of f(x)."""
    yield from map(phi_digit, digit_stream(conjugacy(x)))


def eicf_expand(x, max_digits: Optional[int] = None) -> EicfExpansion:
    """Phi of the odd-odd expansion of f(x): f swaps the end states 0 and 1
    and is one to one on states, so ends, period start and budget cut agree."""
    e = expand(conjugacy(x), max_digits)
    return EicfExpansion(tuple(map(phi_digit, e.digits)), e.terminator, e.period_start)


def eicf_convergents(digits) -> list[Fraction]:
    """Values of the truncations 1/(b1 + eta1/(b2 + ...)) for n = 1..len:
    f(p_n/q_n) = (q_n - p_n)/(q_n + p_n) for the odd-odd principal
    convergents of the digits phi^-1(b, eta).  f conjugates the two maps,
    so it carries the odd-odd truncation at tail 1 to the even-integer one
    at tail f(1) = 0."""
    checked = (_eicf_digit(b, eta) for b, eta in digits)
    rows = convergent_stream(OocfDigit(b // 2 + 1, -1) if eta == -1 else OocfDigit(b // 2, 1)
                             for b, eta in checked)
    return [Fraction(t.q - t.p, t.q + t.p) for t in islice(rows, 1, None)]


def conjugacy(x):
    """The involution f(x) = (1-x)/(1+x) conjugating the odd-odd map to the
    even-integer map: the Moebius action of [[-1, 1], [1, 1]]."""
    return Mat2(-1, 1, 1, 1).apply(_unit(x))


def phi_digit(digit: tuple[int, int]) -> EicfDigit:
    """Digit correspondence phi: (k+1,-1) -> (2k,-1), (k,1) -> (2k,1)."""
    a, eps = digit
    check_digit(a, eps)
    return EicfDigit(2 * a - 2, -1) if eps == -1 else EicfDigit(2 * a, 1)


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
    family (the containment argument needs a nonzero tail value).  Reading
    n_max + 1 digits shows it: the stream stopped within n_max digits on a
    rational that is not odd/odd.  Level n's intermediate denominators fill
    [q_(n-2) + q_(n-1), q_n], ranges that increase with n as the rows'
    denominators do, so one pass over both meets each row's one candidate.
    Both are in lowest terms (determinant identity) with q > 0.
    """
    if x == 0:
        raise ValueError("x = 0 has no RCF digits and no intermediate convergents")
    digits = [d for _, d in zip(range(n_max + 1), digit_stream(x))]
    if len(digits) <= n_max and not isinstance(x, QuadIrr) and not is_one_rational(x):
        digits.pop()
    levels = _rcf_pq(rcf_digit_stream(x))
    d, p2, q2, p1, q1 = 0, 1, 0, 0, 1       # before level 1: no intermediates
    principals, missing = [], []
    for t in convergent_stream(digits[:n_max]):
        while q2 + d * q1 < t.q and (level := next(levels, None)):
            d, p2, q2, p1, q1 = level
        j, r = divmod(t.q - q2, q1)
        principals.append(t.principal)
        if not (r == 0 and 1 <= j <= d and t.p == p2 + j * p1):
            missing.append(principals[-1])
    return IntermediateReport(principals, missing, not missing)


class ConjugacyMismatch(NamedTuple):
    """The first step that breaks the conjugacy: after ``step`` steps the
    odd-odd orbit is at ``y`` and the even-integer orbit at ``z``, and that
    step emitted the digits ``d`` and ``e``; ``z != f(y)`` or
    ``phi(d) != e``."""
    step: int
    y: object
    z: object
    d: tuple
    e: tuple


@dataclass(frozen=True)
class ConjugacyReport:
    map_commutes: bool
    digits_correspond: bool
    steps: int
    # the witness of a failed check; None when it passes
    first_mismatch: Optional[ConjugacyMismatch] = None

    @property
    def passed(self) -> bool:
        return self.map_commutes and self.digits_correspond


def verify_conjugacy(x, steps: int) -> ConjugacyReport:
    """Step the odd-odd orbit of y = x and the even-integer orbit of z = f(x)
    in lockstep, on values (``eicf_step``, never the derived stream), for up
    to ``steps`` steps: every step must keep z = f(y) and relate the two
    digits by phi, and the orbits must reach 0 or 1 together.  As z = f(y)
    before each step, and f swaps 0 and 1, an orbit that ends alone does so
    after a step that is already the witness."""
    if steps < 0:
        raise ValueError(f"the number of steps must be >= 0, not {steps}")
    y, z = _unit(x), conjugacy(x)
    ok_map = ok_digits = True
    first = None
    for n in range(1, steps + 1):
        if y in (0, 1) or z in (0, 1):
            ok_digits = ok_digits and y in (0, 1) and z in (0, 1)
            break
        d, y = oocf_step(y)
        e, z = eicf_step(z)
        ok_map = ok_map and conjugacy(y) == z
        ok_digits = ok_digits and phi_digit(d) == e
        if first is None and not (ok_map and ok_digits):
            first = ConjugacyMismatch(n, y, z, d, e)
    return ConjugacyReport(ok_map, ok_digits, steps, first)


@dataclass(frozen=True)
class EicfBestReport:
    candidates: list[Fraction]
    odd_odd: list[Fraction]
    missing: list[Fraction]
    passed: bool


def eicf_best_to_oocf(x, n_max: int) -> EicfBestReport:
    """The one-rational members of {1 - p^E_n(1-x)/q^E_n(1-x)} must appear
    among the odd-odd principal convergents of x.  With none among the
    first n_max there is nothing to check, and it raises ValueError."""
    if not isinstance(x, QuadIrr):
        raise ValueError("needs an irrational input")
    digits = [d for _, d in zip(range(n_max), eicf_digit_stream(1 - x))]
    candidates = [1 - c for c in eicf_convergents(digits)]
    odd_odd = [c for c in candidates if is_one_rational(c)]
    if not odd_odd:
        raise ValueError(f"none of the first {n_max} EICF convergents is odd/odd: "
                         "nothing to check")
    max_q = max(c.denominator for c in odd_odd)
    principals = set(principal_convergents_up_to(x, max_q))
    missing = [c for c in odd_odd if c not in principals]
    return EicfBestReport(candidates, odd_odd, missing, not missing)
