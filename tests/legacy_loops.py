"""The hand-written code that oocf used before every expansion ran on one
orbit driver and before every odd-odd branch was read off its digit matrix,
kept as an independent oracle for ``test_orbit_oracle.py``: the digit loops,
the branch formulas, and the periodic fixed point chosen by walking the
orbit.  The loops run on the branch formulas here, not on oocf's.  Also the
best odd/odd scan as it was before the float filter: every odd denominator
gets the exact integer test.  And the RCF converters as they were before
they went through the value or the cylinder walk: ``rcf_expand``'s own
stop-at-0-or-budget loop and the digit-case tables of ``change_rcf`` and
``rcf_to_oocf``."""

import math
from fractions import Fraction
from math import isqrt
from typing import Iterator, Optional

from oocf.core import IDENTITY, QuadIrr, _make, is_square, sign_linear
from oocf.expansion import (FINITE, PERIODIC, TAIL_2M1, TRUNCATED, OocfDigit,
                            OocfExpansion, _digit_product)
from oocf.maps import check_digit, eicf_branch_of, oocf_branch_of
from oocf.rcf import EicfDigit, EicfExpansion, RcfExpansion

_HARD_CAP = 10 ** 6


def _check_unit(x) -> None:
    if x < 0 or x > 1:
        raise ValueError(f"input {x!r} outside [0, 1]")


def branch_apply(digit: tuple[int, int], x):
    a, eps = digit
    check_digit(a, eps)
    if eps == -1:
        k = a - 1
        return (k * x - (k - 1)) / (k - (k + 1) * x)
    k = a
    return (k - (k + 1) * x) / (k * x - (k - 1))


def branch_inverse(digit: tuple[int, int], t):
    a, eps = digit
    check_digit(a, eps)
    _check_unit(t)
    return 1 - 1 / (a + eps / (1 + t))


def branch_interval(a: int, eps: int) -> tuple[Fraction, Fraction]:
    check_digit(a, eps)
    if eps == -1:
        k = a - 1
        return Fraction(k - 1, k), Fraction(2 * k - 1, 2 * k + 1)
    k = a
    return Fraction(2 * k - 1, 2 * k + 1), Fraction(k, k + 1)


def _orbit_matches_period(z, period) -> bool:
    state = z
    try:
        for d in period:
            if OocfDigit(*oocf_branch_of(state)) != d:
                return False
            state = branch_apply(d, state)
    except ValueError:
        return False
    return state == z


def _periodic_tail_value(period, disc: Optional[int]):
    m = _digit_product(period)
    qa, qb, qc = m.c, m.d - m.a, -m.b
    disc0 = qb * qb - 4 * qa * qc
    if disc0 < 0:
        raise ValueError("periodic part has no real fixed point")
    if is_square(disc0):
        r = math.isqrt(disc0)
        roots = [Fraction(-qb + r, 2 * qa), Fraction(-qb - r, 2 * qa)]
    elif disc is not None and is_square(disc0 * disc):
        r = math.isqrt(disc0 * disc)
        roots = [_make(-qb * disc, r, disc, 2 * qa * disc),
                 _make(-qb * disc, -r, disc, 2 * qa * disc)]
    else:
        roots = [_make(-qb, 1, disc0, 2 * qa), _make(-qb, -1, disc0, 2 * qa)]
    candidates = [z for z in roots if 0 <= z <= 1]
    candidates = sorted(set(candidates), key=float)
    if not candidates:
        raise ValueError("periodic part has no fixed point in [0, 1]")
    if len(candidates) > 1:
        candidates = [z for z in candidates if _orbit_matches_period(z, period)]
        if len(candidates) != 1:
            raise ValueError("ambiguous periodic fixed point")
    return candidates[0]


def evaluate(e: OocfExpansion, disc: Optional[int] = None):
    if e.terminator in (FINITE, TRUNCATED):
        m = _digit_product(e.digits)
        return Fraction(m.a + m.b, m.c + m.d)
    if e.terminator == TAIL_2M1:
        m = _digit_product(e.digits)
        return Fraction(m.b, m.d)
    z = _periodic_tail_value(e.period, disc)
    pre = _digit_product(e.preperiod)
    if pre == IDENTITY:
        return z
    return pre.apply(z)


def digit_stream(x) -> Iterator[OocfDigit]:
    state = x
    while state != 0 and state != 1:
        d = oocf_branch_of(state)
        yield OocfDigit(*d)
        state = branch_apply(d, state)


def expand(x, max_digits: Optional[int] = None) -> OocfExpansion:
    _check_unit(x)
    digits: list[OocfDigit] = []
    state = x
    seen: Optional[dict] = {} if isinstance(x, QuadIrr) else None
    while True:
        if state == 1:
            return OocfExpansion(tuple(digits), FINITE)
        if state == 0:
            return OocfExpansion(tuple(digits), TAIL_2M1)
        if seen is not None:
            if state in seen:
                return OocfExpansion(tuple(digits), PERIODIC, period_start=seen[state])
            seen[state] = len(digits)
        if max_digits is not None and len(digits) >= max_digits:
            return OocfExpansion(tuple(digits), TRUNCATED)
        if len(digits) >= _HARD_CAP:
            raise RuntimeError("expansion exceeded the hard digit cap")
        d = oocf_branch_of(state)
        digits.append(OocfDigit(*d))
        state = branch_apply(d, state)


def detect_period(x: QuadIrr, cap: int = 10 ** 5) -> tuple[int, int]:
    if not isinstance(x, QuadIrr):
        raise ValueError("period detection needs a quadratic irrational")
    if not 0 < x < 1:
        raise ValueError("input must lie in (0, 1)")
    seen: dict = {}
    state = x
    n = 0
    while True:
        if state in seen:
            start = seen[state]
            return start, n - start
        seen[state] = n
        if n > cap:
            raise RuntimeError(f"no repeated tail value within {cap} steps")
        d = oocf_branch_of(state)
        state = branch_apply(d, state)
        n += 1


def rcf_digit_stream(x) -> Iterator[int]:
    _check_unit(x)
    state = x
    while state != 0:
        r = 1 / state
        d = math.floor(r)
        yield d
        state = r - d


def eicf_digit_stream(x) -> Iterator[EicfDigit]:
    state = x
    while state != 0 and state != 1:
        b, eta = eicf_branch_of(state)
        yield EicfDigit(b, eta)
        state = (1 / state - b) if eta == 1 else (b - 1 / state)


def eicf_expand(x, max_digits: Optional[int] = None) -> EicfExpansion:
    _check_unit(x)
    digits: list[EicfDigit] = []
    state = x
    seen: Optional[dict] = {} if isinstance(x, QuadIrr) else None
    while True:
        if state == 0:
            return EicfExpansion(tuple(digits), FINITE)
        if state == 1:
            return EicfExpansion(tuple(digits), TAIL_2M1)
        if seen is not None:
            if state in seen:
                return EicfExpansion(tuple(digits), PERIODIC, period_start=seen[state])
            seen[state] = len(digits)
        if max_digits is not None and len(digits) >= max_digits:
            return EicfExpansion(tuple(digits), TRUNCATED)
        b, eta = eicf_branch_of(state)
        digits.append(EicfDigit(b, eta))
        state = (1 / state - b) if eta == 1 else (b - 1 / state)


def best_one_rationals(x: QuadIrr, qmax: int) -> list[Fraction]:
    """All best one-rational approximations of x with denominator <= qmax,
    ordered by denominator.

    For each odd b only the two odd integers bracketing b*x can win, and of
    those only the nearer one, so the scan is O(qmax) with small integer
    work per step: one integer square root for floor(b*x) and two sign
    decisions in the field.
    """
    if not isinstance(x, QuadIrr):
        raise ValueError("best approximation is defined for irrational x only")
    if not 0 < x < 1:
        raise ValueError("input must lie in (0, 1)")
    p0, s0, d, q0 = x.p, x.s, x.d, x.q
    out: list[Fraction] = []
    best_a = best_b = 0  # squared error (best_a + best_b*sqrt(d))/q0^2
    have_best = False
    for b in range(1, qmax + 1, 2):
        bp = b * p0
        v = b * s0
        # floor(b*x) = floor((bp + v*sqrt(d)) / q0)
        r = isqrt(v * v * d)
        fl = r if v > 0 else -r - 1
        m = (bp + fl) // q0
        if m % 2:
            lo, hi = m, m + 2
        else:
            lo, hi = m - 1, m + 1
        # nearer odd candidate: sign of 2*b*x - (lo + hi)
        a = hi if sign_linear(2 * bp - (lo + hi) * q0, 2 * v, d) > 0 else lo
        u = bp - a * q0
        ca = u * u + v * v * d
        cb = 2 * u * v
        if not have_best or sign_linear(ca - best_a, cb - best_b, d) < 0:
            out.append(Fraction(a, b))
            best_a, best_b = ca, cb
            have_best = True
    return out


def rcf_expand(x, max_digits: Optional[int] = None) -> RcfExpansion:
    if isinstance(x, QuadIrr) and max_digits is None:
        raise ValueError("irrational input needs an explicit digit budget")
    digits = []
    for d in rcf_digit_stream(x):
        if max_digits is not None and len(digits) >= max_digits:
            return RcfExpansion(tuple(digits), TRUNCATED)
        digits.append(d)
    return RcfExpansion(tuple(digits), FINITE)


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
