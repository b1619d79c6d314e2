"""The hand-written code that oocf used before every expansion ran on one
orbit driver and before every odd-odd branch was read off its digit matrix,
kept as an independent oracle for ``test_orbit_oracle.py``: the digit loops,
the branch formulas, and the periodic fixed point chosen by walking the
orbit.  The loops run on the branch formulas here, not on oocf's.  Also the
best odd/odd scan as it was before the float filter: every odd denominator
gets the exact integer test.  And the RCF converters as they were before
they went through the value or the cylinder walk: ``rcf_expand``'s own
stop-at-0-or-budget loop and the digit-case tables of ``change_rcf`` and
``rcf_to_oocf``.  And the orbit driver and the digit-matrix product as
they were before they ran on bare ints and took runs of (2,-1) in one
step: ``orbit``'s single loop with its per-digit budget, cap and ``seen``
tests, and ``_digit_product``'s ``reduce`` over one ``Mat2`` per digit.  And ``rcf.verify_conjugacy`` as it
was before the lockstep walk: one odd-odd walk, a second even-integer
stream of f(x) stepped on values, and the conjugacy recomputed per step;
its map steps are looked up in ``oocf.maps`` at call time, so that a test
can break them for both checks at once.  And four property checks as they
were before each took one exact rule: the scan's choice of numerator
between the two odd integers bracketing b*x by a sign test,
``rcf.verify_intermediate`` reading a quadratic's digits from the stream
but expanding a rational whole, the nesting test of
``convergents.betweenness_report`` with one lambda per orientation, and
``svg.ford_svg``'s skip-and-break loop over the highlighted convergents.
And ``convergents.principal_convergents_up_to`` as it was before it ran
the principal convergents' own two-term recurrence: one full
``ConvergentTriple`` row per digit from ``convergent_stream``, and the
principal convergent read off each row.  And ``convergent_stream`` itself
as it was before it took a (2,-1) row in closed form: the three
recursions on every digit, each digit unpacked and tested, rows built by
the ``ConvergentTriple`` constructor.  And ``approx.keita_monotonicity``
as it was before it decided each chain by its last step: every
denominator and every error of the level, d_n + 1 of each, and the
``verify keita`` loop over levels 1..n that called it once per level.  And
``svg.ford_svg`` as it was before it classified a circle by parity and
took its ratios as int/int divisions: ``is_one_rational`` on a
``Fraction`` per circle, and a float scale that overflows on a huge
convergent.  And ``cli._build_parser`` as it was before a subcommand's
arguments were added only when a request named it: all seven subparsers
built in full on every call.  And ``rcf._decided``, the cylinder walk of
``convert --truncated``, as it was before it took a run of (2,-1) digits
in one step: one exact branch step per digit.  And that walk as it was
before it became one integer matrix walk that takes in the RCF digits
one at a time: ``cylinder``, the two ``Fraction`` ends of O(n) bits of the
interval that a truncated prefix fills, walked by ``run_decided`` with
``oocf_cell_step`` (a run of (2,-1) digits in one step) or with the Gauss
cells; ``cylinder_rcf_to_oocf`` and ``cylinder_change_rcf`` are the two
converters on it.  And the composed field
routes that ``QuadIrr`` and ``Mat2.apply`` took before each became one
closed form reduced once: ``(-x) + n`` for ``n - x``, the reciprocal by the
checked constructor times ``n`` for ``n / x``, ``x`` times that reciprocal
for ``x / y``, ``(a*x + b)/(c*x + d)`` through those operations for a
Moebius image, and ``(1 - x)/(1 + x)`` for the conjugacy.  And
``rcf.eicf_convergents`` as it was before it read the odd-odd principal
convergents through f: its own two-term recursion on the even-integer
digits.  And ``maps.measure_check`` as it was before its verdict became
an exact rational certificate: a float sum of 4K logarithms of branch
image ratios, compared with a tolerance.  And ``maps._unit`` as it was
before a quadratic's range check became one floor: an ``isinstance`` test
against the exact types and two comparisons with 0 and 1.  And
``maps.eicf_branch_of`` and ``maps.eicf_step`` as they were before the step
took 1/x once: the digit first, by its own 1/x, then the image by a second
one; the even-integer loops here run on this pair.  And
``maps.jump_transform`` as it was before it took the run to the hitting
set in closed form: any base map, stepped one point at a time under a
cap."""


import argparse
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from functools import reduce
from itertools import islice
from typing import Iterator, Optional

from oocf import approx, cli, expansion, maps, rcf, svg
from oocf.approx import KeitaReport
from oocf.convergents import SEED, ConvergentTriple
from oocf.core import IDENTITY, QuadIrr, _make, is_one_rational, is_square, sign_linear
from oocf.expansion import (FINITE, PERIODIC, TAIL_2M1, TRUNCATED, OocfDigit,
                            OocfExpansion)
from oocf.maps import check_digit, digit_matrix, oocf_branch_of
from oocf.rcf import (ConjugacyReport, EicfDigit, EicfExpansion, IntermediateReport,
                      RcfExpansion, _level, _rcf_pq, conjugacy, phi_digit)

_HARD_CAP = 10 ** 6


def _digit_product(digits):
    return reduce(lambda m, d: m @ digit_matrix(*d), digits, IDENTITY)


def orbit(step, x, ends, max_digits: Optional[int] = None):
    digits: list = []
    state = x
    seen: Optional[dict] = None if ends else {}
    while True:
        if state in ends:
            return digits, ends[state], None
        if seen is not None:
            if state in seen:
                return digits, PERIODIC, seen[state]
            seen[state] = len(digits)
        if max_digits is not None and len(digits) >= max_digits:
            return digits, TRUNCATED, None
        if len(digits) >= _HARD_CAP:
            raise RuntimeError("expansion exceeded the hard digit cap")
        d, state = step(state)
        digits.append(d)


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


def eicf_convergents(digits) -> list[Fraction]:
    out = []
    r2, r1, s2, s1, eta1 = 1, 0, 0, 1, 1
    for b, eta in digits:
        rcf._eicf_digit(b, eta)
        r2, r1 = r1, b * r1 + eta1 * r2
        s2, s1, eta1 = s1, b * s1 + eta1 * s2, eta
        out.append(Fraction(r1, s1))
    return out


def _oocf_transitions(x) -> Iterator:
    """(digit, state, image) for each odd-odd step from x until 0 or 1."""
    state = x
    while state not in (0, 1):
        d, t = maps.oocf_step(state)
        yield d, state, t
        state = t


def _eicf_value_stream(x) -> Iterator[EicfDigit]:
    """Even-integer digits of x by ``maps.eicf_step`` on values."""
    state = x
    while state not in (0, 1):
        d, state = maps.eicf_step(state)
        yield EicfDigit(*d)


def verify_conjugacy(x, steps: int) -> ConjugacyReport:
    walk = list(islice(_oocf_transitions(x), steps))
    ok_map = all(conjugacy(t) == maps.eicf_map(conjugacy(y)) for _, y, t in walk)
    oo = [d for d, _, _ in walk]
    ee = list(islice(_eicf_value_stream(conjugacy(x)), steps))
    ok_digits = (len(oo) == len(ee)
                 and all(phi_digit(d) == e for d, e in zip(oo, ee)))
    return ConjugacyReport(ok_map, ok_digits, steps)


def bracketing_candidate(bp: int, v: int, d: int, q0: int) -> int:
    """The nearer to y = (bp + v*sqrt(d))/q0 of the two odd integers
    bracketing it, for q0 > 0 and v != 0."""
    # floor(y) = floor((bp + v*sqrt(d)) / q0)
    r = isqrt(v * v * d)
    fl = r if v > 0 else -r - 1
    m = (bp + fl) // q0
    if m % 2:
        lo, hi = m, m + 2
    else:
        lo, hi = m - 1, m + 1
    # nearer odd candidate: sign of 2*y - (lo + hi)
    return hi if sign_linear(2 * bp - (lo + hi) * q0, 2 * v, d) > 0 else lo


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
        a = bracketing_candidate(bp, v, d, q0)
        u = bp - a * q0
        ca = u * u + v * v * d
        cb = 2 * u * v
        if not have_best or sign_linear(ca - best_a, cb - best_b, d) < 0:
            out.append(Fraction(a, b))
            best_a, best_b = ca, cb
            have_best = True
    return out


def convergent_stream(digits) -> Iterator[ConvergentTriple]:
    yield SEED
    p_prev, q_prev = 1, 1
    ps_prev, qs_prev = 1, 0
    eps_prod = 1
    n = 0
    for a, e in digits:
        if not (isinstance(a, int) and isinstance(e, int)
                and (a > 1 or a == 1 and e == 1) and (e == 1 or e == -1)):
            check_digit(a, e)
        n += 1
        ps = a * p_prev - ps_prev
        qs = a * q_prev - qs_prev
        if e == 1:
            ppse = ps + p_prev
            qpse = qs + q_prev
        else:
            ppse = ps - p_prev
            qpse = qs - q_prev
            eps_prod = -eps_prod
        p = ps + ppse
        q = qs + qpse
        yield ConvergentTriple(n, p, q, ps, qs, ppse, qpse, eps_prod)
        p_prev, q_prev, ps_prev, qs_prev = p, q, ps, qs


def principal_convergents_up_to(x, qmax: int) -> list[Fraction]:
    out = []
    for t in convergent_stream(expansion.digit_stream(x)):
        if t.q > qmax:
            break
        out.append(t.principal)
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


def decided(lo, hi, branch_of, cell, apply) -> list:
    out = []
    while True:
        d = branch_of((lo + hi) / 2)
        c_lo, c_hi = cell(d)
        if lo < c_lo or c_hi < hi:
            return out
        if len(out) == _HARD_CAP:
            raise RuntimeError("expansion exceeded the hard digit cap")
        out.append(d)
        lo, hi = sorted((apply(d, lo), apply(d, hi)))


def cylinder(digits) -> list[Fraction]:
    """Ends of the open interval filled by the x whose RCF expansion
    strictly extends ``digits``: p_n/q_n and (p_n + p_(n-1))/(q_n + q_(n-1)),
    the values at tail 0 and tail 1; (0, 1) for no digits."""
    p1, q1, p, q = 1, 0, 0, 1           # p_-1/q_-1 = 1/0, p_0/q_0 = 0/1
    for d in digits:
        p1, q1, p, q = p, q, d * p + p1, d * q + q1
    return sorted((Fraction(p, q), Fraction(p + p1, q + q1)))


def run_decided(lo, hi, branch_of, cell, step) -> list:
    """``decided`` with a step that may emit n >= 1 digits at once:
    ``step(d, lo, hi)`` returns (n, lo, hi)."""
    out = []
    while True:
        d = branch_of((lo + hi) / 2)
        c_lo, c_hi = cell(d)
        if lo < c_lo or c_hi < hi:
            return out
        n, lo, hi = step(d, lo, hi)
        if len(out) + n > _HARD_CAP:
            raise RuntimeError("expansion exceeded the hard digit cap")
        out += [d] * n


def oocf_cell_step(d, lo, hi):
    """The odd-odd digits d shared from (lo, hi), inside the cell of d: a
    run of (2,-1) is n = floor((1/hi - 3)/2) + 1 digits, by its n-th
    iterate 1/(1/x - 2n); lo = 0 stays 0."""
    if d != (2, -1):
        return (1, *sorted((branch_apply(d, lo), branch_apply(d, hi))))
    n = (1 / hi - 3) // 2 + 1
    return n, 1 / (1 / lo - 2 * n) if lo else lo, 1 / (1 / hi - 2 * n)


def cylinder_rcf_to_oocf(digits) -> tuple:
    """Digits of a truncated ``rcf_to_oocf`` by the cylinder walk."""
    return tuple(run_decided(*cylinder(digits), lambda x: OocfDigit(*oocf_branch_of(x)),
                             lambda d: branch_interval(*d), oocf_cell_step))


def cylinder_change_rcf(digit: tuple[int, int], digits) -> tuple:
    """Digits of a truncated ``change_rcf`` by the cylinder walk."""
    lo, hi = sorted(branch_inverse(digit, t) for t in cylinder(digits))
    return tuple(run_decided(lo, hi, lambda x: math.floor(1 / x),
                             lambda d: (Fraction(1, d + 1), Fraction(1, d)),
                             lambda d, lo, hi: (1, 1 / hi - d, 1 / lo - d)))


def verify_intermediate(x, n_max: int) -> IntermediateReport:
    if x == 0:
        raise ValueError("x = 0 has no RCF digits and no intermediate convergents")
    if isinstance(x, QuadIrr):
        digits = list(islice(expansion.digit_stream(x), n_max))
    else:
        e = expansion.expand(Fraction(x))
        digits = list(e.digits if e.terminator == FINITE else e.digits[:-1])
        digits = digits[:n_max]
    principals = [t.principal for t in convergent_stream(digits)]
    max_q = max(t.denominator for t in principals)
    inter: set[Fraction] = set()
    for d, p2, q2, p1, q1 in _rcf_pq(rcf.rcf_digit_stream(x)):
        inter.update(_level(d, p2, q2, p1, q1))
        if q1 > max_q:
            break
    missing = [c for c in principals if c not in inter]
    return IntermediateReport(principals, missing, not missing)


def nested_in_previous(curr, prev) -> bool:
    """All three convergents of ``curr`` in the half-open interval from
    prev's principal (excluded) to its pseudo (included)."""
    open_end, closed_end = prev.principal, prev.pseudo
    if open_end < closed_end:
        inside = lambda c: open_end < c <= closed_end
    else:
        inside = lambda c: closed_end <= c < open_end
    return inside(curr.principal) and inside(curr.sub) and inside(curr.pseudo)


def ford_highlights(highlight, n_highlight: int) -> list[Fraction]:
    """The principal convergents ``svg.ford_svg`` strokes in red."""
    picked = []
    for t in convergent_stream(expansion.digit_stream(highlight)):
        if t.n == 0:
            continue
        if t.n > n_highlight:
            break
        picked.append(t.principal)
    return picked


def keita_monotonicity(x, n: int) -> KeitaReport:
    if n < 1:
        raise ValueError("level must be >= 1")
    e = rcf_expand(x, max_digits=n)
    if len(e.digits) < n:
        raise ValueError(f"input has only {len(e.digits)} RCF digits, need {n}")
    dn, p2, q2, p1, q1 = next(islice(_rcf_pq(e.digits), n - 1, None))
    qs = [q2 + j * q1 for j in range(dn + 1)]
    errs = [abs((q2 + j * q1) * x - (p2 + j * p1)) for j in range(dn + 1)]
    err_prev = abs(q1 * x - p1)
    left_ok = q2 < q1 or (n == 2 and q2 == q1 == 1)
    den_ok = (left_ok and q1 <= qs[1]
              and all(qs[j] < qs[j + 1] for j in range(1, dn)))
    err_ok = (errs[dn] < err_prev and err_prev <= errs[dn - 1]
              and all(errs[j] < errs[j - 1] for j in range(1, dn)))
    return KeitaReport(n, dn, den_ok, err_ok)


def keita_levels(x, n: int) -> list[KeitaReport]:
    return [approx.keita_monotonicity(x, level) for level in range(1, n + 1)]


def ford_svg(highlight=None, n_highlight: int = 4, den_max: int = 9,
             width: int = 800) -> str:
    if not 1 <= den_max <= svg.MAX_DEN:
        raise ValueError(f"den_max must lie in [1, {svg.MAX_DEN}], got {den_max}")
    margin = 24.0
    scale = width - 2 * margin
    height = scale / 2 + 2 * margin
    base_y = height - margin

    def fmt(v: float) -> str:
        return f"{v:.4f}"

    def circle(p: int, q: int, fill: str, stroke: str, sw: float) -> str:
        r = scale / (2 * q * q)
        cx = margin + scale * p / q
        return (f'<circle cx="{fmt(cx)}" cy="{fmt(base_y - r)}" '
                f'r="{fmt(r)}" fill="{fill}" stroke="{stroke}" '
                f'stroke-width="{fmt(sw)}"/>')

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{fmt(height)}" viewBox="0 0 {width} {fmt(height)}">',
        f'<rect width="{width}" height="{fmt(height)}" fill="white"/>',
        f'<line x1="{fmt(margin)}" y1="{fmt(base_y)}" x2="{fmt(margin + scale)}" '
        f'y2="{fmt(base_y)}" stroke="{svg._STROKE}" stroke-width="1.0"/>',
    ]
    for q in range(1, den_max + 1):
        for p in range(0, q + 1):
            if gcd(p, q) != 1:
                continue
            fill = svg._GRAY if is_one_rational(Fraction(p, q)) else svg._WHITE
            lines.append(circle(p, q, fill, svg._STROKE, 0.8))
    if highlight is not None:
        for c in ford_highlights(maps._unit(highlight), n_highlight):
            fill = svg._GRAY if is_one_rational(c) else svg._WHITE
            lines.append(circle(c.numerator, c.denominator, fill, svg._HIGHLIGHT, 2.0))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    count, positive = cli._at_least(0), cli._at_least(1)
    ap = cli._Parser(
        prog="oocf",
        description="Odd-odd continued fractions: expansion, convergents, "
                    "best odd/odd approximation, conversions, verification.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_fmt(p, choices=("json", "text")):
        p.add_argument("--format", choices=choices, default="json")

    p = sub.add_parser("expand", help="odd-odd digit expansion")
    p.add_argument("--input", required=True)
    p.add_argument("--max-digits", type=count, default=128, dest="max_digits")
    p.add_argument("--all", action="store_true",
                   help="emit both expansions of a rational input")
    add_fmt(p)
    p.set_defaults(func=cli._cmd_expand)

    p = sub.add_parser("convergents", help="principal/sub/pseudo convergent table")
    p.add_argument("--input", required=True)
    p.add_argument("-n", type=count, default=8)
    add_fmt(p, ("json", "tsv"))
    p.set_defaults(func=cli._cmd_convergents)

    p = sub.add_parser("best", help="best one-rational approximations by brute force")
    p.add_argument("--input", required=True)
    p.add_argument("--qmax", type=count, required=True)
    add_fmt(p)
    p.set_defaults(func=cli._cmd_best)

    p = sub.add_parser("convert", help="convert digit streams between expansions")
    p.add_argument("--from", dest="src", required=True, choices=["rcf"])
    p.add_argument("--to", dest="dst", required=True, choices=["oocf"])
    p.add_argument("--digits", required=True, help="comma-separated digits")
    p.add_argument("--truncated", action="store_true",
                   help="treat the digit list as a prefix of a longer expansion")
    add_fmt(p, ("json",))
    p.set_defaults(func=cli._cmd_convert)

    p = sub.add_parser("verify", help="verification suites")
    p.add_argument("suite", choices=["thm1", "thm2", "intermediate",
                                     "conjugacy", "keita", "eicf-best"])
    p.add_argument("--input", required=True)
    p.add_argument("--qmax", type=count, default=10 ** 4)
    p.add_argument("-n", type=count, default=10)
    add_fmt(p, ("json",))
    p.set_defaults(func=cli._cmd_verify)

    p = sub.add_parser("measure", help="invariant measure check for the odd-odd map")
    p.add_argument("--lo", required=True)
    p.add_argument("--hi", required=True)
    p.add_argument("--K", type=positive, default=2000)
    add_fmt(p, ("json",))
    p.set_defaults(func=cli._cmd_measure)

    p = sub.add_parser("ford-svg", help="Ford circle picture as standalone SVG")
    p.add_argument("--input", default=None)
    p.add_argument("-n", type=count, default=4,
                   help="number of highlighted convergents")
    p.add_argument("--den-max", type=positive, default=9, dest="den_max")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=cli._cmd_ford_svg)

    return ap


# ---------------------------------------------------------------------------
# Composed field routes, each value built by the checked QuadIrr constructor
# or by Fraction

def quad_inverse(x: QuadIrr) -> QuadIrr:
    """1/x = q*(p - s*sqrt(d))/(p^2 - s^2*d), through the checked constructor."""
    return QuadIrr(x.q * x.p, -x.q * x.s, x.d, x.p * x.p - x.s * x.s * x.d)


def field_sub(n, x):
    """n - x as (-x) + n."""
    return (-x) + n if isinstance(x, QuadIrr) else n - x


def field_div(u, v):
    """u / v as u times the reciprocal of v."""
    if isinstance(v, QuadIrr):
        return quad_inverse(v) * u
    if v == 0:
        raise ZeroDivisionError("division by zero")
    return u * (1 / Fraction(v))


def mobius(m, x):
    """(a*x + b)/(c*x + d) through the field operations."""
    a, b, c, d = m
    den = c * x + d
    if den == 0:
        raise ValueError("Moebius map pole: c*x + d = 0")
    return field_div(a * x + b, den)


def field_conjugacy(x):
    """f(x) = (1 - x)/(1 + x) through the field operations."""
    return field_div(field_sub(1, x), 1 + x)


# ---------------------------------------------------------------------------
# The invariant-measure check decided by a float sum against a tolerance

@dataclass(frozen=True)
class MeasureReport:
    lhs: float
    rhs: float
    abs_diff: float
    passed: bool
    branch_cutoff: int
    tol: float


def measure_check(interval: maps.Interval, branch_cutoff: int = 2000,
                  tol: float = 5e-3) -> MeasureReport:
    """Verify dx/x invariance of the odd-odd map on ``interval``.

    Sums mu(f_branch(I)) over all branches with index k <= branch_cutoff
    against mu(I) = ln(hi/lo).  Branch images are exact rational intervals;
    the logarithms are the only floating-point step.  Branches beyond the
    cutoff have images inside [K/(K+1), 1), so the neglected mass is
    O(1/K) and the default tolerance absorbs it.
    """
    lo, hi = interval.lo, interval.hi
    if lo <= 0:
        raise ValueError("interval must avoid 0 (the density 1/x is not integrable there)")
    if hi > 1:
        raise ValueError("interval endpoints must lie in (0, 1]")
    rhs = maps._log(hi / lo)
    lhs = 0.0
    for k in range(1, branch_cutoff + 1):
        for digit in ((k + 1, -1), (k, 1)):
            u = maps.branch_inverse(digit, lo)
            v = maps.branch_inverse(digit, hi)
            lhs += abs(maps._log(v / u))
    diff = abs(lhs - rhs)
    return MeasureReport(lhs, rhs, diff, diff <= tol, branch_cutoff, tol)


# ---------------------------------------------------------------------------
# The [0, 1] check by two comparisons

def _unit(x):
    """x itself, checked to be exact and in [0, 1]; an int becomes a Fraction."""
    if not isinstance(x, (int, Fraction, QuadIrr)):
        raise ValueError(f"input {x!r} is not exact: pass an int, Fraction or QuadIrr")
    if x < 0 or x > 1:
        raise ValueError(f"input {x!r} outside [0, 1]")
    return Fraction(x) if isinstance(x, int) else x


# ---------------------------------------------------------------------------
# The even-integer digit and image, each by its own 1/x

def eicf_branch_of(x) -> tuple[int, int]:
    x = _unit(x)
    if x == 0:
        raise ValueError("x = 0 carries no even-integer digit (terminator)")
    j = math.floor(1 / x)
    if j % 2 == 0:
        return (j, 1)
    return (j + 1, -1)


def eicf_step(x):
    b, eta = eicf_branch_of(x)
    return (b, eta), (1 / x - b if eta == 1 else b - 1 / x)


# ---------------------------------------------------------------------------
# The jump transformation, one step of the base map at a time

def jump_transform(base_map, hitting_set, x):
    y = _unit(x)
    for _ in range(_HARD_CAP + 1):
        if hitting_set(y):
            return base_map(y)
        y = base_map(y)
    raise RuntimeError(f"jump transform exceeded {_HARD_CAP} iterations")
