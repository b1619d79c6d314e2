import re
from fractions import Fraction as F
from itertools import islice
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oocf.convergents import ConvergentTriple, convergent_stream, convergent_table
from oocf.core import QuadIrr, frac_sqrt, is_one_rational
from oocf.expansion import (FINITE, PERIODIC, TAIL_2M1, TRUNCATED, OocfDigit,
                            OocfExpansion, all_expansions, detect_period,
                            digit_stream, evaluate, expand)

SQRT2M1 = QuadIrr(-1, 1, 2)


def test_expand_examples():
    e = expand(F(1, 3))
    assert e.digits == (OocfDigit(1, 1),) and e.terminator == FINITE
    for part in ("preperiod", "period"):
        with pytest.raises(ValueError, match="not a periodic expansion"):
            getattr(e, part)

    e = expand(F(2, 7))
    assert e.digits == ((2, -1), (4, -1)) and e.terminator == TAIL_2M1

    e = expand(SQRT2M1)
    assert e.terminator == PERIODIC
    assert e.period_start == 0 and e.period == ((1, 1),)

    e = expand(F(0))
    assert e.digits == () and e.terminator == TAIL_2M1

    e = expand(F(1))
    assert e.digits == () and e.terminator == FINITE


def test_expand_truncation_and_prefix_consistency():
    xs = [F(17, 99), F(44, 45), F(1, 97), SQRT2M1, frac_sqrt(31)]
    for x in xs:
        prev = expand(x, max_digits=0)
        assert prev.digits == ()
        for n in range(1, 12):
            cur = expand(x, max_digits=n)
            assert cur.digits[:len(prev.digits)] == prev.digits
            if cur.terminator == TRUNCATED:
                assert len(cur.digits) == n
            prev = cur


def test_no_illegal_digit_produced():
    for q in range(2, 80):
        for p in range(1, q):
            if gcd(p, q) == 1:
                for a, e in expand(F(p, q)).digits:
                    assert not (a == 1 and e == -1)


def test_all_expansions_examples():
    both = all_expansions(F(1, 3))
    assert {e.digits for e in both} == {((1, 1),), ((2, -1),)}
    assert all(e.terminator == FINITE for e in both)

    both = all_expansions(F(1, 2))
    assert {e.digits for e in both} == {((3, -1),), ((1, 1),)}
    assert all(e.terminator == TAIL_2M1 for e in both)

    both = all_expansions(F(3, 5))
    assert {e.digits for e in both} == {((2, 1),), ((3, -1),)}
    assert all(e.terminator == FINITE for e in both)


def test_all_expansions_domain():
    with pytest.raises(ValueError):
        all_expansions(F(0))
    with pytest.raises(ValueError):
        all_expansions(F(1))
    with pytest.raises(ValueError):
        all_expansions(SQRT2M1)


def test_round_trip_small():
    for q in range(2, 41):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            x = F(p, q)
            both = all_expansions(x)
            assert len(both) == 2
            assert both[0].digits != both[1].digits
            assert both[0].digits[:-1] == both[1].digits[:-1]
            want_term = FINITE if is_one_rational(x) else TAIL_2M1
            for e in both:
                assert e.terminator == want_term
                assert evaluate(e) == x


def test_evaluate_examples():
    assert evaluate(OocfExpansion(((1, 1),), FINITE)) == F(1, 3)
    assert evaluate(OocfExpansion(((2, -1), (4, -1)), TAIL_2M1)) == F(2, 7)
    v = evaluate(OocfExpansion(((1, 1),), PERIODIC, period_start=0), disc=2)
    assert v == SQRT2M1
    # without a field hint the root is expressed over the raw discriminant
    v8 = evaluate(OocfExpansion(((1, 1),), PERIODIC, period_start=0))
    assert v8 == QuadIrr(-2, 1, 8, 2) and abs(float(v8) - float(v)) < 1e-15
    # so is it for a disc that is not a positive int, or names another field
    for disc in (0, -3, 4, 2.0):
        got = evaluate(OocfExpansion(((1, 1),), PERIODIC, period_start=0), disc=disc)
        assert repr(got) == repr(v8)
    assert evaluate(OocfExpansion((), FINITE)) == 1
    assert evaluate(OocfExpansion((), TAIL_2M1)) == 0
    # truncated evaluates to the principal convergent of the prefix
    assert evaluate(OocfExpansion(((1, 1), (1, 1)), TRUNCATED)) == F(3, 7)


def test_evaluate_periodic_with_preperiod():
    e = OocfExpansion(((2, -1), (1, 1)), PERIODIC, period_start=1)
    v = evaluate(e, disc=2)
    # z/(2z+1) at z = sqrt(2)-1 rationalizes to (3-sqrt(2))/7
    assert v == QuadIrr(3, -1, 2, 7)
    got = expand(v)
    assert got.terminator == PERIODIC
    assert got.digits == e.digits and got.period_start == 1


def test_evaluate_periodic_golden():
    e = OocfExpansion(((2, 1),), PERIODIC, period_start=0)
    v = evaluate(e, disc=5)
    assert v == QuadIrr(-1, 1, 5, 2)   # (sqrt(5)-1)/2


def test_evaluate_degenerate_periodic_tail():
    # a pure (2,-1) period is the expansion of 0
    e = OocfExpansion(((2, -1),), PERIODIC, period_start=0)
    assert evaluate(e) == 0


# what the public constructor rejects, with its message; ``expand`` skips
# these checks, so they must stay here
REJECTED = [
    ((((1, -1),), FINITE), "illegal digit (1, -1)"),
    ((((0, 1),), FINITE), "illegal digit (0, 1)"),
    ((((2, 0),), FINITE), "illegal digit (2, 0)"),
    ((((-3, 1),), TRUNCATED), "illegal digit (-3, 1)"),
    ((((1, 1), (1, -1.0)), TRUNCATED), "illegal digit (1, -1.0)"),
    ((((2, 1), ("x", 1)), TRUNCATED), "illegal digit (x, 1)"),
    ((((2.0, 1),), TRUNCATED), "illegal digit (2.0, 1)"),
    ((((2, 1.0),), TRUNCATED), "illegal digit (2, 1.0)"),
    ((((2.5, 1), (3, -1)), TRUNCATED), "illegal digit (2.5, 1)"),
    ((((3, 1), ("3", -1)), TRUNCATED), "illegal digit (3, -1)"),
    ((((None, 1),), TRUNCATED), "illegal digit (None, 1)"),
    ((((1, 1), (2, -1)), PERIODIC, 1.0), "periodic expansion needs a period_start inside the digits"),
    ((((1, 1),), "sometimes"), "unknown terminator 'sometimes'"),
    ((((1, 1), (1, 1)), PERIODIC, 0), "is a repetition of a shorter word"),
    ((((2, 1), (3, -1), (2, 1), (3, -1)), PERIODIC, 0), "is a repetition of a shorter word"),
    ((((1, 1),), FINITE, 0), "period_start is only meaningful for periodic expansions"),
    ((((1, 1),), PERIODIC), "periodic expansion needs a period_start inside the digits"),
    ((((1, 1),), PERIODIC, 3), "periodic expansion needs a period_start inside the digits"),
    ((((1, 1),), PERIODIC, -1), "periodic expansion needs a period_start inside the digits"),
    (((), PERIODIC, 0), "periodic expansion needs a period_start inside the digits"),
]


def test_expansion_validation():
    for args, message in REJECTED:
        with pytest.raises(ValueError, match=re.escape(message)):
            OocfExpansion(*args)


def test_public_constructor_rejects_non_int_digits():
    # a digit must be a pair of ints; REJECTED has the messages
    for bad in ((2.0, 1.0), (None, 1)):
        with pytest.raises(ValueError, match="illegal digit"):
            OocfExpansion(((1, 1), bad), TRUNCATED)
    # bool is an int subclass, and int(True) is exact
    e = OocfExpansion(((True, 1), (2, True)), TRUNCATED)
    assert e.digits == ((1, 1), (2, 1))
    assert all(type(v) is int for d in e.digits for v in d)
    # a generator of digits is read once
    e = OocfExpansion(((k, 1) for k in (1, 2, 3)), TRUNCATED)
    assert e.digits == ((1, 1), (2, 1), (3, 1))


@st.composite
def unit_inputs(draw):
    """Rationals at or next to the branch endpoints (2k-1)/(2k+1) and
    k/(k+1), other rationals, and quadratic irrationals, all in [0, 1]."""
    kind = draw(st.sampled_from(["endpoint", "rational", "surd"]))
    if kind == "endpoint":
        k = draw(st.integers(1, 300))
        num, den = draw(st.sampled_from([(2 * k - 1, 2 * k + 1), (k, k + 1)]))
        scale = draw(st.integers(1, 10 ** 6))
        shift = draw(st.sampled_from([0, -1, 1]))
        return min(max(F(num * scale + shift, den * scale), F(0)), F(1))
    if kind == "rational":
        q = draw(st.integers(1, 10 ** 6))
        return F(draw(st.integers(0, q)), q)
    d = draw(st.integers(2, 10 ** 6).filter(lambda d: isqrt(d) ** 2 != d))
    q = draw(st.integers(1, 50))
    s = draw(st.sampled_from([1, -1, 2]))
    r = isqrt(s * s * d)  # floor(|s| sqrt(d))
    p = (-r if s > 0 else r + 1) + draw(st.integers(0, q - 1))
    return QuadIrr(p, s, d, q)


@settings(max_examples=60, deadline=None)
@given(unit_inputs(), st.sampled_from([None, 0, 1, 5, 40]))
def test_expand_equals_validated_construction(x, budget):
    e = expand(x, budget)
    assert e == OocfExpansion(e.digits, e.terminator, e.period_start)
    assert all(type(d) is OocfDigit and type(d.a) is int and type(d.eps) is int
               for d in e.digits)


@settings(max_examples=60, deadline=None)
@given(unit_inputs())
def test_engine_output_types(x):
    # the engine wraps its digits and builds its rows without the checking
    # constructors; the objects must still be the public types, int-valued
    digits = expand(x, 60).digits
    streamed = list(islice(digit_stream(x), 60))
    assert streamed[:len(digits)] == list(digits)
    for d in digits + tuple(streamed):
        assert type(d) is OocfDigit and type(d.a) is int and type(d.eps) is int
    rows = convergent_table(digits) + list(islice(convergent_stream(digit_stream(x)), 61))
    for t in rows:
        assert type(t) is ConvergentTriple and not hasattr(t, "__dict__")


def test_detect_period_examples():
    assert detect_period(SQRT2M1) == (0, 1)
    i, l = detect_period(QuadIrr(-1, 1, 5, 2))
    assert (i, l) == (0, 1)
    for x in [QuadIrr(0, 1, 2, 2), QuadIrr(-3, 1, 13, 2), frac_sqrt(7)]:
        i, l = detect_period(x)
        e = expand(x)
        assert e.terminator == PERIODIC
        assert (e.period_start, len(e.period)) == (i, l)
        assert evaluate(e, disc=x.d) == x


def test_detect_period_domain():
    with pytest.raises(ValueError):
        detect_period(F(1, 3))
    with pytest.raises(ValueError):
        detect_period(QuadIrr(5, 1, 2))   # outside (0, 1)
    with pytest.raises(RuntimeError):
        detect_period(frac_sqrt(19), cap=2)


def test_range_checked_at_entry():
    # the integer-state loops would return garbage or never stop outside [0, 1]
    for x in (F(3, 2), F(-1, 3), -SQRT2M1, QuadIrr(1, 1, 2)):
        stream = digit_stream(x)
        with pytest.raises(ValueError, match="outside"):
            next(stream)
        with pytest.raises(ValueError, match="outside"):
            expand(x)


def test_digit_stream_matches_expand():
    for x in [F(2, 7), F(17, 99), SQRT2M1]:
        e = expand(x, max_digits=10)
        assert tuple(islice(digit_stream(x), len(e.digits))) == e.digits


def test_expand_deterministic_for_quadratics():
    x = frac_sqrt(19)
    assert expand(x) == expand(x)
    assert expand(x).digits == expand(x, max_digits=1000).digits


def test_hard_cap_counts_digits_not_runs():
    # 1/(2n+1) expands to n-1 digits (2,-1), taken as one run, then (1,1):
    # the 10^6-digit cap counts the digits of the run
    run = (OocfDigit(2, -1),) * (10 ** 6 - 1)
    e = expand(F(1, 2 * 10 ** 6 + 1))
    assert e.terminator == FINITE and e.digits == run + (OocfDigit(1, 1),)
    for x in (F(1, 2 * 10 ** 6 + 3), F(1, 3000001)):
        with pytest.raises(RuntimeError, match="^expansion exceeded the hard digit cap$"):
            expand(x)
    e = expand(F(1, 3000001), 10 ** 6)
    assert e.terminator == TRUNCATED and e.digits == run + (OocfDigit(2, -1),)
