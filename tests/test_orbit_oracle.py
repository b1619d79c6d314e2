"""The orbit-driver expansions against the hand-written loops they replaced
(``legacy_loops``): same digits, same terminator, same period start, or the
same exception, on rationals near the branch endpoints, 0, 1, huge
integers and quadratic irrationals with radicands up to 10^12."""

from fractions import Fraction as F
from itertools import islice
from math import isqrt

from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_loops as old
from oocf.core import QuadIrr
from oocf.expansion import detect_period, digit_stream, expand
from oocf.rcf import eicf_digit_stream, eicf_expand, rcf_digit_stream

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def endpoint_rationals(draw):
    """Rationals at or next to the branch endpoints (2k-1)/(2k+1) and
    k/(k+1), small or huge k, and at or next to 0 and 1."""
    k = draw(st.one_of(st.integers(1, 50), st.integers(1, 10 ** 40)))
    num, den = draw(st.sampled_from([(2 * k - 1, 2 * k + 1), (k, k + 1), (0, 1), (1, 1)]))
    shift = draw(st.sampled_from([0, 0, -1, 1]))
    scale = draw(st.one_of(st.just(1), st.integers(2, 10 ** 30)))
    x = F(num * scale + shift, den * scale)
    return min(max(x, F(0)), F(1))


huge_rationals = st.one_of(
    endpoint_rationals(),
    st.builds(lambda q, r: F(r % (q + 1), q),
              st.integers(1, 10 ** 40), st.integers(0, 10 ** 40)))
small_rationals = st.builds(lambda q, r: F(r % (q + 1), q),
                            st.integers(1, 500), st.integers(0, 500))


def _quad_in_unit(d, s, q, r):
    """(P + s*sqrt(d))/q with the r-th integer P that puts it in (0, 1)."""
    if isqrt(d) ** 2 == d:
        d += 1
    floor_neg = isqrt(s * s * d) if s < 0 else -isqrt(s * s * d) - 1  # floor(-s*sqrt(d))
    return QuadIrr(floor_neg + 1 + r % q, s, d, q)


def quadratics(dmax, qmax):
    return st.builds(_quad_in_unit, st.integers(2, dmax),
                     st.sampled_from([-3, -2, -1, 1, 2, 3]),
                     st.integers(1, qmax), st.integers(0, qmax - 1))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _same_streams(x, n):
    for new, legacy in ((digit_stream, old.digit_stream),
                        (eicf_digit_stream, old.eicf_digit_stream),
                        (rcf_digit_stream, old.rcf_digit_stream)):
        assert list(islice(new(x), n)) == list(islice(legacy(x), n))


def _same_expansions(x, budget, cap=10 ** 5):
    assert expand(x, budget) == old.expand(x, budget)
    assert eicf_expand(x, budget) == old.eicf_expand(x, budget)
    assert _outcome(detect_period, x, cap) == _outcome(old.detect_period, x, cap)


# Orbits next to 0 (odd-odd map) and next to 1 (even-integer map) crawl, one
# digit per step, so huge rationals and large radicands run under a budget.

@SETTINGS
@given(huge_rationals, st.integers(0, 300))
def test_huge_rationals_match(x, budget):
    _same_expansions(x, budget)
    _same_streams(x, budget)


@SETTINGS
@given(small_rationals)
def test_small_rationals_match(x):
    _same_expansions(x, None)
    _same_streams(x, None)


@SETTINGS
@given(quadratics(300, 12), st.one_of(st.none(), st.integers(0, 60)), st.integers(-2, 80))
def test_small_radicands_match(x, budget, cap):
    _same_expansions(x, budget, cap)
    _same_streams(x, 80)


@SETTINGS
@given(quadratics(10 ** 12, 40), st.integers(0, 60))
def test_large_radicands_match(x, budget):
    _same_expansions(x, budget, budget)
    _same_streams(x, budget)
