"""The RCF converters against the code they replaced (``legacy_loops``):
``rcf_to_oocf`` and ``change_rcf`` against their digit-case tables, on exact
and truncated prefixes that often end in 1s and 2s, where the two
expansions of a rational meet; and ``rcf_expand`` on the orbit driver
against its own stop-at-0-or-budget loop.  And ``keita_monotonicity``,
which decides each chain by its last step, against the
enumeration of all d_n + 1 of them, on surds and on rationals built from
partial quotients up to 50; and ``verify keita``, which reads every level
off one expansion, against the loop that called ``keita_monotonicity``
once per level.  And the integer matrix walk of a truncated
``rcf_to_oocf``, which takes a run of (2,-1) digits in one step, against
the walk that took one exact branch step per digit on the cylinder, on
prefixes with digits in the thousands and on cylinders that end exactly at
1/3 or 1/(2n+1), where a run ends on the boundary of its cell.  And that
matrix walk, in ``rcf_to_oocf`` and in ``change_rcf`` for every digit,
against the cylinder walk it replaced, which held the two ``Fraction``
ends of the whole prefix's cylinder, on prefixes of up to 200 digits.

The one difference is on purpose: on an empty truncated expansion the old
``change_rcf`` raised for eps = -1, and the new one returns the digits its
continuations share, () for a = 2 and (1, a-2) for a >= 3."""

import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from io import StringIO

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import legacy_loops as old
from oocf import approx
from oocf.approx import keita_monotonicity
from oocf.cli import main
from oocf.core import format_real
from oocf.expansion import FINITE, TRUNCATED, OocfExpansion
from oocf.maps import OocfDigit, branch_apply, branch_interval, oocf_branch_of
from oocf.rcf import RcfExpansion, change_rcf, rcf_expand, rcf_to_oocf
from test_orbit_oracle import SETTINGS, huge_rationals, quadratics

terminators = st.sampled_from((FINITE, TRUNCATED))
LEGAL_DIGITS = [(1, 1)] + [(a, eps) for a in range(2, 9) for eps in (1, -1)]


@st.composite
def prefixes(draw):
    """RCF digit strings of length 0-8 over 1-30, often with a tail of
    1s and 2s."""
    tail = draw(st.lists(st.sampled_from((1, 2)), max_size=3))
    head = draw(st.lists(st.integers(1, 30), max_size=8 - len(tail)))
    return tuple(head + tail)


@SETTINGS
@given(prefixes(), terminators)
def test_rcf_to_oocf_matches_case_table(digits, terminator):
    e = RcfExpansion(digits, terminator)
    assert rcf_to_oocf(e) == old.rcf_to_oocf(e)


@SETTINGS
@given(prefixes(), terminators)
def test_change_rcf_matches_case_table(digits, terminator):
    e = RcfExpansion(digits, terminator)
    for a, eps in LEGAL_DIGITS:
        if not e.digits and terminator == TRUNCATED and eps == -1:
            with pytest.raises(ValueError, match="empty truncated"):
                old.change_rcf((a, eps), e)
            want = RcfExpansion(() if a == 2 else (1, a - 2), TRUNCATED)
            assert change_rcf((a, eps), e) == want
        else:
            assert change_rcf((a, eps), e) == old.change_rcf((a, eps), e)


def _per_digit_walk(digits):
    return tuple(old.decided(*old.cylinder(digits), oocf_branch_of,
                             lambda d: branch_interval(*d), branch_apply))


# one digit 2n+1 or 2n puts an end of the cylinder at 1/(2n+1); with a
# digit after it, the walk meets 1/3 after a run or after a larger digit
odd_ends = st.integers(1, 1000).flatmap(lambda n: st.sampled_from([2 * n + 1, 2 * n]))
large_prefixes = st.one_of(
    st.lists(st.one_of(st.integers(1, 2000), st.integers(1, 4)), min_size=1, max_size=6),
    st.tuples(st.lists(st.integers(1, 30), max_size=2), odd_ends,
              st.lists(st.integers(1, 30), max_size=2)).map(lambda t: t[0] + [t[1]] + t[2]))


@SETTINGS
@given(large_prefixes)
def test_truncated_rcf_to_oocf_matches_per_digit_walk(digits):
    digits = tuple(digits)
    got = rcf_to_oocf(RcfExpansion(digits, TRUNCATED))
    assert got.digits == _per_digit_walk(digits)
    # wrapped without the per-digit check, it equals the checked constructor's
    assert got == OocfExpansion(got.digits, TRUNCATED)
    assert all(type(d) is OocfDigit for d in got.digits)


@pytest.mark.parametrize("digits", [(3,), (4,), (5,), (2, 1), (3, 1), (201,), (200,),
                                    (1, 3), (1, 2, 3), (6, 1, 1)])
def test_truncated_walk_at_cell_ends(digits):
    want = _per_digit_walk(digits)
    assert rcf_to_oocf(RcfExpansion(digits, TRUNCATED)).digits == want


@st.composite
def long_prefixes(draw):
    """Up to 200 RCF digits in 1-9, with up to two digits up to 10^6 or next
    to an odd end put in anywhere."""
    digits = draw(st.lists(st.integers(1, 9), max_size=200))
    for big in draw(st.lists(st.one_of(st.integers(1, 10 ** 6), odd_ends), max_size=2)):
        digits.insert(draw(st.integers(0, len(digits))), big)
    return tuple(digits)


def _digits_or_error(convert, *args):
    try:
        return tuple(convert(*args))
    except RuntimeError as exc:     # past the hard cap, which two 10^6 can be
        return str(exc)


@SETTINGS
@given(long_prefixes())
def test_truncated_rcf_to_oocf_matches_cylinder_walk(digits):
    got = _digits_or_error(lambda: rcf_to_oocf(RcfExpansion(digits, TRUNCATED)).digits)
    assert got == _digits_or_error(old.cylinder_rcf_to_oocf, digits)


@SETTINGS
@given(long_prefixes())
def test_truncated_change_rcf_matches_cylinder_walk(digits):
    e = RcfExpansion(digits, TRUNCATED)
    for digit in LEGAL_DIGITS:
        assert change_rcf(digit, e).digits == old.cylinder_change_rcf(digit, digits)


@SETTINGS
@given(st.one_of(huge_rationals, quadratics(10 ** 6, 40)),
       st.sampled_from([None, 0, 1, 2, 5, 30, 200]))
def test_rcf_expand_matches_loop(x, budget):
    try:
        want = old.rcf_expand(x, budget)
    except ValueError as exc:       # a quadratic needs a budget
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            rcf_expand(x, budget)
        return
    assert rcf_expand(x, budget) == want


def _rcf_value(digits):
    """[0; d_1, ..., d_k] as a Fraction."""
    x = F(0)
    for d in reversed(digits):
        x = 1 / (d + x)
    return x


keita_inputs = st.one_of(st.lists(st.integers(1, 50), min_size=1, max_size=8).map(_rcf_value),
                         quadratics(10 ** 6, 40))


def _keita(fn, x, n):
    try:
        return fn(x, n)
    except ValueError as exc:       # fewer than n RCF digits
        return str(exc)


@SETTINGS
@given(keita_inputs, st.integers(1, 9))
def test_keita_matches_enumeration(x, n):
    digits = rcf_expand(x, n).digits
    assume(len(digits) < n or digits[n - 1] <= 50)
    got = _keita(keita_monotonicity, x, n)
    assert got == _keita(old.keita_monotonicity, x, n)


@st.composite
def foreign_levels(draw):
    """x, another number y and a level n of y; y is another input or
    shares a prefix of partial quotients with x and then goes its own way,
    so the error of x along y's level n can turn inside the chain."""
    digits = draw(st.lists(st.integers(1, 50), min_size=1, max_size=8))
    x = _rcf_value(digits)
    k = draw(st.integers(0, len(digits)))
    y = draw(st.one_of(keita_inputs,
                       st.lists(st.integers(1, 50), min_size=1, max_size=8).map(
                           lambda tail: _rcf_value(digits[:k] + tail))))
    return x, y, draw(st.integers(1, 9))


@SETTINGS
@given(foreign_levels())
def test_keita_matches_enumeration_on_foreign_levels(case):
    # the chains hold for x's own levels, so the levels of another number
    # y are measured at x, where the error chain can fail
    x, y, n = case
    digits = rcf_expand(y, n).digits
    assume(len(digits) < n or digits[n - 1] <= 50)
    with pytest.MonkeyPatch.context() as mp:
        for module in (approx, old):
            mp.setattr(module, "rcf_expand", lambda _, max_digits: rcf_expand(y, max_digits))
        got = _keita(keita_monotonicity, x, n)
        assert got == _keita(old.keita_monotonicity, x, n)


def _cli(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@SETTINGS
@given(keita_inputs, st.integers(0, 60))
def test_verify_keita_matches_level_loop(x, n):
    argv = ["verify", "keita", "--input", format_real(x), "-n", str(n)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(approx, "keita_levels", old.keita_levels)
        want = _cli(argv)
    got = _cli(argv)
    if n == 0:
        # refused before either side runs: no level would be checked
        assert got == want == (1, "", "error: verify keita at -n 0 checks nothing; "
                                      "give -n >= 1\n")
    elif want[0] == 1:
        # the loop named the first level past the digits, not the n asked for
        have = len(rcf_expand(x, n).digits)
        assert got == (1, "", f"error: input has only {have} RCF digits, need {n}\n")
    else:
        assert got == want
