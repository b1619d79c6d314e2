"""The RCF converters against the code they replaced (``legacy_loops``):
``rcf_to_oocf`` and ``change_rcf`` against their digit-case tables, on exact
and truncated prefixes that often end in 1s and 2s, where the two
expansions of a rational meet; and ``rcf_expand`` on the orbit driver
against its own stop-at-0-or-budget loop.

The one difference is on purpose: on an empty truncated expansion the old
``change_rcf`` raised for eps = -1, and the new one returns the digits its
continuations share, () for a = 2 and (1, a-2) for a >= 3."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import legacy_loops as old
from oocf.expansion import FINITE, TRUNCATED
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
