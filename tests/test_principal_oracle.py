"""The principal convergents by their own two-term recurrence
(``convergents.principal_convergents_up_to``) against the route it
replaced (``legacy_loops.principal_convergents_up_to``): one full
``ConvergentTriple`` row per digit, the principal read off each row.  The
inputs are rationals in [0, 1], whose digit streams end, and quadratic
irrationals; the bounds are the small ones, a denominator of the list and
its neighbours, where the cut falls, and 10^30.  Every convergent is also
checked to be odd/odd, as the recurrence keeps p and q odd."""

from fractions import Fraction as F
from math import gcd

from hypothesis import given
from hypothesis import strategies as st

import legacy_loops as old
from oocf.convergents import principal_convergents_up_to
from test_orbit_oracle import SETTINGS, quadratics, small_rationals

# rationals with up to about 5*10^4 digits (1/10^5 crawls by (2,-1) digits)
unit_rationals = st.one_of(
    small_rationals,
    st.builds(lambda q, r: F(r % (q + 1), q),
              st.integers(1, 10 ** 5), st.integers(0, 10 ** 5)))

# shaped like the thm1-scan inputs: (P + s*sqrt(d))/q with d < 10^6, |s| <= 3
# and q <= 30 stays about 1/(2*b^2*|s|*q*sqrt(d)) or more from any a/b, so a
# run of (2,-1) digits on the way to 10^30 has some 10^5 digits at most
thm1_quadratics = quadratics(10 ** 6, 30)


def _bounds(draw, x):
    """qmax from {0, 1, 2, 3, q_n - 1, q_n, q_n + 1, 10^30}, q_n a
    denominator of the list up to 10^30."""
    full = old.principal_convergents_up_to(x, 10 ** 30)
    q = draw(st.sampled_from(full)).denominator
    return draw(st.sampled_from([0, 1, 2, 3, q - 1, q, q + 1, 10 ** 30]))


def _same_list(x, qmax):
    got = principal_convergents_up_to(x, qmax)
    assert got == old.principal_convergents_up_to(x, qmax)
    for c in got:
        p, q = c.numerator, c.denominator
        assert p % 2 == 1 and q % 2 == 1 and gcd(p, q) == 1 and q <= qmax
    assert all(c1.denominator < c2.denominator for c1, c2 in zip(got, got[1:]))


@SETTINGS
@given(st.data(), unit_rationals)
def test_recurrence_matches_rows_on_rationals(data, x):
    _same_list(x, _bounds(data.draw, x))


@SETTINGS
@given(st.data(), thm1_quadratics)
def test_recurrence_matches_rows_on_quadratics(data, x):
    _same_list(x, _bounds(data.draw, x))
