"""The best odd/odd scan against the scan it replaced
(``legacy_loops.best_one_rationals``, which runs the exact test on every odd
denominator and picks the nearer of the two odd integers bracketing b*x by a
sign test), the scan's first-hit search against the brute search it stands
for, on a fresh Euclid chain and on one chain reused across narrowing
windows as the scan asks them, and ``float(QuadIrr)`` against the exact
value.  The rule the scan picks its numerator by, 2*floor(b*x/2) + 1, is
also checked on its own against that sign test, through the exact floor of
``QuadIrr`` and for denominators far past any scan.

The filter, an exact fixed-point copy of x from which the scan jumps to the
next denominator in the window of the best so far, can only drop a winner,
never add a loser, so the inputs are those where a dropped winner is
likeliest: x next to 0 or 1, where p + s*sqrt(d) cancels; x next to a
rational, where many denominators tie to within the fixed point's
precision; wide quadratics with negative s; and qmax at and next to the
powers of two, where the fixed point's precision changes."""

import math
from fractions import Fraction as F

from hypothesis import assume, example, given
from hypothesis import strategies as st

import legacy_loops as old
from oocf.approx import _first_hit, best_one_rationals
from oocf.core import QuadIrr
from test_orbit_oracle import SETTINGS, wide_quadratics


def _near(c, b, sigma, n, k, scale):
    """c/b + sigma*(sqrt(n^2 + k) - n)/(b*scale): within about
    k/(2*n*b*scale) of c/b, on the side of sigma."""
    return QuadIrr(c * scale - sigma * n, sigma, n * n + k, b * scale)


near_kwargs = dict(
    sigma=st.sampled_from([-1, 1]),
    n=st.one_of(st.integers(10 ** 12, 10 ** 20), st.integers(10 ** 20, 10 ** 40)),
    k=st.integers(1, 1000),
    scale=st.one_of(st.just(1), st.integers(1, 10 ** 6)),
)


def _draw_near(draw, c, b):
    x = _near(c, b, **{key: draw(s) for key, s in near_kwargs.items()})
    assume(0 < x < 1)
    return x


@st.composite
def near_rational(draw, max_den):
    """x within 1e-9 of c/b, c/b in [0, 1] with b <= max_den."""
    b = draw(st.integers(1, max_den))
    return _draw_near(draw, draw(st.integers(0, b)), b)


@st.composite
def near_odd_odd(draw, max_den):
    """x within 1e-9 of an odd/odd a/b in (0, 1] with b <= max_den."""
    b = draw(st.integers(0, (max_den - 1) // 2)) * 2 + 1
    return _draw_near(draw, draw(st.integers(0, (b - 1) // 2)) * 2 + 1, b)


@st.composite
def near_ends(draw):
    """x within 1e-12 of 0 or of 1."""
    c = draw(st.sampled_from([0, 1]))
    return _near(c, 1, sigma=1 - 2 * c, n=draw(st.integers(10 ** 16, 10 ** 40)),
                 k=draw(near_kwargs["k"]), scale=draw(near_kwargs["scale"]))


# the qmax where the scan's fixed point K = 2*qmax.bit_length() + 64
# changes, and one either side
k_edges = [2 ** n + delta for n in range(15) for delta in (-1, 0, 1)]
qmaxes = st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(4, 2 * 10 ** 4),
                   st.sampled_from(k_edges))


def _same_scan(x, qmax):
    assert abs(x - F(float(x))) <= F(2) ** -53
    got = best_one_rationals(x, qmax)
    want = old.best_one_rationals(x, qmax)
    assert got == want
    # built with no gcd, so each must already be reduced, and hash as one
    for c, w in zip(got, want):
        assert math.gcd(c.numerator, c.denominator) == 1 and c.denominator > 0
        assert hash(c) == hash(w)


@SETTINGS
@given(near_ends(), qmaxes)
def test_scan_next_to_0_and_1(x, qmax):
    _same_scan(x, qmax)


@SETTINGS
@given(st.integers(1, 2 * 10 ** 4).flatmap(
    lambda q: st.tuples(near_odd_odd(q), st.integers(q, 2 * 10 ** 4))))
def test_scan_next_to_odd_odd(xq):
    _same_scan(*xq)


@SETTINGS
@given(near_rational(60), qmaxes)
def test_scan_next_to_small_rational(x, qmax):
    _same_scan(x, qmax)


@SETTINGS
@given(wide_quadratics, qmaxes)
def test_scan_wide_quadratics(x, qmax):
    _same_scan(x, qmax)


# ---------------------------------------------------------------------------
# the first-hit search against the brute search

@st.composite
def first_hit_cases(draw):
    """(A, M, L, R): M arbitrary, as the search's own steps make it, or a
    power of two, as the scan does."""
    M = draw(st.one_of(st.integers(1, 2000), st.integers(0, 11).map(lambda n: 1 << n)))
    L = draw(st.integers(0, M - 1))
    return draw(st.integers(0, M - 1)), M, L, draw(st.integers(L, M - 1))


@st.composite
def missed_windows(draw):
    """(A, M, L, R) with g = gcd(A, M) > 1 and [L, R] strictly between two
    multiples of g; every A*k mod M is a multiple of g, so none is a hit."""
    g, m = draw(st.integers(2, 50)), draw(st.integers(1, 40))
    A = g * draw(st.integers(0, m - 1))
    L = g * draw(st.integers(0, m - 1)) + draw(st.integers(1, g - 1))
    return A, g * m, L, draw(st.integers(L, L + g - 1 - L % g))


def _brute_first_hit(A, M, L, R):
    return next((k for k in range(M) if L <= A * k % M <= R), None)


@SETTINGS
@given(st.one_of(first_hit_cases(), missed_windows()))
@example((3, 10, 6, 6))  # the first multiple of A lands on R
@example((7, 16, 5, 5))  # after one wrap, 7*3 - 16 = 5 is both ends
def test_first_hit_is_exact(case):
    A, M, L, R = case
    # the case itself, and with A = 0, with L = 0 and with L = R
    for A, L, R in ((A, L, R), (0, L, R), (A, 0, R), (A, L, L)):
        assert _first_hit([M, A], L, R) == _brute_first_hit(A, M, L, R), (A, M, L, R)


@st.composite
def narrowing_windows(draw):
    """(A, M, windows): windows [L, R] of non-increasing width anywhere in
    [0, M), as the scan asks them of its one chain.  A and M share a
    factor g, so for g > 1 a window between two multiples of g has no hit,
    and its question walks the chain down to A = 0."""
    g = draw(st.sampled_from([1, 1, 2, 3, 8]))
    m = draw(st.one_of(st.integers(1, 300), st.integers(0, 9).map(lambda n: 1 << n)))
    A, M = g * draw(st.integers(0, m - 1)), g * m
    widths = sorted(draw(st.lists(st.integers(0, M - 1), min_size=1, max_size=8)),
                    reverse=True)
    return A, M, [(L, L + w) for w in widths for L in [draw(st.integers(0, M - 1 - w))]]


@SETTINGS
@given(narrowing_windows())
@example((6, 16, [(9, 12), (3, 3), (1, 1)]))  # 1 is odd: no hit, the chain ends
@example((0, 5, [(0, 4), (1, 1)]))  # the chain is [M, 0] from the start
def test_first_hit_reuses_one_chain(case):
    A, M, windows = case
    chain = [M, A]
    for L, R in windows:
        k = _first_hit(chain, L, R)
        assert k == _brute_first_hit(A, M, L, R) == _first_hit([M, A], L, R), (A, M, L, R)
        # the chain stays Euclid's on (M, A), whatever question extended it
        assert chain[:2] == [M, A]
        assert all(c2 == c0 % c1 for c0, c1, c2 in zip(chain, chain[1:], chain[2:]))
        if k is None:  # a miss walks every level, down to A = 0
            assert chain[-1] == 0


# ---------------------------------------------------------------------------
# the nearest odd numerator: one floor against the bracketing sign test

def _same_candidate(x, b):
    a = 2 * math.floor(b * x / 2) + 1
    assert a == old.bracketing_candidate(b * x.p, b * x.s, x.d, x.q)
    assert abs(b * x - a) < 1


def _surd(p, s, d, q):
    return QuadIrr(p, s, d + (math.isqrt(d) ** 2 == d), q)


random_surds = st.builds(_surd, st.integers(-10 ** 7, 10 ** 7),
                         st.sampled_from([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]),
                         st.integers(2, 10 ** 12), st.integers(1, 10 ** 6))
odd_b = st.integers(0, 5 * 10 ** 6 - 1).map(lambda k: 2 * k + 1)


@SETTINGS
@given(random_surds, odd_b)
def test_candidate_on_random_surds(x, b):
    _same_candidate(x, b)


@SETTINGS
@given(near_ends(), odd_b)
def test_candidate_next_to_0_and_1(x, b):
    _same_candidate(x, b)


# ---------------------------------------------------------------------------
# float(QuadIrr) where p and s*sqrt(d) cancel

@SETTINGS
@given(st.integers(-3, 3).filter(bool), st.integers(10 ** 4, 10 ** 40),
       st.integers(1, 2000), st.integers(-5, 5), st.integers(1, 10 ** 6))
def test_float_within_one_ulp_under_cancellation(s, n, k, t, q):
    # s*sqrt(n^2 + k) is within about |s|*k/(2n) of s*n, so p = t*q - s*n
    # leaves x = t + (small) after cancelling about log10(n) digits
    x = QuadIrr(t * q - s * n, s, n * n + k, q)
    xf = float(x)
    assert abs(x - F(xf)) <= F(math.ulp(xf))


def test_float_examples():
    # adding the two rounded floats gave 1.0 and 0.0 here
    assert float(QuadIrr(-99999999, 1, 9999999999999999, 1)) == 1 - 5e-9
    assert float(QuadIrr(-10 ** 15, 1, 10 ** 30 + 1, 1)) == 5e-16
