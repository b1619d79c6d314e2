"""The best odd/odd scan against the scan it replaced
(``legacy_loops.best_one_rationals``, which runs the exact test on every odd
denominator and picks the nearer of the two odd integers bracketing b*x by a
sign test), the scan's stride filter against the brute filter it stands for,
and ``float(QuadIrr)`` against the exact value.  The rule the scan picks its
numerator by, 2*floor(b*x/2) + 1, is also checked on its own against that
sign test, through the exact floor of ``QuadIrr`` and for denominators far
past any scan.

The filter, an exact fixed-point copy of x walked along residue classes of
the denominators, can only drop a winner, never add a loser, so the inputs
are those where a dropped winner is likeliest: x next to 0 or 1, where
p + s*sqrt(d) cancels; x next to a rational, where many denominators tie
to within the fixed point's precision; wide quadratics with negative s; and
qmax at and next to the edges of the blocks the scan walks."""

import math
from fractions import Fraction as F
from itertools import chain

from hypothesis import assume, given
from hypothesis import strategies as st

import legacy_loops as old
from oocf.approx import _BLOCK_GROWTH, _FIRST_BLOCK, _stride_runs, best_one_rationals
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


# the odd b = 2*edge + 1 that starts a block: the qmax that make it the
# last odd b the scan visits, and the qmax one and two either side of that
block_edges = [2 * edge + 1 + delta
               for edge in (_FIRST_BLOCK * _BLOCK_GROWTH ** i for i in range(8))
               if 2 * edge + 3 <= 2 * 10 ** 4 for delta in range(-2, 3)]
qmaxes = st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(4, 2 * 10 ** 4),
                   st.sampled_from(block_edges))


def _same_scan(x, qmax):
    assert abs(x - F(float(x))) <= F(2) ** -53
    assert best_one_rationals(x, qmax) == old.best_one_rationals(x, qmax)


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
# the stride filter against the brute filter, for every stride

@st.composite
def filter_cases(draw):
    """(X, K, T, j0, j1): small K, where the lines often meet a window's
    end exactly, and wide K; X with trailing zero bits, so that 2*L*X is a
    multiple of 2^(K+1) (eta = 0) for some L, and X = 0; T at 0, at 2^K and
    above it; blocks of length 1."""
    K = draw(st.one_of(st.integers(1, 12), st.integers(13, 100)))
    h = 1 << K
    X = draw(st.integers(0, h - 1)) >> draw(st.integers(0, K))
    X <<= draw(st.integers(0, K - X.bit_length()))
    T = draw(st.one_of(st.sampled_from([0, 1, h - 1, h, h + 1, 3 * h]),
                       st.integers(0, h), st.integers(0, max(1, h >> 8))))
    j0 = draw(st.one_of(st.integers(0, 100), st.integers(0, 10 ** 12)))
    length = draw(st.one_of(st.just(1), st.integers(1, 300)))
    return X, K, T, j0, j0 + length


@SETTINGS
@given(filter_cases())
def test_stride_filter_is_exact_for_every_stride(case):
    X, K, T, j0, j1 = case
    h = 1 << K
    M = 2 * h
    brute = [j for j in range(j0, j1) if abs((2 * j + 1) * X % M - h) < T]
    for L in range(1, 41):
        runs = _stride_runs(X, K, T, j0, j1, L)
        assert sorted(chain.from_iterable(runs)) == brute, L
        _runs_follow_centred_step(runs, X, K, j1 - j0, L)


def _runs_follow_centred_step(runs, X, K, length, L):
    # a class steps by eta or by 2^(K+1) - eta, whichever is smaller, so it
    # meets at most two windows plus one per multiple of 2^(K+1) it crosses
    M = 2 << K
    eta = 2 * L * X % M
    assert len(runs) <= 2 * min(L, length) + length * min(eta, M - eta) // M, L


def test_stride_runs_on_wide_windows():
    # T = 2^(K-1): a class that took the larger step 2^(K+1) - min(...)
    # would give one run per candidate, about half the block
    K, j1 = 80, 10 ** 4
    h = 1 << K
    for x in (QuadIrr(-1, 1, 2), QuadIrr(-1, 1, 5, 2), QuadIrr(-316, 1, 99991)):
        X = math.floor(x * h)
        brute = [j for j in range(j1) if abs((2 * j + 1) * X % (2 * h) - h) < h // 2]
        for L in (1, 2, 3, 4, 5, 12, 13, 29, 34, 70):
            runs = _stride_runs(X, K, h // 2, 0, j1, L)
            assert sorted(chain.from_iterable(runs)) == brute, L
            _runs_follow_centred_step(runs, X, K, j1, L)


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
