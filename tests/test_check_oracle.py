"""Five property checks against the code they replaced (``legacy_loops``).

``verify_intermediate`` now reads rationals and quadratics alike from one
stream of n_max + 1 digits, and tests containment on int pairs (p, q); the
old check expanded a rational whole and compared ``Fraction`` values.  As
a check of true statements cannot tell a containment test that always says
yes, one RCF level is withheld from both checks, which must then name the
same missing convergents.  The inputs are the rationals whose odd-odd
orbit crawls, one (2,-1) digit per step: 1/n, p/q next to 1/8, and the
branch ends k/(k+1) and (2k-1)/(2k+1), at every n_max from 0 to 40, kept
small enough that the old check finishes.  The check now meets each row's
one candidate level, so a huge partial quotient costs it one division
where the old check built that level's intermediate convergents one by one.
The nesting flag of ``betweenness_report`` now takes one half-open rule for
both orientations; it is checked on made-up consecutive triples, including
a previous triple whose principal equals its pseudo.  ``ford_svg`` now takes
its highlights by one ``zip`` with a ``range``; it is checked at
n_highlight -3..8.  It
also classifies a circle by the parity of p and q and takes its ratios as
int/int divisions, so that a huge convergent no longer overflows, and
formats the text a row of circles shares once per row; the whole picture
is checked against the ``Fraction`` and float version up to 400 highlights,
as far as that version runs, and at the denominator cap.
``measure_check`` now decides by the exact ratio R_K and the bounds
K/(K+1) <= R_K <= 1; ln R_K is checked against the float sum of
logarithms, and R_K against its telescoped closed form, on random rational
intervals, a point, intervals ending at 1 and intervals from 1/10^400."""

import math
import time
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import legacy_loops as old
from oocf.convergents import ConvergentTriple, betweenness_report
from oocf.core import QuadIrr
from oocf.maps import Interval, _log, measure_check
from oocf import rcf
from oocf.rcf import verify_intermediate
from oocf.svg import MAX_DEN, ford_svg
from test_orbit_oracle import SETTINGS, quadratics


def _rationals_next_to(num, den, m):
    """num/den itself, scaled by m, and its two neighbours with denominator
    den*m."""
    return [F(num * m + shift, den * m) for shift in (-1, 0, 1)]


@st.composite
def crawling_rationals(draw):
    k = draw(st.integers(1, 5000))
    kind = draw(st.sampled_from(["1/n", "1/8", "k/(k+1)", "(2k-1)/(2k+1)"]))
    if kind == "1/n":
        return F(1, k)
    if kind == "1/8":
        num, den, m = 1, 8, k
    else:
        num, den = (k, k + 1) if kind == "k/(k+1)" else (2 * k - 1, 2 * k + 1)
        m = draw(st.integers(1, 50))
    return draw(st.sampled_from([x for x in _rationals_next_to(num, den, m) if 0 < x <= 1]))


@SETTINGS
@given(st.one_of(crawling_rationals(), quadratics(10 ** 6, 50)), st.integers(0, 40))
def test_intermediate_matches_two_path_check(x, n_max):
    assert verify_intermediate(x, n_max) == old.verify_intermediate(x, n_max)


def test_intermediate_examples():
    # 1/1 and 1/2 end after their first digit; 5/7 is odd/odd
    for x in (F(1), F(1, 2), F(5, 7), F(2, 7), F(99, 100), F(1, 3001)):
        for n_max in range(6):
            assert verify_intermediate(x, n_max) == old.verify_intermediate(x, n_max)


def test_intermediate_never_expands_a_crawl():
    # the orbit of 1/n takes about n/2 digits; only n_max + 1 are read
    r = verify_intermediate(F(1, 3000001), 5)
    assert r.passed and r.principals == [F(1, 2 * j + 1) for j in range(6)]


@pytest.mark.parametrize("e", [4, 1000])
def test_intermediate_takes_a_huge_partial_quotient_at_once(e):
    # the RCF of (-1 + sqrt(k^2 + 1))/k opens 1, k - 1, 1, 1, k - 1; the old
    # check held every intermediate convergent up to the last principal
    # denominator, about 2k of them at k = 10^6, and ran out of memory long
    # before k = 10^1000
    k = 10 ** e
    x = QuadIrr(-1, 1, k * k + 1, k)
    t0 = time.perf_counter()
    r = verify_intermediate(x, 4)
    assert time.perf_counter() - t0 < 1
    assert r.passed and len(r.principals) == 5
    assert r.principals[:2] == [F(1), F(2 * k - 1, 2 * k + 1)]
    if e == 4:
        assert r == old.verify_intermediate(x, 4)


def _withholding(level, rcf_pq):
    """``rcf._rcf_pq`` without the rows of one RCF level."""
    def rows(digits):
        for n, row in enumerate(rcf_pq(digits), 1):
            if n != level:
                yield row
    return rows


@pytest.mark.parametrize("x, level, missing", [
    (F(13, 31), 3, [F(3, 7)]),
    (QuadIrr(-316, 1, 99991), 4, [F(7, 33), F(13, 61), F(19, 89)]),
], ids=str)
def test_intermediate_reports_a_withheld_level(monkeypatch, x, level, missing):
    # theorem-true inputs always pass, so a containment test that always
    # says yes would match the old check there; with one level's
    # intermediate convergents withheld, both must name the same missing
    monkeypatch.setattr(rcf, "_rcf_pq", _withholding(level, rcf._rcf_pq))
    monkeypatch.setattr(old, "_rcf_pq", _withholding(level, old._rcf_pq))
    r = verify_intermediate(x, 6)
    assert r.missing == old.verify_intermediate(x, 6).missing == missing
    assert not r.passed


def _doctored(level, change, rcf_pq):
    """``rcf._rcf_pq`` with the row of one RCF level passed through
    ``change``, or with the stream ended before it when ``change`` is None."""
    def rows(digits):
        for n, row in enumerate(rcf_pq(digits), 1):
            if n == level and change is None:
                return
            yield change(*row) if n == level else row
    return rows


@pytest.mark.parametrize("level, change, missing", [
    (3, lambda d, p2, q2, p1, q1: (d, p2 + 1, q2, p1, q1), [F(3, 7)]),
    (5, lambda d, p2, q2, p1, q1: (d, p2, q2 - 1, p1, q1), [F(13, 31)]),
    (3, None, [F(3, 7), F(13, 31)]),
], ids=["numerators-off", "denominators-off-the-lattice", "stream-ends"])
def test_intermediate_reports_a_doctored_level(monkeypatch, level, change, missing):
    # the principals of 13/31 sit at j = 1 of levels 1-3 and j = 2 of level
    # 5; each doctored level moves one of them off its candidate, by its
    # numerator alone, by its denominator alone (j unchanged, remainder 1),
    # or past the last level (3/7 is then j = d_2 + 1 of level 2)
    monkeypatch.setattr(rcf, "_rcf_pq", _doctored(level, change, rcf._rcf_pq))
    monkeypatch.setattr(old, "_rcf_pq", _doctored(level, change, old._rcf_pq))
    r = verify_intermediate(F(13, 31), 6)
    assert r.missing == old.verify_intermediate(F(13, 31), 6).missing == missing


def _triple(n, p, q, p_sub, q_sub, p_pse, q_pse):
    return ConvergentTriple(n, p, q, p_sub, q_sub, p_pse, q_pse, 1)


small = st.integers(-6, 6)
dens = st.integers(1, 6)


@st.composite
def consecutive_triples(draw):
    """Made-up triples n - 1 and n with small entries; the previous one has
    its principal equal to its pseudo one time in three."""
    n = draw(st.integers(1, 5))
    pp, pq = draw(small), draw(dens)
    if draw(st.integers(0, 2)) == 0:
        pse = (pp, pq)
    else:
        pse = (draw(small), draw(dens))
    prev = _triple(n - 1, pp, pq, draw(small), draw(dens), *pse)
    curr = _triple(n, draw(small), draw(dens), draw(small), draw(dens),
                   draw(small), draw(dens))
    return prev, curr


@SETTINGS
@given(consecutive_triples())
def test_nesting_matches_orientation_lambdas(triples):
    prev, curr = triples
    flags = betweenness_report(F(1, 2), curr, prev)
    assert flags.nested_in_previous == old.nested_in_previous(curr, prev)


def test_nesting_degenerate_previous():
    # principal = pseudo leaves an empty half-open interval
    prev = _triple(0, 1, 3, 1, 1, 1, 3)
    curr = _triple(1, 1, 3, 1, 3, 1, 3)
    assert betweenness_report(F(1, 3), curr, prev).nested_in_previous is False
    assert old.nested_in_previous(curr, prev) is False


WIDTH = 800


def _highlight_line(c: F) -> str:
    """The stroked circle ``ford_svg`` draws for a highlighted c."""
    scale = WIDTH - 48.0
    r = scale / (2 * c.denominator ** 2)
    fill = "#c8c8c8" if c.numerator % 2 and c.denominator % 2 else "#ffffff"
    return (f'<circle cx="{24 + scale * c.numerator / c.denominator:.4f}" '
            f'cy="{scale / 2 + 24 - r:.4f}" r="{r:.4f}" fill="{fill}" '
            f'stroke="#cc2200" stroke-width="2.0000"/>')


HIGHLIGHTS = [QuadIrr(-1, 1, 2), QuadIrr(-316, 1, 99991), F(2, 7), F(5, 7),
              F(1), F(1, 2), F(999999, 1000000)]


@pytest.mark.parametrize("x", HIGHLIGHTS, ids=str)
def test_ford_highlights_match_loop(x):
    plain = ford_svg(None, den_max=4).splitlines()
    for n in range(-3, 9):
        lines = plain[:-1] + [_highlight_line(c) for c in old.ford_highlights(x, n)]
        assert ford_svg(x, n, den_max=4) == "\n".join(lines + plain[-1:]) + "\n"


def test_ford_highlights_are_the_first_principals():
    assert old.ford_highlights(QuadIrr(-1, 1, 2), 3) == [F(1, 3), F(3, 7), F(7, 17)]
    assert ford_svg(QuadIrr(-1, 1, 2), 3).count('stroke="#cc2200"') == 3


@pytest.mark.parametrize("n", [-2, 0, 3])
def test_ford_bad_highlight_raises_at_any_count(n):
    for bad in (F(5, 3), 0.5):
        with pytest.raises(ValueError):
            ford_svg(bad, n, den_max=2)


@pytest.mark.parametrize("x", [QuadIrr(-1, 1, 2), QuadIrr(-316, 1, 99991)], ids=str)
@pytest.mark.parametrize("den_max", [1, 9, 30])
def test_ford_svg_matches_float_version(x, den_max):
    for n in (0, 1, 7, 100, 399, 400):
        assert ford_svg(x, n, den_max) == old.ford_svg(x, n, den_max)


def test_ford_svg_classes_match_float_version():
    for den_max in (120, MAX_DEN):
        assert ford_svg(None, den_max=den_max) == old.ford_svg(None, den_max=den_max)


@st.composite
def measure_intervals(draw):
    """A rational [lo, hi] in (0, 1]: random, a point, ending at 1, or
    from 1/10^400."""
    lo, hi = sorted(F(draw(st.integers(1, q)), q)
                    for q in (draw(st.integers(1, 10 ** 12)), draw(st.integers(1, 10 ** 12))))
    kind = draw(st.sampled_from(["random", "point", "to 1", "tiny"]))
    if kind == "point":
        return lo, lo
    if kind == "to 1":
        return lo, F(1)
    return (F(1, 10 ** 400) if kind == "tiny" else lo), hi


def _telescoped(lo, hi, K):
    """R_K in closed form.  For t = p/q the (k+1,-1) branch sends t to
    A_k/A_(k+1) with A_k = k*p + (k-1)*q, and the (k,1) branch to
    B_k/B_(k+1) with B_k = (k-1)*p + k*q.  So the K factors of each family
    telescope, and lo/hi cancels their ends A_1 = p and B_1 = q: R_K =
    A_(K+1)(lo) B_(K+1)(hi) / (A_(K+1)(hi) B_(K+1)(lo)), in which each q
    cancels too: A_(K+1) = q*((K+1)*t + K) and B_(K+1) = q*(K*t + K + 1)."""
    return ((K + 1) * lo + K) * (K * hi + K + 1) / (((K + 1) * hi + K) * (K * lo + K + 1))


@SETTINGS
@given(measure_intervals(), st.integers(1, 60))
def test_measure_ratio_matches_float_sum(interval, K):
    r = measure_check(Interval(*interval), K)
    legacy = old.measure_check(Interval(*interval), K)
    assert r.passed and F(K, K + 1) <= r.ratio <= 1
    assert r.ratio == _telescoped(*interval, K)
    assert r.rhs == legacy.rhs
    assert math.isclose(_log(r.ratio), legacy.lhs - legacy.rhs, rel_tol=0, abs_tol=1e-9)
