"""One-step field results against the composed routes they replaced.

``Mat2.apply``, ``QuadIrr.__rsub__``, ``__truediv__``, ``__rtruediv__``,
``inverse`` and ``rcf.conjugacy`` each build their result in one closed
form, reduced once by ``core._quad``.  Here each is checked against the
route it replaced (``legacy_loops``: ``(a*x + b)/(c*x + d)``, ``(-x) + n``,
the reciprocal by the checked constructor, ``(1 - x)/(1 + x)``) on ints to
10^40, radicands to 10^12, negative entries, ``c = 0``, det-0 matrices and
poles.  Every quadratic result must be canonical: q > 0, gcd(p, s, q) = 1,
and the checked constructor gives it back unchanged.

A quadratic's [0, 1] check in ``maps._unit`` is one floor, and a
``QuadIrr`` compared with an int is one ``sign_linear``.  The floor rule is
checked against the two comparisons it replaced (``legacy_loops._unit``)
just inside and just outside 0 and 1, and every order and equality test of
a ``QuadIrr`` against an int, a bool, a ``Fraction`` and a ``QuadIrr``
against the sign of the cross-multiplied difference."""

from fractions import Fraction as F
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import legacy_loops as old
from oocf import core
from oocf.core import Mat2, QuadIrr, sign_linear
from oocf.maps import _unit
from oocf.rcf import conjugacy

SETTINGS = settings(max_examples=150, deadline=None)

small = st.integers(-6, 6)
huge = st.integers(-10 ** 40, 10 ** 40)
ints = st.one_of(small, huge)
nonzero = ints.filter(bool)


def _non_square(d: int) -> int:
    return d + 1 if isqrt(d) ** 2 == d else d


radicands = st.one_of(st.integers(2, 50), st.integers(2, 10 ** 12)).map(_non_square)


def quads(d):
    return st.builds(QuadIrr, ints, nonzero, st.just(d), nonzero)


def rationals():
    return st.one_of(ints, st.booleans(), st.builds(F, ints, nonzero))


def outcome(f, *args):
    """The value of f(*args), or the type and message of its error."""
    try:
        return f(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def assert_same(new, want):
    assert type(new) is type(want) and new == want
    if isinstance(new, QuadIrr):
        assert new.q > 0 and new.s != 0 and gcd(new.p, new.s, new.q) == 1
        assert QuadIrr(new.p, new.s, new.d, new.q) == new


@st.composite
def matrices(draw, x):
    """Any integer matrix; or one with c = 0, det 0, or a pole at x."""
    a, b, c, d = (draw(ints) for _ in range(4))
    kind = draw(st.sampled_from(["any", "c0", "det0", "pole"]))
    k = draw(nonzero)
    if kind == "c0":
        c = 0
    elif kind == "det0":
        c, d = k * a, k * b
    elif kind == "pole":
        if isinstance(x, QuadIrr):
            c = d = 0
        else:
            n, m = F(x).numerator, F(x).denominator
            c, d = k * m, -k * n
    return Mat2(a, b, c, d)


@SETTINGS
@given(st.one_of(radicands.flatmap(quads), rationals()).flatmap(
    lambda x: st.tuples(st.just(x), matrices(x))))
@example((QuadIrr(-1, 1, 2), Mat2(0, 0, 0, 0)))
@example((QuadIrr(-1, 1, 2), Mat2(1, 1, 2, 2)))
@example((F(1), Mat2(1, 0, 1, -1)))
@example((True, Mat2(3, -1, 0, 2)))
def test_mobius_image_matches_field_ops(case):
    x, m = case
    new, want = outcome(m.apply, x), outcome(old.mobius, m, x)
    if isinstance(want, tuple):
        assert new == want
    else:
        assert_same(new, want)


@SETTINGS
@given(radicands.flatmap(lambda d: st.tuples(quads(d), quads(d))), rationals())
@example((QuadIrr(1, 1, 2), QuadIrr(-1, 1, 2)), 0)
def test_one_step_quotients_and_differences_match(xy, n):
    x, y = xy
    assert_same(n - x, old.field_sub(n, x))
    assert_same(n / x, old.quad_inverse(x) * n)
    assert_same(x / y, x * old.quad_inverse(y))
    assert_same(x.inverse(), old.quad_inverse(x))
    assert outcome(x.__truediv__, n) == outcome(old.field_div, x, n)
    for r in (-x, x.conjugate(), x * y, x + n, x - y):
        assert_same(r, QuadIrr(r.p, r.s, r.d, r.q) if isinstance(r, QuadIrr) else F(r))


@st.composite
def unit_values(draw):
    """x in [0, 1]: a quadratic over a radicand to 10^12, 0, 1, or at the
    branch ends (2k-1)/(2k+1) and k/(k+1)."""
    kind = draw(st.sampled_from(["quad", "ends", "branch", "any"]))
    if kind == "quad":
        d, s = draw(radicands), draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        q, r = draw(st.integers(1, 10 ** 6)), draw(st.integers(0, 10 ** 6))
        floor = isqrt(s * s * d) if s < 0 else -isqrt(s * s * d) - 1
        return QuadIrr(floor + 1 + r % q, s, d, q)
    if kind == "ends":
        return draw(st.sampled_from([0, 1, F(0), F(1)]))
    if kind == "branch":
        k = draw(st.one_of(st.integers(1, 60), st.integers(1, 10 ** 40)))
        return draw(st.sampled_from([F(2 * k - 1, 2 * k + 1), F(k, k + 1)]))
    q = draw(st.integers(1, 10 ** 40))
    return F(draw(st.integers(0, q)), q)


@SETTINGS
@given(unit_values())
def test_conjugacy_matches_field_ops(x):
    assert_same(conjugacy(x), old.field_conjugacy(x))
    assert conjugacy(conjugacy(x)) == x


@pytest.mark.parametrize("x", [0.5, 1e300, float("nan"), "1/2", 1j, None])
def test_apply_refuses_an_inexact_value(x):
    with pytest.raises((TypeError, ValueError), match="pass an int, Fraction or QuadIrr"):
        Mat2(1, 2, 3, 4).apply(x)


def _floor_s_sqrt(s, d):
    r = isqrt(s * s * d)
    return r if s > 0 else -r - 1


@st.composite
def next_to_unit_ends(draw):
    """(p + s*sqrt(d))/q with p within 3 of -floor(s*sqrt(d)) or of
    q - floor(s*sqrt(d)): just inside or just outside 0 or 1."""
    d = draw(radicands)
    s = draw(st.one_of(nonzero, st.integers(-10 ** 40, -1)))
    q = draw(st.one_of(st.integers(1, 6), st.integers(1, 10 ** 40)))
    end = draw(st.sampled_from([0, q]))
    return QuadIrr(end - _floor_s_sqrt(s, d) + draw(st.integers(-3, 3)), s, d, q)


@SETTINGS
@given(st.one_of(next_to_unit_ends(), radicands.flatmap(quads)))
@example(QuadIrr(-1, 1, 2))
@example(QuadIrr(1, -1, 2))
@example(QuadIrr(2, 1, 2, 3))
def test_unit_floor_rule_matches_two_comparisons(x):
    assert outcome(_unit, x) == outcome(old._unit, x)


@pytest.mark.parametrize("x", [0, 1, -1, 2, True, False, F(1, 2), F(-1, 2), F(3, 2),
                               0.5, "1/2", None])
def test_unit_matches_on_other_inputs(x):
    new, want = outcome(_unit, x), outcome(old._unit, x)
    assert new == want and type(new) is type(want)


@st.composite
def near_values(draw, x):
    """An int, bool, Fraction or QuadIrr over x's radicand: any, or an int
    or Fraction next to x, so that both signs in the cross-multiplied form
    are met."""
    kind = draw(st.sampled_from(["any", "floor", "fraction", "quad"]))
    floor = (x.p + _floor_s_sqrt(x.s, x.d)) // x.q
    if kind == "floor":
        return floor + draw(st.integers(-1, 2))
    if kind == "fraction":
        m = draw(st.integers(1, 10 ** 20))
        return F(floor * m + draw(st.integers(0, m)), m)
    if kind == "quad":
        return draw(quads(x.d))
    return draw(rationals())


@SETTINGS
@given(radicands.flatmap(quads).flatmap(lambda x: st.tuples(st.just(x), near_values(x))))
@example((QuadIrr(-1, 1, 2), 0))
@example((QuadIrr(-1, 1, 2), True))
@example((QuadIrr(-1, 1, 2), QuadIrr(-1, 1, 2)))
def test_order_matches_cross_multiplied_sign(case):
    x, y = case
    if isinstance(y, QuadIrr):
        p, s, q = y.p, y.s, y.q
    else:
        p, s, q = F(y).numerator, 0, F(y).denominator
    c = sign_linear(x.p * q - p * x.q, x.s * q - s * x.q, x.d)
    want = (c < 0, c <= 0, c > 0, c >= 0, c == 0, c != 0)
    assert (x < y, x <= y, x > y, x >= y, x == y, x != y) == want
    assert (y > x, y >= x, y < x, y <= x, y == x, y != x) == want


def test_order_against_an_int_is_one_sign_test(monkeypatch):
    # the tracer counts sign tests by rebinding core.sign_linear
    calls = []
    monkeypatch.setattr(core, "sign_linear", lambda *a: calls.append(a) or sign_linear(*a))
    x = QuadIrr(-1, 1, 2)
    assert 0 < x < 1 and not x == 0 and x != 1
    assert calls == [(-1, 1, 2), (-2, 1, 2)]
