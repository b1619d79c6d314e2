import math
import operator
import random
from fractions import Fraction as F

import pytest

from oocf.core import (IDENTITY, INF_RATIONAL, ONE_RATIONAL, Mat2, QuadIrr,
                       classify, format_real, frac_sqrt, is_one_rational,
                       parse_real, sign_linear,
                       theta_coset_member)


def test_rational_reduce():
    assert parse_real("2/4") == F(1, 2)
    assert parse_real("-3/-9") == F(1, 3)
    assert parse_real("5/13") == F(5, 13)
    with pytest.raises(ValueError, match="zero denominator"):
        parse_real("1/0")


def test_rational_reduce_idempotent_random():
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(-10**6, 10**6)
        d = rng.randint(1, 10**6)
        r = parse_real(f"{n}/{d}")
        assert math.gcd(abs(r.numerator), r.denominator) == 1
        assert r.denominator >= 1
        assert parse_real(format_real(r)) == r


def test_classify():
    assert classify(F(3, 5)) == ONE_RATIONAL
    assert classify(F(2, 7)) == INF_RATIONAL
    assert classify(F(1, 1)) == ONE_RATIONAL
    assert classify(F(0, 1)) == INF_RATIONAL


def test_classify_matches_theta_orbit_bfs():
    """Independent oracle: p/q is odd/odd iff some element of the theta
    group maps 1 to p/q.  BFS over the generators z+2, z-2, -1/z from 1,
    on the projective line, bounded in height."""
    cap = 220
    start = (1, 1)
    seen = {start}
    frontier = [start]

    def push(p, q, acc):
        if q < 0:
            p, q = -p, -q
        g = math.gcd(abs(p), q) or 1
        p, q = p // g, q // g
        if abs(p) <= cap and q <= cap and (p, q) not in seen:
            seen.add((p, q))
            acc.append((p, q))

    while frontier:
        nxt = []
        for p, q in frontier:
            push(p + 2 * q, q, nxt)      # T^2
            push(p - 2 * q, q, nxt)      # T^-2
            push(-q, p, nxt)             # S
        frontier = nxt

    for q in range(1, 51):
        for p in range(0, q + 1):
            if math.gcd(p, q) != 1:
                continue
            in_orbit = (p, q) in seen
            assert in_orbit == is_one_rational(F(p, q)), (p, q)


# ---------------------------------------------------------------------------
# quadratic field arithmetic

def _rand_quad(rng, d):
    while True:
        s = rng.randint(-9, 9)
        if s:
            return QuadIrr(rng.randint(-20, 20), s, d, rng.randint(1, 12))


def test_quad_examples():
    r2 = QuadIrr(0, 1, 2)
    assert r2 - 1 == QuadIrr(-1, 1, 2)
    assert QuadIrr(-1, 1, 2) > F(2, 5)
    assert math.floor(r2) == 1
    assert math.floor(QuadIrr(-1, 1, 2)) == 0
    assert math.floor(-r2) == -2


def test_quad_construction_errors():
    with pytest.raises(ValueError):
        QuadIrr(1, 0, 2)          # rational
    with pytest.raises(ValueError):
        QuadIrr(1, 1, 9)          # perfect square
    with pytest.raises(ValueError):
        QuadIrr(1, 1, 2, 0)       # zero denominator
    with pytest.raises(ValueError):
        QuadIrr(0, 1, 2) + QuadIrr(0, 1, 3)   # mixed fields


def test_quad_canonical_form():
    a = QuadIrr(2, 4, 5, 6)
    assert (a.p, a.s, a.q) == (1, 2, 3)
    b = QuadIrr(-1, -2, 5, -3)
    assert (b.p, b.s, b.q) == (1, 2, 3)
    assert a == b
    assert hash(a) == hash(b)


def test_quad_field_identities_random():
    rng = random.Random(11)
    for d in (2, 5, 13):
        for _ in range(200):
            x = _rand_quad(rng, d)
            y = _rand_quad(rng, d)
            assert (x + y) - y == x
            assert x * x.inverse() == F(1)
            assert x * (1 / x) == F(1)
            assert -(-x) == x
            assert x - x == F(0)


@pytest.mark.parametrize("other", [0.5, "1/2"])
def test_quad_refuses_floats_and_strings(other):
    x = QuadIrr(-1, 1, 2)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv,
               operator.lt, operator.le, operator.gt, operator.ge):
        for args in ((x, other), (other, x)):
            with pytest.raises(TypeError):
                op(*args)


def test_quad_compare_consistent_with_floats():
    rng = random.Random(13)
    vals = []
    for d in (2, 3, 7):
        for _ in range(340):
            vals.append(_rand_quad(rng, d))
    # compare within one field, and against rationals, at float tolerance
    for d in (2, 3, 7):
        sub = [v for v in vals if v.d == d]
        for i in range(0, len(sub) - 1, 2):
            x, y = sub[i], sub[i + 1]
            fx, fy = float(x), float(y)
            if abs(fx - fy) > 1e-12:
                assert (x < y) == (fx < fy)
    for v in vals[:1000]:
        r = F(rng.randint(-40, 40), rng.randint(1, 20))
        if abs(float(v) - float(r)) > 1e-12:
            assert (v < r) == (float(v) < float(r))
            assert (v > r) == (float(v) > float(r))


def test_quad_floor_random():
    rng = random.Random(17)
    for d in (2, 6, 19):
        for _ in range(300):
            x = _rand_quad(rng, d)
            f = math.floor(x)
            assert f <= x < f + 1


def test_quad_strict_total_order():
    rng = random.Random(19)
    vals = [_rand_quad(rng, 5) for _ in range(60)]
    vals.sort()
    for a, b in zip(vals, vals[1:]):
        assert a <= b
        assert not (b < a)


def test_sign_linear():
    assert sign_linear(0, 0, 2) == 0
    assert sign_linear(3, -2, 2) == 1      # 3 > 2*sqrt(2)
    assert sign_linear(-3, 2, 2) == -1
    assert sign_linear(2, -2, 2) == -1     # 2 < 2*sqrt(2)
    assert sign_linear(-7, 5, 2) == 1      # 5*sqrt(2) > 7


def test_frac_sqrt():
    x = frac_sqrt(13)
    assert 0 < x < 1
    assert x + 3 == QuadIrr(0, 1, 13)


# ---------------------------------------------------------------------------
# matrices

def test_mat_examples():
    a = Mat2(0, 1, 1, 2)               # digit matrix of (1, 1)
    assert IDENTITY @ a == a
    assert a.apply(F(1)) == F(1, 3)
    assert a.det() == -1


def test_mat_apply_composition_exact():
    rng = random.Random(23)
    for _ in range(300):
        a = Mat2(*(rng.randint(-5, 5) for _ in range(4)))
        b = Mat2(*(rng.randint(-5, 5) for _ in range(4)))
        x = F(rng.randint(-30, 30), rng.randint(1, 30))
        try:
            lhs = (a @ b).apply(x)
            rhs = a.apply(b.apply(x))
        except (ValueError, ZeroDivisionError):
            continue
        assert lhs == rhs


def test_mat_pole():
    with pytest.raises(ValueError):
        Mat2(1, 0, 1, -1).apply(F(1))


def test_theta_membership():
    assert Mat2(1, 0, 0, 1).theta_member()
    assert Mat2(0, -1, 1, 0).theta_member()
    assert Mat2(1, 2, 0, 1).theta_member()
    assert not Mat2(1, 1, 0, 1).theta_member()
    assert not Mat2(0, 1, 1, 0).theta_member()      # det -1
    assert theta_coset_member(Mat2(0, 1, 1, 0))
    assert theta_coset_member(Mat2(0, 1, 1, 2))     # digit matrix (1,1)
    assert not theta_coset_member(Mat2(2, 0, 0, 1))  # det 2


# ---------------------------------------------------------------------------
# number grammar

def test_parse_real():
    assert parse_real("7/10") == F(7, 10)
    assert parse_real(" 7 / 10 ") == F(7, 10)
    assert parse_real("3") == F(3)
    assert parse_real("(-1+1*sqrt(2))/1") == QuadIrr(-1, 1, 2)
    assert parse_real("( -3 + 1 * sqrt( 13 ) ) / 2") == QuadIrr(-3, 1, 13, 2)
    assert parse_real("(5-2*sqrt(3))/4") == QuadIrr(5, -2, 3, 4)
    assert parse_real("sqrt(2)") == QuadIrr(0, 1, 2)
    assert parse_real("(1+2*sqrt(9))/1") == F(7)    # square radicand is rational
    assert parse_real("sqrt(4)") == F(2)
    with pytest.raises(ValueError):
        parse_real("one half")
    with pytest.raises(ValueError):
        parse_real("1/0")
    with pytest.raises(ValueError, match="zero denominator"):
        parse_real("(1+1*sqrt(2))/0")


def test_format_round_trip():
    for text in ["7/10", "0/1", "(-1+1*sqrt(2))/1", "(-3+1*sqrt(13))/2"]:
        v = parse_real(text)
        assert parse_real(format_real(v)) == v
