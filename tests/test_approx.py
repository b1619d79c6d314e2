import random
import re
from fractions import Fraction as F
from math import gcd

import pytest

from oocf import approx
from oocf.approx import (best_one_rationals, err_sq, ford_radius, ford_tangent,
                         horo_radius, keita_monotonicity,
                         principal_convergents_up_to, verify_thm1)
from oocf.core import QuadIrr, frac_sqrt

SQRT2M1 = QuadIrr(-1, 1, 2)
GOLDEN = QuadIrr(-1, 1, 5, 2)


def test_ford_examples():
    assert ford_radius(F(1, 3)) == F(1, 18)
    assert ford_tangent(F(0, 1), F(1, 3))
    assert not ford_tangent(F(0, 1), F(2, 5))
    assert err_sq(F(0, 1), F(1, 3)) == F(1, 9)
    assert horo_radius(F(0, 1), F(1, 3)) == F(1, 18) == ford_radius(F(1, 3))


def test_ford_equivalence_random():
    # |q x - p| < |b x - a|  iff  R_(p/q)(x) < R_(a/b)(x)
    rng = random.Random(61)
    for _ in range(300):
        x = QuadIrr(rng.randint(-9, 9), rng.choice((-2, -1, 1, 2)), 7, rng.randint(1, 9))
        r1 = F(rng.randint(-9, 9), rng.randint(1, 9))
        r2 = F(rng.randint(-9, 9), rng.randint(1, 9))
        lhs = err_sq(r1, x) < err_sq(r2, x)
        assert lhs == (horo_radius(r1, x) < horo_radius(r2, x))
        assert err_sq(r1, x) == 2 * horo_radius(r1, x)


def test_ford_circles_never_overlap():
    # rad(C_(a/b)) <= R_(c/d)(a/b) for all reduced pairs with b, d <= 30
    fracs = [F(p, q) for q in range(1, 31) for p in range(0, q + 1)
             if gcd(p, q) == 1]
    for ab in fracs:
        for cd in fracs:
            if ab != cd:
                assert ford_radius(ab) <= horo_radius(cd, ab)


def test_best_one_rationals_examples():
    assert best_one_rationals(SQRT2M1, 20) == [F(1), F(1, 3), F(3, 7), F(7, 17)]
    assert best_one_rationals(SQRT2M1, 2) == [F(1)]
    assert best_one_rationals(SQRT2M1, 0) == []
    with pytest.raises(ValueError):
        best_one_rationals(F(2, 7), 10)
    with pytest.raises(ValueError, match=re.escape("input must lie in (0, 1)")):
        best_one_rationals(QuadIrr(0, 1, 2), 10)


def test_scan_matches_convergents_at_1e7():
    for x in (SQRT2M1, GOLDEN):
        assert best_one_rationals(x, 10 ** 7) == principal_convergents_up_to(x, 10 ** 7)


def test_scan_matches_convergents_at_1e9():
    # the filter jumps from one candidate to the next in O(log qmax) steps,
    # so this takes milliseconds; a scan over every odd b would not
    for x in (SQRT2M1, GOLDEN):
        assert best_one_rationals(x, 10 ** 9) == principal_convergents_up_to(x, 10 ** 9)


@pytest.mark.parametrize("x", [SQRT2M1, GOLDEN, QuadIrr(-316, 1, 99991)])
def test_scan_matches_convergents_at_1e30(x):
    # past b = 2^60 or so a fixed point of qmax.bit_length() + 64 bits let
    # nearly every b through the filter, and the scan did not finish
    assert best_one_rationals(x, 10 ** 30) == principal_convergents_up_to(x, 10 ** 30)


@pytest.mark.parametrize("qmax", [63, 127, 128, 2001, 10 ** 5, 10 ** 9, 10 ** 30])
def test_filter_sends_only_winners_to_the_exact_test(qmax, monkeypatch):
    # a filter that let every b through, or never tightened T, would still
    # be exact; it would show here as exact tests of b that do not win
    calls = []
    sign = approx.sign_linear
    monkeypatch.setattr(approx, "sign_linear", lambda *a: calls.append(a) or sign(*a))
    for x in (SQRT2M1, GOLDEN, QuadIrr(-316, 1, 99991), QuadIrr(-3, 1, 13, 2)):
        calls.clear()
        bests = best_one_rationals(x, qmax)
        # b = 1 is always the first best and needs no sign test
        assert len(calls) + 1 <= len(bests) + 2


QMAX_REJECTED = [
    (1e3, "qmax must be a non-negative int, got 1000.0"),
    ("100", "qmax must be a non-negative int, got '100'"),
    (None, "qmax must be a non-negative int, got None"),
    (-3, "qmax must be a non-negative int, got -3"),
    (-1, "qmax must be a non-negative int, got -1"),
    (F(7), "qmax must be a non-negative int, got Fraction(7, 1)"),
    (2.5, "qmax must be a non-negative int, got 2.5"),
]


@pytest.mark.parametrize("qmax, message", QMAX_REJECTED)
def test_qmax_contract(qmax, message):
    for fn in (best_one_rationals, principal_convergents_up_to, verify_thm1):
        with pytest.raises(ValueError) as info:
            fn(SQRT2M1, qmax)
        assert str(info.value) == message


def test_bool_qmax_is_an_int():
    assert best_one_rationals(SQRT2M1, True) == [F(1)]
    assert best_one_rationals(SQRT2M1, False) == []
    assert verify_thm1(SQRT2M1, True).passed


def test_best_entries_are_one_rationals():
    for x in (SQRT2M1, GOLDEN, frac_sqrt(7)):
        for c in best_one_rationals(x, 500):
            assert c.numerator % 2 == 1 and c.denominator % 2 == 1


def test_principal_convergents_up_to():
    assert principal_convergents_up_to(SQRT2M1, 20) == [F(1), F(1, 3), F(3, 7), F(7, 17)]
    assert principal_convergents_up_to(SQRT2M1, 1) == [F(1)]
    # the 0th convergent 1/1 has denominator 1, past a bound of 0
    assert principal_convergents_up_to(SQRT2M1, 0) == []
    assert verify_thm1(SQRT2M1, 0).passed


@pytest.mark.parametrize("x, message", [(F(5), "input Fraction(5, 1) outside [0, 1]"),
                                        (2.5, "input 2.5 is not exact")])
def test_principal_convergents_check_x_at_every_qmax(x, message):
    for qmax in (0, 1):
        with pytest.raises(ValueError) as err:
            principal_convergents_up_to(x, qmax)
        assert str(err.value).startswith(message)


def test_verify_thm1_small():
    for x in (SQRT2M1, GOLDEN, QuadIrr(-1, 1, 3), frac_sqrt(29)):
        rep = verify_thm1(x, 500)
        assert rep.passed, (rep.oocf_list, rep.brute_list)
        assert rep.first_mismatch is None


@pytest.mark.parametrize("drop, witness", [(2, 2), (-1, 6)])
def test_verify_thm1_witness(monkeypatch, drop, witness):
    # dropping entry 2 of the 7 best approximations shifts the list from
    # index 2 on; dropping the last leaves a prefix of the 7 principals
    best = approx.best_one_rationals

    def best_less_one(x, qmax):
        out = best(x, qmax)
        del out[drop]
        return out
    monkeypatch.setattr(approx, "best_one_rationals", best_less_one)
    rep = verify_thm1(SQRT2M1, 300)
    assert len(rep.oocf_list) == 7 and not rep.passed
    assert rep.first_mismatch == witness
    assert rep.oocf_list[:witness] == rep.brute_list[:witness]


def test_errors_strictly_decrease_along_best_list():
    x = frac_sqrt(23)
    best = best_one_rationals(x, 400)
    errs = [err_sq(c, x) for c in best]
    for e1, e2 in zip(errs, errs[1:]):
        assert e2 < e1


def test_ford_adjacency_of_principal_and_pseudo():
    from itertools import islice

    from oocf.convergents import convergent_stream
    from oocf.expansion import digit_stream
    for t in islice(convergent_stream(digit_stream(SQRT2M1)), 1, 8):
        assert ford_tangent(t.principal, t.pseudo)


def test_keita_examples():
    assert keita_monotonicity(SQRT2M1, 4).passed
    assert keita_monotonicity(F(8, 11), 2).passed
    # all partial quotients equal 1: the chains degenerate but hold
    for level in range(1, 6):
        assert keita_monotonicity(GOLDEN, level).passed


def test_keita_insufficient_digits():
    with pytest.raises(ValueError):
        keita_monotonicity(F(8, 11), 9)
    with pytest.raises(ValueError):
        keita_monotonicity(F(1, 3), 2)
    with pytest.raises(ValueError, match="level must be >= 1"):
        keita_monotonicity(SQRT2M1, 0)


def test_keita_rational_exhausted_level():
    # 8/11 = [0; 1, 2, 1, 2]: at the last level the final error is 0 and
    # the chains still hold
    assert keita_monotonicity(F(8, 11), 4).passed
