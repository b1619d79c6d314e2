import math
import random
import re
from decimal import Decimal
from fractions import Fraction as F
from math import gcd

import pytest

from oocf import maps
from oocf.approx import keita_monotonicity
from oocf.convergents import SEED, betweenness_report, convergence_gap
from oocf.core import Mat2, QuadIrr, classify
from oocf.expansion import all_expansions, digit_stream, expand
from oocf.maps import (Interval, branch_apply, branch_interval,
                       branch_inverse, digit_matrix, eicf_branch_of, eicf_map,
                       eicf_step, farey, gauss, gauss_step, in_e1, in_e2,
                       jump_transform, measure_check, oocf_branch_of, oocf_map,
                       oocf_step, romik)
from oocf.rcf import eicf_expand, verify_conjugacy


def _reduced_fractions(qmax, include_ends=False):
    if include_ends:
        yield F(0)
        yield F(1)
    for q in range(2, qmax + 1):
        for p in range(1, q):
            if gcd(p, q) == 1:
                yield F(p, q)


def test_map_values():
    assert romik(F(1, 3)) == 1
    assert romik(F(1, 2)) == 0
    assert romik(F(7, 10)) == F(4, 7)
    assert gauss(F(0)) == 0
    assert gauss(F(2, 7)) == F(1, 2)
    assert farey(F(1, 3)) == F(1, 2)
    assert farey(F(2, 3)) == F(1, 2)
    assert oocf_map(F(7, 10)) == F(1, 2)
    assert oocf_map(F(0)) == 0
    assert oocf_map(F(1)) == 1
    assert eicf_map(F(1)) == 1
    assert eicf_map(F(2, 7)) == F(1, 2)


def test_steps_pair_digit_and_image():
    for x in list(_reduced_fractions(12)) + [QuadIrr(-1, 1, 2), QuadIrr(-3, 1, 13, 2)]:
        assert oocf_step(x) == (oocf_branch_of(x), oocf_map(x))
        assert eicf_step(x) == (eicf_branch_of(x), eicf_map(x))
        d, g = gauss_step(x)
        assert g == gauss(x) and 1 / x == d + g and d >= 1


def test_int_inputs_give_exact_fractions():
    for value, expected in ((branch_inverse((2, 1), 0), F(2, 3)),
                            (oocf_map(0), F(0)), (farey(1), F(0)),
                            (gauss(1), F(0)), (romik(1), F(1)),
                            (eicf_map(1), F(1)), (eicf_step(1)[1], F(1)),
                            (jump_transform(in_e1, 1), F(1)), (jump_transform(in_e2, 0), F(0)),
                            (digit_matrix(2, 1).apply(0), F(2, 3))):
        assert type(value) is F and value == expected


def test_oocf_fixed_point_sqrt2():
    x = QuadIrr(-1, 1, 2)      # root of x^2 + 2x - 1 in (0, 1)
    assert oocf_map(x) == x
    assert eicf_map(x) == x    # conjugacy fixes this point too


def test_domain_errors():
    for fn in (romik, gauss, farey, oocf_map, eicf_map):
        with pytest.raises(ValueError):
            fn(F(3, 2))
        with pytest.raises(ValueError):
            fn(F(-1, 2))
        with pytest.raises(ValueError, match="is not exact"):
            fn(0.5)


INEXACT_CALLS = [
    (expand, (0.1,)),
    (eicf_expand, (0.5,)),       # gave the digits (2,-1), (12009599006321324,-1)
    (verify_conjugacy, (0.1, 5)),  # reported map_commutes=False
    (keita_monotonicity, (0.41, 2)),
    (all_expansions, (0.25,)),
    (expand, (Decimal("0.5"),)),
    (lambda x: next(digit_stream(x)), (0.5,)),
    (convergence_gap, (0.5, SEED)),
    (betweenness_report, (0.5, SEED)),
]


@pytest.mark.parametrize("fn, args", INEXACT_CALLS)
def test_only_exact_inputs(fn, args):
    with pytest.raises(ValueError, match="is not exact"):
        fn(*args)


def test_branch_of():
    assert oocf_branch_of(F(7, 10)) == (4, -1)
    assert oocf_branch_of(F(3, 8)) == (1, 1)
    assert oocf_branch_of(F(1, 3)) == (1, 1)     # tie at (2k-1)/(2k+1)
    assert oocf_branch_of(F(1, 2)) == (3, -1)    # tie at k/(k+1)
    assert oocf_branch_of(F(0)) == (2, -1)
    with pytest.raises(ValueError):
        oocf_branch_of(F(1))
    with pytest.raises(ValueError, match="x = 0 carries no even-integer digit"):
        eicf_branch_of(F(0))


def test_branch_tiling():
    """B(k+1,-1) and B(k,1) for k <= 100 tile [0, 100/101] with
    intersections only at shared endpoints."""
    prev_hi = F(0)
    for k in range(1, 101):
        lo1, hi1 = branch_interval(k + 1, -1)
        lo2, hi2 = branch_interval(k, 1)
        assert lo1 == prev_hi
        assert hi1 == lo2 == F(2 * k - 1, 2 * k + 1)
        assert lo1 < hi1 < hi2
        prev_hi = hi2
    assert prev_hi == F(100, 101)


def test_branch_inverse_examples():
    assert branch_inverse((1, 1), F(1)) == F(1, 3)
    assert branch_inverse((2, -1), F(0)) == 0
    with pytest.raises(ValueError):
        branch_inverse((1, -1), F(0))


def test_branch_inverse_matches_matrix():
    assert digit_matrix(1, 1).__class__.__name__ == "Mat2"
    assert tuple(digit_matrix(1, 1)) == (0, 1, 1, 2)
    rng = random.Random(31)
    for _ in range(120):
        a = rng.randint(1, 7)
        e = 1 if a == 1 else rng.choice((1, -1))
        t = F(rng.randint(0, 40), 40)
        assert branch_inverse((a, e), t) == digit_matrix(a, e).apply(t)


def test_branch_inverse_round_trip():
    rng = random.Random(37)
    for _ in range(50):
        a = rng.randint(1, 9)
        e = 1 if a == 1 else rng.choice((1, -1))
        t = F(rng.randint(0, 50), rng.randint(51, 99))
        assert oocf_map(branch_inverse((a, e), t)) == t


def test_branch_bijection_onto_unit():
    # each branch maps its interval onto [0,1): inverse round-trips and
    # the image of the branch interval endpoints reach 0 and 1
    for digit in [(2, -1), (1, 1), (3, -1), (2, 1), (5, -1), (4, 1)]:
        lo, hi = branch_interval(*digit)
        a, e = digit
        if e == -1:
            assert branch_apply(digit, lo) == 0
            assert branch_apply(digit, hi) == 1
        else:
            assert branch_apply(digit, lo) == 1
            assert branch_apply(digit, hi) == 0


def test_jump_equivalence_examples():
    assert jump_transform(in_e2, F(7, 10)) == F(1, 2) == oocf_map(F(7, 10))
    assert jump_transform(in_e1, F(2, 7)) == eicf_map(F(2, 7))
    assert jump_transform(in_e2, F(0)) == 0
    # once refused after a million Romik steps
    assert jump_transform(in_e1, F(1, 3 * 10 ** 6)) == 0 == eicf_map(F(1, 3 * 10 ** 6))
    assert jump_transform(in_e2, 1 - F(1, 3 * 10 ** 6)) == 0 == oocf_map(1 - F(1, 3 * 10 ** 6))


def test_jump_equivalence_small():
    for x in _reduced_fractions(60, include_ends=True):
        assert oocf_map(x) == jump_transform(in_e2, x)
        assert eicf_map(x) == jump_transform(in_e1, x)


def test_jump_refuses_other_hitting_sets():
    # the closed form holds for E1 and E2 alone
    for hitting_set in (lambda y: False, romik, in_e1.__call__):
        with pytest.raises(ValueError, match="neither in_e1 nor in_e2"):
            jump_transform(hitting_set, F(1, 3))


def test_denominator_descent_and_parity():
    """romik never increases the reduced denominator, the odd-odd map
    strictly decreases it, and the odd-odd map preserves parity class."""
    for x in _reduced_fractions(200):
        rx = romik(x)
        assert rx.denominator <= x.denominator
        tx = oocf_map(x)
        assert tx.denominator < x.denominator
        assert classify(tx) == classify(x)


def test_measure_check():
    r = measure_check(Interval(F(1, 2), F(1)), 2000)
    assert r.passed and abs(r.rhs - math.log(2)) < 1e-12
    assert r.tol == math.log1p(1 / 2000) and r.abs_diff == -math.log(r.ratio)
    r = measure_check(Interval(F(1, 3), F(2, 3)), 2000)
    assert r.passed
    r = measure_check(Interval(F(1, 4), F(1, 4)))
    assert r.lhs == r.rhs == r.abs_diff == 0.0 and r.ratio == 1 and r.passed
    for interval, message in ((F(0), F(1, 2)), "must avoid 0"), ((F(1, 2), F(3, 2)), "(0, 1]"):
        with pytest.raises(ValueError, match=re.escape(message)):
            measure_check(Interval(*interval))
    with pytest.raises(ValueError, match="branch_cutoff must be >= 1"):
        measure_check(Interval(F(1, 2), F(1)), 0)
    with pytest.raises(ValueError, match="interval endpoints out of order"):
        Interval(F(1, 2), F(1, 3))


@pytest.mark.parametrize("end", [0.1, Decimal("0.1"), "1/3", QuadIrr(-1, 1, 2), None])
def test_interval_refuses_inexact_endpoints(end):
    # as every other entry point of maps does: 0.1 would be read as its
    # binary fraction and a string parsed
    for lo, hi in ((end, 1), (F(1, 10), end)):
        with pytest.raises(ValueError, match="is not exact: pass an int or Fraction"):
            Interval(lo, hi)
    assert Interval(0, 1) == Interval(F(0), F(1)) and type(Interval(0, 1).hi) is F


def test_measure_tail_matters():
    # on [1/2, 1] the branch product telescopes to (3K+1)/(3K+2): the
    # neglected branches carry the mass ln((3K+2)/(3K+1)), of order 1/K,
    # inside the certificate's ln((K+1)/K)
    for K in range(1, 51):
        r = measure_check(Interval(F(1, 2), F(1)), K)
        assert r.ratio == F(3 * K + 1, 3 * K + 2) and r.passed


def _drop_k1(real):
    return lambda digit, lo, hi: F(1) if digit[1] == 1 else real(digit, lo, hi)


def _invert_k1(real):
    return lambda digit, lo, hi: 1 / real(digit, lo, hi) if digit[1] == 1 else real(digit, lo, hi)


@pytest.mark.parametrize("interval", [(F(1, 2), F(1)), (F(1, 7), F(5, 11))])
@pytest.mark.parametrize("mutant", ["drop (k,1)", "d = a+eps+1", "invert (k,1)"])
def test_measure_mutants_fail(monkeypatch, interval, mutant):
    # a check that cannot fail checks nothing: each mutant of the branch
    # product puts R_K outside [K/(K+1), 1] (on these intervals at every K
    # from 3 to 400 and at 2000; at K = 1 the bound 1/2 is too loose)
    if mutant == "drop (k,1)":
        monkeypatch.setattr(maps, "_image_ratio", _drop_k1(maps._image_ratio))
    elif mutant == "invert (k,1)":
        monkeypatch.setattr(maps, "_image_ratio", _invert_k1(maps._image_ratio))
    else:
        monkeypatch.setattr(maps, "digit_matrix",
                            lambda a, eps: Mat2(a - 1, a + eps - 1, a, a + eps + 1))
    assert not measure_check(Interval(*interval), 2000).passed
