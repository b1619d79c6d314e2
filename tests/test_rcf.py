import random
from fractions import Fraction as F
from itertools import islice
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oocf.core import QuadIrr, frac_sqrt, is_one_rational
from oocf.maps import (branch_apply, branch_interval, branch_inverse, eicf_map,
                       oocf_branch_of, oocf_map)
from oocf.expansion import FINITE, PERIODIC, TAIL_2M1, TRUNCATED, expand, digit_stream
from oocf.rcf import (EicfExpansion, RcfExpansion, change_rcf,
                      conjugacy, eicf_best_to_oocf, eicf_convergents,
                      eicf_digit_stream, eicf_expand, intermediate_convergents,
                      intermediate_set, phi_digit, rcf_convergents, rcf_expand,
                      rcf_to_oocf, verify_conjugacy, verify_intermediate)

SQRT2M1 = QuadIrr(-1, 1, 2)
GOLDEN = QuadIrr(-1, 1, 5, 2)


def test_rcf_expand_examples():
    assert rcf_expand(F(2, 7)).digits == (3, 2)
    assert rcf_expand(F(0)).digits == ()
    assert rcf_expand(F(1)).digits == (1,)
    assert rcf_expand(F(8, 11)).digits == (1, 2, 1, 2)
    e = rcf_expand(SQRT2M1, max_digits=6)
    assert e.digits == (2,) * 6 and e.terminator == TRUNCATED


def test_rcf_normalization():
    assert RcfExpansion((2, 1)).digits == (3,)
    assert RcfExpansion((1, 1)).digits == (2,)
    assert RcfExpansion((3, 1, 1)).digits == (3, 2)
    assert RcfExpansion((1,)).digits == (1,)
    assert RcfExpansion((2, 1), TRUNCATED).digits == (2, 1)
    with pytest.raises(ValueError):
        RcfExpansion((0, 2))


def test_rcf_value_and_convergents():
    e = rcf_expand(F(8, 11))
    assert e.value() == F(8, 11)
    assert rcf_convergents(e) == [F(1), F(2, 3), F(3, 4), F(8, 11)]


def test_intermediate_convergents():
    e = rcf_expand(SQRT2M1, max_digits=5)
    # level 2: (p0 + j p1)/(q0 + j q1) = j/(1+2j) for j = 1, 2
    assert intermediate_convergents(e, 2) == [F(1, 3), F(2, 5)]
    assert F(1, 3) in intermediate_set(e)
    with pytest.raises(ValueError):
        intermediate_convergents(e, 9)


def test_change_rcf_cases():
    # (1,1) on [2]: 1/2 -> 2/5 = [2,2]
    assert change_rcf((1, 1), RcfExpansion((2,))).digits == (2, 2)
    # (2,-1) on [3]: 1/3 -> 1/5 = [5]
    assert change_rcf((2, -1), RcfExpansion((3,))).digits == (5,)
    # (3,1) on [1,1] = [2]: 1/2 -> 8/11
    assert change_rcf((3, 1), RcfExpansion((1, 1))).digits == (1, 2, 1, 2)
    # (3,-1) on [3]: 1/3 -> 5/9 = [1,1,4]
    assert change_rcf((3, -1), RcfExpansion((3,))).digits == (1, 1, 4)
    # empty input: x = 0
    assert change_rcf((2, -1), RcfExpansion(())).digits == ()
    assert change_rcf((3, -1), RcfExpansion(())).digits == (2,)
    assert change_rcf((1, 1), RcfExpansion(())).digits == (2,)
    assert change_rcf((4, 1), RcfExpansion(())).digits == (1, 4)
    # empty truncated input: x anywhere in (0, 1), so only the digits that
    # every point of f_(a,-1)((0, 1)) shares
    for a, want in ((2, ()), (3, (1, 1)), (4, (1, 2)), (5, (1, 3)),
                    (6, (1, 4))):
        out = change_rcf((a, -1), RcfExpansion((), TRUNCATED))
        assert out.digits == want and out.terminator == TRUNCATED


def test_change_rcf_matches_branch_inverse():
    rng = random.Random(71)
    for _ in range(400):
        q = rng.randint(2, 60)
        p = rng.randint(1, q - 1)
        x = F(p, q)
        a = rng.randint(1, 7)
        e = 1 if a == 1 else rng.choice((1, -1))
        out = change_rcf((a, e), rcf_expand(x))
        assert out.value() == branch_inverse((a, e), x)


def test_rcf_to_oocf_examples():
    assert rcf_to_oocf(RcfExpansion((3, 2))).digits == ((2, -1), (4, -1))
    assert rcf_to_oocf(RcfExpansion((3, 2))).terminator == TAIL_2M1

    out = rcf_to_oocf(RcfExpansion((2, 1, 2)))        # 3/8
    assert out.digits == ((1, 1), (4, -1)) and out.terminator == TAIL_2M1

    out = rcf_to_oocf(RcfExpansion((1, 2, 1, 2)))     # 8/11
    assert out.digits == ((3, 1), (3, -1)) and out.terminator == TAIL_2M1

    # two-expansion endpoints take the canonical digit
    out = rcf_to_oocf(RcfExpansion((2,)))             # 1/2
    assert out.digits == ((3, -1),) and out.terminator == TAIL_2M1
    out = rcf_to_oocf(RcfExpansion((3,)))             # 1/3
    assert out.digits == ((1, 1),) and out.terminator == FINITE
    out = rcf_to_oocf(RcfExpansion((1, 4)))           # 4/5
    assert out.digits == ((6, -1),) and out.terminator == TAIL_2M1
    out = rcf_to_oocf(RcfExpansion((1, 1, 2)))        # 3/5 = (2k-1)/(2k+1), k=2
    assert out.digits == ((2, 1),) and out.terminator == FINITE

    assert rcf_to_oocf(RcfExpansion(())).terminator == TAIL_2M1
    assert rcf_to_oocf(RcfExpansion((1,))).terminator == FINITE


def test_rcf_to_oocf_truncated():
    # a continuing stream [2, ...] keeps the state inside the (1,1) branch
    out = rcf_to_oocf(RcfExpansion((2, 2), TRUNCATED))
    assert out.digits == ((1, 1), (1, 1)) and out.terminator == TRUNCATED
    # every longer expansion [1, 2, 2, ...] lies in (7/10, 5/7), inside the
    # (4,-1) branch: the tail [2, ...] is below 1/2 once a digit follows
    out = rcf_to_oocf(RcfExpansion((1, 2, 2), TRUNCATED))
    assert out.digits == ((4, -1),) and out.terminator == TRUNCATED
    out = rcf_to_oocf(RcfExpansion((1, 2, 2, 3), TRUNCATED))
    assert out.digits == ((4, -1),) and out.terminator == TRUNCATED
    out = rcf_to_oocf(RcfExpansion((1, 2, 1), TRUNCATED))
    assert out.digits == ((3, 1),) and out.terminator == TRUNCATED
    out = rcf_to_oocf(RcfExpansion((7,), TRUNCATED))
    assert out.digits == ((2, -1), (2, -1), (2, -1)) and out.terminator == TRUNCATED


def _cf(digits):
    v = F(0)
    for d in reversed(digits):
        v = 1 / (d + v)
    return v


def _decided_digits(prefix):
    """Odd-odd digits shared by every x whose RCF expansion strictly extends
    ``prefix``: those x fill the open interval between [0; prefix] and
    [0; prefix with its last digit raised by one], which is walked through
    the branches until it straddles two of them."""
    lo, hi = sorted((_cf(prefix), _cf(prefix[:-1] + (prefix[-1] + 1,)) if prefix else F(1)))
    out = []
    for _ in range(10 ** 4):
        d = oocf_branch_of(lo)  # points just right of lo lie in this half-open cell
        if hi > branch_interval(*d)[1]:
            return tuple(out)
        out.append(d)
        lo, hi = sorted((branch_apply(d, lo), branch_apply(d, hi)))
    raise AssertionError("interval walk did not stop")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 30), max_size=6), st.lists(st.integers(1, 30), min_size=1, max_size=3))
def test_rcf_to_oocf_truncated_emits_every_decided_digit(prefix, more):
    prefix = tuple(prefix)
    out = rcf_to_oocf(RcfExpansion(prefix, TRUNCATED))
    assert out.terminator == TRUNCATED
    assert out.digits == _decided_digits(prefix)
    # an exact extension whose last digit is >= 2 is not renormalized away
    ext = rcf_to_oocf(RcfExpansion(prefix + tuple(more[:-1]) + (max(more[-1], 2),)))
    assert ext.digits[:len(out.digits)] == out.digits
    assert len(ext.digits) > len(out.digits)


def test_rcf_to_oocf_matches_expand_small():
    for q in range(2, 61):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            x = F(p, q)
            assert rcf_to_oocf(rcf_expand(x)) == expand(x), x


def test_rcf_to_oocf_matches_expand_quadratic():
    for x in (SQRT2M1, GOLDEN, frac_sqrt(23)):
        out = rcf_to_oocf(rcf_expand(x, max_digits=120))
        want = list(islice(digit_stream(x), 25))
        assert list(out.digits[:25]) == want


# ---------------------------------------------------------------------------
# even-integer side

def test_eicf_expand_examples():
    e = eicf_expand(SQRT2M1)
    assert e.terminator == PERIODIC and e.digits == ((2, 1),)

    e = eicf_expand(F(1, 2))
    assert e.digits == ((2, 1),) and e.terminator == FINITE

    e = eicf_expand(F(2, 7))
    assert e.digits == ((4, -1), (2, 1)) and e.terminator == FINITE

    e = eicf_expand(F(1))
    assert e.digits == () and e.terminator == TAIL_2M1

    e = eicf_expand(F(0))
    assert e.digits == () and e.terminator == FINITE


def test_eicf_digit_validation():
    with pytest.raises(ValueError):
        EicfExpansion(((3, 1),), FINITE)
    with pytest.raises(ValueError):
        EicfExpansion(((2, 0),), FINITE)


def test_eicf_convergents():
    assert eicf_convergents([(2, 1), (2, 1)]) == [F(1, 2), F(2, 5)]
    assert eicf_convergents([(4, -1), (2, 1)]) == [F(1, 4), F(2, 7)]


def test_eicf_convergents_are_inf_rationals():
    rng = random.Random(73)
    for _ in range(100):
        digits = []
        for _ in range(rng.randint(1, 12)):
            digits.append((2 * rng.randint(1, 5), rng.choice((1, -1))))
        for c in eicf_convergents(digits):
            assert not is_one_rational(c)


def test_phi_digit():
    assert phi_digit((2, -1)) == (2, -1)
    assert phi_digit((1, 1)) == (2, 1)
    assert phi_digit((4, -1)) == (6, -1)
    assert phi_digit((3, 1)) == (6, 1)


def test_conjugacy_map():
    assert conjugacy(F(1, 3)) == F(1, 2)
    assert conjugacy(conjugacy(F(3, 8))) == F(3, 8)
    assert conjugacy(SQRT2M1) == SQRT2M1       # fixed point of f
    for x in (F(2, 7), F(5, 9), SQRT2M1, GOLDEN):
        assert conjugacy(oocf_map(x)) == eicf_map(conjugacy(x))


def test_digit_correspondence_examples():
    # x = 1/2: odd-odd (3,-1) tail; f(1/2) = 1/3: even-integer (4,-1) then 1
    oo = expand(F(1, 2))
    ee = eicf_expand(F(1, 3))
    assert [phi_digit(d) for d in oo.digits] == list(ee.digits)
    assert ee.terminator == TAIL_2M1

    rep = verify_conjugacy(F(2, 7), 20)
    assert rep.passed
    rep = verify_conjugacy(SQRT2M1, 15)
    assert rep.passed
    rep = verify_conjugacy(GOLDEN, 15)
    assert rep.passed


def test_eicf_principal_correspondence():
    # p^E_n(f(x))/q^E_n(f(x)) = f(p_n(x)/q_n(x)) for x = sqrt(2)-1
    from oocf.convergents import convergent_stream
    y = conjugacy(SQRT2M1)
    ee_digits = list(islice(eicf_digit_stream(y), 10))
    eicf_pq = eicf_convergents(ee_digits)
    triples = list(islice(convergent_stream(digit_stream(SQRT2M1)), 1, 11))
    for t, c in zip(triples, eicf_pq):
        assert conjugacy(t.principal) == c


def test_eicf_best_to_oocf():
    for x in (SQRT2M1, GOLDEN):
        rep = eicf_best_to_oocf(x, 8)
        assert rep.passed
    with pytest.raises(ValueError):
        eicf_best_to_oocf(F(1, 3), 5)


def test_verify_intermediate():
    assert verify_intermediate(SQRT2M1, 6).passed
    assert verify_intermediate(F(8, 11), 4).passed
    assert verify_intermediate(F(1, 3), 3).passed


def test_verify_intermediate_rejects_zero():
    with pytest.raises(ValueError, match="x = 0"):
        verify_intermediate(F(0), 3)
    assert verify_intermediate(F(1), 3).passed


def test_verify_conjugacy_at_fixed_points():
    for x in (F(0), F(1)):
        rep = verify_conjugacy(x, 5)
        assert rep.passed and rep.steps == 5
