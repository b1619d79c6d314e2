"""The orbit-driver expansions against the hand-written loops they replaced
(``legacy_loops``): same digits, same terminator, same period start, or the
same exception, on rationals near the branch endpoints, 0, 1, huge
integers and quadratic irrationals with radicands up to 10^12.  Likewise
the odd-odd branches read off the digit matrix against the hand-written
branch formulas, and the periodic fixed point read off the period matrix
against the one chosen by walking the orbit.  The integer-state odd-odd
steps, which take a run of (2,-1) digits at once, are checked run by run
against the value-level map one digit at a time, and the driver's loop
and the bare-int digit-matrix product, which folds such runs, against
the per-digit driver and the ``Mat2`` product they replaced: budgets and caps inside runs, periods entered mid-run, and
long runs next to 1/(2n+1) and in sqrt(n^2 + j) - n.  The period start
that ``expand`` and ``detect_period`` find by repetition is checked
against the odd-odd analogue of Galois' theorem, a rule on each state
alone, and on periods that open and close with (2,-1), entered at a run
end, whose first state never recurs at a run end."""

from fractions import Fraction as F
from itertools import islice
from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import legacy_loops as old
from oocf import expansion
from oocf.core import QuadIrr, is_square, parse_real
from oocf.expansion import (FINITE, PERIODIC, TAIL_2M1, OocfDigit, OocfExpansion, _digit_product,
                            _oocf_orbit, _periodic_tail_value, detect_period,
                            digit_stream, evaluate, expand, orbit)
from oocf.maps import (_unit, branch_apply, branch_interval, branch_inverse,
                       eicf_step, gauss_step, oocf_step, oocf_surd_step)
from oocf.rcf import _gauss_run, eicf_digit_stream, eicf_expand, rcf_digit_stream

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def endpoint_rationals(draw):
    """Rationals at or next to the branch endpoints (2k-1)/(2k+1) and
    k/(k+1), small or huge k, and at or next to 0 and 1."""
    k = draw(st.one_of(st.integers(1, 50), st.integers(1, 10 ** 40)))
    num, den = draw(st.sampled_from([(2 * k - 1, 2 * k + 1), (k, k + 1), (0, 1), (1, 1)]))
    shift = draw(st.sampled_from([0, 0, -1, 1]))
    scale = draw(st.one_of(st.just(1), st.integers(2, 10 ** 30)))
    x = F(num * scale + shift, den * scale)
    return min(max(x, F(0)), F(1))


huge_rationals = st.one_of(
    endpoint_rationals(),
    st.builds(lambda q, r: F(r % (q + 1), q),
              st.integers(1, 10 ** 40), st.integers(0, 10 ** 40)))
small_rationals = st.builds(lambda q, r: F(r % (q + 1), q),
                            st.integers(1, 500), st.integers(0, 500))


def _quad_in_unit(d, s, q, r):
    """(P + s*sqrt(d))/q with the r-th integer P that puts it in (0, 1)."""
    if isqrt(d) ** 2 == d:
        d += 1
    floor_neg = isqrt(s * s * d) if s < 0 else -isqrt(s * s * d) - 1  # floor(-s*sqrt(d))
    return QuadIrr(floor_neg + 1 + r % q, s, d, q)


def quadratics(dmax, qmax):
    return st.builds(_quad_in_unit, st.integers(2, dmax),
                     st.sampled_from([-3, -2, -1, 1, 2, 3]),
                     st.integers(1, qmax), st.integers(0, qmax - 1))


# negative and |s| > 1 coefficients of sqrt(d), denominators up to 10^6
wide_quadratics = st.builds(_quad_in_unit,
                            st.one_of(st.integers(2, 300), st.integers(2, 10 ** 12)),
                            st.sampled_from([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]),
                            st.integers(1, 10 ** 6), st.integers(0, 10 ** 6))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _same_streams(x, n):
    for new, legacy in ((digit_stream, old.digit_stream),
                        (eicf_digit_stream, old.eicf_digit_stream),
                        (rcf_digit_stream, old.rcf_digit_stream)):
        assert list(islice(new(x), n)) == list(islice(legacy(x), n))


def _same_expansions(x, budget, cap=10 ** 5):
    assert expand(x, budget) == old.expand(x, budget)
    assert eicf_expand(x, budget) == old.eicf_expand(x, budget)
    assert _outcome(detect_period, x, cap) == _outcome(old.detect_period, x, cap)


# Orbits next to 0 (odd-odd map) and next to 1 (even-integer map) crawl, one
# digit per step, so huge rationals and large radicands run under a budget.

@SETTINGS
@given(huge_rationals, st.integers(0, 300))
def test_huge_rationals_match(x, budget):
    _same_expansions(x, budget)
    _same_streams(x, budget)


@SETTINGS
@given(small_rationals)
def test_small_rationals_match(x):
    _same_expansions(x, None)
    _same_streams(x, None)


@SETTINGS
@given(quadratics(300, 12), st.one_of(st.none(), st.integers(0, 60)), st.integers(-2, 80))
def test_small_radicands_match(x, budget, cap):
    _same_expansions(x, budget, cap)
    _same_streams(x, 80)


@SETTINGS
@given(quadratics(10 ** 12, 40), st.integers(0, 60))
def test_large_radicands_match(x, budget):
    _same_expansions(x, budget, budget)
    _same_streams(x, budget)


# ---------------------------------------------------------------------------
# Integer-state odd-odd steps against the value-level map

STEPS = 30
WALK = 1000  # the longest run walked one oocf_step at a time
TWO_MINUS = (2, -1)


def _check_run(digit, count, value, nxt_value):
    """One integer step, (digit, count) from ``value`` to ``nxt_value``,
    against ``count`` applications of oocf_step: each gives ``digit``, the
    last lands on ``nxt_value``, and a (2,-1) run is maximal (its end has
    another digit); any other digit comes one at a time.  A run longer
    than WALK is walked for its first digits and then entered at its last
    digit by the closed form 1/(1/x - 2j) of the j-th (2,-1) iterate; the
    j-th iterate increases with j, so a last one below 1/3 puts every
    earlier one there too, on the same branch."""
    assert count >= 1 and (count == 1 or digit == TWO_MINUS)
    y = value
    for j in range(min(count, WALK)):
        d, y = oocf_step(y)
        assert d == digit
    if count > WALK:
        assert 1 / y == 1 / value - 2 * WALK
        d, y = oocf_step(1 / (1 / value - 2 * (count - 1)))
        assert d == digit
    assert y == nxt_value
    if digit == TWO_MINUS and y not in (0, 1):
        assert oocf_step(y)[0] != TWO_MINUS


@SETTINGS
@given(huge_rationals)
def test_rational_steps_match_map(x):
    step, state, ends = _oocf_orbit(x)
    assert F(*state) == x
    for _ in range(STEPS):
        if state in ends:
            break
        digit, count, nxt = step(state)
        assert gcd(*nxt) == 1 and 0 <= nxt[0] <= nxt[1]
        _check_run(digit, count, F(*state), F(*nxt))
        state = nxt


def _walk_surd(step, state, big_d, value):
    """STEPS integer steps over big_d, each run against oocf_step on the
    value of the state."""
    for _ in range(STEPS):
        p, q = state
        assert (big_d - p * p) % q == 0
        digit, count, nxt = step(state)
        _check_run(digit, count, value(state), value(nxt))
        state = nxt


@SETTINGS
@given(wide_quadratics)
def test_surd_steps_match_map(x):
    step, state, ends = _oocf_orbit(x)

    def value(st):
        # (P + sqrt(D))/Q with sqrt(D) = |s|*q*sqrt(d)
        return QuadIrr(st[0], abs(x.s) * x.q, x.d, st[1])

    assert not ends and value(state) == x
    _walk_surd(step, state, x.s * x.s * x.d * x.q * x.q, value)


def _x_state(big_d, p1, q1):
    """State of x = 1 - 1/y for the state (p1, q1) of y over big_d."""
    qa = (big_d - p1 * p1) // q1
    return -p1 - qa, -qa


@st.composite
def floor_edge_states(draw):
    """(D, state of x) where a floor in the step falls just below an
    integer over a negative Q, the one case where the floor of
    (P + sqrt(D))/Q needs its [Q < 0] correction (random states meet it
    about once in 200).  D = r^2 + j, and either y = 1/(1-x) is
    (-r - u*c + sqrt(D))/(-c), just below the integer u, with c | j; or
    f = y - floor(y) is (-e - r + sqrt(D))/(-2e), just below 1/2, with
    j = e^2 + 2*e*w <= r.  Both choices make Q divide D - P^2."""
    r = draw(st.integers(1, 10 ** 6))
    if draw(st.booleans()):
        c = draw(st.integers(1, 2 * r))
        big_d = r * r + c * draw(st.integers(1, 2 * r // c))
        u = draw(st.integers(2, 10 ** 6))
        return big_d, _x_state(big_d, -r - u * c, -c)
    e = draw(st.integers(1, isqrt(r)))
    big_d = r * r + e * e + 2 * e * draw(st.integers(0, (r - e * e) // (2 * e)))
    k = draw(st.integers(1, 10 ** 6))
    return big_d, _x_state(big_d, -e - r - 2 * e * k, -2 * e)


@SETTINGS
@given(floor_edge_states())
def test_surd_steps_at_floor_edges_match_map(case):
    big_d, state = case
    _walk_surd(oocf_surd_step(big_d), state, big_d,
               lambda st: QuadIrr(st[0], 1, big_d, st[1]))


@SETTINGS
@given(st.one_of(huge_rationals, wide_quadratics), st.sampled_from([0, 1]))
def test_budgets_zero_and_one_match(x, budget):
    assert expand(x, budget) == old.expand(x, budget)
    assert list(islice(digit_stream(x), budget)) == list(islice(old.digit_stream(x), budget))


@SETTINGS
@given(quadratics(3000, 30), st.integers(-2, 1))
def test_period_cap_edge_matches(x, shift):
    pre, per = detect_period(x)
    cap = pre + per + shift
    assert _outcome(detect_period, x, cap) == _outcome(old.detect_period, x, cap)
    assert expand(x, cap) == old.expand(x, cap)


@SETTINGS
@given(quadratics(3000, 30))
def test_period_starts_where_the_conjugate_turns_negative(x):
    """For a quadratic x in (0, 1), the state before digit i has a negative
    conjugate exactly when i >= period_start.

    Each branch acts on the conjugate by the adjugate of its digit matrix
    [[k-1, k+e-1], [k, k+e]], t -> ((k+e)t - (k+e-1))/(k - 1 - kt), which
    maps (-inf, 0) into itself: once a state's conjugate is negative, so is
    every later one.  A purely periodic tail z = M z, M the period matrix,
    is a root of c z^2 + (d - a) z - b, so z z' = -b/c < 0 and z' < 0.  The
    sets where the digit matrices send t < 0 below 0 tile (-inf, 0) without
    overlap: (1,1) on (-inf, -2), (k,1) on (-k/(k-1), -(k+1)/k) and
    (k+1,-1) on (-k/(k+1), -(k-1)/k).  So if the state y before the period
    start had y' < 0, its digit d would be the one digit whose matrix
    sends the start's negative conjugate below 0, the period's last digit,
    and y = M_d(start) would be the period's last state: the period would
    start one digit earlier."""
    start, length = detect_period(x)
    assert expand(x).period_start == start
    negative, z = [], x
    for _ in range(start + 2 * length):
        negative.append(z.conjugate() < 0)
        z = oocf_step(z)[1]
    assert negative == [i >= start for i in range(start + 2 * length)]


@pytest.mark.parametrize("text", ["(1402-1*sqrt(328))/1674", "(-2+1*sqrt(328))/54",
                                  "(3290+1*sqrt(15380))/4940"])
def test_periods_that_wrap_a_run_match(text):
    """The period opens and closes with (2,-1), so its last and first
    digits form one run, and the orbit enters it at a run end: the state at
    the period start, the first with a negative conjugate, never recurs at
    a run end.  A cycle test that waits for that state to recur would miss
    the period; the end of the first run that starts at such a state
    recurs."""
    x = parse_real(text)
    e = expand(x)
    assert e.period[0] == e.period[-1] == TWO_MINUS
    assert e.period_start == 0 or e.digits[e.period_start - 1] != TWO_MINUS
    assert (e.period_start, len(e.period)) == detect_period(x)
    _same_expansions(x, None)


# ---------------------------------------------------------------------------
# Branches and periodic fixed points

def _legal(a, eps):
    return (a, 1 if a == 1 else eps)


huge_digits = st.builds(_legal, st.one_of(st.integers(1, 50), st.integers(1, 10 ** 40)),
                        st.sampled_from([1, -1]))
small_digits = st.builds(_legal, st.one_of(st.integers(1, 8), st.integers(1, 10 ** 6)),
                         st.sampled_from([1, -1]))


@st.composite
def digit_and_point(draw):
    """A legal digit and a point: 0, 1, an endpoint of the digit's branch
    interval or a neighbour of one, a huge rational, or a quadratic."""
    digit = draw(huge_digits)
    base = draw(st.sampled_from([F(0), F(1), *old.branch_interval(*digit)]))
    shift = draw(st.sampled_from([0, -1, 1])) * F(1, draw(st.integers(2, 10 ** 45)))
    near = min(max(base + shift, F(0)), F(1))
    x = draw(st.one_of(st.just(near), huge_rationals, quadratics(10 ** 12, 40)))
    return digit, x


def _result(fn, *args):
    try:
        v = fn(*args)
    except (ValueError, ZeroDivisionError):  # a pole, or a point outside [0, 1]
        return "undefined"
    return type(v), repr(v)


@SETTINGS
@given(digit_and_point())
def test_branches_match_formulas(case):
    digit, x = case
    assert _result(branch_apply, digit, x) == _result(old.branch_apply, digit, x)
    assert _result(branch_inverse, digit, x) == _result(old.branch_inverse, digit, x)
    assert _result(branch_interval, *digit) == _result(old.branch_interval, *digit)


def _fixed_points_in_unit(m):
    """Every root in [0, 1] of c z^2 + (d - a) z - b = 0, computed apart."""
    qa, qb = m.c, m.d - m.a
    disc0 = qb * qb + 4 * qa * m.b
    if is_square(disc0):
        r = isqrt(disc0)
        roots = {F(-qb + r, 2 * qa), F(-qb - r, 2 * qa)}
    else:
        roots = {QuadIrr(-qb, 1, disc0, 2 * qa), QuadIrr(-qb, -1, disc0, 2 * qa)}
    return [z for z in roots if 0 <= z <= 1]


period_words = st.lists(small_digits, min_size=1, max_size=6)


@SETTINGS
@given(period_words)
def test_period_matrix_has_one_fixed_point_in_unit(word):
    m = _digit_product(word)
    inside = _fixed_points_in_unit(m)
    assert len(inside) == 1
    z = _periodic_tail_value(word, None)
    assert z == inside[0] and m.apply(z) == z


@SETTINGS
@given(period_words, st.lists(small_digits, max_size=3),
       st.sampled_from(["none", "period", "other"]), st.integers(1, 3),
       st.integers(2, 10 ** 12))
def test_evaluate_matches_legacy(word, pre, disc_kind, s, other):
    e = _outcome(OocfExpansion, tuple(pre + word), PERIODIC, len(pre))
    assume(isinstance(e, OocfExpansion))  # the period word must be primitive
    m = _digit_product(word)
    disc0 = (m.d - m.a) ** 2 + 4 * m.c * m.b
    disc = {"none": None, "period": disc0 * s * s, "other": other}[disc_kind]
    assert _result(evaluate, e, disc) == _result(old.evaluate, e, disc)


# ---------------------------------------------------------------------------
# The orbit driver's run loop against the per-digit loop it replaced

def _one(step):
    """A one-digit map step in the driver's form: a run of one digit."""
    def run(state):
        d, nxt = step(state)
        return d, 1, nxt
    return run


def _orbits(x):
    """Pairs of (step, state, ends), for the driver and for the old loop,
    of every orbit the driver runs from x: odd-odd, Gauss and
    even-integer.  The old loop steps the odd-odd map one digit at a time
    on values.  A quadratic's Gauss orbit runs without ends, so it stops
    at its period like the other two."""
    u = _unit(x)
    irrational = isinstance(u, QuadIrr)
    oocf_ends = {} if irrational else {0: TAIL_2M1, 1: FINITE}
    gauss_ends = {} if irrational else {0: FINITE}
    eicf_ends = {} if irrational else {0: FINITE, 1: TAIL_2M1}
    return [(_oocf_orbit(x), (oocf_step, u, oocf_ends)),
            ((_gauss_run, u, gauss_ends), (gauss_step, u, gauss_ends)),
            ((_one(eicf_step), u, eicf_ends), (eicf_step, u, eicf_ends))]


def _same_orbits(x, budget):
    for new, legacy in _orbits(x):
        assert _outcome(orbit, *new, budget) == _outcome(old.orbit, *legacy, budget)


BUDGETS = st.sampled_from([None, 0, 1, 7])


@SETTINGS
@given(st.one_of(small_rationals, endpoint_rationals()), BUDGETS)
def test_orbit_loops_match_on_rationals(x, budget):
    # a huge endpoint crawls through one (2,-1) digit per step without a budget
    assume(budget is not None or x.denominator < 10 ** 4)
    _same_orbits(x, budget)


@SETTINGS
@given(quadratics(300, 12), BUDGETS)
def test_orbit_loops_match_on_surds(x, budget):
    _same_orbits(x, budget)


@SETTINGS
@given(st.one_of(small_rationals, quadratics(300, 12)), st.integers(1, 6),
       st.integers(-2, 2))
def test_orbit_hard_cap_edge_matches(x, cap, shift):
    # both drivers read the cap from their module, so a small one puts the
    # budget-versus-cap edge within a few steps
    budget = cap + shift
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expansion, "_HARD_CAP", cap)
        mp.setattr(old, "_HARD_CAP", cap)
        for b in (None, budget):
            _same_orbits(x, b)


@SETTINGS
@given(st.lists(st.one_of(small_digits, huge_digits), max_size=12))
def test_digit_product_matches_matrix_product(word):
    assert _digit_product(word) == old._digit_product(word)


# ---------------------------------------------------------------------------
# Runs of (2,-1): the driver takes each in one step, the old loop digit by
# digit.  Budgets and caps fall inside runs, and periods start inside them.

TWO_MINUS_DIGIT = OocfDigit(2, -1)


@st.composite
def run_rationals(draw):
    """Rationals at or next to 1/(2n+1), 1/3, (2n-1)/(2n+1) and n/(n+1),
    for n small enough that a budget meets the end of the run next to
    1/(2n+1), or as large as 10^40."""
    n = draw(st.one_of(st.integers(1, 300), st.integers(1, 10 ** 40)))
    num, den = draw(st.sampled_from([(1, 2 * n + 1), (1, 3), (2 * n - 1, 2 * n + 1),
                                     (n, n + 1)]))
    shift = draw(st.sampled_from([0, 0, -1, 1]))
    scale = draw(st.one_of(st.just(1), st.integers(2, 10 ** 30)))
    return F(num * scale + shift, den * scale)


@st.composite
def run_surds(draw):
    """(sqrt(n^2 + j) - n)/q, about j/(2nq): its orbit opens with a run of
    about n*q/j digits (2,-1), n up to 10^6, and falls back into runs."""
    n = draw(st.one_of(st.integers(1, 300), st.integers(1, 10 ** 6)))
    j = draw(st.integers(1, min(4, 2 * n)))
    return QuadIrr(-n, 1, n * n + j, draw(st.integers(1, 3)))


RUN_BUDGETS = st.integers(0, 700)


@SETTINGS
@given(run_rationals(), RUN_BUDGETS)
def test_runs_of_rationals_match(x, budget):
    _same_expansions(x, budget)
    _same_streams(x, budget)
    if x.denominator < 10 ** 4:
        _same_expansions(x, None)


@SETTINGS
@given(run_surds(), st.one_of(st.none(), RUN_BUDGETS))
def test_runs_of_surds_match(x, budget):
    assume(budget is not None or -x.p <= 300)
    _same_expansions(x, budget, 700 if budget is None else budget)
    _same_streams(x, 700 if budget is None else budget)


@SETTINGS
@given(st.one_of(run_rationals(), run_surds()), st.integers(1, 700), st.integers(-2, 2))
def test_hard_cap_inside_a_run_matches(x, cap, shift):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expansion, "_HARD_CAP", cap)
        mp.setattr(old, "_HARD_CAP", cap)
        for budget in (None, cap + shift):
            assert _outcome(expand, x, budget) == _outcome(old.expand, x, budget)


def _run_word(draw, min_runs):
    """Digits with runs of (2,-1) between other digits."""
    parts = draw(st.lists(st.one_of(small_digits.map(lambda d: [d]),
                                    st.integers(1, 40).map(lambda n: [(2, -1)] * n)),
                          min_size=min_runs, max_size=4))
    return [d for part in parts for d in part]


@st.composite
def mid_run_periodics(draw):
    """An expansion whose period starts inside a run of (2,-1): the
    preperiod ends in (2,-1) after any digits, the period opens with
    (2,-1) and closes on another digit, so the digit before the period
    differs from the period's last one and the word is canonical."""
    other = small_digits.filter(lambda d: d != (2, -1))
    pre = _run_word(draw, 0) + [(2, -1)] * draw(st.integers(1, 40))
    per = ([(2, -1)] * draw(st.integers(1, 40)) + _run_word(draw, 0)
           + [draw(other)])
    return pre, per


@SETTINGS
@given(mid_run_periodics(), st.integers(-2, 2))
def test_period_entered_mid_run_matches(case, shift):
    pre, per = case
    e = _outcome(OocfExpansion, tuple(pre + per), PERIODIC, len(pre))
    assume(isinstance(e, OocfExpansion))  # the period word must be primitive
    x = old.evaluate(e)
    assume(isinstance(x, QuadIrr))
    assert expand(x) == old.expand(x) == e
    assert e.digits[e.period_start - 1] == e.digits[e.period_start] == TWO_MINUS_DIGIT
    edge = len(e.digits) + shift
    _same_expansions(x, edge, edge)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expansion, "_HARD_CAP", max(1, edge))
        mp.setattr(old, "_HARD_CAP", max(1, edge))
        assert _outcome(expand, x) == _outcome(old.expand, x)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.one_of(small_digits.map(lambda d: [d]), huge_digits.map(lambda d: [d]),
                          st.integers(1, 10 ** 4).map(lambda n: [(2, -1)] * n)),
                max_size=8))
def test_digit_product_folds_long_runs(parts):
    word = [d for part in parts for d in part]
    assert _digit_product(word) == old._digit_product(word)
