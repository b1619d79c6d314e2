"""The even-integer side read off the odd-odd engine through the conjugacy
f(x) = (1-x)/(1+x), and the lockstep conjugacy check.

``eicf_expand`` and ``eicf_digit_stream`` are phi of the odd-odd digits of
f(x); here they are checked against the value-level loops they replaced
(``legacy_loops``) at the even-integer cell ends 1/j, next to 1 where the
even-integer orbit crawls, at 0 and 1, and on quadratic irrationals.
``verify_conjugacy`` walks both orbits once, in lockstep; it is checked
against the two-walk check it replaced, also with an even-integer step
that is broken from some step on, which both checks must catch; the
lockstep check names the first broken step as its witness.
``eicf_convergents``, read off the odd-odd principal convergents through
f, is checked against its own recursion on even-integer strings with long
(2,-1) runs and huge digits.  The even-integer step, which takes 1/x once,
is checked against the old pair that took it once for the digit and once
for the image, at and next to 1/j.  Both maps are Romik's map jumped to a
hitting set; ``jump_transform``, which takes the run to the set in closed
form, is checked against the maps and the one-step loop it replaced next
to 0, 1/3, 1/2 and 1, down to 10^-40 away."""

from dataclasses import replace
from fractions import Fraction as F
from itertools import islice
from math import ceil, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import legacy_loops as old
from oocf import maps, rcf
from oocf.core import QuadIrr
from oocf.expansion import _HARD_CAP
from oocf.maps import eicf_map, in_e1, in_e2, jump_transform, oocf_map, romik
from oocf.rcf import (ConjugacyMismatch, ConjugacyReport, conjugacy, eicf_digit_stream,
                      eicf_expand, verify_conjugacy)

SETTINGS = settings(max_examples=60, deadline=None)
BUDGETS = [None, 0, 1, 7]


def _quad(d, s, q, r):
    """(P + s*sqrt(d))/q in (0, 1), with d made a non-square."""
    if isqrt(d) ** 2 == d:
        d += 1
    floor_neg = isqrt(s * s * d) if s < 0 else -isqrt(s * s * d) - 1
    return QuadIrr(floor_neg + 1 + r % q, s, d, q)


def quadratics(dmax, qmax):
    return st.builds(_quad, st.integers(2, dmax), st.sampled_from([-3, -2, -1, 1, 2, 3]),
                     st.integers(1, qmax), st.integers(0, qmax - 1))


# short periods, for a walk to the period; long ones, under a budget
small_quadratics = quadratics(300, 20)
wide_quadratics = st.one_of(small_quadratics, quadratics(10 ** 9, 1000))


@st.composite
def eicf_cell_ends(draw):
    """(x, budget): x at or next to an even-integer cell end 1/j, which f
    sends to and from the odd-odd branch ends (f((2k-1)/(2k+1)) = 1/(2k),
    f(k/(k+1)) = 1/(2k+1)), small or huge j; next to 1, where the
    even-integer orbit crawls by one (2,-1) per step; 0 and 1; and
    quadratic irrationals.  A long crawl or period runs under a finite
    budget."""
    kind = draw(st.sampled_from(["cell", "branch", "near1", "ends", "quad"]))
    budget = draw(st.sampled_from(BUDGETS))
    if kind == "quad":
        return draw(small_quadratics if budget is None else wide_quadratics), budget
    if kind == "ends":
        return F(draw(st.sampled_from([0, 1]))), budget
    if kind == "near1":
        n = draw(st.one_of(st.integers(2, 400), st.integers(401, 10 ** 40)))
        if n > 400 and budget is None:
            budget = 7
        return 1 - F(1, n), budget
    k = draw(st.one_of(st.integers(1, 60), st.integers(1, 10 ** 30)))
    if kind == "branch":
        num, den = draw(st.sampled_from([(2 * k - 1, 2 * k + 1), (k, k + 1)]))
        x = conjugacy(F(num, den))
    else:
        x = F(1, k)
    # next to 1/j the even-integer orbit can reach the crawl next to 1
    scale = draw(st.one_of(st.just(0), st.integers(2, 2000), st.integers(2001, 10 ** 20)))
    if scale:
        x += draw(st.sampled_from([-1, 1])) * F(1, scale)
    if scale > 2000 and budget is None:
        budget = 7
    return min(max(x, F(0)), F(1)), budget


def _eicf_length(x):
    """The number of even-integer digits of a rational x in [0, 1], by
    value-level steps, except that a run of (2,-1) digits is counted at
    once: on (1/2, 1) the digit is (2,-1) and y = 1/(1-x) falls by one per
    step, so from y the run has ceil(y) - 2 digits and ends at y in (1, 2]."""
    n = 0
    while x not in (0, 1):
        if x > F(1, 2):
            y = 1 / (1 - x)
            run = ceil(y) - 2
            n += run
            x = 1 - 1 / (y - run)
        else:
            n += 1
            x = maps.eicf_step(x)[1]
    return n


@SETTINGS
@given(eicf_cell_ends())
@example((F(1, 3) + F(1, 12168704), None))
def test_derived_eicf_matches_value_loops(case):
    x, budget = case
    n = 60 if budget is None else budget
    assert (list(islice(eicf_digit_stream(x), n))
            == list(islice(old.eicf_digit_stream(x), n)))
    length = _eicf_length(x) if budget is None and isinstance(x, F) else None
    if length is not None and length > _HARD_CAP:
        # x = 1/j +- 1/s with j >> s^2 crawls next to 1 for about j/s^2
        # digits (1,352,083 for x = 1/3 + 1/12168704): past the hard cap
        # eicf_expand raises, where the value loop has no cap
        with pytest.raises(RuntimeError, match="hard digit cap"):
            eicf_expand(x)
        return
    e = eicf_expand(x, budget)
    assert e == old.eicf_expand(x, budget)
    if length is not None:
        assert len(e.digits) == length


def test_eicf_length_counts_the_crawl_at_once():
    for x in (F(1, 3) + F(1, 1000), F(999, 1000), F(2, 7), F(1, 2), F(0), F(1)):
        assert _eicf_length(x) == len(old.eicf_expand(x).digits)
    assert _eicf_length(F(1, 3) + F(1, 12168704)) == 1352083


@pytest.mark.parametrize("bad", [F(-1, 2), F(3, 2), 2, -1])
def test_eicf_stream_raises_at_first_next(bad):
    stream = eicf_digit_stream(bad)
    with pytest.raises(ValueError, match="outside"):
        next(stream)
    with pytest.raises(ValueError, match="outside"):
        eicf_expand(bad)


def test_derived_eicf_ends_and_periods():
    # f swaps 0 and 1: finite stays finite and tail_2m1 stays tail_2m1
    assert eicf_expand(F(0)).terminator == "finite"
    assert eicf_expand(F(1)).terminator == "tail_2m1"
    assert eicf_expand(F(1, 3)) == old.eicf_expand(F(1, 3))
    x = QuadIrr(-316, 1, 99991)
    e = eicf_expand(x)
    assert e == old.eicf_expand(x)
    assert e.terminator == "periodic" and e.period_start is not None


# ---------------------------------------------------------------------------
# The lockstep check against the two-walk check

inputs = st.one_of(
    st.builds(lambda q, r: F(r % (q + 1), q), st.integers(1, 10 ** 6), st.integers(0, 10 ** 6)),
    st.builds(lambda k, s: F(k, k + 1) + F(s, 10 ** 9), st.integers(1, 50),
              st.integers(-1, 0)),
    wide_quadratics)


@SETTINGS
@given(inputs, st.integers(0, 200))
def test_lockstep_equals_two_walk_check(x, steps):
    assert verify_conjugacy(x, steps) == old.verify_conjugacy(x, steps)


def test_negative_steps_rejected():
    with pytest.raises(ValueError, match="number of steps must be >= 0"):
        verify_conjugacy(F(2, 7), -1)


def _orbit_states(x, steps):
    """The first ``steps`` states of the even-integer orbit of f(x), at most,
    before it reaches 0 or 1."""
    z, states = conjugacy(x), []
    while len(states) < steps and z not in (0, 1):
        states.append(z)
        z = maps.eicf_step(z)[1]
    return states


def _broken_eicf_step(bad, mode):
    """``maps.eicf_step`` made wrong on the states in ``bad``: in its digit,
    its image or both."""
    good = maps.eicf_step

    def step(z):
        (b, eta), t = good(z)
        if z in bad:
            if mode != "image":
                b += 2
            if mode != "digit":
                t = t / 2 if t != 0 else F(1, 2)
        return (b, eta), t
    return step


@SETTINGS
@given(inputs, st.integers(1, 200), st.one_of(st.just(-1), st.integers(0, 10 ** 6)),
       st.sampled_from(["digit", "image", "both"]))
def test_broken_eicf_step_is_caught(x, steps, k, mode):
    # the step is right up to step k and wrong on every true orbit state
    # from step k on; k = -1 breaks only the last state, so that a broken
    # image sends the even-integer orbit past the end of the odd-odd one
    states = _orbit_states(x, steps)
    k = k % len(states) if states else 0
    step = _broken_eicf_step(set(states[k:]), mode)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(maps, "eicf_step", step)   # eicf_map and the old stream
        mp.setattr(rcf, "eicf_step", step)    # the lockstep walk
        new, legacy = verify_conjugacy(x, steps), old.verify_conjugacy(x, steps)
    assert replace(new, first_mismatch=None) == legacy
    if not states:
        assert new == ConjugacyReport(True, True, steps)
        return
    # a periodic orbit may meet a broken state before step k + 1
    bad = set(states[k:])
    assert new.first_mismatch.step == 1 + next(
        i for i, z in enumerate(states) if z in bad)
    assert new.map_commutes == (mode == "digit")
    if mode != "image":
        assert not new.digits_correspond


@pytest.mark.parametrize("x", [F(1, 2), F(2, 7), F(5, 17), F(999, 1000)])
def test_broken_last_image_outlives_the_odd_odd_orbit(x):
    states = _orbit_states(x, 200)
    step = _broken_eicf_step({states[-1]}, "image")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(maps, "eicf_step", step)
        mp.setattr(rcf, "eicf_step", step)
        new, legacy = verify_conjugacy(x, 200), old.verify_conjugacy(x, 200)
    assert legacy == ConjugacyReport(False, False, 200)
    assert replace(new, first_mismatch=None) == legacy
    # the odd-odd orbit ends at that step, the broken even-integer one not
    w = new.first_mismatch
    assert w.step == len(states) and w.y in (0, 1) and w.z not in (0, 1)


@SETTINGS
@given(inputs, st.integers(0, 10 ** 6), st.sampled_from(["digit", "image", "both"]))
def test_witness_is_the_one_broken_step(x, k, mode):
    states = _orbit_states(x, 200)
    if not states:
        assert verify_conjugacy(x, 200).first_mismatch is None
        return
    # on a periodic orbit, the first visit of the broken state
    k = states.index(states[k % len(states)])
    # the true odd-odd orbit up to step k + 1, and that step's broken side
    y = maps._unit(x)
    for _ in range(k + 1):
        d, y = maps.oocf_step(y)
    step = _broken_eicf_step({states[k]}, mode)
    e, z = step(states[k])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rcf, "eicf_step", step)
        rep = verify_conjugacy(x, 200)
    assert not rep.passed
    assert rep.first_mismatch == ConjugacyMismatch(k + 1, y, z, d, e)
    assert (conjugacy(y) != z) == (mode != "digit")
    assert (rcf.phi_digit(d) != e) == (mode != "image")


def test_tautological_check_fails_the_mutation_test():
    # a check that read its even-integer digits off eicf_digit_stream would
    # not see a broken eicf_step, so it would fail the test above
    x, steps = F(5, 17), 10
    step = _broken_eicf_step(set(_orbit_states(x, steps)), "both")

    def tautological(x, steps):
        oo = [d for d, _, _ in islice(old._oocf_transitions(x), steps)]
        ee = list(islice(eicf_digit_stream(conjugacy(x)), steps))
        return len(oo) == len(ee) and all(rcf.phi_digit(d) == e
                                          for d, e in zip(oo, ee))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(maps, "eicf_step", step)
        mp.setattr(rcf, "eicf_step", step)
        assert tautological(x, steps)
        assert not verify_conjugacy(x, steps).digits_correspond


@st.composite
def eicf_strings(draw):
    """Even-integer digits: small or huge b, either sign, and runs of up to
    500 digits (2,-1), next to 1 where the even-integer orbit crawls."""
    half = st.one_of(st.integers(1, 6), st.integers(1, 10 ** 30))
    digit = st.tuples(half.map(lambda k: 2 * k), st.sampled_from([1, -1]))
    parts = draw(st.lists(st.one_of(digit.map(lambda d: [d]),
                                    st.integers(1, 500).map(lambda n: [(2, -1)] * n)),
                          max_size=8))
    return [d for part in parts for d in part]


@SETTINGS
@given(eicf_strings())
def test_eicf_convergents_match_recursion(digits):
    assert rcf.eicf_convergents(digits) == old.eicf_convergents(digits)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ValueError, str(exc)


def _near(draw, centre, below, above):
    """A Fraction or QuadIrr at or next to the rational ``centre`` in
    [0, 1], on the sides allowed, within centre/n (1/n at 0 and 1) for n
    small or up to 10^40."""
    n = draw(st.one_of(st.integers(1, 50), st.integers(1, 10 ** 40), st.just(10 ** 40)))
    side = draw(st.sampled_from([s for s, ok in ((-1, below), (1, above)) if ok]))
    kind = draw(st.sampled_from(["at", "fraction", "quad"]))
    if kind == "at":
        return centre
    width = centre if 0 < centre < 1 else 1
    if kind == "fraction":
        return centre + side * width * F(draw(st.integers(1, 9)), 10 * n)
    d = draw(st.integers(2, 10 ** 6))
    if isqrt(d) ** 2 == d:
        d += 1
    return centre + side * width * QuadIrr(-isqrt(d), 1, d, n)  # sqrt(d) - isqrt(d) < 1


@st.composite
def near_cell_ends(draw):
    """x at or next to 1/j, j even or odd, small or huge: where the
    even-integer digit changes parity."""
    j = draw(st.one_of(st.integers(1, 60), st.integers(1, 10 ** 30)))
    return _near(draw, F(1, j), True, j > 1)


@SETTINGS
@given(near_cell_ends())
@example(F(0))
def test_eicf_step_takes_the_old_digit_and_image(x):
    new = _outcome(maps.eicf_step, x)
    assert new == _outcome(old.eicf_step, x)
    assert _outcome(maps.eicf_branch_of, x) == _outcome(old.eicf_branch_of, x)
    if not isinstance(new[0], type):
        assert type(new[1]) is type(x)


@st.composite
def near_hitting_set_ends(draw):
    centre = draw(st.sampled_from([F(0), F(1, 3), F(1, 2), F(1)]))
    return _near(draw, centre, centre > 0, centre < 1)


@SETTINGS
@given(near_hitting_set_ends())
@example(F(1, 3 * 10 ** 6))
@example(1 - F(1, 3 * 10 ** 6))
def test_jump_transform_matches_maps_and_one_step_loop(x):
    e1, e2 = jump_transform(in_e1, x), jump_transform(in_e2, x)
    assert (e1, e2) == (eicf_map(x), oocf_map(x))
    # the loop takes about 1/(2x) steps next to 0 and 1/(1-x) next to 1
    if F(1, 2000) < x < 1 - F(1, 2000) or x in (0, 1):
        assert (e1, e2) == (old.jump_transform(romik, in_e1, x),
                            old.jump_transform(romik, in_e2, x))
