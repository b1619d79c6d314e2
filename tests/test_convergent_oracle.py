"""``convergent_stream``, which takes a (2,-1) row in closed form and tests
a digit once per object, against the stream it replaced
(``legacy_loops.convergent_stream``: the three recursions on every digit,
each digit unpacked and tested) and against the digit-matrix table.

The digits are the engine's, where a run shares one ``OocfDigit(2, -1)``
(rationals next to 1/(2n+1), surds with long runs), and hand-built lists
that mix one shared (2,-1) tuple, fresh equal tuples, ``[2, -1]`` lists
and other digits, with runs at the seed, where the pseudo-convergent is
0/1.  An illegal digit raises ``check_digit``'s message at its first index
whether or not the same object comes again, and a list digit is read
again at every row, so a mutation between two lazy yields shows."""

from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

import legacy_loops as old
from oocf.convergents import ConvergentTriple, convergent_stream, convergent_table, \
    convergent_table_matrix
from oocf.expansion import OocfDigit, expand
from oocf.maps import check_digit
from test_orbit_oracle import SETTINGS, quadratics, run_rationals, run_surds, small_digits

SHARED = (2, -1)
SHARED_DIGIT = OocfDigit(2, -1)


def _same_rows(digits):
    rows = convergent_table(digits)
    assert rows == list(old.convergent_stream(digits)) == convergent_table_matrix(digits)
    for t, d in zip(rows[1:], digits):
        assert type(t) is ConvergentTriple
        if tuple(d) == SHARED:
            # the pseudo-convergent stays put across a (2,-1) digit
            prev = rows[t.n - 1]
            assert t.p_pse is prev.p_pse and t.q_pse is prev.q_pse
    return rows


@SETTINGS
@given(st.one_of(run_rationals(), run_surds(), quadratics(10 ** 6, 30)),
       st.integers(0, 700))
def test_engine_digits_match(x, budget):
    _same_rows(expand(x, max_digits=budget).digits)


def _run(kind, n):
    """n digits (2,-1), all one object or each a fresh one."""
    if kind == "shared tuple":
        return [SHARED] * n
    if kind == "shared digit":
        return [SHARED_DIGIT] * n
    if kind == "fresh tuples":
        return [tuple([2, -1]) for _ in range(n)]
    return [[2, -1] for _ in range(n)]


hand_parts = st.one_of(
    st.builds(_run, st.sampled_from(["shared tuple", "shared digit", "fresh tuples", "lists"]),
              st.integers(1, 40)),
    st.lists(small_digits, min_size=1, max_size=4),
    small_digits.map(lambda d: [list(d)]))


@SETTINGS
@given(st.lists(hand_parts, max_size=8))
def test_hand_built_digits_match(parts):
    digits = [d for part in parts for d in part]
    _same_rows(digits)


def test_run_at_the_seed_keeps_zero_over_one():
    for digits in ([SHARED] * 5, [SHARED_DIGIT] * 5, [[2, -1]] * 5):
        rows = _same_rows(digits)
        assert all((t.p_pse, t.q_pse) == (0, 1) for t in rows)
        assert [t.principal for t in rows[1:]] == [F(1, 2 * n + 1) for n in range(1, 6)]


def _message(a, e):
    with pytest.raises(ValueError) as exc:
        check_digit(a, e)
    return str(exc.value)


def _raises_at(digits, where, bad):
    with pytest.raises(ValueError) as exc:
        convergent_table(digits)
    assert str(exc.value) == _message(*bad)
    stream = convergent_stream(digits)
    assert list(islice(stream, where + 1)) == convergent_table(digits[:where])
    with pytest.raises(ValueError):
        next(stream)


@pytest.mark.parametrize("bad", [(1, -1), (2, -1.0), (2.0, -1), (0, 1), [2, -1.0]])
@pytest.mark.parametrize("head", [[], [SHARED] * 3, [SHARED_DIGIT] * 3, [(3, 1)]])
def test_illegal_digit_raises_at_its_first_index(bad, head):
    # (2, -1.0) == (2, -1), but it is another object and is tested
    _raises_at(head + [bad] * 3, len(head), bad)
    _raises_at(head + [bad, SHARED, bad], len(head), bad)


def test_mutated_list_digit_is_read_again():
    d = [2, -1]
    stream = convergent_stream([d, d, d])
    rows = list(islice(stream, 2))
    d[:] = [3, 1]
    rows += list(stream)
    assert rows == list(old.convergent_stream([(2, -1), (3, 1), (3, 1)]))

    d = [2, -1]
    stream = convergent_stream([d, d])
    list(islice(stream, 2))
    d[1] = -1.0
    with pytest.raises(ValueError, match=r"illegal digit \(2, -1\.0\)"):
        next(stream)
