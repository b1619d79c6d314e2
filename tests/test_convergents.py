import copy
import dataclasses
import pickle
import random
import re
from fractions import Fraction as F
from itertools import cycle, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oocf.core import QuadIrr
from oocf.convergents import (SEED, ConvergentTriple, betweenness_report,
                              convergence_gap, convergent_stream, convergent_table,
                              convergent_table_matrix)
from oocf.expansion import TRUNCATED, OocfExpansion, digit_stream, evaluate, expand
from oocf.maps import check_digit

SQRT2M1 = QuadIrr(-1, 1, 2)


def random_digits(rng, length):
    out = []
    for _ in range(length):
        a = rng.choice((1, 1, 1, 2, 2, 3, 4, 5, 6))
        e = 1 if a == 1 else rng.choice((1, -1))
        out.append((a, e))
    return out


def test_seed_triple():
    t = convergent_table([])[0]
    assert t == SEED
    assert t.principal == 1 and t.pseudo == 0
    assert t.sub is None                      # 1/0
    assert convergent_table_matrix([]) == [SEED]


def test_table_examples():
    rows = convergent_table([(1, 1)])
    t = rows[1]
    assert (t.principal, t.sub, t.pseudo) == (F(1, 3), F(0), F(1, 2))

    rows = convergent_table([(1, 1), (1, 1)])
    assert rows[2].principal == F(3, 7)

    rows = convergent_table([(1, 1)] * 4)
    assert [t.principal for t in rows[1:]] == [F(1, 3), F(3, 7), F(7, 17), F(17, 41)]


def test_matrix_route_example():
    rows = convergent_table_matrix([(1, 1)])
    t = rows[1]
    # A_(1,1) * [[1,-1],[1,0]] = [[1,0],[3,-1]]
    assert (t.p, t.q, t.p_sub, t.q_sub) == (1, 3, 0, 1)


def test_illegal_digits_rejected():
    with pytest.raises(ValueError):
        convergent_table([(1, -1)])
    with pytest.raises(ValueError):
        convergent_table_matrix([(0, 1)])


def test_recursive_principal_form():
    # p_n = (2 a_n + eps_n - 1) p_(n-1) + eps_(n-1) p_(n-2), seeds p_-1 = -1,
    # q_-1 = 1, eps_0 = 1
    rng = random.Random(41)
    for _ in range(200):
        digits = random_digits(rng, rng.randint(1, 12))
        rows = convergent_table(digits)
        pm1, qm1 = -1, 1
        p0, q0 = 1, 1
        eps_prev = 1
        for n, (a, e) in enumerate(digits, 1):
            mult = 2 * a + e - 1
            p = mult * p0 + eps_prev * pm1
            q = mult * q0 + eps_prev * qm1
            assert (rows[n].p, rows[n].q) == (p, q)
            pm1, qm1, p0, q0 = p0, q0, p, q
            eps_prev = e


def test_identities_random_battery():
    rng = random.Random(43)
    for _ in range(500):
        digits = random_digits(rng, rng.randint(1, 20))
        scalar = convergent_table(digits)
        matrix = convergent_table_matrix(digits)
        assert scalar == matrix
        for prev, t in zip(scalar, scalar[1:]):
            # parity classes
            assert t.p % 2 == 1 and t.q % 2 == 1
            assert (t.p_sub + t.q_sub) % 2 == 1
            assert (t.p_pse + t.q_pse) % 2 == 1
            # mediant decomposition and its signed companion
            assert t.p == t.p_sub + t.p_pse and t.q == t.q_sub + t.q_pse
            eps = t.eps_prod // prev.eps_prod
            assert prev.p == eps * (t.p_pse - t.p_sub)
            assert prev.q == eps * (t.q_pse - t.q_sub)
            # adjacency determinants, magnitudes pinned, signs empirical
            d1 = t.p_sub * t.q_pse - t.p_pse * t.q_sub
            d2 = prev.p * t.q - t.p * prev.q
            assert abs(d1) == 1 and abs(d2) == 2
            assert d1 == (-1) ** t.n * t.eps_prod
            assert d2 == (-1) ** (t.n + 1) * 2 * prev.eps_prod
            # strict denominator growth
            assert t.q > prev.q


def test_betweenness_for_sqrt2():
    digits = list(islice(digit_stream(SQRT2M1), 6))
    rows = convergent_table(digits)
    for n in range(1, 6):
        flags = betweenness_report(SQRT2M1, rows[n], rows[n - 1])
        assert flags.x_between_principal_pseudo
        assert flags.principal_between_sub_pseudo
        assert flags.nested_in_previous
        assert flags.all_hold


def test_betweenness_degenerate_rational():
    rows = convergent_table(expand(F(1, 3)).digits)
    flags = betweenness_report(F(1, 3), rows[1], rows[0])
    assert flags.x_between_principal_pseudo     # x equals the principal
    assert flags.all_hold
    # the seed row has no sub-convergent (q_sub = 0) and no predecessor
    flags = betweenness_report(F(1, 3), SEED)
    assert flags.all_hold and flags.nested_in_previous is None


def test_betweenness_2_7():
    digits = expand(F(2, 7)).digits
    rows = convergent_table(digits)
    flags = betweenness_report(F(2, 7), rows[2], rows[1])
    assert flags.all_hold


def test_betweenness_prefix_mismatch():
    rows = convergent_table([(1, 1), (1, 1), (1, 1)])
    with pytest.raises(ValueError):
        betweenness_report(SQRT2M1, rows[3], rows[1])


def test_outside_previous_principal():
    # the previous principal itself lies outside [sub_n, pseudo_n]
    rng = random.Random(47)
    for _ in range(200):
        digits = random_digits(rng, rng.randint(2, 15))
        rows = convergent_table(digits)
        for prev, t in zip(rows[1:], rows[2:]):
            lo, hi = sorted((t.sub, t.pseudo))
            assert prev.principal < lo or prev.principal > hi


def test_pseudo_stabilizes_for_inf_rational():
    x = F(2, 7)
    e = expand(x)
    rows = convergent_table(e.digits)
    assert rows[-1].pseudo == x
    # appending tail digits (2,-1) keeps the pseudo-convergent at x
    rows = convergent_table(list(e.digits) + [(2, -1)] * 5)
    for t in rows[len(e.digits):]:
        assert t.pseudo == x


def test_convergence_gap():
    digits = list(islice(digit_stream(SQRT2M1), 4))
    rows = convergent_table(digits)
    g = convergence_gap(SQRT2M1, rows[3])
    assert rows[3].principal == F(7, 17)
    assert g.certified and g.bound == F(2, 17)

    rows = convergent_table(expand(F(2, 7)).digits)
    for t in rows:
        assert convergence_gap(F(2, 7), t).certified

    # gap 0 when the principal equals x
    rows = convergent_table(expand(F(1, 3)).digits)
    g = convergence_gap(F(1, 3), rows[1])
    assert g.gap == 0 and g.certified


def test_stream_matches_table():
    rng = random.Random(53)
    digits = random_digits(rng, 10)
    assert list(convergent_stream(digits)) == convergent_table(digits)


# ---------------------------------------------------------------------------
# Digits are validated where they enter: convergent_stream tests each one
# inline and leaves the message to check_digit

ILLEGAL = [(1, -1), (0, 1), (2, 0), (2.0, 1), (2, 1.0), (1, -1.0), (True, -1.0)]


def _message(a, e):
    with pytest.raises(ValueError) as exc:
        check_digit(a, e)
    return str(exc.value)


@pytest.mark.parametrize("bad", ILLEGAL)
@pytest.mark.parametrize("where", [0, 2, 4])
def test_illegal_digit_message_at_any_position(bad, where):
    digits = [(2, 1), (1, 1), (3, -1), (2, -1)]
    digits.insert(where, bad)
    with pytest.raises(ValueError) as exc:
        convergent_table(digits)
    assert str(exc.value) == _message(*bad)
    # the stream yields the seed and one triple per legal digit before it
    stream = convergent_stream(digits)
    assert list(islice(stream, where + 1)) == convergent_table(digits[:where])
    with pytest.raises(ValueError):
        next(stream)


def test_bool_digit_still_accepted():
    # check_digit takes True for 1, and so does the inline test
    assert convergent_table([(True, 1), (2, -1)]) == convergent_table([(1, 1), (2, -1)])
    assert convergent_table([(2, True)]) == convergent_table([(2, 1)])


def test_float_digit_gives_no_float_convergent():
    # a float eps once passed both tests and turned the convergents into floats
    with pytest.raises(ValueError, match=re.escape("illegal digit (2, 1.0)")):
        convergent_table([(2, 1.0), (10 ** 20 + 1, 1)])
    with pytest.raises(ValueError, match=re.escape("illegal digit (2, 1.0)")):
        check_digit(2, 1.0)
    rows = convergent_table([(2, 1), (10 ** 20 + 1, 1)])
    assert all(type(v) is int for t in rows for v in (t.p, t.q, t.p_sub, t.q_sub))


# ---------------------------------------------------------------------------
# ConvergentTriple: a frozen, hashable, slotted dataclass; the stream builds
# each row as a bare _Row with the same slots, not through the frozen
# __init__, and retags it by setting its __class__ to ConvergentTriple


def _legal(a, e):
    return (a, 1 if a == 1 else e)


digit_strings = st.lists(
    st.builds(_legal, st.one_of(st.integers(1, 8), st.integers(1, 10 ** 12)),
              st.sampled_from([1, -1])),
    max_size=25)


@settings(max_examples=60, deadline=None)
@given(digit_strings)
def test_stream_rows_match_constructor(digits):
    # each row from the stream equals, and hashes as, the row the matrix
    # route builds with ConvergentTriple(...), field by field
    rows = list(convergent_stream(digits))
    built = convergent_table_matrix(digits)
    assert len(rows) == len(built) == len(digits) + 1
    for t, u in zip(rows, built):
        assert type(t) is ConvergentTriple
        values = [getattr(t, f.name) for f in dataclasses.fields(t)]
        assert values == [getattr(u, f.name) for f in dataclasses.fields(u)]
        assert t == u == ConvergentTriple(*values)
        assert hash(t) == hash(u) == hash(ConvergentTriple(*values))


def test_triple_is_frozen_and_replaceable():
    t = convergent_table([(2, 1), (3, -1)])[2]
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.p = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        del t.q
    assert not hasattr(t, "__dict__")
    moved = dataclasses.replace(t, p=t.p + 2)
    assert type(moved) is ConvergentTriple and moved.p == t.p + 2 and moved.q == t.q
    assert pickle.loads(pickle.dumps(t)) == t
    assert len({t, ConvergentTriple(*dataclasses.astuple(t)), SEED}) == 2


def _stream_rows_before_the_raise(digits):
    rows = []
    with pytest.raises(ValueError, match="illegal digit"):
        for t in convergent_stream(digits):
            rows.append(t)
    return rows


@pytest.mark.parametrize("rows", [
    list(convergent_stream([(2, -1)] * 300)),
    list(convergent_stream([(1, 1), (3, -1), (10 ** 12, 1), (2, 1), (5, -1)])),
    _stream_rows_before_the_raise([(2, -1)] * 5 + [(3, 1), (0, 1), (2, -1)])],
    ids=["run", "other_digits", "cut_by_illegal_digit"])
def test_retagged_rows_behave_like_constructed_rows(rows):
    assert len(rows) > 1
    for t in rows[1:]:
        built = ConvergentTriple(*dataclasses.astuple(t))
        assert type(t) is ConvergentTriple and not hasattr(t, "__dict__")
        for clone in (copy.copy(t), copy.deepcopy(t)):
            assert type(clone) is ConvergentTriple and clone == built
        assert repr(t) == repr(built)
        assert dataclasses.asdict(t) == dataclasses.asdict(built)
        for f in dataclasses.fields(t):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, f.name, 0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(t, f.name)
        assert t == built


@settings(max_examples=60, deadline=None)
@given(digit_strings)
def test_scalar_table_matches_matrix_table(digits):
    assert convergent_table(digits) == convergent_table_matrix(digits)


# strings as long as a quad-periods op's (250 to 600 digits): runs of
# (2,-1), small digits and digits next to 10^12, repeated to length n
digit_blocks = st.one_of(
    st.integers(1, 80).map(lambda n: [(2, -1)] * n),
    st.lists(st.builds(_legal, st.integers(1, 8), st.sampled_from([1, -1])),
             min_size=1, max_size=20),
    st.lists(st.builds(_legal, st.integers(10 ** 12 - 10 ** 3, 10 ** 12 + 10 ** 3),
                       st.sampled_from([1, -1])), min_size=1, max_size=3))
long_digit_strings = st.builds(
    lambda n, blocks: list(islice(cycle([d for b in blocks for d in b]), n)),
    st.integers(0, 600), st.lists(digit_blocks, min_size=1, max_size=12))


@settings(max_examples=40, deadline=None)
@given(long_digit_strings)
def test_long_tables_match_matrix_table(digits):
    rows = convergent_table(digits)
    assert len(rows) == len(digits) + 1
    for t, u in zip(rows, convergent_table_matrix(digits)):
        assert t == u  # all eight fields, eps_prod included
    assert rows[-1].principal == evaluate(OocfExpansion(digits, TRUNCATED))
