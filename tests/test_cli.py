import argparse
import json
import math
import time
from contextlib import redirect_stdout
from fractions import Fraction as F
from io import StringIO
from itertools import islice
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oocf import cli, expansion, rcf
from oocf.cli import main
from oocf.convergents import convergent_table, principal_convergents_up_to
from oocf.core import QuadIrr, format_real

SQRT2M1 = "(-1+1*sqrt(2))/1"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, err
    return code, json.loads(out)


def test_expand_all(capsys):
    code, doc = run_json(capsys, "expand", "--input", "1/3", "--all")
    assert code == 0 and doc["schema"] == 1
    digit_sets = {tuple(map(tuple, e["digits"])) for e in doc["expansions"]}
    assert digit_sets == {((1, 1),), ((2, -1),)}
    assert all(e["terminator"] == "finite" for e in doc["expansions"])


def test_expand_periodic(capsys):
    code, doc = run_json(capsys, "expand", "--input", "(-1+1*sqrt(2))/1")
    assert code == 0
    assert doc["terminator"] == "periodic"
    assert doc["digits"] == [[1, 1]] and doc["period_start"] == 0


def test_expand_zero(capsys):
    code, doc = run_json(capsys, "expand", "--input", "0/1")
    assert code == 0
    assert doc["digits"] == [] and doc["terminator"] == "tail_2m1"


def test_expand_text_format(capsys):
    code, out, _ = run(capsys, "expand", "--input", "2/7", "--format", "text")
    assert code == 0
    assert "(2,-1) (4,-1)" in out and "tail_2m1" in out


def test_parse_error_exit_1(capsys):
    code, out, err = run(capsys, "expand", "--input", "5/3")
    assert code == 1 and "error" in err
    code, out, err = run(capsys, "expand", "--input", "elephants")
    assert code == 1


def test_expand_all_hard_cap_exits_1(capsys):
    # the orbit of 1/n crawls one (2,-1) digit per map step, 1/n -> 1/(n-2),
    # so 1/3000001 needs 1.5 * 10^6 digits, past the hard cap; the engine
    # takes them as one run, and the cap still counts digits
    code, out, err = run(capsys, "expand", "--input", "1/3000001", "--all")
    assert (code, out, err) == (1, "", "error: expansion exceeded the hard digit cap\n")


def test_convergents_tsv(capsys):
    code, out, _ = run(capsys, "convergents", "--input", "(-1+1*sqrt(2))/1",
                       "-n", "4", "--format", "tsv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n\t")
    principals = [ln.split("\t")[2] for ln in lines[1:]]
    assert principals == ["1/3", "3/7", "7/17", "17/41"]


@st.composite
def convergent_inputs(draw):
    """x in [0, 1]: a quadratic, 0, 1, (2k-1)/(2k+1) or k/(k+1)."""
    kind = draw(st.sampled_from(["quad", "ends", "branch"]))
    if kind == "quad":
        d = draw(st.one_of(st.integers(2, 300), st.integers(2, 10 ** 12)))
        d += isqrt(d) ** 2 == d
        s = draw(st.sampled_from([-2, -1, 1, 2]))
        q, r = draw(st.integers(1, 10 ** 6)), draw(st.integers(0, 10 ** 6))
        floor = isqrt(s * s * d) if s < 0 else -isqrt(s * s * d) - 1
        return QuadIrr(floor + 1 + r % q, s, d, q)
    if kind == "ends":
        return F(draw(st.sampled_from([0, 1])))
    k = draw(st.one_of(st.integers(1, 60), st.integers(1, 10 ** 40)))
    return draw(st.sampled_from([F(2 * k - 1, 2 * k + 1), F(k, k + 1)]))


@settings(max_examples=120, deadline=None)
@given(convergent_inputs(), st.integers(0, 60), st.sampled_from(["json", "tsv"]))
def test_convergent_rows_print_their_reduced_pairs(x, n, fmt):
    # the rows print each (p, q) pair as it is: the same strings as the
    # reduced Fractions of the table
    out = StringIO()
    with redirect_stdout(out):
        code = main(["convergents", "--input", format_real(x), "-n", str(n), "--format", fmt])
    assert code == 0
    rows = convergent_table(list(islice(expansion.digit_stream(x), n)))[1:]
    want = [[format_real(t.principal), format_real(t.sub), format_real(t.pseudo)]
            for t in rows]
    if fmt == "json":
        got = [[r["principal"], r["sub"], r["pseudo"]] for r in json.loads(out.getvalue())["rows"]]
    else:
        got = [line.split("\t")[2:5] for line in out.getvalue().splitlines()[1:]]
    assert got == want


def test_a_count_is_converted_once(monkeypatch):
    calls = []

    def counted(text):
        calls.append(text)
        return int(text)

    monkeypatch.setattr(cli, "int", counted, raising=False)
    assert cli._at_least(0)("12") == 12 and calls == ["12"]
    with pytest.raises(argparse.ArgumentTypeError, match="expected a finite int >= 1, got '0'"):
        cli._at_least(1)("0")
    assert calls == ["12", "0"]


def test_best(capsys):
    code, doc = run_json(capsys, "best", "--input", "(-1+1*sqrt(2))/1",
                         "--qmax", "20")
    assert code == 0
    assert doc["best"] == ["1/1", "1/3", "3/7", "7/17"]


def test_best_at_qmax_1e30(capsys):
    qmax = 10 ** 30
    code, doc = run_json(capsys, "best", "--input", SQRT2M1, "--qmax", str(qmax))
    assert code == 0 and doc["qmax"] == qmax
    want = principal_convergents_up_to(QuadIrr(-1, 1, 2), qmax)
    assert doc["best"] == [f"{c.numerator}/{c.denominator}" for c in want]


def test_convert(capsys):
    code, doc = run_json(capsys, "convert", "--from", "rcf", "--to", "oocf",
                         "--digits", "3,2")
    assert code == 0
    assert doc["digits"] == [[2, -1], [4, -1]]
    assert doc["terminator"] == "tail_2m1"


@pytest.mark.parametrize("digits, entry", [("1,,2", 2), (",", 1), ("3,", 2), (" ,5", 1)])
def test_convert_refuses_an_empty_digit_entry(capsys, digits, entry):
    code, out, err = run(capsys, "convert", "--from", "rcf", "--to", "oocf",
                         "--digits", digits)
    assert (code, out) == (1, "")
    assert err == f"error: --digits {digits!r}: entry {entry} is empty\n"
    # no entry at all is the empty expansion
    code, doc = run_json(capsys, "convert", "--from", "rcf", "--to", "oocf",
                         "--digits", " ")
    assert code == 0 and doc["input_digits"] == []


def test_convert_truncated_stops_at_the_hard_cap(capsys, monkeypatch):
    # [0; 100] and its cylinder both open with 50 odd-odd digits
    monkeypatch.setattr(expansion, "_HARD_CAP", 10)
    monkeypatch.setattr(rcf, "_HARD_CAP", 10)
    for extra in ((), ("--truncated",)):
        assert run(capsys, "convert", "--from", "rcf", "--to", "oocf",
                   "--digits", "100", *extra) == (
            1, "", "error: expansion exceeded the hard digit cap\n")


def test_convert_truncated_takes_a_run_in_one_step(capsys):
    # [0; 200000, ...] opens with 99,999 digits (2,-1) and then (1,1); the
    # walk that took one step per digit printed the same bytes in 4-6 s
    assert run(capsys, "convert", "--from", "rcf", "--to", "oocf",
               "--digits", "200000", "--truncated") == (
        0, '{"schema": 1, "from": "rcf", "to": "oocf", "input_digits": [200000], '
           '"digits": [' + "[2, -1], " * 99999 + '[1, 1]], "terminator": "truncated"}\n', "")
    # a run past the hard cap is refused before a digit is taken
    t0 = time.perf_counter()
    assert run(capsys, "convert", "--from", "rcf", "--to", "oocf",
               "--digits", "99999999999999999999999", "--truncated") == (
        1, "", "error: expansion exceeded the hard digit cap\n")
    assert time.perf_counter() - t0 < 1


def test_verify_thm1(capsys):
    code, doc = run_json(capsys, "verify", "thm1", "--input",
                         "(-1+1*sqrt(2))/1", "--qmax", "200")
    assert code == 0 and doc["pass"] is True
    assert doc["oocf_list"] == doc["brute_list"]


def test_verify_thm2(capsys):
    code, doc = run_json(capsys, "verify", "thm2", "--input", "(-3+1*sqrt(13))/2")
    assert code == 0 and doc["pass"] is True
    code, out, err = run(capsys, "verify", "thm2", "--input", "1/3")
    assert code == 1


def test_verify_thm2_past_the_hard_cap_exits_1(capsys):
    # the period has 1,802,596 digits: expand raises at the cap, so thm2
    # never sees an expansion that is not periodic
    assert run(capsys, "verify", "thm2", "--input", "(-316227+1*sqrt(99999999977))/1") == (
        1, "", "error: expansion exceeded the hard digit cap\n")


def test_verify_other_suites(capsys):
    for suite in ("intermediate", "conjugacy", "keita", "eicf-best"):
        code, doc = run_json(capsys, "verify", suite, "--input",
                             "(-1+1*sqrt(2))/1", "-n", "6")
        assert code == 0 and doc["pass"] is True, (suite, doc)


def test_measure(capsys):
    code, doc = run_json(capsys, "measure", "--lo", "1/2", "--hi", "1/1", "--K", "2000")
    assert code == 0 and doc["pass"] is True
    assert doc["tol"] == math.log1p(1 / 2000)
    assert doc["abs_diff"] == pytest.approx(doc["rhs"] - doc["lhs"], rel=1e-9)
    assert 0 < doc["abs_diff"] <= doc["tol"]
    # R_3 = 10/11 lies inside [3/4, 1]: a small K passes
    code, doc = run_json(capsys, "measure", "--lo", "1/2", "--hi", "1/1", "--K", "3")
    assert code == 0 and doc["pass"] is True
    assert doc["abs_diff"] == pytest.approx(math.log(11 / 10), rel=1e-12)


@pytest.mark.parametrize("argv, message", [
    (["--lo", SQRT2M1, "--hi", "1/1"], "measure endpoints must be rational"),
    (["--lo", "1/2", "--hi", "1/3"], "interval endpoints out of order"),
    (["--lo", "1/2", "--hi", "3/2"], "interval endpoints must lie in (0, 1]"),
])
def test_measure_bad_interval_exits_1(capsys, argv, message):
    code, out, err = run(capsys, "measure", *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_ford_svg_deterministic(tmp_path, capsys):
    p1 = tmp_path / "a.svg"
    p2 = tmp_path / "b.svg"
    for p in (p1, p2):
        code, out, err = run(capsys, "ford-svg", "--input", "(-1+1*sqrt(2))/1",
                             "-n", "3", "-o", str(p))
        assert code == 0
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    text = b1.decode()
    assert text.startswith("<?xml") and "<circle" in text and "#cc2200" in text


def test_ford_svg_stdout(capsys):
    code, out, _ = run(capsys, "ford-svg", "--den-max", "3")
    assert code == 0 and out.count("<circle") == 2 + 1 + 2  # bases 0,1; 1/2; 1/3, 2/3


def test_usage_errors_exit_1(capsys):
    for argv in (["expand"], ["expand", "--input", "1/3", "--max-digits", "x"], []):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and err.startswith("error: oocf"), argv


@pytest.mark.parametrize("argv", [
    ["expand", "--input", "1/3", "--max-digits", "-1"],
    ["best", "--input", SQRT2M1, "--qmax", "-5"],
    ["convergents", "--input", SQRT2M1, "-n", "-3"],
    ["measure", "--lo", "1/2", "--hi", "1/1", "--K", "0"],
    ["verify", "intermediate", "--input", "2/7", "-n", "-1"],
    ["ford-svg", "--den-max", "-2"],
])
def test_bad_counts_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "expected a finite int >=" in err


@pytest.mark.parametrize("argv", [
    ["convergents", "--input", SQRT2M1, "--format", "text"],
    ["convert", "--from", "rcf", "--to", "oocf", "--digits", "3,2", "--format", "text"],
    ["verify", "thm2", "--input", SQRT2M1, "--format", "text"],
    ["measure", "--lo", "1/2", "--hi", "1/1", "--format", "text"],
    ["measure", "--lo", "1/2", "--hi", "1/1", "--format", "tsv"],
])
def test_format_only_what_is_printed(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "argument --format: invalid choice" in err


def test_ford_svg_den_max_bounded(capsys):
    code, out, err = run(capsys, "ford-svg", "--den-max", "1001")
    assert code == 1 and out == "" and "den_max must lie in [1, 1000]" in err


@pytest.mark.parametrize("argv", [["--input", "1/3000001", "-n", "5"],
                                  ["--input", "123456789/987654321"]])
def test_verify_intermediate_reads_only_n_plus_1_digits(capsys, argv):
    # both orbits crawl one (2,-1) digit per step, past a million digits
    code, doc = run_json(capsys, "verify", "intermediate", *argv)
    assert code == 0 and doc["pass"] is True


def test_counts_past_sys_maxsize_are_answered(capsys):
    # a count is bounded by range, which takes any int, so each of these
    # finite answers is printed however far past sys.maxsize the count is
    huge = str(10 ** 20 - 1)
    code, doc = run_json(capsys, "convergents", "--input", "1/3", "-n", huge)
    assert code == 0 and [r["principal"] for r in doc["rows"]] == ["1/3"]
    _, small, _ = run(capsys, "ford-svg", "--input", "1/3", "-n", "1")
    code, out, err = run(capsys, "ford-svg", "--input", "1/3", "-n", str(2 ** 63 - 1))
    assert (code, out, err) == (0, small, "")
    code, doc = run_json(capsys, "verify", "intermediate", "--input", "2/7", "-n", huge)
    assert code == 0 and doc["pass"] is True and doc["principals"] == ["1/1", "1/3"]


@pytest.mark.parametrize("suite, flag", [("thm1", "--qmax"), ("conjugacy", "-n"),
                                         ("keita", "-n"), ("eicf-best", "-n")])
def test_verify_nothing_exits_1(capsys, suite, flag):
    code, out, err = run(capsys, "verify", suite, "--input", SQRT2M1, flag, "0")
    assert code == 1 and out == ""
    assert err == f"error: verify {suite} at {flag} 0 checks nothing; give {flag} >= 1\n"


def test_verify_eicf_best_without_candidates_exits_1(capsys):
    # the first EICF convergent of sqrt(2) - 1 is not odd/odd; -n 6 finds
    # 3/7, 17/41 and 99/239
    code, out, err = run(capsys, "verify", "eicf-best", "--input", SQRT2M1, "-n", "1")
    assert code == 1 and out == ""
    assert err == ("error: verify eicf-best at -n 1 checks nothing: none of the "
                   "first 1 EICF convergents is odd/odd; give a larger -n\n")
    code, out, _ = run(capsys, "verify", "eicf-best", "--input", SQRT2M1, "-n", "6")
    doc = json.loads(out)
    assert code == 0 and doc["schema"] == 1 and doc["pass"] is True
    assert doc["odd_odd_candidates"] == ["3/7", "17/41", "99/239"]


def test_verify_intermediate_zero_exits_1(capsys):
    code, out, err = run(capsys, "verify", "intermediate", "--input", "0/1")
    assert code == 1 and out == "" and "x = 0" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-0.5", "lots"])
def test_measure_tol_must_be_finite(capsys, tol):
    # the verdict is exact, so no tolerance is taken, finite or not
    code, out, err = run(capsys, "measure", "--lo", "1/2", "--hi", "1/1", "--tol", tol)
    assert (code, out, err) == (1, "", f"error: oocf: unrecognized arguments: --tol {tol}\n")


def _no_constants(name):
    raise AssertionError(f"non-strict JSON constant {name}")


def test_json_lines_are_strict(capsys):
    corpus = Path(__file__).parent / "data" / "cli_golden.jsonl"
    argvs = [json.loads(line)["argv"] for line in corpus.read_text().splitlines()]
    argvs += [["measure", "--lo", "1/3", "--hi", "2/3", "--K", "1"],
              ["measure", "--lo", "1/1", "--hi", "1/1"]]
    parsed = 0
    for argv in argvs:
        if "ford-svg" in argv or "tsv" in argv or "text" in argv:
            continue
        _, out, _ = run(capsys, *argv)
        for line in out.splitlines():
            json.loads(line, parse_constant=_no_constants)
            parsed += 1
    assert parsed > 30


TINY = "1/1" + "0" * 400  # 1/10^400, written out


def test_measure_on_an_interval_past_the_float_range(capsys):
    # ln(hi/lo) once turned hi/lo into a float and exited 1 with OverflowError
    code, out, err = run(capsys, "measure", "--lo", TINY, "--hi", "1/2", "--K", "10")
    assert code == 0, err
    lines = out.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0], parse_constant=_no_constants)
    assert doc["rhs"] == pytest.approx(400 * math.log(10) - math.log(2), rel=1e-15)
    assert doc["pass"] is (code == 0)


def test_keita_on_a_huge_partial_quotient(capsys):
    # d_1 = 10^400: the chains are decided by their last step, not by
    # 10^400 + 1 denominators and errors
    start = time.perf_counter()
    code, doc = run_json(capsys, "verify", "keita", "--input", TINY, "-n", "1")
    assert time.perf_counter() - start < 1
    assert code == 0 and doc["pass"] is True
    assert doc["levels"] == [{"n": 1, "d_n": 10 ** 400, "denominator_chain": True,
                              "error_chain": True}]


def test_ford_svg_highlights_past_the_float_range(capsys):
    # from -n 403 the convergents of sqrt(2) - 1 pass 10^154, and 2*q*q and
    # scale*p once went through float and raised OverflowError
    _, plain, _ = run(capsys, "ford-svg")
    code, out, err = run(capsys, "ford-svg", "--input", SQRT2M1, "-n", "1000")
    assert (code, err) == (0, "")
    assert out.count("<circle") == plain.count("<circle") + 1000


def test_keita_reads_every_level_off_one_expansion(capsys):
    # once one expansion and one (p, q) pass per level: 2.5 s at -n 1000
    start = time.perf_counter()
    code, doc = run_json(capsys, "verify", "keita", "--input", SQRT2M1, "-n", "1000")
    assert time.perf_counter() - start < 0.6
    assert code == 0 and doc["pass"] is True
    assert [level["n"] for level in doc["levels"]] == list(range(1, 1001))


def test_keita_names_the_level_asked_for(capsys):
    # 1/2 = [0; 2] has one RCF digit; the error once named level 2
    code, out, err = run(capsys, "verify", "keita", "--input", "1/2", "-n", "3")
    assert (code, out, err) == (1, "", "error: input has only 1 RCF digits, need 3\n")
