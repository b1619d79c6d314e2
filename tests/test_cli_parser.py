"""A CLI request whose first token names a subcommand is parsed by that
subcommand's parser alone, built on first use and kept for the process,
and the top level with all seven is built only for help and usage errors.
Checked against the parser that built all seven subcommands on every call
(``legacy_loops.build_parser``), put in place of the new parse step of
``cli.main``: help, usage errors and parsed requests match byte for byte,
on hand-picked requests and on the golden requests with one token dropped,
duplicated or swapped.  The one difference is on purpose: a lone trailing
``--`` is accepted.  Sequences of requests served by the kept parsers match
the same requests served by parsers built afresh.  And a spy counts the
parsers each request builds."""

import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import legacy_loops as old
from oocf import cli
from test_orbit_oracle import SETTINGS

NAMES = [row[0] for row in cli._SUBCOMMANDS]
GOLDEN = [json.loads(line)["argv"] for line in
          (Path(__file__).parent / "data" / "cli_golden.jsonl").read_text().splitlines()]


def _main(argv):
    """(exit, stdout, stderr) of one request; help exits through SystemExit."""
    out, err = StringIO(), StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _eager(argv):
    """The oracle parse step: all seven subcommands, whatever the request."""
    return old.build_parser().parse_args(argv)


def _legacy_main(argv):
    with mock.patch.object(cli, "_parse_args", _eager):
        return _main(argv)


@pytest.mark.parametrize("argv", [
    ["-h"], *([name, "-h"] for name in NAMES),
    [], ["bogus"], ["expand"], ["--input", "1/3"],
    ["verify", "nope", "--input", "1/3"],
    ["convergents", "--input", "1/3", "--format", "text"],
    ["ford-svg", "--format", "json"],
    ["expand", "--input", "1/3", "--bogus"],
    ["expand", "--inp", "1/3", "--max-digits", "x"],
    ["expand", "--input", "1/3", "extra"],
    ["expand", "--", "--input", "1/3"],
    ["expand", "--input", "1/3", "--", "x"],
    ["expand", "--input", "1/3", "--", "--"],
    ["expand", "-h", "bogus"],
    ["best", "--input", "1/3", "--qmax", "5", "x", "y"],
], ids=" ".join)
def test_help_and_usage_errors_match_legacy(argv):
    got = _main(argv)
    assert got == _legacy_main(argv)
    code, out, err = got
    if "-h" in argv:
        assert code == 0 and out.startswith("usage: oocf") and err == ""
    else:
        assert code == 1 and out == "" and err.startswith("error: oocf")


@pytest.mark.parametrize("argv, err", [
    (["expand", "--input", "1/3", "extra"], "oocf: unrecognized arguments: extra"),
    (["best", "--input", "1/3", "--qmax", "5", "x", "y"],
     "oocf: unrecognized arguments: x y"),
], ids=" ".join)
def test_leftover_tokens_are_a_top_level_error(argv, err):
    # the one argparse message the named path restates
    assert _main(argv) == (1, "", f"error: {err}\n")


@pytest.mark.parametrize("argv", [
    ["expand", "--input", "1/3"], ["expand", "--input", "1/3", "--all"],
    ["verify", "thm2", "--input", "(-3+1*sqrt(13))/2"],
    ["best", "--input", "1/3", "--qmax", "5", "--format", "text"],
    ["expand", "--input"], ["verify"],
], ids=" ".join)
def test_a_lone_trailing_double_dash_is_dropped(argv):
    # "--" ends the options; with nothing after it the request reads as without it
    assert _main([*argv, "--"]) == _main(argv) == _legacy_main(argv)


@pytest.mark.parametrize("argv", [
    ["expand", "--input=1/3"], ["expand", "--max-digits", "4", "--input", "2/7"],
    ["best", "--qmax", "5", "--input=(-1+1*sqrt(2))/1", "--format", "text"],
], ids=" ".join)
def test_requests_match_legacy(argv):
    got = _main(argv)
    assert got == _legacy_main(argv)
    assert got[0] == 0 and got[1] and got[2] == ""


def _parse(parse_args, argv):
    """What one parse step makes of argv: the namespace, or how it stopped,
    and what it printed."""
    out, err = StringIO(), StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            redirect_stdout(out), redirect_stderr(err):
        try:
            result = vars(parse_args(argv))
        except ValueError as exc:
            result = f"usage error: {exc}"
        except SystemExit as exc:
            result = f"exit {exc.code}"
    return result, out.getvalue(), err.getvalue()


@st.composite
def mutated_golden(draw):
    argv = list(draw(st.sampled_from(GOLDEN)))
    i = draw(st.integers(0, len(argv) - 1))
    how = draw(st.sampled_from(["drop", "duplicate", "swap"]))
    if how == "drop":
        del argv[i]
    elif how == "duplicate":
        argv.insert(i, argv[i])
    else:
        j = draw(st.integers(0, len(argv) - 1))
        argv[i], argv[j] = argv[j], argv[i]
    return argv


@SETTINGS
@given(mutated_golden())
def test_mutated_golden_requests_parse_as_legacy(argv):
    assert _parse(cli._parse_args, argv) == _parse(_eager, argv)
    assert _main(argv) == _legacy_main(argv)


def test_golden_requests_parse_as_legacy():
    handlers = []
    for argv in GOLDEN:
        got = _parse(cli._parse_args, argv)
        assert got == _parse(_eager, argv)
        assert _main(argv) == _legacy_main(argv)
        if isinstance(got[0], dict):       # a few golden lines are usage errors
            handlers.append(got[0]["func"].__name__)
    assert set(handlers) == {"_cmd_" + name.replace("-", "_") for name in NAMES}


REQUESTS = {
    "expand": ["expand", "--input", "1/3"],
    "convergents": ["convergents", "--input", "1/3", "-n", "2"],
    "best": ["best", "--input", "(-1+1*sqrt(2))/1", "--qmax", "20"],
    "convert": ["convert", "--from", "rcf", "--to", "oocf", "--digits", "3,2"],
    "verify": ["verify", "thm2", "--input", "(-3+1*sqrt(13))/2"],
    "measure": ["measure", "--lo", "1/2", "--hi", "1/1", "--K", "10"],
    "ford-svg": ["ford-svg", "--den-max", "2"],
}


@pytest.fixture
def built(monkeypatch):
    """The progs of the parsers built, in order, from an empty parser cache."""
    cli._subparser.cache_clear()
    progs = []
    init = cli._Parser.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        progs.append(self.prog)

    monkeypatch.setattr(cli._Parser, "__init__", spy)
    return progs


@pytest.mark.parametrize("name", NAMES)
def test_a_request_fills_one_subparser(built, name):
    # one parser in all: the subparser, filled, with no top level, and
    # none for a repeat or for its help
    code, out, _ = _main(REQUESTS[name])
    assert code in (0, 2) and out
    assert built == [f"oocf {name}"]
    built.clear()
    assert _main(REQUESTS[name]) == (code, out, "")
    assert _main([name, "-h"])[0] == 0
    assert built == []


def test_top_level_help_and_errors_build_all_seven(built):
    for argv in ([], ["-h"], ["bogus"], ["--input", "1/3"]):
        _main(argv)
        assert built == ["oocf", *(f"oocf {name}" for name in NAMES)], argv
        built.clear()


def test_main_reads_sys_argv(built, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["oocf", *REQUESTS["expand"]])
    for _ in range(2):
        assert cli.main() == 0
        assert capsys.readouterr().out.startswith('{"schema": 1, "input": "1/3", ')
    assert built == ["oocf expand"]


def _fresh_main(argv):
    """``_main`` with a subcommand parser built afresh for the request."""
    with mock.patch.object(cli, "_subparser", cli._subparser.__wrapped__):
        return _main(argv)


SEQUENCE = [["expand", "--input", "2/7", "--all"],
            ["expand", "--all", "--input", "2/7", "--max-digits", "x"],
            ["expand", "--input", "2/7", "--format", "text"],
            ["expand", "-h"],
            ["expand", "--input", "2/7", "--max-digits", "2"]]


def test_cached_parser_keeps_no_state_between_calls():
    # one parser serves every expand request of the process
    i = NAMES.index("expand")
    assert cli._subparser(i) is cli._subparser(i)
    cached = [_main(argv) for argv in SEQUENCE]
    assert cached == [_fresh_main(argv) for argv in SEQUENCE]
    assert [code for code, _, _ in cached] == [0, 1, 0, 0, 0]
    assert len(json.loads(cached[0][1])["expansions"]) == 2
    assert cached[2][1] == "(2,-1) (4,-1)  [tail_2m1]\n"   # one expansion, as text
    assert "expansions" not in json.loads(cached[4][1])
    # --all and --format text, set by earlier calls, do not reach the last
    args = cli._parse_args(SEQUENCE[4])
    assert vars(args) == vars(_eager(SEQUENCE[4]))
    assert args.all is False and args.format == "json"


def _kind(argv):
    parsed = _parse(_eager, argv)[0]
    if not isinstance(parsed, dict):
        return "usage"
    return "all" if parsed.get("all") else "text" if parsed.get("format") == "text" else ""


KINDS = {kind: [argv for argv in GOLDEN if _kind(argv) == kind]
         for kind in ("all", "text", "usage")}
KINDS["usage"] += [SEQUENCE[1], ["verify", "thm1", "--input", "1/3", "--qmax", "-1"]]
KINDS["help"] = [[name, "-h"] for name in NAMES]


@st.composite
def mixed_sequences(draw):
    """Up to four golden requests and one of each kind, in any order."""
    sequence = draw(st.lists(st.sampled_from(GOLDEN), max_size=4))
    sequence += [draw(st.sampled_from(argvs)) for argvs in KINDS.values()]
    return draw(st.permutations(sequence))


@SETTINGS
@given(mixed_sequences())
def test_cached_parsers_serve_sequences_as_fresh_ones(sequence):
    assert [_main(argv) for argv in sequence] == [_fresh_main(argv) for argv in sequence]
