"""The CLI parser of a request builds only the subcommand its first token
names, and all seven when that token names none.  Checked against the
parser that built all seven subcommands on every call
(``legacy_loops.build_parser``): help, usage errors and parsed requests
match byte for byte, on hand-picked requests and on the golden requests
with one token dropped, duplicated or swapped.  And a spy counts the
subparsers each request builds."""

import argparse
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
    """The oracle: all seven subcommands, whatever the request."""
    return old.build_parser()


def _legacy_main(argv):
    with mock.patch.object(cli, "_build_parser", _eager):
        return _main(argv)


@pytest.mark.parametrize("argv", [
    ["-h"], *([name, "-h"] for name in NAMES),
    [], ["bogus"], ["expand"], ["--input", "1/3"],
    ["verify", "nope", "--input", "1/3"],
    ["convergents", "--input", "1/3", "--format", "text"],
    ["ford-svg", "--format", "json"],
    ["expand", "--input", "1/3", "--bogus"],
    ["expand", "--inp", "1/3", "--max-digits", "x"],
], ids=" ".join)
def test_help_and_usage_errors_match_legacy(argv):
    got = _main(argv)
    assert got == _legacy_main(argv)
    code, out, err = got
    if "-h" in argv:
        assert code == 0 and out.startswith("usage: oocf") and err == ""
    else:
        assert code == 1 and out == "" and err.startswith("error: oocf")


def _parse(build, argv):
    """What one parser makes of argv: the namespace, or how it stopped, and
    what it printed."""
    out, err = StringIO(), StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            redirect_stdout(out), redirect_stderr(err):
        try:
            result = vars(build(argv).parse_args(argv))
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
    assert _parse(cli._build_parser, argv) == _parse(_eager, argv)


def test_golden_requests_parse_as_legacy():
    handlers = []
    for argv in GOLDEN:
        got = _parse(cli._build_parser, argv)
        assert got == _parse(_eager, argv)
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
    """The names of the subparsers built, in order."""
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    return names


@pytest.mark.parametrize("name", NAMES)
def test_a_request_fills_one_subparser(built, name):
    code, out, _ = _main(REQUESTS[name])
    assert code in (0, 2) and out
    assert built == [name]
    built.clear()
    assert _main([name, "-h"])[0] == 0
    assert built == [name]


def test_top_level_help_and_errors_build_all_seven(built):
    for argv in ([], ["-h"], ["bogus"], ["--input", "1/3"]):
        _main(argv)
        assert built == NAMES, argv
        built.clear()


def test_main_reads_sys_argv(built, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["oocf", *REQUESTS["expand"]])
    assert cli.main() == 0
    assert capsys.readouterr().out.startswith('{"schema": 1, "input": "1/3", ')
    assert built == ["expand"]
