"""Tests of the benchmark itself: every check accepts oocf's real output and
rejects a corrupted copy of it, and the traced mode counts the same twice
and puts every rebound name back.

    python3 -m pytest perfbench -q
"""

import json
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from random import Random
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import CLI_KINDS, WORKLOADS, verify  # noqa: E402


def _one_per_kind(name: str, seed: int = 7):
    wl = WORKLOADS[name]
    picked = {}
    for case in wl.cases(Random(f"{name}:{seed}")):
        picked.setdefault(case.kind, case)
    return wl, {kind: (case, wl.run(case)) for kind, case in picked.items()}


@pytest.fixture(scope="module")
def quad():
    return _one_per_kind("quad-periods")


@pytest.fixture(scope="module")
def thm1():
    wl = WORKLOADS["thm1-scan"]
    case = wl.cases(Random("thm1-scan:7"))[0]
    return wl, case, wl.run(case)


@pytest.fixture(scope="module")
def cli():
    return _one_per_kind("cli-requests")


def _fails(wl, case, out) -> None:
    assert verify(wl, case, out) is not None


def _flip(digits, i):
    a, eps = digits[i]
    return digits[:i] + ((a + 1, eps),) + digits[i + 1:]


def _expansion(e, **changes):
    fields = {"digits": e.digits, "terminator": e.terminator,
              "period_start": e.period_start}
    return SimpleNamespace(**{**fields, **changes})


def test_real_outputs_pass(quad, thm1, cli):
    for wl, runs in (quad, cli):
        for case, out in runs.values():
            assert verify(wl, case, out) is None, case.kind
    wl, case, out = thm1
    assert verify(wl, case, out) is None


def test_quad_checks_fail_on_corruption(quad):
    wl, runs = quad
    for kind, (case, (e, value, period, table)) in runs.items():
        n = len(e.digits)
        corrupt = [
            (_expansion(e, digits=_flip(e.digits, n // 2)), value, period, table),
            (_expansion(e, digits=e.digits[:-1]), value, period, table),
            (_expansion(e, terminator="finite"), value, period, table),
            (e, value, period, table[:5] + table[6:]),
            (e, value, period, table[:3] + [replace(table[3], p=table[3].p + 2)] + table[4:]),
        ]
        if kind == "periodic":
            pre, per = period
            corrupt += [
                (_expansion(e, period_start=pre + 1), value, period, table),
                (e, SimpleNamespace(p=value.p + 1, s=value.s, q=value.q, d=value.d),
                 period, table),
                (e, value, (pre, per + 1), table),
            ]
        else:
            corrupt += [
                (e, value + Fraction(1, 7), period, table),
                (e, value, (0, n), table),
            ]
        for out in corrupt:
            _fails(wl, case, out)


def test_thm1_checks_fail_on_corruption(thm1):
    wl, case, rep = thm1
    good = rep.oocf_list
    dropped = good[:2] + good[3:]
    for out in (replace(rep, passed=False),
                replace(rep, oocf_list=dropped, brute_list=dropped),
                replace(rep, brute_list=dropped),
                replace(rep, oocf_list=good + [Fraction(1, 10 ** 6 + 1)]),
                replace(rep, oocf_list=good[:-1] + [good[-1] + Fraction(2, good[-1].denominator)])):
        _fails(wl, case, out)


def _edit_json(stdout: str, edit) -> str:
    doc = json.loads(stdout)
    edit(doc)
    return json.dumps(doc) + "\n"


def _cli_corruptions(kind: str, stdout: str) -> list[str]:
    if kind == "ford-svg":
        first = stdout.index("<circle ")
        end = stdout.index("\n", first) + 1
        return [stdout[:first] + stdout[end:], stdout.replace("</svg>\n", "")]
    out = [stdout.rstrip("\n"), stdout + stdout,
           _edit_json(stdout, lambda d: d.update(schema=2)),
           stdout.replace("{", '{"nan": NaN, ', 1),
           stdout.replace("{", '{"inf": Infinity, ', 1)]

    def flip_first(rows):
        rows[0][0] += 1

    edits = {
        "expand-all": [lambda d: flip_first(d["expansions"][0]["digits"]),
                       lambda d: flip_first(d["expansions"][1]["digits"]),
                       lambda d: d["expansions"][1]["digits"].pop()],
        "convert": [lambda d: flip_first(d["digits"]),
                    lambda d: d.update(terminator="truncated")],
        "convergents": [lambda d: d["rows"].pop(2),
                        lambda d: d["rows"][1].update(principal="1/3"),
                        lambda d: d["rows"][1].update(eps_prod=-d["rows"][1]["eps_prod"])],
        "best": [lambda d: d["best"].pop(1), lambda d: d["best"].append("1/1000001")],
        "thm2": [lambda d: d.update({"pass": False}), lambda d: flip_first(d["period"]),
                 lambda d: d.update(preperiod=d["preperiod"] + 1)],
        "intermediate": [lambda d: d["principals"].pop(), lambda d: d.update({"pass": False})],
        "conjugacy": [lambda d: d.update(steps=d["steps"] + 1),
                      lambda d: d.update({"pass": False})],
        "keita": [lambda d: d["levels"].pop(), lambda d: d.update({"pass": False})],
        "eicf-best": [lambda d: d.update({"pass": False})],
    }[kind]
    return out + [_edit_json(stdout, e) for e in edits]


def test_cli_checks_fail_on_corruption(cli):
    wl, runs = cli
    assert set(runs) == set(CLI_KINDS)
    for kind, (case, (code, stdout, stderr)) in runs.items():
        _fails(wl, case, (2, stdout, stderr))
        _fails(wl, case, (code, stdout, "error: something\n"))
        for bad in _cli_corruptions(kind, stdout):
            _fails(wl, case, (code, bad, stderr))


def test_trace_counts_repeat_and_uninstall_restores():
    import oocf
    from oocf import approx, core, expansion

    wl = WORKLOADS["cli-requests"]
    cases = wl.cases(Random("cli-requests:3"))[:30]
    originals = (core.sign_linear, approx.sign_linear, expansion.oocf_branch_of,
                 oocf.expand, core.QuadIrr.__init__)
    layers = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            for case in cases:
                tracer.op(wl.run, case)
        finally:
            tracer.uninstall()
        layers.append({k: v for k, v in tracer.per_layer(len(cases)).items()
                       if not k.endswith("self_ms")})
        assert tracer.calls["core.sign_linear"] > 0
        assert tracer.calls["maps.oocf_branch_of"] > 0
    assert layers[0] == layers[1]
    assert originals == (core.sign_linear, approx.sign_linear, expansion.oocf_branch_of,
                         oocf.expand, core.QuadIrr.__init__)

