"""Replay a fixed corpus of CLI requests and compare stdout and exit code
byte for byte.

``data/cli_golden.jsonl`` holds one request per line: the argv, the exit
code and the exact stdout, recorded before the digit loops were merged into
one orbit driver; the ``--format text`` requests on ``convergents`` and
``convert``, which printed JSON, were re-recorded as usage errors once
``--format`` offered only the formats a subcommand prints.  The ten lines
after the first 59 (``verify conjugacy`` and ``verify eicf-best`` with
``-n 200`` on 1/2, 1/3, 1/4, 999999/1000000 and a quadratic over
sqrt(99991)) were recorded while the even-integer digits still ran their
own value-level loop, before they were read off the odd-odd engine.  The
21 lines after those were recorded before four checks each took one exact
rule: ``verify intermediate`` on 2/7, 5/7, 1/2 and 999999/1000000 at
``-n`` 0, 1, 3 and 8, while a rational was still expanded whole;
``ford-svg`` at ``-n 0`` and ``-n 6`` on sqrt(2) - 1, before the
highlights were taken by one slice; ``best --qmax 5000`` on two quadratics
and ``verify thm1 --qmax 20000``, while the scan still chose between the
two odd integers bracketing b*x by a sign test.  The last 5 lines were
recorded before each ``QuadIrr`` quotient and Moebius image became one
closed form and ``convergents`` printed its rows from their reduced pairs:
``measure --lo 1/1000 --hi 999/1000 --K 2000``, ``verify conjugacy -n 60``
on two quadratics over sqrt(999999999989), and ``convergents -n 60
--format tsv`` and ``verify keita -n 8`` on the first of them.  Lines 54,
55 and 91, ``measure`` at ``--K`` 200, 3 and 2000, were re-recorded when
the verdict became an exact certificate and ``--tol`` went: the first two
dropped ``--tol`` from their argv, ``--K 3`` now passes, and all three
print ``"tol"`` as ln(1 + 1/K) and ``lhs`` and ``abs_diff`` from ln R_K.
It covers every subcommand, both output formats, rationals at the branch
endpoints (2k-1)/(2k+1) and k/(k+1), 0, 1, huge integers, quadratic
irrationals and a truncated conversion.
Requests whose answer was meant to change (usage errors, negative counts,
degenerate inputs) are not in it.
"""

import json
from pathlib import Path

import pytest

from oocf.cli import main

CORPUS = [json.loads(line) for line in
          (Path(__file__).parent / "data" / "cli_golden.jsonl").read_text().splitlines()]


@pytest.mark.parametrize("record", CORPUS, ids=[" ".join(r["argv"]) for r in CORPUS])
def test_cli_golden(record, capsys):
    code = main(list(record["argv"]))
    out, _ = capsys.readouterr()
    assert (code, out) == (record["exit"], record["stdout"])
