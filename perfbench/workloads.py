"""The benchmark's workloads: seeded inputs, the timed op, and its check.

A workload builds one round of cases from its seed.  Each case carries the
op's input and the expected answer, computed by ``reference`` before any
timing starts; ``run`` is the timed call into oocf and ``check`` compares
its output with the expectation outside the timed region, raising
``CheckFailed`` on the first disagreement.  oocf functions are looked up
through their modules at call time, so that the traced mode sees the
rebound names.
"""

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

import reference as ref
from oocf import approx, cli, convergents, core, expansion


class CheckFailed(Exception):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Case:
    kind: str
    args: tuple
    want: dict


def _non_square(rng: random.Random, lo: float, hi: float) -> int:
    """A non-square radicand drawn log-uniformly from [lo, hi)."""
    while True:
        d = int(lo * (hi / lo) ** rng.random())
        if isqrt(d) ** 2 != d:
            return d


def _surd(rng: random.Random, d: int, smax: int, qmax: int):
    s = rng.randint(1, smax)
    q = rng.randint(1, qmax)
    return ref.surd_in_unit(d, s, q, rng.randrange(q))


def _quad(state, d):
    p, s, q = state
    return core.QuadIrr(p, s, d, q)


# ---------------------------------------------------------------------------
# quad-periods: expand to the period (or the digit budget), evaluate,
# detect_period, convergent_table

QUAD_ROUND = 48
QUAD_BAND = (250, 600)   # preperiod + period of the periodic cases
QUAD_STRATA = 8          # equal slices of QUAD_BAND, as many cases in each
QUAD_BUDGET = 450        # digits of the cases with a longer period


def quad_cases(rng: random.Random) -> list[Case]:
    """Half the cases have radicands in [10^2, 10^5.5) and preperiod plus
    period in QUAD_BAND, the same number in each of QUAD_STRATA slices of
    the band.  The other half have radicands stratified log-uniformly over
    [10^6, 10^12), one stratum per case, and stop at QUAD_BUDGET digits.
    Op cost follows the digit count, so every seed gets the same spread of
    op sizes."""
    half = QUAD_ROUND // 2
    lo, hi = QUAD_BAND
    strata = [[] for _ in range(QUAD_STRATA)]
    while any(len(s) < half // QUAD_STRATA for s in strata):
        d = _non_square(rng, 10 ** 2, 10 ** 5.5)
        state = _surd(rng, d, 3, 30)
        digits, pp = ref.surd_orbit(state, d, hi + 1)
        if pp and lo <= sum(pp) <= hi:
            stratum = strata[(sum(pp) - lo) * QUAD_STRATA // (hi - lo + 1)]
            if len(stratum) < half // QUAD_STRATA:
                stratum.append(Case("periodic", (_quad(state, d),),
                                    {"state": state, "d": d, "digits": digits, "pp": pp}))
    cases = [case for stratum in strata for case in stratum]
    for j in range(half):
        while True:
            d = _non_square(rng, 10 ** (6 + 6 * j / half), 10 ** (6 + 6 * (j + 1) / half))
            state = _surd(rng, d, 3, 30)
            digits, pp = ref.surd_orbit(state, d, QUAD_BUDGET + 2)
            if pp is None:
                break
        cases.append(Case("budget", (_quad(state, d),),
                          {"state": state, "d": d, "digits": digits[:QUAD_BUDGET], "pp": None}))
    return cases


def quad_run(case: Case):
    (x,) = case.args
    budget = None if case.kind == "periodic" else QUAD_BUDGET
    e = expansion.expand(x, max_digits=budget)
    value = expansion.evaluate(e, disc=x.d)
    try:
        period = expansion.detect_period(x, cap=budget or 10 ** 5)
    except RuntimeError as exc:  # no repeat within the budget
        period = exc
    table = convergents.convergent_table(e.digits)
    return e, value, period, table


def quad_check(case: Case, out) -> None:
    e, value, period, table = out
    w = case.want
    mats = ref.digit_matrices(w["digits"])
    digits = [tuple(t) for t in e.digits]
    expect(digits == w["digits"], "digits differ from the reference orbit")
    if case.kind == "periodic":
        pre, per = w["pp"]
        expect(e.terminator == "periodic" and e.period_start == pre,
               "expand: wrong terminator or period start")
        # evaluate inverts expand, over the input's own radicand
        p, s, q = w["state"]
        expect((getattr(value, "p", None), getattr(value, "s", None),
                getattr(value, "q", None), getattr(value, "d", None))
               == (p, s, q, w["d"]), "evaluate(expand(x)) != x")
        expect(period == (pre, per), "detect_period disagrees with expand")
    else:
        expect(e.terminator == "truncated", "expand: budget run not truncated")
        a, b, c, d = mats[-1]
        expect(value.numerator * (c + d) == value.denominator * (a + b),
               "evaluate of the prefix is not its principal convergent")
        expect(isinstance(period, RuntimeError),
               "detect_period found a period the reference did not")
    expect(len(table) == len(mats), "convergent table has the wrong length")
    # equal values by cross-multiplication: principal M(1), sub M(inf), pseudo M(0)
    for t, (a, b, c, d) in zip(table, mats):
        expect(t.p * (c + d) == t.q * (a + b) and t.p_sub * c == t.q_sub * a
               and t.p_pse * d == t.q_pse * b, f"convergent row {t.n} differs")
    _principal_properties(w["state"], w["d"], [(t.p, t.q) for t in table])


def _principal_properties(state, d, principals) -> None:
    """Each p/q, once reduced, is odd/odd, and |x - p/q| < 2/q."""
    for p, q in principals:
        g = gcd(p, q)
        expect((p // g) % 2 == 1 and (q // g) % 2 == 1, f"principal {p}/{q} is not odd/odd")
        expect(q > 0 and ref.within_two_over_q(state, d, p, q), f"|x - {p}/{q}| >= 2/q")


# ---------------------------------------------------------------------------
# thm1-scan: verify_thm1 at one qmax

THM1_ROUND = 24
THM1_QMAX = 10 ** 5


def thm1_cases(rng: random.Random) -> list[Case]:
    """Radicands stratified log-uniformly over [2, 10^6), one stratum per
    case; the scan costs the same order for all of them."""
    cases = []
    for i in range(THM1_ROUND):
        d = _non_square(rng, 2 * 5e5 ** (i / THM1_ROUND),
                        2 * 5e5 ** ((i + 1) / THM1_ROUND))
        state = _surd(rng, d, 3, 30)
        cases.append(Case("thm1", (_quad(state, d), THM1_QMAX),
                          {"state": state, "d": d,
                           "principals": ref.principal_convergents(state, d, THM1_QMAX)}))
    return cases


def thm1_run(case: Case):
    return approx.verify_thm1(*case.args)


def thm1_check(case: Case, rep) -> None:
    w = case.want
    expect(rep.passed, "verify_thm1 reports a failure")
    expect(rep.oocf_list == w["principals"],
           "principal convergents differ from the reference")
    expect(rep.brute_list == w["principals"],
           "best odd/odd list differs from the reference principal convergents")
    _principal_properties(w["state"], w["d"],
                          [(c.numerator, c.denominator) for c in rep.oocf_list])


# ---------------------------------------------------------------------------
# cli-requests: one in-process oocf.cli.main(argv) per op

CLI_PER_KIND = 10
CLI_KINDS = ("expand-all", "convert", "convergents", "best", "thm2",
             "intermediate", "conjugacy", "keita", "eicf-best", "ford-svg")


def _ladder(rng: random.Random, lo: int, hi: int, j: int) -> int:
    """An integer from the j-th of CLI_PER_KIND equal slices of [lo, hi], so
    that the requests of one kind span the range on every seed."""
    a = lo + (hi - lo + 1) * j // CLI_PER_KIND
    b = lo + (hi - lo + 1) * (j + 1) // CLI_PER_KIND - 1
    return rng.randint(a, max(a, b))


def _rational(rng: random.Random, lo: int, hi: int):
    """p/q in (0, 1) whose expansion has lo..hi digits, as (p, q, digits,
    terminator)."""
    while True:
        q = rng.randint(50, 5000)
        p = rng.randint(1, q - 1)
        if gcd(p, q) != 1:
            continue
        digits, term = ref.rational_digits(p, q)
        if lo <= len(digits) <= hi:
            return p, q, digits, term


def _cli_case(kind: str, rng: random.Random, j: int) -> Case:
    d = _non_square(rng, 2, 10 ** 6)
    state = _surd(rng, d, 2, 20)
    x = ref.surd_text(state, d)
    want = {"state": state, "d": d}
    if kind == "expand-all":
        n = _ladder(rng, 8, 40, j)
        p, q, digits, term = _rational(rng, n, n)
        argv = ["expand", "--input", f"{p}/{q}", "--all"]
        want = {"value": Fraction(p, q), "digits": digits, "terminator": term}
    elif kind == "convert":
        rcf = [rng.randint(1, 6) for _ in range(_ladder(rng, 4, 10, j))]
        value = Fraction(0)
        for t in reversed(rcf):
            value = 1 / (t + value)
        digits, term = ref.rational_digits(value.numerator, value.denominator)
        argv = ["convert", "--from", "rcf", "--to", "oocf",
                "--digits", ",".join(map(str, rcf))]
        want = {"digits": digits, "terminator": term}
    elif kind == "convergents":
        n = _ladder(rng, 6, 30, j)
        want["digits"] = ref.surd_digits(state, d, n)
        argv = ["convergents", "--input", x, "-n", str(n)]
    elif kind == "best":
        qmax = _ladder(rng, 500, 2000, j)
        want["best"] = ref.brute_best(state, d, qmax)
        want["principals"] = ref.principal_convergents(state, d, qmax)
        argv = ["best", "--input", x, "--qmax", str(qmax)]
    elif kind == "thm2":
        while True:
            d = _non_square(rng, 2, 2000)
            state = _surd(rng, d, 2, 10)
            digits, pp = ref.surd_orbit(state, d, 41)
            if pp:
                break
        pre, per = pp
        argv = ["verify", "thm2", "--input", ref.surd_text(state, d)]
        want = {"preperiod": pre, "period": digits[pre:]}
    elif kind == "ford-svg":
        den_max, n = _ladder(rng, 10, 30, j), rng.randint(2, 6)
        argv = ["ford-svg", "--input", x, "-n", str(n), "--den-max", str(den_max)]
        want = {"circles": ref.ford_circle_count(den_max, n)}
    else:
        n = _ladder(rng, *{"intermediate": (4, 12), "conjugacy": (5, 20),
                           "keita": (3, 8), "eicf-best": (4, 12)}[kind], j)
        want["n"] = n
        if kind == "intermediate":
            want["digits"] = ref.surd_digits(state, d, n)
        argv = ["verify", kind, "--input", x, "-n", str(n)]
    return Case(kind, (argv,), want)


def cli_cases(rng: random.Random) -> list[Case]:
    """CLI_PER_KIND requests of each kind, in a seeded order."""
    cases = [_cli_case(kind, rng, j) for kind in CLI_KINDS for j in range(CLI_PER_KIND)]
    rng.shuffle(cases)
    return cases


def cli_run(case: Case):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(case.args[0]))
    return code, out.getvalue(), err.getvalue()


def cli_check(case: Case, out) -> None:
    code, stdout, stderr = out
    w = case.want
    expect(code == 0 and stderr == "", f"exit {code}: {stderr.strip()}")
    expect(stdout.endswith("\n"), "output does not end with a newline")
    if case.kind == "ford-svg":
        expect(stdout.startswith("<?xml") and stdout.endswith("</svg>\n"),
               "not an SVG document")
        expect(stdout.count("<circle ") == w["circles"], "wrong Ford circle count")
        return
    lines = stdout.splitlines()
    expect(len(lines) == 1, "expected one line of JSON")
    try:
        doc = ref.strict_json(lines[0])
    except ValueError as exc:
        raise CheckFailed(f"not strict JSON: {exc}") from None
    expect(doc.get("schema") == 1, "missing schema 1")
    if case.kind == "expand-all":
        canon, twin = doc["expansions"]
        expect([tuple(t) for t in canon["digits"]] == w["digits"]
               and canon["terminator"] == w["terminator"],
               "canonical expansion differs from the reference")
        tail = 1 if w["terminator"] == "finite" else 0
        expect(twin["terminator"] == w["terminator"]
               and twin["digits"][:-1] == canon["digits"][:-1]
               and twin["digits"][-1] != canon["digits"][-1]
               and ref.evaluate_digits(twin["digits"], tail) == w["value"],
               "second expansion does not evaluate to the input")
    elif case.kind == "convert":
        expect([tuple(t) for t in doc["digits"]] == w["digits"]
               and doc["terminator"] == w["terminator"],
               "converted digits differ from the reference expansion")
    elif case.kind == "convergents":
        rows = ref.convergent_rows(w["digits"])[1:]
        expect(len(doc["rows"]) == len(rows), "wrong number of rows")
        eps_prod = 1
        for r, digit, (principal, sub, pseudo) in zip(doc["rows"], w["digits"], rows):
            eps_prod *= digit[1]
            expect(tuple(r["digit"]) == digit and Fraction(r["principal"]) == principal
                   and Fraction(r["sub"]) == sub and Fraction(r["pseudo"]) == pseudo
                   and r["eps_prod"] == eps_prod, f"convergent row {r['n']} differs")
        _principal_properties(w["state"], w["d"], [
            (c.numerator, c.denominator) for c in map(Fraction, (r["principal"] for r in doc["rows"]))])
    elif case.kind == "best":
        best = [Fraction(c) for c in doc["best"]]
        expect(best == w["best"], "best list differs from the brute-force search")
        expect(best == w["principals"], "best list differs from the principal convergents")
    else:
        expect(doc.get("pass") is True, f"verify {case.kind} does not pass")
        if case.kind == "thm2":
            expect(doc["preperiod"] == w["preperiod"]
                   and [tuple(t) for t in doc["period"]] == w["period"],
                   "thm2 period differs from the reference")
        elif case.kind == "intermediate":
            principals = [row[0] for row in ref.convergent_rows(w["digits"])]
            expect([Fraction(c) for c in doc["principals"]] == principals,
                   "intermediate: principal convergents differ from the reference")
        elif case.kind == "conjugacy":
            expect(doc["steps"] == w["n"], "conjugacy: wrong step count")
        elif case.kind == "keita":
            expect(len(doc["levels"]) == w["n"], "keita: wrong level count")


def verify(wl, case: Case, out):
    """None when the op's output passes its check, else what is wrong.  A
    malformed output that breaks the check itself counts as wrong."""
    try:
        wl.check(case, out)
    except CheckFailed as exc:
        return str(exc)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        return f"malformed output: {exc!r}"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    cases: object
    run: object
    check: object
    cal_units: int  # calibration units after each op: about a quarter of its time


WORKLOADS = {
    "quad-periods": Workload("quad-periods", quad_cases, quad_run, quad_check, 16),
    "thm1-scan": Workload("thm1-scan", thm1_cases, thm1_run, thm1_check, 64),
    "cli-requests": Workload("cli-requests", cli_cases, cli_run, cli_check, 2),
}
