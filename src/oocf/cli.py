"""Command-line interface.

Subcommands: expand, convergents, best, convert, verify, measure, ford-svg.
Exit codes: 0 success or verification pass, 1 input or usage error,
2 verification failure.  ``_emit`` is the one writer of stdout (the
ford-svg document aside): it puts "schema": 1 first in every JSON line and
prints the text and TSV lines, so that a schema bump is made in one place.
All numbers use the grammar of core.parse_real.
"""

import argparse
import json
import sys
from functools import cache
from itertools import chain

from . import approx, maps, rcf, svg
from .core import QuadIrr, format_real, parse_real
from .expansion import PERIODIC, all_expansions, digit_stream, evaluate, expand
from .convergents import convergent_table

SCHEMA = 1


def _parse_input(text: str):
    x = parse_real(text)
    if x < 0 or x > 1:
        raise ValueError(f"input {text!r} outside [0, 1]")
    return x


def _at_least(lo):
    """argparse type for a count: ``int(text)``, >= lo."""
    def parse(text: str):
        try:
            value = int(text)
            if lo <= value:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected a finite int >= {lo}, got {text!r}")
    return parse


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, so that main reports them with exit 1."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _emit(obj, fmt: str = "json", text_lines=()) -> None:
    """Print one request's answer: ``obj`` as one line of strict JSON with
    "schema" first, or for ``--format text``/``tsv`` each of ``text_lines``."""
    if fmt == "json":
        text_lines = [json.dumps({"schema": SCHEMA, **obj}, allow_nan=False)]
    for line in text_lines:
        print(line)
    sys.stdout.flush()


def _exp_dict(e) -> dict:
    d = {"digits": [[a, eps] for a, eps in e.digits], "terminator": e.terminator}
    if e.terminator == PERIODIC:
        d["period_start"] = e.period_start
    return d


def _exp_text(e) -> str:
    body = " ".join(f"({a},{eps})" for a, eps in e.digits) or "(empty)"
    tail = e.terminator
    if e.terminator == PERIODIC:
        tail += f" from index {e.period_start}"
    return f"{body}  [{tail}]"


def _cmd_expand(args) -> int:
    x = _parse_input(args.input)
    exps = all_expansions(x) if args.all else [expand(x, max_digits=args.max_digits)]
    body = {"expansions": [_exp_dict(e) for e in exps]} if args.all else _exp_dict(exps[0])
    _emit({"input": format_real(x), **body}, args.format, map(_exp_text, exps))
    return 0


def _cmd_convergents(args) -> int:
    x = _parse_input(args.input)
    digits = [d for _, d in zip(range(args.n), digit_stream(x))]
    rows = convergent_table(digits)[1:]
    # each pair is a column of a digit-matrix product of det +-1, so it is
    # coprime with a positive denominator: printed as it is, not as a Fraction
    records = [{"n": t.n,
                "digit": list(digits[t.n - 1]),
                "principal": f"{t.p}/{t.q}",
                "sub": f"{t.p_sub}/{t.q_sub}",
                "pseudo": f"{t.p_pse}/{t.q_pse}",
                "eps_prod": t.eps_prod} for t in rows]
    _emit({"input": format_real(x), "rows": records}, args.format,
          chain(["n\tdigit\tprincipal\tsub\tpseudo\teps_prod"],
                (f"{r['n']}\t({r['digit'][0]},{r['digit'][1]})\t{r['principal']}"
                 f"\t{r['sub']}\t{r['pseudo']}\t{r['eps_prod']}" for r in records)))
    return 0


def _cmd_best(args) -> int:
    x = _parse_input(args.input)
    best = [format_real(c) for c in approx.best_one_rationals(x, args.qmax)]
    _emit({"input": format_real(x), "qmax": args.qmax, "best": best}, args.format, best)
    return 0


def _cmd_convert(args) -> int:
    # refuse an empty entry: dropping it would convert another string (1,,2 as 1,2)
    entries = args.digits.split(",") if args.digits.strip() else []
    empty = next((i for i, t in enumerate(entries, 1) if not t.strip()), 0)
    if empty:
        raise ValueError(f"--digits {args.digits!r}: entry {empty} is empty")
    e = rcf.RcfExpansion(tuple(map(int, entries)),
                         rcf.TRUNCATED if args.truncated else rcf.FINITE)
    _emit({"from": "rcf", "to": "oocf", "input_digits": list(e.digits),
           **_exp_dict(rcf.rcf_to_oocf(e))})
    return 0


def _cmd_measure(args) -> int:
    lo, hi = parse_real(args.lo), parse_real(args.hi)
    if isinstance(lo, QuadIrr) or isinstance(hi, QuadIrr):
        raise ValueError("measure endpoints must be rational")
    report = maps.measure_check(maps.Interval(lo, hi), args.K)
    _emit({"lo": format_real(lo), "hi": format_real(hi),
           "K": args.K, "tol": report.tol, "lhs": report.lhs, "rhs": report.rhs,
           "abs_diff": report.abs_diff, "pass": report.passed})
    return 0 if report.passed else 2


def _cmd_verify(args) -> int:
    x = _parse_input(args.input)
    suite = args.suite
    # at 0 these suites would check nothing and still report a pass
    # (intermediate checks 1/1 at -n 0)
    flag, count = ("--qmax", args.qmax) if suite == "thm1" else ("-n", args.n)
    if count == 0 and suite in ("thm1", "conjugacy", "keita", "eicf-best"):
        raise ValueError(f"verify {suite} at {flag} 0 checks nothing; "
                         f"give {flag} >= 1")
    if suite == "thm1":
        rep = approx.verify_thm1(x, args.qmax)
        passed, out = rep.passed, {
            "qmax": rep.qmax,
            "oocf_list": [format_real(c) for c in rep.oocf_list],
            "brute_list": [format_real(c) for c in rep.brute_list]}
    elif suite == "thm2":
        if not isinstance(x, QuadIrr):
            raise ValueError("thm2 verification needs a quadratic irrational input")
        e = expand(x)  # periodic, or it raises at the hard cap
        passed = evaluate(e, disc=x.d) == x
        out = {"preperiod": e.period_start, "period": [[a, eps] for a, eps in e.period]}
    elif suite == "intermediate":
        rep = rcf.verify_intermediate(x, args.n)
        passed, out = rep.passed, {
            "n": args.n,
            "principals": [format_real(c) for c in rep.principals],
            "missing": [format_real(c) for c in rep.missing]}
    elif suite == "conjugacy":
        rep = rcf.verify_conjugacy(x, args.n)
        passed, out = rep.passed, {"steps": rep.steps, "map_commutes": rep.map_commutes,
                                   "digits_correspond": rep.digits_correspond}
    elif suite == "keita":
        reports = approx.keita_levels(x, args.n)
        passed = all(r.passed for r in reports)
        out = {"levels": [{"n": r.level, "d_n": r.partial_quotient,
                           "denominator_chain": r.denominator_chain,
                           "error_chain": r.error_chain} for r in reports]}
    else:  # eicf-best
        try:
            rep = rcf.eicf_best_to_oocf(x, args.n)
        except ValueError:
            if not isinstance(x, QuadIrr):
                raise
            # an irrational is refused only when no candidate is odd/odd
            raise ValueError(f"verify eicf-best at -n {args.n} checks nothing: "
                             f"none of the first {args.n} EICF convergents is "
                             f"odd/odd; give a larger -n") from None
        passed, out = rep.passed, {
            "n": args.n,
            "odd_odd_candidates": [format_real(c) for c in rep.odd_odd],
            "missing": [format_real(c) for c in rep.missing]}
    _emit({"suite": suite, "input": format_real(x), **out, "pass": passed})
    return 0 if passed else 2


def _cmd_ford_svg(args) -> int:
    x = _parse_input(args.input) if args.input else None
    doc = svg.ford_svg(x, n_highlight=args.n, den_max=args.den_max)
    if args.output == "-":
        sys.stdout.write(doc)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(doc)
    return 0


_COUNT, _POSITIVE = _at_least(0), _at_least(1)

# One row per subcommand: name, help, handler, the --format choices it
# really prints (json is the default; None: no --format) and its arguments
# as (flags, add_argument keywords), in the order its help lists them.
_SUBCOMMANDS = (
    ("expand", "odd-odd digit expansion", _cmd_expand, ("json", "text"), (
        (("--input",), {"required": True}),
        (("--max-digits",), {"type": _COUNT, "default": 128, "dest": "max_digits"}),
        (("--all",), {"action": "store_true",
                      "help": "emit both expansions of a rational input"}))),
    ("convergents", "principal/sub/pseudo convergent table", _cmd_convergents,
     ("json", "tsv"), (
        (("--input",), {"required": True}),
        (("-n",), {"type": _COUNT, "default": 8}))),
    ("best", "best one-rational approximations by brute force", _cmd_best,
     ("json", "text"), (
        (("--input",), {"required": True}),
        (("--qmax",), {"type": _COUNT, "required": True}))),
    ("convert", "convert digit streams between expansions", _cmd_convert, ("json",), (
        (("--from",), {"dest": "src", "required": True, "choices": ["rcf"]}),
        (("--to",), {"dest": "dst", "required": True, "choices": ["oocf"]}),
        (("--digits",), {"required": True, "help": "comma-separated digits"}),
        (("--truncated",), {"action": "store_true", "help":
                            "treat the digit list as a prefix of a longer expansion"}))),
    ("verify", "verification suites", _cmd_verify, ("json",), (
        (("suite",), {"choices": ["thm1", "thm2", "intermediate",
                                  "conjugacy", "keita", "eicf-best"]}),
        (("--input",), {"required": True}),
        (("--qmax",), {"type": _COUNT, "default": 10 ** 4}),
        (("-n",), {"type": _COUNT, "default": 10}))),
    ("measure", "invariant measure check for the odd-odd map", _cmd_measure, ("json",), (
        (("--lo",), {"required": True}),
        (("--hi",), {"required": True}),
        (("--K",), {"type": _POSITIVE, "default": 2000}))),
    ("ford-svg", "Ford circle picture as standalone SVG", _cmd_ford_svg, None, (
        (("--input",), {"default": None}),
        (("-n",), {"type": _COUNT, "default": 4,
                   "help": "number of highlighted convergents"}),
        (("--den-max",), {"type": _POSITIVE, "default": 9, "dest": "den_max"}),
        (("-o", "--output"), {"default": "-"}))),
)


def _fill(p, row) -> argparse.ArgumentParser:
    """Give parser ``p`` the arguments and handler of one _SUBCOMMANDS row."""
    _, _, func, formats, arguments = row
    for flags, kwargs in arguments:
        p.add_argument(*flags, **kwargs)
    if formats:
        p.add_argument("--format", choices=formats, default="json")
    p.set_defaults(func=func)
    return p


def _build_parser() -> argparse.ArgumentParser:
    """The top level with all seven subcommands, for help and usage errors."""
    ap = _Parser(
        prog="oocf",
        description="Odd-odd continued fractions: expansion, convergents, "
                    "best odd/odd approximation, conversions, verification.")
    sub = ap.add_subparsers(dest="command", required=True)
    for row in _SUBCOMMANDS:
        _fill(sub.add_parser(row[0], help=row[1]), row)
    return ap


@cache
def _subparser(i: int) -> argparse.ArgumentParser:
    """The parser of ``_SUBCOMMANDS[i]``, as ``add_parser`` would make it.
    Kept for the process: a parse fills the namespace it is given and
    leaves no state behind (the defaults and types are immutable or pure,
    and a usage error raises out of ``_Parser.error``)."""
    row = _SUBCOMMANDS[i]
    return _fill(_Parser(prog=f"oocf {row[0]}"), row)


def _parse_args(argv) -> argparse.Namespace:
    """One request parsed.  The top level has no option but ``-h``, so when
    ``argv[0]`` names a subcommand argparse would hand that subparser every
    later token and report what it leaves over; that subparser alone parses
    here, the one ``_subparser`` keeps for the process, into a fresh
    namespace.  A lone trailing ``--`` ends the options and is dropped.
    Any other first token goes to a freshly built top level."""
    i = next((i for i, row in enumerate(_SUBCOMMANDS) if argv and row[0] == argv[0]), None)
    if i is None:
        return _build_parser().parse_args(argv)
    rest = argv[1:]
    if rest[-1:] == ["--"] and "--" not in rest[:-1]:
        rest = rest[:-1]
    args, extras = _subparser(i).parse_known_args(rest, argparse.Namespace(command=argv[0]))
    if extras:
        raise ValueError(f"oocf: unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_args(argv)
        return args.func(args)
    except (ValueError, ZeroDivisionError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
