"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with -s to see them on success)."""

import math
import random
import time
from fractions import Fraction as F
from itertools import islice
from math import gcd

from oocf.core import QuadIrr, frac_sqrt, is_one_rational
from oocf.maps import (Interval, eicf_map, in_e1, in_e2, jump_transform,
                       measure_check, oocf_map)
from oocf.expansion import (FINITE, PERIODIC, TAIL_2M1, all_expansions,
                            detect_period, digit_stream, evaluate, expand)
from oocf.convergents import (convergence_gap, convergent_stream,
                              convergent_table, convergent_table_matrix)
from oocf.approx import best_one_rationals, keita_monotonicity, verify_thm1
from oocf.maps import branch_inverse
from oocf.rcf import (change_rcf, eicf_best_to_oocf, rcf_expand,
                      rcf_to_oocf, verify_conjugacy, verify_intermediate)

FIXTURES = [
    ("sqrt(2)-1", QuadIrr(-1, 1, 2, 1)),
    ("(sqrt(5)-1)/2", QuadIrr(-1, 1, 5, 2)),
    ("sqrt(3)-1", QuadIrr(-1, 1, 3, 1)),
    ("(sqrt(13)-3)/2", QuadIrr(-3, 1, 13, 2)),
    ("sqrt(7)-2", QuadIrr(-2, 1, 7, 1)),
]


def _report(num, desc, ok, extra=""):
    tag = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {tag}: {desc}{extra}")
    assert ok, f"criterion {num}: {desc}"


def _reduced(qmax):
    for q in range(2, qmax + 1):
        for p in range(1, q):
            if gcd(p, q) == 1:
                yield F(p, q)


def test_c01_two_expansion_completeness():
    t0 = time.perf_counter()
    ok = True
    for x in _reduced(99):
        both = all_expansions(x)
        if len(both) != 2 or both[0].digits == both[1].digits:
            ok = False
            break
        a, b = both
        if a.digits[:-1] != b.digits[:-1]:
            ok = False
            break
        want = FINITE if is_one_rational(x) else TAIL_2M1
        if not all(e.terminator == want and evaluate(e) == x for e in both):
            ok = False
            break
    elapsed = time.perf_counter() - t0
    _report(1, "two-expansion completeness for q <= 99", ok and elapsed < 10,
            f" ({elapsed:.2f}s)")


def test_c02_jump_equivalence():
    t0 = time.perf_counter()
    ok = True
    xs = [F(0), F(1)] + list(_reduced(200))
    for x in xs:
        if oocf_map(x) != jump_transform(in_e2, x):
            ok = False
            break
        if eicf_map(x) != jump_transform(in_e1, x):
            ok = False
            break
    elapsed = time.perf_counter() - t0
    _report(2, "odd-odd and even-integer maps equal Romik jumps for q <= 200",
            ok and elapsed < 10, f" ({elapsed:.2f}s)")


def test_c03_thm1_desk_scale():
    ok = True
    times = []
    for name, x in FIXTURES:
        rep = verify_thm1(x, 10 ** 4)
        times.append(rep.elapsed)
        if not rep.passed or rep.elapsed >= 60:
            ok = False
            break
    _report(3, "best one-rational list equals principal convergents, qmax 1e4",
            ok, f" (max {max(times):.2f}s per fixture)")


def test_c04_periodicity_all_small_discriminants():
    t0 = time.perf_counter()
    ok = True
    for d in range(2, 51):
        if math.isqrt(d) ** 2 == d:
            continue
        x = frac_sqrt(d)
        pre, per = detect_period(x)
        e = expand(x)
        if e.terminator != PERIODIC or (e.period_start, len(e.period)) != (pre, per):
            ok = False
            break
        if evaluate(e, disc=d) != x:
            ok = False
            break
    elapsed = time.perf_counter() - t0
    _report(4, "eventual periodicity and round-trip for frac(sqrt(D)), D <= 50",
            ok and elapsed < 30, f" ({elapsed:.2f}s)")


def test_c05_convergent_identities_random():
    rng = random.Random(20260810)
    failures = 0
    for _ in range(10 ** 4):
        digits = []
        for _ in range(rng.randint(1, 30)):
            a = rng.choice((1, 1, 1, 2, 2, 3, 4, 5, 7))
            e = 1 if a == 1 else rng.choice((1, -1))
            digits.append((a, e))
        scalar = convergent_table(digits)
        if scalar != convergent_table_matrix(digits):
            failures += 1
            continue
        for prev, t in zip(scalar, scalar[1:]):
            if not (t.p % 2 and t.q % 2):
                failures += 1
            if (t.p_sub + t.q_sub) % 2 != 1 or (t.p_pse + t.q_pse) % 2 != 1:
                failures += 1
            if t.p != t.p_sub + t.p_pse or t.q != t.q_sub + t.q_pse:
                failures += 1
            if abs(t.p_sub * t.q_pse - t.p_pse * t.q_sub) != 1:
                failures += 1
            if abs(prev.p * t.q - t.p * prev.q) != 2:
                failures += 1
            if t.q <= prev.q:
                failures += 1
    _report(5, "convergent identities on 1e4 random digit strings",
            failures == 0, f" ({failures} failures)")


def test_c06_convergence_bound():
    ok = True
    for name, x in FIXTURES:
        for t in islice(convergent_stream(digit_stream(x)), 31):
            if not convergence_gap(x, t).certified:
                ok = False
                break
    _report(6, "|x - p_n/q_n| < 2/q_n for fixtures, n <= 30", ok)


def test_c07_conversion():
    t0 = time.perf_counter()
    ok = True
    for x in _reduced(150):
        if rcf_to_oocf(rcf_expand(x)) != expand(x):
            ok = False
            break
    for name, x in FIXTURES:
        out = rcf_to_oocf(rcf_expand(x, max_digits=400))
        want = list(islice(digit_stream(x), 30))
        if list(out.digits[:30]) != want:
            ok = False
            break
    rng = random.Random(99)
    for _ in range(10 ** 3):
        q = rng.randint(2, 120)
        p = rng.randint(1, q - 1)
        y = F(p, q)
        a = rng.randint(1, 8)
        e = 1 if a == 1 else rng.choice((1, -1))
        if change_rcf((a, e), rcf_expand(y)).value() != branch_inverse((a, e), y):
            ok = False
            break
    elapsed = time.perf_counter() - t0
    _report(7, "RCF->OOCF matches expand (q <= 150, fixtures); inverse-branch "
               "rewriting matches on 1e3 pairs", ok, f" ({elapsed:.2f}s)")


def test_c08_intermediate_and_keita():
    ok = True
    for name, x in FIXTURES:
        if not verify_intermediate(x, 10).passed:
            ok = False
            break
        for level in range(1, 11):
            if not keita_monotonicity(x, level).passed:
                ok = False
                break
    ok = ok and verify_intermediate(F(8, 11), 10).passed
    ok = ok and verify_intermediate(F(1, 3), 10).passed
    ok = ok and keita_monotonicity(F(8, 11), 2).passed
    _report(8, "intermediate-convergent containment and Keita chains to n = 10", ok)


def test_c09_conjugacy_and_phi():
    t0 = time.perf_counter()
    ok = True
    from oocf.rcf import conjugacy
    for x in _reduced(150):
        if conjugacy(oocf_map(x)) != eicf_map(conjugacy(x)):
            ok = False
            break
        if not verify_conjugacy(x, 200).passed:
            ok = False
            break
    for name, x in FIXTURES:
        if not verify_conjugacy(x, 30).passed:
            ok = False
            break
        if not eicf_best_to_oocf(x, 10).passed:
            ok = False
            break
    elapsed = time.perf_counter() - t0
    _report(9, "even-integer conjugacy, digit correspondence, and best-list "
               "containment", ok, f" ({elapsed:.2f}s)")


def test_c10_measure_preservation():
    t0 = time.perf_counter()
    ok = True
    for lo, hi in ((F(1, 2), F(1)), (F(1, 3), F(2, 3)), (F(1, 10), F(1, 5))):
        r = measure_check(Interval(lo, hi), 2000)
        if not r.passed:
            ok = False
            break
    elapsed = time.perf_counter() - t0
    _report(10, "invariant measure dx/x verified on three intervals",
            ok and elapsed < 5, f" ({elapsed:.2f}s)")


def test_c11_performance_smoke():
    x = QuadIrr(-1, 1, 2, 1)
    t0 = time.perf_counter()
    best = best_one_rationals(x, 10 ** 6)
    elapsed = time.perf_counter() - t0
    # cross-check against the convergent route at full scale
    from oocf.approx import principal_convergents_up_to
    ok = best == principal_convergents_up_to(x, 10 ** 6)
    _report(11, "brute-force scan at qmax = 1e6", ok and elapsed < 10,
            f" ({elapsed:.2f}s, {len(best)} entries)")
