"""Best odd/odd rational approximation via Ford-circle geometry.

A reduced p/q with p, q odd is a best one-rational approximation of an
irrational x when |q*x - p| < |b*x - a| for every other reduced odd/odd a/b
with b <= q.  The exhaustive search scans odd denominators in ascending
order and keeps the strict successive minima of |b*x - a|.  A float pass
with a proven error bound only chooses which denominators could set a new
minimum; every answer is decided by integer sign tests on squared errors in
the quadratic field, so no tolerance decides anything and (x being
irrational) there are no ties either.
"""

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import inf

from .core import QuadIrr, _floor_mul_sqrt, format_real, sign_linear
from .convergents import principal_convergents_up_to
from .rcf import _rcf_pq, rcf_expand


def ford_radius(r: Fraction) -> Fraction:
    """Radius 1/(2 q^2) of the Ford circle based at p/q."""
    r = Fraction(r)
    return Fraction(1, 2 * r.denominator ** 2)


def ford_tangent(r1: Fraction, r2: Fraction) -> bool:
    """Two Ford circles are tangent iff |a d - b c| = 1 for bases a/b, c/d."""
    r1, r2 = Fraction(r1), Fraction(r2)
    return abs(r1.numerator * r2.denominator - r2.numerator * r1.denominator) == 1


def err_sq(base: Fraction, x):
    """|b*x - a|^2, exact, for base a/b."""
    base = Fraction(base)
    e = base.denominator * x - base.numerator
    return e * e


def horo_radius(base: Fraction, x):
    """Radius of the horocycle at x tangent to the Ford circle at base:
    |b*x - a|^2 / 2."""
    return err_sq(base, x) / 2


def best_one_rationals(x: QuadIrr, qmax: int) -> list[Fraction]:
    """All best one-rational approximations of x with denominator <= qmax,
    ordered by denominator.

    For each odd b only the odd integer a nearest b*x can win, and that is
    a = 2*floor(b*x/2) + 1: with k = floor(b*x/2), b*x lies in [2k, 2k+2),
    so 2k+1 is within 1 of b*x and every other odd integer at least 1 away,
    strictly so as b*x is irrational.  b is a new best when |b*x - a| is a
    strict new minimum.  That is decided exactly: one integer square root
    for a and one sign test in the field for the strict minimum.

    A float filter chooses which b get that exact test; it never decides.
    w tracks b*x minus an odd integer c, kept in [-1, 1] by additions only:
    w starts at xf - 1 for b = 1, then w += 2*xf and, when w >= 1, w -= 2.
    The drift of w from b*x - c is at most delta = (qmax + 1)*2^-52:

    - xf = float(x) is within one ulp of x, at most 2^-53 below 1, so b*xf
      is within qmax*2^-53 of b*x;
    - each of the fewer than qmax/2 additions has a sum below 3 and rounds
      by at most 2^-52; xf - 1 rounds by at most 2^-54, and subtracting 2
      from a value in [1, 3] is exact (Sterbenz).

    a is the odd integer nearest b*x, so the last exact best has error
    e_best <= |w_best| + delta.  A b with
    |b*x - a| < e_best has |w| <= |b*x - a| + delta < |w_best| + 2*delta
    when c = a.  When c != a, |b*x - c| <= 1 + delta puts b*x at least
    1 - delta from a, so e_best > 1 - delta and the same bound exceeds
    1 >= |w|.  So every b that can win has |w| < thr = |w_best| + 2*delta,
    and only those get the exact test.  Before the first best thr is
    infinite, so b = 1 is always tested.  qmax is clamped at 2^53 in delta,
    so no qmax overflows a float; from about qmax = 2^50 on thr exceeds 1
    and every b is tested: slow, never wrong.  The same happens for x
    within about 2*delta of 0, where every error is close to 1.
    """
    if not isinstance(x, QuadIrr):
        raise ValueError("best approximation is defined for irrational x only")
    if not 0 < x < 1:
        raise ValueError("input must lie in (0, 1)")
    p0, s0, d, q0 = x.p, x.s, x.d, x.q
    out: list[Fraction] = []
    best_a = best_b = 0  # squared error (best_a + best_b*sqrt(d))/q0^2
    xf = float(x)
    step = 2.0 * xf
    delta = (min(qmax, 1 << 53) + 1) / (1 << 52)
    thr = inf
    w = xf - 1.0  # at b = 1
    for b in range(1, qmax + 1, 2):
        if -thr < w < thr:
            bp = b * p0
            v = b * s0
            a = 2 * ((bp + _floor_mul_sqrt(v, d)) // (2 * q0)) + 1
            u = bp - a * q0
            ca = u * u + v * v * d
            cb = 2 * u * v
            if not out or sign_linear(ca - best_a, cb - best_b, d) < 0:
                out.append(Fraction(a, b))
                best_a, best_b = ca, cb
                thr = abs(w) + 2 * delta
        w += step
        if w >= 1.0:
            w -= 2.0
    return out


@dataclass(frozen=True)
class Thm1Report:
    input: str
    qmax: int
    oocf_list: list[Fraction]
    brute_list: list[Fraction]
    passed: bool
    elapsed: float


def verify_thm1(x: QuadIrr, qmax: int) -> Thm1Report:
    """Principal convergents with denominator <= qmax versus the exhaustive
    best one-rational list; the two must agree exactly and in order."""
    t0 = time.perf_counter()
    oocf_list = principal_convergents_up_to(x, qmax)
    brute_list = best_one_rationals(x, qmax)
    elapsed = time.perf_counter() - t0
    return Thm1Report(format_real(x), qmax, oocf_list, brute_list,
                      oocf_list == brute_list, elapsed)


@dataclass(frozen=True)
class KeitaReport:
    level: int
    partial_quotient: int
    denominator_chain: bool
    error_chain: bool

    @property
    def passed(self) -> bool:
        return self.denominator_chain and self.error_chain


def keita_monotonicity(x, n: int) -> KeitaReport:
    """Monotone chains along the intermediate convergents at RCF level n:

        q_(n,0) = q_(n-2) < q_(n-1) <= q_(n,1) < ... < q_(n,d_n) = q_n

    and, reversed, the errors |q_(n,j)*x - p_(n,j)| decrease strictly from
    j = 0 down to |q_n*x - p_n|, with |q_(n-1)*x - p_(n-1)| wedged between
    the last two.  All comparisons exact.
    """
    if n < 1:
        raise ValueError("level must be >= 1")
    e = rcf_expand(x, max_digits=n)
    if len(e.digits) < n:
        raise ValueError(f"input has only {len(e.digits)} RCF digits, need {n}")
    dn, p2, q2, p1, q1 = next(islice(_rcf_pq(e.digits), n - 1, None))
    qs = [q2 + j * q1 for j in range(dn + 1)]
    errs = [abs((q2 + j * q1) * x - (p2 + j * p1)) for j in range(dn + 1)]
    err_prev = abs(q1 * x - p1)
    # q_(n-2) < q_(n-1) except at n = 2 with d_1 = 1, where both equal 1
    left_ok = q2 < q1 or (n == 2 and q2 == q1 == 1)
    den_ok = (left_ok and q1 <= qs[1]
              and all(qs[j] < qs[j + 1] for j in range(1, dn)))
    err_ok = (errs[dn] < err_prev and err_prev <= errs[dn - 1]
              and all(errs[j] < errs[j - 1] for j in range(1, dn)))
    return KeitaReport(n, dn, den_ok, err_ok)
