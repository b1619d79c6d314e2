"""Best odd/odd rational approximation via Ford-circle geometry.

A reduced p/q with p, q odd is a best one-rational approximation of an
irrational x when |q*x - p| < |b*x - a| for every other reduced odd/odd a/b
with b <= q.  The exhaustive search scans odd denominators in ascending
order and keeps the strict successive minima of |b*x - a|; all comparisons
are integer sign decisions on squared errors in the quadratic field, so
there is no tolerance anywhere and (x being irrational) no ties either.
"""

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import isqrt

from .core import QuadIrr, format_real, sign_linear
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

    For each odd b only the two odd integers bracketing b*x can win, and of
    those only the nearer one, so the scan is O(qmax) with small integer
    work per step: one integer square root for floor(b*x) and two sign
    decisions in the field.
    """
    if not isinstance(x, QuadIrr):
        raise ValueError("best approximation is defined for irrational x only")
    if not 0 < x < 1:
        raise ValueError("input must lie in (0, 1)")
    p0, s0, d, q0 = x.p, x.s, x.d, x.q
    out: list[Fraction] = []
    best_a = best_b = 0  # squared error (best_a + best_b*sqrt(d))/q0^2
    have_best = False
    for b in range(1, qmax + 1, 2):
        bp = b * p0
        v = b * s0
        # floor(b*x) = floor((bp + v*sqrt(d)) / q0)
        r = isqrt(v * v * d)
        fl = r if v > 0 else -r - 1
        m = (bp + fl) // q0
        if m % 2:
            lo, hi = m, m + 2
        else:
            lo, hi = m - 1, m + 1
        # nearer odd candidate: sign of 2*b*x - (lo + hi)
        a = hi if sign_linear(2 * bp - (lo + hi) * q0, 2 * v, d) > 0 else lo
        u = bp - a * q0
        ca = u * u + v * v * d
        cb = 2 * u * v
        if not have_best or sign_linear(ca - best_a, cb - best_b, d) < 0:
            out.append(Fraction(a, b))
            best_a, best_b = ca, cb
            have_best = True
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
