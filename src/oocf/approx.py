"""Best odd/odd rational approximation via Ford-circle geometry.

A reduced p/q with p, q odd is a best one-rational approximation of an
irrational x when |q*x - p| < |b*x - a| for every other reduced odd/odd a/b
with b <= q.  The exhaustive search visits odd denominators in ascending
order and keeps the strict successive minima of |b*x - a|.  An exact
fixed-point filter on x only chooses which denominators could set a new
minimum: from each, one Euclidean search finds the next denominator whose
fixed-point residue lies in the window of the best so far.  Every answer is
decided by integer sign tests on squared errors in the quadratic field, so
no tolerance decides anything and (x being irrational) there are no ties
either.
"""

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Optional

from .core import QuadIrr, _floor_mul_sqrt, _fraction, format_real, sign_linear
from .convergents import _check_qmax, principal_convergents_up_to
from .maps import _unit
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


def _first_hit(chain: list[int], L: int, R: int):
    """The least k >= 0 with L <= A*k mod M <= R, or None if there is none;
    for 0 <= A < M and 0 <= L <= R < M.  ``chain`` is the Euclid chain
    [M, A, M mod A, ...] of (M, A), cut anywhere after A: level i of the
    search asks the same question for A = chain[i] modulo M = chain[i - 1].
    The levels a question reaches past its end are appended to it, so one
    chain serves every question on one (A, M), and no level's remainder is
    taken twice.

    If [L, R] holds a multiple of A, A*k does not wrap before it and
    k = ceil(L/A).  Otherwise R - L < A, and A*k - M*y lies in [L, R] for
    some k exactly when M*y mod A lies in [(-R) mod A, (-L) mod A], an
    interval that does not wrap, as no t in [L, R] is a multiple of A.  The
    least such y, found by the same question one Euclid step down
    (Slater, Proc. Camb. Phil. Soc. 63, 1967), gives the least
    k = ceil((M*y + L)/A).  The steps are kept in a list, not on the call
    stack: there are as many as Euclid takes on (M, A).

    The least multiple of A from L on is L + r with r = (-L) mod A, so
    [L, R] holds one exactly when r <= R - L, and k = (L + r)/A; otherwise
    that r is the next level's upper end.  So a level that descends takes
    two divisions, one comparison and keeps one int, L + A - 1, for the
    back-substitution, which reads A and M off the chain again.
    """
    ceil_ends = []  # L + A - 1 per level passed: ceil((M*y + L)/A) as a floor
    i = 1
    while A := chain[i]:
        r = -L % A
        if r <= R - L:
            k = (L + r) // A
            break
        ceil_ends.append(L + A - 1)
        L, R = -R % A, r
        i += 1
        if i == len(chain):
            chain.append(chain[i - 2] % A)
    else:
        if L:  # A*k mod M is 0 for every k
            return None
        k = 0
    for L1 in reversed(ceil_ends):
        i -= 1
        k = (chain[i - 1] * k + L1) // chain[i]
    return k


def best_one_rationals(x: QuadIrr, qmax: int) -> list[Fraction]:
    """All best one-rational approximations of x with denominator <= qmax,
    ordered by denominator.

    For each odd b only the odd integer a nearest b*x can win, and that is
    a = 2*floor(b*x/2) + 1: with k = floor(b*x/2), b*x lies in [2k, 2k+2),
    so 2k+1 is within 1 of b*x and every other odd integer at least 1 away,
    strictly so as b*x is irrational.  b is a new best when |b*x - a| is a
    strict new minimum.  That is decided exactly: one integer square root
    for a and one sign test in the field for the strict minimum.

    Every winner a/b is in lowest terms, so it is built by
    ``core._fraction`` with no gcd.  For g = gcd(a, b) > 1, g is odd, so
    b/g is an odd denominator below b, and the odd numerator nearest
    (b/g)*x is at most |b*x - a|/g < |b*x - a| away from it, a/g being odd.
    The filter below lets through every b that beats the best so far, so
    the best error is at most that when the scan reaches b, and a/b is no
    strict new minimum.

    An exact integer filter chooses which b get that test; it never decides.
    With X = floor(x*2^K), h = 2^K and M = 2^(K+1), b = 2j + 1 has

        V_j = b*X mod M,  U_j = V_j - h,

    so |U_j| is the distance from b*X to the nearest odd multiple of h, and
    h*|b*x - a| is that distance from b*x*h, which lies in [b*X, b*X + b).
    The distance moves by at most its argument does, so |U_j| is within
    b <= qmax of h*|b*x - a|.  A b that beats the last best therefore has
    |U_j| < T = |U_best| + 2*qmax, that is h - T < V_j < h + T.  T starts
    above h, which lets b = 1, always the first best, through, and is set
    again at every new best.  From one j to the next V steps by 2X mod M,
    and from a V outside the window _first_hit jumps straight to the next
    j inside it, in O(log M) steps.  Every jump asks about the same (A, M)
    = (2X, M), so the scan builds one Euclid chain [M, A] for all of them,
    and each jump extends it only past the levels earlier jumps reached.

    Any K is exact; K only sets how many losers reach the exact test.  As
    |U_j| >= h*|b*x - a| - qmax and |U_best| <= h*|best error| + qmax, a
    loser passes only if its error is within 4*qmax/h of the best error so
    far.  K = 2*qmax.bit_length() + 64 makes h > 2^64*qmax^2 and that
    slack below 2^-62/qmax, while a best error at a denominator q <= qmax
    is about 1/q over a partial quotient of x.  With K = qmax.bit_length()
    + 64 the slack would be about 2^-62, which the best errors fall below
    past b = 2^60 or so; from there on nearly every b would be tested.
    """
    _check_qmax(qmax)
    if not isinstance(x, QuadIrr):
        raise ValueError("best approximation is defined for irrational x only")
    p0, s0, d, q0 = x.p, x.s, x.d, x.q
    K = 2 * qmax.bit_length() + 64
    h = 1 << K
    M = h << 1
    X = ((p0 << K) + _floor_mul_sqrt(s0 << K, d)) // q0
    if not 0 <= X < h:  # 0 < x < 1, as x is irrational
        raise ValueError("input must lie in (0, 1)")
    A = 2 * X  # V_(j+1) - V_j mod M
    chain = [M, A]
    out: list[Fraction] = []
    best_a = best_b = 0  # squared error (best_a + best_b*sqrt(d))/q0^2
    T = h + 1  # no best yet, and every |U_j| <= h
    j, V = 0, X
    while 2 * j + 1 <= qmax:  # V is in the window: b gets the exact test
        b = 2 * j + 1
        bp = b * p0
        v = b * s0
        a = 2 * ((bp + _floor_mul_sqrt(v, d)) // (2 * q0)) + 1
        u = bp - a * q0
        ca = u * u + v * v * d
        cb = 2 * u * v
        if not out or sign_linear(ca - best_a, cb - best_b, d) < 0:
            out.append(_fraction(a, b))
            best_a, best_b = ca, cb
            T = abs(V - h) + 2 * qmax
        j += 1
        V += A
        if V >= M:
            V -= M
        if T <= h and not h - T < V < h + T:
            k = _first_hit(chain, (h - T + 1 - V) % M, (h + T - 1 - V) % M)
            if k is None:
                break
            j += k
            V = (V + A * k) % M
    return out


@dataclass(frozen=True)
class Thm1Report:
    input: str
    qmax: int
    oocf_list: list[Fraction]
    brute_list: list[Fraction]
    passed: bool
    elapsed: float
    # the first index where the lists differ, or the shorter length when one
    # is a prefix of the other; None when they agree
    first_mismatch: Optional[int] = None


def verify_thm1(x: QuadIrr, qmax: int) -> Thm1Report:
    """Principal convergents with denominator <= qmax versus the exhaustive
    best one-rational list; the two must agree exactly and in order.

    The bound and the input are checked before any digit is read, with the
    messages of the two lists: a rational x has no best list, and its
    principal convergents could run to millions of digits first."""
    t0 = time.perf_counter()
    _check_qmax(qmax)
    if not isinstance(x, QuadIrr):
        _unit(x)  # an inexact x or one outside [0, 1] is refused as before
        raise ValueError("best approximation is defined for irrational x only")
    oocf_list = principal_convergents_up_to(x, qmax)
    brute_list = best_one_rationals(x, qmax)
    elapsed = time.perf_counter() - t0
    passed = oocf_list == brute_list
    first_mismatch = None
    if not passed:
        first_mismatch = next(
            (i for i, (c, b) in enumerate(zip(oocf_list, brute_list)) if c != b),
            min(len(oocf_list), len(brute_list)))
    return Thm1Report(format_real(x), qmax, oocf_list, brute_list, passed,
                      elapsed, first_mismatch)


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

    Both chains are affine in j: q_(n,j) = q_(n-2) + j*q_(n-1), and the
    error is |E_(n-2) + j*E_(n-1)| with E_k = q_k*x - p_k.  The
    denominators step by q_(n-1), so one step decides them all.  The error
    is convex in j, so its steps never decrease: the wedge makes the last
    step negative, and with it every step before.  So only j = d_n - 1 and
    d_n are evaluated, and a partial quotient of 10^400 costs no more than
    one of 2.
    """
    if n < 1:
        raise ValueError("level must be >= 1")
    return _keita_level(x, n, *next(islice(_rcf_pq(_rcf_digits(x, n)), n - 1, None)))


def keita_levels(x, n: int) -> list[KeitaReport]:
    """``keita_monotonicity(x, level)`` for level = 1..n, from one RCF
    expansion and one pass of its (p, q) recursion."""
    return [_keita_level(x, level, *row)
            for level, row in enumerate(_rcf_pq(_rcf_digits(x, n)), 1)]


def _rcf_digits(x, n: int) -> tuple[int, ...]:
    e = rcf_expand(x, max_digits=n)
    if len(e.digits) < n:
        raise ValueError(f"input has only {len(e.digits)} RCF digits, need {n}")
    return e.digits


def _keita_level(x, n: int, dn: int, p2: int, q2: int, p1: int, q1: int) -> KeitaReport:
    def err(j):
        return abs((q2 + j * q1) * x - (p2 + j * p1))

    # q_(n-2) < q_(n-1) except at n = 2 with d_1 = 1, where both equal 1
    left_ok = q2 < q1 or (n == 2 and q2 == q1 == 1)
    den_ok = left_ok and q1 <= q2 + q1 and (dn < 2 or q1 > 0)
    err_ok = err(dn) < abs(q1 * x - p1) <= err(dn - 1)
    return KeitaReport(n, dn, den_ok, err_ok)
