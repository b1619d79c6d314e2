"""Best odd/odd rational approximation via Ford-circle geometry.

A reduced p/q with p, q odd is a best one-rational approximation of an
irrational x when |q*x - p| < |b*x - a| for every other reduced odd/odd a/b
with b <= q.  The exhaustive search visits odd denominators in ascending
order and keeps the strict successive minima of |b*x - a|.  An exact
fixed-point filter on x, jumping along residue classes of the denominators,
only chooses which denominators could set a new minimum; every answer is
decided by integer sign tests on squared errors in the quadratic field, so
no tolerance decides anything and (x being irrational) there are no ties
either.
"""

import time
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from math import isqrt

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


# Every j of the first block is a candidate, as the scan has no best yet at
# its start; each block after it is _BLOCK_GROWTH - 1 times as long as all
# before it (see best_one_rationals).  Measured with timeit: 64 was the
# fastest first block of 16 to 256 (qmax 20 to 5000), and 16 the fastest
# growth of 2 to 64 and of one block for the rest (qmax 50 to 10^6).
_FIRST_BLOCK = 64
_BLOCK_GROWTH = 16


def _check_qmax(qmax) -> None:
    if not isinstance(qmax, int) or qmax < 0:
        raise ValueError(f"qmax must be a non-negative int, got {qmax!r}")


def _stride_runs(X: int, K: int, T: int, j0: int, j1: int, L: int) -> list[range]:
    """Every j in [j0, j1) with |U_j| < T, where
    U_j = ((2j + 1)*X mod 2^(K+1)) - 2^K, as ranges of j.

    Exact for every stride L >= 1.  y_j = (U_j + T) mod 2^(K+1) is in
    (0, 2T) exactly when |U_j| < T (for T <= 2^K), and along the residue
    class r + m*L, y steps by eta = 2*L*X mod 2^(K+1).  With eta centred
    (by negating U, which keeps |U|, when eta > 2^K) the unwrapped line
    y_r + m*eta meets each window (c, c + 2T), c a multiple of 2^(K+1),
    in one interval of m, found by two floor divisions.  A class costs one
    step per multiple of 2^(K+1) its line crosses, and gives at most one
    range per window.
    """
    h = 1 << K
    if T > h:
        return [range(j0, j1)]
    M = h << 1
    mask = M - 1
    eta = 2 * L * X & mask
    sign = 1
    if eta > h:
        eta, sign = M - eta, -1
    y = sign * (2 * j0 + 1) * X + h + T & mask
    step = sign * 2 * X & mask
    width = 2 * T
    runs = []
    for r in range(j0, min(j0 + L, j1)):
        n = (j1 - 1 - r) // L + 1  # the class is r + m*L for m in [0, n)
        if eta == 0:
            if 0 < y < width:
                runs.append(range(r, j1, L))
        else:
            end = y + (n - 1) * eta
            c = 0 if y < width else M
            while c < end:
                m_lo = (c - y) // eta + 1
                m_hi = -((y - c - width) // eta)
                if m_lo < m_hi:
                    runs.append(range(r + max(m_lo, 0) * L, r + min(m_hi, n) * L, L))
                c += M
        y += step
        if y >= M:
            y -= M
    return runs


def best_one_rationals(x: QuadIrr, qmax: int) -> list[Fraction]:
    """All best one-rational approximations of x with denominator <= qmax,
    ordered by denominator.

    For each odd b only the odd integer a nearest b*x can win, and that is
    a = 2*floor(b*x/2) + 1: with k = floor(b*x/2), b*x lies in [2k, 2k+2),
    so 2k+1 is within 1 of b*x and every other odd integer at least 1 away,
    strictly so as b*x is irrational.  b is a new best when |b*x - a| is a
    strict new minimum.  That is decided exactly: one integer square root
    for a and one sign test in the field for the strict minimum.

    An exact integer filter chooses which b get that test; it never decides.
    With K = qmax.bit_length() + 64 and X = floor(x*2^K), b = 2j + 1 has

        U_j = (b*X mod 2^(K+1)) - 2^K,

    so |U_j| is the distance from b*X to the nearest odd multiple of 2^K,
    and 2^K*|b*x - a| is that distance from b*x*2^K, which lies in
    [b*X, b*X + b).  The distance moves by at most its argument does, so
    |U_j| is within b <= qmax of 2^K*|b*x - a|.  A b that beats the last
    best therefore has |U_j| < T = |U_best| + 2*qmax; before the first best
    every b passes.

    The j are walked in blocks [0, _FIRST_BLOCK), then up to each next
    _BLOCK_GROWTH-fold multiple.  The first block steps through every j,
    U by U_(j+1) = U_j + 2X mod 2^(K+1), as the scan has no best at its
    start.  In each later block T is held at its value from the start of
    the block; it only shrinks, so the block's candidates are a superset of
    those that pass the current T, which each candidate is checked against
    again before its exact test, in ascending b.  Inside a block, _stride_runs
    finds the j with |U_j| < T along the residue classes modulo a stride
    L.  Any L is exact; L only sets the speed.  L is the largest RCF
    convergent denominator of X/2^K that is at most isqrt(4*block); with
    q' the next one, 2*L*X is within 2^(K+1)/q' of a multiple of 2^(K+1)
    (Khinchin, Continued Fractions, 1935), so a block costs L classes and
    about block/q' window crossings, O(sqrt(block)) steps, plus its
    candidates.  The bound is 2*sqrt(block) rather than sqrt(block)
    because a crossing costs more than a class.
    """
    _check_qmax(qmax)
    if not isinstance(x, QuadIrr):
        raise ValueError("best approximation is defined for irrational x only")
    p0, s0, d, q0 = x.p, x.s, x.d, x.q
    K = qmax.bit_length() + 64
    h = 1 << K
    mask = (h << 1) - 1
    X = ((p0 << K) + _floor_mul_sqrt(s0 << K, d)) // q0
    if not 0 <= X < h:  # 0 < x < 1, as x is irrational
        raise ValueError("input must lie in (0, 1)")
    J = (qmax + 1) // 2  # b = 2j + 1 for j in [0, J)
    # the strides: RCF convergent denominators of X/2^K up to top, by
    # Euclid on (2^K, X); rcf_digit_stream would take 15-20 us in Fraction
    # steps, as long as the whole scan at qmax 50
    dens = [1]
    if J > _FIRST_BLOCK:
        top = isqrt(4 * J)  # isqrt(4*block) for the longest possible block
        n, m, q2, q1 = h, X, 0, 1
        while m:
            q2, q1 = q1, n // m * q1 + q2
            if q1 > top:
                break
            dens.append(q1)
            n, m = m, n % m
    out: list[Fraction] = []
    best_a = best_b = 0  # squared error (best_a + best_b*sqrt(d))/q0^2
    T = h + 1  # no best yet, and every |U_j| <= 2^K
    j0, j1 = 0, min(_FIRST_BLOCK, J)
    js = range(j1)  # every j of the first block is a candidate
    w, step = X - h, 2 * X  # U_0, and U_(j+1) - U_j mod 2^(K+1)
    while True:
        for j in js:
            if j0:
                w = ((2 * j + 1) * X & mask) - h
            if -T < w < T:
                b = 2 * j + 1
                bp = b * p0
                v = b * s0
                a = 2 * ((bp + _floor_mul_sqrt(v, d)) // (2 * q0)) + 1
                u = bp - a * q0
                ca = u * u + v * v * d
                cb = 2 * u * v
                if not out or sign_linear(ca - best_a, cb - best_b, d) < 0:
                    out.append(Fraction(a, b))
                    best_a, best_b = ca, cb
                    T = abs(w) + 2 * qmax
            if not j0:  # the first block walks every j: U by one step
                w += step
                if w >= h:
                    w -= mask + 1
        j0, j1 = j1, min(_BLOCK_GROWTH * j1, J)
        if j0 >= J:
            return out
        L = dens[bisect_right(dens, isqrt(4 * (j1 - j0))) - 1]
        js = sorted(chain.from_iterable(_stride_runs(X, K, T, j0, j1, L)))


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
    _check_qmax(qmax)
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
