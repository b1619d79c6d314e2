"""Interval maps on [0,1]: Gauss, Farey, Romik, even-integer CF, odd-odd CF.

The odd-odd map T acts on the partition B(k+1,-1) = [(k-1)/k, (2k-1)/(2k+1)]
and B(k,1) = [(2k-1)/(2k+1), k/(k+1)] by

    T(x) = (k*x - (k-1)) / (k - (k+1)*x)   on B(k+1,-1),
    T(x) = (k - (k+1)*x) / (k*x - (k-1))   on B(k,1),       T(1) = 1.

Each branch is the inverse of the Moebius action of one integer matrix,
digit_matrix(a, eps); every branch fact below is read off that matrix.
Branch intervals share endpoints; digit extraction is made single-valued by
the half-open convention k = floor(1/(1-x)), which sends the boundary point
(2k-1)/(2k+1) to the (k,1) branch and k/(k+1) to the (k+2,-1) branch.  The
even-integer map closes branch intervals on the right instead, mirroring
this convention under the conjugacy x -> (1-x)/(1+x).

Both the odd-odd and even-integer maps arise as jump transformations of the
Romik map over the hitting sets E2 = [0,1/2] u {1} and E1 = {0} u [1/3,1]:
each jump is one run of Romik's map in closed form and one Romik step.

The odd-odd digit loops run on bare integers (``oocf_rational_step``,
``oocf_surd_step``) by one rule read off the map.  With y = 1/(1-x),
k = floor(y) and f = y - k, the branch formulas above become
T(x) = (k+1-y)/(y-k) = (1-f)/f on B(k,1) and (y-k)/(k+1-y) = f/(1-f) on
B(k+1,-1), that is T(x) = F(f) for the Farey map F; and x < (2k-1)/(2k+1)
exactly when f < 1/2.  So one step is: take the reciprocal of 1-x, take off
its integer part k, compare the rest f with 1/2, and apply one Farey branch,
with digit (k+1,-1) when f < 1/2 and (k,1) otherwise.

The one parabolic branch, (2,-1), is x -> x/(1-2x) = 1/(1/x - 2) on
[0, 1/3), Romik's first branch; its n-th iterate is 1/(1/x - 2n), so the
integer steps return a whole run of (2,-1) digits as one (digit, count,
state).  From x in (0, 1/3) the run lasts while 1/x - 2j > 3, for the n
values j = 0 .. n-1, and ends at 1/(1/x - 2n), in [1/3, 1).  On x = p/q
that is (2j + 3)p < q, so n = (q - p - 1) // (2p) and the run ends at
(p, q - 2np).  On an irrational x it is n = (floor(1/x) - 1) // 2, which
is 0 for x in (1/3, 1).  On a surd the step meets the run holding the
state of 1/x', x' = f/(1-f) being the image of its first (2,-1) digit:
one more floor gives the n' = (floor(1/x') - 1) // 2 digits left, and
subtracting 2n' from 1/x' before the reciprocal lands past them.  A run
stops exactly when the orbit first enters E1: it is the run of the jump
over E1, the even-integer map, before its final Romik step.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .core import Mat2, QuadIrr

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


class OocfDigit(NamedTuple):
    a: int
    eps: int


_new = tuple.__new__
_TWO_MINUS = OocfDigit(2, -1)


def _unit(x):
    """x itself, checked to be exact and in [0, 1]; an int becomes a Fraction.
    A QuadIrr is irrational, so it lies in [0, 1] exactly when its floor is 0."""
    if type(x) is QuadIrr:
        if math.floor(x) != 0:
            raise ValueError(f"input {x!r} outside [0, 1]")
        return x
    if not isinstance(x, (int, Fraction, QuadIrr)):
        raise ValueError(f"input {x!r} is not exact: pass an int, Fraction or QuadIrr")
    if x < 0 or x > 1:
        raise ValueError(f"input {x!r} outside [0, 1]")
    return Fraction(x) if isinstance(x, int) else x


def check_digit(a: int, eps: int) -> None:
    """Digit legality: ints a >= 1 and eps = +-1, and (1,-1) forbidden."""
    if not (isinstance(a, int) and isinstance(eps, int) and a >= 1 and eps in (1, -1)):
        raise ValueError(f"illegal digit ({a}, {eps})")
    if a == 1 and eps == -1:
        raise ValueError("illegal digit (1, -1)")


# ---------------------------------------------------------------------------
# The classical maps

def gauss_step(x):
    """Regular continued fraction digit of x in (0, 1] and G(x)."""
    r = 1 / x
    d = math.floor(r)
    return d, r - d


def gauss(x):
    """G(x) = frac(1/x), G(0) = 0."""
    x = _unit(x)
    if x == 0:
        return ZERO
    return gauss_step(x)[1]


def farey(x):
    """F(x) = x/(1-x) on [0,1/2], (1-x)/x on [1/2,1]."""
    x = _unit(x)
    if x <= HALF:
        return x / (1 - x)
    return (1 - x) / x


def romik(x):
    """Three-branch Romik map; branch values agree at shared endpoints."""
    x = _unit(x)
    if x <= THIRD:
        return x / (1 - 2 * x)
    if x <= HALF:
        return 1 / x - 2
    return 2 - 1 / x


# ---------------------------------------------------------------------------
# Odd-odd continued fraction map

def oocf_branch_of(x) -> tuple[int, int]:
    """Digit (a, eps) of the canonical branch containing x in [0, 1)."""
    x = _unit(x)
    if x == 1:
        raise ValueError("x = 1 carries no digit (expansion terminator)")
    k = math.floor(1 / (1 - x))
    if x < Fraction(2 * k - 1, 2 * k + 1):
        return (k + 1, -1)
    return (k, 1)


def branch_apply(digit: tuple[int, int], x):
    """Value of the odd-odd branch labelled by ``digit`` at x: the action
    of the adjugate of digit_matrix(digit), the inverse Moebius map."""
    a, b, c, d = digit_matrix(*digit)
    return Mat2(d, -b, -c, a).apply(x)


def oocf_step(x):
    """Digit of x in [0, 1) and its image under the odd-odd map."""
    d = oocf_branch_of(x)
    return d, branch_apply(d, x)


def oocf_map(x):
    """The odd-odd continued fraction map; fixes 0 and 1."""
    x = _unit(x)
    if x == 1:
        return ONE
    return oocf_step(x)[1]


def oocf_rational_step(state):
    """Odd-odd step on x = p/q in [0, 1) held as its coprime pair (p, q),
    off the ends (0, 1) and (1, 1): (digit, count, pair of T^count(x)), a
    whole run of (2,-1) digits at once and count 1 for any other digit.

    1/(1-x) = q/m with m = q - p, so k, r = divmod(q, m) and f = r/m; the
    next pair f/(1-f) = r/(m-r) or (1-f)/f = (m-r)/r is again coprime.
    Digit (2,-1) is k = 1 with 2r < m, where r = p: the run of the module
    docstring, n = (q - p - 1) // (2p) digits ending at (p, q - 2np).
    """
    p, q = state
    m = q - p
    k, r = divmod(q, m)
    if 2 * r >= m:
        return _new(OocfDigit, (k, 1)), 1, (m - r, r)
    if k > 1:
        return _new(OocfDigit, (k + 1, -1)), 1, (r, m - r)
    n = (m - 1) // (2 * p)
    return _TWO_MINUS, n, (p, q - 2 * n * p)


def oocf_surd_step(D: int):
    """Odd-odd step on quadratic states over the non-square D.

    A state (P, Q) means x = (P + sqrt(D))/Q with Q dividing D - P^2, a
    form kept by x -> x + n, by x -> -x as (P, -Q), and by the reciprocal
    (-P, (D - P^2)/Q), an exact division.  A floor (P + sqrt(D))/Q is
    (P + isqrt(D) + [Q < 0]) // Q, as sqrt(D) is irrational, and the floor
    of 2f uses isqrt(4D); both roots are taken here, once per orbit.
    Returns the step function state -> (digit, count, state of T^count(x)),
    a whole run of (2,-1) digits at once and count 1 for any other digit.
    """
    r1, r2 = math.isqrt(D), math.isqrt(4 * D)

    def step(state):
        P, Q = state
        P = Q - P                              # y = 1/(1-x), 1-x = (P-Q, -Q)
        Q = (P * P - D) // Q
        k = (P + r1 + (Q < 0)) // Q
        P -= k * Q                             # f = y - k
        below_half = (2 * P + r2 + (Q < 0)) // Q == 0
        Q = (D - P * P) // Q                   # 1/f - 1 = (1-f)/f
        P = -P - Q
        if not below_half:
            return _new(OocfDigit, (k, 1)), 1, (P, Q)
        if k > 1:                              # f/(1-f), its reciprocal
            return _new(OocfDigit, (k + 1, -1)), 1, (-P, (D - P * P) // Q)
        n = ((P + r1 + (Q < 0)) // Q - 1) // 2  # (2,-1) digits left in the run
        P -= 2 * n * Q
        return _TWO_MINUS, n + 1, (-P, (D - P * P) // Q)
    return step


def branch_inverse(digit: tuple[int, int], t):
    """Inverse branch f_(a,eps)(t) = 1 - 1/(a + eps/(1+t)), exact."""
    return digit_matrix(*digit).apply(_unit(t))


def digit_matrix(a: int, eps: int) -> Mat2:
    """Matrix [[a-1, a+eps-1], [a, a+eps]] whose Moebius action is the
    inverse branch f_(a,eps)."""
    check_digit(a, eps)
    return Mat2(a - 1, a + eps - 1, a, a + eps)


def branch_interval(a: int, eps: int) -> tuple[Fraction, Fraction]:
    """Closed endpoints of the branch interval B(a, eps), the image of
    [0, 1] under the inverse branch."""
    m = digit_matrix(a, eps)
    lo, hi = sorted((m.apply(0), m.apply(1)))
    return lo, hi


# ---------------------------------------------------------------------------
# Even-integer continued fraction map

def eicf_branch_of(x) -> tuple[int, int]:
    """Digit (b, eta), b even, of the branch containing x in (0, 1]."""
    return eicf_step(x)[0]


def eicf_step(x):
    """Digit of x in (0, 1] and its image under the even-integer map, off one 1/x."""
    x = _unit(x)
    if x == 0:
        raise ValueError("x = 0 carries no even-integer digit (terminator)")
    r = 1 / x
    j = math.floor(r)
    if j % 2 == 0:
        return (j, 1), r - j
    return (j + 1, -1), j + 1 - r


def eicf_map(x):
    """T(x) = |1/x - 2k| on the branch around 1/(2k); fixes 0 and 1."""
    x = _unit(x)
    if x == 0:
        return ZERO
    return eicf_step(x)[1]


# ---------------------------------------------------------------------------
# Jump transformations

def in_e1(x) -> bool:
    """Hitting set E1 = {0} u [1/3, 1]."""
    return x == 0 or x >= THIRD


def in_e2(x) -> bool:
    """Hitting set E2 = [0, 1/2] u {1}."""
    return x <= HALF or x == 1


def jump_transform(hitting_set, x):
    """romik^(n+1)(x), n the first hitting time of x to ``in_e1`` or ``in_e2``:
    the run to the set in closed form, then one Romik step.  Outside E1 the
    run is on 1/(1/x - 2), n = ceil((1/x - 3)/2); outside E2 on 2 - 1/x,
    where 1/(1 - x) drops by 1 a step, n = ceil(1/(1 - x) - 2)."""
    y = _unit(x)
    if hitting_set is in_e1:
        if not in_e1(y):
            r = 1 / y
            y = 1 / (r + 2 * math.floor((3 - r) / 2))
    elif hitting_set is not in_e2:
        raise ValueError(f"hitting set {hitting_set!r} is neither in_e1 nor in_e2")
    elif not in_e2(y):
        s = 1 / (1 - y)
        y = 1 - 1 / (s + math.floor(2 - s))
    return romik(y)


# ---------------------------------------------------------------------------
# Invariant measure check for the odd-odd map

@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        for end in (self.lo, self.hi):
            if not isinstance(end, (int, Fraction)):
                raise ValueError(f"endpoint {end!r} is not exact: pass an int or Fraction")
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")


def _log(r: Fraction) -> float:
    """ln r for a positive Fraction r = n/d: ln(n / d) while r is in the
    float range, else ln n - ln d (at 1/10^400 ``float(r)`` underflows, and
    ``math.log`` reads big ints exactly)."""
    n, d = r.numerator, r.denominator
    if abs(n.bit_length() - d.bit_length()) < 1000:
        return math.log(n / d)
    return math.log(n) - math.log(d)


@dataclass(frozen=True)
class MeasureReport:
    lhs: float
    rhs: float
    abs_diff: float
    passed: bool
    branch_cutoff: int
    tol: float
    ratio: Fraction


def _image_ratio(digit: tuple[int, int], lo: Fraction, hi: Fraction) -> Fraction:
    """Larger end over smaller end of the inverse branch's image of [lo, hi]."""
    a, b, c, d = digit_matrix(*digit)
    (pl, ql), (ph, qh) = lo.as_integer_ratio(), hi.as_integer_ratio()
    n, m = (a * ph + b * qh) * (c * pl + d * ql), (c * ph + d * qh) * (a * pl + b * ql)
    return Fraction(max(n, m), min(n, m))


def measure_check(interval: Interval, branch_cutoff: int = 2000) -> MeasureReport:
    """Certify dx/x invariance of the odd-odd map on ``interval`` exactly.

    With mu(J) = ln(max J / min J), invariance reads mu(I) = sum of mu(f(I))
    over the inverse branches f.  The 2K branches (k+1,-1) and (k,1) with
    k <= K = ``branch_cutoff`` map [0, 1] onto a tiling of [0, K/(K+1)], and
    every other branch into [K/(K+1), 1), of mass ln((K+1)/K).  So R_K =
    (lo/hi) * product of ``_image_ratio`` over the 2K branches, e to the
    truncated sum minus mu(I), has K/(K+1) <= R_K <= 1: the verdict is these
    two Fraction comparisons.  The product telescopes, so reduced after each
    factor it stays small.  The floats only report: rhs = mu(I), abs_diff =
    |ln R_K|, lhs = rhs + ln R_K and tol = ln(1 + 1/K), the bound's image."""
    lo, hi, K = interval.lo, interval.hi, branch_cutoff
    if lo <= 0:
        raise ValueError("interval must avoid 0 (the density 1/x is not integrable there)")
    if hi > 1:
        raise ValueError("interval endpoints must lie in (0, 1]")
    if K < 1:
        raise ValueError(f"branch_cutoff must be >= 1, got {K!r}")
    ratio = lo / hi
    for k in range(1, K + 1):
        for digit in ((k + 1, -1), (k, 1)):
            ratio *= _image_ratio(digit, lo, hi)
    rhs, log_ratio = _log(hi / lo), _log(ratio)
    return MeasureReport(rhs + log_ratio, rhs, abs(log_ratio),
                         Fraction(K, K + 1) <= ratio <= 1, K, math.log1p(1 / K), ratio)
