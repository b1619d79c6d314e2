"""Independent reference computations for checking oocf's outputs.

Nothing here imports oocf.  States are bare integers: a rational x = p/q is
the pair (p, q), and a surd x = (P + S*sqrt(D))/Q is the triple (P, S, Q)
over a fixed non-square D, kept with Q > 0 and gcd(P, S, Q) = 1 so that
equal values have equal triples.  Every decision is an integer sign test
or an integer square root.
"""

import json
from fractions import Fraction
from math import gcd, isqrt


def sign_surd(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d) for a positive non-square d."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sb or sa
    if sa == 0:
        return sb
    return sa if a * a > b * b * d else -sa


def floor_surd(a: int, b: int, d: int, c: int) -> int:
    """floor((a + b*sqrt(d)) / c) for c != 0 and a positive non-square d."""
    if c < 0:
        a, b, c = -a, -b, -c
    if b == 0:
        return a // c
    r = isqrt(b * b * d)  # b*sqrt(d) is irrational, so isqrt never lands on it
    return (a + (r if b > 0 else -r - 1)) // c


def _canon(p: int, s: int, q: int) -> tuple[int, int, int]:
    if q < 0:
        p, s, q = -p, -s, -q
    g = gcd(gcd(p, s), q)
    return p // g, s // g, q // g


def surd_step(state: tuple[int, int, int], d: int):
    """One odd-odd map step on a surd state in (0, 1): (digit, next state)."""
    p, s, q = state
    # k = floor(1/(1-x)) = floor(q*(q-p+s*sqrt(d)) / ((q-p)^2 - s^2 d))
    k = floor_surd(q * (q - p), q * s, d, (q - p) ** 2 - s * s * d)
    # x < (2k-1)/(2k+1) selects the (k+1, -1) branch
    low = sign_surd((2 * k + 1) * p - (2 * k - 1) * q, (2 * k + 1) * s, d) < 0
    # k*x - (k-1) and k - (k+1)*x, both scaled by q
    u1, u2 = k * p - (k - 1) * q, k * s
    w1, w2 = k * q - (k + 1) * p, -(k + 1) * s
    if low:
        digit, (n1, n2), (m1, m2) = (k + 1, -1), (u1, u2), (w1, w2)
    else:
        digit, (n1, n2), (m1, m2) = (k, 1), (w1, w2), (u1, u2)
    return digit, _canon(n1 * m1 - n2 * m2 * d, n2 * m1 - n1 * m2,
                         m1 * m1 - m2 * m2 * d)


def surd_orbit(state: tuple[int, int, int], d: int, max_states: int):
    """Digits of a surd in (0, 1) and its (preperiod, period) when a state
    repeats among the first ``max_states`` states, else None.

    The digits returned are those emitted before the repeat, or
    ``max_states - 1`` digits when no state repeats.
    """
    seen: dict = {}
    digits = []
    while len(seen) < max_states:
        if state in seen:
            start = seen[state]
            return digits, (start, len(digits) - start)
        seen[state] = len(digits)
        if len(seen) == max_states:
            break
        digit, state = surd_step(state, d)
        digits.append(digit)
    return digits, None


def surd_digits(state: tuple[int, int, int], d: int, n: int) -> list:
    """The first n digits of a surd in (0, 1)."""
    digits = []
    for _ in range(n):
        digit, state = surd_step(state, d)
        digits.append(digit)
    return digits


def rational_digits(p: int, q: int):
    """Canonical digits of p/q in [0, 1] and the terminator: 'finite' when
    the orbit reaches 1, 'tail_2m1' when it reaches 0."""
    g = gcd(p, q)
    p, q = p // g, q // g
    digits = []
    while 0 < p < q:
        k = q // (q - p)
        if p * (2 * k + 1) < q * (2 * k - 1):
            digits.append((k + 1, -1))
            n, m = k * p - (k - 1) * q, k * q - (k + 1) * p
        else:
            digits.append((k, 1))
            n, m = k * q - (k + 1) * p, k * p - (k - 1) * q
        g = gcd(n, m)
        p, q = n // g, m // g
    return digits, ("finite" if p == q else "tail_2m1")


def evaluate_digits(digits, tail=Fraction(1)) -> Fraction:
    """Value of the digit string followed by the tail value t:
    f_d1(f_d2(... f_dn(t))) with f_(a,eps)(t) = 1 - 1/(a + eps/(1+t)).
    Tail 1 gives the principal convergent, tail 0 the (2,-1) tail."""
    v = Fraction(tail)
    for a, eps in reversed(digits):
        v = 1 - 1 / (a + eps / (1 + v))
    return v


def digit_matrices(digits):
    """The running products M_n = M_(n-1) [[a-1, a+eps-1], [a, a+eps]] of
    the digit maps t -> ((a-1)t + a+eps-1) / (a t + a+eps), as (a, b, c, d)
    for n = 0..len(digits).  M_n sends 1, infinity and 0 to the principal,
    sub- and pseudo-convergents."""
    a0, b0, c0, d0 = 1, 0, 0, 1
    out = [(a0, b0, c0, d0)]
    for a, eps in digits:
        ma, mb, mc, md = a - 1, a + eps - 1, a, a + eps
        a0, b0, c0, d0 = (a0 * ma + b0 * mc, a0 * mb + b0 * md,
                          c0 * ma + d0 * mc, c0 * mb + d0 * md)
        out.append((a0, b0, c0, d0))
    return out


def convergent_rows(digits):
    """(principal, sub, pseudo) for n = 0..len(digits); sub is None for
    n = 0."""
    return [(Fraction(a + b, c + d), Fraction(a, c) if c else None, Fraction(b, d))
            for a, b, c, d in digit_matrices(digits)]


def principal_convergents(state, d: int, qmax: int) -> list[Fraction]:
    """Principal convergents of a surd in (0, 1) with denominator <= qmax,
    the 0th convergent 1/1 included."""
    a0, b0, c0, d0 = 1, 0, 0, 1
    out = [Fraction(1)]
    while True:
        (a, eps), state = surd_step(state, d)
        ma, mb, mc, md = a - 1, a + eps - 1, a, a + eps
        a0, b0, c0, d0 = (a0 * ma + b0 * mc, a0 * mb + b0 * md,
                          c0 * ma + d0 * mc, c0 * mb + d0 * md)
        c = Fraction(a0 + b0, c0 + d0)
        if c.denominator > qmax:
            return out
        out.append(c)


def within_two_over_q(state, d: int, p: int, q: int) -> bool:
    """|x - p/q| < 2/q for the surd x and q > 0, i.e. -2 < q*x - p < 2."""
    P, S, Q = state
    u = q * P - p * Q
    return (sign_surd(u - 2 * Q, q * S, d) < 0
            and sign_surd(u + 2 * Q, q * S, d) > 0)


def brute_best(state, d: int, qmax: int) -> list[Fraction]:
    """Best odd/odd approximations of a surd in (0, 1) with denominator
    <= qmax: the strict record minima of |b*x - a| over every odd b in
    ascending order and every odd a within 3 of b*x."""
    P, S, Q = state

    def smaller(e1, e2) -> bool:
        # |e1| < |e2| for errors e = (u + v*sqrt(d))/Q, by squaring
        (u1, v1), (u2, v2) = e1, e2
        return sign_surd(u1 * u1 + v1 * v1 * d - u2 * u2 - v2 * v2 * d,
                         2 * (u1 * v1 - u2 * v2), d) < 0

    out = []
    record = None
    for b in range(1, qmax + 1, 2):
        m = floor_surd(b * P, b * S, d, Q)
        best_a, best_e = None, None
        for a in range(m - 3 + m % 2, m + 4, 2):
            e = (b * P - a * Q, b * S)
            if best_e is None or smaller(e, best_e):
                best_a, best_e = a, e
        if record is None or smaller(best_e, record):
            record = best_e
            out.append(Fraction(best_a, b))
    return out


def totient(n: int) -> int:
    out, m, f = n, n, 2
    while f * f <= m:
        if m % f == 0:
            while m % f == 0:
                m //= f
            out -= out // f
        f += 1
    if m > 1:
        out -= out // m
    return out


def ford_circle_count(den_max: int, highlighted: int) -> int:
    """Circles in a Ford picture: 0/1 and 1/1 for q = 1, phi(q) for each
    q >= 2, plus the highlighted convergents."""
    return 2 + sum(totient(q) for q in range(2, den_max + 1)) + highlighted


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(line: str):
    """Parse one line of JSON, refusing NaN and Infinity."""
    return json.loads(line, parse_constant=_reject_constant)


def surd_text(state, d: int) -> str:
    p, s, q = state
    return f"({p}{s:+d}*sqrt({d}))/{q}"


def surd_in_unit(d: int, s: int, q: int, offset: int) -> tuple[int, int, int]:
    """A canonical surd (P + s*sqrt(d))/q in (0, 1) for s > 0 and
    0 <= offset < q: P runs over -floor(s*sqrt(d)) + offset."""
    return _canon(-isqrt(s * s * d) + offset, s, q)
