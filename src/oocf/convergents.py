"""The three convergent families of an odd-odd digit sequence.

Truncating the continued fraction at a_n, at a_n + eps_n, or at the full
digit gives the sub-convergent p'_n/q'_n, the pseudo-convergent p''_n/q''_n,
and the principal convergent p_n/q_n.  Scalar recursions (seeds p'_0 = 1,
q'_0 = 0, p_0 = q_0 = 1):

    p'_n  = a_n p_(n-1) - p'_(n-1)        q'_n  likewise
    p''_n = p'_n + eps_n p_(n-1)          q''_n likewise
    p_n   = 2 p'_n + eps_n p_(n-1)        q_n   likewise

The matrix route computes the same triple as the Moebius images of 1,
infinity and 0 under the product of digit matrices and serves as an
independent cross-check.  Determinant identities are asserted in absolute
value only (|p'_n q''_n - p''_n q'_n| = 1, |p_(n-1) q_n - p_n q_(n-1)| = 2);
the observed signs carry an extra (-1)^n relative to the bare product
eps_1 ... eps_n, so signed forms are reported, not assumed.

The principal convergents alone follow a two-term recurrence of their own:

    p_n = (2 a_n + eps_n - 1) p_(n-1) + eps_(n-1) p_(n-2)    q_n likewise

with the seed (eps_0 p_(-1), eps_0 q_(-1)) = (-1, 1).  From the rows above,
p_n = 2 p'_n + eps_n p_(n-1) and p'_n = a_n p_(n-1) - p'_(n-1), while the
row before gives 2 p'_(n-1) = p_(n-1) - eps_(n-1) p_(n-2); substituting
the last two into the first yields the recurrence.  The seed makes its
n = 1 step agree with p_1 = 2 a_1 + eps_1 - 2 and q_1 = 2 a_1 + eps_1.
As 2 a_n + eps_n - 1 is even, p_n and q_n stay odd, and as
|p_(n-1) q_n - p_n q_(n-1)| = 2 their gcd divides 2, so it is 1.

Across a (2,-1) digit the pseudo-convergent stays put.  Its digit matrix
[[1,0],[2,1]] fixes 0, so M_n(0) = M_(n-1)(0): p''_n = p''_(n-1).  It
sends infinity to 1/2, so the sub-convergent is M_(n-1)(1/2), the image of
the vector (1, 2) = (1, 1) + (0, 1), the sum of those of 1 and 0:
p'_n = p_(n-1) + p''_(n-1).  Then p_n = p'_n + p''_n as for every digit,
and q likewise.  So a row in a run of (2,-1) digits takes four additions
and keeps the two pseudo ints of the row before.  Any other digit takes
p'_n = (a_n - 1) p_(n-1) + p''_(n-1), which is the first recursion with
p'_(n-1) = p_(n-1) - p''_(n-1).
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .core import IDENTITY
from .maps import OocfDigit, _unit, check_digit, digit_matrix
from .expansion import digit_stream


@dataclass(frozen=True, slots=True)
class ConvergentTriple:
    n: int
    p: int
    q: int
    p_sub: int
    q_sub: int
    p_pse: int
    q_pse: int
    eps_prod: int

    @property
    def principal(self) -> Fraction:
        return Fraction(self.p, self.q)

    @property
    def sub(self) -> Optional[Fraction]:
        """p'_n/q'_n; None for the n = 0 seed, whose sub-convergent is 1/0."""
        if self.q_sub == 0:
            return None
        return Fraction(self.p_sub, self.q_sub)

    @property
    def pseudo(self) -> Fraction:
        return Fraction(self.p_pse, self.q_pse)


SEED = ConvergentTriple(0, 1, 1, 1, 0, 0, 1, 1)


class _Row:
    """A ``ConvergentTriple`` while ``convergent_stream`` fills it: the same
    slots, none of the frozen guards."""
    __slots__ = ConvergentTriple.__slots__


_NO_DIGIT = object()


def convergent_stream(digits: Iterable[tuple[int, int]]) -> Iterator[ConvergentTriple]:
    """Lazily yield the seed triple and one triple per digit.

    Each row is ``ConvergentTriple(...)`` without the frozen ``__init__``:
    its fields are stored on a bare ``_Row``, which has the same slots and
    no frozen ``__setattr__``, and its ``__class__`` is then set to
    ``ConvergentTriple``, as the data model allows for equal ``__slots__``.
    The running values are p_(n-1) and p''_(n-1) (q likewise); a (2,-1)
    row is p'_n = p_(n-1) + p''_(n-1) and p_n = p'_n + p''_n, with p''_n
    the same int as the row before."""
    yield SEED
    new = object.__new__
    p, q = 1, 1  # p_(n-1), q_(n-1)
    pp, qp = 0, 1  # p''_(n-1), q''_(n-1)
    eps_prod = 1
    n = 0
    last = _NO_DIGIT  # the last tuple digit tested
    for d in digits:
        if d is not last:
            a, e = d
            if not (isinstance(a, int) and isinstance(e, int)
                    and (a > 1 or a == 1 and e == 1) and (e == 1 or e == -1)):
                check_digit(a, e)
            run = a == 2 and e == -1
            a1 = a - 1
            last = d if type(d) is OocfDigit or type(d) is tuple else _NO_DIGIT
        n += 1
        if run:
            ps = p + pp
            qs = q + qp
            eps_prod = -eps_prod
        else:
            ps = a1 * p + pp
            qs = a1 * q + qp
            if e == 1:
                pp = ps + p
                qp = qs + q
            else:
                pp = ps - p
                qp = qs - q
                eps_prod = -eps_prod
        p = ps + pp
        q = qs + qp
        t = new(_Row)
        t.n = n
        t.p = p
        t.q = q
        t.p_sub = ps
        t.q_sub = qs
        t.p_pse = pp
        t.q_pse = qp
        t.eps_prod = eps_prod
        t.__class__ = ConvergentTriple
        yield t


def _check_qmax(qmax) -> None:
    """The one denominator-bound contract of the principal and best lists."""
    if not isinstance(qmax, int) or qmax < 0:
        raise ValueError(f"qmax must be a non-negative int, got {qmax!r}")


def principal_convergents_up_to(x, qmax: int) -> list[Fraction]:
    """Principal convergents of x with denominator <= qmax, the 0th
    convergent 1/1 included once qmax >= 1.

    By the two-term recurrence of the module docstring, on bare ints: no
    row and no sub-convergent per digit, and one ``Fraction`` per kept
    convergent.  The denominators increase, so the first one past qmax
    ends the list."""
    _check_qmax(qmax)
    _unit(x)  # checked here too: at qmax = 0 no digit is read
    if qmax < 1:
        return []
    out = [Fraction(1)]
    p1 = q1 = 1  # p_(n-1), q_(n-1)
    ep, eq = -1, 1  # eps_(n-1) p_(n-2), eps_(n-1) q_(n-2)
    for a, e in digit_stream(x):
        c = 2 * a + e - 1
        q = c * q1 + eq
        if q > qmax:
            break
        p = c * p1 + ep
        out.append(Fraction(p, q))
        if e == 1:
            ep, eq = p1, q1
        else:
            ep, eq = -p1, -q1
        p1, q1 = p, q
    return out


def convergent_table(digits) -> list[ConvergentTriple]:
    """Triples for n = 0..len(digits) by the scalar recursions."""
    return list(convergent_stream(digits))


def convergent_table_matrix(digits) -> list[ConvergentTriple]:
    """Same table via digit-matrix products: with M_n the product of the
    first n digit matrices, the principal convergent is M_n(1), the sub
    M_n(inf) and the pseudo M_n(0)."""
    rows = []
    m = IDENTITY
    eps_prod = 1
    rows.append(ConvergentTriple(0, m.a + m.b, m.c + m.d, m.a, m.c, m.b, m.d, 1))
    for n, (a, e) in enumerate(digits, 1):
        m = m @ digit_matrix(a, e)
        eps_prod *= e
        rows.append(ConvergentTriple(n, m.a + m.b, m.c + m.d, m.a, m.c, m.b, m.d, eps_prod))
    return rows


@dataclass(frozen=True)
class BetweennessFlags:
    x_between_principal_pseudo: bool
    principal_between_sub_pseudo: bool
    nested_in_previous: Optional[bool]

    @property
    def all_hold(self) -> bool:
        return (self.x_between_principal_pseudo
                and self.principal_between_sub_pseudo
                and self.nested_in_previous is not False)


def _between_incl(v, e1, e2) -> bool:
    lo, hi = (e1, e2) if e1 <= e2 else (e2, e1)
    return lo <= v <= hi


def betweenness_report(x, curr: ConvergentTriple,
                       prev: Optional[ConvergentTriple] = None) -> BetweennessFlags:
    """Ordering facts for a triple computed from a prefix of x's expansion:
    x sits between principal and pseudo (equality allowed once a rational
    expansion is exhausted), the principal sits between sub and pseudo, and,
    given the previous triple, all three convergents lie in the half-open
    interval from the previous principal (excluded) to the previous pseudo
    (included)."""
    x_between = _between_incl(_unit(x), curr.principal, curr.pseudo)
    if curr.q_sub == 0:
        principal_between = curr.pseudo <= curr.principal
    else:
        principal_between = _between_incl(curr.principal, curr.sub, curr.pseudo)
    nested = None
    if prev is not None:
        if prev.n + 1 != curr.n:
            raise ValueError("previous triple does not precede the current one")
        nested = all(c != prev.principal and _between_incl(c, prev.principal, prev.pseudo)
                     for c in (curr.principal, curr.sub, curr.pseudo))
    return BetweennessFlags(x_between, principal_between, nested)


@dataclass(frozen=True)
class GapReport:
    gap: object
    bound: Fraction
    certified: bool


def convergence_gap(x, t: ConvergentTriple) -> GapReport:
    """Exact |x - p_n/q_n| together with the certificate that it is below
    2/q_n."""
    gap = abs(_unit(x) - t.principal)
    bound = Fraction(2, t.q)
    return GapReport(gap, bound, gap < bound)
