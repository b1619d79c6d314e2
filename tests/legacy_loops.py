"""The hand-written digit loops that oocf used before every expansion ran on
one orbit driver, kept unchanged as an independent oracle for
``test_orbit_oracle.py``."""

import math
from typing import Iterator, Optional

from oocf.core import QuadIrr
from oocf.expansion import (FINITE, PERIODIC, TAIL_2M1, TRUNCATED, OocfDigit,
                            OocfExpansion)
from oocf.maps import _check_unit, branch_apply, eicf_branch_of, oocf_branch_of
from oocf.rcf import EicfDigit, EicfExpansion

_HARD_CAP = 10 ** 6


def digit_stream(x) -> Iterator[OocfDigit]:
    state = x
    while state != 0 and state != 1:
        d = oocf_branch_of(state)
        yield OocfDigit(*d)
        state = branch_apply(d, state)


def expand(x, max_digits: Optional[int] = None) -> OocfExpansion:
    _check_unit(x)
    digits: list[OocfDigit] = []
    state = x
    seen: Optional[dict] = {} if isinstance(x, QuadIrr) else None
    while True:
        if state == 1:
            return OocfExpansion(tuple(digits), FINITE)
        if state == 0:
            return OocfExpansion(tuple(digits), TAIL_2M1)
        if seen is not None:
            if state in seen:
                return OocfExpansion(tuple(digits), PERIODIC, period_start=seen[state])
            seen[state] = len(digits)
        if max_digits is not None and len(digits) >= max_digits:
            return OocfExpansion(tuple(digits), TRUNCATED)
        if len(digits) >= _HARD_CAP:
            raise RuntimeError("expansion exceeded the hard digit cap")
        d = oocf_branch_of(state)
        digits.append(OocfDigit(*d))
        state = branch_apply(d, state)


def detect_period(x: QuadIrr, cap: int = 10 ** 5) -> tuple[int, int]:
    if not isinstance(x, QuadIrr):
        raise ValueError("period detection needs a quadratic irrational")
    if not 0 < x < 1:
        raise ValueError("input must lie in (0, 1)")
    seen: dict = {}
    state = x
    n = 0
    while True:
        if state in seen:
            start = seen[state]
            return start, n - start
        seen[state] = n
        if n > cap:
            raise RuntimeError(f"no repeated tail value within {cap} steps")
        d = oocf_branch_of(state)
        state = branch_apply(d, state)
        n += 1


def rcf_digit_stream(x) -> Iterator[int]:
    _check_unit(x)
    state = x
    while state != 0:
        r = 1 / state
        d = math.floor(r)
        yield d
        state = r - d


def eicf_digit_stream(x) -> Iterator[EicfDigit]:
    state = x
    while state != 0 and state != 1:
        b, eta = eicf_branch_of(state)
        yield EicfDigit(b, eta)
        state = (1 / state - b) if eta == 1 else (b - 1 / state)


def eicf_expand(x, max_digits: Optional[int] = None) -> EicfExpansion:
    _check_unit(x)
    digits: list[EicfDigit] = []
    state = x
    seen: Optional[dict] = {} if isinstance(x, QuadIrr) else None
    while True:
        if state == 0:
            return EicfExpansion(tuple(digits), FINITE)
        if state == 1:
            return EicfExpansion(tuple(digits), TAIL_2M1)
        if seen is not None:
            if state in seen:
                return EicfExpansion(tuple(digits), PERIODIC, period_start=seen[state])
            seen[state] = len(digits)
        if max_digits is not None and len(digits) >= max_digits:
            return EicfExpansion(tuple(digits), TRUNCATED)
        b, eta = eicf_branch_of(state)
        digits.append(EicfDigit(b, eta))
        state = (1 / state - b) if eta == 1 else (b - 1 / state)
