"""Odd-odd continued fractions with exact arithmetic.

Expansion and evaluation of odd-odd digit streams, the three convergent
families, best odd/odd rational approximation, eventual periodicity of
quadratic irrationals, and conversions to and from the regular and
even-integer continued fractions.
"""

from .core import (INF_RATIONAL, ONE_RATIONAL, Mat2, QuadIrr, classify,
                   format_real, frac_sqrt, is_one_rational, parse_real)
from .maps import (Interval, branch_inverse, digit_matrix, eicf_map, farey,
                   gauss, in_e1, in_e2, jump_transform, measure_check,
                   oocf_branch_of, oocf_map, romik)
from .expansion import (FINITE, PERIODIC, TAIL_2M1, TRUNCATED, OocfDigit,
                        OocfExpansion, all_expansions, detect_period,
                        digit_stream, evaluate, expand)
from .convergents import (ConvergentTriple, betweenness_report,
                          convergence_gap, convergent_table,
                          convergent_table_matrix)
from .approx import (best_one_rationals, err_sq, ford_radius, ford_tangent,
                     horo_radius, keita_monotonicity, verify_thm1)
from .rcf import (EicfDigit, EicfExpansion, RcfExpansion, change_rcf,
                  conjugacy, eicf_best_to_oocf, eicf_convergents,
                  eicf_expand, intermediate_convergents, phi_digit,
                  rcf_convergents, rcf_expand, rcf_to_oocf,
                  verify_conjugacy, verify_intermediate)
from .svg import ford_svg

__version__ = "0.1.0"
