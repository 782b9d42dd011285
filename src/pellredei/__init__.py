"""Exact solutions of x**2 - d*y**2 = 1 and the algebra that makes them fast.

The package keeps every computation in Z, Q, or Q(sqrt(d)) -- there is
no floating point anywhere.  The minimal solution comes from half a
period of the continued fraction of sqrt(d) by a product tree, and the
redei and power strategies raise it to the n-th solution with one integer
Redei kernel in O(log n) products; the convergent walk stays the
independent witness.  A small
CLI (`pellredei`) exposes both, plus a benchmark contrasting the linear
fold with the logarithmic route.
"""

from .contfrac import Convergent, SqrtExpansion, convergents, nth_convergent, sqrt_cf
from .exact import (
    INF,
    Infinity,
    PerfectSquareError,
    QuadraticElement,
    decimal_digits,
    is_perfect_square,
    isqrt,
    require_nonsquare,
)
from .hyperbola import HyperbolaPoint, from_parameter, to_parameter
from .projline import LineGroup
from .redei import RedeiPair, dickson, redei_pair_fast, redei_pair_linear, redei_rational
from .solver import (
    ConsistencyError,
    CorrespondenceReport,
    PellSolution,
    PellSolver,
    Strategy,
    correspondence_check,
    minimal_solution,
    nth_solution,
    solutions,
)

__version__ = "0.1.0"

__all__ = [
    "INF",
    "ConsistencyError",
    "Convergent",
    "CorrespondenceReport",
    "HyperbolaPoint",
    "Infinity",
    "LineGroup",
    "PellSolution",
    "PellSolver",
    "PerfectSquareError",
    "QuadraticElement",
    "RedeiPair",
    "SqrtExpansion",
    "Strategy",
    "convergents",
    "correspondence_check",
    "decimal_digits",
    "dickson",
    "from_parameter",
    "is_perfect_square",
    "isqrt",
    "minimal_solution",
    "nth_convergent",
    "nth_solution",
    "redei_pair_fast",
    "redei_pair_linear",
    "redei_rational",
    "require_nonsquare",
    "solutions",
    "sqrt_cf",
    "to_parameter",
]
