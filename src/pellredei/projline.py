"""A commutative group on the projective rational line Q ∪ {INF}.

For a fixed positive nonsquare d, the product

    mul(x, y) = (d + x*y)/(x + y)

with INF as identity (and the pole x + y = 0 sent to INF, making every
element's negation its inverse) is ordinary multiplication conjugated by
the Cayley-style transform x -> (x + 1)/(x - 1)*sqrt(d).  That transform
leaves the rationals, so it is exposed here exactly inside Q(sqrt(d)),
where it doubles as the test harness for the group isomorphism.  Group
powers are Redei rational values, which is what makes them cheap.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import INF, Infinity, QuadraticElement, isqrt, require_nonsquare
from .redei import redei_rational

__all__ = ["LineGroup"]


def _lift(value: object) -> Fraction | QuadraticElement | Infinity:
    if value is INF or isinstance(value, (Fraction, QuadraticElement)):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not a point of the projective line: {value!r}")


class LineGroup:
    """Group context for a fixed radicand d; all methods are pure."""

    def __init__(self, d: int) -> None:
        self.d = require_nonsquare(d)

    @property
    def identity(self) -> Infinity:
        return INF

    def mul(self, x, y):
        """Total group product on Q ∪ {INF}.

        Also accepts elements of Q(sqrt(d)), over which the same formula
        realizes the multiplicative group the transform maps onto.
        """
        x = _lift(x)
        y = _lift(y)
        if x is INF:
            return y
        if y is INF:
            return x
        s = x + y
        if s == 0:
            return INF
        return (self.d + x * y) / s

    def inverse(self, x):
        """Group inverse; the negation of x, with INF fixed."""
        return -_lift(x)

    def pow(self, z, n: int):
        """n-th group power of a rational z (n may be negative).

        The power equals the Redei rational value of index n at (d, z);
        evaluation is logarithmic in |n|.
        """
        if z is INF:
            return INF
        return redei_rational(self.d, z, n)

    def from_multiplicative(self, x):
        """Transport from (Q(sqrt(d))*, *): x -> (x + 1)/(x - 1)*sqrt(d).

        Maps 1 -> INF, INF -> sqrt(d), 0 -> -sqrt(d), and products to
        mul().  Rational inputs are embedded into Q(sqrt(d)) first.
        """
        root = QuadraticElement(0, 1, self.d)
        if x is INF:
            return root
        x = self._as_field(x)
        if x == 1:
            return INF
        return (x + 1) / (x - 1) * root

    def to_multiplicative(self, x):
        """Inverse transport: x -> (x + sqrt(d))/(x - sqrt(d)), sqrt(d) -> INF."""
        if x is INF:
            return QuadraticElement(1, 0, self.d)
        x = self._as_field(x)
        root = QuadraticElement(0, 1, self.d)
        if x == root:
            return INF
        return (x + root) / (x - root)

    def rescale_from(self, e: int, x):
        """Isomorphism from the radicand-e group: x -> x*sqrt(d/e).

        Defined only when d/e is the square of a rational; any other pair
        of radicands would carry the line outside Q and is rejected.
        """
        require_nonsquare(e)
        ratio = Fraction(self.d, e)
        rn, rd = isqrt(ratio.numerator), isqrt(ratio.denominator)
        if rn * rn != ratio.numerator or rd * rd != ratio.denominator:
            raise ValueError(f"{self.d}/{e} is not the square of a rational")
        if x is INF:
            return INF
        return Fraction(x) * Fraction(rn, rd)

    def _as_field(self, x) -> QuadraticElement:
        """x in Q(sqrt(d)) by QuadraticElement's own lift, which rejects a foreign radicand."""
        lifted = QuadraticElement(0, 0, self.d)._lift(x)
        if lifted is None:
            raise TypeError(f"cannot interpret {x!r} in Q(sqrt({self.d}))")
        return lifted

    def __repr__(self) -> str:
        return f"LineGroup(d={self.d})"
