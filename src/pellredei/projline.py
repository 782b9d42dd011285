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

from .exact import INF, Infinity, QuadraticElement, _exact, isqrt, require_nonsquare
from .redei import redei_rational

__all__ = ["LineGroup"]


class LineGroup:
    """Group context for a fixed radicand d; all methods are pure."""

    def __init__(self, d: int) -> None:
        self.d = require_nonsquare(d)
        self._root = QuadraticElement(0, 1, self.d)

    @property
    def identity(self) -> Infinity:
        return INF

    def mul(self, x, y):
        """Total group product on Q ∪ {INF}.

        Also accepts elements of Q(sqrt(d)), over which the same formula
        realizes the multiplicative group the transform maps onto.
        """
        x, y = self._lift(x), self._lift(y)
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
        return -self._lift(x)

    def pow(self, z, n: int):
        """n-th group power of a rational z (n may be negative).

        The power equals the Redei rational value of index n at (d, z);
        evaluation is logarithmic in |n|.  z is INF, an int or a Fraction
        and n an integer; anything else raises TypeError before any
        arithmetic.
        """
        if z is INF:
            return INF
        return redei_rational(self.d, z, n)

    def from_multiplicative(self, x):
        """Transport from (Q(sqrt(d))*, *): x -> (x + 1)/(x - 1)*sqrt(d).

        Maps 1 -> INF, INF -> sqrt(d), 0 -> -sqrt(d), and products to
        mul().
        """
        x = self._lift(x)
        if x is INF:
            return self._root
        if x == 1:
            return INF
        return (x + 1) / (x - 1) * self._root

    def to_multiplicative(self, x):
        """Inverse transport: x -> (x + sqrt(d))/(x - sqrt(d)), sqrt(d) -> INF."""
        x = self._lift(x)
        if x is INF:
            return QuadraticElement(1, 0, self.d)
        if x == self._root:
            return INF
        return (x + self._root) / (x - self._root)

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
        return _exact(x) * Fraction(rn, rd)

    def _lift(self, x) -> Fraction | QuadraticElement | Infinity:
        """x as a point: INF itself, an element of Q(sqrt(d)), or an exact rational.

        QuadraticElement's own lift rejects an element over another
        radicand; _exact rejects anything that is not an int or a Fraction.
        """
        if x is INF:
            return INF
        if isinstance(x, QuadraticElement):
            return self._root._lift(x)
        return Fraction(_exact(x))

    def __repr__(self) -> str:
        return f"LineGroup(d={self.d})"
