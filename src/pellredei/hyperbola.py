"""The rational points of x**2 - d*y**2 = 1 as a commutative group.

The product

    (s, t) * (u, v) = (s*u + d*t*v, t*u + s*v)

is multiplication in Q(sqrt(d)) restricted to elements of norm one, so
identity (1, 0), inverse = conjugate (x, -y), and associativity are all
inherited.  A point's n-th power is (x + y*sqrt(d))**n, one call of the
integer square-and-multiply kernel on the point with its common
denominator w cleared, X + Y*sqrt(d) = w*(x + y*sqrt(d)), then divided
by w**n, so exponentiation is logarithmic, and the curve is checked
once, on the result.  Every point is checked by exact._solves_pell, the
one exact check of the Pell curve, on integers: X**2 - d*Y**2 == w**2
with X = w*x and Y = w*y for w the denominator of y, which on the curve
is the lcm of both denominators, so no Fraction arithmetic runs a gcd.
An integer point has w = 1.

The parametrization by slope connects this group to the projective-line
group in projline: from_parameter/to_parameter are mutually inverse
bijections with Q ∪ {INF}, and to_parameter turns the product above
into LineGroup(d).mul.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import (
    INF,
    Infinity,
    QuadraticElement,
    _brief,
    _exact,
    _solves_pell,
    _Value,
    require_nonsquare,
)
from .redei import _quadratic_power

__all__ = ["HyperbolaPoint", "from_parameter", "to_parameter"]


class HyperbolaPoint(_Value):
    """A rational solution of x**2 - d*y**2 = 1, with the group product."""

    __match_args__ = ("d", "x", "y")

    def __init__(self, d: int, x: int | Fraction, y: int | Fraction) -> None:
        d = require_nonsquare(d)
        x, y = Fraction(_exact(x)), Fraction(_exact(y))
        # On the curve x's denominator divides w, y's (see __pow__), so w is
        # the lcm of the two; a point where it does not is off the curve.
        w = y.denominator
        scale, rest = divmod(w, x.denominator)
        if rest or not _solves_pell(abs(x.numerator) * scale, abs(y.numerator), d, w):
            raise ValueError(f"({_brief(x)}, {_brief(y)}) is not on x^2 - {_brief(d)}y^2 = 1")
        self.__dict__.update(d=d, x=x, y=y)

    @classmethod
    def identity(cls, d: int) -> "HyperbolaPoint":
        return cls(d, Fraction(1), Fraction(0))

    def __mul__(self, other: "HyperbolaPoint") -> "HyperbolaPoint":
        if not isinstance(other, HyperbolaPoint):
            return NotImplemented
        if other.d != self.d:
            raise ValueError(f"cannot combine radicands {self.d} and {other.d}")
        return HyperbolaPoint(
            self.d,
            self.x * other.x + self.d * self.y * other.y,
            self.y * other.x + self.x * other.y,
        )

    def conjugate(self) -> "HyperbolaPoint":
        """The group inverse (x, -y)."""
        return HyperbolaPoint(self.d, self.x, -self.y)

    def __pow__(self, n: int) -> "HyperbolaPoint":
        """n-th group power; only the result is checked against the curve.

        y's denominator w is a common denominator: w**2 * x**2 =
        w**2 + d*(w*y)**2 is an integer, so w*x is one too.  So X = w*x and
        Y = w*y are integers with X**2 - d*Y**2 = w**2, and the power is
        one integer kernel call on (X, Y), divided by w**n.  Past w = 1
        that norm is not one, so each kernel doubling takes three squares.
        """
        w = self.y.denominator
        x, y = _quadratic_power(
            self.d, self.x.numerator * (w // self.x.denominator), self.y.numerator, abs(n)
        )
        w = w ** abs(n)
        return HyperbolaPoint(self.d, Fraction(x, w), Fraction(-y if n < 0 else y, w))

    def to_quadratic(self) -> QuadraticElement:
        """The norm-one field element x + y*sqrt(d) this point represents."""
        return QuadraticElement(self.x, self.y, self.d)

    def __repr__(self) -> str:
        return f"HyperbolaPoint(d={self.d}, x={self.x}, y={self.y})"


def from_parameter(d: int, m) -> HyperbolaPoint:
    """Point with slope parameter m in Q ∪ {INF}.

    Sends m to ((m**2 + d)/(m**2 - d), 2m/(m**2 - d)) and INF to the
    identity (1, 0).  Total because m**2 = d has no rational solution.
    """
    d = require_nonsquare(d)
    if m is INF:
        return HyperbolaPoint.identity(d)
    m = Fraction(_exact(m))
    w = m * m - d
    return HyperbolaPoint(d, (m * m + d) / w, 2 * m / w)


def to_parameter(p: HyperbolaPoint) -> Fraction | Infinity:
    """Slope parameter of p: (1 + x)/y, extended to the two y = 0 points.

    Inverse of from_parameter, and a group isomorphism onto
    LineGroup(p.d): the parameter of a product is the mul() of the
    parameters.
    """
    if p.y == 0:
        return INF if p.x == 1 else Fraction(0)
    return (1 + p.x) / p.y
