"""The rational points of x**2 - d*y**2 = 1 as a commutative group.

The product

    (s, t) * (u, v) = (s*u + d*t*v, t*u + s*v)

is multiplication in Q(sqrt(d)) restricted to elements of norm one, so
identity (1, 0), inverse = conjugate (x, -y), and associativity are all
inherited.  A point's n-th power is (x + y*sqrt(d))**n, one call of the
square-and-multiply kernel over Q, so exponentiation is logarithmic, and
the curve is checked once, on the result.

The parametrization by slope connects this group to the projective-line
group in projline: from_parameter/to_parameter are mutually inverse
bijections with Q ∪ {INF}, and to_parameter turns the product above
into LineGroup(d).mul.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import INF, Infinity, QuadraticElement, _brief, require_nonsquare
from .redei import _quadratic_power

__all__ = ["HyperbolaPoint", "from_parameter", "to_parameter"]


@dataclass(frozen=True)
class HyperbolaPoint:
    """A rational solution of x**2 - d*y**2 = 1, with the group product."""

    d: int
    x: Fraction
    y: Fraction

    def __post_init__(self) -> None:
        require_nonsquare(self.d)
        object.__setattr__(self, "x", Fraction(self.x))
        object.__setattr__(self, "y", Fraction(self.y))
        if self.x * self.x - self.d * (self.y * self.y) != 1:
            point = f"({_brief(self.x)}, {_brief(self.y)})"
            raise ValueError(f"{point} is not on x^2 - {_brief(self.d)}y^2 = 1")

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
        """n-th group power; only the result is checked against the curve."""
        x, y = _quadratic_power(self.d, self.x, self.y, abs(n))
        return HyperbolaPoint(self.d, x, -y if n < 0 else y)

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
    require_nonsquare(d)
    if m is INF:
        return HyperbolaPoint.identity(d)
    m = Fraction(m)
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
