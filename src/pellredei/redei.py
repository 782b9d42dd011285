"""Redei rational functions and Dickson polynomials.

For a rational parameter z and a radicand d, powers in Q(sqrt(d)) define
two sequences via (z + sqrt(d))**n = num_n + den_n*sqrt(d); the Redei
rational function of index n is their ratio num_n/den_n.  Both sequences
satisfy the order-2 recurrence

    u_n = 2z*u_{n-1} - (z**2 - d)*u_{n-2}

with seeds (1, z) for num and (0, 1) for den, which gives a linear-time
evaluation.  The index-addition rules

    num_{n+m} = num_n*num_m + d*den_n*den_m
    den_{n+m} = den_n*num_m + num_n*den_m

give a logarithmic-time one by binary doubling.  Both kernels compute in
the ring of their inputs: integer d and z give integer pairs.

When a + b*sqrt(d) has norm one, a**2 - d*b**2 = 1, so does each of its
powers x + y*sqrt(d), and the doubled x**2 + d*y**2 is 2*x**2 - 1, the
Dickson step g_2(1, u) = u**2 - 2 on u = 2x.  That holds on the
hyperbola, for every Pell solution and every HyperbolaPoint power, and
there a doubling costs one square and one product; any other input costs
two squares and one product.

Every power of a + b*sqrt(d) in the package is one call of that
square-and-multiply loop, _quadratic_power; the fast Redei pair is its
b = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import INF, Infinity

__all__ = [
    "RedeiPair",
    "dickson",
    "redei_pair_fast",
    "redei_pair_linear",
    "redei_rational",
]


@dataclass(frozen=True)
class RedeiPair:
    """num + den*sqrt(d) = (z + sqrt(d))**n, with the inputs that made it.

    Satisfies num**2 - d*den**2 = (z**2 - d)**n (the determinant of the
    underlying 2x2 power); (num, den) is (1, 0) at n = 0 and (z, 1) at n = 1.
    """

    d: int | Fraction
    z: int | Fraction
    n: int
    num: int | Fraction
    den: int | Fraction

    @property
    def ratio(self) -> Fraction | Infinity:
        """num/den in lowest terms; INF when den = 0 (in particular n = 0)."""
        if self.den == 0:
            return INF
        return Fraction(self.num, self.den)


def redei_pair_linear(d: int | Fraction, z: int | Fraction, n: int) -> RedeiPair:
    """(num_n, den_n) by stepping the recurrence; O(n) ring operations."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    if n == 0:
        return RedeiPair(d, z, 0, 1, 0)
    h = 2 * z
    k = z * z - d
    num_prev, num = 1, z
    den_prev, den = 0, 1
    for _ in range(n - 1):
        num_prev, num = num, h * num - k * num_prev
        den_prev, den = den, h * den - k * den_prev
    return RedeiPair(d, z, n, num, den)


def redei_pair_fast(d: int | Fraction, z: int | Fraction, n: int) -> RedeiPair:
    """Same pair by square-and-multiply; O(log n) ring operations.

    The power (z + sqrt(d))**n of _quadratic_power at b = 1.
    """
    return RedeiPair(d, z, n, *_quadratic_power(d, z, 1, n))


def _quadratic_power(
    d: int | Fraction, a: int | Fraction, b: int | Fraction, n: int
) -> tuple[int | Fraction, int | Fraction]:
    """(x, y) with x + y*sqrt(d) = (a + b*sqrt(d))**n, for n >= 0.

    Scans the bits of n from the most significant end, using

        doubling:   (x, y) -> (x**2 + d*y**2, 2*x*y)
        step by 1:  (x, y) -> (a*x + d*b*y, b*x + a*y)

    so only two values are carried per level, never a full matrix.
    Integer d, a and b keep every product in Z, with no gcd reduction.

    The doubling costs one square and one product per level when
    a**2 - d*b**2 = 1, since the norm x**2 - d*y**2 then stays 1 and the
    new x is 2*x**2 - 1; otherwise it costs two squares and one product,
    with d*y**2 taken as d times the square y**2.
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    unit_norm = a * a - d * (b * b) == 1
    x, y = 1, 0
    for bit in bin(n)[2:]:
        if unit_norm:
            x, y = 2 * (x * x) - 1, 2 * x * y
        else:
            x, y = x * x + d * (y * y), 2 * x * y
        if bit == "1":
            x, y = a * x + d * b * y, b * x + a * y
    return x, y


def redei_rational(d: int | Fraction, z: int | Fraction, n: int) -> Fraction | Infinity:
    """Redei rational function: num_n/den_n reduced, INF when den_n = 0.

    Defined for every integer index; the value at -n is the negation of
    the value at n, negation being inversion for the parameter-line group.
    """
    if n < 0:
        return -redei_rational(d, z, -n)
    return redei_pair_fast(d, z, n).ratio


def dickson(a: int | Fraction, x: int | Fraction, n: int) -> Fraction:
    """Dickson polynomial value g_n(a, x).

    g_0 = 2, g_1 = x, g_n = x*g_{n-1} - a*g_{n-2}.  Twice the Redei
    numerator in disguise: 2*num_n(d, z) = g_n(z**2 - d, 2z).
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    a = Fraction(a)
    x = Fraction(x)
    if n == 0:
        return Fraction(2)
    g_prev, g = Fraction(2), x
    for _ in range(n - 1):
        g_prev, g = g, x * g - a * g_prev
    return g
