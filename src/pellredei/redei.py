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

When z**2 - d = 1 every pair has norm num**2 - d*den**2 = 1, so the
doubled numerator num**2 + d*den**2 is 2*num**2 - 1, the Dickson step
g_2(1, x) = x**2 - 2 on x = 2*num.  That holds on the hyperbola, for
every Pell solution and every HyperbolaPoint power, and there a doubling
costs one square and one product; any other input costs two squares and
one product.

Every power of a + b*sqrt(d) in the package is one call of the fast
kernel: b*sqrt(d) = sqrt(d*b**2), so the pair at z = a over the radicand
d*b**2, its denominator scaled by b, is that power (_quadratic_power).
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

    Scans the bits of n from the most significant end, using

        doubling:   (num, den) -> (num**2 + d*den**2, 2*num*den)
        step by 1:  (num, den) -> (z*num + d*den, num + z*den)

    so only two values are carried per level, never a full matrix.
    Integer d and z keep every product in Z, with no gcd reduction.

    The doubling costs one square and one product per level when
    z**2 - d = 1, since the norm num**2 - d*den**2 then stays 1 and the
    new numerator is 2*num**2 - 1; otherwise it costs two squares and
    one product, with d*den**2 taken as d times the square den**2.
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    unit_norm = z * z - d == 1
    num, den = 1, 0
    for bit in bin(n)[2:]:
        if unit_norm:
            num, den = 2 * (num * num) - 1, 2 * num * den
        else:
            num, den = num * num + d * (den * den), 2 * num * den
        if bit == "1":
            num, den = z * num + d * den, num + z * den
    return RedeiPair(d, z, n, num, den)


def _quadratic_power(
    d: int, a: int | Fraction, b: int | Fraction, n: int
) -> tuple[int | Fraction, int | Fraction]:
    """(A, B) with A + B*sqrt(d) = (a + b*sqrt(d))**n, for n >= 0.

    The pair at z = a over the radicand d*b**2, with its denominator
    scaled by b: b*sqrt(d) = sqrt(d*b**2), whatever the sign of b.
    """
    pair = redei_pair_fast(d * b * b, a, n)
    return pair.num, b * pair.den


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
