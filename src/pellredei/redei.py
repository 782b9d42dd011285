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

Every doubling is (x, y) -> (x**2 + d*y**2, (x + y)**2 - x**2 - y**2),
three squares, since 2*x*y = (x + y)**2 - x**2 - y**2.  When a + b*sqrt(d)
has norm one, a**2 - d*b**2 = 1, so does each of its powers
x + y*sqrt(d), and y**2 is (x**2 - 1)/d, an exact division: the doubled
x**2 + d*y**2 is 2*x**2 - 1, the Dickson step g_2(1, u) = u**2 - 2 on
u = 2x, and a doubling costs two squares.  That holds for every Pell
solution and every power of an integer HyperbolaPoint; any other input
costs three squares, a rational point's too, since its cleared base has
norm w**2 for its denominator w.

Every power of a + b*sqrt(d) in the package is one call of that
square-and-multiply loop, _quadratic_power, on integers; the fast Redei
pair is its b = 1 case.  A rational z = u/v and d = p/q are cleared
first: z + sqrt(d) = (u*q + v*sqrt(p*q))/(v*q), so one integer call on
(p*q, u*q, v) and a division by (v*q)**n give the pair.

The public functions take d, z (or Dickson's a and x) as an int or a
Fraction, through exact._exact, and the index n as an integer, through
operator.index, and a RedeiPair checks its fields the same way: a float,
a str or a Decimal raises TypeError before any arithmetic.
_quadratic_power itself checks nothing; it takes ints only, since its
norm-one squares divide exactly by d with //, which would floor a
Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index

from .exact import INF, Infinity, _exact, _Value

__all__ = [
    "RedeiPair",
    "dickson",
    "redei_pair_fast",
    "redei_pair_linear",
    "redei_rational",
]


class RedeiPair(_Value):
    """num + den*sqrt(d) = (z + sqrt(d))**n, with the inputs that made it.

    Satisfies num**2 - d*den**2 = (z**2 - d)**n (the determinant of the
    underlying 2x2 power); (num, den) is (1, 0) at n = 0 and (z, 1) at n = 1.
    """

    __match_args__ = ("d", "z", "n", "num", "den")

    def __init__(
        self, d: int | Fraction, z: int | Fraction, n: int, num: int | Fraction, den: int | Fraction
    ) -> None:
        self.__dict__.update(
            d=_exact(d), z=_exact(z), n=index(n), num=_exact(num), den=_exact(den)
        )

    @property
    def ratio(self) -> Fraction | Infinity:
        """num/den in lowest terms; INF when den = 0 (in particular n = 0).

        Fraction's division takes the gcds of the single-size halves,
        numerator with numerator and denominator with denominator, where
        Fraction(num, den) of two Fractions would reduce their double-size
        cross products.
        """
        if self.den == 0:
            return INF
        return Fraction(self.num) / self.den


def redei_pair_linear(d: int | Fraction, z: int | Fraction, n: int) -> RedeiPair:
    """(num_n, den_n) by stepping the recurrence; O(n) ring operations."""
    d, z = _exact(d), _exact(z)
    if index(n) < 0:
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

    With z = u/v and d = p/q in lowest terms, (z + sqrt(d))**n is
    (X + Y*sqrt(p*q))/(v*q)**n for X + Y*sqrt(p*q) = (u*q + v*sqrt(p*q))**n,
    one integer call of _quadratic_power, so num = X/(v*q)**n and
    den = Y*q/(v*q)**n.  An int d and an int z give int num and den.
    """
    d, z, n = _exact(d), _exact(z), index(n)
    p, q, u, v = d.numerator, d.denominator, z.numerator, z.denominator
    x, y = _quadratic_power(p * q, u * q, v, n)
    if isinstance(d, int) and isinstance(z, int):
        return RedeiPair(d, z, n, x, y)
    w = (v * q) ** n
    return RedeiPair(d, z, n, Fraction(x, w), Fraction(y * q, w))


def _quadratic_power(d: int, a: int, b: int, n: int) -> tuple[int, int]:
    """(x, y) with x + y*sqrt(d) = (a + b*sqrt(d))**n, for ints d, a, b and n >= 0.

    Scans the bits of n after the leading one, from (x, y) = (a, b), using

        doubling:   (x, y) -> (xx + d*yy, (x + y)**2 - xx - yy)
        step by 1:  (x, y) -> (a*x + d*b*y, b*x + a*y)

    with xx = x**2 and yy = y**2, so a doubling's only products of two
    full-size numbers are squares, only two values are carried per level,
    never a full matrix, and every product stays in Z, with no gcd
    reduction.

    The base's norm N decides only where yy comes from: (xx - 1)//d when
    N = a**2 - d*b**2 = 1 and d != 0, since every power then has norm
    one, and y*y otherwise.  N is tested on squares the loop makes
    anyway: while yy is y*y, at each power of odd exponent m, whose norm
    N**m is 1 exactly when N is; an even power of a base of norm -1 has
    norm one too, so even exponents are not tested.  The first such
    power is (a, b) itself, so its a*a and b*b serve both the test and
    the first doubling: at n = 2 the call makes three full-size squares.
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    if n == 0:
        return 1, 0
    x, y = a, b
    unit_norm, odd = False, True
    for bit in bin(n)[3:]:
        xx = x * x
        if unit_norm:
            yy = (xx - 1) // d
        else:
            yy = y * y
            unit_norm = odd and xx - d * yy == 1 and d != 0
        x, y = xx + d * yy, (x + y) ** 2 - xx - yy
        odd = bit == "1"
        if odd:
            x, y = a * x + d * b * y, b * x + a * y
    return x, y


def redei_rational(d: int | Fraction, z: int | Fraction, n: int) -> Fraction | Infinity:
    """Redei rational function: num_n/den_n reduced, INF when den_n = 0.

    Defined for every integer index; the value at -n is the negation of
    the value at n, negation being inversion for the parameter-line group.
    """
    if index(n) < 0:
        return -redei_rational(d, z, -n)
    return redei_pair_fast(d, z, n).ratio


def dickson(a: int | Fraction, x: int | Fraction, n: int) -> Fraction:
    """Dickson polynomial value g_n(a, x).

    g_0 = 2, g_1 = x, g_n = x*g_{n-1} - a*g_{n-2}.  Twice the Redei
    numerator in disguise: 2*num_n(d, z) = g_n(z**2 - d, 2z).
    """
    if index(n) < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    a, x = Fraction(_exact(a)), Fraction(_exact(x))
    if n == 0:
        return Fraction(2)
    g_prev, g = Fraction(2), x
    for _ in range(n - 1):
        g_prev, g = g, x * g - a * g_prev
    return g
