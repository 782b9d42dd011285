"""Independent reference implementations the tests compare against.

Everything here is deliberately written from scratch with the dumbest
correct algorithm available (binary search, repeated multiplication,
explicit sums), so that agreement with the package is meaningful.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from pellredei import INF, nth_convergent, redei_pair_fast


def brute_isqrt(n: int) -> int:
    """Floor square root by doubling plus binary search; no math.isqrt."""
    if n < 0:
        raise ValueError("negative input")
    if n == 0:
        return 0
    hi = 1
    while hi * hi <= n:
        hi *= 2
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if mid * mid <= n:
            lo = mid
        else:
            hi = mid
    return lo


def brute_is_square(n: int) -> bool:
    if n < 0:
        return False
    r = brute_isqrt(n)
    return r * r == n


def surd_quotients(d: int, count: int) -> list[int]:
    """First `count` partial quotients of sqrt(d) by the integer surd state."""
    r = brute_isqrt(d)
    quotients = [r]
    m, s = 0, 1
    while len(quotients) < count:
        m = quotients[-1] * s - m
        s = (d - m * m) // s
        quotients.append((r + m) // s)
    return quotients


def surd_denominator(d: int, k: int) -> int:
    """Q_k: the k-th complete quotient of sqrt(d) is (m + sqrt(d))/Q_k, by the
    integer surd state."""
    r = brute_isqrt(d)
    a, m, s = r, 0, 1
    for _ in range(k):
        m = a * s - m
        s = (d - m * m) // s
        a = (r + m) // s
    return s


def fold_quotients(quotients: list[int]) -> Fraction:
    """Exact value of the finite continued fraction [q0; q1, ..., qk]."""
    value = Fraction(quotients[-1])
    for a in reversed(quotients[:-1]):
        value = a + 1 / value
    return value


def pell_by_convergent_scan(d: int, max_terms: int = 100_000) -> tuple[int, int, int]:
    """(index, p, q) of the first convergent of sqrt(d) with p^2 - d*q^2 = 1."""
    r = brute_isqrt(d)
    m, s, a = 0, 1, r
    p_prev, q_prev = 1, 0
    p, q = a, 1
    k = 0
    while p * p - d * q * q != 1:
        m = a * s - m
        s = (d - m * m) // s
        a = (r + m) // s
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        k += 1
        if k > max_terms:
            raise RuntimeError(f"no unit convergent found for d={d}")
    return k, p, q


def walk_unit(expansion) -> tuple[int, int]:
    """(p, q), the period unit p + q*sqrt(d): convergent L - 1, read off the
    package's sequential walk, which the solver's route does not use."""
    unit = nth_convergent(expansion, expansion.period_length - 1)
    return unit.p, unit.q


def pell_by_y_scan(d: int) -> tuple[int, int]:
    """Smallest solution by trying y = 1, 2, ... directly."""
    y = 1
    while True:
        t = d * y * y + 1
        x = brute_isqrt(t)
        if x * x == t:
            return x, y
        y += 1


def pell_by_slope_redei(d: int, x1: int, y1: int, n: int) -> tuple[int, int]:
    """n-th solution as the index-2n Redei value at the slope (x1 + 1)/y1.

    The paper's route over Q: (z + sqrt(d))**2 is a rational multiple of
    x1 + y1*sqrt(d) at that slope, so the reduced ratio of index 2n is
    x_n/y_n.  It runs the pair kernel on rationals, at another base and
    index than the solver's integer route, so the two agree only if the
    kernel's doubling holds with y**2 as a square and as (x**2 - 1)/d.
    """
    value = redei_pair_fast(d, Fraction(x1 + 1, y1), 2 * n).ratio
    return value.numerator, value.denominator


def quad_mul_tuple(
    d, p: tuple[Fraction, Fraction], q: tuple[Fraction, Fraction]
) -> tuple[Fraction, Fraction]:
    """(a1 + b1*sqrt(d))(a2 + b2*sqrt(d)) on raw coefficient pairs."""
    (a1, b1), (a2, b2) = p, q
    return (a1 * a2 + d * b1 * b2, a1 * b2 + b1 * a2)


def field_power_pair(d, z, n: int, b=1) -> tuple[Fraction, Fraction]:
    """Coefficients of (z + b*sqrt(d))^n by n plain multiplications."""
    acc = (Fraction(1), Fraction(0))
    base = (Fraction(z), Fraction(b))
    for _ in range(n):
        acc = quad_mul_tuple(d, acc, base)
    return acc


def odot_value(d: int, x, y):
    """One application of the projective-line product, written out."""
    if x is INF:
        return y
    if y is INF:
        return x
    x, y = Fraction(x), Fraction(y)
    s = x + y
    if s == 0:
        return INF
    return (d + x * y) / s


def fold_odot(d: int, z, n: int):
    """n-fold product of z with itself under the line group, by brute fold."""
    acc = INF
    for _ in range(n):
        acc = odot_value(d, acc, z)
    return acc


def dickson_sum(a, x, n: int) -> Fraction:
    """Explicit finite sum for the degree-n Dickson polynomial value."""
    if n == 0:
        return Fraction(2)
    a, x = Fraction(a), Fraction(x)
    return sum(
        (
            Fraction(n, n - i) * comb(n - i, i) * (-a) ** i * x ** (n - 2 * i)
            for i in range(n // 2 + 1)
        ),
        Fraction(0),
    )


def random_fraction(
    rng: random.Random,
    max_num: int = 30,
    max_den: int = 12,
    nonzero: bool = False,
) -> Fraction:
    num = rng.randint(-max_num, max_num)
    while nonzero and num == 0:
        num = rng.randint(-max_num, max_num)
    return Fraction(num, rng.randint(1, max_den))


def random_nonsquare(rng: random.Random, lo: int = 2, hi: int = 500) -> int:
    while True:
        d = rng.randint(lo, hi)
        if not brute_is_square(d):
            return d
