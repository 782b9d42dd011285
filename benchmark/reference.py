"""Independent reference answers for the benchmark's checks.

Nothing here imports pellredei.  The period comes from this module's own
surd recurrence, the fundamental solution from convergents reduced mod a
fixed large prime, and the n-th solution from (x1 + y1*sqrt(d))**n mod
the same prime.  A wrong answer from any route of the program therefore
has to collide with an unrelated computation mod a 127-bit prime to pass.

It also parses decimal text of any length without touching the
interpreter's int-to-str digit limit, so answers the program prints
beyond that limit can still be checked.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

PRIME = (1 << 127) - 1

# Below CPython's default limit of 4300 digits, so int() never refuses a chunk.
_CHUNK_DIGITS = 4000
_INTEGER = re.compile(r"-?[0-9]+")


def period(d: int, max_terms: int | None = None) -> tuple[int, tuple[int, ...]] | None:
    """a0 and one period of sqrt(d), or None past max_terms terms.

    Steps the complete quotient (m + sqrt(d))/s from (0, 1); the period
    closes at the first s = 1 after the start.
    """
    a0 = math.isqrt(d)
    if a0 * a0 == d:
        raise ValueError(f"d = {d} is a perfect square")
    m, s, a = 0, 1, a0
    terms: list[int] = []
    while True:
        m = a * s - m
        s = (d - m * m) // s
        a = (a0 + m) // s
        terms.append(a)
        if s == 1:
            return a0, tuple(terms)
        if max_terms is not None and len(terms) >= max_terms:
            return None


def fundamental_index(period_length: int) -> int:
    """Convergent index of the minimal solution."""
    return period_length - 1 if period_length % 2 == 0 else 2 * period_length - 1


def convergent(a0: int, terms: tuple[int, ...], k: int, modulus: int | None = None) -> tuple[int, int]:
    """(p_k, q_k), reduced mod modulus when one is given."""
    p_prev, p, q_prev, q = 1, a0, 0, 1
    for a in itertools.islice(itertools.cycle(terms), k):
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        if modulus is not None:
            p, q = p % modulus, q % modulus
    return p, q


def quadratic_power(d: int, x: int, y: int, n: int, modulus: int | None = None) -> tuple[int, int]:
    """(a, b) with a + b*sqrt(d) = (x + y*sqrt(d))**n, optionally mod modulus."""
    a, b = 1, 0
    for bit in bin(n)[2:]:
        a, b = a * a + d * b * b, 2 * a * b
        if bit == "1":
            a, b = a * x + d * b * y, a * y + b * x
        if modulus is not None:
            a, b = a % modulus, b % modulus
    return a, b


@dataclass(frozen=True)
class Radicand:
    """What the reference keeps about one d: not the period itself, whose
    terms would make the benchmark's memory grow with every long period."""

    d: int
    period_length: int
    fundamental_mod: tuple[int, int]

    def solution_mod(self, n: int) -> tuple[int, int]:
        """(x_n, y_n) mod PRIME."""
        x1, y1 = self.fundamental_mod
        return quadratic_power(self.d % PRIME, x1, y1, n, PRIME)


class Reference:
    """Per-run cache of reference data, keyed by d."""

    def __init__(self) -> None:
        self._radicands: dict[int, Radicand] = {}

    def radicand(self, d: int, known_period: tuple[int, tuple[int, ...]] | None = None) -> Radicand:
        r = self._radicands.get(d)
        if r is None:
            a0, terms = known_period or period(d)
            fundamental = convergent(a0, terms, fundamental_index(len(terms)), PRIME)
            r = self._radicands[d] = Radicand(d, len(terms), fundamental)
        return r


def fundamental_exact(d: int) -> tuple[int, int]:
    """The minimal solution over Z; for small d only."""
    a0, terms = period(d)
    return convergent(a0, terms, fundamental_index(len(terms)))


def redei_pair(d: int, z: Fraction, n: int) -> tuple[Fraction, Fraction]:
    """(num, den) with num + den*sqrt(d) = (z + sqrt(d))**n, over Q.

    Clears the denominator b of z: (a + b*sqrt(d))**n over Z, divided by b**n.
    """
    a, b = quadratic_power(d, z.numerator, z.denominator, n)
    scale = z.denominator**n
    return Fraction(a, scale), Fraction(b, scale)


def parse_int(text: str) -> int:
    """Decimal text of any length to int, splitting it into short chunks."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not a decimal integer: {text[:40]!r}")
    if text.startswith("-"):
        return -parse_int(text[1:])
    if len(text) <= _CHUNK_DIGITS:
        return int(text)
    low = len(text) // 2
    return parse_int(text[:-low]) * 10**low + parse_int(text[-low:])


def parse_fraction(text: str) -> Fraction:
    """'p' or 'p/q' in decimal, of any length."""
    num, sep, den = text.partition("/")
    return Fraction(parse_int(num), parse_int(den) if sep else 1)
