"""Periodic continued fraction of sqrt(d) and its convergent stream.

All arithmetic is on integers.  The expansion is produced by the classical
surd recurrence on states (m, s), where the k-th complete quotient is
(m + sqrt(d))/s; s divides d - m**2 at every step, so the division below
is exact and no irrational value is ever touched.  The recurrence runs
only to the middle of the period, where the states turn symmetric, and
the rest of the period is its mirror image.

The convergent stream and nth_convergent share one recurrence, which
walks the partial quotients one at a time on plain ints; nth_convergent
builds a Convergent only for the index asked for.  The walk is quadratic
in the size of its output and is kept as the plain witness and test
oracle; the solver's route to a solution convergent is solver._convergent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .exact import ConsistencyError, _brief, isqrt, require_nonsquare

__all__ = ["Convergent", "SqrtExpansion", "convergents", "nth_convergent", "sqrt_cf"]


@dataclass(frozen=True)
class SqrtExpansion:
    """First period of the expansion sqrt(d) = [a0; a1, a2, ...].

    ``period`` holds one full period (a1, ..., aL); its last entry is
    always 2*a0 and its interior is palindromic.
    """

    d: int
    a0: int
    period: tuple[int, ...]

    @property
    def period_length(self) -> int:
        return len(self.period)

    def partial_quotients(self) -> Iterator[int]:
        """a0 followed by the period repeated forever."""
        yield self.a0
        yield from itertools.cycle(self.period)


def sqrt_cf(d: int) -> SqrtExpansion:
    """Expand sqrt(d) for a positive nonsquare integer d.

    States step as

        a = (a0 + m) // s,   m' = a*s - m,   s' = (d - m'**2) // s

    from state 0, (m, s) = (0, 1), which gives a0 itself.  The period
    length L is odd, L = 2h + 1, exactly when s_h = s_(h+1) for some
    h >= 0, and even, L = 2h, exactly when m_h = m_(h+1) for some h >= 1;
    the first such h is the middle of the period, so only h steps are
    taken and the quotients a1..ah are mirrored:

        odd L:   a1..ah, ah..a1, 2*a0
        even L:  a1..ah, a(h-1)..a1, 2*a0

    L = 1 (d = a0**2 + 1) is the odd case h = 0, as s_0 = s_1 = 1.  One
    step past the middle must give the mirrored quotient there, or
    ConsistencyError is raised.
    """
    a0 = isqrt(require_nonsquare(d))
    prev_m, prev_s = 0, 1
    m, s = a0, d - a0 * a0
    half: list[int] = []
    while True:
        if s == prev_s:
            period = half + half[::-1] + [2 * a0]
            break
        if m == prev_m:
            period = half + half[-2::-1] + [2 * a0]
            break
        a = (a0 + m) // s
        half.append(a)
        prev_m, prev_s = m, s
        m = a * s - m
        s = (d - m * m) // prev_s
    if (a0 + m) // s != period[len(half)]:
        raise ConsistencyError(f"period of sqrt({_brief(d)}) is not symmetric about its middle")
    return SqrtExpansion(d, a0, tuple(period))


@dataclass(frozen=True)
class Convergent:
    """The k-th convergent p/q of the expansion (k counts from 0)."""

    k: int
    p: int
    q: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)


def _pairs(cf: SqrtExpansion) -> Iterator[tuple[int, int]]:
    """Unbounded stream of (p_k, q_k), k = 0, 1, 2, ..., on plain ints.

    p_k = a_k*p_{k-1} + p_{k-2} and likewise for q, with the usual seeds.
    """
    p, p_prev = 1, 0
    q, q_prev = 0, 1
    for a in cf.partial_quotients():
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        yield p, q


def convergents(cf: SqrtExpansion) -> Iterator[Convergent]:
    """Unbounded lazy stream of convergents p_k/q_k, k = 0, 1, 2, ...

    Each generator is an independent single-consumer cursor.
    """
    for k, (p, q) in enumerate(_pairs(cf)):
        yield Convergent(k, p, q)


def nth_convergent(cf: SqrtExpansion, k: int) -> Convergent:
    """Convergent at index k (0-based)."""
    if k < 0:
        raise ValueError(f"convergent index must be nonnegative, got {k}")
    p, q = next(itertools.islice(_pairs(cf), k, None))
    return Convergent(k, p, q)
