"""Periodic continued fraction of sqrt(d) and its convergent stream.

All arithmetic is on integers.  The expansion is produced by the classical
surd recurrence on states (m, s), where the k-th complete quotient is
(m + sqrt(d))/s; s divides d - m**2 at every step, and the next s is
taken from the last two states without that division, so no irrational
value is ever touched.  The recurrence runs only to the middle of the
period, where the states turn symmetric, and the rest of the period is
its mirror image.

The convergent stream, nth_convergent, the CLI's cf and the solver's
witness share one recurrence, _pairs, which walks the period's quotients
one at a time on plain ints from the state of convergent 0, (a0, 1).
It can stride: _pairs(cf, first, step) yields only the pairs at indices
first, first + step, ..., running the recurrence over the quotients in
between in an inner loop, so nth_convergent builds a Convergent only for
the index asked for, and the witness, which reads every stride-th pair,
builds none and resumes no generator per skipped index.  The walk is
quadratic in the size of its output and is kept as the plain witness
and test oracle.  The solver reads only two half-period convergents
off the expansion, by solver._half_period, and s_h, the surd
denominator at the period's middle, which _expand returns beside the
expansion; it makes the fundamental from them, and every other
solution is the fundamental's power.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from fractions import Fraction

from .exact import ConsistencyError, _brief, _Value, isqrt, require_nonsquare

__all__ = ["Convergent", "SqrtExpansion", "convergents", "nth_convergent", "sqrt_cf"]


class SqrtExpansion(_Value):
    """First period of the expansion sqrt(d) = [a0; a1, a2, ...].

    ``period`` holds one full period (a1, ..., aL); its last entry is
    always 2*a0 and its interior is palindromic.
    """

    __match_args__ = ("d", "a0", "period")

    def __init__(self, d: int, a0: int, period: tuple[int, ...]) -> None:
        self.__dict__.update(d=d, a0=a0, period=period)

    @property
    def period_length(self) -> int:
        return len(self.period)

    def partial_quotients(self) -> Iterator[int]:
        """a0 followed by the period repeated forever."""
        return itertools.chain((self.a0,), itertools.cycle(self.period))


def sqrt_cf(d: int) -> SqrtExpansion:
    """Expand sqrt(d) for a positive nonsquare integer d: one period, by
    the surd recurrence run to the middle of the period (_expand)."""
    return _expand(d)[0]


def _expand(d: int) -> tuple[SqrtExpansion, int]:
    """(sqrt_cf(d), s_h): the expansion, and s at the middle of the period.

    States step as

        a = (a0 + m) // s,   m' = a*s - m,   s' = s_prev + a*(m - m')

    from state 1, (m, s) = (a0, d - a0**2), after state 0, (0, 1), which
    gives a0 itself; s_prev is the s of the state before.  s' equals the
    classical (d - m'**2) // s, but takes no square and no second
    division.  The period length L is odd, L = 2h + 1, exactly when
    s_h = s_(h+1) for some h >= 0, and even, L = 2h, exactly when
    m_h = m_(h+1) for some h >= 1; the first such h is the middle of the
    period, so only h steps are taken and the quotients a1..ah are
    mirrored:

        odd L:   a1..ah, ah..a1, 2*a0
        even L:  a1..ah, a(h-1)..a1, 2*a0

    L = 1 (d = a0**2 + 1) is the odd case h = 0, as s_0 = s_1 = 1.  One
    step past the middle must give the mirrored quotient there, or
    ConsistencyError is raised.

    s_h is the prev_s the loop exits with.  It is the surd denominator
    Q_h that solver._fundamental tests the half-period convergents
    against, on their norm, so it comes from this recurrence and not
    from the convergents.
    """
    d = require_nonsquare(d)
    a0 = isqrt(d)
    prev_m, prev_s = 0, 1
    m, s = a0, d - a0 * a0
    half: list[int] = []
    while s != prev_s and m != prev_m:
        a = (a0 + m) // s
        half.append(a)
        prev_m, m = m, a * s - m
        prev_s, s = s, prev_s + a * (prev_m - m)
    period = half + (half[::-1] if s == prev_s else half[-2::-1]) + [2 * a0]
    if (a0 + m) // s != period[len(half)]:
        raise ConsistencyError(f"period of sqrt({_brief(d)}) is not symmetric about its middle")
    return SqrtExpansion(d, a0, tuple(period)), prev_s


class Convergent(_Value):
    """The k-th convergent p/q of the expansion (k counts from 0)."""

    __match_args__ = ("k", "p", "q")

    def __init__(self, k: int, p: int, q: int) -> None:
        self.__dict__.update(k=k, p=p, q=q)

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)


def _pairs(cf: SqrtExpansion, first: int = 0, step: int = 1) -> Iterator[tuple[int, int]]:
    """Unbounded stream of (p_k, q_k), k = first, first + step, ..., on plain ints.

    p_k = a_k*p_{k-1} + p_{k-2} and likewise for q, from convergent 0,
    (p, p_prev, q, q_prev) = (a0, 1, 1, 0), over the period repeated.
    Every quotient passes through the recurrence, but only the pairs at
    the requested indices are yielded: the inner loop takes each run of
    quotients by islice from one shared iterator.  first >= 0, step >= 1.
    """
    p, p_prev, q, q_prev = cf.a0, 1, 1, 0
    quotients = itertools.cycle(cf.period)
    run = first
    while True:
        for a in itertools.islice(quotients, run):
            p, p_prev = a * p + p_prev, p
            q, q_prev = a * q + q_prev, q
        yield p, q
        run = step


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
    p, q = next(_pairs(cf, k))
    return Convergent(k, p, q)
