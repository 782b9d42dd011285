"""Exact arithmetic foundations.

Integers are plain Python ints (arbitrary precision), rationals are
``fractions.Fraction`` (always reduced, positive denominator).  This module
adds the two values those types cannot express: the point at infinity of
the projective rational line, and elements a + b*sqrt(d) of the quadratic
field Q(sqrt(d)).  No floating point is used anywhere.

An int and a Fraction are the only exact numbers.  Every public entry
point that takes a number passes it through _exact, which returns it
unchanged or raises TypeError, so a float, a str or a Decimal is refused
before any arithmetic and never converted.  QuadraticElement's operators
ask the same question of their other operand, but answer NotImplemented,
as Python's operator protocol expects, instead of raising.  An integer
slot takes operator.index of its value instead, so an integer-like value
(one with __index__) is stored as a plain int and none of its own
arithmetic, such as a fixed-width product that wraps, reaches a check.

_solves_pell is the one exact check of the Pell curve, x**2 - d*y**2 ==
w**2: with w = 1 it checks each PellSolution built unchecked from its
parts, such as the linear fold's.  The solver's own answers are proved
instead, from the norms of half-size numbers: each fundamental solution
by solver._fundamental from its half-period convergents, and each n-th
power by solver._power from its half power.  Every HyperbolaPoint
passes it on its coordinates cleared by w, the denominator of y.  Below
2**15 bits of x it is the plain expression.  Above, it tests
R = x**2 - d*y**2 - w**2 modulo the pair 2**s - 1 and 2**s + 1 for a run
of primes s whose sum of 2*s - 3 exceeds the bits of |R|: these moduli
are pairwise coprime but for a common factor 3 among the 2**s + 1, so
their lcm exceeds |R|, R vanishes modulo all of them only if R = 0, and
the test stays exact.
One fold of each of x, y, d and w to 2**(2*s) - 1 serves both moduli of
a pair, since 2**(2*s) - 1 = (2**s - 1)*(2**s + 1), and a value below
2**s - 1 (w = 1, a small d) is its own residue and needs none.  A fold
is a few linear passes of shifts, masks and adds (_mod_mersenne), so the
test squares s-bit residues, never the full-size x and y.  Best of 5 on a
2-vCPU VM under CPython 3.11, plain expression against this check:
d = 61, n = 10**5 (x of 3.17M bits): 790 -> 257 ms; d = 1000003,
n = 10**3 (832k bits): 92.9 -> 34.6 ms; d = 2, n = 10**5 (254k bits):
15.4 -> 7.4 ms.

_decimal_text is str() of an int, with the same bytes and the same
ValueError past the int-to-str digit limit, and the CLI's one way to
turn an int into text.  Below 4500 bits it is str() itself.  Above, it
splits the int at a few cached powers 10**(450 * 2**j), each quotient
a product by a cached reciprocal and a shift, into str() leaves of 450
digits.  str() against the split, the mean over 12 random ints of each
one's best of 40, CPython 3.10-3.13 on a 2-vCPU VM: 34-38 -> 30-33 us
at 5k bits, 138-148 -> 96-112 us at 10k bits, 271-283 -> 172-200 us at
14k bits.

The package's immutable values -- points, Redei pairs, expansions,
convergents, solutions and reports -- share one small base, _Value.  A
subclass names its fields, in order, in __match_args__ and stores them
in its own __init__, after its checks.  The base makes a value equal
only to a value of the same class with equal fields, hashes it by its
fields, prints it as ClassName(field=value, ...), and refuses to assign
or delete an attribute; instances keep a __dict__, so pickle and copy
work unchanged.  These are plain classes, not dataclasses: importing
dataclasses and generating each class's methods at import took most of
the package's import time.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
import sys
from fractions import Fraction
from math import isqrt

__all__ = [
    "INF",
    "ConsistencyError",
    "Infinity",
    "PerfectSquareError",
    "QuadraticElement",
    "decimal_digits",
    "is_perfect_square",
    "isqrt",
    "require_nonsquare",
]


class PerfectSquareError(ValueError):
    """Raised where a positive nonsquare parameter d is required."""


class ConsistencyError(RuntimeError):
    """An internal check failed: a result broke an identity it must satisfy."""


class Infinity:
    """The point at infinity of the projective rational line.

    A single distinguished value (use the module constant ``INF``), kept
    deliberately outside the Fraction hierarchy: ordinary arithmetic on it
    is a bug, only the group operations are allowed to consume it.  Its
    one algebraic ability is negation, which fixes it (INF is the group
    identity and its own inverse).
    """

    __slots__ = ()
    _instance: "Infinity | None" = None

    def __new__(cls) -> "Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INF"

    def __neg__(self) -> "Infinity":
        return self


INF = Infinity()


def is_perfect_square(n: int) -> bool:
    """True iff n is the square of an integer (negatives never are)."""
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def decimal_digits(n: int) -> int:
    """Number of decimal digits of |n| (0 counts as one digit).

    Works on integers far beyond the interpreter's int-to-str conversion
    limit: estimate from the bit length, then correct downward by exact
    comparison with powers of ten.  As n < 2**bits and 30103/100000 >
    log10(2), the estimate bits*30103 // 100000 is never below
    floor(log10(n)), so no upward correction is needed.
    """
    n = abs(n)
    if n < 10:
        return 1
    est = n.bit_length() * 30103 // 100000
    while 10**est > n:
        est -= 1
    return est + 1


# Below this many bits str() is the cheaper way to text (it costs the
# same as the split near 4000 bits on CPython 3.10-3.13).
_TEXT_CUT = 4500
# The split's levels are 10**(_TEXT_LEAF * 2**j) for j below _TEXT_LEVELS,
# enough for 2 * 450 * 2**3 = 7200 digits, past the default 4300-digit limit.
_TEXT_LEAF = 450
_TEXT_LEVELS = 4


@functools.cache
def _text_level(j: int) -> tuple[int, int, int, int]:
    """(P, m, s, u) for P = 10**(_TEXT_LEAF * 2**j): m = 2**t // P for the
    bit length t of P*P, s = bits(P) - 1 and u = t - s."""
    power = 10 ** (_TEXT_LEAF << j)
    shift = power.bit_length() - 1
    top = (power * power).bit_length()
    return power, (1 << top) // power, shift, top - shift


def _text_divmod(v: int, j: int) -> tuple[int, int]:
    """divmod(v, P) for P of level j and an int 0 <= v < P*P, by products.

    With t, m, s and u as in _text_level, q = ((v >> s)*m) >> u.  As
    v >> s <= v/2**s and m <= 2**t/P, q <= v/P; as each floor loses under
    one, v < 2**t and 2**s <= P, q > v/P - 2.  So q is the quotient or
    falls short by one or two, which the loop adds back.  Both products
    have about bits(P) bits, where divmod divides at quadratic cost.
    """
    power, inverse, shift, scale = _text_level(j)
    q = ((v >> shift) * inverse) >> scale
    r = v - q * power
    while r >= power:
        q += 1
        r -= power
    return q, r


def _padded_text(v: int, j: int) -> str:
    """The digits of 0 <= v < 10**(2 * _TEXT_LEAF * 2**j), zero-padded to
    that width; j = -1 is a leaf of _TEXT_LEAF digits, done by str()."""
    if j < 0:
        return str(v).zfill(_TEXT_LEAF)
    q, r = _text_divmod(v, j)
    return _padded_text(q, j - 1) + _padded_text(r, j - 1)


def _decimal_text(v: int) -> str:
    """str(v) for an int v, by a subquadratic split above _TEXT_CUT bits.

    Below the cut it is str(v).  Above, with D >= the digits of |v|, v
    is split at the smallest level P = 10**K with K * 2 >= D: the high
    part, below 10**(D - K), becomes text the same way (none when it is
    0), and the low part, below P, is split at every lower level into
    _TEXT_LEAF-digit leaves, each zero-padded.  Splitting costs a few
    products per level, so the whole is subquadratic (Barrett, 1986;
    Bernstein, "Fast multiplication and its applications", 2008), where
    str() is quadratic.  The digit limit holds: past
    sys.get_int_max_str_digits(), and past the last level, it is str(v),
    which raises the same ValueError where the limit applies.
    """
    bits = v.bit_length()
    if bits < _TEXT_CUT:
        return str(v)
    if v < 0:
        return "-" + _decimal_text(-v)
    digits = bits * 30103 // 100000 + 1  # >= the digits of v, as in decimal_digits
    limit = getattr(sys, "get_int_max_str_digits", int)()  # none when 0 or before 3.10.7
    j = 0
    while _TEXT_LEAF << (j + 1) < digits:
        j += 1
    if j >= _TEXT_LEVELS or limit and digits > limit:
        return str(v)
    q, r = _text_divmod(v, j)
    # D may exceed the digits of v by one, so q may be 0 and print nothing.
    return (_decimal_text(q) if q else "") + _padded_text(r, j - 1)


def _brief(value: object) -> str:
    """str(value) for an error message; a number past 256 bits shows its size.

    str() of an integer beyond the int-to-str conversion limit raises a
    ValueError of its own, which would hide the error being reported.
    """
    if isinstance(value, (int, Fraction)):
        bits = max(value.numerator.bit_length(), value.denominator.bit_length())
        if bits > 256:
            return f"<{bits}-bit number>"
    return str(value)


def _exact(value: object) -> int | Fraction:
    """value itself if it is an int or a Fraction; TypeError for anything else."""
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"not an exact number (int or Fraction): {value!r}")


def require_nonsquare(d: int) -> int:
    """Validate a radicand: d must be a positive nonsquare integer.

    Returns d as a plain int, operator.index(d), so an integer-like d
    (one with __index__) carries none of its own arithmetic, such as
    fixed-width products that wrap, into the caller.  A non-integer d
    raises TypeError whatever its sign, before the sign test.
    """
    d = operator.index(d)
    if d <= 0:
        raise ValueError(f"d must be positive, got {_brief(d)}")
    if is_perfect_square(d):
        raise PerfectSquareError(f"d = {_brief(d)} is a perfect square")
    return d


# Bit length of x from which _solves_pell works in residues: below it the
# plain expression is cheaper (the two cost the same near 30k bits).
_RESIDUE_BITS = 1 << 15
# The first ladder of prime exponents starts here, and each ladder holds
# this many primes; the next ladder starts at twice the start.  A start
# above 3 keeps 9 from dividing any 2**s + 1.
_LADDER_START = 3072
_LADDER_SIZE = 48


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % p for p in range(2, isqrt(n) + 1))


@functools.cache
def _ladder(start: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The first _LADDER_SIZE primes from start up, and the running sums of 2*p - 3."""
    primes = tuple(itertools.islice(filter(_is_prime, itertools.count(start)), _LADDER_SIZE))
    return primes, tuple(itertools.accumulate(2 * p - 3 for p in primes))


def _moduli(bound: int) -> tuple[int, ...]:
    """The shortest run of ladder primes s, from the ladder's start, with sum(2*s - 3) > bound.

    The first ladder that can reach bound serves, so a run holds at most
    _LADDER_SIZE primes and s grows with bound: the folds cost about
    len(run) passes over the operands, which would grow quadratic if
    the run did.
    """
    start = _LADDER_START
    while True:
        primes, sums = _ladder(start)
        if sums[-1] > bound:
            return primes[: bisect.bisect_right(sums, bound) + 1]
        start *= 2


def _mod_mersenne(v: int, s: int) -> int:
    """v mod 2**s - 1, in [0, 2**s - 1), for an int v >= 0, by shifts, masks and adds.

    2**w = 1 (mod 2**s - 1) whenever s divides w, so v = hi*2**w + lo
    folds to hi + lo.  The widths w = s*2**j halve from the first one with
    2*w >= bits(v), so each fold about halves v and the folds together
    cost a few linear passes over v, where one % would be CPython's
    quadratic long division.
    """
    w = s
    while 2 * w < v.bit_length():
        w *= 2
    while w > s:
        v = (v & ((1 << w) - 1)) + (v >> w)
        w //= 2
    mask = (1 << s) - 1
    while v > mask:
        v = (v & mask) + (v >> s)
    return 0 if v == mask else v


def _fold_fermat(v: int, s: int) -> int:
    """v mod 2**s + 1, in [0, 2**s + 1), for an int v in [0, 2**(2*s) - 1).

    With v = hi*2**s + lo, 2**s is -1 modulo 2**s + 1, so v reduces to
    lo - hi.
    """
    minus = (v & ((1 << s) - 1)) - (v >> s)
    return minus + (1 << s) + 1 if minus < 0 else minus


def _mod_fermat(v: int, s: int) -> int:
    """v mod 2**s + 1, in [0, 2**s + 1), for an int v >= 0, by shifts, masks and adds.

    2**s + 1 divides 2**(2*s) - 1, so v folds first to width 2*s.
    """
    return _fold_fermat(_mod_mersenne(v, 2 * s), s)


def _split(v: int, s: int) -> tuple[int, int]:
    """(v mod 2**s - 1, v mod 2**s + 1) for an int v >= 0, from one fold.

    A v below 2**s - 1 is its own residue on both sides.  Any other v
    folds once to 2**(2*s) - 1 = (2**s - 1)*(2**s + 1), and that residue
    reduces modulo each factor.
    """
    if v < (1 << s) - 1:
        return v, v
    v = _mod_mersenne(v, 2 * s)
    return _mod_mersenne(v, s), _fold_fermat(v, s)


def _solves_pell(x: int, y: int, d: int, w: int = 1) -> bool:
    """x**2 - d*y**2 == w**2, decided exactly, for ints x, y, d, w >= 0.

    Below _RESIDUE_BITS bits of x this is the plain expression.  Above,
    R = x**2 - d*y**2 - w**2 is tested modulo 2**s - 1 and 2**s + 1 for a
    run of primes s > 3 with sum(2*s - 3) > B = max(2*bits(x),
    bits(d) + 2*bits(y), 2*bits(w)) + 1.  The argument: |R| <= max(x**2,
    d*y**2 + w**2) < 2**B, and for distinct odd primes a, b,
      - gcd(2**a - 1, 2**b - 1) = 2**gcd(a, b) - 1 = 1,
      - gcd(2**a - 1, 2**b + 1) = 1 and gcd(2**a - 1, 2**a + 1) = 1,
      - gcd(2**a + 1, 2**b + 1) = 2**gcd(a, b) + 1 = 3, and for s > 3
        the prime 3 divides 2**s + 1 exactly once.
    So the lcm of the moduli is 3 times the product of the 2**s - 1 and
    the (2**s + 1)/3, at least 2**sum(2*s - 3) > 2**B > |R|, and R = 0
    modulo every one of them means R = 0.  Nothing is probabilistic.
    x, y, d and w are folded once per pair, to 2**(2*s) - 1, and split
    into both residues (_split); a value below 2**s - 1, such as w = 1 or
    a small d, is its own residue on both sides and is not folded.  The
    squares are of s-bit numbers, so the test never squares the
    full-size x, y and w.  Testing R modulo 2**(2*s) - 1 itself would be
    as exact, but squares 2s-bit residues: it measured 8-38% slower from
    44k to 3.2M bits of x.
    """
    if x.bit_length() < _RESIDUE_BITS:
        return x * x - d * (y * y) == w * w
    bound = max(2 * x.bit_length(), d.bit_length() + 2 * y.bit_length(), 2 * w.bit_length()) + 1
    for s in _moduli(bound):
        (xm, xp), (ym, yp), (dm, dp), (wm, wp) = (_split(v, s) for v in (x, y, d, w))
        if _mod_mersenne(xm * xm, s) != _mod_mersenne(dm * _mod_mersenne(ym * ym, s) + wm * wm, s):
            return False
        if _mod_fermat(xp * xp, s) != _mod_fermat(dp * _mod_fermat(yp * yp, s) + wp * wp, s):
            return False
    return True


class _Value:
    """Base of the immutable value classes: equality, hash, repr, no assignment.

    __match_args__ lists the fields in order; it also keeps positional
    match patterns working.
    """

    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class QuadraticElement(_Value):
    """An element a + b*sqrt(d) of Q(sqrt(d)), d a positive nonsquare.

    Immutable; mixed arithmetic with ints and Fractions embeds them as
    rational elements.  Elements of fields with different d never mix,
    except that purely rational values compare equal across fields.
    """

    __match_args__ = ("a", "b", "d")

    def __init__(self, a: int | Fraction, b: int | Fraction, d: int) -> None:
        d = require_nonsquare(d)
        self.__dict__.update(a=Fraction(_exact(a)), b=Fraction(_exact(b)), d=d)

    def _lift(self, other: object) -> "QuadraticElement | None":
        if isinstance(other, QuadraticElement):
            if other.d != self.d:
                raise ValueError(f"mixed radicands: sqrt({self.d}) vs sqrt({other.d})")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadraticElement(other, 0, self.d)
        return None

    def __add__(self, other: "int | Fraction | QuadraticElement") -> "QuadraticElement":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadraticElement(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self) -> "QuadraticElement":
        return QuadraticElement(-self.a, -self.b, self.d)

    def __sub__(self, other: "int | Fraction | QuadraticElement") -> "QuadraticElement":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadraticElement(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other: "int | Fraction | QuadraticElement") -> "QuadraticElement":
        return (-self) + other

    def __mul__(self, other: "int | Fraction | QuadraticElement") -> "QuadraticElement":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadraticElement(
            self.a * o.a + self.d * self.b * o.b,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: "int | Fraction | QuadraticElement") -> "QuadraticElement":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: "int | Fraction | QuadraticElement") -> "QuadraticElement":
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadraticElement):
            if self.b == 0 == other.b:
                return self.a == other.a
            return self.d == other.d and self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def conjugate(self) -> "QuadraticElement":
        return QuadraticElement(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """Field norm a**2 - d*b**2; multiplicative, nonzero off the zero element."""
        return self.a * self.a - self.d * self.b * self.b

    def inverse(self) -> "QuadraticElement":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        return QuadraticElement(self.a / n, -self.b / n, self.d)

    def __repr__(self) -> str:
        return f"({self.a} + {self.b}*sqrt({self.d}))"
