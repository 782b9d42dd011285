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
passes it on its coordinates cleared by w, the denominator of y.  It is
the plain expression, two full-size squares and a product by d.  Best of
5 on a 2-vCPU VM under CPython 3.11: d = 2, n = 10**5 (x of 254k bits):
13.1-14.4 ms; d = 61, n = 10**4 (317k bits): 17.3-18.8 ms, two runs.

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

import functools
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


def _solves_pell(x: int, y: int, d: int, w: int = 1) -> bool:
    """x**2 - d*y**2 == w**2, decided exactly, for ints x, y, d, w >= 0.

    The plain expression, on the full-size x, y and w.  The solver proves
    its own answers without it; the module docstring names its callers.
    """
    return x * x - d * (y * y) == w * w


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
