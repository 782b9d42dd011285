"""Integer solutions of x**2 - d*y**2 = 1 by two routes that must agree.

Every positive solution appears among the convergents of sqrt(d): with
period length L, the minimal one is convergent L - 1 when L is even and
2L - 1 when L is odd, and the n-th is found by scaling that index with n.
The solution set is the cyclic group generated by the minimal solution
(x1, y1) inside the hyperbola group, so the n-th solution is also the
power (x1 + y1*sqrt(d))**n.

One route reaches every solution: a balanced product tree over the half
period gives two half-size convergents, from which the midpoint formulas
make convergent L - 1, the period unit, which is the fundamental when L
is even and squares to it when L is odd; the n-th solution is then
(x1 + y1*sqrt(d))**n by one integer Redei call in O(log n) products.
The route is two functions, _fundamental and _power, each with its one
proof.  PellSolver.fundamental and nth_solution wrap their pairs in
PellSolution objects without checking them again; the CLI's solve runs
_solution: contfrac._expand and the same two functions, with no object.
Each looks up _expand, _half_period and _quadratic_power as this
module's globals, so a fault put there reaches the library and the CLI
alike.
The strategy a request names is a validated label that selects no
route: every strategy makes the same calls and raises the same errors.
Neither the sequential convergent walk nor the linear fold's steps call
the kernel: the walk is the independent witness, checked against the
paper's Redei value, and the fold is what bench times the kernel against.
The witness at n is convergent n*stride - 1 of the walk, contfrac._pairs,
against one kernel call on the product-tree fundamental, the Redei value
num/den.  correspondence_check reads one pair off a walk started at its
index and builds a CorrespondenceReport.  The CLI's verify runs
_verify_records, one pass per radicand that builds no solver, solution
or tuple per n: it expands d once, takes the proved fundamental from
_fundamental, opens one walk strided to the solution indices, and
compares num*q with den*p for n = 1..n_max.  Both keep the witness's
three parts independent: the sequential walk, a kernel call on the
product-tree fundamental, and cross-multiplication.
Every answer is tested once, and the route's answers are proved, not
checked, so no full-size number is squared.  _fundamental tests the
half-period convergents' norms against Q_h, the surd denominator that
sqrt_cf's own recurrence reaches at the period's middle, and the period
unit's against -1 at odd L, each on the squares the fundamental is made
of, before any power is taken from it, so a unit of norm -1 cannot pass
as its even power.  An n-th power (n >= 2) is proved the same way:
_power takes the kernel's half power (n >> 1), tests its norm on the
squares of the last doubling, which it does itself, and the norm's
multiplicativity carries that test and the fundamental's to the answer.
exact._solves_pell, the plain x*x - d*(y*y) == 1, checks each pair of
the linear fold as its PellSolution is built; bench checks only the
fold's last pair, not each step.
A non-solution raises ConsistencyError (exit 4).  All of these test
the norm only: a wrong solution, such as the (n-1)-th, passes them.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Sequence
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .contfrac import SqrtExpansion, _expand, _pairs
from .exact import ConsistencyError, _brief, _solves_pell, _Value, isqrt, require_nonsquare
from .hyperbola import HyperbolaPoint
from .redei import _quadratic_power

__all__ = [
    "CorrespondenceReport",
    "PellSolution",
    "PellSolver",
    "Strategy",
    "correspondence_check",
    "minimal_solution",
    "nth_solution",
    "solutions",
]


class Strategy(Enum):
    """A validated label on a request; it names no route, as every
    strategy runs the same power."""

    CONVERGENT = "cf"
    POWER = "power"
    REDEI = "redei"


class PellSolution(_Value):
    """The n-th positive integer solution for radicand d."""

    __match_args__ = ("d", "n", "x", "y")

    def __init__(self, d: int, n: int, x: int, y: int) -> None:
        d = require_nonsquare(d)
        n = operator.index(n)
        if n < 1:
            raise ValueError("solutions are numbered from 1")
        x, y = operator.index(x), operator.index(y)
        if x < 1 or y < 1:
            raise ValueError("positive solutions only")
        if not _solves_pell(x, y, d):
            raise ValueError(f"({_brief(x)}, {_brief(y)}) does not solve x^2 - {_brief(d)}y^2 = 1")
        self.__dict__.update(d=d, n=n, x=x, y=y)

    @classmethod
    def _trusted(cls, d: int, n: int, x: int, y: int) -> "PellSolution":
        """The n-th solution (x, y) for d, already proved by the route
        that made it (_fundamental, _power), so not checked again."""
        solution = object.__new__(cls)
        solution.__dict__.update(d=d, n=n, x=x, y=y)
        return solution

    def point(self) -> HyperbolaPoint:
        return HyperbolaPoint(self.d, self.x, self.y)


class CorrespondenceReport(_Value):
    """Outcome of checking a Redei value against its convergent.

    The Redei value is kept as the ratio redei_num/redei_den the kernel
    returned, the convergent as p/q in lowest terms; equal compares them
    by cross-multiplication, so no gcd is taken unless a value is read.
    """

    __match_args__ = (
        "d", "n", "period_length", "parity", "convergent_index",
        "redei_num", "redei_den", "convergent_p", "convergent_q", "equal",
    )

    def __init__(
        self, d: int, n: int, period_length: int, parity: str, convergent_index: int,
        redei_num: int, redei_den: int, convergent_p: int, convergent_q: int, equal: bool,
    ) -> None:
        self.__dict__.update(
            d=d, n=n, period_length=period_length, parity=parity,
            convergent_index=convergent_index, redei_num=redei_num, redei_den=redei_den,
            convergent_p=convergent_p, convergent_q=convergent_q, equal=equal,
        )

    @property
    def redei_value(self) -> Fraction:
        return Fraction(self.redei_num, self.redei_den)

    @property
    def convergent_value(self) -> Fraction:
        return Fraction(self.convergent_p, self.convergent_q)


class PellSolver:
    """All solution machinery for one radicand d."""

    def __init__(self, d: int) -> None:
        self.expansion: SqrtExpansion
        self.expansion, self._middle = _expand(d)
        self.d = self.expansion.d

    @property
    def period_length(self) -> int:
        return self.expansion.period_length

    @property
    def parity(self) -> str:
        """"even" or "odd", the parity of the period length."""
        return "odd" if self.period_length % 2 else "even"

    @property
    def fundamental_index(self) -> int:
        """Convergent index of the minimal solution."""
        return self.solution_index(1)

    def solution_index(self, n: int) -> int:
        """Convergent index of the n-th solution (parity rule on the period).

        n must be an integer: a float or a Fraction raises TypeError.
        """
        n = operator.index(n)
        if n < 1:
            raise ValueError("solutions are numbered from 1")
        return n * _stride(self.period_length) - 1

    @cached_property
    def fundamental(self) -> PellSolution:
        """The minimal solution: the period unit, squared when L is odd.

        The unit p + q*sqrt(d) is convergent L - 1, of norm (-1)**L, so
        for even L it is the minimal solution and for odd L its square is
        convergent 2L - 1.  Both are made from half-period convergents
        and proved by their norms (_fundamental).
        """
        return PellSolution._trusted(self.d, 1, *_fundamental(self.expansion, self._middle))

    def nth_solution(self, n: int, strategy: Strategy = Strategy.REDEI) -> PellSolution:
        """The n-th solution (n >= 1), (x1 + y1*sqrt(d))**n.

        The request is checked before any work: a non-Strategy raises
        ValueError, and solution_index rejects n < 1 with ValueError and a
        non-integer n with TypeError.  Every strategy returns the
        fundamental itself at n = 1 and otherwise makes one integer Redei
        call, in O(log n) products.  The strategy is a validated label: it
        names no route, so every strategy gives the same result or error.
        """
        if not isinstance(strategy, Strategy):
            raise ValueError(f"unknown strategy: {strategy!r}")
        self.solution_index(n)
        if n == 1:
            return self.fundamental
        base = self.fundamental
        return PellSolution._trusted(self.d, n, *_power(self.d, base.x, base.y, n))

    def solutions(self) -> Iterator[PellSolution]:
        """All solutions in increasing order, by repeated composition.

        Each step is one Brahmagupta composition with the minimal
        solution, so reaching the n-th solution costs n steps: the
        linear-time baseline the logarithmic strategies are measured
        against.  Every solution is checked as it is built.
        """
        for n, (x, y) in enumerate(self._fold(), 1):
            yield self._checked(n, x, y, "the linear fold")

    def _fold(self) -> Iterator[tuple[int, int]]:
        """The unchecked pairs (x, y) of solutions 1, 2, ... by repeated composition.

        bench times this fold to the n-th pair and checks only that pair.
        """
        base = self.fundamental
        x, y = base.x, base.y
        while True:
            yield x, y
            x, y = x * base.x + self.d * y * base.y, y * base.x + x * base.y

    def correspondence_check(self, n: int) -> CorrespondenceReport:
        """Compare the 2n-th Redei value with the matching convergent.

        The Redei value at the slope z = (1 + x1)/y1 is the ratio of
        ((1 + x1) + y1*sqrt(d))**(2n), its common denominator y1**(2n)
        cleared.  Both sides equal x_n/y_n, reduced; the report records
        the raw values so a mismatch is inspectable.  The convergent comes
        from the sequential walk, independent of every solution route.
        n is checked by solution_index before any work; one call walks
        once to its index and makes one kernel call.
        """
        n = operator.index(n)
        index = self.solution_index(n)
        base = self.fundamental
        p, q = next(_pairs(self.expansion, index))
        num, den = _quadratic_power(self.d, 1 + base.x, base.y, 2 * n)
        return CorrespondenceReport(
            d=self.d,
            n=n,
            period_length=self.period_length,
            parity=self.parity,
            convergent_index=index,
            redei_num=num,
            redei_den=den,
            convergent_p=p,
            convergent_q=q,
            equal=num * q == den * p,
        )

    def _checked(self, n: int, x: int, y: int, route: str) -> PellSolution:
        """(x, y) as the n-th solution, checked as its PellSolution is built."""
        try:
            return PellSolution(self.d, n, x, y)
        except ValueError as exc:
            raise _non_solution(route, self.d, n) from exc


def _non_solution(route: str, d: int, n: int) -> ConsistencyError:
    return ConsistencyError(f"{route} produced a non-solution at d={_brief(d)}, n={n}")


def _stride(length: int) -> int:
    """Convergent indices between solutions: L for even L, 2L for odd L.

    The n-th solution is convergent n*stride - 1.
    """
    return length if length % 2 == 0 else 2 * length


def _fundamental(expansion: SqrtExpansion, middle: int) -> tuple[int, int]:
    """(x1, y1), the minimal solution, made from _half_period's convergents
    and middle, the Q_h that _expand hands over, and proved by their norms;
    a failed test raises ConsistencyError.

    Notation: p_k/q_k are the convergents of sqrt(d), N(x, y) is the norm
    x**2 - d*y**2, multiplicative in Z[sqrt(d)], and Q_k the surd
    denominators, with N(p_(k-1), q_(k-1)) = (-1)**k * Q_k.  The midpoint
    formulas (Jacobson & Williams, Solving the Pell Equation, 2009) give
    the period unit, convergent L - 1, from half-size convergents:

    - Even L = 2h: alpha = p_(h-1) + q_(h-1)*sqrt(d), and the unit, which
      is the fundamental, is alpha**2 / Q_h.  The route tests p, q >= 1
      and N(alpha) == (-1)**h * Q_h on the squares p*p and q*q that
      alpha**2 is made of, then divides both parts of alpha**2 by Q_h and
      tests that both remainders are 0.  So the quotient is in Z[sqrt(d)],
      its parts are >= 1, and its norm is N(alpha)**2 / Q_h**2 = 1.
    - Odd L = 2h + 1: beta = p_h + q_h*sqrt(d) has norm
      (-1)**(h + 1) * Q_h, which is tested on p*p and q*q, and the unit is
      (p_h*q_h + p_(h-1)*q_(h-1), q_h**2 + q_(h-1)**2), of norm -1.  The
      route tests its parts >= 1 and its norm == -1 on its squares, and
      the fundamental is its square: norm (-1)**2 = 1, parts >= 1.  Only
      the test on beta reads Q_h: the unit's proof does not need it, but
      it holds the tree to sqrt_cf's middle state, which a tree one
      period late at odd L fails.  L = 1 is h = 0, with
      (p_(-1), q_(-1)) = (1, 0) and Q_0 = 1.

    Every test is exact and compares the tree with sqrt_cf's surd
    recurrence or with -1, and no full-size number is squared: the largest
    squares are those of alpha or the unit, half the fundamental's size.
    The fundamental is proved before any power is taken from it, so a
    unit of norm -1 never reaches the kernel, where an even power would
    make it a solution.  As with any norm test, a wrong unit of the right
    norm, such as a power of the fundamental, passes.
    """
    d, length = expansion.d, expansion.period_length
    p, q, r, t = _half_period(expansion)
    h = length // 2
    if length % 2:
        qq = q * q
        if p * p - d * qq != (middle if h % 2 else -middle):
            raise _non_solution("the product tree", d, 1)
        return _doubled(d, p * q + r * t, qq + t * t, -1, "the product tree", 1)
    x, y = _doubled(d, p, q, -middle if h % 2 else middle, "the product tree", 1)
    x, x_rest = divmod(x, middle)
    y, y_rest = divmod(y, middle)
    if x_rest or y_rest:
        raise _non_solution("the product tree", d, 1)
    return x, y


def _doubled(d: int, x: int, y: int, norm: int, route: str, n: int) -> tuple[int, int]:
    """(x + y*sqrt(d))**2 = (xx + d*yy, 2*x*y), made on the real squares
    xx = x*x and yy = y*y, which first test the base: unless x >= 1,
    y >= 1 and xx - d*yy == norm it raises ConsistencyError, as route's
    non-solution at d, n."""
    xx, yy = x * x, y * y
    if x < 1 or y < 1 or xx - d * yy != norm:
        raise _non_solution(route, d, n)
    return xx + d * yy, (x + y) ** 2 - xx - yy


def _power(d: int, x1: int, y1: int, n: int) -> tuple[int, int]:
    """(x, y), the n-th solution from the proved fundamental (x1, y1).

    At n = 1 it is the fundamental itself.  Otherwise one kernel call
    gives the half power X + Y*sqrt(d) = (x1 + y1*sqrt(d))**(n >> 1),
    and _doubled does the last doubling on the real squares xx = X*X and
    yy = Y*Y, which also test the half power: unless X >= 1, Y >= 1 and
    xx - d*yy == 1 it raises ConsistencyError.  When n is odd, one step
    by the fundamental follows.

    Why the answer then needs no check of its own: the norm
    N(x, y) = x**2 - d*y**2 is multiplicative, N(u*v) = N(u)*N(v) in
    Z[sqrt(d)].  The doubled pair, (xx + d*yy, 2*X*Y), is
    (X + Y*sqrt(d))**2, so its norm is N(X, Y)**2 = 1, and both its
    parts are >= 1 since X, Y >= 1.  (x1, y1) was proved by
    _fundamental, x1, y1 >= 1 and N(x1, y1) = 1, so the odd step's
    product has norm 1 * 1 and positive parts too.  So the answer is a
    positive solution, shown by an exact test on the half power's squares,
    which the doubling uses, and no full-size number is squared.  As with
    any norm test, a wrong power of the fundamental would pass it.
    """
    if n == 1:
        return x1, y1
    x, y = _doubled(d, *_quadratic_power(d, x1, y1, n >> 1), 1, "the Redei kernel", n)
    if n & 1:
        x, y = x1 * x + d * y1 * y, y1 * x + x1 * y
    return x, y


def _solution(d: int, n: int) -> tuple[int, int]:
    """(x, y), the proved n-th solution for d, for an int n >= 1.

    The CLI's solve in one lean pass: _expand, the proved fundamental and
    _power, the route of PellSolver.nth_solution, with no solver or
    solution object.  A perfect square d raises PerfectSquareError.
    """
    expansion, middle = _expand(d)
    return _power(expansion.d, *_fundamental(expansion, middle), n)


def _verify_records(d_max: int, n_max: int) -> Iterator[dict]:
    """verify's records: the witness checked at n = 1..n_max for each
    nonsquare d in 2..d_max, one lean pass per radicand.

    Each d is expanded once; its fundamental (x1, y1) comes proved from
    _fundamental, so the slope (1 + x1)/y1 is finite.  Convergent
    n*stride - 1 is read from one walk strided to those indices, and
    num/den, the 2n-th Redei value at the slope, from one kernel call;
    num*q is compared with den*p.  No solver, solution or tuple per n is
    built, and every leaf of a record is already the str the CLI prints.
    """
    checked = str(n_max)
    for d in range(2, d_max + 1):
        root = isqrt(d)
        if root * root == d:
            continue
        expansion, middle = _expand(d)
        x1, y1 = _fundamental(expansion, middle)
        length = expansion.period_length
        stride = _stride(length)
        for n, (p, q) in zip(range(1, n_max + 1), _pairs(expansion, stride - 1, stride)):
            num, den = _quadratic_power(d, 1 + x1, y1, 2 * n)
            if num * q != den * p:
                raise ConsistencyError(
                    f"Redei value != convergent at d={d}, n={n}: "
                    f"{_brief(Fraction(num, den))} vs {_brief(Fraction(p, q))}"
                )
        yield {
            "d": str(d),
            "params": {"n_max": checked},
            "result": {
                "period_length": str(length),
                "parity": "odd" if length % 2 else "even",
                "checked": checked,
                "equal": "true",
            },
        }


# Quotients per leaf of the product tree: below this, the interpreter's
# cost per 2x2 product outweighs the multiplications it saves.
_LEAF = 16


def _quotient_product(quotients: Sequence[int]) -> tuple[int, int, int, int]:
    """(a, b, c, e) = [[a, b], [c, e]], the product of the [[q, 1], [1, 0]].

    Runs of _LEAF quotients are walked by the convergent recurrence, whose
    operands stay a few words long there; the run products are then
    multiplied pairwise, level by level, so the operands of each product
    have about the same size.  This balanced product tree is binary
    splitting: subquadratic where a left-to-right walk is quadratic.
    """
    level = []
    for start in range(0, len(quotients), _LEAF):
        p, p_prev, q, q_prev = 1, 0, 0, 1
        for a in quotients[start : start + _LEAF]:
            p, p_prev = a * p + p_prev, p
            q, q_prev = a * q + q_prev, q
        level.append((p, p_prev, q, q_prev))
    if not level:
        return 1, 0, 0, 1
    while len(level) > 1:
        pairs = [
            (a * a2 + b * c2, a * b2 + b * e2, c * a2 + e * c2, c * b2 + e * e2)
            for (a, b, c, e), (a2, b2, c2, e2) in zip(level[::2], level[1::2])
        ]
        if len(level) % 2:
            pairs.append(level[-1])
        level = pairs
    return level[0]


def _half_period(expansion: SqrtExpansion) -> tuple[int, int, int, int]:
    """(p_k, q_k, p_(k-1), q_(k-1)): convergents k and k - 1 of sqrt(d),
    k = (L - 1)//2, the columns of A(a0) * H.

    With A(a) = [[a, 1], [1, 0]], A(a0) * A(a1) * ... * A(ak) is
    [[p_k, p_(k-1)], [q_k, q_(k-1)]], and H is the product tree over the
    first k quotients of the period.  For even L = 2h, k = h - 1, and the
    period unit, convergent L - 1, is convergent k's square over Q_h; for
    odd L = 2h + 1, k = h, and it is the product of the two over Q_h,
    which _fundamental makes without a division.  Convergent j*L + L - 1 is the unit's power j + 1
    (Lenstra, Notices AMS 49, 2002).
    """
    a0, period = expansion.a0, expansion.period
    a, b, c, e = _quotient_product(period[: (len(period) - 1) // 2])
    return a0 * a + c, a, a0 * b + e, b


def minimal_solution(d: int) -> PellSolution:
    return PellSolver(d).fundamental


def nth_solution(d: int, n: int, strategy: Strategy = Strategy.REDEI) -> PellSolution:
    return PellSolver(d).nth_solution(n, strategy)


def solutions(d: int) -> Iterator[PellSolution]:
    return PellSolver(d).solutions()


def correspondence_check(d: int, n: int) -> CorrespondenceReport:
    return PellSolver(d).correspondence_check(n)
