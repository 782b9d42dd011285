import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    dickson_sum,
    field_power_pair,
    odot_value,
    random_fraction,
    random_nonsquare,
    walk_unit,
)
from pellredei import (
    INF,
    HyperbolaPoint,
    LineGroup,
    PellSolver,
    dickson,
    from_parameter,
    redei_pair_fast,
    redei_pair_linear,
    redei_rational,
)
from pellredei import hyperbola as hyperbola_module
from pellredei import redei as redei_module
from pellredei import solver as solver_module
from pellredei.redei import RedeiPair
from pellredei.redei import _quadratic_power


# (d, a, b) for the powers of a + b*sqrt(d): integer and Fraction
# coefficients, b negative or zero, of norm 1 (Pell solutions and rational
# hyperbola points), -1 (odd-period units) and others.
QUADRATIC_BASES = [
    (2, 3, 2),
    (2, 3, -2),
    (61, 1766319049, 226153980),
    (2, Fraction(11, 7), Fraction(6, 7)),
    (2, Fraction(11, 7), Fraction(-6, 7)),
    (2, 1, 1),
    (61, 29718, -3805),
    (2, Fraction(23, 7), Fraction(17, 7)),
    (61, 1 + 1766319049, 226153980),
    (7, -3, 5),
    (10, Fraction(-3, 5), Fraction(2, 3)),
    (13, 0, Fraction(1, 2)),
    (7, 4, 0),
    (7, Fraction(-3, 5), 0),
]


def _cleared_power(d, a, b, n):
    """(a + b*sqrt(d))**n for rational a and b, by one kernel call on integers:
    w*(a + b*sqrt(d)) with w the common denominator, then divided by w**n."""
    a, b = Fraction(a), Fraction(b)
    w = math.lcm(a.denominator, b.denominator)
    x, y = _quadratic_power(d, int(a * w), int(b * w), n)
    assert type(x) is int and type(y) is int
    return Fraction(x, w**n), Fraction(y, w**n)


class TestPairValues:
    def test_frozen_linear(self):
        pair = redei_pair_linear(2, 3, 0)
        assert (pair.num, pair.den) == (1, 0)
        pair = redei_pair_linear(2, 3, 2)
        assert (pair.num, pair.den) == (11, 6)
        pair = redei_pair_linear(2, 2, 4)
        assert (pair.num, pair.den) == (68, 48)

    def test_frozen_fast(self):
        pair = redei_pair_fast(2, 2, 4)
        assert (pair.num, pair.den) == (68, 48)
        pair = redei_pair_fast(3, 3, 4)
        assert (pair.num, pair.den) == (252, 144)
        pair = redei_pair_fast(5, 7, 1)
        assert (pair.num, pair.den) == (7, 1)

    def test_seed_values_any_input(self):
        rng = random.Random(201)
        for _ in range(50):
            d = random_nonsquare(rng)
            z = random_fraction(rng)
            p0 = redei_pair_fast(d, z, 0)
            assert (p0.num, p0.den) == (1, 0)
            p1 = redei_pair_fast(d, z, 1)
            assert (p1.num, p1.den) == (z, 1)

    def test_integer_inputs_stay_in_z(self):
        for kernel in (redei_pair_linear, redei_pair_fast):
            for d, z, n in [(2, 2, 4), (7, -3, 9), (13, 0, 3), (5, 1, 0), (61, 1766319049, 5)]:
                pair = kernel(d, z, n)
                assert type(pair.num) is int and type(pair.den) is int
                assert pair.ratio is INF or type(pair.ratio) is Fraction

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            redei_pair_linear(2, 3, -1)
        with pytest.raises(ValueError):
            redei_pair_fast(2, 3, -1)
        with pytest.raises(ValueError):
            _quadratic_power(2, 3, 1, -1)

    def test_fast_equals_linear(self):
        rng = random.Random(202)
        for _ in range(12):
            d = random_nonsquare(rng)
            z = random_fraction(rng)
            for n in range(0, 201, 7):
                fast = redei_pair_fast(d, z, n)
                slow = redei_pair_linear(d, z, n)
                assert (fast.num, fast.den) == (slow.num, slow.den)

    def test_matches_field_power_oracle(self):
        rng = random.Random(203)
        for _ in range(60):
            d = random_nonsquare(rng)
            z = random_fraction(rng)
            n = rng.randint(0, 40)
            pair = redei_pair_fast(d, z, n)
            assert (pair.num, pair.den) == field_power_pair(d, z, n)
        for d, a, b in QUADRATIC_BASES:
            for n in range(25):
                power = _cleared_power(d, a, b, n)
                assert power == field_power_pair(d, a, n, b), (d, a, b, n)
        assert {a * a - d * (b * b) for d, a, b in QUADRATIC_BASES} >= {1, -1}
        for _ in range(60):
            d = random_nonsquare(rng)
            a, b = random_fraction(rng), random_fraction(rng)
            n = rng.randint(0, 40)
            assert _cleared_power(d, a, b, n) == field_power_pair(d, a, n, b)

    def test_determinant_identity(self):
        rng = random.Random(204)
        for _ in range(200):
            d = random_nonsquare(rng)
            z = random_fraction(rng)
            n = rng.randint(0, 60)
            pair = redei_pair_fast(d, z, n)
            assert pair.num**2 - d * pair.den**2 == (z * z - d) ** n

    def test_rational_radicand_slot(self):
        rng = random.Random(205)
        for _ in range(40):
            d = Fraction(rng.randint(1, 50), rng.randint(1, 9))
            z = random_fraction(rng)
            n = rng.randint(0, 30)
            fast = redei_pair_fast(d, z, n)
            slow = redei_pair_linear(d, z, n)
            assert (fast.num, fast.den) == (slow.num, slow.den)
            assert fast.num**2 - d * fast.den**2 == (z * z - d) ** n


# (d, z) with z**2 - d = 1: x1 + sqrt(x1**2 - 1) for Pell solutions x1,
# where the kernel takes y**2 = (x**2 - 1)/d, and rational ones, whose
# cleared integer base has norm (v*q)**2 and takes y**2 as a square.
UNIT_NORM_INPUTS = [
    (x1 * x1 - 1, x1) for x1 in (2, 3, 9, 649, 1766319049)
] + [
    (Fraction(9, 16), Fraction(5, 4)),
    (Fraction(2 * 10**2, 23**2), Fraction(27, 23)),
    (Fraction(7 * 4**2, 27**2), Fraction(-29, 27)),
]

# (d, z) with z**2 - d in {-1, 0, 2}, which take y**2 as a square; the
# last is the verify witness's base 1 + x1 + y1*sqrt(d) at d = 61, written
# as z = 1 + x1 over d*y1**2, where z**2 - d = 2 + 2*x1.
GENERAL_INPUTS = [
    (10, 3),
    (9, 3),
    (7, 3),
    (Fraction(5, 4), Fraction(1, 2)),
    (Fraction(9, 4), Fraction(-3, 2)),
    (Fraction(1, 4), Fraction(3, 2)),
    (61 * 226153980**2, 1 + 1766319049),
]


class TestUnitNormDoubling:
    def test_inputs_take_the_intended_doubling(self):
        assert all(z * z - d == 1 for d, z in UNIT_NORM_INPUTS)
        assert all(z * z - d != 1 for d, z in GENERAL_INPUTS)

    @pytest.mark.parametrize("d, z", UNIT_NORM_INPUTS + GENERAL_INPUTS)
    def test_fast_equals_linear(self, d, z):
        norm = z * z - d
        for n in range(201):
            fast = redei_pair_fast(d, z, n)
            slow = redei_pair_linear(d, z, n)
            assert (fast.num, fast.den) == (slow.num, slow.den)
            assert fast.num**2 - d * fast.den**2 == norm**n

    @pytest.mark.parametrize("d", [2, 13, 61])
    def test_deep_indices_match_linear_fold(self, d):
        solver = PellSolver(d)
        x1, y1 = solver.fundamental.x, solver.fundamental.y
        indices = (1000, 1024, 1025)
        fold = itertools.islice(solver.solutions(), max(indices))
        for solution in fold:
            if solution.n in indices:
                pair = redei_pair_fast(x1 * x1 - 1, x1, solution.n)
                assert (pair.num, y1 * pair.den) == (solution.x, solution.y)


small_fractions = st.integers(-60, 60).flatmap(
    lambda num: st.integers(1, 30).map(lambda den: Fraction(num, den))
)


class TestClearedRoute:
    """A rational d or z is cleared to one integer kernel call; the pair
    equals the linear recurrence on Fractions."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        d=small_fractions | st.integers(-20, 20),
        z=small_fractions | st.integers(-20, 20),
        n=st.integers(0, 40),
    )
    @example(d=61, z=Fraction(7, 10), n=20)  # gcd(n, v) = 10
    @example(d=Fraction(3, 2), z=Fraction(5, 6), n=12)  # gcd(n, v*q) = 12
    @example(d=0, z=Fraction(1, 3), n=9)  # norm one with d = 0
    @example(d=0, z=-1, n=7)
    @example(d=-1, z=0, n=11)  # norm one with d < 0
    @example(d=Fraction(-7, 3), z=Fraction(-2, 9), n=0)
    def test_fast_equals_linear(self, d, z, n):
        fast = redei_pair_fast(d, z, n)
        slow = redei_pair_linear(d, z, n)
        assert (fast.num, fast.den) == (slow.num, slow.den)
        if type(d) is int and type(z) is int:
            assert type(fast.num) is int and type(fast.den) is int

    def test_the_kernel_sees_only_ints(self, monkeypatch):
        calls = []
        real = redei_module._quadratic_power

        def spy(*args):
            calls.append(args)
            return real(*args)

        for module in (redei_module, hyperbola_module, solver_module):
            monkeypatch.setattr(module, "_quadratic_power", spy)
        redei_pair_fast(Fraction(3, 2), Fraction(-5, 6), 12)
        redei_pair_fast(7, Fraction(1, 4), 9)
        redei_pair_fast(Fraction(8, 3), 2, 5)
        redei_pair_fast(0, 1, 6)
        redei_rational(13, Fraction(2, 3), -7)
        LineGroup(5).pow(Fraction(1, 2), 6)
        from_parameter(12, Fraction(5, 7)) ** -9
        HyperbolaPoint(12, 2, Fraction(1, 2)) ** 4
        HyperbolaPoint(2, 3, 2) ** 5
        PellSolver(13).nth_solution(7)  # the half power; the fundamental makes no call
        PellSolver(7).correspondence_check(3)
        assert len(calls) == 11
        assert all(type(arg) is int for args in calls for arg in args), calls


class Big(int):
    """An int that stays one under +, -, // and **, and logs in Big.log each
    operation on full-size operands: "square" for x*x and x**2, "product" for
    a product of two distinct operands over 32 bits."""

    log = []

    def __mul__(self, other):
        if min(self.bit_length(), int(other).bit_length()) > 32:
            Big.log.append("square" if other is self else "product")
        return Big(int(self) * int(other))

    __rmul__ = __mul__

    def __pow__(self, exponent):
        assert exponent == 2
        if self.bit_length() > 32:
            Big.log.append("square")
        return Big(int(self) ** 2)

    def __add__(self, other):
        return Big(int(self) + int(other))

    __radd__ = __add__

    def __sub__(self, other):
        return Big(int(self) - int(other))

    def __rsub__(self, other):
        return Big(int(other) - int(self))

    def __floordiv__(self, other):
        return Big(int(self) // int(other))


def test_square_reuses_the_norm_test_squares():
    """The odd-L fundamental is the period unit's square: p*p and q*q of the
    norm test serve its one doubling, so it takes three full-size operations,
    in the kernel as in the solver's own square."""
    for d in (421, 10000141):  # L = 37 and 4769
        solver = PellSolver(d)
        p, q = walk_unit(solver.expansion)
        assert p * p - d * (q * q) == -1
        fundamental = solver.fundamental.x, solver.fundamental.y
        Big.log.clear()
        assert _quadratic_power(d, Big(p), Big(q), 2) == fundamental
        assert len(Big.log) == 3
        Big.log.clear()
        assert solver_module._doubled(d, Big(p), Big(q), -1, "the product tree", 1) == fundamental
        assert Big.log == ["square"] * 3


class TestKernel:
    @staticmethod
    def _stepped(d, a, b, n):
        x, y = 1, 0
        for _ in range(n):
            x, y = a * x + d * b * y, b * x + a * y
        return x, y

    @settings(max_examples=500, deadline=None, database=None)
    @given(
        d=st.integers(-50, 2000),
        a=st.integers(-(10**12), 10**12),
        b=st.integers(-(10**12), 10**12),
        n=st.integers(0, 70),
    )
    @example(d=0, a=1, b=5, n=9)
    @example(d=0, a=-1, b=3, n=8)
    @example(d=-1, a=0, b=1, n=7)
    @example(d=-7, a=-1, b=0, n=5)
    @example(d=2, a=3, b=2, n=0)
    def test_equals_repeated_steps(self, d, a, b, n):
        assert _quadratic_power(d, a, b, n) == self._stepped(d, a, b, n)

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        a=st.integers(-44, 44),
        b=st.sampled_from([1, -1]),
        norm=st.sampled_from([1, -1]),
        k=st.integers(1, 4),
        n=st.integers(0, 70),
    )
    def test_norm_one_bases_equal_repeated_steps(self, a, b, norm, k, n):
        """(a, b) has norm a**2 - d = +-1 for d = a**2 -+ 1; its k-th power,
        of norm +-1 too, is the base."""
        d = a * a - norm
        x, y = self._stepped(d, a, b, k)
        assert x * x - d * y * y == norm**k
        assert _quadratic_power(d, x, y, n) == self._stepped(d, x, y, n)

    @pytest.mark.parametrize("d", [2, 13, 61, 94, 151, 397])
    def test_pell_units_equal_repeated_steps(self, d):
        solver = PellSolver(d)
        bases = [(solver.fundamental.x, solver.fundamental.y), walk_unit(solver.expansion)]
        for (a, b), sa, sb in itertools.product(bases, (1, -1), (1, -1)):
            for n in range(40):
                assert _quadratic_power(d, sa * a, sb * b, n) == self._stepped(d, sa * a, sb * b, n)

    @pytest.mark.parametrize("k", [1, 2, 6])
    def test_doublings_are_squares(self, k):
        """At n = 2**k every full-size operation is a square: three per
        doubling on a base whose norm is not one, and after the first doubling
        two on a base of norm one."""
        d = 421
        solver = PellSolver(d)
        x1, y1 = solver.fundamental.x, solver.fundamental.y
        point = from_parameter(d, Fraction(7, 10)) ** 3
        w = point.y.denominator
        bases = [
            (1 + x1, y1, 3 * k),  # the witness base, norm 2 + 2*x1
            (*walk_unit(solver.expansion), 3 * k),  # norm -1
            (point.x.numerator * (w // point.x.denominator), point.y.numerator, 3 * k),  # norm w**2
            (x1, y1, 3 + 2 * (k - 1)),  # norm 1
        ]
        for a, b, count in bases:
            Big.log.clear()
            assert _quadratic_power(d, Big(a), Big(b), 2**k) == self._stepped(d, a, b, 2**k)
            assert Big.log == ["square"] * count, (a, b)


class TestRatio:
    @settings(max_examples=300, deadline=None, database=None)
    @given(
        num=st.integers(-(10**40), 10**40) | st.fractions(),
        den=st.integers(-(10**40), 10**40) | st.fractions(),
    )
    @example(num=6, den=-4)
    @example(num=Fraction(-9, 10), den=6)
    @example(num=15, den=Fraction(-10, 21))
    @example(num=Fraction(4, 9), den=Fraction(-2, 3))
    @example(num=5, den=0)
    @example(num=Fraction(1, 3), den=Fraction(0))
    def test_ratio_is_num_over_den_in_lowest_terms(self, num, den):
        ratio = RedeiPair(2, 1, 1, num, den).ratio
        if den == 0:
            assert ratio is INF
        else:
            expected = Fraction(num, den)
            assert type(ratio) is Fraction
            assert (ratio.numerator, ratio.denominator) == (expected.numerator, expected.denominator)


class TestRationalFunction:
    def test_frozen_values(self):
        assert redei_rational(2, 2, 0) is INF
        assert redei_rational(2, 2, 1) == 2
        assert redei_rational(2, 2, 2) == Fraction(3, 2)

    def test_frozen_signed_values(self):
        assert redei_rational(2, 2, -1) == -2
        assert redei_rational(2, 2, -2) == Fraction(-3, 2)
        assert odot_value(2, redei_rational(2, 2, 2), redei_rational(2, 2, -2)) is INF

    def test_negation_symmetry(self):
        rng = random.Random(206)
        for _ in range(100):
            d = random_nonsquare(rng)
            z = random_fraction(rng)
            n = rng.randint(0, 50)
            positive = redei_rational(d, z, n)
            negative = redei_rational(d, z, -n)
            if positive is INF:
                assert negative is INF
            else:
                assert negative == -positive

    def test_infinite_value_off_zero_index(self):
        # (0 + sqrt(d))**2 is rational, so the index-2 value at z = 0 is INF.
        assert redei_rational(7, 0, 2) is INF


class TestDickson:
    def test_frozen_and_symbolic_values(self):
        rng = random.Random(207)
        assert dickson(7, 6, 2) == 22
        for _ in range(30):
            a = random_fraction(rng)
            x = random_fraction(rng)
            assert dickson(a, x, 0) == 2
            assert dickson(a, x, 1) == x
            assert dickson(a, x, 2) == x * x - 2 * a

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            dickson(1, 1, -2)

    def test_recurrence_equals_explicit_sum(self):
        rng = random.Random(208)
        for _ in range(120):
            a = random_fraction(rng, max_num=6, max_den=4)
            x = random_fraction(rng, max_num=6, max_den=4)
            n = rng.randint(0, 60)
            assert dickson(a, x, n) == dickson_sum(a, x, n)

    def test_twice_redei_numerator(self):
        rng = random.Random(209)
        for _ in range(120):
            d = random_nonsquare(rng)
            z = random_fraction(rng, max_num=9, max_den=5)
            n = rng.randint(0, 100)
            pair = redei_pair_linear(d, z, n)
            assert dickson(z * z - d, 2 * z, n) == 2 * pair.num
