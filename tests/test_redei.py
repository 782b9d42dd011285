import itertools
import random
from fractions import Fraction

import pytest

from oracles import (
    dickson_sum,
    field_power_pair,
    odot_value,
    random_fraction,
    random_nonsquare,
)
from pellredei import (
    INF,
    PellSolver,
    dickson,
    redei_pair_fast,
    redei_pair_linear,
    redei_rational,
)
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
                power = _quadratic_power(d, a, b, n)
                assert power == field_power_pair(d, a, n, b), (d, a, b, n)
                if type(a) is int and type(b) is int:
                    assert all(type(part) is int for part in power)
        assert {a * a - d * (b * b) for d, a, b in QUADRATIC_BASES} >= {1, -1}
        for _ in range(60):
            d = random_nonsquare(rng)
            a, b = random_fraction(rng), random_fraction(rng)
            n = rng.randint(0, 40)
            assert _quadratic_power(d, a, b, n) == field_power_pair(d, a, n, b)

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


# (d, z) with z**2 - d = 1, where the kernel doubles by 2*num**2 - 1:
# x1 + sqrt(x1**2 - 1) for Pell solutions x1, and rational ones.
UNIT_NORM_INPUTS = [
    (x1 * x1 - 1, x1) for x1 in (2, 3, 9, 649, 1766319049)
] + [
    (Fraction(9, 16), Fraction(5, 4)),
    (Fraction(2 * 10**2, 23**2), Fraction(27, 23)),
    (Fraction(7 * 4**2, 27**2), Fraction(-29, 27)),
]

# (d, z) with z**2 - d in {-1, 0, 2}, which take the general doubling; the
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
