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
    dickson,
    redei_pair_fast,
    redei_pair_linear,
    redei_rational,
)


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
