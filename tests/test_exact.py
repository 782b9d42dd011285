import math
import random
from fractions import Fraction

import pytest

from oracles import brute_isqrt, random_fraction, random_nonsquare
from pellredei import (
    INF,
    Infinity,
    PerfectSquareError,
    QuadraticElement,
    decimal_digits,
    is_perfect_square,
    isqrt,
    require_nonsquare,
)


class TestIsqrt:
    def test_frozen_values(self):
        assert isqrt(0) == 0
        assert isqrt(61) == 7
        assert isqrt(64) == 8

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            isqrt(-1)

    def test_floor_property_on_huge_inputs(self):
        rng = random.Random(101)
        for _ in range(40):
            digits = rng.randint(1, 1000)
            n = rng.randrange(10 ** (digits - 1), 10**digits)
            r = isqrt(n)
            assert r * r <= n < (r + 1) * (r + 1)
            assert r == brute_isqrt(n)


class TestIsPerfectSquare:
    def test_frozen_values(self):
        assert is_perfect_square(4)
        assert not is_perfect_square(61)
        assert not is_perfect_square(-1)

    def test_squares_and_neighbours(self):
        rng = random.Random(102)
        for _ in range(200):
            r = rng.randint(0, 10**20)
            assert is_perfect_square(r * r)
            if r >= 2:
                assert not is_perfect_square(r * r + 1)
                assert not is_perfect_square(r * r - 1)


class TestDecimalDigits:
    def test_small_values(self):
        assert decimal_digits(0) == 1
        assert decimal_digits(9) == 1
        assert decimal_digits(10) == 2
        assert decimal_digits(-100) == 3

    def test_matches_string_length(self):
        rng = random.Random(109)
        for _ in range(200):
            n = rng.randrange(10 ** rng.randint(0, 300))
            assert decimal_digits(n) == len(str(n))

    def test_powers_of_ten_boundaries(self):
        for k in (1, 7, 100, 4299, 4300, 5000):
            assert decimal_digits(10**k) == k + 1
            assert decimal_digits(10**k - 1) == k
            assert decimal_digits(10**k + 1) == k + 1

    def test_both_ends_of_every_bit_length(self):
        # The estimate from the bit length is never corrected upward.
        for bits in range(1, 14001):
            for n in (2 ** (bits - 1), 2**bits - 1):
                assert decimal_digits(n) == len(str(n)), n.bit_length()


class TestRequireNonsquare:
    def test_passes_through(self):
        assert require_nonsquare(61) == 61
        assert require_nonsquare(2) == 2

    def test_square_raises_distinct_error(self):
        with pytest.raises(PerfectSquareError):
            require_nonsquare(4)
        assert issubclass(PerfectSquareError, ValueError)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            require_nonsquare(0)
        with pytest.raises(ValueError):
            require_nonsquare(-3)


class TestRationalRepresentation:
    """Fraction is the rational carrier; pin the invariants relied on."""

    def test_always_reduced_with_positive_denominator(self):
        rng = random.Random(103)
        for _ in range(300):
            num = rng.randint(-10**9, 10**9)
            den = rng.randint(1, 10**9) * rng.choice((1, -1))
            q = Fraction(num, den)
            assert q.denominator > 0
            assert math.gcd(q.numerator, q.denominator) == 1
            assert q == Fraction(q.numerator, q.denominator)

    def test_arithmetic_stays_reduced(self):
        rng = random.Random(104)
        for _ in range(200):
            a = random_fraction(rng, 10**6, 10**6)
            b = random_fraction(rng, 10**6, 10**6)
            for value in (a + b, a * b):
                assert value.denominator > 0
                assert math.gcd(value.numerator, value.denominator) == 1


class TestInfinity:
    def test_singleton_and_negation(self):
        assert Infinity() is INF
        assert -INF is INF
        assert repr(INF) == "INF"

    def test_not_equal_to_rationals(self):
        assert INF != Fraction(1)
        assert INF != 10**100


class TestQuadraticElement:
    def test_frozen_products(self):
        e = QuadraticElement(2, 1, 2)
        assert e * e == QuadraticElement(6, 4, 2)
        u = QuadraticElement(3, 2, 2)
        assert u * u == QuadraticElement(17, 12, 2)

    def test_rational_subfield_closure(self):
        rng = random.Random(105)
        for _ in range(50):
            x = random_fraction(rng)
            u = random_fraction(rng)
            prod = QuadraticElement(x, 0, 7) * QuadraticElement(u, 0, 7)
            assert prod.b == 0
            assert prod.a == x * u
            assert prod == x * u

    def test_frozen_norms(self):
        assert QuadraticElement(3, 2, 2).norm() == 1
        assert QuadraticElement(1, 0, 61).norm() == 1
        assert QuadraticElement(0, 1, 2).norm() == -2

    def test_norm_is_multiplicative(self):
        rng = random.Random(106)
        for _ in range(200):
            d = random_nonsquare(rng)
            p = QuadraticElement(random_fraction(rng), random_fraction(rng), d)
            q = QuadraticElement(random_fraction(rng), random_fraction(rng), d)
            assert (p * q).norm() == p.norm() * q.norm()

    def test_mixed_radicands_rejected(self):
        with pytest.raises(ValueError):
            QuadraticElement(1, 1, 2) * QuadraticElement(1, 1, 3)
        with pytest.raises(ValueError):
            QuadraticElement(1, 1, 2) + QuadraticElement(1, 1, 3)

    def test_square_radicand_rejected(self):
        with pytest.raises(PerfectSquareError):
            QuadraticElement(1, 1, 9)

    def test_ring_operations_against_coefficients(self):
        rng = random.Random(107)
        for _ in range(100):
            d = random_nonsquare(rng)
            a1, b1 = random_fraction(rng), random_fraction(rng)
            a2, b2 = random_fraction(rng), random_fraction(rng)
            p = QuadraticElement(a1, b1, d)
            q = QuadraticElement(a2, b2, d)
            assert p + q == QuadraticElement(a1 + a2, b1 + b2, d)
            assert p - q == QuadraticElement(a1 - a2, b1 - b2, d)
            assert p * q == QuadraticElement(a1 * a2 + d * b1 * b2, a1 * b2 + b1 * a2, d)
            assert -p == QuadraticElement(-a1, -b1, d)
            assert p.conjugate() == QuadraticElement(a1, -b1, d)

    def test_division_and_inverse(self):
        rng = random.Random(108)
        one = QuadraticElement(1, 0, 2)
        for _ in range(100):
            d = random_nonsquare(rng)
            p = QuadraticElement(random_fraction(rng), random_fraction(rng, nonzero=True), d)
            assert p * p.inverse() == 1
            assert (p / p) == QuadraticElement(1, 0, d)
        assert one / 2 == Fraction(1, 2)
        with pytest.raises(ZeroDivisionError):
            QuadraticElement(0, 0, 2).inverse()

    def test_int_and_fraction_interoperability(self):
        e = QuadraticElement(3, 2, 2)
        assert e + 1 == QuadraticElement(4, 2, 2)
        assert 1 + e == QuadraticElement(4, 2, 2)
        assert 2 * e == QuadraticElement(6, 4, 2)
        assert e - Fraction(1, 2) == QuadraticElement(Fraction(5, 2), 2, 2)
        assert 1 / QuadraticElement(0, 1, 2) == QuadraticElement(0, Fraction(1, 2), 2)

    def test_equality_crosses_types_only_when_rational(self):
        assert QuadraticElement(3, 0, 2) == 3
        assert QuadraticElement(3, 0, 2) == Fraction(3)
        assert QuadraticElement(3, 0, 2) == QuadraticElement(3, 0, 5)
        assert QuadraticElement(3, 1, 2) != 3
        assert QuadraticElement(3, 1, 2) != QuadraticElement(3, 1, 5)
        assert hash(QuadraticElement(3, 0, 2)) == hash(Fraction(3))

    @pytest.mark.parametrize(
        "operation",
        [
            lambda e: e + "x",
            lambda e: e - "x",
            lambda e: e * "x",
            lambda e: e / "x",
            lambda e: "x" / e,
        ],
        ids=["add", "sub", "mul", "truediv", "rtruediv"],
    )
    def test_foreign_operand_raises_type_error(self, operation):
        with pytest.raises(TypeError):
            operation(QuadraticElement(3, 2, 2))

    def test_reflected_subtraction_and_foreign_equality(self):
        e = QuadraticElement(3, 2, 2)
        assert 1 - e == QuadraticElement(-2, -2, 2)
        assert (e == "x") is False

    def test_equal_irrational_elements_hash_equal(self):
        e, f = QuadraticElement(Fraction(6, 2), 2, 7), QuadraticElement(3, Fraction(4, 2), 7)
        assert e == f
        assert hash(e) == hash(f)

    def test_repr(self):
        assert repr(QuadraticElement(1, 1, 2)) == "(1 + 1*sqrt(2))"
