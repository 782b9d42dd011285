import random
from fractions import Fraction

import pytest

from oracles import fold_odot, random_fraction, random_nonsquare
from pellredei import INF, LineGroup, PerfectSquareError, QuadraticElement


def random_point(rng, allow_inf=True):
    if allow_inf and rng.random() < 0.1:
        return INF
    return random_fraction(rng)


class TestProduct:
    def test_frozen_values(self):
        g = LineGroup(2)
        assert g.mul(3, 4) == 2
        assert g.mul(Fraction(3), INF) == 3
        assert g.mul(INF, Fraction(-7, 2)) == Fraction(-7, 2)
        assert g.mul(Fraction(5, 3), Fraction(-5, 3)) is INF
        assert g.mul(INF, INF) is INF
        assert g.identity is INF

    def test_square_radicand_rejected(self):
        with pytest.raises(PerfectSquareError):
            LineGroup(9)

    def test_non_point_rejected(self):
        with pytest.raises(TypeError, match="not a point of the projective line"):
            LineGroup(2).mul("x", 1)

    def test_repr(self):
        assert repr(LineGroup(2)) == "LineGroup(d=2)"

    def test_group_axioms(self):
        rng = random.Random(301)
        for _ in range(150):
            d = random_nonsquare(rng)
            g = LineGroup(d)
            x, y, z = (random_point(rng) for _ in range(3))
            assert g.mul(x, y) == g.mul(y, x)
            assert g.mul(g.mul(x, y), z) == g.mul(x, g.mul(y, z))
            assert g.mul(x, INF) == x
            assert g.mul(x, g.inverse(x)) is INF

    def test_pole_convention_is_total(self):
        g = LineGroup(5)
        # x + y = 0 lands on the identity, which is what makes -x the inverse.
        assert g.mul(Fraction(7), Fraction(-7)) is INF
        assert g.mul(Fraction(0), Fraction(0)) is INF


class TestPowers:
    def test_frozen_values(self):
        g = LineGroup(2)
        assert g.pow(Fraction(2), 2) == Fraction(3, 2)
        assert g.pow(Fraction(2), 0) is INF
        assert g.pow(Fraction(2), 3) == Fraction(10, 7)
        assert g.pow(INF, 5) is INF

    def test_matches_brute_fold(self):
        rng = random.Random(302)
        for _ in range(40):
            d = random_nonsquare(rng)
            g = LineGroup(d)
            z = random_fraction(rng)
            n = rng.randint(0, 64)
            assert g.pow(z, n) == fold_odot(d, z, n)

    def test_negative_powers_invert(self):
        rng = random.Random(303)
        for _ in range(50):
            d = random_nonsquare(rng)
            g = LineGroup(d)
            z = random_fraction(rng)
            n = rng.randint(0, 20)
            assert g.mul(g.pow(z, n), g.pow(z, -n)) is INF


class TestFieldTransport:
    def test_frozen_special_values(self):
        g = LineGroup(2)
        root = QuadraticElement(0, 1, 2)
        assert g.from_multiplicative(1) is INF
        assert g.from_multiplicative(INF) == root
        assert g.from_multiplicative(0) == -root
        assert g.from_multiplicative(3) == QuadraticElement(0, 2, 2)
        assert g.to_multiplicative(INF) == 1
        assert g.to_multiplicative(root) is INF
        assert g.to_multiplicative(QuadraticElement(0, 2, 2)) == 3

    def test_round_trips(self):
        rng = random.Random(304)
        for _ in range(100):
            d = random_nonsquare(rng)
            g = LineGroup(d)
            root = QuadraticElement(0, 1, d)
            specials = (Fraction(0), Fraction(1), INF, root, -root)
            x = rng.choice(
                (
                    QuadraticElement(random_fraction(rng), random_fraction(rng), d),
                    rng.choice(specials),
                )
            )
            assert g.to_multiplicative(g.from_multiplicative(x)) == x or (
                x is INF and g.to_multiplicative(g.from_multiplicative(x)) is INF
            )
            assert g.from_multiplicative(g.to_multiplicative(x)) == x or (
                x is INF and g.from_multiplicative(g.to_multiplicative(x)) is INF
            )

    def test_carries_products_to_the_line(self):
        rng = random.Random(305)
        for _ in range(150):
            d = random_nonsquare(rng)
            g = LineGroup(d)
            p = QuadraticElement(random_fraction(rng), random_fraction(rng), d)
            q = QuadraticElement(random_fraction(rng), random_fraction(rng), d)
            if not p or not q:
                continue
            assert g.from_multiplicative(p * q) == g.mul(
                g.from_multiplicative(p), g.from_multiplicative(q)
            )

    def test_wrong_field_rejected(self):
        g = LineGroup(2)
        with pytest.raises(ValueError):
            g.to_multiplicative(QuadraticElement(1, 1, 3))

    def test_non_field_value_rejected(self):
        with pytest.raises(TypeError, match="cannot interpret"):
            LineGroup(2).from_multiplicative("x")


class TestRescale:
    def test_homomorphism_when_ratio_is_square(self):
        rng = random.Random(306)
        g8, g2 = LineGroup(8), LineGroup(2)
        for _ in range(60):
            x = random_fraction(rng)
            y = random_fraction(rng)
            lhs = g8.mul(g8.rescale_from(2, x), g8.rescale_from(2, y))
            rhs = g8.rescale_from(2, g2.mul(x, y))
            assert lhs == rhs or (lhs is INF and rhs is INF)

    def test_fixed_points_and_frozen_value(self):
        g8 = LineGroup(8)
        assert g8.rescale_from(2, INF) is INF
        assert g8.rescale_from(2, Fraction(3)) == 6
        g18 = LineGroup(18)
        assert g18.rescale_from(2, Fraction(5, 2)) == Fraction(15, 2)
        g2 = LineGroup(2)
        assert g2.rescale_from(2, Fraction(7, 3)) == Fraction(7, 3)
        assert g2.rescale_from(8, Fraction(4)) == 2

    def test_nonsquare_ratio_rejected(self):
        with pytest.raises(ValueError):
            LineGroup(3).rescale_from(2, Fraction(1))
        with pytest.raises(PerfectSquareError):
            LineGroup(8).rescale_from(4, Fraction(1))
