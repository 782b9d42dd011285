import random
from fractions import Fraction

import pytest

from oracles import random_fraction, random_nonsquare
from pellredei import (
    INF,
    HyperbolaPoint,
    LineGroup,
    PerfectSquareError,
    from_parameter,
    redei_pair_fast,
    to_parameter,
)


def random_point(rng, d) -> HyperbolaPoint:
    """Uniform-ish rational point: push a random slope through the chart."""
    if rng.random() < 0.08:
        return HyperbolaPoint.identity(d)
    return from_parameter(d, random_fraction(rng))


class TestConstruction:
    def test_curve_membership_enforced(self):
        HyperbolaPoint(2, 3, 2)
        HyperbolaPoint(2, Fraction(17, 1), Fraction(12, 1))
        with pytest.raises(ValueError):
            HyperbolaPoint(2, 3, 1)
        with pytest.raises(ValueError):
            HyperbolaPoint(2, 0, 0)

    def test_negative_norm_curve_rejected(self):
        # Solutions of x^2 - d*y^2 = -1 are not points of this curve.
        with pytest.raises(ValueError):
            HyperbolaPoint(2, 1, 1)
        with pytest.raises(ValueError):
            HyperbolaPoint(5, 2, 1)

    def test_square_radicand_rejected(self):
        with pytest.raises(PerfectSquareError):
            HyperbolaPoint(4, 1, 0)


class TestGroupLaw:
    def test_frozen_products(self):
        p = HyperbolaPoint(2, 3, 2)
        assert p * p == HyperbolaPoint(2, 17, 12)
        assert p * HyperbolaPoint(2, 17, 12) == HyperbolaPoint(2, 99, 70)
        e = HyperbolaPoint.identity(2)
        assert e * p == p
        assert (e.x, e.y) == (1, 0)

    def test_conjugate_is_inverse(self):
        p = HyperbolaPoint(2, 3, 2)
        assert p.conjugate() == HyperbolaPoint(2, 3, -2)
        e = HyperbolaPoint.identity(7)
        assert e.conjugate() == e
        q = HyperbolaPoint(2, 17, 12)
        assert q * q.conjugate() == HyperbolaPoint.identity(2)

    def test_mismatched_radicands_rejected(self):
        with pytest.raises(ValueError):
            HyperbolaPoint(2, 3, 2) * HyperbolaPoint(3, 2, 1)

    def test_non_point_operand_raises_type_error(self):
        with pytest.raises(TypeError):
            HyperbolaPoint(2, 3, 2) * 3

    def test_group_axioms(self):
        rng = random.Random(401)
        for _ in range(120):
            d = random_nonsquare(rng)
            e = HyperbolaPoint.identity(d)
            p, q, r = (random_point(rng, d) for _ in range(3))
            assert p * q == q * p
            assert (p * q) * r == p * (q * r)
            assert p * e == p
            assert p * p.conjugate() == e

    def test_matches_field_multiplication(self):
        rng = random.Random(402)
        for _ in range(60):
            d = random_nonsquare(rng)
            p, q = random_point(rng, d), random_point(rng, d)
            prod = (p * q).to_quadratic()
            assert prod == p.to_quadratic() * q.to_quadratic()
            assert prod.norm() == 1


class TestPowers:
    def test_frozen_values(self):
        p = HyperbolaPoint(2, 3, 2)
        assert p**2 == HyperbolaPoint(2, 17, 12)
        assert p**0 == HyperbolaPoint.identity(2)
        assert p**3 == HyperbolaPoint(2, 99, 70)
        assert p**1 == p
        assert HyperbolaPoint(3, 2, 1) ** 2 == HyperbolaPoint(3, 7, 4)

    def test_both_powers_match_brute_fold(self):
        rng = random.Random(403)
        for _ in range(25):
            d = random_nonsquare(rng)
            p = random_point(rng, d)
            acc = HyperbolaPoint.identity(d)
            for n in range(20):
                assert p**n == acc
                assert p.conjugate() ** -n == acc
                acc = acc * p

    def test_negative_exponents(self):
        rng = random.Random(404)
        for _ in range(30):
            d = random_nonsquare(rng)
            p = random_point(rng, d)
            n = rng.randint(0, 15)
            assert p**-n == (p**n).conjugate()
            assert p**n * p**-n == HyperbolaPoint.identity(d)


class TestParametrization:
    def test_frozen_values(self):
        assert from_parameter(2, 2) == HyperbolaPoint(2, 3, 2)
        assert from_parameter(2, INF) == HyperbolaPoint.identity(2)
        assert from_parameter(2, 0) == HyperbolaPoint(2, -1, 0)
        assert to_parameter(HyperbolaPoint(2, 3, 2)) == 2
        assert to_parameter(HyperbolaPoint.identity(2)) is INF
        assert to_parameter(HyperbolaPoint(2, -1, 0)) == 0

    def test_round_trips(self):
        rng = random.Random(405)
        for _ in range(120):
            d = random_nonsquare(rng)
            m = INF if rng.random() < 0.1 else random_fraction(rng)
            back = to_parameter(from_parameter(d, m))
            assert back == m or (back is INF and m is INF)
            p = random_point(rng, d)
            assert from_parameter(d, to_parameter(p)) == p

    def test_carries_products_to_the_line(self):
        rng = random.Random(406)
        for _ in range(120):
            d = random_nonsquare(rng)
            g = LineGroup(d)
            p, q = random_point(rng, d), random_point(rng, d)
            lhs = to_parameter(p * q)
            rhs = g.mul(to_parameter(p), to_parameter(q))
            assert lhs == rhs or (lhs is INF and rhs is INF)

    def test_square_radicand_rejected(self):
        with pytest.raises(PerfectSquareError):
            from_parameter(9, Fraction(1, 2))

    def test_line_power_of_parameter_tracks_curve_power(self):
        rng = random.Random(407)
        for _ in range(60):
            d = random_nonsquare(rng)
            g = LineGroup(d)
            p = random_point(rng, d)
            n = rng.randint(0, 12)
            lhs = g.pow(to_parameter(p), n)
            rhs = to_parameter(p**n)
            assert lhs == rhs or (lhs is INF and rhs is INF)

    def test_even_line_power_splits_through_half_index_pair(self):
        rng = random.Random(408)
        for _ in range(60):
            d = random_nonsquare(rng)
            g = LineGroup(d)
            p = random_point(rng, d)
            if p.y == 0:
                continue
            n = rng.randint(0, 10)
            pair = redei_pair_fast(p.x * p.x - 1, p.x, n)
            den = p.y * pair.den
            expected = INF if den == 0 else pair.num / den
            got = g.pow(to_parameter(p), 2 * n)
            assert got == expected or (got is INF and expected is INF)
