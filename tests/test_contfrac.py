import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_is_square, fold_quotients, surd_denominator, surd_quotients
from pellredei import PerfectSquareError, convergents, nth_convergent, sqrt_cf
from pellredei.contfrac import _expand, _pairs


class TestSqrtCf:
    def test_frozen_expansions(self):
        cf = sqrt_cf(2)
        assert (cf.a0, cf.period) == (1, (2,))
        cf = sqrt_cf(3)
        assert (cf.a0, cf.period) == (1, (1, 2))
        cf = sqrt_cf(7)
        assert (cf.a0, cf.period) == (2, (1, 1, 1, 4))
        assert cf.period_length == 4

    def test_square_and_nonpositive_rejected(self):
        with pytest.raises(PerfectSquareError):
            sqrt_cf(4)
        with pytest.raises(ValueError):
            sqrt_cf(0)
        with pytest.raises(ValueError):
            sqrt_cf(-7)

    def test_period_shape_up_to_300(self):
        for d in range(2, 301):
            if brute_is_square(d):
                continue
            cf = sqrt_cf(d)
            assert cf.a0 >= 1
            assert all(a >= 1 for a in cf.period)
            assert cf.period[-1] == 2 * cf.a0
            interior = cf.period[:-1]
            assert interior == interior[::-1]

    def test_period_matches_oracle_recurrence_twice_over(self):
        for d in range(2, 120):
            if brute_is_square(d):
                continue
            cf = sqrt_cf(d)
            length = cf.period_length
            oracle = surd_quotients(d, 1 + 2 * length)
            assert oracle[0] == cf.a0
            assert tuple(oracle[1 : 1 + length]) == cf.period
            assert tuple(oracle[1 + length :]) == cf.period

    def test_half_period_expansion_matches_oracle_up_to_5000(self):
        # Covers L = 1 and 2, every d = a**2 + 1, and both parities of L.
        lengths = set()
        for d in range(2, 5001):
            if brute_is_square(d):
                continue
            cf = sqrt_cf(d)
            length = cf.period_length
            lengths.add(length)
            oracle = surd_quotients(d, 1 + length)
            assert (cf.a0, cf.period) == (oracle[0], tuple(oracle[1:]))
            # 2*a0 first appears at the end of the period, so L is minimal.
            assert cf.period.index(2 * cf.a0) == length - 1
        assert {1, 2, 3, 4} <= lengths

    def test_middle_s_matches_oracle_up_to_2000(self):
        # _expand hands over Q_h, h = L // 2, beside the expansion that
        # sqrt_cf returns, which carries nothing more.
        for d in range(2, 2001):
            if brute_is_square(d):
                continue
            expansion, middle = _expand(d)
            cf = sqrt_cf(d)
            assert (expansion, hash(expansion), repr(expansion)) == (cf, hash(cf), repr(cf))
            assert vars(expansion) == {"d": d, "a0": cf.a0, "period": cf.period}
            assert middle == surd_denominator(d, expansion.period_length // 2), d

    def test_long_period_matches_oracle(self):
        cf = sqrt_cf(10**10 + 19)
        assert cf.period_length == 124134
        oracle = surd_quotients(10**10 + 19, 1 + 124134)
        assert (cf.a0, cf.period) == (oracle[0], tuple(oracle[1:]))

    def test_partial_quotients_stream_cycles(self):
        cf = sqrt_cf(7)
        head = list(itertools.islice(cf.partial_quotients(), 9))
        assert head == [2, 1, 1, 1, 4, 1, 1, 1, 4]


class TestConvergents:
    def test_frozen_values(self):
        c0, c1 = itertools.islice(convergents(sqrt_cf(2)), 2)
        assert (c0.p, c0.q) == (1, 1)
        assert (c1.p, c1.q) == (3, 2)
        c = nth_convergent(sqrt_cf(3), 1)
        assert (c.p, c.q) == (2, 1)
        c = nth_convergent(sqrt_cf(7), 3)
        assert (c.k, c.p, c.q) == (3, 8, 3)
        assert c.value.numerator == 8

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            nth_convergent(sqrt_cf(2), -1)

    def test_nth_convergent_matches_the_stream_up_to_300(self):
        for d in range(2, 301):
            if brute_is_square(d):
                continue
            cf = sqrt_cf(d)
            limit = 3 * cf.period_length + 3
            for k, conv in enumerate(itertools.islice(convergents(cf), limit)):
                assert nth_convergent(cf, k) == conv

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        d=st.integers(2, 2000).filter(lambda d: math.isqrt(d) ** 2 != d),
        first=st.integers(0, 40),
        step=st.integers(1, 12),
    )
    def test_strided_walk_matches_the_sliced_stream(self, d, first, step):
        cf = sqrt_cf(d)
        strided = list(itertools.islice(_pairs(cf, first, step), 6))
        assert strided == list(itertools.islice(_pairs(cf), first, first + 6 * step, step))

    def test_value_equals_folded_finite_continued_fraction(self):
        for d in range(2, 51):
            if brute_is_square(d):
                continue
            cf = sqrt_cf(d)
            quotients = list(itertools.islice(cf.partial_quotients(), 31))
            for k, conv in enumerate(itertools.islice(convergents(cf), 31)):
                assert conv.k == k
                assert conv.value == fold_quotients(quotients[: k + 1])

    def test_determinant_identity(self):
        for d in range(2, 51):
            if brute_is_square(d):
                continue
            cf = sqrt_cf(d)
            limit = 2 * cf.period_length + 1
            stream = list(itertools.islice(convergents(cf), limit))
            for prev, cur in zip(stream, stream[1:]):
                assert cur.p * prev.q - prev.p * cur.q == (-1) ** (cur.k - 1)

    def test_numerator_and_denominator_are_coprime(self):
        for d in range(2, 51):
            if brute_is_square(d):
                continue
            for conv in itertools.islice(convergents(sqrt_cf(d)), 25):
                assert math.gcd(conv.p, conv.q) == 1

    def test_streams_are_independent(self):
        cf = sqrt_cf(13)
        first = convergents(cf)
        second = convergents(cf)
        next(first)
        next(first)
        assert next(second).k == 0
