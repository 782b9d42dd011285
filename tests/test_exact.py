import bisect
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import brute_is_square, brute_isqrt, random_fraction, random_nonsquare
from pellredei import (
    PellSolution,
    PellSolver,
    INF,
    Infinity,
    PerfectSquareError,
    QuadraticElement,
    decimal_digits,
    from_parameter,
    is_perfect_square,
    isqrt,
    exact,
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


def _same_text(v):
    """exact._decimal_text(v) is str(v), or raises the ValueError str(v) raises."""
    try:
        expected = str(v)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            exact._decimal_text(v)
        assert str(caught.value) == str(exc)
    else:
        assert exact._decimal_text(v) == expected, v.bit_length()


@pytest.fixture
def digit_limit():
    """sys.set_int_max_str_digits, with the limit restored afterwards."""
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


class TestDecimalText:
    """exact._decimal_text is str() for every int: str() itself below the
    cut, a split at cached powers of ten above it, and the same ValueError
    past the digit limit."""

    def test_small_values(self):
        for v in (0, 1, -1, 9, 10, -10, 2**64, -(2**64)):
            assert exact._decimal_text(v) == str(v)

    def test_both_ends_of_every_bit_length_around_the_cut(self):
        for bits in range(exact._TEXT_CUT - 64, exact._TEXT_CUT + 65):
            for n in (2 ** (bits - 1), 2**bits - 1):
                _same_text(n)
                _same_text(-n)

    @pytest.mark.parametrize("j", range(exact._TEXT_LEVELS))
    def test_powers_of_ten_at_each_level(self, j):
        k = exact._TEXT_LEAF << j
        for n in (10**k - 1, 10**k, 10 ** (2 * k) - 1, 10 ** (k + 1) - 1, 10 ** (k - 1)):
            _same_text(n)
            _same_text(-n)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 14284).flatmap(lambda bits: st.integers(2 ** (bits - 1), 2**bits - 1)),
        st.booleans(),
    )
    def test_agrees_with_str_up_to_the_limit(self, n, negative):
        _same_text(-n if negative else n)

    def test_raises_past_a_lowered_limit(self, digit_limit):
        digit_limit(1000)
        for v in (10**1000 - 1, 10**1000, 10**1500, -(10**1500), 2**exact._TEXT_CUT):
            _same_text(v)
        with pytest.raises(ValueError, match="Exceeds the limit"):
            exact._decimal_text(10**1500)
        digit_limit(2000)
        for v in (10**1999, 10**2000 - 1, 10**2000, 2**6642, 2**6645):
            _same_text(v)

    def test_cache_holds_only_its_levels(self, digit_limit):
        exact._text_level.cache_clear()
        for k in range(1, sys.get_int_max_str_digits() + 1):
            assert exact._decimal_text(10**k - 1) == "9" * k
        assert exact._text_level.cache_info().currsize == exact._TEXT_LEVELS
        # Past the last level it is str(), whatever the limit.
        digit_limit(0)
        for k in (5000, 7199, 7200, 7201, 20000):
            assert exact._decimal_text(10**k - 1) == "9" * k
        assert exact._text_level.cache_info().currsize == exact._TEXT_LEVELS


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


def _plain(x, y, d, w=1):
    return x * x - d * (y * y) == w * w


def _product(factors):
    """The product of the factors, by a balanced product tree."""
    level = list(factors)
    while len(level) > 1:
        level = [math.prod(level[i : i + 2]) for i in range(0, len(level), 2)]
    return level[0]


def _moduli_of(run):
    """The moduli of a run of primes s: each 2**s - 1, then each 2**s + 1."""
    return [(1 << s) - 1 for s in run] + [(1 << s) + 1 for s in run]


def _lcm(moduli):
    """The lcm of moduli whose pairwise gcds are 1 or 3 and which 9 divides
    none of (TestLadders checks both): their product over 3**(k - 1), with
    k the number of them that 3 divides."""
    k = sum(m % 3 == 0 for m in moduli)
    return _product(moduli) // 3 ** max(k - 1, 0)


def _trial_prime(n):
    return n > 1 and all(n % p for p in range(2, math.isqrt(n) + 1))


class TestModMersenne:
    @settings(max_examples=200, deadline=None, database=None)
    @given(v=st.integers(0, 2**5000), s=st.integers(1, 300))
    def test_matches_remainder(self, v, s):
        assert exact._mod_mersenne(v, s) == v % ((1 << s) - 1)

    @pytest.mark.parametrize("s", [1, 2, 61, 12289])
    def test_edges(self, s):
        m = (1 << s) - 1
        for v in (0, 1, m - 1, m, m + 1, 2 * m, m * m, (1 << (8 * s + 3)) - 1):
            assert exact._mod_mersenne(v, s) == v % m


class TestModFermat:
    """The 2**s + 1 fold, and the split of any v >= 0 into both residues."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(v=st.integers(0, 2**5000), s=st.integers(1, 300))
    def test_matches_remainder(self, v, s):
        assert exact._mod_fermat(v, s) == v % ((1 << s) + 1)

    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data(), s=st.integers(1, 300))
    def test_split_matches_remainders(self, data, s):
        v = data.draw(st.integers(0, (1 << (2 * s)) - 2) | st.integers(0, 2**5000))
        assert exact._split(v, s) == (v % ((1 << s) - 1), v % ((1 << s) + 1))

    @pytest.mark.parametrize("s", [1, 2, 61, 12289])
    def test_edges(self, s):
        m = (1 << s) + 1
        for v in (0, 1, m - 2, m - 1, m, m + 1, 2 * m, m * m, (1 << (8 * s + 3)) - 1):
            assert exact._mod_fermat(v, s) == v % m


class TestSolvesPellAgrees:
    """The check agrees with the plain expression on any (x, y, d, w) >= 0.

    The threshold is patched to 0, so every draw takes the residue path,
    and the ladder starts at 5, so small draws already need runs of
    several moduli and large ones climb to later ladders."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        x=st.integers(0, 2**3000),
        y=st.integers(0, 2**3000),
        d=st.integers(0, 2**200) | st.integers(0, 20),
    )
    def test_random_triples(self, x, y, d):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact, "_RESIDUE_BITS", 0)
            mp.setattr(exact, "_LADDER_START", 5)
            assert exact._solves_pell(x, y, d) == _plain(x, y, d)

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        d=st.integers(2, 10**4).filter(lambda d: not brute_is_square(d)),
        n=st.integers(1, 40),
        dx=st.integers(-2, 2),
        dy=st.integers(-2, 2),
    )
    def test_solutions_and_their_neighbours(self, d, n, dx, dy):
        solution = PellSolver(d).nth_solution(n)
        x, y = solution.x + dx, max(0, solution.y + dy)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact, "_RESIDUE_BITS", 0)
            mp.setattr(exact, "_LADDER_START", 5)
            assert exact._solves_pell(x, y, d) == _plain(x, y, d)
            assert exact._solves_pell(solution.x, solution.y, d)


    @settings(max_examples=200, deadline=None, database=None)
    @given(
        x=st.integers(0, 2**3000),
        y=st.integers(0, 2**3000),
        d=st.integers(0, 2**200) | st.integers(0, 20),
        w=st.integers(0, 2**3000) | st.integers(0, 20),
    )
    # 1023 = (2**5 - 1)*(2**5 + 1), the pair of the first prime: a bound
    # blind to w would test R = -w**2 modulo those two alone.
    @example(x=0, y=0, d=0, w=1023)
    def test_random_quadruples(self, x, y, d, w):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact, "_RESIDUE_BITS", 0)
            mp.setattr(exact, "_LADDER_START", 5)
            assert exact._solves_pell(x, y, d, w) == _plain(x, y, d, w)

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        d=st.integers(2, 10**4).filter(lambda d: not brute_is_square(d)),
        m=st.fractions(max_denominator=10**6),
        k=st.integers(1, 30),
        dx=st.integers(-2, 2),
        dy=st.integers(-2, 2),
        dw=st.integers(-2, 2),
    )
    def test_rational_points_and_their_neighbours(self, d, m, k, dx, dy, dw):
        """A rational point's cleared coordinates X, Y and denominator w pass;
        their neighbours agree with the plain expression."""
        point = from_parameter(d, m) ** k
        w = point.y.denominator
        x, y = abs(point.x.numerator) * (w // point.x.denominator), abs(point.y.numerator)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact, "_RESIDUE_BITS", 0)
            mp.setattr(exact, "_LADDER_START", 5)
            assert exact._solves_pell(x, y, d, w)
            x, y, w = max(0, x + dx), max(0, y + dy), max(0, w + dw)
            assert exact._solves_pell(x, y, d, w) == _plain(x, y, d, w)

    @pytest.mark.parametrize("k", [-2, -1, 0, 1])
    @pytest.mark.parametrize("role", ["w", "d"])
    def test_d_or_w_at_the_first_modulus(self, role, k):
        """x past 2**15 bits, and d or w at 2**s + k for the first ladder prime
        s, where a value stops being its own residue: the true cases pass
        and every neighbour off by one is refused, on the real ladder."""
        s = exact._ladder(exact._LADDER_START)[0][0]
        assert s == 3079
        v = (1 << s) + k
        if role == "w":
            # x**2 - d = (m + w)**2 - m*(m + 2*w) = w**2.
            m = 1 << (1 << 15)
            cases = [(m + v, 1, m * (m + 2 * v), v)]
        else:
            # x**2 - w**2 = (x - w)*(x + w) = d*y**2 in both.
            t = 1 << (1 << 14)
            cases = [(v * t * t + 1, 2 * t, v, v * t * t - 1)]
            if v % 2:
                y = 2 * t + 1
                cases.append(((y * y + v) // 2, y, v, (y * y - v) // 2))
        for case in cases:
            assert case[0].bit_length() > exact._RESIDUE_BITS
            assert _plain(*case) and exact._solves_pell(*case)
            for i, step in itertools.product(range(4), (-1, 1)):
                near = list(case)
                near[i] += step
                assert not _plain(*near)
                assert not exact._solves_pell(*near), (i, step)


class TestSolvesPellAtThreshold:
    """Real solutions just below and just above the threshold pass, on the
    plain and the residue path, and every neighbour off by one is refused."""

    @pytest.fixture(scope="class", params=[2, 61, 1000003])
    def pair(self, request):
        d = request.param
        solver = PellSolver(d)
        # The bits of the n-th solution grow about linearly in n.
        n = exact._RESIDUE_BITS // solver.fundamental.x.bit_length()
        n = exact._RESIDUE_BITS * n // solver.nth_solution(n).x.bit_length()
        while solver.nth_solution(n).x.bit_length() >= exact._RESIDUE_BITS:
            n -= 1
        while solver.nth_solution(n + 1).x.bit_length() < exact._RESIDUE_BITS:
            n += 1
        below, above = solver.nth_solution(n), solver.nth_solution(n + 1)
        assert below.x.bit_length() < exact._RESIDUE_BITS <= above.x.bit_length()
        return below, above

    @pytest.fixture
    def runs(self, monkeypatch):
        calls = []
        real = exact._moduli

        def counted(bound):
            calls.append(bound)
            return real(bound)

        monkeypatch.setattr(exact, "_moduli", counted)
        return calls

    @pytest.mark.parametrize("side", ["below", "above"])
    def test_solution_passes_neighbours_fail(self, pair, runs, side):
        solution = pair[side == "above"]
        d, x, y = solution.d, solution.x, solution.y
        assert exact._solves_pell(x, y, d)
        assert len(runs) == (side == "above")
        for dx, dy in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
            assert not exact._solves_pell(x + dx, y + dy, d)
            with pytest.raises(ValueError, match="does not solve"):
                PellSolution(d, solution.n, x + dx, y + dy)


class TestLadders:
    """Every run of moduli has pairwise gcds 1 or 3 and an lcm above 2**bound,
    at both ends of each ladder."""

    def test_mersenne_gcd_identity(self):
        for a in range(1, 40):
            for b in range(1, 40):
                assert math.gcd((1 << a) - 1, (1 << b) - 1) == (1 << math.gcd(a, b)) - 1

    def test_plus_one_gcd_identities(self):
        for a in range(1, 40, 2):
            for b in range(1, 40, 2):
                assert math.gcd((1 << a) + 1, (1 << b) + 1) == (1 << math.gcd(a, b)) + 1
                assert math.gcd((1 << a) - 1, (1 << b) + 1) == 1

    @pytest.mark.parametrize("rung", range(4))
    def test_both_ends(self, rung):
        previous = exact._ladder(exact._LADDER_START << (rung - 1))[1][-1] if rung else 0
        primes, sums = exact._ladder(exact._LADDER_START << rung)
        assert len(primes) == exact._LADDER_SIZE
        assert primes[0] >= exact._LADDER_START << rung
        for bound in (previous, sums[-1] - 1):
            run = exact._moduli(bound)
            assert run == primes[: len(run)]
            assert all(map(_trial_prime, run)) and len(set(run)) == len(run)
            assert sum(2 * s - 3 for s in run[:-1]) <= bound < sum(2 * s - 3 for s in run)
            assert _lcm(_moduli_of(run)) > 1 << bound
        # Past the ladder's last sum the next ladder serves.
        assert exact._moduli(sums[-1])[0] >= exact._LADDER_START << (rung + 1)

    def test_first_ladder_moduli_are_pairwise_coprime(self):
        moduli = [(1 << s) - 1 for s in exact._ladder(exact._LADDER_START)[0]]
        for i, a in enumerate(moduli):
            for b in moduli[i + 1 :]:
                assert math.gcd(a, b) == 1

    def test_first_ladder_moduli_have_pairwise_gcds_1_or_3(self):
        primes = exact._ladder(exact._LADDER_START)[0]
        assert min(primes) > 3
        moduli = _moduli_of(primes)
        for i, a in enumerate(moduli):
            assert a % 9
            for b in moduli[i + 1 :]:
                assert math.gcd(a, b) == (3 if a % 3 == 0 == b % 3 else 1)
        assert sum(m % 3 == 0 for m in moduli) == len(primes)


class TestNearMiss:
    """R = x^2 - d*y^2 - 1 nonzero and a multiple of every modulus of its run
    but one: the one modulus it misses refuses it, wherever it stands, on
    either side of a pair.

    With x = 2**(b - 1), y = 1 and d = x**2 - 1 + Q, R = -Q and the bound is
    2b + 2; Q, the lcm of all moduli but one, is below x**2 as long as the
    bound sits just under a running sum of the ladder."""

    @pytest.mark.parametrize("position", [0, 5, -1])
    def test_refused(self, position):
        self._refused(position, "minus")

    @pytest.mark.parametrize("position", [0, 5, -1])
    def test_refused_on_the_plus_side(self, position):
        self._refused(position, "plus")

    def _refused(self, position, side):
        primes, sums = exact._ladder(exact._LADDER_START)
        i = bisect.bisect_right(sums, 2 * exact._RESIDUE_BITS + 3)
        bound = (sums[i] - 2) & ~1
        run = primes[: i + 1]
        moduli = _moduli_of(run)
        missed = (1 << run[position]) + (1 if side == "plus" else -1)
        q = _lcm([m for m in moduli if m != missed])
        bits = (bound - 2) // 2
        x, y = 1 << (bits - 1), 1
        d = x * x - 1 + q
        assert x.bit_length() >= exact._RESIDUE_BITS
        assert max(2 * x.bit_length(), d.bit_length() + 2 * y.bit_length()) + 1 == bound
        assert exact._moduli(bound) == run
        r = x * x - d * y * y - 1
        assert r == -q != 0
        assert [r % m == 0 for m in moduli] == [m != missed for m in moduli]
        assert not exact._solves_pell(x, y, d)
