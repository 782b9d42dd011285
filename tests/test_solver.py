import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_is_square,
    pell_by_convergent_scan,
    pell_by_slope_redei,
    pell_by_y_scan,
    walk_unit,
)
from pellredei import (
    ConsistencyError,
    PellSolution,
    PellSolver,
    PerfectSquareError,
    Strategy,
    correspondence_check,
    minimal_solution,
    nth_convergent,
    nth_solution,
    redei_rational,
    solutions,
    sqrt_cf,
)
from pellredei import exact as exact_module
from pellredei import hyperbola as hyperbola_module
from pellredei import solver as solver_module
from pellredei.cli import main
from pellredei.contfrac import _expand
from pellredei.redei import _quadratic_power
from pellredei.solver import _fundamental, _stride


class TestPellSolution:
    def test_invariants_enforced(self):
        PellSolution(2, 1, 3, 2)
        with pytest.raises(ValueError):
            PellSolution(2, 0, 3, 2)
        with pytest.raises(ValueError):
            PellSolution(2, 1, 3, 1)
        with pytest.raises(ValueError):
            PellSolution(2, 1, -3, -2)
        # The other Pell equation x^2 - d*y^2 = -1 is out of scope.
        with pytest.raises(ValueError):
            PellSolution(5, 1, 2, 1)
        # The radicand is checked first, as HyperbolaPoint checks its own.
        with pytest.raises(ValueError, match="d must be positive"):
            PellSolution(0, 1, 1, 5)
        with pytest.raises(ValueError, match="d must be positive"):
            PellSolution(-3, 1, 2, 1)
        with pytest.raises(PerfectSquareError):
            PellSolution(4, 1, 3, 1)

    def test_point_conversion(self):
        p = PellSolution(2, 1, 3, 2).point()
        assert (p.x, p.y) == (3, 2)


class TestMinimalSolution:
    def test_frozen_values(self):
        s = minimal_solution(2)
        assert (s.x, s.y, s.n) == (3, 2, 1)
        s = minimal_solution(3)
        assert (s.x, s.y) == (2, 1)
        s = minimal_solution(61)
        assert (s.x, s.y) == (1766319049, 226153980)

    def test_parity_rule_indices(self):
        assert PellSolver(2).period_length == 1
        assert PellSolver(2).fundamental_index == 1
        assert PellSolver(3).period_length == 2
        assert PellSolver(3).fundamental_index == 1
        assert PellSolver(7).fundamental_index == 3

    def test_square_rejected(self):
        with pytest.raises(PerfectSquareError):
            minimal_solution(9)

    def test_matches_scan_oracle_and_index(self):
        for d in range(2, 101):
            if brute_is_square(d):
                continue
            index, p, q = pell_by_convergent_scan(d)
            solver = PellSolver(d)
            assert (solver.fundamental.x, solver.fundamental.y) == (p, q)
            assert solver.fundamental_index == index
            length = solver.period_length
            assert index == (length - 1 if length % 2 == 0 else 2 * length - 1)

    def test_product_tree_matches_scan_oracle_up_to_5000(self):
        for d in range(2, 5001):
            if brute_is_square(d):
                continue
            _, p, q = pell_by_convergent_scan(d)
            fundamental = PellSolver(d).fundamental
            assert (fundamental.x, fundamental.y) == (p, q)

    def test_product_tree_matches_walk_at_long_period(self):
        solver = PellSolver(10**10 + 19)
        assert solver.period_length == 124134
        conv = nth_convergent(solver.expansion, solver.fundamental_index)
        fundamental = solver.fundamental
        assert (fundamental.x, fundamental.y) == (conv.p, conv.q)
        assert fundamental.x**2 - solver.d * fundamental.y**2 == 1

    @pytest.mark.parametrize("d", [2, 7, 61])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_every_strategy_returns_the_fundamental_at_n_1(self, d, strategy):
        solver = PellSolver(d)
        assert solver.nth_solution(1, strategy) is solver.fundamental

    def test_truly_minimal_by_direct_scan(self):
        for d in range(2, 31):
            if brute_is_square(d):
                continue
            assert (minimal_solution(d).x, minimal_solution(d).y) == pell_by_y_scan(d)


@settings(max_examples=40, deadline=None, database=None)
@given(d=st.integers(2, 10**9).filter(lambda d: not brute_is_square(d)))
def test_product_tree_matches_convergent_walk(d):
    solver = PellSolver(d)
    conv = nth_convergent(solver.expansion, solver.fundamental_index)
    assert (solver.fundamental.x, solver.fundamental.y) == (conv.p, conv.q)


class TestHalfPeriodRoute:
    """_fundamental makes the fundamental from two half-period convergents
    and Q_h, and proves it by their norms, with no full-size check."""

    def test_matches_the_walk_below_5000(self):
        # L = 1 (d = a**2 + 1), L = 2 (an empty half tree), and odd and even
        # L >= 3 with h = L // 2 of both parities.
        shapes = set()
        for d in range(2, 5000):
            if brute_is_square(d):
                continue
            expansion, middle = _expand(d)
            length = expansion.period_length
            conv = nth_convergent(expansion, _stride(length) - 1)
            assert _fundamental(expansion, middle) == (conv.p, conv.q), d
            shapes.add((min(length, 3), length % 2, length // 2 % 2))
        assert shapes == {(1, 1, 0), (2, 0, 1), (3, 1, 0), (3, 1, 1), (3, 0, 0), (3, 0, 1)}

    @pytest.mark.parametrize("d, n", [(2, 5), (3, 5), (7, 5), (13, 5), (61, 5), (4000039, 1), (4000189, 1)])
    def test_no_full_size_check(self, monkeypatch, capsys, d, n):
        # L = 1, 2, 4, 5, 11, 3032 and 3829; at the last two the fifth
        # solution is past the int-to-str digit limit.  The recount is live:
        # a PellSolution built from its parts makes the one check.
        calls = []
        real = exact_module._solves_pell

        def counted(*args):
            calls.append(args)
            return real(*args)

        for module in (exact_module, hyperbola_module, solver_module):
            monkeypatch.setattr(module, "_solves_pell", counted)
        fundamental = PellSolver(d).nth_solution(1)
        assert main(["solve", "--d", str(d)]) == 0
        assert main(["solve", "--d", str(d), "--n", str(n)]) == 0
        capsys.readouterr()
        assert calls == []
        PellSolution(d, 1, fundamental.x, fundamental.y)
        assert len(calls) == 1


class TestNthSolution:
    def test_frozen_values(self):
        for strategy in Strategy:
            s = nth_solution(2, 2, strategy)
            assert (s.x, s.y) == (17, 12)
        s = nth_solution(3, 2, Strategy.REDEI)
        assert (s.x, s.y) == (7, 4)
        s = nth_solution(2, 1, Strategy.REDEI)
        assert (s.x, s.y) == (3, 2)

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            nth_solution(2, 0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_unknown_strategy_rejected_before_the_n_1_shortcut(self, n):
        with pytest.raises(ValueError, match="unknown strategy"):
            PellSolver(61).nth_solution(n, "cf")

    def test_module_level_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            nth_solution(61, 1, "cf")

    @pytest.fixture
    def no_work(self, monkeypatch):
        def no_route(*args):
            raise AssertionError("a non-integer n reached a solution route")

        monkeypatch.setattr(solver_module, "_half_period", no_route)
        monkeypatch.setattr(solver_module, "_quadratic_power", no_route)

    @pytest.mark.parametrize("n", [2.0, Fraction(2)])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_non_integer_index_rejected_before_any_work(self, no_work, strategy, n):
        with pytest.raises(TypeError):
            PellSolver(7).nth_solution(n, strategy)

    def test_non_integer_index_rejected_by_correspondence_check(self, no_work):
        with pytest.raises(TypeError):
            correspondence_check(7, Fraction(2))

    def test_strategies_agree(self):
        for d in range(2, 201):
            if brute_is_square(d):
                continue
            solver = PellSolver(d)
            for n in range(1, 9):
                conv = nth_convergent(solver.expansion, solver.solution_index(n))
                for strategy in Strategy:
                    solution = solver.nth_solution(n, strategy)
                    assert (solution.x, solution.y, solution.n) == (conv.p, conv.q, n)


@pytest.mark.parametrize("d, n", [(2, 1), (7, 5), (61, 1), (61, 5), (13, 40)])
def test_strategy_is_a_label(monkeypatch, d, n):
    # Every strategy makes the same kernel calls, returns the same solution
    # and, when the kernel is wrong, raises the same error.  At n = 1 no
    # strategy calls the kernel, so a wrong one changes nothing.
    calls = []

    def spy(*args):
        calls.append(args)
        return _quadratic_power(*args)

    def off_by_one(*args):
        x, y = _quadratic_power(*args)
        return x + 1, y

    runs, messages = set(), set()
    for strategy in Strategy:
        calls.clear()
        monkeypatch.setattr(solver_module, "_quadratic_power", spy)
        solution = PellSolver(d).nth_solution(n, strategy)
        runs.add((tuple(calls), solution))
        monkeypatch.setattr(solver_module, "_quadratic_power", off_by_one)
        if n == 1:
            assert PellSolver(d).nth_solution(n, strategy) == solution
            continue
        with pytest.raises(ConsistencyError, match="non-solution") as caught:
            PellSolver(d).nth_solution(n, strategy)
        messages.add(str(caught.value))
    assert len(runs) == 1
    assert bool(runs.pop()[0]) == (n > 1)
    assert len(messages) == (n > 1), messages


class TestPowerRoute:
    """_power takes the kernel's half power, tests its norm on the last
    doubling's squares, doubles it and steps once when n is odd; the
    answer must be the kernel's own n-th power."""

    @staticmethod
    def _both(d, ns):
        x1, y1 = _fundamental(*_expand(d))
        for n in ns:
            assert solver_module._power(d, x1, y1, n) == _quadratic_power(d, x1, y1, n), (d, n)

    # L = 1, 4, 5, 11 and 60: odd and even period lengths.
    @pytest.mark.parametrize("d", [2, 7, 13, 61, 991])
    def test_matches_the_kernel_up_to_130(self, d):
        self._both(d, range(1, 131))

    def test_matches_the_kernel_where_the_half_power_crosses_2_15_bits(self):
        # At d = 61 the half power of n = 2067 has 32764 bits and of n = 2068
        # 32796; the answer crosses 2**16 bits at n = 2067.
        self._both(61, range(2066, 2071))

    def test_matches_the_kernel_past_2_16_bits_of_the_half_power(self):
        # The half power has 65593 bits, the answer 131217.
        self._both(61, [4137])

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize(
        "fault",
        [
            pytest.param(lambda x, y: (x + 1, y), id="off-the-curve"),
            pytest.param(lambda x, y: (-x, y), id="negative-x"),
            pytest.param(lambda x, y: (x, -y), id="negative-y"),
        ],
    )
    def test_a_bad_half_power_exits_4(self, capsys, monkeypatch, fault, n):
        # d = 7 has even L, so only the half power goes through the patched
        # kernel.  (-x, y) and (x, -y) have norm one: only the signs refuse them.
        monkeypatch.setattr(
            solver_module, "_quadratic_power", lambda d, a, b, m: fault(*_quadratic_power(d, a, b, m))
        )
        code = main(["solve", "--d", "7", "--n", str(n)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err == f"error: the Redei kernel produced a non-solution at d=7, n={n}\n"

    def test_a_one_short_kernel_at_n_3_exits_4(self, capsys, monkeypatch):
        # The half power of n = 3 is power 1; one short, it is power 0,
        # (1, 0), of norm one, and Y >= 1 refuses it.
        monkeypatch.setattr(
            solver_module, "_quadratic_power", lambda d, a, b, m: _quadratic_power(d, a, b, m - 1)
        )
        code = main(["solve", "--d", "7", "--n", "3"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err == "error: the Redei kernel produced a non-solution at d=7, n=3\n"


def test_period_power_matches_convergent_walk():
    # Convergent j*L + L - 1 for j = 0..8, with L = 1 and odd and even L.
    for d in range(2, 301):
        if brute_is_square(d):
            continue
        expansion = sqrt_cf(d)
        length = expansion.period_length
        for j in range(9):
            conv = nth_convergent(expansion, j * length + length - 1)
            assert _quadratic_power(d, *walk_unit(expansion), j + 1) == (conv.p, conv.q), (d, j)


@settings(max_examples=40, deadline=None, database=None)
@given(d=st.integers(2, 10**5).filter(lambda d: not brute_is_square(d)), j=st.integers(0, 12))
def test_period_unit_power_is_solution_convergent(d, j):
    # Lenstra: convergent j*L + L - 1 is the period unit to the power j + 1.
    expansion = sqrt_cf(d)
    length = expansion.period_length
    conv = nth_convergent(expansion, j * length + length - 1)
    assert _quadratic_power(d, *walk_unit(expansion), j + 1) == (conv.p, conv.q)


@pytest.mark.parametrize(
    "d, ns",
    [
        (2, (1, 2, 7, 64)),
        (13, (1, 2, 7, 64)),
        (61, (1, 2, 7, 64)),
        (1000003, (1, 2, 7, 64)),
        # n = 64 here has 13.6 Mbit outputs and takes over a minute.
        (10**10 + 19, (1, 2, 7)),
    ],
)
def test_every_strategy_matches_period_unit_power(d, ns):
    # At odd L (d = 13, 61) this is the unit to the power 2n, with y**2 as a
    # square, where the strategies take x1**n with y**2 = (x**2 - 1)/d.
    solver = PellSolver(d)
    unit = walk_unit(solver.expansion)
    for n in ns:
        expected = _quadratic_power(d, *unit, solver.solution_index(n) // solver.period_length + 1)
        for strategy in Strategy:
            solution = solver.nth_solution(n, strategy)
            assert (solution.x, solution.y) == expected


@settings(max_examples=40, deadline=None, database=None)
@given(
    d=st.integers(2, 10**4).filter(lambda d: not brute_is_square(d)),
    n=st.integers(1, 300),
)
def test_integer_kernel_matches_slope_oracle(d, n):
    solver = PellSolver(d)
    expected = pell_by_slope_redei(d, solver.fundamental.x, solver.fundamental.y, n)
    for strategy in Strategy:
        solution = solver.nth_solution(n, strategy)
        assert (solution.x, solution.y) == expected


class TestSolutionStream:
    def test_frozen_prefixes(self):
        first = list(itertools.islice(solutions(2), 3))
        assert [(s.x, s.y) for s in first] == [(3, 2), (17, 12), (99, 70)]
        first = list(itertools.islice(solutions(3), 3))
        assert [(s.x, s.y) for s in first] == [(2, 1), (7, 4), (26, 15)]
        assert next(iter(solutions(5))).x == 9

    def test_indices_and_monotonicity(self):
        for d in (2, 3, 13, 61):
            stream = list(itertools.islice(solutions(d), 8))
            for i, sol in enumerate(stream, start=1):
                assert sol.n == i
                assert sol.d == d
            for a, b in zip(stream, stream[1:]):
                assert b.x > a.x and b.y > a.y

    def test_stream_matches_powers(self):
        for d in (2, 7, 61):
            solver = PellSolver(d)
            for sol in itertools.islice(solver.solutions(), 6):
                assert sol == solver.nth_solution(sol.n, Strategy.POWER)

    def test_composition_closure(self):
        stream = list(itertools.islice(solutions(7), 6))
        for i in range(1, 4):
            for j in range(1, 3):
                combined = stream[i - 1].point() * stream[j - 1].point()
                expected = stream[i + j - 1]
                assert (combined.x, combined.y) == (expected.x, expected.y)


class TestCorrespondence:
    def test_frozen_reports(self):
        r = correspondence_check(2, 1)
        assert r.equal and r.parity == "odd"
        assert r.redei_value == Fraction(3, 2)
        assert r.convergent_value == Fraction(3, 2)
        assert r.convergent_index == 1

        r = correspondence_check(3, 2)
        assert r.equal and r.parity == "even"
        assert r.redei_value == Fraction(7, 4)
        assert r.convergent_index == 3

        r = correspondence_check(7, 1)
        assert r.equal
        assert r.redei_value == Fraction(8, 3)

    def test_holds_over_small_grid(self):
        for d in range(2, 40):
            if brute_is_square(d):
                continue
            solver = PellSolver(d)
            for n in range(1, 6):
                assert solver.correspondence_check(n).equal

    def test_redei_value_is_the_rational_function_at_the_slope(self):
        for d in range(2, 61):
            if brute_is_square(d):
                continue
            base = minimal_solution(d)
            for n in range(1, 5):
                expected = redei_rational(d, Fraction(1 + base.x, base.y), 2 * n)
                assert correspondence_check(d, n).redei_value == expected

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            correspondence_check(2, 0)

    def test_streamed_reports_match_single_checks(self):
        for d in range(2, 101):
            if brute_is_square(d):
                continue
            solver = PellSolver(d)
            base = solver.fundamental
            stride = solver_module._stride(solver.period_length)
            walk = solver_module._pairs(solver.expansion, stride - 1, stride)
            for n, (p, q) in enumerate(itertools.islice(walk, 10), 1):
                num, den = _quadratic_power(d, 1 + base.x, base.y, 2 * n)
                report = correspondence_check(d, n)
                assert (n, num, den, p, q) == (
                    report.n, report.redei_num, report.redei_den,
                    report.convergent_p, report.convergent_q,
                )
                assert (report.period_length, report.parity) == (solver.period_length, solver.parity)
                assert report.equal
                conv = nth_convergent(solver.expansion, solver.solution_index(n))
                assert (report.n, report.convergent_index) == (n, conv.k)
                assert (report.convergent_p, report.convergent_q) == (conv.p, conv.q)
