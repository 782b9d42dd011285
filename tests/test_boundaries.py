"""Checks at the package's edges: exact checks, error paths and exit codes."""

import ast
from pathlib import Path
from types import SimpleNamespace

import pytest

import pellredei
from pellredei import (
    ConsistencyError,
    HyperbolaPoint,
    PellSolution,
    PellSolver,
    PerfectSquareError,
    RedeiPair,
    Strategy,
    cli,
    contfrac,
    exact,
    hyperbola,
    projline,
    redei,
    solver,
)
from pellredei.cli import main

# The package's public names; a change to this list is a change of API.
PUBLIC_NAMES = [
    "INF",
    "ConsistencyError",
    "Convergent",
    "CorrespondenceReport",
    "HyperbolaPoint",
    "Infinity",
    "LineGroup",
    "PellSolution",
    "PellSolver",
    "PerfectSquareError",
    "QuadraticElement",
    "RedeiPair",
    "SqrtExpansion",
    "Strategy",
    "convergents",
    "correspondence_check",
    "decimal_digits",
    "dickson",
    "from_parameter",
    "is_perfect_square",
    "isqrt",
    "minimal_solution",
    "nth_convergent",
    "nth_solution",
    "redei_pair_fast",
    "redei_pair_linear",
    "redei_rational",
    "require_nonsquare",
    "solutions",
    "sqrt_cf",
    "to_parameter",
]


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so no runtime check may be one.
    for path in sorted(Path(pellredei.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name} has assert statements at lines {lines}"


def test_consistency_error_is_one_class_everywhere():
    assert pellredei.ConsistencyError is solver.ConsistencyError is exact.ConsistencyError


class TestPublicNames:
    """Each public name is declared once, in the __all__ of the module that defines it."""

    def test_names_are_pinned(self):
        assert len(pellredei.__all__) == len(set(pellredei.__all__))
        assert set(pellredei.__all__) == set(PUBLIC_NAMES)

    def test_each_name_has_one_module(self):
        owners = {}
        for module in (cli, contfrac, exact, hyperbola, projline, redei, solver):
            for name in module.__all__:
                assert name not in owners, f"{name} in {owners.get(name)} and {module}"
                owners[name] = module
        for name in pellredei.__all__:
            assert getattr(pellredei, name) is getattr(owners[name], name), name


class TestHugeValuesInMessages:
    """Error messages report the size of a huge number, never its digits."""

    def test_pell_solution(self):
        with pytest.raises(ValueError, match="does not solve") as excinfo:
            PellSolution(2, 1, 10**5000, 1)
        assert "bit number" in str(excinfo.value)

    def test_hyperbola_point(self):
        with pytest.raises(ValueError, match="is not on") as excinfo:
            HyperbolaPoint(2, 10**5000, 1)
        assert "bit number" in str(excinfo.value)

    def test_perfect_square_radicand(self):
        with pytest.raises(PerfectSquareError, match="bit number"):
            PellSolver(10**6000)

    def test_bench_disagreement(self, capsys, monkeypatch):
        # d = k^2 + 1 has period [2k], and its second solution has ~4800 digits.
        real = PellSolver.nth_solution

        def off_by_one(self, n, strategy=Strategy.REDEI):
            return real(self, n + 1, strategy)

        monkeypatch.setattr(PellSolver, "nth_solution", off_by_one)
        code = main(["bench", "--d", str(10**2400 + 1), "--n-max", "2", "--reps", "1"])
        err = capsys.readouterr().err
        assert code == 4
        assert "disagree" in err and "bit number" in err


class TestCheckAtScale:
    """The exact check on a 2^18-bit solution still rejects a neighbour off by one."""

    @pytest.fixture(scope="class")
    def solution(self):
        solution = PellSolver(61).nth_solution(8456)
        assert solution.x.bit_length() >= 2**18
        return solution

    @pytest.mark.parametrize("dx, dy", [(1, 0), (-1, 0), (0, 1), (0, -1)])
    def test_pell_solution_rejects_neighbours(self, solution, dx, dy):
        with pytest.raises(ValueError, match="does not solve"):
            PellSolution(61, 8456, solution.x + dx, solution.y + dy)

    @pytest.mark.parametrize("dx, dy", [(1, 0), (-1, 0), (0, 1), (0, -1)])
    def test_hyperbola_point_rejects_neighbours(self, solution, dx, dy):
        with pytest.raises(ValueError, match="is not on"):
            HyperbolaPoint(61, solution.x + dx, solution.y + dy)


class TestWrongKernel:
    """A kernel that returns a non-solution is caught by the one exact check."""

    @pytest.fixture(autouse=True)
    def broken_kernel(self, monkeypatch):
        real = redei.redei_pair_fast

        def off_by_one(d, z, n):
            pair = real(d, z, n)
            return RedeiPair(pair.d, pair.z, pair.n, pair.num + 1, pair.den)

        monkeypatch.setattr(redei, "redei_pair_fast", off_by_one)

    @pytest.mark.parametrize("strategy", [Strategy.REDEI, Strategy.POWER])
    def test_library_raises(self, strategy):
        with pytest.raises(ConsistencyError, match="non-solution"):
            PellSolver(61).nth_solution(5, strategy)

    @pytest.mark.parametrize("strategy", ["redei", "power"])
    def test_cli_exit_code_4(self, capsys, strategy):
        code = main(["solve", "--d", "61", "--n", "5", "--strategy", strategy])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "non-solution" in captured.err


class TestWrongProductTree:
    """A product tree that returns a non-solution is caught when the
    fundamental is built, which is also the one check of n = 1.

    d = 61 has odd period length 11, so the tree's column takes one power
    step; TestWrongProductTreeEvenPeriod runs the same tests on the even
    branch."""

    d = 61

    @pytest.fixture(autouse=True)
    def broken_tree(self, monkeypatch):
        real = solver._quotient_product

        def off_by_one(quotients):
            a, b, c, e = real(quotients)
            return a + 1, b, c, e

        monkeypatch.setattr(solver, "_quotient_product", off_by_one)

    @pytest.mark.parametrize("strategy", [Strategy.REDEI, Strategy.POWER])
    def test_library_raises(self, strategy):
        with pytest.raises(ConsistencyError, match="non-solution"):
            PellSolver(self.d).nth_solution(1, strategy)

    def test_cli_exit_code_4(self, capsys):
        code = main(["solve", "--d", str(self.d)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "non-solution" in captured.err


class TestWrongProductTreeEvenPeriod(TestWrongProductTree):
    """d = 7 has even period length 4: the tree's column gives the solution."""

    d = 7


class TestWrongWalk:
    """A convergent route that returns a non-solution is caught by the one exact check."""

    @pytest.fixture(autouse=True)
    def broken_route(self, monkeypatch):
        real = solver._convergent
        monkeypatch.setattr(
            solver,
            "_convergent",
            lambda expansion, k: real(expansion, k + expansion.period_length),
        )

    def test_library_raises(self):
        with pytest.raises(ConsistencyError, match="non-solution"):
            PellSolver(61).nth_solution(5, Strategy.CONVERGENT)

    def test_cli_exit_code_4(self, capsys):
        code = main(["solve", "--d", "61", "--n", "5", "--strategy", "cf"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "non-solution" in captured.err


class TestWitnessWalk:
    """The sequential walk serves the witness alone: verify catches a wrong
    walk, and solve never calls it."""

    def test_wrong_walk_fails_verify(self, monkeypatch, capsys):
        real = solver.nth_convergent
        monkeypatch.setattr(solver, "nth_convergent", lambda expansion, k: real(expansion, k + 1))
        code = main(["verify", "--d-max", "13", "--n-max", "2"])
        captured = capsys.readouterr()
        assert code == 4
        assert "Redei value != convergent" in captured.err

    def test_solve_does_not_walk(self, monkeypatch, capsys):
        assert main(["solve", "--d", "61", "--n", "50", "--strategy", "redei"]) == 0
        expected = capsys.readouterr()

        def no_walk(expansion, k):
            raise AssertionError("solve walked the convergents")

        monkeypatch.setattr(solver, "nth_convergent", no_walk)
        code = main(["solve", "--d", "61", "--n", "50", "--strategy", "cf"])
        assert code == 0
        assert capsys.readouterr() == expected


@pytest.mark.parametrize("d", ["2", "7", "61"])
def test_convergent_route_never_calls_the_kernel(monkeypatch, capsys, d):
    """solve --strategy cf, fundamental included, runs without the Redei
    kernel: L = 1 at d = 2, even L at d = 7, odd L at d = 61."""
    assert main(["solve", "--d", d, "--n", "50", "--strategy", "redei"]) == 0
    expected = capsys.readouterr()

    def no_kernel(*args):
        raise AssertionError("the cf route called the Redei kernel")

    monkeypatch.setattr(solver, "_quadratic_power", no_kernel)
    code = main(["solve", "--d", d, "--n", "50", "--strategy", "cf"])
    assert code == 0
    assert capsys.readouterr() == expected


class TestWrongFold:
    """A linear fold that reaches a non-solution is caught by the one exact check,
    so bench, which times the fold, exits 4 rather than crashing."""

    @pytest.fixture(autouse=True)
    def broken_base(self, monkeypatch):
        # 3^2 - 2*1^2 = 7: the fold starts from a point off the curve.
        monkeypatch.setattr(PellSolver, "fundamental", SimpleNamespace(x=3, y=1))

    def test_library_raises(self):
        with pytest.raises(ConsistencyError, match="linear fold produced a non-solution"):
            next(PellSolver(2).solutions())

    def test_cli_exit_code_4(self, capsys):
        code = main(["bench", "--d", "2", "--n-max", "3", "--reps", "1"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "non-solution" in captured.err
