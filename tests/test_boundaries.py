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


def _float_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for each way into floating point the package must not take."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names if alias.name == "math"]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, alias.name) for alias in node.names if alias.name != "isqrt"]
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            found += [
                (node.lineno, alias.name)
                for alias in node.names
                if alias.name in ("perf_counter", "time")
            ]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "time"
            and node.attr in ("perf_counter", "time")
        ):
            found.append((node.lineno, f"time.{node.attr}"))
    return found


def test_no_floats_in_the_package():
    # The arithmetic is exact throughout, and timings are integer nanoseconds.
    for path in sorted(Path(pellredei.__file__).parent.glob("*.py")):
        found = _float_uses(ast.parse(path.read_text(), filename=str(path)))
        assert found == [], f"{path.name} reaches floating point at {found}"


@pytest.mark.parametrize(
    "source",
    [
        "x = 0.5",
        "x = 2j",
        "x = float(y)",
        "x: complex",
        "import math",
        "from math import sqrt",
        "from time import perf_counter",
        "t = time.perf_counter()",
        "t = time.time()",
    ],
)
def test_float_check_catches(source):
    assert _float_uses(ast.parse(source)) != []


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
        real = solver._quadratic_power

        def off_by_one(d, a, b, n):
            x, y = real(d, a, b, n)
            return x + 1, y

        monkeypatch.setattr(solver, "_quadratic_power", off_by_one)

    @pytest.mark.parametrize("strategy", [Strategy.REDEI, Strategy.POWER, Strategy.CONVERGENT])
    def test_library_raises(self, strategy):
        with pytest.raises(ConsistencyError, match="non-solution"):
            PellSolver(61).nth_solution(5, strategy)

    @pytest.mark.parametrize("strategy", ["redei", "power", "cf"])
    def test_cli_exit_code_4(self, capsys, strategy):
        code = main(["solve", "--d", "61", "--n", "5", "--strategy", strategy])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "non-solution" in captured.err


class TestWrongProductTree:
    """A product tree that returns a non-solution is caught when the
    fundamental is built, which is also the one check of n = 1; every
    other solution is the fundamental's power, so no strategy gets past it.

    d = 61 has odd period length 11, so the fundamental is two periods,
    the tree's period unit squared by one kernel call;
    TestWrongProductTreeEvenPeriod runs the same tests on the even
    branch."""

    d = 61

    @pytest.fixture(autouse=True)
    def broken_tree(self, monkeypatch):
        real = solver._quotient_product

        def off_by_one(quotients):
            a, b, c, e = real(quotients)
            return a + 1, b, c, e

        monkeypatch.setattr(solver, "_quotient_product", off_by_one)

    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_library_raises(self, strategy, n):
        with pytest.raises(ConsistencyError, match="non-solution"):
            PellSolver(self.d).nth_solution(n, strategy)

    @pytest.mark.parametrize("n", ["1", "5"])
    @pytest.mark.parametrize("strategy", ["redei", "power", "cf"])
    def test_cli_exit_code_4(self, capsys, strategy, n):
        code = main(["solve", "--d", str(self.d), "--n", n, "--strategy", strategy])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "non-solution" in captured.err


class TestWrongProductTreeEvenPeriod(TestWrongProductTree):
    """d = 7 has even period length 4: the tree's column gives the solution."""

    d = 7


class TestUnsquaredOddPeriodUnit:
    """At odd L the period unit has norm -1; a fundamental that skipped its
    square would be a solution of x^2 - d*y^2 = -1, and the one exact
    check catches it for every strategy."""

    @pytest.fixture(autouse=True)
    def no_square(self, monkeypatch):
        real = solver._quadratic_power

        # At n = 5 the strategies raise to the fifth power, so the only
        # square asked for is the fundamental's.
        def skip_square(d, a, b, n):
            return (a, b) if n == 2 else real(d, a, b, n)

        monkeypatch.setattr(solver, "_quadratic_power", skip_square)

    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_library_raises(self, strategy, n):
        with pytest.raises(ConsistencyError, match="non-solution"):
            PellSolver(61).nth_solution(n, strategy)

    @pytest.mark.parametrize("n", ["1", "5"])
    @pytest.mark.parametrize("strategy", ["redei", "power", "cf"])
    def test_cli_exit_code_4(self, capsys, strategy, n):
        code = main(["solve", "--d", "61", "--n", n, "--strategy", strategy])
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
