"""Checks at the package's edges: exact checks, error paths and exit codes."""

import ast
from pathlib import Path

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
    exact,
    redei,
    solver,
)
from pellredei.cli import main


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so no runtime check may be one.
    for path in sorted(Path(pellredei.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name} has assert statements at lines {lines}"


def test_consistency_error_is_one_class_everywhere():
    assert pellredei.ConsistencyError is solver.ConsistencyError is exact.ConsistencyError


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
    fundamental is built, which is also the one check of n = 1."""

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
            PellSolver(61).nth_solution(1, strategy)

    def test_cli_exit_code_4(self, capsys):
        code = main(["solve", "--d", "61"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "non-solution" in captured.err
