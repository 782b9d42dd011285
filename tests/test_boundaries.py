"""Checks at the package's edges: exact checks, error paths and exit codes."""

import ast
import math
import operator
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import pellredei
from pellredei import (
    ConsistencyError,
    HyperbolaPoint,
    LineGroup,
    PellSolution,
    PellSolver,
    PerfectSquareError,
    QuadraticElement,
    RedeiPair,
    Strategy,
    cli,
    contfrac,
    dickson,
    exact,
    from_parameter,
    hyperbola,
    projline,
    redei,
    redei_pair_fast,
    redei_pair_linear,
    redei_rational,
    require_nonsquare,
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


def _optimize_flag_uses(tree: ast.AST) -> list[int]:
    """Lines where behaviour could depend on python -O: assert, __debug__, sys.flags."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Name) and node.id == "__debug__")
        or (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and (node.value.id, node.attr) == ("sys", "flags")
        )
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "sys"
            and any(alias.name == "flags" for alias in node.names)
        )
    ]


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements and flips __debug__ and sys.flags, so no
    # runtime check may use them: then -O cannot change how the package behaves.
    for path in sorted(Path(pellredei.__file__).parent.glob("*.py")):
        lines = _optimize_flag_uses(ast.parse(path.read_text(), filename=str(path)))
        assert lines == [], f"{path.name} depends on python -O at lines {lines}"


@pytest.mark.parametrize(
    "source",
    [
        "assert x",
        "if __debug__: check()",
        "level = sys.flags.optimize",
        "from sys import argv, flags",
    ],
)
def test_optimize_flag_check_catches(source):
    assert _optimize_flag_uses(ast.parse(source)) != []


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


# Every public entry point that takes a number, with arguments it accepts.
EXACT_ENTRY_POINTS = {
    "QuadraticElement": (QuadraticElement, (1, Fraction(1, 2), 2)),
    "HyperbolaPoint": (HyperbolaPoint, (2, 3, 2)),
    "from_parameter": (from_parameter, (2, Fraction(1, 3))),
    "LineGroup": (LineGroup, (2,)),
    "LineGroup.mul": (LineGroup(2).mul, (1, Fraction(2, 3))),
    "LineGroup.inverse": (LineGroup(2).inverse, (Fraction(2, 3),)),
    "LineGroup.from_multiplicative": (LineGroup(2).from_multiplicative, (3,)),
    "LineGroup.to_multiplicative": (LineGroup(2).to_multiplicative, (3,)),
    "LineGroup.pow": (LineGroup(2).pow, (Fraction(2), 3)),
    "LineGroup.rescale_from": (LineGroup(8).rescale_from, (2, Fraction(3))),
    "redei_pair_fast": (redei_pair_fast, (2, Fraction(3, 2), 3)),
    "redei_pair_linear": (redei_pair_linear, (2, Fraction(3, 2), 3)),
    "redei_rational": (redei_rational, (2, Fraction(3, 2), 3)),
    "dickson": (dickson, (-1, Fraction(2), 3)),
    "PellSolution": (PellSolution, (2, 1, 3, 2)),
    "RedeiPair": (RedeiPair, (2, Fraction(3, 2), 1, Fraction(3, 2), 1)),
}


class TestExactInputs:
    """An int or a Fraction is an exact number; anything else is refused with
    TypeError before any arithmetic, in every numeric slot of every entry point."""

    @pytest.mark.parametrize("inexact", [1.5, "3/2", Decimal("1.5")], ids=["float", "str", "Decimal"])
    @pytest.mark.parametrize(
        "name, slot",
        [(name, slot) for name, (_, args) in EXACT_ENTRY_POINTS.items() for slot in range(len(args))],
    )
    def test_refused_before_the_kernel(self, monkeypatch, name, slot, inexact):
        entry, args = EXACT_ENTRY_POINTS[name]
        entry(*args)  # accepted as given, so the TypeError below is the replaced slot's

        def no_kernel(*args):
            raise AssertionError("the kernel ran on an inexact input")

        monkeypatch.setattr(redei, "_quadratic_power", no_kernel)
        with pytest.raises(TypeError):
            entry(*args[:slot], inexact, *args[slot + 1 :])

    def test_pell_solution_fields_are_integers(self):
        with pytest.raises(TypeError):
            PellSolution(2, 1, Fraction(3), 2)
        with pytest.raises(TypeError):
            PellSolution(2, Fraction(1), 3, 2)

    def test_redei_pair_fields_are_exact(self):
        with pytest.raises(TypeError):
            RedeiPair(2, 1.5, 1, 1.5, 1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: LineGroup(-1.5),
            lambda: PellSolution(-2.0, 1, 3, 2),
            lambda: contfrac.sqrt_cf(-1.5),
            lambda: QuadraticElement(1, 1, Decimal("-2")),
        ],
        ids=["LineGroup", "PellSolution", "sqrt_cf", "QuadraticElement"],
    )
    def test_negative_inexact_radicand_is_a_type_error(self, call):
        # The type is checked before the sign, as for LineGroup(1.5).
        with pytest.raises(TypeError):
            call()

    def test_exact_inputs_stay_unconverted(self):
        for value in (3, Fraction(3), Fraction(3, 2)):
            assert exact._exact(value) is value
        assert type(redei_pair_fast(2, 3, 4).num) is int
        assert LineGroup(8).rescale_from(2, 3) == 6


class WrappingInt64:
    """An integer-like value, as numpy.int64 is: __index__ gives its value,
    and its arithmetic and comparisons are its own, wrapping at 64 bits."""

    def __init__(self, value):
        self.value = (operator.index(value) + 2**63) % 2**64 - 2**63

    def __index__(self):
        return self.value

    def __hash__(self):
        return hash(self.value)

    def _arithmetic(op, reflected=False):
        def method(self, other):
            a, b = self.value, operator.index(other)
            return WrappingInt64(op(b, a) if reflected else op(a, b))

        return method

    def _comparison(op):
        return lambda self, other: op(self.value, operator.index(other))

    __add__, __radd__ = _arithmetic(operator.add), _arithmetic(operator.add, True)
    __sub__, __rsub__ = _arithmetic(operator.sub), _arithmetic(operator.sub, True)
    __mul__, __rmul__ = _arithmetic(operator.mul), _arithmetic(operator.mul, True)
    __floordiv__ = _arithmetic(operator.floordiv)
    __rfloordiv__ = _arithmetic(operator.floordiv, True)
    __eq__, __ne__ = _comparison(operator.eq), _comparison(operator.ne)
    __lt__, __le__ = _comparison(operator.lt), _comparison(operator.le)
    __gt__, __ge__ = _comparison(operator.gt), _comparison(operator.ge)


class TestIntegerLikeInputs:
    """An integer-like d, n, x or y becomes a plain int at the boundary, so
    no arithmetic of its own, such as a product that wraps, reaches a check."""

    def test_stand_in_wraps(self):
        x, y = WrappingInt64(2**32 + 1), WrappingInt64(2**16)
        assert x * x - 2 * (y * y) == 1  # the exact value is 2**64 + 1

    def test_wrapped_non_solution_is_refused(self):
        with pytest.raises(ValueError, match="does not solve"):
            PellSolution(2, 1, WrappingInt64(2**32 + 1), WrappingInt64(2**16))

    def test_solution_fields_are_ints(self):
        solution = PellSolution(*map(WrappingInt64, (2, 1, 3, 2)))
        assert solution == PellSolution(2, 1, 3, 2)
        assert [type(value) for value in solution._fields()] == [int] * 4

    def test_radicand_is_an_int_everywhere(self):
        d = WrappingInt64(2)
        assert type(require_nonsquare(d)) is int
        assert type(contfrac.sqrt_cf(d).d) is int
        assert type(PellSolver(d).d) is int
        assert type(QuadraticElement(1, 1, d).d) is int
        assert type(HyperbolaPoint(d, 3, 2).d) is int

    def test_nth_solution(self):
        assert pellredei.nth_solution(WrappingInt64(2), 100) == pellredei.nth_solution(2, 100)


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

    @pytest.fixture(scope="class")
    def rational(self):
        """A rational point on either side of 2^15 bits, by (X, Y, w) with
        x = X/w and y = Y/w."""
        big, small = from_parameter(61, Fraction(7, 10)) ** 3000, from_parameter(61, Fraction(7, 10)) ** 5
        cleared = []
        for point in (small, big):
            w = point.y.denominator
            cleared.append((point.x.numerator * (w // point.x.denominator), point.y.numerator, w))
        assert cleared[0][0].bit_length() < 2**15 <= cleared[1][0].bit_length()
        return cleared

    def test_integer_point_takes_the_one_check(self, solution, rational, monkeypatch):
        # point() re-checks a solution through _solves_pell, not on Fractions,
        # and a sign on either coordinate keeps the point on the curve.  A
        # rational point takes the same check, on its cleared integers and w.
        calls = []

        def spy(x, y, d, w):
            calls.append((x, y, d, w))
            return exact._solves_pell(x, y, d, w)

        monkeypatch.setattr(hyperbola, "_solves_pell", spy)
        x, y = solution.x, solution.y
        assert solution.point() == HyperbolaPoint(61, x, y)
        for sx, sy in [(-1, 1), (1, -1), (-1, -1)]:
            assert HyperbolaPoint(61, sx * x, sy * y).x == sx * x
            with pytest.raises(ValueError, match="is not on"):
                HyperbolaPoint(61, sx * (x - 1), sy * y)
        assert calls == [(x, y, 61, 1)] * 2 + [(x, y, 61, 1), (x - 1, y, 61, 1)] * 3
        calls.clear()
        big_x, big_y, w = rational[1]
        assert HyperbolaPoint(61, Fraction(big_x, w), Fraction(big_y, w)).y.denominator == w
        assert calls == [(abs(big_x), abs(big_y), 61, w)]

    @pytest.mark.parametrize("side", ["below", "above"])
    @pytest.mark.parametrize("dx, dy, dw", [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])
    def test_rational_point_rejects_neighbours(self, rational, side, dx, dy, dw):
        # The check itself refuses each neighbour; the point may refuse it
        # earlier, when a reduced x's denominator does not divide y's.
        x, y, w = rational[side == "above"]
        assert HyperbolaPoint(61, Fraction(x, w), Fraction(y, w))
        assert not exact._solves_pell(abs(x + dx), abs(y + dy), 61, w + dw)
        with pytest.raises(ValueError, match="is not on"):
            HyperbolaPoint(61, Fraction(x + dx, w + dw), Fraction(y + dy, w + dw))


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

    @pytest.mark.parametrize("strategy", ["redei", "power", "cf"])
    def test_cli_exit_code_4_at_even_period(self, capsys, strategy):
        # No fundamental makes a kernel call, at odd L (d = 61) or even L
        # (d = 7): only the fifth power's half power does, so a CLI that
        # called the kernel by a name of its own would pass.
        code = main(["solve", "--d", "7", "--n", "5", "--strategy", strategy])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err == "error: the Redei kernel produced a non-solution at d=7, n=5\n"


class TestWrongPeriodUnit:
    """A half-period convergent off the curve fails its norm test against
    Q_h, before any power, on the CLI as in the library: d = 7 has even
    period length, d = 61 odd."""

    @pytest.fixture(autouse=True)
    def broken_half(self, monkeypatch):
        self.calls = _faulty_half_period(monkeypatch, lambda p, q, r, t: (p + 1, q, r, t))

    @pytest.mark.parametrize("n", ["1", "4", "5"])
    @pytest.mark.parametrize("d", ["7", "61"])
    def test_cli_exit_code_4(self, capsys, d, n):
        code = main(["solve", "--d", d, "--n", n])
        captured = capsys.readouterr()
        assert self.calls == [int(d)]
        assert code == 4
        assert captured.out == ""
        assert captured.err == f"error: the product tree produced a non-solution at d={d}, n=1\n"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="the exact check tests the norm only")
class TestKernelOneShort:
    """A kernel that raises to m - 1 returns a solution, the wrong one.  At
    n = 5 solve asks it for the half power m = 2 and gets the fundamental,
    which passes the norm test on the last doubling's squares; the doubling
    and the odd step then make the third solution, and solve prints it as
    the fifth with exit 0.  Pinning the index as well as the norm would
    catch it.  The fundamental makes no kernel call.  (At n = 3 the half
    power is power 0, (1, 0), which the test refuses:
    test_solver.TestPowerRoute pins that.)  A patch that is never called
    fails the test outright, not as its expected AssertionError."""

    def test_cli_exit_code_4(self, monkeypatch, capsys):
        calls = _kernel_one_short(monkeypatch)
        code = main(["solve", "--d", "7", "--n", "5"])
        captured = capsys.readouterr()
        if calls != [2]:
            pytest.fail(f"the patched kernel was asked for powers {calls}, not for power 2")
        assert code == 4
        assert captured.out == ""


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="the exact check tests the norm only")
class TestSquaredPeriodUnit:
    """A _half_period one period late returns each half convergent times the
    period unit.  At even L that unit is the fundamental, of norm one, so
    alpha passes the norm test against Q_h, and alpha**2 / Q_h is the
    fundamental's cube, the third solution: solve prints it as the first
    with exit 0.  A patch that is never called fails the test outright,
    not as its expected AssertionError."""

    def test_cli_exit_code_4(self, monkeypatch, capsys):
        calls = _one_period_late(monkeypatch)
        code = main(["solve", "--d", "7"])
        captured = capsys.readouterr()
        if calls != [7]:
            pytest.fail(f"the patched _half_period was called for {calls}, not for d = 7")
        assert code == 4
        assert captured.out == ""


def _kernel_one_short(monkeypatch):
    """Patch the kernel to raise to n - 1; returns the exponents it is asked for."""
    real = solver._quadratic_power
    calls = []

    def one_short(d, a, b, n):
        calls.append(n)
        return real(d, a, b, n - 1)

    monkeypatch.setattr(solver, "_quadratic_power", one_short)
    return calls


def _faulty_half_period(monkeypatch, fault):
    """Patch _half_period to return fault(*its convergents); returns the
    radicands it was called for."""
    real = solver._half_period
    calls = []

    def faulty(expansion):
        calls.append(expansion.d)
        return fault(*real(expansion))

    monkeypatch.setattr(solver, "_half_period", faulty)
    return calls


def _one_period_late(monkeypatch, odd=True):
    """Patch _half_period to return convergents k + L and k + L - 1, read off
    the walk, in place of k and k - 1; with odd=False only at even L.
    Returns the radicands it was called for."""
    real = solver._half_period
    calls = []

    def late(expansion):
        calls.append(expansion.d)
        length = expansion.period_length
        if length % 2 and not odd:
            return real(expansion)
        walk = contfrac._pairs(expansion, (length - 1) // 2 + length - 1)
        (r, t), (p, q) = next(walk), next(walk)
        return p, q, r, t

    monkeypatch.setattr(solver, "_half_period", late)
    return calls


class TestWitnessCatchesNormPreservingFaults:
    """Faults that the norm tests pass are caught by verify's witness: its
    convergent side is the sequential walk, apart from the product tree
    and the kernel, so a wrong fundamental or a wrong power shows as a
    Redei value off its convergent."""

    def test_squared_period_unit(self, monkeypatch, capsys):
        calls = _one_period_late(monkeypatch)
        code = main(["verify", "--d-max", "8", "--n-max", "1"])
        captured = capsys.readouterr()
        assert calls == [2]
        assert code == 4
        assert captured.out == ""
        # d = 2 has odd period length 1: one period late, beta is convergent
        # 1, 3 + 2*sqrt(2), of norm +1, and the test against -Q_0 = -1
        # refuses it before the witness runs.
        assert captured.err == "error: the product tree produced a non-solution at d=2, n=1\n"

    def test_squared_period_unit_at_even_period(self, monkeypatch, capsys):
        calls = _one_period_late(monkeypatch, odd=False)
        code = main(["verify", "--d-max", "8", "--n-max", "1"])
        captured = capsys.readouterr()
        assert calls == [2, 3]
        assert code == 4
        assert captured.out == "d = 2: L = 1 (odd), n = 1..1 ok\n"
        # d = 3 has even period length 2: alpha = 1 + sqrt(3) is read as
        # 5 + 3*sqrt(3), of the same norm, and the fundamental 2 + sqrt(3) as
        # its cube, 26 + 15*sqrt(3).
        assert captured.err == "error: Redei value != convergent at d=3, n=1: 26/15 vs 2\n"

    def test_kernel_one_short(self, monkeypatch, capsys):
        calls = _kernel_one_short(monkeypatch)
        code = main(["verify", "--d-max", "8", "--n-max", "1"])
        captured = capsys.readouterr()
        assert calls == [2]
        assert code == 4
        assert captured.out == ""
        # The fundamental makes no kernel call.  The witness's call for the
        # 2n-th Redei value, one short, returns the slope (1 + x1)/y1 itself.
        assert captured.err == "error: Redei value != convergent at d=2, n=1: 2 vs 3/2\n"
        # The same fault at d = 7, even L: the witness reads the Redei value
        # of index 2n - 1.
        report = PellSolver(7).correspondence_check(1)
        assert (report.redei_value, report.convergent_value) == (3, Fraction(8, 3))
        assert not report.equal


class TestWrongProductTree:
    """A product tree that returns a non-solution is caught when the
    fundamental is built, which is also the one check of n = 1; every
    other solution is the fundamental's power, so no strategy gets past it.

    d = 61 has odd period length 11, so the fundamental is two periods,
    the square of the period unit made from the tree's half convergents;
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
    """At odd L the period unit has norm -1 and only its square is the
    fundamental.  A _half_period one period late (TestSquaredPeriodUnit's
    fault) multiplies both half convergents by that unit: the unit made
    from them still has norm -1, but beta's norm changes sign, and the
    test against Q_h refuses it before any power, for every strategy."""

    @pytest.fixture(autouse=True)
    def late(self, monkeypatch):
        self.calls = _one_period_late(monkeypatch)

    @pytest.mark.parametrize("n", [1, 4, 5])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_library_raises(self, strategy, n):
        with pytest.raises(ConsistencyError, match="non-solution"):
            PellSolver(61).nth_solution(n, strategy)
        assert self.calls == [61]

    @pytest.mark.parametrize("n", ["1", "4", "5"])
    @pytest.mark.parametrize("strategy", ["redei", "power", "cf"])
    def test_cli_exit_code_4(self, capsys, strategy, n):
        code = main(["solve", "--d", "61", "--n", n, "--strategy", strategy])
        captured = capsys.readouterr()
        assert self.calls == [61]
        assert code == 4
        assert captured.out == ""
        assert captured.err == "error: the product tree produced a non-solution at d=61, n=1\n"


class TestWrongMiddle:
    """A Q_h off by one where sqrt_cf hands it over, in _expand, fails the
    norm test of a half-period convergent it was not computed from: alpha's
    at even L (d = 7), beta's at odd L (d = 61)."""

    @pytest.fixture(autouse=True)
    def broken_middle(self, monkeypatch):
        real = solver._expand
        self.calls = []

        def off_by_one(d):
            self.calls.append(d)
            expansion, middle = real(d)
            return expansion, middle + 1

        monkeypatch.setattr(solver, "_expand", off_by_one)

    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("d", [7, 61])
    def test_library_raises(self, d, n):
        with pytest.raises(ConsistencyError, match=f"the product tree produced a non-solution at d={d}, n=1"):
            PellSolver(d).nth_solution(n)
        assert self.calls == [d]

    @pytest.mark.parametrize("n", ["1", "5"])
    @pytest.mark.parametrize("d", ["7", "61"])
    def test_cli_exit_code_4(self, capsys, d, n):
        code = main(["solve", "--d", d, "--n", n])
        captured = capsys.readouterr()
        assert self.calls == [int(d)]
        assert code == 4
        assert captured.out == ""
        assert captured.err == f"error: the product tree produced a non-solution at d={d}, n=1\n"


class TestHalfPeriodFaults:
    """Each test of _fundamental refuses a half period that the others pass.

    - doubled: every entry times 2, so alpha**2 is divisible by Q_h and
      only the norm test refuses it;
    - conjugate: q and q_(k-1) negated, of the same norms, so only the
      guard on the signs refuses it;
    - off-curve pair: alpha off by one and Q_h taken as its norm, so the
      two agree with each other but not with sqrt(d), and only the
      remainder of the division by Q_h refuses it.
    """

    @pytest.mark.parametrize(
        "fault",
        [
            pytest.param(lambda p, q, r, t: (2 * p, 2 * q, 2 * r, 2 * t), id="doubled"),
            pytest.param(lambda p, q, r, t: (p, -q, r, -t), id="conjugate"),
        ],
    )
    @pytest.mark.parametrize("d", ["7", "61"])
    def test_cli_exit_code_4(self, monkeypatch, capsys, fault, d):
        calls = _faulty_half_period(monkeypatch, fault)
        code = main(["solve", "--d", d])
        captured = capsys.readouterr()
        assert calls == [int(d)]
        assert code == 4
        assert captured.out == ""
        assert captured.err == f"error: the product tree produced a non-solution at d={d}, n=1\n"

    def test_off_curve_pair_fails_the_division(self, monkeypatch, capsys):
        # d = 7, L = 4, h = 2: alpha = 3 + sqrt(7), Q_2 = 2.  Off by one it is
        # 4 + sqrt(7), of norm 9, and its square 23 + 8*sqrt(7) is not
        # divisible by 9.
        calls = _faulty_half_period(monkeypatch, lambda p, q, r, t: (p + 1, q, r, t))
        real = solver._expand
        monkeypatch.setattr(solver, "_expand", lambda d: (real(d)[0], 9))
        code = main(["solve", "--d", "7"])
        captured = capsys.readouterr()
        assert calls == [7]
        assert code == 4
        assert captured.out == ""
        assert captured.err == "error: the product tree produced a non-solution at d=7, n=1\n"


class TestBrokenMirror:
    """sqrt_cf steps only to the middle of the period and mirrors the rest;
    a wrong a0 breaks the symmetry, and the one step past the middle
    catches it.  require_nonsquare uses exact.isqrt, so the patch reaches
    only the expansion."""

    @pytest.fixture(autouse=True)
    def wrong_root(self, monkeypatch):
        monkeypatch.setattr(contfrac, "isqrt", lambda v: math.isqrt(v) + 1)

    @pytest.mark.parametrize("d", [11, 28, 29, 31])
    def test_library_raises(self, d):
        with pytest.raises(ConsistencyError, match="not symmetric about its middle"):
            contfrac.sqrt_cf(d)

    def test_cli_exit_code_4(self, capsys):
        code = main(["cf", "--d", "11"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith("error: period of sqrt(11) is not symmetric")


class TestWitnessWalk:
    """The sequential walk serves the witness alone: verify catches a wrong
    walk, and solve never calls it."""

    def test_wrong_walk_fails_verify(self, monkeypatch, capsys):
        # Every index the stream is asked for reads its successor.
        real = solver._pairs
        monkeypatch.setattr(
            solver, "_pairs", lambda expansion, first=0, step=1: real(expansion, first + 1, step)
        )
        code = main(["verify", "--d-max", "13", "--n-max", "2"])
        captured = capsys.readouterr()
        assert code == 4
        assert "Redei value != convergent" in captured.err

    def test_verify_walks_once_per_radicand(self, monkeypatch):
        real = solver._pairs
        read = {}  # d -> the convergent indices read from each stream opened for it

        def counted(expansion, first=0, step=1):
            indices = []
            read.setdefault(expansion.d, []).append(indices)

            def stream():
                for k, pair in enumerate(real(expansion, first, step)):
                    indices.append(first + k * step)
                    yield pair

            return stream()

        monkeypatch.setattr(solver, "_pairs", counted)
        assert main(["verify", "--d-max", "60", "--n-max", "4"]) == 0
        assert sorted(read) == [d for d in range(2, 61) if math.isqrt(d) ** 2 != d]
        for d, opened in read.items():
            assert len(opened) == 1, f"d={d} opened {len(opened)} streams"
            assert opened[0] == [PellSolver(d).solution_index(n) for n in range(1, 5)]

    def test_solve_does_not_walk(self, monkeypatch, capsys):
        assert main(["solve", "--d", "61", "--n", "50", "--strategy", "redei"]) == 0
        expected = capsys.readouterr()

        def no_walk(expansion, first=0, step=1):
            raise AssertionError("solve walked the convergents")

        monkeypatch.setattr(solver, "_pairs", no_walk)
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
