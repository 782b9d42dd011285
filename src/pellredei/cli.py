"""Command-line front end: solve, cf, redei, bench, verify.

Output is either human-readable text or canonical JSON, one object per
line with the shape

    {"command": ..., "d": ..., "params": {...}, "result": {...}}

plus a "timings_ns" object for bench.  Every numeric leaf is a decimal
string so arbitrarily large integers and exact rationals survive any
JSON parser untouched.  Exit codes: 0 success, 2 usage error, 3 the
radicand was a perfect square, 4 an internal cross-check failed.

Each call builds its argument parser, and builds only the subparser of
the command it names first: the other four were most of a small call's
fixed cost.  Arguments, help and error messages read the same as with
the whole tree, which is built when the first word is not a command.
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import sys
import time
from fractions import Fraction
from typing import Callable

from .contfrac import convergents
from .exact import INF, PerfectSquareError, _brief, decimal_digits, is_perfect_square
from .redei import redei_pair_fast
from .solver import ConsistencyError, PellSolver, Strategy

__all__ = ["main"]


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an integer no smaller than low."""
    bound = "nonnegative" if low == 0 else f"at least {low}"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


def _emit(command: str, d: int, params: dict, result: dict, timings: dict | None = None) -> None:
    record: dict = {"command": command, "d": str(d), "params": params, "result": result}
    if timings is not None:
        record["timings_ns"] = {name: str(ns) for name, ns in timings.items()}
    print(json.dumps(record, separators=(",", ":")))


def _cmd_solve(args: argparse.Namespace) -> None:
    strategy = Strategy(args.strategy)
    solution = PellSolver(args.d).nth_solution(args.n, strategy)
    if args.format == "json":
        _emit(
            "solve",
            args.d,
            {"n": str(args.n), "strategy": strategy.value},
            {"x": str(solution.x), "y": str(solution.y)},
        )
    else:
        print(f"x = {solution.x}")
        print(f"y = {solution.y}")


def _cmd_cf(args: argparse.Namespace) -> None:
    solver = PellSolver(args.d)
    expansion = solver.expansion
    head = list(itertools.islice(convergents(expansion), args.terms))
    if args.format == "json":
        _emit(
            "cf",
            args.d,
            {"terms": str(args.terms)},
            {
                "a0": str(expansion.a0),
                "period": [str(a) for a in expansion.period],
                "period_length": str(expansion.period_length),
                "convergents": [
                    {"k": str(c.k), "p": str(c.p), "q": str(c.q)} for c in head
                ],
            },
        )
    else:
        print(f"a0 = {expansion.a0}")
        print(f"period = {list(expansion.period)}")
        print(f"L = {expansion.period_length}")
        for c in head:
            print(f"convergent {c.k}: {c.p}/{c.q}")


def _cmd_redei(args: argparse.Namespace) -> None:
    pair = redei_pair_fast(args.d, args.z, args.n)
    ratio = pair.ratio
    q_text = "INF" if ratio is INF else str(ratio)
    if args.format == "json":
        _emit(
            "redei",
            args.d,
            {"z": str(args.z), "n": str(args.n)},
            {"N": str(pair.num), "D": str(pair.den), "Q": q_text},
        )
    else:
        print(f"N = {pair.num}")
        print(f"D = {pair.den}")
        print(f"Q = {q_text}")


def _median_time_ns(run: Callable[[], tuple[int, int]], reps: int) -> tuple[tuple[int, int], int]:
    samples = []
    out = (0, 0)
    for _ in range(reps):
        start = time.perf_counter_ns()
        out = run()
        samples.append(time.perf_counter_ns() - start)
    return out, statistics.median_low(samples)


def _cmd_bench(args: argparse.Namespace) -> None:
    solver = PellSolver(args.d)
    solver.fundamental  # pull the continued-fraction work out of the timed region
    n = args.n_max

    def linear() -> tuple[int, int]:
        sol = next(itertools.islice(solver.solutions(), n - 1, None))
        return sol.x, sol.y

    def power() -> tuple[int, int]:
        sol = solver.nth_solution(n, Strategy.POWER)
        return sol.x, sol.y

    def redei() -> tuple[int, int]:
        sol = solver.nth_solution(n, Strategy.REDEI)
        return sol.x, sol.y

    outputs: dict[str, tuple[int, int]] = {}
    timings: dict[str, int] = {}
    for name, run in (("linear", linear), ("power", power), ("redei", redei)):
        outputs[name], timings[name] = _median_time_ns(run, args.reps)
    if len(set(outputs.values())) != 1:
        raise ConsistencyError(
            f"strategies disagree at d={args.d}, n={n}: "
            + ", ".join(f"{name}=({_brief(x)}, {_brief(y)})" for name, (x, y) in outputs.items())
        )
    x, y = outputs["linear"]
    if args.format == "json":
        _emit(
            "bench",
            args.d,
            {"n_max": str(n), "reps": str(args.reps)},
            {"x_digits": str(decimal_digits(x)), "y_digits": str(decimal_digits(y)), "agree": "true"},
            timings,
        )
    else:
        print(f"x digits = {decimal_digits(x)}")
        print(f"y digits = {decimal_digits(y)}")
        print("agreement: ok")
        for name, ns in timings.items():
            print(f"{name} median: {ns} ns")


def _cmd_verify(args: argparse.Namespace) -> None:
    checked = 0
    for d in range(2, args.d_max + 1):
        if is_perfect_square(d):
            continue
        solver = PellSolver(d)
        for n in range(1, args.n_max + 1):
            report = solver.correspondence_check(n)
            if not report.equal:
                raise ConsistencyError(
                    f"Redei value != convergent at d={d}, n={n}: "
                    f"{_brief(report.redei_value)} vs {_brief(report.convergent_value)}"
                )
        checked += 1
        parity = "even" if solver.period_length % 2 == 0 else "odd"
        if args.format == "json":
            _emit(
                "verify",
                d,
                {"n_max": str(args.n_max)},
                {
                    "period_length": str(solver.period_length),
                    "parity": parity,
                    "checked": str(args.n_max),
                    "equal": "true",
                },
            )
        else:
            print(f"d = {d}: L = {solver.period_length} ({parity}), n = 1..{args.n_max} ok")
    if args.format == "text":
        print(f"checked {checked} radicands, all consistent")


_FORMAT = ("--format", {"choices": ("text", "json"), "default": "text"})

# name -> (help, handler, arguments besides --format)
_COMMANDS: dict[str, tuple[str, Callable[[argparse.Namespace], None], tuple]] = {
    "solve": (
        "n-th positive solution for radicand d",
        _cmd_solve,
        (
            ("--d", {"type": _int_at_least(1), "required": True}),
            ("--n", {"type": _int_at_least(1), "default": 1}),
            ("--strategy", {"choices": tuple(s.value for s in Strategy), "default": "redei"}),
        ),
    ),
    "cf": (
        "continued fraction of sqrt(d) and convergents",
        _cmd_cf,
        (
            ("--d", {"type": _int_at_least(1), "required": True}),
            ("--terms", {"type": _int_at_least(0), "default": 0}),
        ),
    ),
    "redei": (
        "Redei pair and rational value at (d, z, n)",
        _cmd_redei,
        (
            ("--d", {"type": _int_at_least(1), "required": True}),
            ("--z", {"type": _rational, "required": True}),
            ("--n", {"type": _int_at_least(0), "required": True}),
        ),
    ),
    "bench": (
        "time the three strategies for the n-max-th solution",
        _cmd_bench,
        (
            ("--d", {"type": _int_at_least(1), "required": True}),
            ("--n-max", {"type": _int_at_least(1), "required": True}),
            ("--reps", {"type": _int_at_least(1), "default": 3}),
        ),
    ),
    "verify": (
        "check Redei values against convergents over a d range",
        _cmd_verify,
        (
            ("--d-max", {"type": _int_at_least(1), "default": 100}),
            ("--n-max", {"type": _int_at_least(1), "default": 10}),
        ),
    ),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser: the whole tree, or given a command only its subparser.

    The subcommand list is spelled out as the metavar, so the top-level
    usage line still names every command when only one is built.
    """
    parser = argparse.ArgumentParser(
        prog="pellredei",
        description="Exact solutions of x^2 - d*y^2 = 1 and the algebra behind them.",
    )
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}",
    )
    for name, (help_text, handler, arguments) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            for flag, options in (*arguments, _FORMAT):
                p.add_argument(flag, **options)
            p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # A call names its command first; argv that does not (help, usage
    # errors) gets the whole tree.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    try:
        args.func(args)
    except PerfectSquareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0
