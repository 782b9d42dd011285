"""Command-line front end: solve, cf, redei, bench, verify.

Each command is a generator of records of native values, {"d",
"params", "result"} plus "timings_ns" for bench.  main turns each value
into text in one place, _text (str() of each number, "INF" for INF, so
huge integers and exact rationals survive any JSON parser), and streams
the records, headed by "command", to one renderer: canonical JSON, one
object per line, or the command's own text layout.  Exit codes: 0
success, 2 usage error, 3 the radicand was a perfect square, 4 an
internal cross-check failed.

Each call builds only the subparser of the command it names first: the
other four were most of a small call's fixed cost.  Arguments, help and
error messages read the same as with the whole tree, which is built
when the first word is not a command.
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import sys
import time
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .contfrac import convergents, sqrt_cf
from .exact import (
    INF,
    ConsistencyError,
    PerfectSquareError,
    _brief,
    decimal_digits,
    is_perfect_square,
)
from .redei import redei_pair_fast
from .solver import PellSolution, PellSolver, Strategy

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


def _cmd_solve(args: argparse.Namespace) -> Iterator[dict]:
    solution = PellSolver(args.d).nth_solution(args.n, Strategy(args.strategy))
    yield {
        "d": args.d,
        "params": {"n": args.n, "strategy": args.strategy},
        "result": {"x": solution.x, "y": solution.y},
    }


def _cmd_cf(args: argparse.Namespace) -> Iterator[dict]:
    expansion = sqrt_cf(args.d)
    head = itertools.islice(convergents(expansion), args.terms)
    yield {
        "d": args.d,
        "params": {"terms": args.terms},
        "result": {
            "a0": expansion.a0,
            "period": expansion.period,
            "period_length": expansion.period_length,
            "convergents": [{"k": c.k, "p": c.p, "q": c.q} for c in head],
        },
    }


def _cmd_redei(args: argparse.Namespace) -> Iterator[dict]:
    pair = redei_pair_fast(args.d, args.z, args.n)
    yield {
        "d": args.d,
        "params": {"z": args.z, "n": args.n},
        "result": {"N": pair.num, "D": pair.den, "Q": pair.ratio},
    }


def _median_time_ns(run: Callable[[], PellSolution], reps: int) -> tuple[PellSolution, int]:
    samples = []
    for _ in range(reps):
        start = time.perf_counter_ns()
        out = run()
        samples.append(time.perf_counter_ns() - start)
    return out, statistics.median_low(samples)


def _cmd_bench(args: argparse.Namespace) -> Iterator[dict]:
    solver = PellSolver(args.d)
    solver.fundamental  # pull the continued-fraction work out of the timed region
    n = args.n_max
    linear, linear_ns = _median_time_ns(
        lambda: next(itertools.islice(solver.solutions(), n - 1, None)), args.reps
    )
    # The redei and power strategies run this same kernel call.
    redei, redei_ns = _median_time_ns(lambda: solver.nth_solution(n, Strategy.REDEI), args.reps)
    if linear != redei:
        raise ConsistencyError(
            f"strategies disagree at d={args.d}, n={n}: linear=({_brief(linear.x)}, "
            f"{_brief(linear.y)}), redei=({_brief(redei.x)}, {_brief(redei.y)})"
        )
    x, y = linear.x, linear.y
    yield {
        "d": args.d,
        "params": {"n_max": n, "reps": args.reps},
        "result": {"x_digits": decimal_digits(x), "y_digits": decimal_digits(y), "agree": "true"},
        "timings_ns": {"linear": linear_ns, "redei": redei_ns},
    }


def _cmd_verify(args: argparse.Namespace) -> Iterator[dict]:
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
        yield {
            "d": d,
            "params": {"n_max": args.n_max},
            "result": {
                "period_length": report.period_length,
                "parity": report.parity,
                "checked": args.n_max,
                "equal": "true",
            },
        }


def _text(value: object) -> object:
    """A record value as output text, in either format: str() of each number, "INF" for INF."""
    if isinstance(value, dict):
        return {key: _text(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_text(item) for item in value]
    return "INF" if value is INF else str(value)


def _formatted(command: str, records: Iterable[dict]) -> Iterator[dict]:
    for record in records:
        yield _text({"command": command, **record})


def _render_json(records: Iterable[dict]) -> None:
    for record in records:
        print(json.dumps(record, separators=(",", ":")))


def _render_assignments(records: Iterable[dict]) -> None:
    for record in records:
        for key, value in record["result"].items():
            print(f"{key} = {value}")


def _render_cf(records: Iterable[dict]) -> None:
    for record in records:
        result = record["result"]
        print(f"a0 = {result['a0']}")
        print(f"period = [{', '.join(result['period'])}]")
        print(f"L = {result['period_length']}")
        for c in result["convergents"]:
            print(f"convergent {c['k']}: {c['p']}/{c['q']}")


def _render_bench(records: Iterable[dict]) -> None:
    for record in records:
        result = record["result"]
        print(f"x digits = {result['x_digits']}")
        print(f"y digits = {result['y_digits']}")
        print("agreement: ok")
        for name, ns in record["timings_ns"].items():
            print(f"{name} median: {ns} ns")


def _render_verify(records: Iterable[dict]) -> None:
    checked = 0
    for checked, record in enumerate(records, 1):
        r = record["result"]
        print(
            f"d = {record['d']}: L = {r['period_length']} ({r['parity']}), n = 1..{r['checked']} ok"
        )
    print(f"checked {checked} radicands, all consistent")


_FORMAT = ("--format", {"choices": ("text", "json"), "default": "text"})

# name -> (help, record builder, text renderer, arguments besides --format)
_COMMANDS: dict[str, tuple[str, Callable, Callable, tuple]] = {
    "solve": (
        "n-th positive solution for radicand d",
        _cmd_solve,
        _render_assignments,
        (
            ("--d", {"type": _int_at_least(1), "required": True}),
            ("--n", {"type": _int_at_least(1), "default": 1}),
            ("--strategy", {"choices": tuple(s.value for s in Strategy), "default": "redei"}),
        ),
    ),
    "cf": (
        "continued fraction of sqrt(d) and convergents",
        _cmd_cf,
        _render_cf,
        (
            ("--d", {"type": _int_at_least(1), "required": True}),
            ("--terms", {"type": _int_at_least(0), "default": 0}),
        ),
    ),
    "redei": (
        "Redei pair and rational value at (d, z, n)",
        _cmd_redei,
        _render_assignments,
        (
            ("--d", {"type": _int_at_least(1), "required": True}),
            ("--z", {"type": _rational, "required": True}),
            ("--n", {"type": _int_at_least(0), "required": True}),
        ),
    ),
    "bench": (
        "time the linear fold against the Redei kernel for the n-max-th solution",
        _cmd_bench,
        _render_bench,
        (
            ("--d", {"type": _int_at_least(1), "required": True}),
            ("--n-max", {"type": _int_at_least(1), "required": True}),
            ("--reps", {"type": _int_at_least(1), "default": 3}),
        ),
    ),
    "verify": (
        "check Redei values against convergents over a d range",
        _cmd_verify,
        _render_verify,
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
    for name, (help_text, _, _, arguments) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            for flag, options in (*arguments, _FORMAT):
                p.add_argument(flag, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # A call names its command first; argv that does not (help, usage
    # errors) gets the whole tree.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(command).parse_args(argv)
    _, build, render_text, _ = _COMMANDS[args.command]
    render = _render_json if args.format == "json" else render_text
    try:
        render(_formatted(args.command, build(args)))
    except PerfectSquareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0
