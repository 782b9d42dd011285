"""Command-line front end: solve, cf, redei, bench, verify.

Each command is a generator of records of native values, {"d",
"params", "result"} plus "timings_ns" for bench.  main streams the
records as they are to one renderer: canonical JSON, one object per line
headed by "command", or the command's own text layout.  Exit codes: 0
success, 2 usage error, 3 the radicand was a perfect square, 4 an
internal cross-check failed.

A record goes to its output text in one pass, and a number becomes text
only there.  Every number of a JSON record, and in text every number of
an answer (solve's x and y, redei's N, D and Q, cf's convergents), goes
through _str: the bytes of str() ("INF" for INF), each int by
exact._decimal_text, which is str() below 4500 bits and a subquadratic
split above.  The rest of the text, counts, indices and cf's partial
quotients (at most 2*sqrt(d)), is formatted by f-strings.  Numbers are
quoted in JSON, so huge integers and exact rationals survive any JSON
parser.  _json writes a record's JSON in one recursive walk that
dispatches on the exact type of each value; an int leaf takes one call,
exact._decimal_text, and a str leaf of a dict none.  Each text renderer
formats the record with f-strings, builds its whole text and prints it
once, so a number past the int-to-str digit limit raises before any of
the record's lines print.  solve's one record comes from solver._solution,
verify's from solver._verify_records and cf's convergents from the
plain pairs of contfrac._pairs: lean passes that build no solver,
solution, report or Convergent object.

A well-formed call is parsed from the command table, _OPTIONS, built
from _COMMANDS and _FORMAT: argv names a command, and every later token
is an exact --flag=value, or an exact --flag and a value that does not
start with "-".  Each value passes the option's type and choices, as
argparse applies them, in order, the last repeat winning; defaults fill
in the rest.  Anything else -- help, an abbreviation, "--", an unknown or
missing option, a value starting with "-", a refused value -- goes to
argparse, built on the first such call and shared after it, so argparse
words every help text, usage error and exit code.  A well-formed call
neither imports argparse nor builds a parser.
"""

from __future__ import annotations

import functools
import itertools
import re
import sys
import time
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from types import SimpleNamespace

from .contfrac import _pairs, sqrt_cf
from .exact import ConsistencyError, PerfectSquareError, _brief, _decimal_text, decimal_digits
from .redei import redei_pair_fast
from .solver import PellSolution, PellSolver, Strategy, _solution, _verify_records

__all__ = ["main"]


def _refusal(message: str) -> Exception:
    """An argparse type's refusal of a value, which argparse words as the option's error."""
    from argparse import ArgumentTypeError

    return ArgumentTypeError(message)


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an integer no smaller than low."""
    bound = "nonnegative" if low == 0 else f"at least {low}"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise _refusal(f"not an integer: {text!r}") from None
        if value < low:
            raise _refusal(f"must be {bound}, got {value}")
        return value

    return parse


def _rational(text: str) -> Fraction:
    # Fraction computes 10**exponent unbounded ("1e999999999" runs for hours).
    # An exponent stands for that many digits, so it is held to the digit
    # limit int() puts on --d and --n (none when 0 or before Python 3.10.7).
    # Only a text with an e or E is searched; compiling the pattern at import
    # would cost every call of the CLI about 0.1 ms.
    limit = getattr(sys, "get_int_max_str_digits", int)()
    try:
        exponent = ("e" in text or "E" in text) and re.search(
            r"e([-+]?\d+(?:_\d+)*)\s*\Z", text, re.IGNORECASE
        )
        if exponent and limit and abs(int(exponent[1])) > limit:
            Fraction(text[: exponent.start(1)] + "0")  # the rest must still read as a number
            raise _refusal(f"exponent past the {limit}-digit int-to-str limit: {text!r}")
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _refusal(f"not a rational number: {text!r}") from None


def _cmd_solve(args: SimpleNamespace) -> Iterator[dict]:
    x, y = _solution(args.d, args.n)
    yield {
        "d": args.d,
        "params": {"n": args.n, "strategy": args.strategy},
        "result": {"x": x, "y": y},
    }


def _cmd_cf(args: SimpleNamespace) -> Iterator[dict]:
    expansion = sqrt_cf(args.d)
    head = itertools.islice(_pairs(expansion), args.terms)
    yield {
        "d": args.d,
        "params": {"terms": args.terms},
        "result": {
            "a0": expansion.a0,
            "period": expansion.period,
            "period_length": expansion.period_length,
            "convergents": [{"k": k, "p": p, "q": q} for k, (p, q) in enumerate(head)],
        },
    }


def _cmd_redei(args: SimpleNamespace) -> Iterator[dict]:
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
    return out, sorted(samples)[(reps - 1) // 2]


def _cmd_bench(args: SimpleNamespace) -> Iterator[dict]:
    solver = PellSolver(args.d)
    solver.fundamental  # pull the continued-fraction work out of the timed region
    n = args.n_max

    def linear_fold() -> PellSolution:
        x, y = next(itertools.islice(solver._fold(), n - 1, None))
        return solver._checked(n, x, y, "the linear fold")

    # Both sides test their one answer once, inside the timed region: the
    # fold's by the exact check, the power's by its half power's norm.
    linear, linear_ns = _median_time_ns(linear_fold, args.reps)
    # Every strategy runs this same kernel call.
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


def _cmd_verify(args: SimpleNamespace) -> Iterator[dict]:
    return _verify_records(args.d_max, args.n_max)


def _str(value: object) -> str:
    """str(value), each int in it by exact._decimal_text."""
    kind = type(value)
    if kind is int:
        return _decimal_text(value)
    if kind is Fraction:
        num = _decimal_text(value.numerator)
        return num if value.denominator == 1 else f"{num}/{_decimal_text(value.denominator)}"
    return str(value)


def _json(value: object) -> str:
    """value as compact JSON, each leaf the quoted _str() of the value.

    An int leaf goes straight to exact._decimal_text, and a str leaf of a
    dict (all of verify's) is written as it is, with no call of its own.
    No escape is needed: a record holds only dicts, lists, tuples, strs,
    ints, Fractions and INF.  A number's text is digits, "-" and "/", and
    every str is a fixed key, a number's text, an option's choice or one
    of the words odd, even and true.
    """
    kind = type(value)
    if kind is dict:
        return "{" + ",".join([
            f'"{key}":"{item}"' if type(item) is str else f'"{key}":{_json(item)}'
            for key, item in value.items()
        ]) + "}"
    if kind is list or kind is tuple:
        return "[" + ",".join(map(_json, value)) + "]"
    return f'"{_decimal_text(value) if kind is int else _str(value)}"'


def _render_json(records: Iterable[dict], command: str) -> None:
    head = f'{{"command":"{command}",'
    for record in records:
        print(head + _json(record)[1:])


def _render_assignments(records: Iterable[dict]) -> None:
    for record in records:
        print("\n".join([f"{key} = {_str(value)}" for key, value in record["result"].items()]))


def _render_cf(records: Iterable[dict]) -> None:
    for record in records:
        result = record["result"]
        lines = [
            f"a0 = {result['a0']}",
            f"period = [{', '.join(map(str, result['period']))}]",
            f"L = {result['period_length']}",
        ]
        lines += [
            f"convergent {c['k']}: {_str(c['p'])}/{_str(c['q'])}" for c in result["convergents"]
        ]
        print("\n".join(lines))


def _render_bench(records: Iterable[dict]) -> None:
    for record in records:
        result = record["result"]
        lines = [
            f"x digits = {result['x_digits']}",
            f"y digits = {result['y_digits']}",
            "agreement: ok",
        ]
        lines += [f"{name} median: {ns} ns" for name, ns in record["timings_ns"].items()]
        print("\n".join(lines))


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


# command -> {flag: (dest, type, choices, default, required)}: what argparse
# takes from each option in _COMMANDS and _FORMAT, in the order it adds them
_OPTIONS = {
    name: {
        flag: (
            flag[2:].replace("-", "_"),
            options.get("type"),
            options.get("choices"),
            options.get("default"),
            options.get("required", False),
        )
        for flag, options in (*arguments, _FORMAT)
    }
    for name, (_, _, _, arguments) in _COMMANDS.items()
}


def _read(argv: list[str]) -> dict | None:
    """argv's values as argparse would parse them, read from _OPTIONS, or None
    when argv is not a well-formed call (see the module docstring)."""
    options = _OPTIONS.get(argv[0]) if argv else None
    if options is None:
        return None
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in options:
            return None
        if not eq:
            value = next(tokens, "-")  # a missing value is refused as one starting with "-"
            if value.startswith("-"):
                return None
        _, kind, choices, _, _ = options[flag]
        if kind is not None:
            try:
                value = kind(value)
            except Exception:  # argparse reads argv again and words the refusal
                return None
        if choices is not None and value not in choices:
            return None
        given[flag] = value
    values = {"command": argv[0]}
    for flag, (dest, _, _, default, required) in options.items():
        if flag in given:
            values[dest] = given[flag]
        elif required:
            return None
        else:
            values[dest] = default
    return values


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built from _COMMANDS on the first call and shared after it."""
    import argparse  # only a call the table route cannot read pays for it

    parser = argparse.ArgumentParser(
        prog="pellredei",
        description="Exact solutions of x^2 - d*y^2 = 1 and the algebra behind them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, options in (*arguments, _FORMAT):
            p.add_argument(flag, **options)
    return parser


def _parse(argv: list[str]) -> SimpleNamespace:
    """argv parsed as argparse would, from the command table when it is well formed."""
    values = _read(argv)
    if values is None:
        parser = _build_parser()
        values = vars(parser.parse_args(argv))
        for flag, (dest, *_) in _OPTIONS[values["command"]].items():
            if values[dest] == []:
                # argparse before 3.13 reads --flag=-- as no value and skips the
                # type; refused here as argparse refuses a flag with no value.
                parser.parse_args([values["command"], flag])
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    _, build, render_text, _ = _COMMANDS[args.command]
    try:
        if args.format == "json":
            _render_json(build(args), args.command)
        else:
            render_text(build(args))
    except PerfectSquareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0
