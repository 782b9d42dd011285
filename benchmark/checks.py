"""Check every answer against the independent reference.

A library answer is a PellSolution; a CLI answer is the captured stdout,
parsed in either output format without converting big decimals through
int() in one piece.  Any mismatch, and any output that does not parse,
raises WrongAnswer.
"""

from __future__ import annotations

import json
import math

import reference
from reference import PRIME, parse_fraction, parse_int
from workloads import Request


class WrongAnswer(Exception):
    """The program returned an answer that is not the right one."""


def check(req: Request, answer: object, ref: reference.Reference) -> int:
    """Raise WrongAnswer unless the answer is right.

    Returns bit_length(x) + bit_length(y) for a solve answer, else 0.
    """
    try:
        if req.argv is None:
            sol = answer
            if (sol.d, sol.n) != (req.args["d"], req.args["n"]):
                raise WrongAnswer(f"answered d={sol.d}, n={sol.n}")
            return _solution_bits(req.args, sol.x, sol.y, ref)
        return _CLI[req.cmd](req.args, answer, ref)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise WrongAnswer(f"unparsable answer: {exc}") from exc


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


def _solution_bits(args: dict, x: int, y: int, ref: reference.Reference) -> int:
    d, n = args["d"], args["n"]
    _expect(x > 0 and y > 0 and x * x - d * y * y == 1, f"not a positive solution for d={d}")
    _expect((x % PRIME, y % PRIME) == ref.radicand(d).solution_mod(n), f"not solution {n} for d={d}")
    return x.bit_length() + y.bit_length()


def _record(out: str, cmd: str, args: dict, params: dict) -> dict:
    lines = out.splitlines()
    _expect(len(lines) == 1, f"{len(lines)} JSON lines")
    rec = json.loads(lines[0])
    _expect(rec["command"] == cmd and rec["d"] == str(args["d"]) and rec["params"] == params, "record header")
    return rec["result"]


def _fields(out: str, keys: tuple[str, ...]) -> list[str]:
    """Values of 'key = value' lines, which must come in exactly this order."""
    lines = out.splitlines()
    _expect(len(lines) == len(keys), f"{len(lines)} text lines")
    values = []
    for key, line in zip(keys, lines):
        name, sep, value = line.partition(" = ")
        _expect(name == key and sep != "", f"line {line[:40]!r}")
        values.append(value)
    return values


def _solve(args: dict, out: str, ref: reference.Reference) -> int:
    if args["format"] == "json":
        params = {"n": str(args["n"]), "strategy": args["strategy"]}
        result = _record(out, "solve", args, params)
        _expect(set(result) == {"x", "y"}, "solve result keys")
        x_text, y_text = result["x"], result["y"]
    else:
        x_text, y_text = _fields(out, ("x", "y"))
    return _solution_bits(args, parse_int(x_text), parse_int(y_text), ref)


def _cf(args: dict, out: str, ref: reference.Reference) -> int:
    a0, terms = reference.period(args["d"])
    heads = [reference.convergent(a0, terms, k) for k in range(args["terms"])]
    if args["format"] == "json":
        result = _record(out, "cf", args, {"terms": str(args["terms"])})
        _expect(
            result
            == {
                "a0": str(a0),
                "period": [str(a) for a in terms],
                "period_length": str(len(terms)),
                "convergents": [{"k": str(k), "p": str(p), "q": str(q)} for k, (p, q) in enumerate(heads)],
            },
            f"cf result for d={args['d']}",
        )
    else:
        expected = [f"a0 = {a0}", f"period = {list(terms)}", f"L = {len(terms)}"]
        expected += [f"convergent {k}: {p}/{q}" for k, (p, q) in enumerate(heads)]
        _expect(out.splitlines() == expected, f"cf text for d={args['d']}")
    return 0


def _redei(args: dict, out: str, ref: reference.Reference) -> int:
    num, den = reference.redei_pair(args["d"], args["z"], args["n"])
    if args["format"] == "json":
        result = _record(out, "redei", args, {"z": str(args["z"]), "n": str(args["n"])})
        _expect(set(result) == {"N", "D", "Q"}, "redei result keys")
        n_text, d_text, q_text = result["N"], result["D"], result["Q"]
    else:
        n_text, d_text, q_text = _fields(out, ("N", "D", "Q"))
    _expect(parse_fraction(n_text) == num and parse_fraction(d_text) == den, "redei pair")
    _expect(q_text == "INF" if den == 0 else parse_fraction(q_text) == num / den, "redei value")
    return 0


def _verify(args: dict, out: str, ref: reference.Reference) -> int:
    n_max = args["n_max"]
    rows = []
    for d in range(2, args["d_max"] + 1):
        if math.isqrt(d) ** 2 != d:
            length = ref.radicand(d).period_length
            rows.append((d, length, "even" if length % 2 == 0 else "odd"))
    if args["format"] == "json":
        expected = [
            {
                "command": "verify",
                "d": str(d),
                "params": {"n_max": str(n_max)},
                "result": {"period_length": str(length), "parity": parity, "checked": str(n_max), "equal": "true"},
            }
            for d, length, parity in rows
        ]
        _expect([json.loads(line) for line in out.splitlines()] == expected, "verify records")
    else:
        expected = [f"d = {d}: L = {length} ({parity}), n = 1..{n_max} ok" for d, length, parity in rows]
        expected.append(f"checked {len(rows)} radicands, all consistent")
        _expect(out.splitlines() == expected, "verify text")
    return 0


_CLI = {"solve": _solve, "cf": _cf, "redei": _redei, "verify": _verify}
