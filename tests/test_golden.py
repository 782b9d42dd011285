"""CLI output is byte-identical to the frozen copy of the package.

benchmark/frozen/pellredei is the package as it stood when the benchmark
was written.  Each side runs cli.main over the same argv list in its own
child process, so neither import can shadow the other, and prints the
stdout, the stderr and the exit code of every call.  bench is left out
because it prints timings, and every output stays below CPython's
4300-digit int-to-str limit.

Two lists are compared: a fixed one, and a seeded draw of a few hundred
calls over solve, cf, redei and verify that mixes good values with
refused ones and both spellings, --flag=value and --flag value.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from oracles import brute_is_square, pell_by_convergent_scan
from test_cli import ROUTE_TOKENS

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import contextlib, io, json, sys
import pellredei
from pellredei import cli

results = [pellredei.__file__]
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([argv, code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def _argvs() -> list[list[str]]:
    radicands = ("2", "13", "61", "1000003")
    cases = []
    for d, strategy, n in itertools.product(radicands, ("cf", "power", "redei"), ("1", "2", "7")):
        cases.append(["solve", "--d", d, "--n", n, "--strategy", strategy])
    for d in radicands:
        cases.append(["cf", "--d", d])
        cases.append(["cf", "--d", d, "--terms", "12"])
    cases += [
        ["redei", "--d", "13", "--z", "3/2", "--n", "5"],
        ["redei", "--d", "2", "--z", "-7/3", "--n", "8"],
        ["redei", "--d", "2", "--z", "2", "--n", "0"],
        ["verify", "--d-max", "30", "--n-max", "3"],
        ["solve", "--d", "4"],
        ["cf", "--d", "9"],
        ["solve", "--d", "0"],
        ["redei", "--d", "2", "--z", "abc", "--n", "1"],
    ]
    return [argv + ["--format", fmt] for argv in cases for fmt in ("text", "json")]


def _run(package_root: Path, argvs: list[list[str]]) -> list:
    env = dict(os.environ, PYTHONPATH=str(package_root))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD],
        input=json.dumps(argvs),
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        check=True,
    )
    package_file, *results = json.loads(proc.stdout)
    assert Path(package_file).is_relative_to(package_root)
    return results


def test_cli_output_matches_the_frozen_package():
    argvs = _argvs()
    ours = _run(ROOT / "src", argvs)
    frozen = _run(ROOT / "benchmark" / "frozen", argvs)
    assert {code for _, code, _, _ in ours} == {0, 2, 3}
    assert all(out for _, code, out, _ in ours if code == 0)
    assert all(err for _, code, _, err in ours if code != 0)
    for mine, theirs in zip(ours, frozen, strict=True):
        assert mine == theirs


# Values the CLI refuses, or reads in a way that is easy to get wrong: every
# route token, and an empty, negative, scientific, zero-denominator and
# decimal value.
REFUSED = [*ROUTE_TOKENS, "", "-1", "1e5", "3/0", "2.5"]

# Each output digit count is held to this, below the 4300-digit int-to-str limit.
DIGITS = 4000


def _digits_bound(base: int) -> int:
    """Decimal digits of base, rounded up: n of them bound the digits of base**n."""
    return math.ceil(math.log10(base + 1))


# Calls that depart from the frozen copy on purpose, each a usage error (exit 2)
# here: a --z exponent past the int-to-str limit, where the frozen copy
# computes the power of ten, and a value spelled --flag=--, which argparse
# before 3.13 reads as no value and passes on untyped, so that the frozen
# copy raises a TypeError.
DEPARTURES = [["redei", "--d", "2", "--z", "1e5000", "--n", "1"], ["solve", "--d=--"]]


def _options(rng: random.Random, command: str) -> list[tuple[str, object]]:
    """Good (flag, value) pairs for command, every output within DIGITS digits."""
    d = rng.randint(1, 3000)
    if command == "solve":
        # x_n < (2*x1)**n, so n digits of 2*x1 bound the digits of x_n.
        x1 = 1 if brute_is_square(d) else pell_by_convergent_scan(d)[1]
        n = rng.randint(1, min(40, DIGITS // _digits_bound(2 * x1)))
        options = [("--d", d), ("--n", n), ("--strategy", rng.choice(("cf", "power", "redei")))]
    elif command == "cf":
        # Every quotient is at most 2*isqrt(d), so p_k < (2*isqrt(d) + 1)**(k + 1),
        # below 130 digits here.
        options = [("--d", d), ("--terms", rng.randint(0, 60))]
    elif command == "redei":
        u, v = rng.randint(-60, 60), rng.randint(1, 12)
        z = str(u) if v == 1 else f"{u}/{v}"
        # (u/v + sqrt(d))**n clears to integers below (|u| + v*(isqrt(d) + 1))**n.
        bound = _digits_bound(abs(u) + v * (math.isqrt(d) + 1))
        options = [("--d", d), ("--z", z), ("--n", rng.randint(0, min(60, DIGITS // bound)))]
    else:
        options = [("--d-max", rng.randint(1, 25)), ("--n-max", rng.randint(1, 6))]
    return options + [("--format", rng.choice(("text", "json")))]


def _draw(rng: random.Random) -> tuple[list[str], bool]:
    """One drawn argv, and whether it departs from the frozen copy on purpose.

    Options may be missing, refused, repeated with another good value (the
    last one wins) or joined by a stray token.  The known departures are
    those of DEPARTURES.
    """
    command = rng.choice(("solve", "cf", "redei", "verify"))
    options = _options(rng, command)
    if rng.random() < 0.15:
        options.append(rng.choice(_options(rng, command)))
    argv, departs = [command], False
    for flag, value in options:
        roll = rng.random()
        if roll < 0.08:
            continue  # a missing option: a required one is refused
        if roll < 0.2:
            value = rng.choice(REFUSED)
            departs = departs or (flag == "--z" and value == "1e5000")
        if rng.random() < 0.5:
            argv.append(f"{flag}={value}")
            departs = departs or value == "--"
        else:
            argv += [flag, str(value)]
    if rng.random() < 0.05:
        argv.insert(rng.randint(1, len(argv)), rng.choice(REFUSED))
    return argv, departs


def test_drawn_calls_match_the_frozen_package():
    """400 drawn calls, byte for byte.  Under CPython 3.11 on a 2-vCPU VM the
    src/ child takes about 0.2 s and the frozen one about 1 s, as the frozen
    verify walks from index 0 for each n."""
    rng = random.Random(2026)
    draws = [_draw(rng) for _ in range(400)]
    argvs = [argv for argv, departs in draws if not departs]
    departures = DEPARTURES + [argv for argv, departs in draws if departs]
    ours = _run(ROOT / "src", argvs + departures)
    frozen = _run(ROOT / "benchmark" / "frozen", argvs)
    assert {code for _, code, _, _ in ours} >= {0, 2, 3}
    for mine, theirs in zip(ours[: len(argvs)], frozen, strict=True):
        assert mine == theirs
    for argv, code, out, err in ours[len(argvs):]:
        assert (code, out) == (2, "") and err.startswith("usage: "), argv
