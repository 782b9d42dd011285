"""Seeded request streams for the three workloads.

Each workload is an endless stream of blocks.  A block is stratified: it
holds one draw from each stratum of the property that sets a request's
cost (output size, period length, n), in shuffled order.  A run ends on a
block boundary, so every run sees the same cost profile whatever the seed,
and run-to-run spread comes from the program rather than from the draw.

The program sees only the generated ints (library workloads) or argv
(cli-mix).  Everything needed to draw them comes from reference.py.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import reference

WORKLOADS = ("deep-n", "long-period", "cli-mix")


@dataclass(frozen=True)
class Request:
    """One request: a library call when argv is None, else a CLI call."""

    cmd: str
    args: dict
    argv: tuple[str, ...] | None = None


def _nonsquare(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        d = rng.randint(lo, hi)
        if math.isqrt(d) ** 2 != d:
            return d


def _stratum(lo: float, hi: float, stratum: int, strata: int) -> tuple[float, float]:
    """Bounds of stratum `stratum` when [lo, hi] is split evenly in log scale."""
    ratio = (hi / lo) ** (1 / strata)
    return lo * ratio**stratum, lo * ratio ** (stratum + 1)


def _log_uniform(rng: random.Random, lo: float, hi: float, stratum: int, strata: int) -> float:
    """A log-uniform draw from one stratum of [lo, hi]."""
    a, b = _stratum(lo, hi, stratum, strata)
    return math.exp(rng.uniform(math.log(a), math.log(b)))


def _shuffled(rng: random.Random, items: list) -> list:
    rng.shuffle(items)
    return items


# deep-n: d <= 1000, output size log-uniform in [2**12, 2**18] bits,
# ten size strata crossed with the two logarithmic strategies.
DEEP_N_STRATA = 10


def _deep_n_block(rng: random.Random, x1_bits: Callable[[int], int]) -> list[Request]:
    orders = {s: _shuffled(rng, list(range(DEEP_N_STRATA))) for s in ("redei", "power")}
    block = []
    for i in range(2 * DEEP_N_STRATA):
        strategy = "redei" if i % 2 == 0 else "power"
        target = _log_uniform(rng, 2**12, 2**18, orders[strategy][i // 2], DEEP_N_STRATA)
        d = _nonsquare(rng, 2, 1000)
        n = max(1, int(target) // x1_bits(d))
        block.append(Request("solve", {"d": d, "n": n, "strategy": strategy}))
    return block


# long-period: period length L log-uniform in [10**3, 10**4.5], one
# request per stratum.  d is drawn log-uniformly from a range where such
# periods are common and kept only if its period falls in the stratum.
LONG_PERIOD_STRATA = 10
L_MIN, L_MAX = 10**3, 10**4.5


def _long_period_block(rng: random.Random, ref: reference.Reference) -> list[Request]:
    block = []
    for j in _shuffled(rng, list(range(LONG_PERIOD_STRATA))):
        l_lo, l_hi = _stratum(L_MIN, L_MAX, j, LONG_PERIOD_STRATA)
        while True:
            d = int(math.exp(rng.uniform(math.log(l_lo**2), math.log(4 * l_hi**2))))
            if math.isqrt(d) ** 2 == d:
                continue
            found = reference.period(d, max_terms=int(l_hi))
            if found is not None and len(found[1]) >= l_lo:
                break
        ref.radicand(d, found)
        block.append(Request("solve", {"d": d, "n": 1, "strategy": "redei"}))
    return block


# cli-mix: 30 requests per block, 70% solve.  solve: 7 per strategy, n
# log-uniform in [1, 256] with one draw per stratum, d <= 10**4.
# The rest: 3 each of cf, redei and verify.  Text and JSON alternate.
# Every operation of a workload must succeed, so a solve's d is redrawn
# until x_n and y_n print within the interpreter's default int-to-str
# digit limit: x_n + y_n*sqrt(d) < (2*x1)**n <= 2**(n*(bits(x1)+1)).
CLI_SOLVES_PER_STRATEGY = 7
MAX_DIGITS = sys.int_info.default_max_str_digits


def _fits_digit_limit(n: int, x1_bits: int) -> bool:
    return n * (x1_bits + 1) * math.log10(2) < MAX_DIGITS - 1


def _cli_mix_block(rng: random.Random, x1_bits: Callable[[int], int]) -> list[Request]:
    specs: list[tuple[str, dict]] = []
    for strategy in ("redei", "power", "cf"):
        for j in range(CLI_SOLVES_PER_STRATEGY):
            n = int(_log_uniform(rng, 1, 257, j, CLI_SOLVES_PER_STRATEGY))
            d = _nonsquare(rng, 2, 10**4)
            while not _fits_digit_limit(n, x1_bits(d)):
                d = _nonsquare(rng, 2, 10**4)
            specs.append(("solve", {"d": d, "n": n, "strategy": strategy}))
    for _ in range(3):
        specs.append(("cf", {"d": _nonsquare(rng, 2, 10**4), "terms": rng.randint(0, 20)}))
        z = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        specs.append(("redei", {"d": _nonsquare(rng, 2, 10**4), "z": z, "n": rng.randint(0, 48)}))
        specs.append(("verify", {"d_max": rng.randint(10, 60), "n_max": rng.randint(1, 4)}))
    block = []
    for i, (cmd, args) in enumerate(_shuffled(rng, specs)):
        args["format"] = "text" if i % 2 == 0 else "json"
        block.append(Request(cmd, args, cli_argv(cmd, args)))
    return block


def cli_argv(cmd: str, args: dict) -> tuple[str, ...]:
    """argv for one CLI request; option values are joined with '=' so a
    negative --z is not read as an option."""
    names = {
        "solve": ("d", "n", "strategy"),
        "cf": ("d", "terms"),
        "redei": ("d", "z", "n"),
        "verify": ("d_max", "n_max"),
    }[cmd]
    opts = [f"--{name.replace('_', '-')}={args[name]}" for name in names]
    return (cmd, *opts, f"--format={args['format']}")


def blocks(workload: str, seed: int, ref: reference.Reference) -> Iterator[list[Request]]:
    """The endless block stream of one workload; equal seeds give equal streams."""
    rng = random.Random(f"{workload}:{seed}")
    bits: dict[int, int] = {}

    def x1_bits(d: int) -> int:
        if d not in bits:
            bits[d] = reference.fundamental_exact(d)[0].bit_length()
        return bits[d]

    if workload == "deep-n":
        while True:
            yield _deep_n_block(rng, x1_bits)
    elif workload == "long-period":
        while True:
            yield _long_period_block(rng, ref)
    elif workload == "cli-mix":
        while True:
            yield _cli_mix_block(rng, x1_bits)
    else:
        raise ValueError(f"unknown workload {workload!r}")
