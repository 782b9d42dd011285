"""Spans for the traced run, recorded around calls into each layer.

The program itself is not instrumented.  Instead each request is run a
second time as the sequence of public layer calls the program makes for
it, each call in its own span:

    expand        contfrac.sqrt_cf (what PellSolver(d) does)
    fundamental   contfrac.nth_convergent at the fundamental index
    exponentiate  redei.redei_pair_fast, HyperbolaPoint.__pow__, or
                  contfrac.nth_convergent at the n-th solution's index
    check         solver.PellSolution(d, n, x, y)
    witness       PellSolver.correspondence_check

Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Iterator

from pellredei import PellSolution, PellSolver, decimal_digits, is_perfect_square, nth_convergent, redei_pair_fast, sqrt_cf

from workloads import Request

class Recorder:
    """Spans of one run: (request id, name, parent, start ns, end ns, attributes)."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, str | None, int, int, dict]] = []

    def add(self, rid: int, name: str, parent: str | None, start: int, end: int, attrs: dict) -> None:
        self.spans.append((rid, name, parent, start, end, attrs))

    @contextmanager
    def layer(self, rid: int, name: str) -> Iterator[dict]:
        """Span one layer call; the caller may fill the yielded attributes later."""
        attrs: dict = {}
        start = time.perf_counter_ns()
        try:
            yield attrs
        finally:
            self.spans.append((rid, name, "split", start, time.perf_counter_ns(), attrs))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for rid, name, parent, start, end, attrs in self.spans:
                f.write(json.dumps({"request": rid, "name": name, "parent": parent, "start_ns": start, "end_ns": end, **attrs}) + "\n")


def _solution_index(period_length: int, n: int) -> int:
    return n * period_length - 1 if period_length % 2 == 0 else 2 * n * period_length - 1


def _bits(*values: Fraction) -> int:
    return sum(abs(v.numerator).bit_length() + v.denominator.bit_length() for v in values)


def _solve(rec: Recorder, rid: int, d: int, n: int, strategy: str) -> tuple[int, int]:
    """PellSolver(d).nth_solution(n, strategy), one layer call at a time."""
    with rec.layer(rid, "expand") as attrs:
        expansion = sqrt_cf(d)
    length = attrs["period_terms"] = expansion.period_length
    if strategy == "cf":
        with rec.layer(rid, "exponentiate.cf") as out:
            conv = nth_convergent(expansion, _solution_index(length, n))
        x, y = conv.p, conv.q
    else:
        index = _solution_index(length, 1)
        with rec.layer(rid, "fundamental") as attrs:
            conv = nth_convergent(expansion, index)
        attrs.update(convergents=index + 1, out_bits=conv.p.bit_length() + conv.q.bit_length())
        with rec.layer(rid, "check"):
            base = PellSolution(d, 1, conv.p, conv.q)
        if strategy == "redei":
            with rec.layer(rid, "exponentiate.redei") as out:
                value = redei_pair_fast(d, Fraction(base.x + 1, base.y), 2 * n).ratio
            x, y = value.numerator, value.denominator
        else:
            with rec.layer(rid, "exponentiate.power") as out:
                point = base.point() ** n
            x, y = point.x.numerator, point.y.numerator
    out["out_bits"] = x.bit_length() + y.bit_length()
    with rec.layer(rid, "check"):
        PellSolution(d, n, x, y)
    return x, y


def split(rec: Recorder, rid: int, req: Request) -> int:
    """Run req again as spanned layer calls; returns the decimal digits a CLI
    request prints for its big integers (0 for a library request)."""
    args = req.args
    if req.cmd == "solve":
        x, y = _solve(rec, rid, args["d"], args["n"], args["strategy"])
        return decimal_digits(x) + decimal_digits(y) if req.argv else 0
    if req.cmd == "cf":
        with rec.layer(rid, "expand") as attrs:
            expansion = sqrt_cf(args["d"])
        attrs["period_terms"] = expansion.period_length
        return 0
    if req.cmd == "redei":
        with rec.layer(rid, "exponentiate.redei") as attrs:
            pair = redei_pair_fast(args["d"], args["z"], args["n"])
            pair.ratio  # the CLI prints the reduced value too
        attrs["out_bits"] = _bits(pair.num, pair.den)
        return sum(decimal_digits(v.numerator) + decimal_digits(v.denominator) for v in (pair.num, pair.den))
    if req.cmd == "verify":
        for d in range(2, args["d_max"] + 1):
            if is_perfect_square(d):
                continue
            with rec.layer(rid, "expand") as attrs:
                solver = PellSolver(d)
            attrs["period_terms"] = solver.period_length
            for n in range(1, args["n_max"] + 1):
                with rec.layer(rid, "witness"):
                    solver.correspondence_check(n)
        return 0
    raise ValueError(f"unknown command {req.cmd!r}")


def per_layer(rec: Recorder) -> dict[str, float]:
    """Per-layer figures from the spans, as means per request.

    A run ends after a fixed time, so a total would grow with the number
    of requests that fit in it; a mean per request does not, and a faster
    layer lowers only its own busy time.  The counts per request follow
    from the seed's draw alone: they tell how much work a request asks of
    each layer.

    cli.self_ms is derived: a CLI request's span minus its layer spans,
    i.e. argparse, solver set-up, output formatting and printing.
    trace.overhead_ratio is the time of the spanned rerun over the time
    of the plain call, summed over requests.
    """
    busy: dict[str, int] = defaultdict(int)
    calls: Counter = Counter()
    sums: Counter = Counter()
    layer_ns_by_request: dict[int, int] = defaultdict(int)
    request_ns = split_ns = cli_self_ns = requests = 0
    for rid, name, parent, start, end, attrs in rec.spans:
        if parent == "split":
            busy[name] += end - start
            calls[name] += 1
            layer_ns_by_request[rid] += end - start
            layer = name.split(".")[0]
            for key, value in attrs.items():
                sums[f"{layer}.{key}"] += value
        elif name == "split":
            split_ns += end - start
            sums["format.digits"] += attrs["digits"]
    for rid, name, parent, start, end, attrs in rec.spans:
        if name == "request":
            requests += 1
            request_ns += end - start
            if attrs["cli"]:
                cli_self_ns += end - start - layer_ns_by_request[rid]
    ms = 1e-6 / requests
    return {
        "expand.busy_ms": busy["expand"] * ms,
        "expand.calls": calls["expand"] / requests,
        "expand.period_terms": sums["expand.period_terms"] / requests,
        "fundamental.busy_ms": busy["fundamental"] * ms,
        "fundamental.convergents": sums["fundamental.convergents"] / requests,
        "fundamental.out_bits": sums["fundamental.out_bits"] / requests,
        "exponentiate.redei.busy_ms": busy["exponentiate.redei"] * ms,
        "exponentiate.power.busy_ms": busy["exponentiate.power"] * ms,
        "exponentiate.cf.busy_ms": busy["exponentiate.cf"] * ms,
        "exponentiate.out_bits": sums["exponentiate.out_bits"] / requests,
        "check.busy_ms": busy["check"] * ms,
        "check.calls": calls["check"] / requests,
        "witness.busy_ms": busy["witness"] * ms,
        "witness.calls": calls["witness"] / requests,
        "cli.self_ms": cli_self_ns * ms,
        "format.digits": sums["format.digits"] / requests,
        "trace.overhead_ratio": split_ns / request_ns,
    }
