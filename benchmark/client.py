"""The closed-loop client: sends requests, times them, checks the answers.

One client in one process; the next request is sent only when the
previous one returned.  Failures are caught and classified here, at the
request boundary, and never stop the run.
"""

from __future__ import annotations

import contextlib
import gc
import io
import math
import statistics
import time
import traceback
from collections import Counter
from dataclasses import dataclass

import checks
import reference
import spans
from pellredei import PellSolver, Strategy, cli

INT_STR_LIMIT = "integer string conversion"


class ExitCode(Exception):
    """The CLI returned a nonzero exit code."""


@dataclass
class Outcome:
    """One request: when it ran, how it failed if it did, and its output bits."""

    start_ns: int
    end_ns: int
    failure: str | None
    bits: int = 0

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def latency_ms(self) -> float:
        return math.inf if self.failure else self.ns * 1e-6


# A latency percentile is read as the mean over a band of ranks around
# it: one order statistic moves with the noise of the single request
# that lands on it.
BAND = 5


def percentile(values: list[float], q: float, band: float = BAND) -> float:
    """Mean of the nearest-rank percentiles from q - band to q + band.

    Failures enter as +inf, so they can only push it up.
    """
    ordered = sorted(values)
    lo = max(1, math.ceil((q - band) * len(ordered) / 100))
    hi = max(lo, math.ceil(min(100, q + band) * len(ordered) / 100))
    return statistics.fmean(ordered[lo - 1 : hi])


def figures(ns: list[int], failed: list[bool], bits: list[int]) -> dict[str, float]:
    """Closed-loop time figures of one run.  Its wall time is the sum of
    request times: the client checks each answer between requests, and
    that time is its own."""
    wall_ms = sum(ns) * 1e-6
    latencies = [math.inf if fail else t * 1e-6 for t, fail in zip(ns, failed)]
    # A percentile that falls on a failure is reported as the run's wall
    # time, which no single answered request can exceed.
    return {
        "latency_p50_ms": min(percentile(latencies, 50), wall_ms),
        "latency_p90_ms": min(percentile(latencies, 90), wall_ms),
        "ok_req_per_s": failed.count(False) / (wall_ms * 1e-3),
        "ok_mbit_per_s": sum(bits) * 1e-6 / (wall_ms * 1e-3),
    }


def end_to_end(outcomes: list[Outcome], yard_ns: list[int], nominal: dict[str, float]) -> dict[str, dict]:
    """The program's time figures, the yardstick's on the same requests, and
    the program's expressed at the reference speed: program / yardstick * nominal."""
    bits = [o.bits for o in outcomes]
    program = figures([o.ns for o in outcomes], [o.failure is not None for o in outcomes], bits)
    stick = figures(yard_ns, [False] * len(yard_ns), bits)
    scaled = {name: program[name] / stick[name] * nominal[name] for name in program}
    return {"program": program, "yardstick": stick, "scaled": scaled}


def fail_ratio(outcomes: list[Outcome]) -> float:
    return sum(o.failure is not None for o in outcomes) / len(outcomes)


class Client:
    """Sends requests, times them, classifies failures and checks answers."""

    def __init__(self, ref: reference.Reference) -> None:
        self.ref = ref
        self.failures: Counter = Counter()
        self.tracebacks: dict[str, str] = {}

    def _call(self, req):
        if req.argv is None:
            return PellSolver(req.args["d"]).nth_solution(req.args["n"], Strategy(req.args["strategy"]))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(req.argv))
        if code != 0:
            raise ExitCode(code)
        return out.getvalue()

    def send(self, req) -> Outcome:
        """One request; every failure is caught and classified here."""
        # The benchmark's own objects are left out of the program's garbage
        # collections, as they would be in a process of its own.
        gc.collect()
        gc.freeze()
        start = time.perf_counter_ns()
        try:
            answer = self._call(req)
        except (SystemExit, Exception) as exc:  # KeyboardInterrupt propagates
            return self._fail(req, start, time.perf_counter_ns(), classify(exc))
        end = time.perf_counter_ns()
        try:
            bits = checks.check(req, answer, self.ref)
        except checks.WrongAnswer:
            return self._fail(req, start, end, "wrong_answer")
        return Outcome(start, end, None, bits)

    def _fail(self, req, start: int, end: int, failure: str) -> Outcome:
        """Count a failure; called while its exception is being handled."""
        self.failures[failure] += 1
        self.tracebacks.setdefault(failure, f"{req.argv or req.args}\n{traceback.format_exc()}")
        return Outcome(start, end, failure)


def classify(exc: BaseException) -> str:
    if isinstance(exc, SystemExit):  # argparse rejected the argv
        return "usage"
    if isinstance(exc, ExitCode):
        return "exit_code"
    if isinstance(exc, ValueError) and INT_STR_LIMIT in str(exc):
        return "int_str_limit"
    return "exception"


def run_plain(client: Client, stream, seconds: float, yardstick) -> tuple[list[Outcome], list[int]]:
    """Closed loop until the program and the yardstick together have taken
    `seconds`, ending on a block boundary.  Each request goes to both, in
    turn first.  Returns the outcomes and the yardstick's times."""
    outcomes: list[Outcome] = []
    yard_ns: list[int] = []
    busy_ns = 0
    for block in stream:
        for req in block:
            if len(outcomes) % 2:
                yard_ns.append(yardstick.time_ns(req))
                outcomes.append(client.send(req))
            else:
                outcomes.append(client.send(req))
                yard_ns.append(yardstick.time_ns(req))
            busy_ns += outcomes[-1].ns + yard_ns[-1]
        if busy_ns >= seconds * 1e9:
            return outcomes, yard_ns


def run_traced(client: Client, stream, seconds: float):
    """Each request as the exact call, then again as spanned layer calls."""
    rec = spans.Recorder()
    outcomes: list[Outcome] = []
    busy_ns = 0
    for block in stream:
        for req in block:
            rid = len(outcomes)
            outcome = client.send(req)
            outcomes.append(outcome)
            rec.add(rid, "request", None, outcome.start_ns, outcome.end_ns, {"cli": req.argv is not None})
            start = time.perf_counter_ns()
            digits = spans.split(rec, rid, req)
            end = time.perf_counter_ns()
            rec.add(rid, "split", None, start, end, {"digits": digits})
            busy_ns += outcome.ns + end - start
        if busy_ns >= seconds * 1e9:
            return outcomes, rec
