"""The yardstick: a frozen copy of the program, timed on the same requests.

The host's speed changes by up to 2x from one second to the next and
from one minute to the next, for reasons outside the benchmark.  So
every request is also sent to frozen/pellredei, a verbatim copy of the
package as it stood when the benchmark was written, right after (or
before) the program itself ran it.  The copy runs in a child process on
the same CPU, so both see the host in the same state, and the child
keeps its memory out of the benchmark's peak RSS.

Each time figure F is computed for the program and for the copy over
the same requests, and reported as F(program) / F(copy) * NOMINAL[F]:
the copy never changes, so its figure at a fixed reference speed is a
constant, and the ratio carries the program's speed relative to it.
Set-up time is scaled the same way against importing the copy.

The child's side of the pipe is this file run as a script:

    python3 benchmark/yardstick.py

It reads one JSON request per line on stdin and answers each with the
nanoseconds the copy took for it.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

FROZEN = Path(__file__).resolve().parent / "frozen"

# The frozen copy's own time figures on each workload, and its import
# time, at the reference speed: rounded medians from five 30-second runs
# (25-second runs for cli-mix) on a 2-vCPU Intel Xeon VM under Python
# 3.11.  They fix the unit of the reported figures; they are not targets.
NOMINAL = {
    "deep-n": {"latency_p50_ms": 9.66, "latency_p90_ms": 178.0, "ok_req_per_s": 14.1, "ok_mbit_per_s": 1.84},
    "long-period": {"latency_p50_ms": 15.8, "latency_p90_ms": 131.0, "ok_req_per_s": 21.0, "ok_mbit_per_s": 0.725},
    "cli-mix": {"latency_p50_ms": 2.17, "latency_p90_ms": 8.54, "ok_req_per_s": 260.0, "ok_mbit_per_s": 0.668},
}
NOMINAL_SETUP_S = 0.045


def pin_to_one_cpu() -> None:
    """Keep this process, and the children it starts, on one CPU, so the
    program and the copy run on the same one."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def encode(req) -> str:
    if req.argv is not None:
        return json.dumps({"argv": list(req.argv)})
    return json.dumps({key: req.args[key] for key in ("d", "n", "strategy")})


class Yardstick:
    """The child process that runs the frozen copy; use it in a with block."""

    def __init__(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(FROZEN))
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True
        )

    def time_ns(self, req) -> int:
        """Nanoseconds the frozen copy takes for req."""
        self.proc.stdin.write(encode(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the yardstick exited with code {self.proc.wait()}")
        return int(line)

    def __enter__(self) -> Yardstick:
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def serve() -> int:
    """The child: time each request on the frozen copy; its failures are timed too."""
    sys.path.insert(0, str(FROZEN))
    import pellredei
    from pellredei import PellSolver, Strategy, cli

    if not Path(pellredei.__file__).resolve().is_relative_to(FROZEN):
        print(f"imported pellredei from {pellredei.__file__}, not from {FROZEN}", file=sys.stderr)
        return 2
    out = sys.stdout
    for line in sys.stdin:
        req = json.loads(line)
        gc.collect()  # as the benchmark does before each request to the program
        gc.freeze()
        start = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                if "argv" in req:
                    cli.main(req["argv"])
                else:
                    PellSolver(req["d"]).nth_solution(req["n"], Strategy(req["strategy"]))
        except (SystemExit, Exception):
            pass
        print(time.perf_counter_ns() - start, file=out, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(serve())
