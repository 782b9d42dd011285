"""Benchmark of the pellredei solver: seeded workloads, checked answers.

    python3 benchmark/run.py --workload deep-n --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the package from its
src/ directory.  One client in one process sends each request only after
the previous one returned (a closed loop, no threads).  Every answer is
checked against reference.py.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured with no
spans, each time figure scaled against the frozen copy in yardstick.py;
with --trace 1 they are the per-layer ones from spans.py.  The line
before it records the Python version, the int-to-str digit limit, the
request count, the failures by class and the unscaled time figures.  A
run under a non-default digit limit is invalid: it exits with code 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
import yardstick

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPS = 15
SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import pellredei, pellredei.cli\n"
    "print(time.perf_counter() - start, pellredei.__file__)\n"
)


class InvalidRun(Exception):
    """The run cannot produce a valid result; nothing is printed on stdout."""


def import_seconds(package_root: Path) -> float:
    """Time to import pellredei and pellredei.cli from package_root in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(package_root))
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    if proc.returncode != 0:
        raise InvalidRun(f"importing pellredei failed:\n{proc.stderr}")
    seconds, path = proc.stdout.split()
    if not Path(path).resolve().is_relative_to(package_root):
        raise InvalidRun(f"imported pellredei from {path}, not from {package_root}")
    return float(seconds)


def measure_setup() -> float:
    """Import time of the program, in seconds at the yardstick's reference speed.

    Imports of the program and of the frozen copy alternate, each in a
    fresh interpreter; the median ratio of the two scales the copy's
    nominal import time.  One unreported import of each comes first, so
    every timed one finds its bytecode cached.
    """
    import_seconds(SRC)
    import_seconds(yardstick.FROZEN)
    ratios = []
    for _ in range(SETUP_REPS):
        program = import_seconds(SRC)
        ratios.append(program / import_seconds(yardstick.FROZEN))
    return statistics.median(ratios) * yardstick.NOMINAL_SETUP_S


def units(kind: str) -> dict[str, str]:
    """name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    try:
        spec = json.loads(SPEC.read_text())
    except (OSError, ValueError) as exc:
        raise InvalidRun(f"cannot read {SPEC.name}: {exc}") from exc
    return {m["name"]: m["unit"] for m in spec[kind]}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_interpreter() -> int:
    """The digit limit in force; it must be CPython's default."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        raise InvalidRun(f"Python {platform.python_version()} has no int-to-str digit limit")
    if get_limit() != sys.int_info.default_max_str_digits:
        raise InvalidRun(f"int-to-str digit limit is {get_limit()}, not {sys.int_info.default_max_str_digits}")
    return get_limit()


def import_program() -> None:
    if not (SRC / "pellredei" / "__init__.py").is_file():
        raise InvalidRun(f"no pellredei package under {SRC}")
    sys.path.insert(0, str(SRC))
    import pellredei

    if not Path(pellredei.__file__).resolve().is_relative_to(SRC):
        raise InvalidRun(f"imported pellredei from {pellredei.__file__}, not from {SRC}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        limit = check_interpreter()
        import_program()
        metric_units = units("per_layer" if args.trace else "end_to_end")
        yardstick.pin_to_one_cpu()
        setup_s = None if args.trace else measure_setup()
    except InvalidRun as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return 2

    # Imported only now: these import pellredei from SRC.
    import client as loop
    import reference
    import spans

    ref = reference.Reference()
    client = loop.Client(ref)
    stream = workloads.blocks(args.workload, args.seed, ref)
    spans_file = None
    times = None
    if args.trace:
        outcomes, rec = loop.run_traced(client, stream, args.seconds)
        metrics = spans.per_layer(rec)
        metrics["format.fail"] = client.failures["int_str_limit"] / len(outcomes)
        metrics["fail_ratio"] = loop.fail_ratio(outcomes)
        spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        rec.write(spans_file)
    else:
        with yardstick.Yardstick() as stick:
            outcomes, yard_ns = loop.run_plain(client, stream, args.seconds, stick)
        times = loop.end_to_end(outcomes, yard_ns, yardstick.NOMINAL[args.workload])
        metrics = {
            "setup_s": setup_s,
            **times["scaled"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    for failure, text in client.tracebacks.items():
        print(f"first {failure} failure: {text}", file=sys.stderr)
    info = {
        "python": platform.python_version(),
        "int_max_str_digits": limit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "requests": len(outcomes),
        "program": times and times["program"],
        "yardstick": times and times["yardstick"],
        "failures": dict(client.failures),
        "spans_file": str(spans_file.relative_to(ROOT)) if spans_file else None,
    }
    print(json.dumps({"info": info}))
    result = {
        "correct": client.failures["wrong_answer"] == 0,
        "attempted": len(outcomes),
        "failed": sum(o.failure is not None for o in outcomes),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in metric_units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
