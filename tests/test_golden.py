"""CLI output is byte-identical to the frozen copy of the package.

benchmark/frozen/pellredei is the package as it stood when the benchmark
was written.  Each side runs cli.main over the same argv list in its own
child process, so neither import can shadow the other, and prints the
stdout, the stderr and the exit code of every call.  bench is left out
because it prints timings, and every output stays below CPython's
4300-digit int-to-str limit.
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

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
