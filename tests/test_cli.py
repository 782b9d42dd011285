import dataclasses
import itertools
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from pellredei import PellSolver, Strategy
from pellredei.cli import _build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_text_output(self, capsys):
        code, out, err = run(capsys, "solve", "--d", "2", "--n", "2")
        assert code == 0 and err == ""
        assert out == "x = 17\ny = 12\n"

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "solve", "--d", "61", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["command"] == "solve"
        assert record["d"] == "61"
        assert record["params"] == {"n": "1", "strategy": "redei"}
        assert record["result"] == {"x": "1766319049", "y": "226153980"}

    def test_every_strategy_agrees(self, capsys):
        lines = set()
        for strategy in ("cf", "power", "redei"):
            _, out, _ = run(capsys, "solve", "--d", "13", "--n", "3", "--strategy", strategy)
            lines.add(out)
        assert len(lines) == 1

    def test_perfect_square_exit_code(self, capsys):
        code, out, err = run(capsys, "solve", "--d", "4")
        assert code == 3
        assert out == ""
        assert "perfect square" in err

    def test_usage_errors_exit_2(self):
        for argv in (
            ["solve"],
            ["solve", "--d", "0"],
            ["solve", "--d", "2", "--n", "0"],
            ["solve", "--d", "2", "--strategy", "magic"],
            ["solve", "--d", "2.5"],
            ["nosuchcommand"],
            [],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2


class TestCf:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "cf", "--d", "7", "--terms", "4")
        assert code == 0
        assert out.splitlines() == [
            "a0 = 2",
            "period = [1, 1, 1, 4]",
            "L = 4",
            "convergent 0: 2/1",
            "convergent 1: 3/1",
            "convergent 2: 5/2",
            "convergent 3: 8/3",
        ]

    def test_short_period(self, capsys):
        code, out, _ = run(capsys, "cf", "--d", "2", "--terms", "2")
        assert code == 0
        assert "period = [2]" in out
        assert "convergent 0: 1/1" in out
        assert "convergent 1: 3/2" in out

    def test_square_exit_code(self, capsys):
        code, _, err = run(capsys, "cf", "--d", "9")
        assert code == 3 and "perfect square" in err

    def test_json_round_trip(self, capsys):
        _, out, _ = run(capsys, "cf", "--d", "7", "--terms", "3", "--format", "json")
        line = out.strip()
        record = json.loads(line)
        assert json.dumps(record, separators=(",", ":")) == line
        assert record["result"]["a0"] == "2"
        assert record["result"]["period"] == ["1", "1", "1", "4"]
        assert record["result"]["convergents"][2] == {"k": "2", "p": "5", "q": "2"}


class TestRedei:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "redei", "--d", "2", "--z", "2", "--n", "4")
        assert code == 0
        assert out == "N = 68\nD = 48\nQ = 17/12\n"

    def test_infinite_value(self, capsys):
        code, out, _ = run(capsys, "redei", "--d", "2", "--z", "2", "--n", "0")
        assert code == 0
        assert "Q = INF" in out

    def test_integer_value(self, capsys):
        _, out, _ = run(capsys, "redei", "--d", "3", "--z", "3", "--n", "2")
        assert out == "N = 12\nD = 6\nQ = 2\n"

    def test_fractional_parameter(self, capsys):
        code, out, _ = run(capsys, "redei", "--d", "2", "--z", "3/2", "--n", "1", "--format", "json")
        record = json.loads(out)
        assert code == 0
        assert record["params"]["z"] == "3/2"
        assert record["result"] == {"N": "3/2", "D": "1", "Q": "3/2"}

    def test_bad_parameter_is_usage_error(self):
        for z in ("3/0", "abc", "1.5.2"):
            with pytest.raises(SystemExit) as excinfo:
                main(["redei", "--d", "2", "--z", z, "--n", "1"])
            assert excinfo.value.code == 2


class TestBench:
    def test_small_run(self, capsys):
        code, out, _ = run(capsys, "bench", "--d", "13", "--n-max", "1", "--reps", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[:3] == ["x digits = 3", "y digits = 3", "agreement: ok"]
        assert [line.split(" median: ")[0] for line in lines[3:]] == ["linear", "redei"]

    def test_json_record(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--d", "61", "--n-max", "50", "--reps", "2", "--format", "json"
        )
        assert code == 0
        record = json.loads(out)
        assert record["result"]["agree"] == "true"
        assert list(record["timings_ns"]) == ["linear", "redei"]
        expected = len(str(PellSolver(61).nth_solution(50).x))
        assert record["result"]["x_digits"] == str(expected)
        assert all(int(v) >= 0 for v in record["timings_ns"].values())

    def test_deterministic_apart_from_timings(self, capsys):
        records = []
        for _ in range(2):
            _, out, _ = run(capsys, "bench", "--d", "2", "--n-max", "40", "--format", "json")
            record = json.loads(out)
            record.pop("timings_ns")
            records.append(record)
        assert records[0] == records[1]

    def test_detects_internal_disagreement(self, capsys, monkeypatch):
        real = PellSolver.nth_solution

        def off_by_one(self, n, strategy=Strategy.REDEI):
            return real(self, n + 1, strategy)

        monkeypatch.setattr(PellSolver, "nth_solution", off_by_one)
        code, _, err = run(capsys, "bench", "--d", "2", "--n-max", "3", "--reps", "1")
        assert code == 4
        assert "disagree" in err


    def test_help_names_the_two_routes(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert "time the linear fold against the Redei kernel for the n-max-th solution" in help_text


class TestVerify:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "verify", "--d-max", "20", "--n-max", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "d = 2: L = 1 (odd), n = 1..2 ok"
        assert lines[-1] == "checked 16 radicands, all consistent"
        assert len(lines) == 17

    def test_json_one_record_per_radicand(self, capsys):
        code, out, _ = run(capsys, "verify", "--d-max", "20", "--n-max", "2", "--format", "json")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 16
        for line in lines:
            record = json.loads(line)
            assert record["command"] == "verify"
            assert record["result"]["equal"] == "true"
            assert json.dumps(record, separators=(",", ":")) == line

    def test_no_radicand(self, capsys):
        text = run(capsys, "verify", "--d-max", "1")
        assert text == (0, "checked 0 radicands, all consistent\n", "")
        assert run(capsys, "verify", "--d-max", "1", "--format", "json") == (0, "", "")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_disagreement_after_streamed_radicands(self, capsys, monkeypatch, fmt):
        # The radicands below 7 are 2, 3, 5 and 6; the first disagreement is at d = 7.
        code, before, _ = run(capsys, "verify", "--d-max", "6", "--n-max", "2", "--format", fmt)
        assert code == 0
        if fmt == "text":
            before = before.replace("checked 4 radicands, all consistent\n", "")
        real = PellSolver.correspondence_check

        def wrong_at_7(self, n):
            report = real(self, n)
            return dataclasses.replace(report, equal=False) if self.d == 7 else report

        monkeypatch.setattr(PellSolver, "correspondence_check", wrong_at_7)
        code, out, err = run(capsys, "verify", "--d-max", "20", "--n-max", "2", "--format", fmt)
        assert code == 4
        assert "Redei value != convergent at d=7, n=1" in err
        assert out == before
        assert len(out.splitlines()) == 4


class TestCallsInOneProcess:
    def test_options_do_not_carry_over(self, capsys):
        code, out, _ = run(capsys, "solve", "--d", "2", "--n", "2", "--format", "json")
        assert code == 0 and json.loads(out)["result"] == {"x": "17", "y": "12"}
        code, out, _ = run(capsys, "solve", "--d", "2", "--n", "2")
        assert code == 0 and out == "x = 17\ny = 12\n"

    def test_exit_codes_after_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--d", "0"])
        assert excinfo.value.code == 2
        code, out, _ = run(capsys, "solve", "--d", "2")
        assert code == 0 and out == "x = 3\ny = 2\n"
        code, out, _ = run(capsys, "solve", "--d", "4")
        assert code == 3 and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--d", "61"],
        ["solve", "--d=61", "--n=3", "--strategy", "cf", "--format", "json"],
        ["solve", "--d", "0"],
        ["solve", "--strategy", "bogus", "--d", "2"],
        ["solve"],
        ["solve", "--d", "2", "extra"],
        ["solve", "--d", "2", "--", "extra"],
        ["cf", "--d", "13", "--terms", "3"],
        ["redei", "--d", "5", "--z", "-1/2", "--n", "3"],
        ["redei", "--d", "5", "--z", "x", "--n", "3"],
        ["bench", "--d", "2", "--n-max", "2"],
        ["verify"],
        ["verify", "--d-max", "0"],
        *([name, "--help"] for name in ("solve", "cf", "redei", "bench", "verify")),
    ],
)
def test_one_subparser_parses_like_the_whole_tree(capsys, argv):
    def outcome(parser):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
        captured = capsys.readouterr()
        return result, captured.out, captured.err

    assert outcome(_build_parser(argv[0])) == outcome(_build_parser())


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pellredei", "solve", "--d", "2", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "x = 17\ny = 12\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["solve", "--d", "61", "--format", "json"], 0),
        (["solve", "--d", "4"], 3),
        (["solve", "--d", "0"], 2),
        (["verify", "--d-max", "30", "--n-max", "3"], 0),
    ],
)
def test_module_exit_codes(argv, code):
    proc = subprocess.run([sys.executable, "-m", "pellredei", *argv], capture_output=True)
    assert proc.returncode == code


def _readme_examples() -> list[tuple[str, list[str]]]:
    """Each `$ pellredei ...` example in README.md with the output lines shown under it."""
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()

    def shown(line: str) -> bool:
        return line.strip() != "" and not line.startswith("```")

    return [
        (line.removeprefix("$ pellredei "), list(itertools.takewhile(shown, lines[i + 1 :])))
        for i, line in enumerate(lines)
        if line.startswith("$ pellredei ")
    ]


def test_readme_shows_every_command():
    commands = [example.split()[0] for example, _ in _readme_examples()]
    assert sorted(set(commands)) == ["bench", "cf", "redei", "solve", "verify"]


@pytest.mark.parametrize(
    "example, expected",
    [
        pytest.param(example, expected, id=example)
        for example, expected in _readme_examples()
        if not example.startswith("bench ")
    ],
)
def test_readme_example(capsys, example, expected):
    command, _, pipe = example.partition(" | ")
    code, out, _ = run(capsys, *shlex.split(command))
    assert code == 0
    lines = out.splitlines()
    if pipe:
        assert pipe == "tail -1"
        lines = lines[-1:]
    assert lines == expected
