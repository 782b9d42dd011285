import argparse
import contextlib
import importlib
import io
import itertools
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pellredei
from pellredei import INF, PellSolver, Strategy, cli
from pellredei import solver as solver_module
from pellredei.cli import _build_parser, _median_time_ns, _parse, _rational, main


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

    def test_decimal_parameter_is_read_exactly(self, capsys):
        # Decimal text is parsed by Fraction, so it never meets the library's float rule.
        code, out, err = run(capsys, "redei", "--d", "2", "--z", "1.5", "--n", "1")
        assert (code, out, err) == (0, "N = 3/2\nD = 1\nQ = 3/2\n", "")
        code, out, _ = run(capsys, "redei", "--d", "2", "--z", "1.5", "--n", "1", "--format", "json")
        assert code == 0
        assert '"z":"3/2"' in out
        assert json.loads(out)["result"] == {"N": "3/2", "D": "1", "Q": "3/2"}

    def test_bad_parameter_is_usage_error(self):
        for z in ("3/0", "abc", "1.5.2"):
            with pytest.raises(SystemExit) as excinfo:
                main(["redei", "--d", "2", "--z", z, "--n", "1"])
            assert excinfo.value.code == 2

    @pytest.mark.parametrize("z", ["1e5000", "1.5e-5000"])
    def test_exponent_past_the_digit_limit_is_usage_error(self, capsys, monkeypatch, z):
        # Fraction(z) would compute 10**5000 first; it must never see the text.
        def fraction(text, *rest):
            assert text != z, "Fraction received the refused text"
            return Fraction(text, *rest)

        monkeypatch.setattr(cli, "Fraction", fraction)
        with pytest.raises(SystemExit) as excinfo:
            main(["redei", "--d", "2", "--z", z, "--n", "1"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "pellredei redei: error: argument --z: "
            f"exponent past the {sys.get_int_max_str_digits()}-digit int-to-str limit: {z!r}"
        )

    def test_exponent_at_the_digit_limit_is_read_exactly(self):
        limit = sys.get_int_max_str_digits()
        assert _rational(f"1e{limit}") == 10**limit
        assert _rational(f" -2.5E-{limit} ") == Fraction(-25, 10 ** (limit + 1))

    def test_text_that_is_no_number_keeps_its_message(self):
        for z in ("abce5000", "1e 5000", "1/2e5000"):
            with pytest.raises(argparse.ArgumentTypeError, match="not a rational number"):
                _rational(z)


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

    @pytest.mark.parametrize("n_max", [2, 40, 400])
    def test_checks_do_not_grow_with_n_max(self, capsys, monkeypatch, n_max):
        # _solves_pell checks the fold's answer once per rep; the fold's
        # steps are not checked.  The fundamental is proved by _fundamental's
        # norm tests on its half period, and the redei side's answer by
        # _power's one norm test per rep, on its half power; neither is
        # checked again.
        checks, powers = [], []
        real_check, real_power = solver_module._solves_pell, solver_module._power

        def counted_check(x, y, d):
            checks.append(d)
            return real_check(x, y, d)

        def counted_power(d, x1, y1, n):
            powers.append(n)
            return real_power(d, x1, y1, n)

        monkeypatch.setattr(solver_module, "_solves_pell", counted_check)
        monkeypatch.setattr(solver_module, "_power", counted_power)
        code, _, _ = run(capsys, "bench", "--d", "61", "--n-max", str(n_max), "--reps", "3")
        assert code == 0
        assert len(checks) == 3
        assert powers == [n_max] * 3

    def test_detects_a_fold_one_step_ahead(self, capsys, monkeypatch):
        # Every pair of this fold solves the equation; only the redei side
        # shows it is the wrong one.
        real = PellSolver._fold
        monkeypatch.setattr(PellSolver, "_fold", lambda self: itertools.islice(real(self), 1, None))
        code, _, err = run(capsys, "bench", "--d", "2", "--n-max", "3", "--reps", "1")
        assert code == 4
        assert "disagree" in err

    @pytest.mark.parametrize("reps", [1, 2, 3, 4, 5, 8])
    def test_median_is_the_low_median(self, monkeypatch, reps):
        # perf_counter_ns is read twice per sample; the samples come out unsorted.
        samples = [(7 * k) % 11 + 1 for k in range(reps)]
        clock = iter(itertools.chain.from_iterable((0, ns) for ns in samples))
        monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter_ns=lambda: next(clock)))
        assert _median_time_ns(lambda: "out", reps) == ("out", statistics.median_low(samples))

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
        real = solver_module._quadratic_power

        def wrong_at_7(d, x, y, n):
            # At d = 7 the Redei value 8/3 is read as 11/3.
            num, den = real(d, x, y, n)
            return (num + den, den) if d == 7 else (num, den)

        monkeypatch.setattr(solver_module, "_quadratic_power", wrong_at_7)
        code, out, err = run(capsys, "verify", "--d-max", "20", "--n-max", "2", "--format", fmt)
        assert code == 4
        assert err == "error: Redei value != convergent at d=7, n=1: 11/3 vs 8/3\n"
        assert out == before
        assert len(out.splitlines()) == 4


# Every str a record can hold besides its keys: the command names, every
# option's choices, and the fixed words of verify's and bench's records.
RECORD_WORDS = sorted(
    {
        *cli._COMMANDS,
        *(
            choice
            for _, _, _, arguments in cli._COMMANDS.values()
            for _, options in (*arguments, cli._FORMAT)
            for choice in options.get("choices", ())
        ),
        "odd",
        "even",
        "true",
    }
)


def _keys(value):
    """Every dict key in a record."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _keys(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _keys(item)


def test_record_words_need_no_json_escape():
    # cli._json quotes a str as it is: its one precondition.
    keys = set()
    for argv in (
        ["solve", "--d", "2"],
        ["cf", "--d", "7", "--terms", "2"],
        ["redei", "--d", "2", "--z", "2", "--n", "1"],
        ["bench", "--d", "2", "--n-max", "3", "--reps", "1"],
        ["verify", "--d-max", "5", "--n-max", "1"],
    ):
        args = _parse(argv)
        for record in cli._COMMANDS[args.command][1](args):
            keys.update(_keys(record))
    for word in (*RECORD_WORDS, *keys):
        assert json.dumps(word) == f'"{word}"', word


def _as_text(value):
    """value with every number as its str() and every tuple as a list."""
    if isinstance(value, dict):
        return {key: _as_text(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_text(item) for item in value]
    return value if isinstance(value, str) else str(value)


_RECORD_VALUES = st.recursive(
    st.one_of(st.integers(), st.fractions(), st.just(INF), st.sampled_from(RECORD_WORDS)),
    lambda inner: st.one_of(
        st.dictionaries(st.sampled_from(RECORD_WORDS), inner, max_size=4),
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None, database=None)
@given(_RECORD_VALUES)
def test_json_writer_matches_the_json_module(record):
    assert cli._json(record) == json.dumps(_as_text(record), separators=(",", ":"))


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--d", "61", "--n", "3"],
        ["bench", "--d", "61", "--n-max", "50", "--reps", "1"],
        ["redei", "--d", "2", "--z", "2", "--n", "0"],  # Q is INF
        ["redei", "--d", "13", "--z=-7/3", "--n", "9"],  # negative Fractions
    ],
)
def test_json_line_round_trips(capsys, argv):
    # cf and verify are checked the same way in TestCf and TestVerify.
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    line = out.strip()
    assert json.dumps(json.loads(line), separators=(",", ":")) == line


class TestCallsInOneProcess:
    def test_options_do_not_carry_over(self, capsys):
        code, out, _ = run(capsys, "solve", "--d", "2", "--n", "2", "--format", "json")
        assert code == 0 and json.loads(out)["result"] == {"x": "17", "y": "12"}
        code, out, _ = run(capsys, "solve", "--d", "2", "--n", "2")
        assert code == 0 and out == "x = 17\ny = 12\n"

    def test_parser_is_built_at_most_once(self, capsys, monkeypatch):
        builds = []
        add_subparsers = argparse.ArgumentParser.add_subparsers

        def counted(parser, **kwargs):
            builds.append(parser)
            return add_subparsers(parser, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)
        # A fresh copy of the module, so its parser cache starts empty;
        # monkeypatch puts the shared one back afterwards.
        monkeypatch.setattr(pellredei, "cli", pellredei.cli)
        monkeypatch.delitem(sys.modules, "pellredei.cli")
        cli = importlib.import_module("pellredei.cli")
        assert builds == []
        # Well-formed calls are read from the command table.
        assert cli.main(["solve", "--d", "2"]) == 0
        assert cli.main(["cf", "--d", "2", "--terms", "1"]) == 0
        out = capsys.readouterr().out
        assert out == "x = 3\ny = 2\na0 = 1\nperiod = [2]\nL = 1\nconvergent 0: 1/1\n"
        assert builds == []
        # A refused value and an abbreviation reach argparse, through one parser.
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["solve", "--d", "0"])
        assert excinfo.value.code == 2
        assert cli.main(["solve", "--d", "2", "--form", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["result"] == {"x": "3", "y": "2"}
        assert len(builds) == 1

    def test_exit_codes_after_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--d", "0"])
        assert excinfo.value.code == 2
        code, out, _ = run(capsys, "solve", "--d", "2")
        assert code == 0 and out == "x = 3\ny = 2\n"
        code, out, _ = run(capsys, "solve", "--d", "4")
        assert code == 3 and out == ""


def _parsed(parse, argv):
    """vars of the parsed namespace, or the SystemExit code, with stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


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
def test_reused_parser_parses_like_a_fresh_one(argv):
    reused = _build_parser().parse_args
    parsed, _, _ = _parsed(reused, ["solve", "--d", "7", "--n", "2", "--format", "json"])
    assert parsed["format"] == "json"
    assert _parsed(reused, ["cf", "--d", "0"])[0] == 2
    assert _parsed(reused, argv) == _parsed(_build_parser.__wrapped__().parse_args, argv)


def _both_routes(argv):
    """main's parse of argv, and a fresh top-level parser's."""
    return _parsed(_parse, argv), _parsed(_build_parser.__wrapped__().parse_args, argv)


# Command names known, unknown and none; --k v and --k=v; abbreviations;
# help; "--"; leftover and repeated tokens; bad types and choices; empty,
# split and cased --k=v forms, a flag of another command, and values int()
# reads with a space or in another script.
ROUTE_TOKENS = [
    *cli._COMMANDS,
    "bogus",
    "Solve",
    "sol",
    "--d",
    "--d=3",
    "--n",
    "--n=0",
    "--z",
    "--z=-1/2",
    "--terms",
    "--n-max",
    "--d-max=2",
    "--n-ma",
    "--reps",
    "--strategy",
    "--strategy=magic",
    "--format",
    "--format=json",
    "--form",
    "-h",
    "--h",
    "--help",
    "--",
    "-",
    "-x",
    "2",
    "0",
    "x",
    "-1/2",
    "1e5000",
    "json",
    "cf",
    "--d=",
    "--d=2=3",
    "--n-max=1",
    "--D=2",
    "--strategy=",
    "--format=JSON",
    " 3",
    "\u0663",
]


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["sol", "--d", "2"],
        ["-h"],
        ["--help"],
        ["--d", "2"],
        ["solve", "--d", "2"],
        ["solve", "--d=1913", "--n=143", "--strategy=redei", "--format=json"],
        ["solve", "--d", "2", "--form", "json"],
        ["solve", "--d", "2", "--str=cf"],
        ["solve", "--h"],
        ["solve", "-h"],
        ["solve", "--d", "2", "extra", "-h"],
        ["solve", "--d", "2", "--"],
        ["solve", "--d", "2", "--", "extra"],
        ["solve", "--", "--d", "2"],
        ["solve", "--d", "2", "extra"],
        ["solve", "--d", "2", "solve"],
        ["solve", "--d", "2", "--d", "3"],
        ["solve", "--format", "json", "--d", "2", "--format=text"],
        ["solve", "--d", "x"],
        ["solve", "--d", "2", "--n", "0"],
        ["solve", "--d", "2", "--strategy", "magic"],
        ["solve", "--n", "2"],
        ["solve", "--d"],
        ["solve", "--bogus", "--d", "2"],
        ["solve", "-x"],
        ["cf", "--d", "7", "--terms=3"],
        ["cf", "--d", "7", "--terms", "-1"],
        ["redei", "--d", "5", "--z", "-1/2", "--n", "3"],
        ["redei", "--d", "5", "--z=-1/2", "--n", "3"],
        ["redei", "--d", "2", "--z", "1e5000", "--n", "1"],
        ["redei", "--d", "2", "--z", "1.5e-3", "--n", "1"],
        ["bench", "--d", "2", "--n-max", "2", "--reps", "1"],
        ["verify", "--d-max", "3", "--n-ma", "2"],
        ["verify", "extra", "--d-max", "3"],
        ["solve", "--d", " 3"],
        ["solve", "--d=\u0663"],
        ["solve", "--d=", "--d", "2"],
        ["solve", "--d=2=3"],
        ["solve", "--d", "2", "--format=JSON"],
        ["solve", "--d", "2", "--strategy="],
        ["solve", "--D=2"],
        ["bench", "--d", "2", "--n=1"],
        ["verify", "--n-max=1", "--d", "2"],
    ],
)
def test_both_parse_routes_agree(argv):
    main_route, top_level = _both_routes(argv)
    assert main_route == top_level


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["solve", "--d=--"], "--d"),
        (["solve", "--d", "2", "--strategy=--"], "--strategy"),
        (["redei", "--d", "2", "--z=--", "--n", "1"], "--z"),
        (["verify", "--n-max=--"], "--n-max"),
        (["cf", "--d", "2", "--format=--"], "--format"),
    ],
)
def test_end_of_options_marker_as_a_value_is_refused(capsys, argv, flag):
    # argparse before 3.13 reads --flag=-- as no value and skips the type and choices.
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    captured = capsys.readouterr()
    assert excinfo.value.code == 2
    assert captured.out == ""
    assert f"error: argument {flag}: " in captured.err


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.one_of(
        st.tuples(st.sampled_from([*cli._COMMANDS, "bogus"]), st.lists(st.sampled_from(ROUTE_TOKENS))),
        st.tuples(st.just(None), st.lists(st.sampled_from(ROUTE_TOKENS), max_size=4)),
    )
)
def test_both_parse_routes_agree_on_drawn_argv(case):
    command, tail = case
    argv = tail if command is None else [command, *tail]
    main_route, top_level = _both_routes(argv)
    assert main_route == top_level


def test_well_formed_call_skips_the_top_level_parser(capsys, monkeypatch):
    def top_level_parse(*args, **kwargs):
        raise AssertionError("reached the top-level parser")

    # parse_args runs through parse_known_args, so this catches either.
    monkeypatch.setattr(_build_parser(), "parse_known_args", top_level_parse)
    for argv in (
        ["solve", "--d", "2"],
        ["solve", "--d=1913", "--n=143", "--strategy=cf", "--format=json"],
        ["cf", "--d", "7", "--terms", "3", "--format", "json"],
        ["redei", "--d=2", "--z=3/2", "--n=4"],
        ["bench", "--d", "2", "--n-max", "2", "--reps", "1"],
        ["verify", "--d-max", "5", "--n-max", "2"],
    ):
        assert main(argv) == 0
    for argv in (
        ["solve", "--d", "2", "extra"],
        ["cf", "--d", "7", "--terms", "3", "--form", "json"],
        ["solve", "--d", "2", "--n", "-1"],
        ["solve", "--help"],
    ):
        with pytest.raises(AssertionError, match="top-level"):
            main(argv)
    capsys.readouterr()


def test_no_typed_option_has_a_str_default():
    # argparse passes a str default through the option's type; the table
    # route fills in defaults as they are.
    for name, (_, _, _, arguments) in cli._COMMANDS.items():
        for flag, options in (*arguments, cli._FORMAT):
            assert not ("type" in options and isinstance(options.get("default"), str)), (name, flag)


@pytest.mark.xfail(
    strict=True,
    raises=ValueError,
    reason="str() of an output past the 4300-digit limit raises (README, Known gap)",
)
@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--d", "2", "--n", "10000"],
        ["redei", "--d", "2", "--z", "2", "--n", "20000"],
        ["cf", "--d", "2", "--terms", "12000"],
    ],
)
def test_output_past_the_digit_limit(capsys, argv):
    assert main(argv) == 0


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
        ([], 2),
        (["--help"], 0),
        (["bogus"], 2),
        (["solve", "--d", "2", "extra"], 2),
    ],
)
def test_module_exit_codes(argv, code):
    proc = subprocess.run([sys.executable, "-m", "pellredei", *argv], capture_output=True)
    assert proc.returncode == code


def test_cold_import_loads_no_heavy_module():
    """Importing the package and its CLI loads none of the heavy modules below;
    a JSON render still works, and a well-formed call leaves argparse unloaded."""
    code = (
        "import sys\n"
        "import pellredei, pellredei.cli\n"
        "heavy = ('argparse', 'dataclasses', 'gettext', 'inspect', 'json', 'statistics', 'typing')\n"
        "print([name for name in heavy if name in sys.modules])\n"
        "pellredei.cli.main(['solve', '--d', '61', '--format', 'json'])\n"
        "print('argparse' in sys.modules)\n"
    )
    src = str(Path(pellredei.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]",
        '{"command":"solve","d":"61","params":{"n":"1","strategy":"redei"},'
        '"result":{"x":"1766319049","y":"226153980"}}',
        "False",
    ]


def test_no_cli_call_imports_json():
    """Every command renders its JSON without the json module (README, lean import)."""
    code = (
        "import contextlib, io, sys\n"
        "from pellredei import cli\n"
        "calls = [['solve', '--d', '61'], ['cf', '--d', '7', '--terms', '3'],\n"
        "         ['redei', '--d', '13', '--z=-7/3', '--n', '9'],\n"
        "         ['bench', '--d', '61', '--n-max', '3', '--reps', '1'], ['verify']]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main([*argv, '--format', 'json']) for argv in calls]\n"
        "print(codes, 'json' in sys.modules)\n"
    )
    src = str(Path(pellredei.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0, 0, 0] False\n"
