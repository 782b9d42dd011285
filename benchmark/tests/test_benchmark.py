"""Tests of the benchmark itself: statistics, seeding, checks and spans.

Run with:  python3 -m pytest benchmark/tests
"""

import json
import math
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

import checks
import client
import reference
import run
import spans
import workloads
import yardstick
from pellredei import PellSolver, Strategy, redei_pair_fast, sqrt_cf

ROOT = Path(__file__).resolve().parents[2]
NONSQUARES = [d for d in range(2, 60) if math.isqrt(d) ** 2 != d]


def outcome(ms: float, failure: str | None = None) -> client.Outcome:
    return client.Outcome(0, int(ms * 1e6), failure)


class TestStatistics:
    def test_percentile_without_band_is_nearest_rank(self):
        values = [float(v) for v in range(1, 11)]
        assert client.percentile(values, 50, band=0) == 5.0
        assert client.percentile(values, 90, band=0) == 9.0
        assert client.percentile(values, 100, band=0) == 10.0
        assert client.percentile([7.0], 90, band=0) == 7.0

    def test_percentile_is_the_mean_of_its_band(self):
        values = [float(v) for v in range(100, 0, -1)]
        assert client.percentile(values, 50) == pytest.approx(50.0)
        assert client.percentile(values, 90) == pytest.approx(90.0)
        assert client.percentile(values, 98) == pytest.approx(96.5)
        assert client.percentile([7.0], 90) == 7.0

    def test_failures_count_as_infinite_latency(self):
        assert outcome(3.0, "int_str_limit").latency_ms == math.inf
        values = [1.0] * 89 + [math.inf] * 11
        assert client.percentile(values, 90) == math.inf
        assert client.percentile(values, 50) == 1.0

    @staticmethod
    def program_figures(outcomes):
        ns = [o.ns for o in outcomes]
        return client.figures(ns, [o.failure is not None for o in outcomes], [o.bits for o in outcomes])

    def test_answering_a_failed_request_never_worsens_latency(self):
        failed = [outcome(float(ms)) for ms in range(1, 100)] + [outcome(500.0, "exception")]
        fixed = failed[:-1] + [outcome(500.0)]
        before = self.program_figures(failed)
        after = self.program_figures(fixed)
        for name in ("latency_p50_ms", "latency_p90_ms"):
            assert after[name] <= before[name]

    def test_infinite_percentile_reports_the_run_wall_time(self):
        outcomes = [outcome(2.0, "int_str_limit")] * 6 + [outcome(1.0)] * 4
        metrics = self.program_figures(outcomes)
        assert metrics["latency_p90_ms"] == pytest.approx(16.0)
        assert metrics["latency_p50_ms"] == pytest.approx(16.0)

    def test_fail_ratio_and_throughput(self):
        outcomes = [outcome(1.0)] * 97 + [outcome(1.0, "int_str_limit")] * 3
        assert client.fail_ratio(outcomes) == pytest.approx(0.03)
        assert self.program_figures(outcomes)["ok_req_per_s"] == pytest.approx(970.0)

    def test_figures_are_scaled_by_the_yardstick(self):
        outcomes = [client.Outcome(0, int(ms * 1e6), None, 1000) for ms in (2.0, 4.0, 6.0, 8.0)]
        nominal = dict.fromkeys(("latency_p50_ms", "latency_p90_ms", "ok_req_per_s", "ok_mbit_per_s"), 10.0)
        times = client.end_to_end(outcomes, [int(ms * 1e6) for ms in (1.0, 2.0, 3.0, 4.0)], nominal)
        assert times["program"]["latency_p50_ms"] == pytest.approx(5.0)
        assert times["yardstick"]["latency_p50_ms"] == pytest.approx(2.5)
        assert times["scaled"]["latency_p50_ms"] == pytest.approx(20.0)
        assert times["scaled"]["ok_req_per_s"] == pytest.approx(5.0)
        same = client.end_to_end(outcomes, [o.ns for o in outcomes], nominal)["scaled"]
        assert same == pytest.approx(nominal)


class TestYardstick:
    def test_each_request_goes_to_program_and_yardstick(self):
        class Stick:
            def __init__(self):
                self.sent = []

            def time_ns(self, req):
                self.sent.append(req)
                return 1_000_000

        c, stick = client.Client(reference.Reference()), Stick()
        block = next(workloads.blocks("cli-mix", 4, c.ref))
        outcomes, yard_ns = client.run_plain(c, workloads.blocks("cli-mix", 4, c.ref), 0.001, stick)
        assert stick.sent == block and len(outcomes) == len(block)
        assert yard_ns == [1_000_000] * len(block)

    def test_frozen_copy_times_library_and_cli_requests(self):
        args = {"d": 13, "n": 3, "strategy": "power", "format": "json"}
        with yardstick.Yardstick() as stick:
            assert stick.time_ns(workloads.Request("solve", args)) > 0
            assert stick.time_ns(workloads.Request("solve", args, workloads.cli_argv("solve", args))) > 0
        assert stick.proc.returncode == 0


class TestSeeding:
    @pytest.mark.parametrize("workload", ["deep-n", "cli-mix"])
    def test_same_seed_same_requests(self, workload):
        def draw(seed):
            stream = workloads.blocks(workload, seed, reference.Reference())
            return [(r.cmd, r.args, r.argv) for block in islice(stream, 2) for r in block]

        assert draw(5) == draw(5)
        assert draw(5) != draw(6)

    def test_long_period_requests_fall_in_their_strata(self):
        block = next(workloads.blocks("long-period", 3, reference.Reference()))
        lengths = sorted(len(reference.period(r.args["d"])[1]) for r in block)
        assert len(lengths) == workloads.LONG_PERIOD_STRATA
        assert workloads.L_MIN <= lengths[0] and lengths[-1] <= workloads.L_MAX

    def test_cli_mix_solves_print_within_the_digit_limit(self):
        stream = workloads.blocks("cli-mix", 1, reference.Reference())
        solves = [r.args for block in islice(stream, 20) for r in block if r.cmd == "solve"]
        assert max(args["n"] for args in solves) > 100
        for args in solves:
            x1, y1 = reference.fundamental_exact(args["d"])
            x, y = reference.quadratic_power(args["d"], x1, y1, args["n"])
            assert math.log10(x) < workloads.MAX_DIGITS - 1

    def test_cli_argv_is_accepted_and_keeps_negative_z(self):
        argv = workloads.cli_argv("redei", {"d": 7, "z": Fraction(-3, 5), "n": 4, "format": "json"})
        assert argv == ("redei", "--d=7", "--z=-3/5", "--n=4", "--format=json")
        req = workloads.Request("redei", {"d": 7, "z": Fraction(-3, 5), "n": 4, "format": "json"}, argv)
        c = client.Client(reference.Reference())
        assert c.send(req).failure is None

    def test_cli_mix_is_seventy_percent_solve(self):
        block = next(workloads.blocks("cli-mix", 1, reference.Reference()))
        assert sum(r.cmd == "solve" for r in block) / len(block) == pytest.approx(0.7)


class TestReference:
    def test_period_matches_program(self):
        for d in NONSQUARES + [10**9 + 7]:
            a0, terms = reference.period(d)
            expansion = sqrt_cf(d)
            assert (a0, terms) == (expansion.a0, expansion.period)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_residues_match_pellsolver(self, strategy):
        ref = reference.Reference()
        for d in NONSQUARES:
            for n in range(1, 6):
                sol = PellSolver(d).nth_solution(n, strategy)
                prime = reference.PRIME
                assert ref.radicand(d).solution_mod(n) == (sol.x % prime, sol.y % prime)

    def test_redei_pair_matches_program(self):
        for d, z, n in [(2, Fraction(2), 4), (7, Fraction(-3, 5), 9), (13, Fraction(0), 3), (5, Fraction(1, 2), 0)]:
            pair = redei_pair_fast(d, z, n)
            assert reference.redei_pair(d, z, n) == (pair.num, pair.den)

    def test_parse_beyond_the_digit_limit(self):
        text = "1234567890" * 1000
        value = 1234567890 * (10**10000 - 1) // (10**10 - 1)
        assert reference.parse_int(text) == value
        assert reference.parse_int("-" + text) == -value
        assert reference.parse_fraction(text + "/7") == Fraction(value, 7)
        with pytest.raises(ValueError):
            reference.parse_int("12a")


class TestChecks:
    def test_library_answer_is_checked(self):
        req = workloads.Request("solve", {"d": 61, "n": 3, "strategy": "power"})
        sol = PellSolver(61).nth_solution(3)
        assert checks.check(req, sol, reference.Reference()) == sol.x.bit_length() + sol.y.bit_length()
        wrong = workloads.Request("solve", {"d": 61, "n": 2, "strategy": "power"})
        with pytest.raises(checks.WrongAnswer):
            checks.check(wrong, sol, reference.Reference())

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_cli_output_is_checked(self, fmt):
        args = {"d": 13, "n": 2, "strategy": "cf", "format": fmt}
        req = workloads.Request("solve", args, workloads.cli_argv("solve", args))
        c = client.Client(reference.Reference())
        assert c.send(req).failure is None
        tampered = c._call(req).replace("842401", "842400")
        assert "842400" in tampered
        with pytest.raises(checks.WrongAnswer):
            checks.check(req, tampered, c.ref)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_digit_limit_crash_is_classified(self, fmt):
        args = {"d": 2, "n": 10000, "strategy": "redei", "format": fmt}
        req = workloads.Request("solve", args, workloads.cli_argv("solve", args))
        c = client.Client(reference.Reference())
        assert c.send(req).failure == "int_str_limit"
        assert c.failures == {"int_str_limit": 1}
        assert "integer string conversion" in c.tracebacks["int_str_limit"]

    def test_usage_error_and_exit_code_are_classified(self):
        c = client.Client(reference.Reference())
        usage = workloads.Request("solve", {"d": 2, "n": 1}, ("solve", "--d=0"))
        square = workloads.Request("solve", {"d": 4, "n": 1}, ("solve", "--d=4"))
        assert c.send(usage).failure == "usage"
        assert c.send(square).failure == "exit_code"

    def test_cf_redei_and_verify_outputs_pass(self):
        c = client.Client(reference.Reference())
        for fmt in ("text", "json"):
            for cmd, args in [
                ("cf", {"d": 7, "terms": 4}),
                ("redei", {"d": 2, "z": Fraction(2), "n": 0}),
                ("redei", {"d": 7, "z": Fraction(-3, 5), "n": 9}),
                ("verify", {"d_max": 12, "n_max": 2}),
            ]:
                args = {**args, "format": fmt}
                assert c.send(workloads.Request(cmd, args, workloads.cli_argv(cmd, args))).failure is None
        assert not c.failures


class TestSpans:
    def test_split_pass_follows_the_program_order(self):
        rec = spans.Recorder()
        args = {"d": 13, "n": 3, "strategy": "redei", "format": "text"}
        digits = spans.split(rec, 0, workloads.Request("solve", args, workloads.cli_argv("solve", args)))
        assert [name for _, name, *_ in rec.spans] == ["expand", "fundamental", "check", "exponentiate.redei", "check"]
        sol = PellSolver(13).nth_solution(3)
        assert digits == len(str(sol.x)) + len(str(sol.y))

    def test_per_layer_figures_are_means_per_request(self):
        rec = spans.Recorder()
        for rid in range(4):
            rec.add(rid, "request", None, 0, 10_000_000, {"cli": True})
            rec.add(rid, "check", "split", 0, 2_000_000, {})
            rec.add(rid, "check", "split", 0, 2_000_000, {})
            rec.add(rid, "split", None, 0, 5_000_000, {"digits": 7})
        metrics = spans.per_layer(rec)
        assert metrics["check.calls"] == 2.0 and metrics["check.busy_ms"] == pytest.approx(4.0)
        assert metrics["cli.self_ms"] == pytest.approx(6.0) and metrics["format.digits"] == 7.0
        assert metrics["trace.overhead_ratio"] == pytest.approx(0.5)

    def test_per_layer_figures(self):
        c = client.Client(reference.Reference())
        blocks = workloads.blocks("cli-mix", 2, c.ref)
        outcomes, rec = client.run_traced(c, blocks, 0.01)
        metrics = spans.per_layer(rec)
        assert set(metrics) | {"format.fail", "fail_ratio"} == set(run.units("per_layer"))
        assert metrics["check.calls"] > 0 and metrics["expand.calls"] > 0
        assert metrics["cli.self_ms"] > 0 and metrics["trace.overhead_ratio"] > 0


def test_benchmark_json_names_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
