"""Acceptance suite: one test and one printed verdict line per criterion.

Each test exercises a must-hold behavior over its full stated range and
prints a single PASS/FAIL line to the real stdout (bypassing pytest's
capture) so the verdicts are visible in any run log.  Randomized checks
use fixed seeds; counts and ranges are part of the contract, so do not
shrink them to make a run faster.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from oracles import (
    brute_is_square,
    dickson_sum,
    pell_by_convergent_scan,
    random_fraction,
    random_nonsquare,
)
from pellredei import (
    INF,
    HyperbolaPoint,
    LineGroup,
    PellSolver,
    QuadraticElement,
    Strategy,
    convergents,
    decimal_digits,
    dickson,
    from_parameter,
    minimal_solution,
    redei_pair_fast,
    redei_rational,
    sqrt_cf,
    to_parameter,
)


@pytest.fixture
def verdict(capsys):
    """One PASS/FAIL line per criterion, written past the capture machinery."""

    def _report(number: int, ok: bool, detail: str) -> None:
        word = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"{word} [criterion {number}] {detail}", flush=True)

    return _report


def _same(a, b) -> bool:
    if a is INF or b is INF:
        return a is b
    return a == b


def test_c1_fundamental_solutions_match_scan_oracle(verdict):
    start = time.perf_counter()
    failures = []
    for d in range(2, 501):
        if brute_is_square(d):
            continue
        sol = minimal_solution(d)
        if sol.x * sol.x - d * sol.y * sol.y != 1:
            failures.append(f"d={d}: off the curve")
        _, p, q = pell_by_convergent_scan(d)
        if (sol.x, sol.y) != (p, q):
            failures.append(f"d={d}: got ({sol.x}, {sol.y}), oracle ({p}, {q})")
    for d, expected in ((2, (3, 2)), (3, (2, 1)), (61, (1766319049, 226153980))):
        sol = minimal_solution(d)
        if (sol.x, sol.y) != expected:
            failures.append(f"spot value d={d}: got ({sol.x}, {sol.y})")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 5.0
    verdict(
        1,
        ok,
        f"minimal solutions for every nonsquare d <= 500 match the convergent-scan "
        f"oracle and spot values, {elapsed:.2f}s (budget 5s)",
    )
    assert not failures, failures[:5]
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_c2_fundamental_index_follows_period_parity(verdict):
    failures = []
    for d in range(2, 501):
        if brute_is_square(d):
            continue
        solver = PellSolver(d)
        oracle_index, _, _ = pell_by_convergent_scan(d)
        length = solver.period_length
        rule_index = length - 1 if length % 2 == 0 else 2 * length - 1
        if solver.fundamental_index != oracle_index:
            failures.append(f"d={d}: used index {solver.fundamental_index}, oracle {oracle_index}")
        if rule_index != oracle_index:
            failures.append(f"d={d}: parity rule gives {rule_index}, oracle {oracle_index}")
    ok = not failures
    verdict(
        2,
        ok,
        "parity rule (L-1 for even L, 2L-1 for odd) reproduces the scan index "
        "for every nonsquare d <= 500, 0 mismatches allowed",
    )
    assert not failures, failures[:5]


def test_c3_redei_values_equal_convergents_exactly(verdict):
    start = time.perf_counter()
    failures = []
    for d in range(2, 101):
        if brute_is_square(d):
            continue
        solver = PellSolver(d)
        for n in range(1, 11):
            report = solver.correspondence_check(n)
            if not report.equal:
                failures.append(
                    f"d={d}, n={n}: {report.redei_value} != {report.convergent_value}"
                )
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    verdict(
        3,
        ok,
        f"index-2n value at the minimal slope equals the indexed convergent for "
        f"all nonsquare d <= 100, 1 <= n <= 10, {elapsed:.2f}s (budget 10s)",
    )
    assert not failures, failures[:5]
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_c4_redei_algebra_randomized(verdict):
    rng = random.Random(814004)
    failures = []

    def draw_z():
        return Fraction(0) if rng.random() < 0.08 else random_fraction(rng)

    for _ in range(1000):
        d = random_nonsquare(rng, 2, 10_000)
        z = draw_z()
        n, m = rng.randint(0, 50), rng.randint(0, 50)
        lhs = redei_rational(d, z, n + m)
        rhs = LineGroup(d).mul(redei_rational(d, z, n), redei_rational(d, z, m))
        if not _same(lhs, rhs):
            failures.append(f"additive d={d} z={z} n={n} m={m}")

    done = 0
    while done < 500:
        d = random_nonsquare(rng, 2, 10_000)
        z = draw_z()
        n, m = rng.randint(1, 20), rng.randint(1, 20)
        inner = redei_rational(d, z, m)
        if inner is INF:
            continue
        if not _same(redei_rational(d, z, n * m), redei_rational(d, inner, n)):
            failures.append(f"multiplicative d={d} z={z} n={n} m={m}")
        done += 1

    for _ in range(1000):
        d = random_nonsquare(rng, 2, 10_000)
        z = draw_z()
        n = rng.randint(0, 50)
        pair = redei_pair_fast(d, z, n)
        if pair.num**2 - d * pair.den**2 != (z * z - d) ** n:
            failures.append(f"determinant d={d} z={z} n={n}")

    ok = not failures
    verdict(
        4,
        ok,
        "index addition (1000 cases), composition of indices (500), and the "
        "norm identity num^2 - d*den^2 = (z^2-d)^n (1000) all hold exactly",
    )
    assert not failures, failures[:5]


def test_c5_group_axioms_and_isomorphisms_randomized(verdict):
    rng = random.Random(814005)
    failures = []

    def line_point():
        return INF if rng.random() < 0.1 else random_fraction(rng)

    for _ in range(500):
        d = random_nonsquare(rng)
        g = LineGroup(d)
        x, y, z = (line_point() for _ in range(3))
        if not _same(g.mul(x, y), g.mul(y, x)):
            failures.append(f"line commutativity d={d}")
        if not _same(g.mul(g.mul(x, y), z), g.mul(x, g.mul(y, z))):
            failures.append(f"line associativity d={d} x={x} y={y} z={z}")
        if not _same(g.mul(x, INF), x) or g.mul(x, g.inverse(x)) is not INF:
            failures.append(f"line identity/inverse d={d} x={x}")

    def curve_point(d):
        if rng.random() < 0.08:
            return HyperbolaPoint.identity(d)
        return from_parameter(d, random_fraction(rng))

    for _ in range(500):
        d = random_nonsquare(rng)
        e = HyperbolaPoint.identity(d)
        p, q, r = (curve_point(d) for _ in range(3))
        if p * q != q * p or (p * q) * r != p * (q * r):
            failures.append(f"curve group law d={d}")
        if p * e != p or p * p.conjugate() != e:
            failures.append(f"curve identity/inverse d={d}")

    for _ in range(500):
        d = random_nonsquare(rng)
        g = LineGroup(d)
        p = QuadraticElement(random_fraction(rng), random_fraction(rng), d)
        q = QuadraticElement(random_fraction(rng), random_fraction(rng), d)
        if not p or not q:
            continue
        if not _same(
            g.from_multiplicative(p * q),
            g.mul(g.from_multiplicative(p), g.from_multiplicative(q)),
        ):
            failures.append(f"field transport d={d} p={p} q={q}")

    for _ in range(500):
        d = random_nonsquare(rng)
        m = INF if rng.random() < 0.1 else random_fraction(rng)
        if not _same(to_parameter(from_parameter(d, m)), m):
            failures.append(f"chart round trip d={d} m={m}")
        p = curve_point(d)
        if from_parameter(d, to_parameter(p)) != p:
            failures.append(f"chart round trip (point side) d={d}")

    for _ in range(500):
        d = random_nonsquare(rng)
        g = LineGroup(d)
        p, q = curve_point(d), curve_point(d)
        if not _same(to_parameter(p * q), g.mul(to_parameter(p), to_parameter(q))):
            failures.append(f"chart homomorphism d={d}")

    ok = not failures
    verdict(
        5,
        ok,
        "500 randomized checks each: line-group axioms, curve-group axioms, "
        "multiplicativity of the field transport, chart round trips, and the "
        "chart homomorphism",
    )
    assert not failures, failures[:5]


def test_c6_powers_equal_brute_folds(verdict):
    rng = random.Random(814006)
    failures = []

    for _ in range(100):
        d = random_nonsquare(rng, 2, 300)
        base = from_parameter(d, random_fraction(rng, max_num=9, max_den=4))
        acc = HyperbolaPoint.identity(d)
        for n in range(65):
            if base**n != acc:
                failures.append(f"curve power d={d} n={n}")
                break
            acc = acc * base

    for _ in range(100):
        d = random_nonsquare(rng, 2, 300)
        g = LineGroup(d)
        z = random_fraction(rng, max_num=9, max_den=4)
        acc = INF
        for n in range(65):
            if not _same(g.pow(z, n), acc):
                failures.append(f"line power d={d} z={z} n={n}")
                break
            acc = g.mul(acc, z)

    ok = not failures
    verdict(
        6,
        ok,
        "binary and recurrence-based powers equal the n-fold product for "
        "0 <= n <= 64 on 100 random curve bases and 100 random line bases",
    )
    assert not failures, failures[:5]


def test_c7_dickson_identity_randomized(verdict):
    rng = random.Random(814007)
    failures = []

    for _ in range(500):
        d = random_nonsquare(rng)
        z = random_fraction(rng, max_num=6, max_den=4)
        n = rng.randint(0, 100)
        pair = redei_pair_fast(d, z, n)
        if dickson(z * z - d, 2 * z, n) != 2 * pair.num:
            failures.append(f"numerator relation d={d} z={z} n={n}")

    for _ in range(500):
        a = random_fraction(rng, max_num=6, max_den=4)
        x = random_fraction(rng, max_num=6, max_den=4)
        n = rng.randint(0, 60)
        if dickson(a, x, n) != dickson_sum(a, x, n):
            failures.append(f"sum formula a={a} x={x} n={n}")

    ok = not failures
    verdict(
        7,
        ok,
        "500 randomized checks each: twice the pair numerator equals the "
        "degree-n Dickson value, and recurrence equals the explicit sum",
    )
    assert not failures, failures[:5]


def test_c8_logarithmic_strategies_beat_linear_fold(verdict):
    d, n = 2, 10_000
    solver = PellSolver(d)
    solver.fundamental  # keep setup out of the timed region

    start = time.perf_counter_ns()
    linear = next(itertools.islice(solver.solutions(), n - 1, None))
    t_linear = time.perf_counter_ns() - start

    start = time.perf_counter_ns()
    by_power = solver.nth_solution(n, Strategy.POWER)
    t_power = time.perf_counter_ns() - start

    start = time.perf_counter_ns()
    by_redei = solver.nth_solution(n, Strategy.REDEI)
    t_redei = time.perf_counter_ns() - start

    identical = (linear.x, linear.y) == (by_power.x, by_power.y) == (by_redei.x, by_redei.y)

    digits = {
        k: decimal_digits(solver.nth_solution(k, Strategy.REDEI).x) for k in (100, 1000)
    }
    digits[n] = decimal_digits(by_redei.x)
    predicted = digits[1000] + (digits[1000] - digits[100]) / 900 * (n - 1000)
    growth_linear = abs(digits[n] - predicted) <= 1

    speedup_power = t_linear / t_power
    speedup_redei = t_linear / t_redei
    ok = identical and growth_linear and speedup_power >= 10 and speedup_redei >= 10
    verdict(
        8,
        ok,
        f"d=2, n=10^4: outputs bit-identical; linear fold {t_linear/1e6:.0f}ms vs "
        f"binary power {t_power/1e6:.1f}ms ({speedup_power:.0f}x) and fast pair "
        f"{t_redei/1e6:.1f}ms ({speedup_redei:.0f}x), both >= 10x; digit count "
        f"{digits[n]} within 1 of linear extrapolation {predicted:.1f}",
    )
    assert identical
    assert growth_linear, (digits, predicted)
    assert speedup_power >= 10, f"power only {speedup_power:.1f}x faster"
    assert speedup_redei >= 10, f"fast pair only {speedup_redei:.1f}x faster"


def test_c9_continued_fraction_self_checks(verdict):
    failures = []
    for d in range(2, 1001):
        if brute_is_square(d):
            continue
        cf = sqrt_cf(d)
        if cf.period[-1] != 2 * cf.a0:
            failures.append(f"d={d}: period does not close with 2*a0")
        interior = cf.period[:-1]
        if interior != interior[::-1]:
            failures.append(f"d={d}: interior not palindromic")
        limit = 2 * cf.period_length + 1
        stream = list(itertools.islice(convergents(cf), limit))
        for prev, cur in zip(stream, stream[1:]):
            if cur.p * prev.q - prev.p * cur.q != (-1) ** (cur.k - 1):
                failures.append(f"d={d}, k={cur.k}: determinant identity broken")
    ok = not failures
    verdict(
        9,
        ok,
        "for every nonsquare d <= 1000 the period closes with 2*a0, its "
        "interior is palindromic, and p_k*q_(k-1) - p_(k-1)*q_k = (-1)^(k-1) "
        "for k <= 2L",
    )
    assert not failures, failures[:5]
