"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `criterion NN ...: PASS` line (visible under
`pytest -s`); a failing assertion shows up as the test's FAIL instead.
Tolerances are pinned here and nowhere else.
"""

import csv
import io
import math
import time

import numpy as np
import pytest

from pnlattr import (
    AttributionResult,
    Bucket,
    CarryMode,
    CashflowSchedule,
    FxMode,
    GbmSpec,
    Position,
    ReportRow,
    SimulationParams,
    attribute_position,
    covariation_study,
    four_way_split,
    grid_ito_decomposition,
    render_report,
    simulate_paths,
)

from conftest import ScalarState, product_rule


def _ok(number: int, label: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} {label}: PASS{suffix}")


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _random_instance(rng):
    """One randomized (pricer, snapshots, grid, coupons) attribution case."""
    c = rng.uniform(-50.0, 50.0, size=7)

    def price(s, r, x):
        return 100.0 + c[0] * s + c[1] * r + c[2] * x + c[3] * r * x + c[4] * s * r \
            + c[5] * x * x + c[6] * s * s

    interior = np.unique(rng.uniform(0.05, 1.95, size=rng.integers(0, 5)))
    grid = [0.0, *interior.tolist(), 2.0]
    snaps = {
        u: ScalarState(
            curve=rng.uniform(-0.02, 0.08),
            factors=rng.uniform(0.0, 0.10),
            fx=rng.uniform(0.5, 2.0),
        )
        for u in grid
    }
    coupon_dates = [u for u in grid[1:] if rng.random() < 0.6]
    schedule = CashflowSchedule(tuple((u, rng.uniform(0.0, 5.0)) for u in coupon_dates))
    position = Position(id="rand", bucket=Bucket.OTHER, pricer=price, schedule=schedule)
    return position, snaps, grid


def test_criterion_01_exact_additivity_over_randomized_instances():
    rng = np.random.default_rng(20220401)
    started = time.perf_counter()
    worst = 0.0
    n_instances = 1000
    for _ in range(n_instances):
        position, snaps, grid = _random_instance(rng)
        _, aggregate = attribute_position(position, snaps, grid,
                                          carry_mode=CarryMode.CORRECTED)
        # independent total: endpoint telescope plus coupons at the
        # average quote around each payment date
        price = position.pricer
        start, end = grid[0], grid[-1]
        expected = (
            price(end, snaps[end].curve, snaps[end].factors) * snaps[end].fx
            - price(start, snaps[start].curve, snaps[start].factors) * snaps[start].fx
        )
        for d, amount in position.schedule.entries:
            prev = max(u for u in grid if u < d)
            expected += amount * 0.5 * (snaps[prev].fx + snaps[d].fx)
        parts_sum = aggregate.fx + aggregate.rate + aggregate.market + aggregate.carry
        worst = max(worst, _rel_gap(parts_sum, expected), _rel_gap(aggregate.total, expected))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-9
    assert elapsed < 10.0
    _ok(1, "exact additivity", f"{n_instances} instances, worst rel gap {worst:.2e}, {elapsed:.2f}s")


def _reference_split(price, t, T, r_t, x_t, chi_t, r_T, x_T, chi_T):
    # independent transcription of the two-point average split, written
    # against the raw price evaluations with the other carry grouping
    a_t = price(t, r_t, x_t)
    a_T = price(T, r_T, x_T)
    fx = (a_t + a_T) / 2.0 * (chi_T - chi_t)
    w = (chi_t + chi_T) / 2.0
    rate = w * ((price(T, r_T, x_T) - price(T, r_t, x_T)) / 2.0
                + (price(t, r_T, x_t) - price(t, r_t, x_t)) / 2.0)
    market = w * ((price(T, r_T, x_T) - price(T, r_T, x_t)) / 2.0
                  + (price(t, r_t, x_T) - price(t, r_t, x_t)) / 2.0)
    carry = w * ((price(T, r_T, x_t) - price(t, r_T, x_t)) / 2.0
                 + (price(T, r_t, x_T) - price(t, r_t, x_T)) / 2.0)
    return fx, rate, market, carry


def test_criterion_02_eight_evaluation_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        c = rng.uniform(-100.0, 100.0, size=6)

        def price(s, r, x):
            return c[0] + c[1] * s + c[2] * r + c[3] * x + c[4] * r * x + c[5] * s * x

        r_t, r_T = rng.uniform(-0.05, 0.15, size=2)
        x_t, x_T = rng.uniform(-0.1, 0.2, size=2)
        chi_t, chi_T = rng.uniform(0.5, 2.0, size=2)
        t, T = 0.0, float(rng.uniform(0.1, 3.0))
        result = four_way_split(
            price, t, T,
            ScalarState(r_t, x_t, chi_t), ScalarState(r_T, x_T, chi_T),
            FxMode.AVERAGE,
        )
        ref = _reference_split(price, t, T, r_t, x_t, chi_t, r_T, x_T, chi_T)
        for got, want in zip((result.fx, result.rate, result.market, result.carry), ref):
            worst = max(worst, _rel_gap(got, want))
    assert worst <= 1e-12
    _ok(2, "eight-evaluation oracle", f"100 instances, worst rel gap {worst:.2e}")


def test_criterion_03_linear_pricer_closed_forms():
    alpha, theta, beta, gamma = 100.0, 2.0, -500.0, -300.0

    def price(s, r, x):
        return alpha + theta * s + beta * r + gamma * x

    t, T = 0.0, 1.0
    r_t, r_T, x_t, x_T = 0.01, 0.03, 0.02, 0.01
    result = four_way_split(price, t, T, ScalarState(r_t, x_t, 1.0), ScalarState(r_T, x_T, 1.0))
    assert _rel_gap(result.carry, theta * (T - t)) <= 1e-12
    assert _rel_gap(result.rate, beta * (r_T - r_t)) <= 1e-12
    assert _rel_gap(result.market, gamma * (x_T - x_t)) <= 1e-12
    assert _rel_gap(result.rate, -10.0) <= 1e-12
    assert _rel_gap(result.market, 3.0) <= 1e-12
    assert _rel_gap(result.carry, 2.0) <= 1e-12
    assert _rel_gap(result.total, -5.0) <= 1e-12
    _ok(3, "linear-pricer closed forms", "(rate, market, carry, total) = (-10, +3, +2, -5)")


def test_criterion_04_published_part_arithmetic():
    fx, carry, market, rate, costs = 328_220.0, 47_568.0, 79_746.0, -141_820.0, 6_268.0
    result = AttributionResult(fx=fx, rate=rate, market=market, carry=carry,
                               total=fx + rate + market + carry)
    row = ReportRow("BASIS_PACKAGE", Bucket.MATCHED_BASIS.value, result.fx, result.rate,
                    result.market, result.carry, costs, result.total)
    records = list(csv.DictReader(io.StringIO(render_report([row], "csv"))))
    rendered = {r["position"]: r for r in records}["BASIS_PACKAGE"]
    total = float(rendered["total_eur"])
    hedged = float(rendered["hedged_eur"])
    assert abs(total - 313_710.0) <= 10.0
    assert abs(hedged - 121_042.0) <= 10.0
    _ok(4, "published part arithmetic", f"total {total:.0f} EUR, hedged {hedged:.0f} EUR")


def test_criterion_05_bucket_rollup_in_bps():
    nav = 100_000_000.0
    bucket_bps = {
        Bucket.CAPITAL_STRUCTURE: 8.0,
        Bucket.SENIOR_SUB: 87.0,
        Bucket.MISMATCH_BASIS: 30.0,
        Bucket.MATCHED_BASIS: 2.0,
        Bucket.OTHER: 0.0,
    }
    rows = [
        ReportRow(f"{bucket.value}_book", bucket.value, 0.0, 0.0, 0.0,
                  points * nav / 10_000.0, 0.0, points * nav / 10_000.0)
        for bucket, points in bucket_bps.items()
    ]
    standalones = [
        ("CASH PARKING", -7.0 * nav / 10_000.0),
        ("FEES", -30.0 * nav / 10_000.0),
        ("IR HEDGE COSTS", -34.0 * nav / 10_000.0),
        ("FX COSTS/DISCREPANCY", -4.0 * nav / 10_000.0),
        ("OTHER COSTS", -3.0 * nav / 10_000.0),
    ]
    text = render_report(rows, "csv", nav=nav, standalone_lines=standalones)
    records = {(r["position"], r["bucket"]): r for r in csv.DictReader(io.StringIO(text))}
    positions_bps = float(records[("POSITIONS", "")]["total_bps"])
    total_bps = float(records[("TOTAL", "")]["total_bps"])
    assert positions_bps == 127.0
    assert total_bps == 49.0
    _ok(5, "bucket rollup", f"POSITIONS {positions_bps:.0f} bps, TOTAL {total_bps:.0f} bps")


def test_criterion_06_discrete_product_identity():
    three_point = product_rule([100.0, 105.0, 110.0], [1.0, 1.1, 1.2])
    assert _rel_gap(three_point.fine_fx[0], 20.5) <= 1e-12
    assert _rel_gap(three_point.fine_asset[0], 10.5) <= 1e-12
    assert _rel_gap(three_point.covariation[0], 1.0) <= 1e-12
    assert _rel_gap(
        three_point.fine_fx[0] + three_point.fine_asset[0] + three_point.covariation[0], 32.0
    ) <= 1e-12

    diffusions = SimulationParams(processes=(
        GbmSpec("asset", initial=100.0, drift=0.05, volatility=0.25),
        GbmSpec("fx", initial=1.1, drift=-0.01, volatility=0.12),
    ))
    with_jumps = SimulationParams(
        processes=(
            GbmSpec("asset", initial=100.0, volatility=0.2, jump_size=0.08),
            GbmSpec("fx", initial=1.1, volatility=0.1, jump_size=-0.05),
        ),
        jump_intensity=5.0,
    )
    worst = 0.0
    for params in (diffusions, with_jumps):
        for seed in range(50):
            paths = simulate_paths(params, n_steps=128, seed=seed)
            a, chi = paths.paths["asset"], paths.paths["fx"]
            dec = product_rule(a, chi)
            gap = abs(dec.fine_fx[0] + dec.fine_asset[0] + dec.covariation[0]
                      - (a[-1] * chi[-1] - a[0] * chi[0]))
            worst = max(worst, gap / max(1.0, abs(a[-1] * chi[-1]), abs(a[0] * chi[0])))
    assert worst <= 1e-12
    _ok(6, "discrete product identity",
        f"(20.5, 10.5, 1.0) -> 32.0; 100 simulated paths, worst rel gap {worst:.2e}")


def test_criterion_07_covariation_vanishes_under_independence():
    params = SimulationParams(processes=(
        GbmSpec("asset", initial=100.0, drift=0.0, volatility=0.2),
        GbmSpec("fx", initial=1.0, drift=0.0, volatility=0.1),
    ))
    started = time.perf_counter()
    study = covariation_study(params, n_steps=64, seeds=range(10_000))
    elapsed = time.perf_counter() - started
    mean = study.covariation_mean
    stderr = study.covariation_stderr
    assert abs(mean) < 3.0 * stderr
    assert elapsed < 60.0
    _ok(7, "independent covariation",
        f"10000 seeds: mean {mean:+.4f}, stderr {stderr:.4f}, {elapsed:.1f}s")


def test_criterion_08_carry_mode_divergence():
    prices = {0.0: 98.0, 0.5: 96.5, 1.0: 98.0}
    position = Position(
        id="cpn", bucket=Bucket.OTHER,
        pricer=lambda s, r, x: prices[s],
        schedule=CashflowSchedule(((0.5, 3.0),)),
    )
    snaps = {u: ScalarState(0.0, 0.0, 1.0) for u in prices}
    grid = [0.0, 0.5, 1.0]
    _, corrected = attribute_position(position, snaps, grid, carry_mode=CarryMode.CORRECTED)
    _, literal = attribute_position(position, snaps, grid, carry_mode=CarryMode.LITERAL)
    assert corrected.carry == pytest.approx(3.0, abs=1e-12)
    assert corrected.total == pytest.approx(3.0, abs=1e-12)
    assert literal.carry == pytest.approx(0.0, abs=1e-12)
    _ok(8, "carry-mode divergence", "corrected carry 3.0 equals total; literal carry 0.0")


def test_criterion_09_taylor_oracle_convergence():
    def price(s, r, x):
        return (100.0 + 10.0 * s) * (1.0 - 2.0 * r + 30.0 * r * r) + 5.0 * x

    def residual(n):
        # half-period swing: the rate path must not return to its start,
        # or the leading cross-term error cancels and only noise is left
        grid = np.linspace(0.0, 1.0, n + 1)
        path_r = 0.02 + 0.015 * np.sin(0.5 * math.pi * grid)
        path_x = 0.05 - 0.02 * grid
        return abs(grid_ito_decomposition(price, path_r, path_x, grid).residual)

    coarse, fine = residual(16), residual(1024)
    assert fine < coarse
    _ok(9, "taylor oracle convergence", f"residual {coarse:.3e} at n=16 -> {fine:.3e} at n=1024")


def test_criterion_10_mode_totals_reconcile():
    def price(s, r, x):
        return 100.0 + 4.0 * s - 300.0 * r - 150.0 * x

    snaps = {
        0.0: ScalarState(0.010, 0.030, 1.22),
        0.4: ScalarState(0.018, 0.025, 1.15),
        1.0: ScalarState(0.025, 0.020, 1.10),
    }
    grid = [0.0, 0.4, 1.0]
    plain = Position(id="plain", bucket=Bucket.OTHER, pricer=price)
    totals = [
        attribute_position(plain, snaps, grid, fx_mode, carry_mode)[1].total
        for fx_mode, carry_mode in (
            (FxMode.AVERAGE, CarryMode.CORRECTED),
            (FxMode.START_END, CarryMode.CORRECTED),
            (FxMode.AVERAGE, CarryMode.SOPHIS),
        )
    ]
    assert _rel_gap(totals[0], totals[1]) <= 1e-12
    assert _rel_gap(totals[0], totals[2]) <= 1e-12

    coupon_amount = 3.0
    with_coupon = Position(id="cpn", bucket=Bucket.OTHER, pricer=price,
                           schedule=CashflowSchedule(((0.4, coupon_amount),)))
    _, corrected = attribute_position(with_coupon, snaps, grid,
                                      carry_mode=CarryMode.CORRECTED)
    _, sophis = attribute_position(with_coupon, snaps, grid, carry_mode=CarryMode.SOPHIS)
    chi_T = snaps[1.0].fx
    chi_avg = 0.5 * (snaps[0.0].fx + snaps[0.4].fx)
    expected_gap = coupon_amount * (chi_T - chi_avg)
    assert _rel_gap(sophis.total - corrected.total, expected_gap) <= 1e-12
    _ok(10, "mode totals reconcile",
        f"no-coupon totals agree; coupon gap {sophis.total - corrected.total:+.4f} EUR as predicted")
