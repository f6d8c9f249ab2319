import json

import pytest

from pnlattr import (
    AttributionResult,
    Bucket,
    CarryMode,
    CashflowSchedule,
    DuplicatePositionId,
    EmptyPeriod,
    FxMode,
    MissingSnapshot,
    Portfolio,
    Position,
    PricerEvaluationFailed,
    ScheduleOutsideGrid,
    Transaction,
    attribute_portfolio,
    attribute_position,
    build_report_rows,
    four_way_split,
    fx_split,
    render_report,
    segment_period,
)

from conftest import ScalarState


def linear_pricer(alpha=100.0, theta=2.0, beta=-500.0, gamma=-300.0):
    def price(s, r, x):
        return alpha + theta * s + beta * r + gamma * x
    return price


def test_fx_split_average_worked_example():
    fx_part, asset_part = fx_split(100.0, 110.0, 1.0, 1.2, FxMode.AVERAGE)
    assert fx_part == pytest.approx(21.0, rel=1e-12)
    assert asset_part == pytest.approx(11.0, rel=1e-12)
    assert fx_part + asset_part == pytest.approx(110 * 1.2 - 100 * 1.0, rel=1e-12)


def test_fx_split_start_end_worked_example():
    fx_part, asset_part = fx_split(100.0, 110.0, 1.0, 1.2, FxMode.START_END)
    assert fx_part == pytest.approx(20.0, rel=1e-12)
    assert asset_part == pytest.approx(12.0, rel=1e-12)
    assert fx_part + asset_part == pytest.approx(110 * 1.2 - 100 * 1.0, rel=1e-12)


def test_fx_split_no_move_gives_zero_fx_in_both_modes():
    for mode in FxMode:
        fx_part, _ = fx_split(100.0, 137.5, 1.1, 1.1, mode)
        assert fx_part == 0.0


def test_four_way_linear_worked_example():
    snap_t = ScalarState(curve=0.01, factors=0.02, fx=1.0)
    snap_T = ScalarState(curve=0.03, factors=0.01, fx=1.0)
    res = four_way_split(linear_pricer(), 0.0, 1.0, snap_t, snap_T)
    assert res.rate == pytest.approx(-10.0, rel=1e-12)
    assert res.market == pytest.approx(3.0, rel=1e-12)
    assert res.carry == pytest.approx(2.0, rel=1e-12)
    assert res.fx == 0.0
    assert res.total == pytest.approx(-5.0, rel=1e-12)


def test_four_way_zero_change_is_exactly_zero():
    snap = ScalarState(curve=0.02, factors=0.05, fx=1.3)
    def timeless(s, r, x):
        return 80.0 - 400 * r + 250 * x
    res = four_way_split(timeless, 0.0, 1.0, snap, snap)
    assert (res.fx, res.rate, res.market, res.carry, res.total) == (0.0, 0.0, 0.0, 0.0, 0.0)


def test_four_way_fx_and_time_only():
    snap_t = ScalarState(curve=0.01, factors=0.02, fx=1.0)
    snap_T = ScalarState(curve=0.01, factors=0.02, fx=1.2)
    res = four_way_split(linear_pricer(), 0.0, 1.0, snap_t, snap_T)
    a_t = 100 + 0 - 5 - 6
    a_T = a_t + 2.0
    assert res.rate == 0.0
    assert res.market == 0.0
    assert res.carry == pytest.approx(1.1 * 2.0, rel=1e-12)
    assert res.fx == pytest.approx((a_t + a_T) / 2 * 0.2, rel=1e-12)


def test_rate_market_symmetry_under_variable_swap():
    def price(s, r, x):
        return 10.0 + 3.0 * s + 40.0 * r - 25.0 * x + 7.0 * r * x
    def swapped(s, r, x):
        return price(s, x, r)
    a = four_way_split(price, 0.0, 1.0,
                       ScalarState(0.01, 0.06, 1.0), ScalarState(0.04, 0.02, 1.0))
    b = four_way_split(swapped, 0.0, 1.0,
                       ScalarState(0.06, 0.01, 1.0), ScalarState(0.02, 0.04, 1.0))
    assert a.rate == b.market
    assert a.market == b.rate
    assert a.carry == b.carry
    assert a.total == b.total


def test_four_way_modes_share_the_total():
    snap_t = ScalarState(curve=0.01, factors=0.05, fx=1.22)
    snap_T = ScalarState(curve=0.025, factors=0.03, fx=1.10)
    avg = four_way_split(linear_pricer(), 0.0, 0.8, snap_t, snap_T, FxMode.AVERAGE)
    se = four_way_split(linear_pricer(), 0.0, 0.8, snap_t, snap_T, FxMode.START_END)
    assert avg.total == pytest.approx(se.total, rel=1e-14)
    assert avg.fx != pytest.approx(se.fx, rel=1e-6)


def test_four_way_reports_which_evaluation_failed():
    def fragile(s, r, x):
        if s == 0.0 and r == 0.03:
            raise RuntimeError("boom")
        return 1.0
    with pytest.raises(PricerEvaluationFailed, match="start price under end curve"):
        four_way_split(fragile, 0.0, 1.0,
                       ScalarState(0.01, 0.0, 1.0), ScalarState(0.03, 0.0, 1.0))
    def nan_price(s, r, x):
        return float("nan") if s == 1.0 else 1.0
    with pytest.raises(PricerEvaluationFailed, match="non-finite"):
        four_way_split(nan_price, 0.0, 1.0,
                       ScalarState(0.01, 0.0, 1.0), ScalarState(0.03, 0.0, 1.0))


def test_attribution_result_rejects_bad_sums():
    with pytest.raises(ValueError):
        AttributionResult(fx=1.0, rate=1.0, market=1.0, carry=1.0, total=5.0)
    ok = AttributionResult(fx=1.0, rate=1.0, market=1.0, carry=1.0, total=4.0)
    assert ok.residual == 0.0


def test_segment_period_degenerate_and_union():
    empty = Position(id="p", bucket=Bucket.OTHER, pricer=lambda s, r, x: 1.0)
    assert segment_period(empty, 0.0, 1.0) == [0.0, 1.0]

    pos = Position(
        id="p",
        bucket=Bucket.OTHER,
        pricer=lambda s, r, x: 1.0,
        schedule=CashflowSchedule(((0.25, 1.0),)),
        transactions=(Transaction(0.75, 0.5, 10.0), Transaction(1.0, 0.0, 3.0)),
    )
    assert segment_period(pos, 0.0, 1.0) == [0.0, 0.25, 0.75, 1.0]
    with pytest.raises(EmptyPeriod):
        segment_period(pos, 1.0, 1.0)


COUPON_PRICES = {0.0: 98.0, 0.5: 96.5, 1.0: 98.0}


def coupon_position():
    return Position(
        id="cpn",
        bucket=Bucket.OTHER,
        pricer=lambda s, r, x: COUPON_PRICES[s],
        schedule=CashflowSchedule(((0.5, 3.0),)),
    )


def constant_snaps(fx=1.0):
    return {u: ScalarState(0.0, 0.0, fx) for u in (0.0, 0.5, 1.0)}


def test_coupon_example_corrected_start():
    subs, agg = attribute_position(coupon_position(), constant_snaps(), [0.0, 0.5, 1.0])
    assert agg.carry == pytest.approx(3.0, abs=1e-12)
    assert agg.total == pytest.approx(3.0, abs=1e-12)
    assert agg.fx == agg.rate == agg.market == 0.0
    assert [s.carry for s in subs] == [pytest.approx(1.5), pytest.approx(1.5)]


def test_coupon_example_literal_start_loses_the_coupon():
    _, agg = attribute_position(coupon_position(), constant_snaps(), [0.0, 0.5, 1.0],
                                carry_mode=CarryMode.LITERAL)
    assert agg.carry == pytest.approx(0.0, abs=1e-12)
    assert agg.total == pytest.approx(0.0, abs=1e-12)


def test_coupon_fx_weighting_by_carry_mode():
    snaps = {0.0: ScalarState(0.0, 0.0, 1.2), 0.5: ScalarState(0.0, 0.0, 1.1),
             1.0: ScalarState(0.0, 0.0, 1.0)}
    grid = [0.0, 0.5, 1.0]
    _, corrected = attribute_position(coupon_position(), snaps, grid)
    _, sophis = attribute_position(coupon_position(), snaps, grid,
                                   carry_mode=CarryMode.SOPHIS)
    # interior-average weight (1.2 + 1.1)/2 versus period-end weight 1.0
    assert sophis.total - corrected.total == pytest.approx(3.0 * (1.0 - 1.15), rel=1e-12)
    assert sophis.fx == corrected.fx
    assert sophis.rate == corrected.rate
    assert sophis.market == corrected.market


def test_single_subperiod_reduces_to_four_way():
    pos = Position(id="p", bucket=Bucket.OTHER, pricer=linear_pricer())
    snaps = {0.0: ScalarState(0.01, 0.02, 1.1), 1.0: ScalarState(0.03, 0.01, 1.3)}
    subs, agg = attribute_position(pos, snaps, [0.0, 1.0])
    direct = four_way_split(linear_pricer(), 0.0, 1.0, snaps[0.0], snaps[1.0])
    assert subs == [direct]
    assert agg == direct


def test_grid_refinement_keeps_the_total():
    pos = Position(id="p", bucket=Bucket.OTHER, pricer=linear_pricer())
    snaps = {
        0.0: ScalarState(0.01, 0.02, 1.2),
        0.37: ScalarState(0.02, 0.05, 1.17),
        1.0: ScalarState(0.03, 0.01, 1.1),
    }
    _, coarse = attribute_position(pos, snaps, [0.0, 1.0])
    _, fine = attribute_position(pos, snaps, [0.0, 0.37, 1.0])
    assert fine.total == pytest.approx(coarse.total, rel=1e-12)
    # the split itself may move; only the total is pinned


def test_missing_snapshot_and_offgrid_schedule():
    pos = coupon_position()
    with pytest.raises(MissingSnapshot):
        attribute_position(pos, {0.0: ScalarState(0, 0, 1.0), 1.0: ScalarState(0, 0, 1.0)},
                           [0.0, 0.5, 1.0])
    with pytest.raises(ScheduleOutsideGrid):
        attribute_position(pos, {0.0: ScalarState(0, 0, 1.0), 1.0: ScalarState(0, 0, 1.0)},
                           [0.0, 1.0])


def test_quantity_changes_scale_subperiods():
    prices = {0.0: 100.0, 0.5: 104.0, 1.0: 110.0}
    pos = Position(
        id="p",
        bucket=Bucket.OTHER,
        pricer=lambda s, r, x: prices[s],
        transactions=(Transaction(0.5, 1.0, 0.0),),  # doubles the holding
    )
    snaps = {u: ScalarState(0.0, 0.0, 1.0) for u in prices}
    _, agg = attribute_position(pos, snaps, segment_period(pos, 0.0, 1.0))
    assert agg.total == pytest.approx(1 * 4.0 + 2 * 6.0, rel=1e-12)


def test_short_position_flips_signs():
    pos = Position(id="p", bucket=Bucket.HEDGE, pricer=linear_pricer(), notional_sign=-1)
    snaps = {0.0: ScalarState(0.01, 0.02, 1.0), 1.0: ScalarState(0.03, 0.01, 1.0)}
    _, agg = attribute_position(pos, snaps, [0.0, 1.0])
    assert agg.total == pytest.approx(5.0, rel=1e-12)
    assert agg.rate == pytest.approx(10.0, rel=1e-12)


def make_portfolio():
    bond_prices = {0.0: 100.0, 1.0: 103.0}
    hedge_prices = {0.0: 50.0, 1.0: 49.0}
    return Portfolio(positions=(
        Position(id="long", bucket=Bucket.MATCHED_BASIS,
                 pricer=lambda s, r, x: bond_prices[s] - 200 * r,
                 transactions=(Transaction(0.0, 0.0, 2.5),)),
        Position(id="hedge", bucket=Bucket.HEDGE,
                 pricer=lambda s, r, x: hedge_prices[s] + 100 * r),
    ))


def report_tree(result):
    return json.loads(render_report(result, "json"))


def test_portfolio_singleton_equals_position_aggregate():
    portfolio = Portfolio(positions=(make_portfolio().positions[0],))
    snaps = {0.0: ScalarState(0.01, 0.0, 1.0), 1.0: ScalarState(0.02, 0.0, 1.0)}
    result = attribute_portfolio(portfolio, snaps, 0.0, 1.0)
    _, direct = attribute_position(portfolio.positions[0], snaps, [0.0, 1.0])
    assert result.positions[0].aggregate == direct
    expected = {"fx_eur": direct.fx, "rate_eur": direct.rate, "market_eur": direct.market,
                "carry_eur": direct.carry, "total_eur": direct.total}
    tree = report_tree(result)
    [subtotal] = tree["buckets"]
    assert subtotal["bucket"] == Bucket.MATCHED_BASIS.value
    for row in (subtotal, tree["positions_total"]):
        assert {key: row[key] for key in expected} == expected


def test_portfolio_cancellation_nets_to_zero():
    def plus(s, r, x):
        return 10 * s + 500 * r + 300 * x
    def minus(s, r, x):
        return -plus(s, r, x)
    portfolio = Portfolio(positions=(
        Position(id="a", bucket=Bucket.OTHER, pricer=plus),
        Position(id="b", bucket=Bucket.OTHER, pricer=minus),
    ))
    snaps = {0.0: ScalarState(0.01, 0.02, 1.4), 1.0: ScalarState(0.05, 0.07, 0.9)}
    result = attribute_portfolio(portfolio, snaps, 0.0, 1.0)
    fund = report_tree(result)["positions_total"]
    for part in ("fx_eur", "rate_eur", "market_eur", "carry_eur", "total_eur"):
        assert fund[part] == pytest.approx(0.0, abs=1e-12)


def test_portfolio_costs_and_hedged_pnl():
    portfolio = make_portfolio()
    snaps = {0.0: ScalarState(0.01, 0.0, 1.0), 1.0: ScalarState(0.02, 0.0, 1.0)}
    result = attribute_portfolio(portfolio, snaps, 0.0, 1.0)
    long = result.by_id("long")
    assert long.costs == 2.5
    long_row = next(row for row in build_report_rows(result) if row.position == "long")
    assert long_row.hedged_eur == pytest.approx(long.aggregate.market + long.aggregate.carry - 2.5)
    tree = report_tree(result)
    assert tree["positions_total"]["total_eur"] == pytest.approx(
        sum(p.aggregate.total for p in result.positions), rel=1e-12
    )
    assert {row["bucket"] for row in tree["buckets"]} == {Bucket.MATCHED_BASIS.value, Bucket.HEDGE.value}


def test_portfolio_error_names_the_position():
    portfolio = make_portfolio()
    snaps = {0.0: ScalarState(0.01, 0.0, 1.0)}  # end snapshot missing
    with pytest.raises(MissingSnapshot, match="position long"):
        attribute_portfolio(portfolio, snaps, 0.0, 1.0)


def test_engine_error_names_the_position_and_the_subperiod():
    def price(s, r, x):
        if s == 0.5:
            raise ValueError("no quote on the rebalance date")
        return 100.0

    portfolio = Portfolio(positions=(
        Position(id="flaky", bucket=Bucket.OTHER, pricer=price,
                 transactions=(Transaction(0.5, 1.0, 0.0),)),
    ))
    snaps = {u: ScalarState(0.0, 0.0, 1.0) for u in (0.0, 0.5, 1.0)}
    with pytest.raises(PricerEvaluationFailed) as info:
        attribute_portfolio(portfolio, snaps, 0.0, 1.0)
    assert str(info.value) == (
        "position flaky: subperiod (0.0, 0.5]: end price under end curve and end factors "
        "raised: no quote on the rebalance date"
    )


def test_portfolio_rejects_duplicate_ids():
    pos = Position(id="same", bucket=Bucket.OTHER, pricer=lambda s, r, x: 1.0)
    with pytest.raises(DuplicatePositionId):
        Portfolio(positions=(pos, pos))


def test_randomized_quantity_weighted_additivity():
    # with quantity changes the telescope carries subperiod holdings; the
    # parts sum must still equal the independently recomputed total
    import numpy as np

    rng = np.random.default_rng(99)
    for _ in range(200):
        c = rng.uniform(-40.0, 40.0, size=4)

        def price(s, r, x):
            return 100.0 + c[0] * s + c[1] * r + c[2] * x + c[3] * r * x

        grid = [0.0, *np.unique(rng.uniform(0.1, 0.9, size=rng.integers(1, 4))).tolist(), 1.0]
        snaps = {u: ScalarState(rng.uniform(-0.02, 0.08), rng.uniform(0.0, 0.1),
                                rng.uniform(0.5, 2.0)) for u in grid}
        coupon_dates = [u for u in grid[1:] if rng.random() < 0.5]
        schedule = CashflowSchedule(tuple((u, rng.uniform(0.0, 4.0)) for u in coupon_dates))
        txns = tuple(Transaction(u, rng.uniform(-0.5, 1.5), 0.0)
                     for u in grid[:-1] if rng.random() < 0.5)
        pos = Position(id="q", bucket=Bucket.OTHER, pricer=price,
                       schedule=schedule, transactions=txns)
        _, agg = attribute_position(pos, snaps, grid)

        expected = 0.0
        for u_prev, u_cur in zip(grid, grid[1:]):
            q = pos.quantity_at(u_prev)
            a_prev = price(u_prev, snaps[u_prev].curve, snaps[u_prev].factors)
            a_cur = price(u_cur, snaps[u_cur].curve, snaps[u_cur].factors)
            expected += q * (a_cur * snaps[u_cur].fx - a_prev * snaps[u_prev].fx)
            expected += q * schedule.amount_on(u_cur) * 0.5 * (snaps[u_prev].fx + snaps[u_cur].fx)
        parts = agg.fx + agg.rate + agg.market + agg.carry
        assert parts == pytest.approx(expected, rel=1e-9, abs=1e-9)
        assert agg.total == pytest.approx(expected, rel=1e-12, abs=1e-9)


def test_per_position_snapshot_override():
    portfolio = Portfolio(positions=(
        Position(id="usd", bucket=Bucket.OTHER, pricer=lambda s, r, x: 100.0),
        Position(id="eur", bucket=Bucket.CASH, pricer=lambda s, r, x: 100.0, currency="EUR"),
    ))
    usd_snaps = {0.0: ScalarState(0, 0, 1.2), 1.0: ScalarState(0, 0, 1.1)}
    result = attribute_portfolio(portfolio, usd_snaps, 0.0, 1.0)
    assert result.by_id("usd").aggregate.fx == pytest.approx(100 * -0.1, rel=1e-12)
    assert result.by_id("eur").aggregate.fx == 0.0
