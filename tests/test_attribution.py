import json

import pytest

from pnlattr import attribution
from pnlattr import (
    AttributionResult,
    Bucket,
    CarryMode,
    CashflowSchedule,
    EmptyPeriod,
    EngineError,
    FxMode,
    MissingSnapshot,
    MixedCurrencies,
    NonFiniteReport,
    Portfolio,
    Position,
    PricerEvaluationFailed,
    ScheduleOutsideGrid,
    Transaction,
    attribute_every_mode,
    attribute_portfolio,
    attribute_position,
    build_report_rows,
    four_way_split,
    render_report,
    segment_period,
)

from conftest import ScalarState, two_value_pricer


def linear_pricer(alpha=100.0, theta=2.0, beta=-500.0, gamma=-300.0):
    def price(s, r, x):
        return alpha + theta * s + beta * r + gamma * x
    return price


def fx_worked_example(fx_mode):
    snap_t = ScalarState(curve=0.0, factors=0.0, fx=1.0)
    snap_T = ScalarState(curve=0.0, factors=0.0, fx=1.2)
    return four_way_split(two_value_pricer(100.0, 110.0), 0.0, 1.0, snap_t, snap_T, fx_mode)


def test_fx_average_worked_example():
    res = fx_worked_example(FxMode.AVERAGE)
    assert res.fx == pytest.approx(21.0, rel=1e-12)
    assert (res.rate, res.market) == (0.0, 0.0)
    assert res.carry == pytest.approx(11.0, rel=1e-12)
    assert res.total == pytest.approx(110 * 1.2 - 100 * 1.0, rel=1e-12)


def test_fx_start_end_worked_example():
    res = fx_worked_example(FxMode.START_END)
    assert res.fx == pytest.approx(20.0, rel=1e-12)
    assert (res.rate, res.market) == (0.0, 0.0)
    assert res.carry == pytest.approx(12.0, rel=1e-12)
    assert res.total == pytest.approx(110 * 1.2 - 100 * 1.0, rel=1e-12)


def test_no_quote_move_gives_zero_fx_in_both_modes():
    snap_t, snap_T = ScalarState(0.0, 0.0, 1.1), ScalarState(0.0, 0.0, 1.1)
    for mode in FxMode:
        assert four_way_split(two_value_pricer(100.0, 137.5), 0.0, 1.0, snap_t, snap_T, mode).fx == 0.0


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

    with pytest.raises(TypeError, match="^pricer <object object at .*> is neither callable nor has a price method$"):
        four_way_split(object(), 0.0, 1.0, ScalarState(0.01, 0.0, 1.0), ScalarState(0.03, 0.0, 1.0))


def test_attribution_result_rejects_bad_sums():
    with pytest.raises(ValueError):
        AttributionResult(fx=1.0, rate=1.0, market=1.0, carry=1.0, total=5.0)
    ok = AttributionResult(fx=1.0, rate=1.0, market=1.0, carry=1.0, total=4.0)
    assert ok.residual == 0.0


def test_additivity_tolerance_is_one_part_in_a_billion():
    # a residual of 1e-7 on a total of 1 passes a 1e-6 tolerance but not the 1e-9 one
    with pytest.raises(ValueError, match="^parts do not sum to total"):
        AttributionResult(1.0, 0.0, 0.0, 0.0, 1.0 + 1e-7)


def test_additivity_tolerance_scales_with_scale_not_a_multiple_of_it():
    # a residual of 2.0 is under 1e-9 * 1e9 * 1000 but over 1e-9 * 1e9
    with pytest.raises(ValueError, match="^parts do not sum to total"):
        AttributionResult(0.1, 0.2, 0.0, 0.0, 2.3, scale=1e9)


def test_combine_keeps_the_largest_scale_for_its_own_check():
    # each residual of 1e-8 is round-off against a scale of 1e9; their sum, 2e-8, is too, but only at that scale
    r = AttributionResult(0.1, 0.2, 0.0, 0.0, 0.3 + 1e-8, scale=1e9)
    combined = AttributionResult.combine([r, r])
    assert combined.scale == 1e9
    assert combined.total == 2 * (0.3 + 1e-8)


def cross_pricer(start, end):
    """A toy pricer worth `start` at 0.0 and `end` at 1.0 under one date's curve and factors, and about
    1e12 when the curve of one date meets the factors of the other: the moves between them cancel."""
    crossed = {(1.0, 0.0): 1e12 + 0.1, (1.0, 1.0): 1e12 + 0.7, (0.0, 1.0): 1e12 + 0.3, (0.0, 0.0): 1e12 + 0.9}

    def price(s, r, x):
        return (start if s == 0.0 else end) if r == x else crossed[s, r]
    return price


@pytest.mark.parametrize("fx_mode", list(FxMode))
def test_split_scale_is_the_largest_of_the_six_prices(fx_mode):
    # the four cross prices of about 1e12 leave a residual of about 7e-5 in the parts of a total of
    # 0.2: round-off at a scale of 1e12, which a scale taken from the start and end prices would refuse
    res = four_way_split(cross_pricer(1.1, 1.3), 0.0, 1.0, ScalarState(0.0, 0.0, 1.0),
                         ScalarState(1.0, 1.0, 1.0), fx_mode)
    assert res.total == pytest.approx(0.2, rel=1e-12)
    assert 1e-5 < abs(res.residual) < 1e-3
    assert res.scale == 1e12 + 0.9


@pytest.mark.parametrize("fx_mode", list(FxMode))
def test_split_scale_takes_the_larger_quote(fx_mode):
    # quotes of 1e-9 and 1: the residual, about 4e-5 or 7e-5 by mode, is round-off at 1e12 times the
    # end quote, and over 1e-9 of 1e12 times the start quote
    res = four_way_split(cross_pricer(1.1, 1.3), 0.0, 1.0, ScalarState(0.0, 0.0, 1e-9),
                         ScalarState(1.0, 1.0, 1.0), fx_mode)
    assert res.total == pytest.approx(1.3, rel=1e-8)
    assert 1e-5 < abs(res.residual) < 1e-3
    assert res.scale == 1e12 + 0.9


# The coupon term of `_split`'s scale, max(scale, |coupon_eur|), has no test that fails without it: it
# is an equivalent mutant. The total is the price move plus coupon_eur, and the price move is at most
# twice the price scale, so |coupon_eur| <= |total| + 2 * price scale, and dropping the term lowers the
# tolerance 1e-9 * max(1, |total|, scale) at most threefold. The residual is round-off only (the parts
# sum to the total exactly in real arithmetic), a few units in the last place of values no larger than
# max(price scale, |coupon_eur|), so about 1e-15 of them: a thousandth of even the lowered tolerance.


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


def test_rebalance_inside_a_subperiod_is_rejected():
    # on [0, 1] the buy at 0.5 would be ignored: a total of 10.0, not the realized 16.0
    prices = {0.0: 100.0, 0.5: 104.0, 1.0: 110.0}
    pos = Position(id="p", bucket=Bucket.OTHER, pricer=lambda s, r, x: prices[s],
                   transactions=(Transaction(0.5, 1.0, 0.0), Transaction(0.25, 0.0, 3.0)))
    snaps = {u: ScalarState(0.0, 0.0, 1.0) for u in prices}
    with pytest.raises(ScheduleOutsideGrid, match=r"^position p: transaction at 0.5 not on the attribution grid$"):
        attribute_position(pos, snaps, [0.0, 1.0])
    # a cost-only transaction off the grid moves no holding, so it is not checked
    _, agg = attribute_position(pos, snaps, [0.0, 0.5, 1.0])
    assert agg.total == pytest.approx(16.0, rel=1e-12)


def test_a_date_off_the_grid_names_its_own_position():
    # segment_period puts every date of a book on its grid, so the plan is asked directly
    snaps = {u: ScalarState(0.0, 0.0, 1.0) for u in (0.0, 1.0)}
    on = Position(id="p", bucket=Bucket.OTHER, pricer=lambda s, r, x: 1.0)
    off = Position(id="q", bucket=Bucket.OTHER, pricer=lambda s, r, x: 1.0,
                   schedule=CashflowSchedule(((0.5, 3.0),)))
    with pytest.raises(ScheduleOutsideGrid, match=r"^position q: cashflow at 0.5 not on the attribution grid$"):
        attribution._plan((on, off), snaps, [0.0, 1.0])


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


def test_missing_rebalance_snapshot_names_the_first_position():
    # the grid is common to the book, so the first position meets the gap
    # that only the second position's rebalance put on the grid
    portfolio = Portfolio(positions=(
        Position(id="a", bucket=Bucket.OTHER, pricer=linear_pricer()),
        Position(id="b", bucket=Bucket.OTHER, pricer=linear_pricer(),
                 transactions=(Transaction(0.5, 1.0, 0.0),)),
    ))
    snaps = {u: ScalarState(0.01, 0.02, 1.1) for u in (0.0, 1.0)}
    with pytest.raises(MissingSnapshot) as info:
        attribute_portfolio(portfolio, snaps, 0.0, 1.0)
    assert str(info.value) == "position a: no market snapshot at 0.5"


def test_empty_portfolio_needs_no_snapshots():
    result = attribute_portfolio(Portfolio(()), {}, 0.0, 1.0)
    assert result.positions == ()
    assert result.grid == (0.0, 1.0)


class CountingSnapshots(dict):
    def __init__(self, *args):
        super().__init__(*args)
        self.lookups = 0

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)


def test_snapshots_are_checked_once_per_run():
    portfolio = Portfolio(positions=(
        Position(id="a", bucket=Bucket.OTHER, pricer=linear_pricer()),
        Position(id="b", bucket=Bucket.OTHER, pricer=linear_pricer(),
                 transactions=(Transaction(0.5, 1.0, 0.0),)),
    ))
    snaps = CountingSnapshots({u: ScalarState(0.01, 0.02, 1.1) for u in (0.0, 0.5, 1.0)})
    result = attribute_portfolio(portfolio, snaps, 0.0, 1.0)
    assert result.grid == (0.0, 0.5, 1.0)
    assert snaps.lookups == 3


def test_a_quote_not_above_zero_is_an_engine_error_naming_its_date_before_any_price():
    from datetime import date

    calls = []

    def price(s, r, x):
        calls.append(s)
        return 100.0

    t, T = date(2021, 12, 31), date(2022, 4, 1)
    snaps = {t: ScalarState(0.0, 0.0, 1.1), T: ScalarState(0.0, 0.0, -1.0)}
    usd = Position(id="usd", bucket=Bucket.OTHER, pricer=price)
    message = r"^market snapshot at 2022-04-01: fx quote must be finite and > 0, got -1.0$"
    with pytest.raises(EngineError, match=message):
        attribute_position(usd, snaps, [t, T])
    with pytest.raises(EngineError, match=message):
        attribute_portfolio(Portfolio(positions=(usd,)), snaps, t, T)
    # the two-point split plans its one subperiod the same way, and no quote may be infinite
    for bad in (-1.0, float("inf"), float("nan")):
        start, end = ScalarState(0.0, 0.0, 1.1), ScalarState(0.0, 0.0, bad)
        message = rf"^market snapshot at 1.0: fx quote must be finite and > 0, got {bad}$"
        with pytest.raises(EngineError, match=message):
            four_way_split(price, 0.0, 1.0, start, end)
        with pytest.raises(EngineError, match=r"^market snapshot at 1.0: "):
            attribute_position(usd, {0.0: start, 1.0: end}, [0.0, 1.0])
    assert calls == []
    # a EUR position converts at 1 and never reads the quote
    eur = Position(id="eur", bucket=Bucket.CASH, pricer=price, currency="EUR")
    assert attribute_portfolio(Portfolio(positions=(eur,)), snaps, t, T).by_id("eur").aggregate.fx == 0.0


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
    with pytest.raises(ValueError, match="^duplicate position id 'same'$"):
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


def test_a_grid_that_does_not_increase_fails_before_any_price():
    calls = []

    def price(s, r, x):
        calls.append(s)
        return 100.0

    pos = Position(id="p", bucket=Bucket.OTHER, pricer=price)
    snaps = {u: ScalarState(0.0, 0.0, 1.0) for u in (0.0, 0.5, 1.0)}
    with pytest.raises(EmptyPeriod, match=r"^period start 1.0 not before end 0.5$"):
        attribute_position(pos, snaps, [0.0, 1.0, 0.5])
    with pytest.raises(EmptyPeriod, match=r"^period start 0.5 not before end 0.5$"):
        attribute_position(pos, snaps, [0.0, 0.5, 0.5, 1.0])
    with pytest.raises(EmptyPeriod, match=r"^attribution grid needs at least a start and an end date$"):
        attribute_position(pos, snaps, [0.0])
    assert calls == []


@pytest.mark.parametrize("fx_mode, carry_mode, message", [
    # each used to run in corrected mode, as any carry mode not a CarryMode did
    (FxMode.AVERAGE, "literal", "unknown carry mode 'literal'"),
    (FxMode.AVERAGE, "sophis", "unknown carry mode 'sophis'"),
    (FxMode.AVERAGE, None, "unknown carry mode None"),
    ("average", CarryMode.CORRECTED, "unknown fx mode 'average'"),
])
def test_a_mode_outside_its_enum_is_a_value_error_before_any_price(fx_mode, carry_mode, message):
    calls = []

    def price(s, r, x):
        calls.append(s)
        return 100.0

    pos = Position(id="p", bucket=Bucket.OTHER, pricer=price, schedule=CashflowSchedule(((0.5, 3.0),)))
    snaps = {u: ScalarState(0.0, 0.0, 1.0) for u in (0.0, 0.5, 1.0)}
    with pytest.raises(ValueError, match=f"^{message}$"):
        attribute_position(pos, snaps, [0.0, 0.5, 1.0], fx_mode, carry_mode)
    with pytest.raises(ValueError, match=f"^{message}$"):
        attribute_portfolio(Portfolio(positions=(pos,)), snaps, 0.0, 1.0, fx_mode, carry_mode)
    with pytest.raises(ValueError, match=f"^{message}$"):
        attribute_portfolio(Portfolio(positions=()), snaps, 0.0, 1.0, fx_mode=fx_mode, carry_mode=carry_mode)
    assert calls == []


def _run_entry_point(entry, positions, snaps, grid, fx_mode):
    """Run one entry point on a book over grid: attribute_position and four_way_split take its one
    position (four_way_split only its pricer and the grid's ends), the others the grid's ends."""
    if entry is attribute_position:
        [pos] = positions
        return attribute_position(pos, snaps, grid, fx_mode)
    if entry is four_way_split:
        [pos] = positions
        return four_way_split(pos.pricer, grid[0], grid[-1], snaps[grid[0]], snaps[grid[-1]], fx_mode)
    if entry is attribute_portfolio:
        return attribute_portfolio(Portfolio(tuple(positions)), snaps, grid[0], grid[-1], fx_mode)
    return attribute_every_mode(Portfolio(tuple(positions)), snaps, grid[0], grid[-1])


#: Each check's error on the book of the test below, and the entry points that can meet it:
#: only a book holds two positions, four_way_split is handed both its snapshots, and
#: attribute_every_mode takes no mode.
_CHECKS = {
    "grid": (EmptyPeriod, r"period start 1.0 not before end 0.0"),
    "snapshot": (MissingSnapshot, r"position p: no market snapshot at 0.5"),
    "quote": (EngineError, r"market snapshot at 1.0: fx quote must be finite and > 0, got -1.0"),
    "currencies": (MixedCurrencies,
                   r"position p is in USD and position q in GBP; the market quotes one foreign currency"),
    "mode": (ValueError, r"unknown fx mode 'average'"),
    "off-grid": (ScheduleOutsideGrid, r"position p: cashflow at 0.5 not on the attribution grid"),
}
_ENTRY_CHECKS = {
    attribute_position: ("grid", "snapshot", "quote", "mode", "off-grid"),
    attribute_portfolio: ("grid", "snapshot", "quote", "currencies", "mode"),
    attribute_every_mode: ("grid", "snapshot", "quote", "currencies"),
    four_way_split: ("grid", "quote", "mode"),
}


@pytest.mark.parametrize("entry, failure", [(entry, failure) for entry, failures in _ENTRY_CHECKS.items()
                                            for failure in failures], ids=lambda v: getattr(v, "__name__", v))
def test_every_entry_point_makes_every_check_before_any_price(entry, failure):
    calls = []

    def price(s, r, x):
        calls.append(s)
        return 100.0

    positions = [Position(id="p", bucket=Bucket.OTHER, pricer=price, schedule=CashflowSchedule(((0.5, 3.0),)))]
    snaps = {u: ScalarState(0.0, 0.0, 1.1) for u in (0.0, 0.5, 1.0)}
    grid, fx_mode = [0.0, 0.5, 1.0], FxMode.AVERAGE
    if failure == "grid":
        grid = [1.0, 0.0]
    elif failure == "snapshot":
        del snaps[0.5]
    elif failure == "quote":
        snaps[1.0] = ScalarState(0.0, 0.0, -1.0)
    elif failure == "currencies":
        positions.append(Position(id="q", bucket=Bucket.OTHER, pricer=price, currency="GBP"))
    elif failure == "mode":
        fx_mode = "average"
    elif failure == "off-grid":
        grid = [0.0, 1.0]
    error, message = _CHECKS[failure]
    with pytest.raises(error, match=f"^{message}$"):
        _run_entry_point(entry, positions, snaps, grid, fx_mode)
    assert calls == []


def test_costs_that_overflow_are_a_non_finite_report_naming_the_position():
    pos = Position(id="P", bucket=Bucket.OTHER, pricer=linear_pricer(),
                   transactions=(Transaction(0.5, 0.0, 1e308), Transaction(1.0, 0.0, 1e308)))
    with pytest.raises(NonFiniteReport, match=r"^transaction costs overflow when summed: "):
        pos.costs_in(0.0, 1.0)
    snaps = {u: ScalarState(0.01, 0.02, 1.1) for u in (0.0, 0.5, 1.0)}
    message = r"^position P: transaction costs overflow when summed: "
    with pytest.raises(NonFiniteReport, match=message):
        attribute_portfolio(Portfolio((pos,)), snaps, 0.0, 1.0)
    with pytest.raises(NonFiniteReport, match=message):
        attribute_every_mode(Portfolio((pos,)), snaps, 0.0, 1.0)
    # attribute_position returns no costs but sums them, as the portfolio path does
    with pytest.raises(NonFiniteReport, match=message):
        attribute_position(pos, snaps, [0.0, 0.5, 1.0])


def test_engine_errors_print_dates_as_iso():
    from datetime import date

    t, T = date(2022, 1, 1), date(2022, 2, 1)
    with pytest.raises(EmptyPeriod, match=r"^period start 2022-02-01 not before end 2022-01-01$"):
        segment_period(Portfolio(positions=()), T, t)
    state = ScalarState(0.0, 0.0, 1.0)
    with pytest.raises(EmptyPeriod, match=r"^period start 2022-02-01 not before end 2022-01-01$"):
        four_way_split(lambda s, r, x: 1.0, T, t, state, state)
    pos = Position(id="p", bucket=Bucket.OTHER, pricer=lambda s, r, x: 1.0,
                   schedule=CashflowSchedule(((date(2022, 1, 15), 1.0),)))
    with pytest.raises(MissingSnapshot, match=r"^position p: no market snapshot at 2022-02-01$"):
        attribute_position(pos, {t: state}, [t, T])
    with pytest.raises(ScheduleOutsideGrid, match=r"^position p: cashflow at 2022-01-15 not on the attribution grid$"):
        attribute_position(pos, {t: state, T: state}, [t, T])


@pytest.mark.parametrize("quantity_change, cost, message", [
    (float("nan"), 0.0, "quantity change must be finite, got nan"),
    (float("-inf"), 0.0, "quantity change must be finite, got -inf"),
    (1.0, float("nan"), "cost must be finite and >= 0, got nan"),
    (1.0, float("inf"), "cost must be finite and >= 0, got inf"),
    (1.0, -2.0, "cost must be finite and >= 0, got -2.0"),
], ids=["quantity-nan", "quantity-inf", "cost-nan", "cost-inf", "cost-negative"])
def test_position_rejects_non_finite_transactions(quantity_change, cost, message):
    with pytest.raises(ValueError, match=message):
        Position(id="p", bucket=Bucket.OTHER, pricer=linear_pricer(),
                 transactions=(Transaction(0.5, quantity_change, cost),))


@pytest.mark.parametrize("sign", [2, 0, -2])
def test_position_notional_sign_is_plus_or_minus_one(sign):
    with pytest.raises(ValueError, match=f"^notional_sign must be \\+1 or -1, got {sign}$"):
        Position(id="p", bucket=Bucket.OTHER, pricer=linear_pricer(), notional_sign=sign)


def test_by_id_of_an_unknown_position_is_a_key_error_naming_it():
    snaps = {0.0: ScalarState(0.01, 0.0, 1.0), 1.0: ScalarState(0.02, 0.0, 1.0)}
    result = attribute_portfolio(make_portfolio(), snaps, 0.0, 1.0)
    with pytest.raises(KeyError) as info:
        result.by_id("nowhere")
    assert info.value.args == ("nowhere",)


def test_parts_that_overflow_are_a_non_finite_report_naming_the_subperiod_or_period():
    # a finite holding times a finite unit part overflows; the message quotes the held parts
    held = Position(id="P", bucket=Bucket.OTHER, pricer=lambda s, r, x: 100.0 + 10.0 * s,
                    transactions=(Transaction(0.0, 1e308, 0.0),))
    with pytest.raises(NonFiniteReport) as info:
        attribute_position(held, {u: ScalarState(0.0, 0.0, 1.0) for u in (0.0, 1.0)}, [0.0, 1.0])
    assert str(info.value) == ("position P: subperiod (0.0, 1.0]: attribution parts must be finite, "
                               "got (0.0, 0.0, 0.0, inf, inf)")
    huge = AttributionResult(fx=1e308, rate=0.0, market=0.0, carry=0.0, total=1e308)
    with pytest.raises(NonFiniteReport, match="attribution parts overflow when summed"):
        AttributionResult.combine([huge, huge])
    empty = AttributionResult.combine([])
    assert [value.hex() for value in (*empty._values(), empty.scale)] == [(0.0).hex()] * 6

    # each subperiod's own total is finite; only their sum overflows
    grid = [0.0, 1.0, 2.0, 3.0]
    price = dict(zip(grid, (-1.2e308, -0.4e308, 0.4e308, 1.2e308))).get
    pos = Position(id="P", bucket=Bucket.OTHER, pricer=lambda s, r, x: price(s))
    snaps = {u: ScalarState(0.0, 0.0, 1.0) for u in grid}
    with pytest.raises(NonFiniteReport) as info:
        attribute_position(pos, snaps, grid)
    assert str(info.value).startswith("position P: period (0.0, 3.0]: attribution parts overflow when summed")
    with pytest.raises(NonFiniteReport) as info:
        attribute_position(pos, snaps, [0.0, 3.0])
    assert str(info.value).startswith("position P: subperiod (0.0, 3.0]: attribution parts must be finite")
