"""Each position converts at the quote of its own currency.

EUR converts at 1, so a EUR leg has no FX part; any other currency
converts at the market's fx column, which can quote only one of them.
"""

import io
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnlattr import (
    BondPricer,
    BondSpec,
    Bucket,
    CarryMode,
    CashflowSchedule,
    CashPricer,
    CashSpec,
    EngineError,
    MixedCurrencies,
    Portfolio,
    Position,
    Transaction,
    attribute_portfolio,
    bond_cashflows,
    load_market_snapshots,
    load_portfolio,
    price_cash,
    segment_period,
)

from conftest import ScalarState, flat_snapshot

T0, T1 = date(2022, 1, 1), date(2022, 7, 1)


def test_fixture_eur_cash_has_no_fx_part(market_csv, portfolio_text):
    snapshots = load_market_snapshots(io.StringIO(market_csv))
    book = load_portfolio(io.StringIO(portfolio_text))
    start, end = date(2021, 12, 31), date(2022, 4, 1)
    result = attribute_portfolio(book, snapshots, start, end)
    cash = result.by_id("EUR_CASH").aggregate
    assert cash.fx == 0.0
    assert all(sub.fx == 0.0 for sub in result.by_id("EUR_CASH").subperiods)
    spec = book.positions[2].pricer.spec
    assert cash.total == price_cash(spec, end) - price_cash(spec, start)
    assert cash.total == pytest.approx(-1942.77, abs=0.01)
    # the USD legs still earn the quote move
    assert result.by_id("ACME_BOND").aggregate.fx != 0.0


def test_two_foreign_currencies_are_rejected():
    def position(pid, currency):
        return Position(id=pid, bucket=Bucket.OTHER, pricer=lambda s, r, x: 100.0, currency=currency)

    portfolio = Portfolio(positions=(
        position("usd_bond", "USD"), position("eur_cash", "EUR"), position("gbp_gilt", "GBP"),
    ))
    snaps = {u: ScalarState(0.0, 0.0, 1.1) for u in (0.0, 1.0)}
    with pytest.raises(MixedCurrencies) as info:
        attribute_portfolio(portfolio, snaps, 0.0, 1.0)
    message = str(info.value)
    assert isinstance(info.value, EngineError)
    for name in ("usd_bond", "USD", "gbp_gilt", "GBP"):
        assert name in message
    assert "eur_cash" not in message


def test_one_foreign_currency_besides_eur_is_accepted():
    portfolio = Portfolio(positions=tuple(
        Position(id=f"p{i}", bucket=Bucket.OTHER, pricer=lambda s, r, x: 100.0, currency=currency)
        for i, currency in enumerate(("GBP", "EUR", "GBP"))
    ))
    snaps = {0.0: ScalarState(0.0, 0.0, 1.2), 1.0: ScalarState(0.0, 0.0, 1.1)}
    result = attribute_portfolio(portfolio, snaps, 0.0, 1.0)
    assert [p.aggregate.fx for p in result.positions] == [pytest.approx(-10.0), 0.0, pytest.approx(-10.0)]


DAYS = (T1 - T0).days

bonds = st.fixed_dictionaries({
    "kind": st.just("bond"),
    "notional": st.floats(1e5, 1e7),
    "issue_days": st.integers(30, 900),
    "maturity_days": st.integers(400, 3000),
    "coupon_rate": st.floats(0.0, 0.08),
    "frequency": st.sampled_from((1, 2, 4, 12)),
})
cash_accounts = st.fixed_dictionaries({
    "kind": st.just("cash"),
    "balance": st.floats(-1e6, 1e6),
    "deposit_rate": st.floats(-0.01, 0.05),
    "start_days": st.integers(0, 400),
})
holdings = st.tuples(
    st.one_of(bonds, cash_accounts),
    st.sampled_from(("EUR", "USD")),
    st.sampled_from((1, -1)),
    st.lists(st.tuples(st.integers(1, DAYS - 1), st.floats(-0.9, 1.5)), max_size=3),
)


def _position(i, holding) -> Position:
    spec_fields, currency, sign, trades = holding
    if spec_fields["kind"] == "bond":
        spec = BondSpec(
            notional=spec_fields["notional"],
            issue=T0 - timedelta(days=spec_fields["issue_days"]),
            maturity=T1 + timedelta(days=spec_fields["maturity_days"]),
            coupon_rate=spec_fields["coupon_rate"],
            coupon_frequency=spec_fields["frequency"],
        )
        pricer, schedule = BondPricer(spec), bond_cashflows(spec)
    else:
        spec = CashSpec(
            balance=spec_fields["balance"],
            deposit_rate=spec_fields["deposit_rate"],
            start=T0 - timedelta(days=spec_fields["start_days"]),
        )
        pricer, schedule = CashPricer(spec), CashflowSchedule()
    transactions = tuple(sorted(Transaction(T0 + timedelta(days=d), q, 0.0) for d, q in trades))
    return Position(id=f"P{i}", bucket=Bucket.OTHER, pricer=pricer, notional_sign=sign,
                    schedule=schedule, transactions=transactions, currency=currency)


@settings(max_examples=30, deadline=None)
@given(book=st.lists(holdings, min_size=1, max_size=4), data=st.data())
def test_eur_and_usd_book_reconciles_to_realized_eur_pnl(book, data):
    portfolio = Portfolio(positions=tuple(_position(i, h) for i, h in enumerate(book)))
    grid = segment_period(portfolio, T0, T1)
    levels = data.draw(st.lists(
        st.tuples(st.floats(-0.01, 0.06), st.floats(0.0, 0.05), st.floats(0.7, 1.3)),
        min_size=len(grid), max_size=len(grid),
    ))
    snaps = {u: flat_snapshot(u, rate, hazard=hazard, recovery=0.4, fx=fx)
             for u, (rate, hazard, fx) in zip(grid, levels)}
    result = attribute_portfolio(portfolio, snaps, T0, T1, carry_mode=CarryMode.CORRECTED)

    for pos, attributed in zip(portfolio.positions, result.positions):
        def chi(u):
            return 1.0 if pos.currency == "EUR" else snaps[u].fx.rate

        def eur_value(u):
            return pos.pricer.price(u, snaps[u].curve, snaps[u].factors) * chi(u)

        realized = 0.0
        for u_prev, u in zip(grid, grid[1:]):
            quantity = pos.quantity_at(u_prev)
            coupon_eur = pos.schedule.amount_on(u) * 0.5 * (chi(u_prev) + chi(u))
            realized += quantity * (eur_value(u) - eur_value(u_prev) + coupon_eur)
        agg = attributed.aggregate
        parts = agg.fx + agg.rate + agg.market + agg.carry
        scale = max(1.0, max(abs(eur_value(u)) for u in grid))
        assert parts == pytest.approx(realized, rel=1e-9, abs=1e-9 * scale)
        if pos.currency == "EUR":
            assert agg.fx == 0.0
            assert all(sub.fx == 0.0 for sub in attributed.subperiods)
