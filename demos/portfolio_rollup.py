"""Fund-style attribution report over a rebalanced multi-position book.

Loads the sample holdings (long bond + matched CDS protection + short-bond
rates hedge), adds an EUR cash-parking position with its own fx series via
the per-position snapshot override, attributes the first quarter of 2022,
and renders the bucket rollup with basis points against a reference NAV
plus pass-through fee lines.

Run:  python demos/portfolio_rollup.py
"""

from datetime import date

from pnlattr import (
    Bucket,
    CashPricer,
    CashSpec,
    FxQuote,
    Portfolio,
    Position,
    attribute_portfolio,
    build_report_rows,
    load_market_snapshots,
    load_portfolio,
    render_report,
)

NAV = 50_000_000.0
t, T = date(2021, 12, 31), date(2022, 4, 1)

snapshots = load_market_snapshots("demos/data/market.csv")
book = load_portfolio("demos/data/portfolio.txt")

# EUR cash never leaves EUR: pin its fx to 1 with a dedicated snapshot series
cash = Position(
    id="EUR_CASH",
    bucket=Bucket.CASH,
    pricer=CashPricer(CashSpec(balance=2_000_000, deposit_rate=-0.0078, start=t, currency="EUR")),
)
portfolio = Portfolio(positions=book.positions + (cash,))
eur_snaps = {
    s.as_of: type(s)(as_of=s.as_of, curve=s.curve, factors=s.factors, fx=FxQuote(1.0))
    for s in snapshots
}

attribution = attribute_portfolio(
    portfolio, snapshots, t, T,
    snapshots_by_position={"EUR_CASH": eur_snaps},
)

print("=" * 72)
print(f"Fund attribution ({t} .. {T}], NAV {NAV:,.0f} EUR")
print("=" * 72)
print(f"common grid: {' -> '.join(str(u) for u in attribution.grid)}")

print("\nPer position:")
for pos in attribution.positions:
    agg = pos.aggregate
    print(f"  {pos.position_id:10s} [{pos.bucket.value:13s}] "
          f"fx {agg.fx:>10,.0f}  rate {agg.rate:>10,.0f}  market {agg.market:>9,.0f}  "
          f"carry {agg.carry:>9,.0f}  costs {pos.costs:>7,.0f}")
worst = max(abs(pos.aggregate.residual) for pos in attribution.positions)
print(f"worst per-position residual: {worst:.2e} EUR")

standalones = [("FEES", -0.0050 * NAV * 0.25), ("OTHER COSTS", -15_000.0)]
print("\nRendered report (CSV, bps on NAV):\n")
print(render_report(build_report_rows(attribution), "csv", nav=NAV,
                    standalone_lines=standalones))
