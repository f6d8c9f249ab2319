"""Coupon handling across the three carry conventions.

A dirty bond price drops by the coupon amount at each payment date. A
single endpoint-to-endpoint split books that drop as lost carry and the
received cash never shows up. Segmenting the period at the coupon date and
crediting the coupon into carry at the FX level around the payment fixes
the books exactly; this script shows the repair and the two alternative
conventions next to it, all three split from one pricing pass.

Run:  python demos/coupon_carry_modes.py
"""

from datetime import date

from pnlattr import (
    BondPricer,
    BondSpec,
    Bucket,
    CarryMode,
    FxMode,
    Portfolio,
    Position,
    attribute_every_mode,
    bond_cashflows,
    four_way_split,
    load_market_snapshots,
    segment_period,
)

snapshots = {s.as_of: s for s in load_market_snapshots("demos/data/market.csv")}
t, T = date(2021, 12, 31), date(2022, 4, 1)

spec = BondSpec(
    notional=4_000_000,
    issue=date(2021, 5, 21),
    maturity=date(2026, 8, 15),
    coupon_rate=0.0525,
    coupon_frequency=2,
)
position = Position(
    id="BOND",
    bucket=Bucket.MATCHED_BASIS,
    pricer=BondPricer(spec),
    schedule=bond_cashflows(spec),
)
grid = segment_period(position, t, T)
coupon_dates = [d for d, _ in position.schedule.entries if t < d <= T]

print("=" * 72)
print("Carry conventions around a coupon payment")
print("=" * 72)
print(f"grid: {' -> '.join(str(u) for u in grid)}")
print(f"coupon inside the period: {coupon_dates[0]}, "
      f"{position.schedule.amount_on(coupon_dates[0]):,.0f} USD")

naive = four_way_split(position.pricer, t, T, snapshots[t], snapshots[T])
print(f"\nNaive endpoint-only split (coupon drop eaten by carry):")
print(f"  carry {naive.carry:>12,.0f} EUR   total {naive.total:>12,.0f} EUR")

print("\nSegmented attribution:")
views = attribute_every_mode(Portfolio((position,)), snapshots, t, T)
aggregates = {mode: views[FxMode.AVERAGE, mode].by_id("BOND").aggregate for mode in CarryMode}
for mode, agg in aggregates.items():
    print(f"  {mode.value:9s}  fx {agg.fx:>10,.0f}  rate {agg.rate:>10,.0f}  "
          f"market {agg.market:>9,.0f}  carry {agg.carry:>9,.0f}  total {agg.total:>10,.0f}")
corrected, literal, sophis = (aggregates[mode] for mode in (CarryMode.CORRECTED, CarryMode.LITERAL, CarryMode.SOPHIS))

coupon = position.schedule.amount_on(coupon_dates[0])
print(f"""
Reading the table:
  corrected  credits the coupon at the average fx around its payment date
             and restarts each subperiod at the ex-coupon price, so the
             parts reconcile to the realized EUR PnL exactly
             (residual {corrected.residual:.2e}).
  literal    starts subperiods at the pre-coupon price; its total falls
             short of the corrected one by the converted coupon:
             {corrected.total - literal.total:,.0f} EUR for the {coupon:,.0f} USD coupon.
  sophis     converts the coupon at the period-end quote instead; totals
             differ by coupon * (fx_end - fx_avg) =
             {sophis.total - corrected.total:+,.0f} EUR here.
""")
