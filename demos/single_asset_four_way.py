"""Four-way split of a single bond position, step by step.

Prices a USD bond under the market states of two dates, shows the six
cross-evaluated prices the split is made of, and prints the FX / rate /
market / carry decomposition under both FX weighting modes.

Run:  python demos/single_asset_four_way.py
"""

from datetime import date

from pnlattr import (
    BondPricer,
    BondSpec,
    FxMode,
    four_way_split,
    load_market_snapshots,
)

snapshots = load_market_snapshots("demos/data/market.csv")
snap_t, snap_T = snapshots[0], snapshots[-1]
t, T = snap_t.as_of, snap_T.as_of

spec = BondSpec(
    notional=4_000_000,
    issue=date(2021, 5, 21),
    maturity=date(2026, 8, 15),
    coupon_rate=0.0525,
    coupon_frequency=2,
)
pricer = BondPricer(spec)

print("=" * 72)
print("Four-way split of one USD bond position")
print("=" * 72)
print(f"period ({t} .. {T}], fx {snap_t.fx.rate:.3f} -> {snap_T.fx.rate:.3f} EUR/USD unit")
print(f"5y zero {snap_t.curve.zero_rate(5.0):.4%} -> {snap_T.curve.zero_rate(5.0):.4%}, "
      f"hazard {snap_t.factors.hazard_rate:.4f} -> {snap_T.factors.hazard_rate:.4f}")

print("\nCross-evaluated prices (USD): price(time; curve date, factors date)")
for s_label, s in (("start", t), ("end", T)):
    for r_label, curve in (("start", snap_t.curve), ("end", snap_T.curve)):
        for x_label, factors in (("start", snap_t.factors), ("end", snap_T.factors)):
            value = pricer.price(s, curve, factors)
            print(f"  price({s_label:5s}; curve {r_label:5s}, factors {x_label:5s}) = {value:14,.0f}")

for mode in FxMode:
    result = four_way_split(pricer, t, T, snap_t, snap_T, mode)
    print(f"\nEUR PnL split, fx mode {mode.value!r}:")
    print(f"  fx     {result.fx:>14,.0f}")
    print(f"  rate   {result.rate:>14,.0f}")
    print(f"  market {result.market:>14,.0f}")
    print(f"  carry  {result.carry:>14,.0f}")
    print(f"  total  {result.total:>14,.0f}   (residual {result.residual:.2e})")

print("\nBoth modes reconcile to the same total; only the split differs.")
