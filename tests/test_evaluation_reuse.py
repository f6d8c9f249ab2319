"""Subperiods share their boundary price instead of evaluating it twice.

A subperiod's start price A_u(r_u, x_u) is the previous subperiod's end
price, so every carry mode makes 5n + 1 evaluations on an n-subperiod grid.
Literal mode adds the coupon paid at u to its three start prices, whether
reused or freshly evaluated. Every subperiod result must stay bit for bit,
the sign of a zero included, as four_way_split gives it on a pricer wrapped
to return the pre-coupon price, then held and paid its coupon in two more
steps; the engine builds one record per subperiod and one for their sum.
"""

import math
from datetime import date

import pytest

from pnlattr import attribution
from pnlattr import (
    AttributionResult,
    BondPricer,
    BondSpec,
    Bucket,
    CarryMode,
    CashflowSchedule,
    FxMode,
    Position,
    Transaction,
    attribute_position,
    bond_cashflows,
    segment_period,
)

from conftest import ScalarState, flat_snapshot
from test_random_books import reference_subperiods


class CountingPricer:
    def __init__(self, price):
        self._price = price
        self.calls = 0

    def price(self, s, curve, factors):
        self.calls += 1
        return self._price(s, curve, factors)


def toy_price(s, r, x):
    # nonlinear in all three arguments, so no two grid evaluations coincide
    return 100.0 * math.exp(-r * (3.0 - s)) * (1.0 - x * s) + 0.25 * s * s


def signed_zero_price(s, r, x):
    # 0.0 or -0.0, by state: the parts are zeros whose signs only exact arithmetic keeps
    return math.copysign(0.0, math.sin(7.0 * s + 30.0 * r - 11.0 * x))


GRID = [0.0, 0.125, 0.25, 0.5, 0.625, 0.75, 1.0]
SNAPS = {u: ScalarState(0.01 + 0.03 * u * u, 0.02 + 0.01 * math.sin(7 * u), 1.1 - 0.2 * u)
         for u in GRID}

#: (notional sign, transactions): quantities that change mid-grid, listed out of date order, in
#: dyadic steps (test_out_of_order_quantity_changes_add_in_file_order checks the order); a holding
#: closed to exactly 0 across the coupon at 0.25 and reopened at 0.5; and 1.0 or -1.0 throughout
HOLDINGS = {
    "rebalanced": (1, (Transaction(0.5, -0.75, 0.0), Transaction(-1.0, 0.5, 0.0),
                       Transaction(0.125, 1.25, 0.0))),
    "closed-across-coupon": (1, (Transaction(0.125, -1.0, 0.0), Transaction(0.5, 0.75, 0.0))),
    "long": (1, ()),
    "short": (-1, ()),
}


@pytest.mark.parametrize("price", [toy_price, signed_zero_price], ids=["toy", "signed-zero"])
@pytest.mark.parametrize("holding", list(HOLDINGS))
@pytest.mark.parametrize("carry_mode", list(CarryMode))
@pytest.mark.parametrize("fx_mode", list(FxMode))
def test_evaluation_count_and_bit_identical_subperiods(fx_mode, carry_mode, holding, price, monkeypatch):
    n = len(GRID) - 1
    # coupons on the first grid date, on interior grid dates and at the end
    schedule = CashflowSchedule(((0.0, 1.5), (0.25, 2.5), (0.625, 1.75), (1.0, 2.5)))
    sign, transactions = HOLDINGS[holding]
    pricer = CountingPricer(price)
    position = Position(id="p", bucket=Bucket.OTHER, pricer=pricer, notional_sign=sign,
                        schedule=schedule, transactions=transactions)
    built = []
    init = AttributionResult.__init__

    def counting_init(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(AttributionResult, "__init__", counting_init)
    subperiods, aggregate = attribute_position(position, SNAPS, GRID, fx_mode, carry_mode)

    assert pricer.calls == 5 * n + 1
    assert len(built) == n + 1  # one record per subperiod, one for their sum
    expected = reference_subperiods(position, SNAPS, GRID, fx_mode, carry_mode)
    assert subperiods == expected
    assert repr(subperiods) == repr(expected)  # == takes -0.0 for 0.0; repr does not
    assert aggregate == AttributionResult.combine(expected)


@pytest.mark.parametrize("price", [toy_price, signed_zero_price], ids=["toy", "signed-zero"])
def test_a_plan_holds_every_legs_market_state(price):
    # _plan is the one reader of a snapshot, and its plan is the same in every mode: once a book is
    # planned, overwriting its snapshots changes neither the prices nor the splits of the plan, which
    # is priced once and split in all six modes
    schedule = CashflowSchedule(((0.0, 1.5), (0.25, 2.5), (1.0, 2.5)))
    positions = (
        Position("rebalanced", Bucket.OTHER, CountingPricer(price), schedule=schedule,
                 transactions=HOLDINGS["rebalanced"][1]),
        Position("short", Bucket.HEDGE, CountingPricer(price), notional_sign=-1),
        Position("eur", Bucket.CASH, CountingPricer(price), schedule=schedule, currency="EUR"),
    )
    modes = [(fx_mode, carry_mode) for fx_mode in FxMode for carry_mode in CarryMode]
    expected = [[attribute_position(pos, SNAPS, GRID, *mode) for mode in modes] for pos in positions]
    snaps = {u: ScalarState(snap.curve, snap.factors, snap.fx, u) for u, snap in SNAPS.items()}
    plan = attribution._plan(positions, snaps, GRID)
    for snap in snaps.values():
        for name in ("curve", "factors", "fx", "as_of"):
            object.__setattr__(snap, name, math.nan)
    calls = [pos.pricer.calls for pos in positions]

    got = [attribution._attribute(pos.pricer.price, subperiods, modes) for pos, subperiods in zip(positions, plan)]

    assert got == expected and repr(got) == repr(expected)
    n = len(GRID) - 1
    assert [pos.pricer.calls - before for pos, before in zip(positions, calls)] == [5 * n + 1] * len(positions)


@pytest.mark.parametrize("carry_mode", list(CarryMode))
def test_out_of_order_quantity_changes_add_in_file_order(carry_mode):
    # changes that are not dyadic round differently in another order, and
    # holdings add them in file order, as Position.quantity_at does
    schedule = CashflowSchedule(((0.25, 2.5), (1.0, 2.5)))
    transactions = (Transaction(0.5, 0.1175, 0.0), Transaction(0.125, -0.1402, 0.0),
                    Transaction(0.625, 0.1811, 0.0))
    position = Position(id="p", bucket=Bucket.OTHER, pricer=CountingPricer(toy_price),
                        schedule=schedule, transactions=transactions)

    subperiods, _ = attribute_position(position, SNAPS, GRID, FxMode.AVERAGE, carry_mode)

    expected = reference_subperiods(position, SNAPS, GRID, FxMode.AVERAGE, carry_mode)
    assert subperiods == expected and repr(subperiods) == repr(expected)


@pytest.mark.parametrize("carry_mode", list(CarryMode))
def test_bond_across_a_coupon_date_matches_four_way_split(carry_mode):
    spec = BondSpec(notional=1e6, issue=date(2020, 3, 15), maturity=date(2027, 3, 15),
                    coupon_rate=0.05, coupon_frequency=4)
    pricer = CountingPricer(BondPricer(spec).price)
    position = Position(id="bond", bucket=Bucket.MATCHED_BASIS, pricer=pricer,
                        schedule=bond_cashflows(spec),
                        transactions=((date(2022, 2, 1), 0.5, 0.0),))
    grid = segment_period(position, date(2022, 1, 3), date(2022, 4, 1))
    assert date(2022, 3, 15) in grid and len(grid) == 4
    snaps = {
        u: flat_snapshot(u, rate=0.01 + 0.002 * i, hazard=0.02 + 0.001 * i, recovery=0.4,
                         basis=-0.003, fx=0.9 + 0.01 * i)
        for i, u in enumerate(grid)
    }

    subperiods, _ = attribute_position(position, snaps, grid, FxMode.AVERAGE, carry_mode)

    n = len(grid) - 1
    assert pricer.calls == 5 * n + 1
    expected = reference_subperiods(position, snaps, grid, FxMode.AVERAGE, carry_mode)
    assert subperiods == expected and repr(subperiods) == repr(expected)
