"""Subperiods share their boundary price instead of evaluating it twice.

A subperiod's start price A_u(r_u, x_u) is the previous subperiod's end
price, so every carry mode makes 5n + 1 evaluations on an n-subperiod grid.
Literal mode adds the coupon paid at u to its three start prices, whether
reused or freshly evaluated. Every subperiod result must stay bit for bit
as four_way_split gives it on a pricer wrapped to return the pre-coupon price.
"""

import math
from datetime import date

import pytest

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
    four_way_split,
    segment_period,
)

from conftest import ScalarState, flat_snapshot


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


def fx_rate(snap):
    return getattr(snap.fx, "rate", snap.fx)


def reference_subperiods(position, snaps, grid, fx_mode, carry_mode):
    """The subperiod loop written with the public four_way_split."""
    out = []
    chi_end = fx_rate(snaps[grid[-1]])
    for u_prev, u_cur in zip(grid, grid[1:]):
        price = position.pricer.price
        start_coupon = position.schedule.amount_on(u_prev)
        if carry_mode is CarryMode.LITERAL and start_coupon != 0.0:
            def price(s, r, x, base=price, start=u_prev, amount=start_coupon):
                return base(s, r, x) + amount if s == start else base(s, r, x)
        split = four_way_split(price, u_prev, u_cur, snaps[u_prev], snaps[u_cur], fx_mode)
        quantity = position.quantity_at(u_prev)
        if quantity != 1.0:
            split = split.scaled(quantity)
        coupon = position.schedule.amount_on(u_cur)
        if coupon != 0.0:
            weight = chi_end if carry_mode is CarryMode.SOPHIS else 0.5 * (
                fx_rate(snaps[u_prev]) + fx_rate(snaps[u_cur]))
            coupon_eur = quantity * coupon * weight
            split = AttributionResult(split.fx, split.rate, split.market,
                                      split.carry + coupon_eur, split.total + coupon_eur)
        out.append(split)
    return out


GRID = [0.0, 0.125, 0.25, 0.5, 0.625, 0.75, 1.0]
SNAPS = {u: ScalarState(0.01 + 0.03 * u * u, 0.02 + 0.01 * math.sin(7 * u), 1.1 - 0.2 * u)
         for u in GRID}


@pytest.mark.parametrize("carry_mode", list(CarryMode))
@pytest.mark.parametrize("fx_mode", list(FxMode))
def test_evaluation_count_and_bit_identical_subperiods(carry_mode, fx_mode):
    n = len(GRID) - 1
    # coupons on the first grid date, on interior grid dates and at the end;
    # quantities change mid-grid, listed out of date order, in dyadic steps so
    # any summation order is exact
    schedule = CashflowSchedule(((0.0, 1.5), (0.25, 2.5), (0.625, 1.75), (1.0, 2.5)))
    transactions = (Transaction(0.5, -0.75, 0.0), Transaction(-1.0, 0.5, 0.0),
                    Transaction(0.125, 1.25, 0.0))
    pricer = CountingPricer(toy_price)
    position = Position(id="p", bucket=Bucket.OTHER, pricer=pricer, schedule=schedule,
                        transactions=transactions)

    subperiods, aggregate = attribute_position(position, SNAPS, GRID, fx_mode, carry_mode)

    assert pricer.calls == 5 * n + 1
    expected = reference_subperiods(position, SNAPS, GRID, fx_mode, carry_mode)
    assert subperiods == expected
    assert aggregate == AttributionResult.combine(expected)


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
    assert subperiods == reference_subperiods(position, snaps, grid, FxMode.AVERAGE, carry_mode)
