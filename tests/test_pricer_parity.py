"""The pricers against a per-tenor scalar reference, the curve against numpy, and
the month roll against `calendar`.

The pricer references below evaluate the model one tenor at a time with
`math.exp` and float `zero_rate` calls, the way the pricers were first
written. The pricers make one pass over their grid, walking the curve's
node table inline by `zero_rate`'s rule, with the same `math.exp` and
`math.fsum` arithmetic, so prices agree bit for bit. Curves with nodes on
the instrument's own year fractions pin the walk's on-node case. Because
the references share `zero_rate`, the curve is checked on its own against
`np.interp`, the interpolation the seed program used.
"""

import calendar
import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnlattr import (
    BondSpec,
    CdsSpec,
    MarketFactors,
    ProtectionSide,
    ZeroCurve,
    price_bond,
    price_cds,
)
from pnlattr.dates import add_months, year_fraction

ANCHOR = date(2022, 1, 1)

# -0.0 rates make the on-node case visible: interpolating there gives +0.0
rates_st = st.floats(-0.05, 0.2) | st.just(-0.0)
nodes_st = st.tuples(st.floats(0.0, 40.0), rates_st)
curves = st.lists(
    nodes_st,
    min_size=1, max_size=10,
    unique_by=lambda node: round(node[0], 6),
).map(lambda nodes: ZeroCurve(ANCHOR, tuple(sorted(nodes))))


def curves_on(grid):
    """Curves whose nodes sit on points of an instrument's own grid.

    A node on a grid point must give that node's rate, not the interpolation
    from the node below it. Single-node curves, a first node above 0 and
    -0.0 rates all occur.
    """
    tenors = st.lists(st.sampled_from(grid), min_size=1, max_size=10, unique=True).map(sorted)
    return tenors.flatmap(lambda ts: st.lists(rates_st, min_size=len(ts), max_size=len(ts)).map(
        lambda rs: ZeroCurve(ANCHOR, tuple(zip(ts, rs)))))


def bond_grid(spec, s):
    return [0.0] + [year_fraction(s, d) for d in spec._coupon_dates if d > s]


def cds_grid(spec, s):
    tau = year_fraction(s, spec.maturity)
    steps = max(1, math.ceil(tau * 4))
    return [tau * k / steps for k in range(steps + 1)]

factors_st = st.builds(
    MarketFactors,
    hazard_rate=st.floats(0.0, 0.3),
    recovery=st.one_of(st.just(0.0), st.floats(0.0, 0.95)),
    basis_spread=st.floats(-0.02, 0.02),
)


def reference_bond(spec, s, curve, factors):
    lam, basis = factors.hazard_rate, factors.basis_spread

    def disc(tau):
        return math.exp(-(curve.zero_rate(tau) + basis) * tau)

    def surv(tau):
        return math.exp(-lam * tau)

    tau_mat = year_fraction(s, spec.maturity)
    coupon_taus = [year_fraction(s, d) for d in spec._coupon_dates if d > s]
    amount = spec.coupon_rate / spec.coupon_frequency
    value = math.fsum(amount * disc(u) * surv(u) for u in coupon_taus)
    value += disc(tau_mat) * surv(tau_mat)
    if factors.recovery != 0.0 and tau_mat > 0.0:
        grid = sorted({0.0, tau_mat, *coupon_taus})
        integral = math.fsum(
            0.5 * (disc(a) + disc(b)) * (surv(a) - surv(b)) for a, b in zip(grid, grid[1:])
        )
        value += factors.recovery * integral
    return spec.notional * value


def reference_cds(spec, s, curve, factors):
    tau = year_fraction(s, spec.maturity)
    if tau <= 0.0:
        return 0.0
    lam = factors.hazard_rate
    steps = max(1, math.ceil(tau * 4))
    grid = [tau * k / steps for k in range(steps + 1)]
    risky = [math.exp(-curve.zero_rate(u) * u - lam * u) for u in grid]
    annuity = math.fsum(
        0.5 * (risky[k - 1] + risky[k]) * (grid[k] - grid[k - 1]) for k in range(1, steps + 1)
    )
    buyer = spec.notional * annuity * ((1.0 - factors.recovery) * lam - spec.contractual_spread)
    return buyer if spec.direction is ProtectionSide.BOUGHT else -buyer


@settings(max_examples=300)
@given(
    data=st.data(),
    factors=factors_st,
    notional=st.floats(1.0, 1e8),
    issue_offset=st.integers(-4000, 0),
    life=st.integers(1, 12000),
    before_maturity=st.integers(0, 12000),
    coupon_rate=st.one_of(st.just(0.0), st.floats(0.0, 0.15)),
    frequency=st.sampled_from((1, 2, 4, 12)),
)
def test_price_bond_matches_scalar_reference(data, factors, notional, issue_offset, life,
                                             before_maturity, coupon_rate, frequency):
    issue = ANCHOR + timedelta(days=issue_offset)
    maturity = issue + timedelta(days=life)
    spec = BondSpec(notional, issue, maturity, coupon_rate, frequency)
    s = maturity - timedelta(days=min(before_maturity, life))
    curve = data.draw(curves | curves_on(bond_grid(spec, s)))
    assert price_bond(spec, s, curve, factors) == reference_bond(spec, s, curve, factors)


@settings(max_examples=300)
@given(
    data=st.data(),
    factors=factors_st,
    notional=st.floats(1.0, 1e8),
    days_to_maturity=st.integers(0, 12000),
    spread=st.floats(0.0, 0.1),
    direction=st.sampled_from(ProtectionSide),
)
def test_price_cds_matches_scalar_reference(data, factors, notional, days_to_maturity,
                                            spread, direction):
    spec = CdsSpec(notional, ANCHOR + timedelta(days=days_to_maturity), spread, direction)
    curve = data.draw(curves | curves_on(cds_grid(spec, ANCHOR)))
    assert price_cds(spec, ANCHOR, curve, factors) == reference_cds(spec, ANCHOR, curve, factors)


ON_GRID_BOND = BondSpec(1e6, date(2019, 3, 15), date(2034, 3, 15), 0.045, 2)
ON_GRID_CDS = CdsSpec(1e6, date(2031, 6, 20), 0.01)


@pytest.mark.parametrize("nodes", [
    ((-1, 0.03),),
    ((0, 0.14), (-1, 0.019)),
    ((4, 0.087), (-1, -0.009)),
    ((3, 0.053), (5, 0.116), (-1, -0.0)),
    ((1, -0.0), (4, 0.124), (-1, -0.007)),
], ids=["single", "from-0", "above-0", "to-minus-0", "from-minus-0"])
def test_nodes_on_the_instrument_grid_price_as_the_reference(nodes):
    # each node is (index into the instrument's own grid, rate). With these
    # rates, interpolating up to a node from the node below it misses that
    # node's rate in the last bits, and the price shows it
    factors = MarketFactors(0.02, 0.4, 0.001)
    for spec, grid, price, reference in ((ON_GRID_BOND, bond_grid, price_bond, reference_bond),
                                         (ON_GRID_CDS, cds_grid, price_cds, reference_cds)):
        taus = grid(spec, ANCHOR)
        curve = ZeroCurve(ANCHOR, tuple((taus[i], rate) for i, rate in nodes))
        assert price(spec, ANCHOR, curve, factors) == reference(spec, ANCHOR, curve, factors)


def _tenors(nodes):
    # on nodes, between neighbouring nodes, below the first and beyond the last
    on = [t for t, _ in nodes]
    between = [a + (b - a) * w for a, b in zip(on, on[1:]) for w in (1e-9, 0.3, 0.5, 1 - 1e-9)]
    outside = [on[0] - 1.0, on[0] - 1e-12, on[-1] + 1e-12, on[-1] + 5.0, 100.0]
    return st.lists(st.sampled_from(on + between + outside) | st.floats(-5.0, 60.0), max_size=40)


one_node_curves = nodes_st.map(lambda node: ZeroCurve(ANCHOR, (node,)))


@given(data=st.data(), curve=curves | one_node_curves)
def test_zero_rate_equals_np_interp_bit_for_bit(data, curve):
    tenors = data.draw(_tenors(curve.nodes))
    node_tenors, node_rates = zip(*curve.nodes)
    expected = np.interp(tenors, node_tenors, node_rates).tolist()
    scalar = [curve.zero_rate(t) for t in tenors]
    assert all(type(z) is float for z in scalar)
    assert [z.hex() for z in scalar] == [z.hex() for z in expected]


def test_curve_table_is_derived_state():
    curve = ZeroCurve(ANCHOR, ((0.5, 0.01), (2.0, 0.02), (10.0, 0.03)))
    twin = ZeroCurve(ANCHOR, ((0.5, 0.01), (2.0, 0.02), (10.0, 0.03)))
    object.__setattr__(twin, "_table", ((), (), ()))
    assert twin == curve
    assert hash(twin) == hash(curve)
    assert repr(twin) == repr(curve)
    assert "_table" not in repr(curve)

    moved = ZeroCurve(curve.anchor_date, ((1.0, 0.05), (3.0, 0.07)))
    assert moved._table == ((1.0, 3.0), (0.05, 0.07), ((0.07 - 0.05) / (3.0 - 1.0),))
    assert moved.zero_rate(2.0) == np.interp(2.0, (1.0, 3.0), (0.05, 0.07))
    assert ZeroCurve(curve.anchor_date, curve.nodes)._table == curve._table


def test_add_months_equals_monthrange_reference():
    # every day from 1900 to 2100, shifted by -13 to +25 months
    for year in range(1900, 2101):
        for month in range(1, 13):
            days = [date(year, month, day) for day in range(1, calendar.monthrange(year, month)[1] + 1)]
            for months in range(-13, 26):
                carry, month0 = divmod(month - 1 + months, 12)
                to_year, to_month = year + carry, month0 + 1
                length = calendar.monthrange(to_year, to_month)[1]
                expected = [date(to_year, to_month, min(d.day, length)) for d in days]
                assert [add_months(d, months) for d in days] == expected, (year, month, months)
