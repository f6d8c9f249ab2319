"""Shared test helpers: scalar market states, toy pricers and the product-rule sums of a path.

The attribution code never looks inside curve or factor objects, so tests
drive it with plain floats where a closed-form answer is easy to state.
"""

from dataclasses import dataclass
from datetime import date

import pytest

from pnlattr import FxQuote, MarketFactors, MarketSnapshot, PathSet, ZeroCurve, compare_coarse_vs_fine


@dataclass(frozen=True)
class ScalarState:
    """Snapshot stand-in with scalar curve and factors for toy pricers."""

    curve: float
    factors: float
    fx: float
    as_of: object = None


def two_value_pricer(a_start: float, a_end: float):
    """A toy pricer worth a_start at time 0.0 and a_end at any other time, under any curve and factors."""
    def price(s, r, x):
        return a_start if s == 0.0 else a_end
    return price


def product_rule(a, chi):
    """The one-row study of asset path a against fx path chi, on grid 0, 1, ..., len(a) - 1: its
    fine_fx, fine_asset, covariation and total hold the path's product-rule sums."""
    return compare_coarse_vs_fine(PathSet(range(len(a)), {"asset": a, "fx": chi}, seed=0))


def flat_snapshot(as_of: date, rate: float, hazard: float = 0.0, recovery: float = 0.0,
                  basis: float = 0.0, fx: float = 1.0) -> MarketSnapshot:
    return MarketSnapshot(
        as_of=as_of,
        curve=ZeroCurve(as_of, ((1.0, rate),)),
        factors=MarketFactors(hazard_rate=hazard, recovery=recovery, basis_spread=basis),
        fx=FxQuote(fx),
    )


MARKET_CSV = """date,fx,hazard,recovery,basis,curve_tenors,curve_rates
2021-12-31,1.13,0.02,0.4,-0.005,0.5;1;5;10,0.005;0.007;0.012;0.015
2022-02-15,1.10,0.023,0.4,-0.004,0.5;1;5;10,0.009;0.012;0.016;0.019
2022-03-01,1.09,0.024,0.4,-0.004,0.5;1;5;10,0.011;0.014;0.018;0.02
2022-04-01,1.08,0.025,0.4,-0.003,0.5;1;5;10,0.014;0.017;0.021;0.023
"""

PORTFOLIO_TEXT = """# test holdings
[position ACME_BOND]
bucket = MatchedBasis
instrument = bond
currency = USD
direction = long
notional = 4000000
issue = 2021-05-21
maturity = 2026-08-15
coupon_rate = 0.0525
coupon_frequency = 2
transaction = 2021-05-21 0 6268

[position ACME_CDS]
bucket = MatchedBasis
instrument = cds
currency = USD
notional = 4000000
maturity = 2026-08-15
contractual_spread = 0.02
protection = bought

[position EUR_CASH]
bucket = Cash
instrument = cash
currency = EUR
balance = 1000000
deposit_rate = -0.0078
start = 2021-12-31
"""


@pytest.fixture
def market_csv() -> str:
    return MARKET_CSV


@pytest.fixture
def portfolio_text() -> str:
    return PORTFOLIO_TEXT
