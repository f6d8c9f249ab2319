import hashlib
import math
import struct
from datetime import date

import pytest

from pnlattr import (
    BondPricer,
    BondSpec,
    CashflowSchedule,
    CashPricer,
    CashSpec,
    CdsPricer,
    CdsSpec,
    MarketFactors,
    ZeroCurve,
    bond_cashflows,
    price_bond,
    price_cash,
    price_cds,
)

S = date(2022, 1, 1)
FIVE_YEARS = date(2026, 12, 31)  # 1825 days = 5.0 years ACT/365F


def flat_curve(rate, anchor=S):
    return ZeroCurve(anchor, ((1.0, rate),))


def test_zero_coupon_closed_form():
    spec = BondSpec(notional=1.0, issue=date(2020, 1, 1), maturity=FIVE_YEARS, coupon_rate=0.0)
    factors = MarketFactors(hazard_rate=0.03, recovery=0.0, basis_spread=0.0)
    value = price_bond(spec, S, flat_curve(0.02), factors)
    assert value == pytest.approx(math.exp(-0.25), rel=1e-12)
    assert value == pytest.approx(0.778801, abs=1e-6)


def test_bond_at_maturity_is_redemption_only():
    spec = BondSpec(notional=3.0, issue=date(2020, 1, 1), maturity=S, coupon_rate=0.08,
                    coupon_frequency=4)
    # recovery must be irrelevant at maturity
    for recovery in (0.0, 0.4, 0.9):
        factors = MarketFactors(hazard_rate=0.05, recovery=recovery)
        assert price_bond(spec, S, flat_curve(0.03), factors) == pytest.approx(3.0, rel=1e-15)


def test_no_discount_no_default_price_is_par_plus_coupons():
    spec = BondSpec(notional=1.0, issue=date(2021, 6, 30), maturity=date(2024, 6, 30),
                    coupon_rate=0.05, coupon_frequency=2)
    factors = MarketFactors(hazard_rate=0.0, recovery=0.0, basis_spread=0.0)
    value = price_bond(spec, S, flat_curve(0.0), factors)
    remaining = [d for d, _ in bond_cashflows(spec).entries if d > S]
    assert value == pytest.approx(1.0 + 0.025 * len(remaining), rel=1e-14)
    assert len(remaining) == 5


def test_past_maturity_rejected():
    spec = BondSpec(notional=1.0, issue=date(2020, 1, 1), maturity=date(2021, 1, 1),
                    coupon_rate=0.0)
    with pytest.raises(ValueError):
        price_bond(spec, S, flat_curve(0.01), MarketFactors(0.0))


def test_valuation_before_issue_rejected():
    # a bond lives from issue to maturity: it prices on its issue date, not the day before
    spec = BondSpec(notional=1.0, issue=S, maturity=FIVE_YEARS, coupon_rate=0.05)
    with pytest.raises(ValueError, match="^valuation 2021-12-31 before instrument start 2022-01-01$"):
        price_bond(spec, date(2021, 12, 31), flat_curve(0.01), MarketFactors(0.0))
    assert price_bond(spec, S, flat_curve(0.0), MarketFactors(0.0)) == pytest.approx(1.25, rel=1e-15)


def test_bond_price_decreases_in_hazard_and_rates():
    spec = BondSpec(notional=100.0, issue=date(2021, 1, 1), maturity=FIVE_YEARS,
                    coupon_rate=0.04, coupon_frequency=2)
    prices_h = [
        price_bond(spec, S, flat_curve(0.02), MarketFactors(h, 0.3, 0.0))
        for h in (0.0, 0.01, 0.05, 0.1, 0.3)
    ]
    assert all(b < a for a, b in zip(prices_h, prices_h[1:]))
    prices_r = [
        price_bond(spec, S, flat_curve(r), MarketFactors(0.02, 0.3, 0.0))
        for r in (-0.01, 0.0, 0.02, 0.05, 0.1)
    ]
    assert all(b < a for a, b in zip(prices_r, prices_r[1:]))


def test_recovery_raises_the_price():
    spec = BondSpec(notional=100.0, issue=date(2021, 1, 1), maturity=FIVE_YEARS,
                    coupon_rate=0.04)
    low = price_bond(spec, S, flat_curve(0.02), MarketFactors(0.08, 0.0))
    high = price_bond(spec, S, flat_curve(0.02), MarketFactors(0.08, 0.45))
    assert high > low


def test_basis_spread_shifts_bond_discounting_only():
    bond = BondSpec(notional=100.0, issue=date(2021, 1, 1), maturity=FIVE_YEARS, coupon_rate=0.04)
    cds = CdsSpec(notional=100.0, maturity=FIVE_YEARS, contractual_spread=0.02)
    tight = MarketFactors(0.02, 0.4, 0.0)
    wide = MarketFactors(0.02, 0.4, -0.01)
    assert price_bond(bond, S, flat_curve(0.02), wide) > price_bond(bond, S, flat_curve(0.02), tight)
    assert price_cds(cds, S, flat_curve(0.02), wide) == price_cds(cds, S, flat_curve(0.02), tight)


def test_purity_bit_identical_over_repeats():
    spec = BondSpec(notional=4e6, issue=date(2021, 5, 21), maturity=date(2029, 1, 15),
                    coupon_rate=0.0525)
    curve = ZeroCurve(S, ((0.5, 0.004), (2.0, 0.011), (7.0, 0.023)))
    factors = MarketFactors(0.021, 0.4, -0.006)
    digests = set()
    for _ in range(100):
        value = price_bond(spec, S, curve, factors)
        digests.add(hashlib.sha256(struct.pack("<d", value)).hexdigest())
    assert len(digests) == 1


def test_cross_evaluation_totality():
    curves = [flat_curve(r) for r in (-0.005, 0.01, 0.035)]
    factor_states = [MarketFactors(h, rec, b) for h, rec, b in
                     ((0.0, 0.0, 0.0), (0.02, 0.4, -0.005), (0.15, 0.1, 0.01))]
    instruments = [
        BondPricer(BondSpec(1e6, date(2021, 1, 1), FIVE_YEARS, 0.05)),
        CdsPricer(CdsSpec(1e6, FIVE_YEARS, 0.02)),
        CashPricer(CashSpec(1e6, -0.0078, date(2021, 1, 1))),
    ]
    for pricer in instruments:
        for curve in curves:
            for factors in factor_states:
                assert math.isfinite(pricer.price(S, curve, factors))


def test_cds_no_default_is_minus_premium_leg():
    spec = CdsSpec(notional=1.0, maturity=FIVE_YEARS, contractual_spread=0.02)
    factors = MarketFactors(hazard_rate=0.0, recovery=0.4)
    value = price_cds(spec, S, flat_curve(0.02), factors)
    assert value < 0.0
    # closed-form annuity on a flat curve with zero hazard
    annuity = (1.0 - math.exp(-0.02 * 5.0)) / 0.02
    assert value == pytest.approx(-0.02 * annuity, rel=1e-4)


def test_cds_par_identity_prices_to_zero():
    lam, recovery = 0.03, 0.4
    spec = CdsSpec(notional=5e6, maturity=FIVE_YEARS, contractual_spread=lam * (1 - recovery))
    value = price_cds(spec, S, flat_curve(0.02), MarketFactors(lam, recovery))
    assert value == 0.0


def test_cds_expired_and_antisymmetry():
    factors = MarketFactors(0.04, 0.4)
    expired = CdsSpec(notional=1e6, maturity=S, contractual_spread=0.01)
    assert price_cds(expired, S, flat_curve(0.02), factors) == 0.0
    bought = CdsSpec(notional=1e6, maturity=FIVE_YEARS, contractual_spread=0.01, direction="bought")
    sold = CdsSpec(notional=1e6, maturity=FIVE_YEARS, contractual_spread=0.01, direction="sold")
    vb = price_cds(bought, S, flat_curve(0.02), factors)
    vs = price_cds(sold, S, flat_curve(0.02), factors)
    assert vb == -vs
    assert vb != 0.0


def test_cds_past_maturity_rejected():
    spec = CdsSpec(notional=1e6, maturity=date(2021, 12, 31), contractual_spread=0.01)
    with pytest.raises(ValueError, match="^valuation 2022-01-01 after maturity 2021-12-31$"):
        price_cds(spec, S, flat_curve(0.02), MarketFactors(0.04, 0.4))


def test_cds_protection_leg_against_closed_form():
    # trapezoid on the quarterly grid vs the exact flat-curve integral
    lam, z, recovery = 0.05, 0.02, 0.4
    spec = CdsSpec(notional=1.0, maturity=FIVE_YEARS, contractual_spread=0.0)
    protection = price_cds(spec, S, flat_curve(z), MarketFactors(lam, recovery))
    exact = (1 - recovery) * lam / (z + lam) * (1 - math.exp(-(z + lam) * 5.0))
    # quarterly trapezoid error is about h^2/12 * (z+lam)^2, so 5e-5 relative
    assert protection == pytest.approx(exact, rel=5e-5)


def test_cash_identities():
    spec = CashSpec(balance=1_000_000.0, deposit_rate=-0.0078, start=date(2021, 4, 1))
    assert price_cash(CashSpec(500.0, 0.0, S), date(2023, 7, 19)) == 500.0
    assert price_cash(spec, spec.start) == spec.balance
    one_year_on = date(2022, 4, 1)
    assert price_cash(spec, one_year_on) == pytest.approx(1_000_000 * math.exp(-0.0078), rel=1e-12)
    assert price_cash(spec, one_year_on) == pytest.approx(992_230, abs=1.0)
    with pytest.raises(ValueError, match="^valuation 2021-01-01 before instrument start 2021-04-01$"):
        price_cash(spec, date(2021, 1, 1))



def test_schedule_invariants():
    with pytest.raises(ValueError):
        CashflowSchedule(((date(2022, 6, 15), 2.5), (date(2022, 6, 15), 2.5)))
    with pytest.raises(ValueError):
        CashflowSchedule(((date(2022, 6, 15), -1.0),))


def test_bond_cashflows_roll_semiannually():
    spec = BondSpec(notional=4e6, issue=date(2021, 5, 21), maturity=date(2024, 1, 15),
                    coupon_rate=0.05, coupon_frequency=2)
    schedule = bond_cashflows(spec)
    dates = [d for d, _ in schedule.entries]
    assert dates == [date(2021, 7, 15), date(2022, 1, 15), date(2022, 7, 15),
                     date(2023, 1, 15), date(2023, 7, 15), date(2024, 1, 15)]
    assert all(a == 4e6 * 0.025 for _, a in schedule.entries)
    assert bond_cashflows(BondSpec(1.0, date(2021, 1, 1), date(2024, 1, 1), 0.0)).entries == ()


def test_spec_validation():
    with pytest.raises(ValueError):
        BondSpec(notional=0.0, issue=date(2021, 1, 1), maturity=FIVE_YEARS, coupon_rate=0.05)
    with pytest.raises(ValueError):
        BondSpec(notional=1.0, issue=FIVE_YEARS, maturity=FIVE_YEARS, coupon_rate=0.05)
    with pytest.raises(ValueError):
        BondSpec(notional=1.0, issue=date(2021, 1, 1), maturity=FIVE_YEARS,
                 coupon_rate=0.05, coupon_frequency=3)
    with pytest.raises(ValueError):
        CdsSpec(notional=1.0, maturity=FIVE_YEARS, contractual_spread=-0.01)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_spec_rejects_non_finite_numbers(value):
    with pytest.raises(ValueError, match="notional must be finite"):
        BondSpec(notional=value, issue=date(2021, 1, 1), maturity=FIVE_YEARS, coupon_rate=0.05)
    with pytest.raises(ValueError, match="coupon_rate must be finite"):
        BondSpec(notional=1.0, issue=date(2021, 1, 1), maturity=FIVE_YEARS, coupon_rate=value)
    with pytest.raises(ValueError, match="notional must be finite"):
        CdsSpec(notional=value, maturity=FIVE_YEARS, contractual_spread=0.01)
    with pytest.raises(ValueError, match="contractual_spread must be finite"):
        CdsSpec(notional=1.0, maturity=FIVE_YEARS, contractual_spread=value)
    with pytest.raises(ValueError, match="cashflow amounts must be finite"):
        CashflowSchedule(((date(2022, 6, 15), value),))


def test_bond_coupon_dates_are_rolled_at_construction_and_ignored_by_eq_hash_repr():
    spec = BondSpec(notional=100.0, issue=date(2021, 8, 31), maturity=date(2023, 2, 28),
                    coupon_rate=0.05, coupon_frequency=2)
    assert spec._coupon_dates == (date(2022, 2, 28), date(2022, 8, 28), date(2023, 2, 28))
    assert spec._coupon_ordinals == tuple(d.toordinal() for d in spec._coupon_dates)
    twin = BondSpec(100.0, date(2021, 8, 31), date(2023, 2, 28), 0.05, 2)
    assert (spec == twin, hash(spec) == hash(twin), repr(spec) == repr(twin)) == (True, True, True)
    assert "_coupon" not in repr(spec)
    later = BondSpec(spec.notional, spec.issue, date(2023, 8, 28), spec.coupon_rate, spec.coupon_frequency)
    assert later._coupon_dates == (date(2022, 2, 28), date(2022, 8, 28), date(2023, 2, 28), date(2023, 8, 28))
    assert [d for d, _ in bond_cashflows(later).entries] == list(later._coupon_dates)
    with pytest.raises(ValueError, match="year 0 is out of range"):
        BondSpec(notional=100.0, issue=date(1, 1, 1), maturity=date(1, 3, 1), coupon_rate=0.0)
