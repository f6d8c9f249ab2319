"""Deterministic instrument pricers evaluable under any (curve, factors) mix.

Prices are dirty values in the instrument currency, scaled by notional.
Evaluation is pure and must stay well defined when the curve of one date is
combined with the factors of another: those cross-evaluated prices are the
raw material of the attribution scheme even though nobody ever observes
them in a market.

Coupon convention: price(s, ...) excludes any cashflow dated exactly s, so
the price path drops by the coupon amount at each payment date and the
value at maturity is the redemption alone. A valuation date outside the
spec's `life = (start, end)` (None: no bound) raises, by `_check_life`.

Models are reduced-form with a flat default intensity lambda:

    survival        S(tau) = exp(-lambda * tau)
    bond discount   D(tau) = exp(-(z(tau) + basis) * tau)
    bond            sum_i c * D(tau_i) * S(tau_i) + D(tau_N) * S(tau_N)
                    + recovery * integral D d(-S)   (trapezoid, coupon grid)
    cds (buyer)     [(1 - recovery) * lambda - spread] * risky annuity
                    with risky annuity = integral D * S du on a quarterly
                    trapezoid grid (no basis shift), premium paid
                    continuously; both legs share the quadrature so the par
                    identity spread = lambda * (1 - recovery) prices to
                    exactly zero
    cash            balance * exp(deposit_rate * elapsed)

A bond or CDS evaluation is one pass over its ascending grid of year
fractions: tau 0, then the coupon dates after s for a bond, or the quarterly
quadrature grid for a CDS. Each point takes its zero rate from the curve's
node table by `ZeroCurve.zero_rate`'s rule, walked inline with a node index
that only moves forward, then its discount and survival factors, and the
summands go to `math.fsum`. Scalar `zero_rate` is the reference the tests
hold both pricers to, bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from datetime import date
from enum import Enum
from typing import Protocol

from ._record import Record
from .attribution import CashflowSchedule
from .dates import DAYS_PER_YEAR, add_months, year_fraction
from .market_data import MarketFactors, ZeroCurve


class Pricer(Protocol):
    """Anything with a pure price(s, curve, factors) evaluation rule."""

    def price(self, s, curve: ZeroCurve, factors: MarketFactors) -> float: ...


def _check_life(spec, when: date, what: str = "valuation") -> None:
    """Raise ValueError if `when` falls outside spec.life, its (start, end) with None for no bound."""
    start, end = spec.life
    if start is not None and when < start:
        raise ValueError(f"{what} {when} before instrument start {start}")
    if end is not None and when > end:
        raise ValueError(f"{what} {when} after maturity {end}")


class BondSpec(Record):
    """Fixed-coupon bullet bond, with its coupon dates rolled once at construction."""

    _fields = ("notional", "issue", "maturity", "coupon_rate", "coupon_frequency")

    def __init__(self, notional: float, issue: date, maturity: date, coupon_rate: float,
                 coupon_frequency: int = 2):
        if not (math.isfinite(notional) and notional > 0.0):
            raise ValueError(f"notional must be finite and > 0, got {notional}")
        if not maturity > issue:
            raise ValueError(f"maturity {maturity} not after issue {issue}")
        if not (math.isfinite(coupon_rate) and coupon_rate >= 0.0):
            raise ValueError(f"coupon_rate must be finite and >= 0, got {coupon_rate}")
        if coupon_frequency not in (1, 2, 4, 12):
            raise ValueError(f"coupon_frequency must be 1, 2, 4 or 12, got {coupon_frequency}")
        # coupon dates after issue, the last one the maturity, rolled backward
        # from maturity; each date derived from maturity directly so month-end
        # clamping never compounds
        step = 12 // coupon_frequency
        dates = []
        d = maturity
        while d > issue:
            dates.append(d)
            d = add_months(maturity, -len(dates) * step)
        dates.reverse()
        self.__dict__.update(notional=notional, issue=issue, maturity=maturity, coupon_rate=coupon_rate,
                             coupon_frequency=coupon_frequency, life=(issue, maturity), _coupon_dates=tuple(dates),
                             _coupon_ordinals=tuple(d.toordinal() for d in dates))


def bond_cashflows(spec: BondSpec) -> CashflowSchedule:
    """Coupon schedule in absolute currency amounts (notional-scaled)."""
    if spec.coupon_rate == 0.0:
        return CashflowSchedule()
    amount = spec.notional * spec.coupon_rate / spec.coupon_frequency
    return CashflowSchedule(tuple((d, amount) for d in spec._coupon_dates))


def price_bond(spec: BondSpec, s: date, curve: ZeroCurve, factors: MarketFactors) -> float:
    """Dirty reduced-form bond value at s; see the module docstring for the model."""
    _check_life(spec, s)
    tenors, rates, slopes = curve._table
    last = len(tenors) - 1
    basis, lam = factors.basis_spread, factors.hazard_rate
    with_recovery = factors.recovery != 0.0
    amount = spec.coupon_rate / spec.coupon_frequency
    # the grid is tau 0, then the ACT/365F year fraction to each coupon date
    # after s; the last coupon date is the maturity, so the grid is also the
    # recovery trapezoid grid. Tau 0 lies on or below the first node, so its
    # rate is rates[0].
    d0 = math.exp(-(rates[0] + basis) * 0.0)
    p0 = math.exp(-lam * 0.0)
    coupons = []
    trapezoids = []
    ordinals = spec._coupon_ordinals
    o_s = s.toordinal()
    j = 0
    for o in ordinals[bisect_right(ordinals, o_s):]:
        u = (o - o_s) / DAYS_PER_YEAR
        while j < last and tenors[j + 1] <= u:
            j += 1
        if j == last or u <= tenors[j]:
            z = rates[j]
        else:
            z = slopes[j] * (u - tenors[j]) + rates[j]
        d1 = math.exp(-(z + basis) * u)
        p1 = math.exp(-lam * u)
        coupons.append(amount * d1 * p1)
        if with_recovery:
            trapezoids.append(0.5 * (d0 + d1) * (p0 - p1))
        d0, p0 = d1, p1

    value = math.fsum(coupons)
    value += d0 * p0
    if trapezoids:
        value += factors.recovery * math.fsum(trapezoids)
    return spec.notional * value


class ProtectionSide(str, Enum):
    BOUGHT = "bought"
    SOLD = "sold"


class CdsSpec(Record):
    """Credit default swap with continuously paid premium."""

    _fields = ("notional", "maturity", "contractual_spread", "direction")

    def __init__(self, notional: float, maturity: date, contractual_spread: float,
                 direction: ProtectionSide = ProtectionSide.BOUGHT):
        if not (math.isfinite(notional) and notional > 0.0):
            raise ValueError(f"notional must be finite and > 0, got {notional}")
        if not (math.isfinite(contractual_spread) and contractual_spread >= 0.0):
            raise ValueError(f"contractual_spread must be finite and >= 0, got {contractual_spread}")
        self.__dict__.update(notional=notional, maturity=maturity, contractual_spread=contractual_spread,
                             direction=ProtectionSide(direction), life=(None, maturity))


def price_cds(spec: CdsSpec, s: date, curve: ZeroCurve, factors: MarketFactors) -> float:
    """CDS value to the holder at s (sign flipped for protection sold).

    Protection leg (1-R) * lambda * annuity minus premium leg
    spread * annuity, with the risky annuity integral D * S du evaluated
    by the trapezoid rule on a quarterly grid. The basis spread does not
    enter: it belongs to bond discounting only.
    """
    _check_life(spec, s)
    tau = year_fraction(s, spec.maturity)
    if tau <= 0.0:
        return 0.0
    tenors, rates, slopes = curve._table
    last = len(tenors) - 1
    lam = factors.hazard_rate
    steps = max(1, math.ceil(tau * 4))
    # grid point 0 is tau 0, on or below the first node, so its rate is rates[0]
    u0 = 0.0
    f0 = math.exp(-rates[0] * u0 - lam * u0)
    trapezoids = []
    j = 0
    for k in range(1, steps + 1):
        u1 = tau * k / steps
        while j < last and tenors[j + 1] <= u1:
            j += 1
        if j == last or u1 <= tenors[j]:
            z = rates[j]
        else:
            z = slopes[j] * (u1 - tenors[j]) + rates[j]
        f1 = math.exp(-z * u1 - lam * u1)
        trapezoids.append(0.5 * (f0 + f1) * (u1 - u0))
        u0, f0 = u1, f1
    annuity = math.fsum(trapezoids)
    buyer_value = spec.notional * annuity * ((1.0 - factors.recovery) * lam - spec.contractual_spread)
    return buyer_value if spec.direction is ProtectionSide.BOUGHT else -buyer_value


class CashSpec(Record):
    """Cash account accruing continuously at a fixed deposit rate."""

    _fields = ("balance", "deposit_rate", "start")

    def __init__(self, balance: float, deposit_rate: float, start: date):
        if not math.isfinite(balance) or not math.isfinite(deposit_rate):
            raise ValueError("balance and deposit_rate must be finite")
        self.__dict__.update(balance=balance, deposit_rate=deposit_rate, start=start, life=(start, None))


def price_cash(spec: CashSpec, s: date, curve: ZeroCurve | None = None,
               factors: MarketFactors | None = None) -> float:
    """balance * exp(deposit_rate * elapsed); independent of curve and factors."""
    _check_life(spec, s)
    return spec.balance * math.exp(spec.deposit_rate * year_fraction(spec.start, s))


class _SpecPricer(Record):
    """A Pricer over the one instrument spec it holds."""

    _fields = ("spec",)

    def __init__(self, spec):
        self.__dict__.update(spec=spec)


class BondPricer(_SpecPricer):
    def price(self, s, curve, factors) -> float:
        return price_bond(self.spec, s, curve, factors)


class CdsPricer(_SpecPricer):
    def price(self, s, curve, factors) -> float:
        return price_cds(self.spec, s, curve, factors)


class CashPricer(_SpecPricer):
    def price(self, s, curve, factors) -> float:
        return price_cash(self.spec, s, curve, factors)
