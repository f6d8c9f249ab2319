"""Deterministic instrument pricers evaluable under any (curve, factors) mix.

Prices are dirty values in the instrument currency, scaled by notional.
Evaluation is pure and must stay well defined when the curve of one date is
combined with the factors of another: those cross-evaluated prices are the
raw material of the attribution scheme even though nobody ever observes
them in a market.

Coupon convention: price(s, ...) excludes any cashflow dated exactly s, so
the price path drops by the coupon amount at each payment date and the
value at maturity is the redemption alone.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from functools import lru_cache
from typing import Any, Protocol

import numpy as np

from .dates import DAYS_PER_YEAR, add_months, year_fraction
from .errors import PastMaturity
from .market_data import MarketFactors, ZeroCurve


@dataclass(frozen=True)
class CashflowSchedule:
    """Dated cash amounts leaving an instrument, in payment order.

    Amounts are in the instrument currency and in the same units as the
    pricer output they accompany: a position-level schedule is scaled by
    notional. Dates may be calendar dates or plain numbers, as long as
    they are mutually comparable.
    """

    entries: tuple[tuple[Any, float], ...] = ()
    _by_date: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entries = tuple((d, float(a)) for d, a in self.entries)
        for (d1, _), (d2, _) in zip(entries, entries[1:]):
            if not d1 < d2:
                raise ValueError(f"cashflow dates must be strictly increasing: {d1!r} >= {d2!r}")
        for d, amount in entries:
            if amount < 0.0:
                raise ValueError(f"cashflow amounts must be >= 0, got {amount} at {d!r}")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_by_date", dict(entries))

    def amount_on(self, when) -> float:
        return self._by_date.get(when, 0.0)


class Pricer(Protocol):
    """Anything with a pure price(s, curve, factors) evaluation rule."""

    def price(self, s, curve: ZeroCurve, factors: MarketFactors) -> float: ...


@dataclass(frozen=True)
class BondSpec:
    """Fixed-coupon bullet bond."""

    notional: float
    issue: date
    maturity: date
    coupon_rate: float
    coupon_frequency: int = 2

    def __post_init__(self):
        if not self.notional > 0.0:
            raise ValueError(f"notional must be > 0, got {self.notional}")
        if not self.maturity > self.issue:
            raise ValueError(f"maturity {self.maturity} not after issue {self.issue}")
        if self.coupon_rate < 0.0:
            raise ValueError(f"coupon_rate must be >= 0, got {self.coupon_rate}")
        if self.coupon_frequency not in (1, 2, 4, 12):
            raise ValueError(f"coupon_frequency must be 1, 2, 4 or 12, got {self.coupon_frequency}")


def _coupon_dates(spec: BondSpec) -> tuple[date, ...]:
    # rolled backward from maturity; each date derived from maturity directly
    # so month-end clamping never compounds
    step = 12 // spec.coupon_frequency
    out = []
    k = 0
    d = spec.maturity
    while d > spec.issue:
        out.append(d)
        k += 1
        d = add_months(spec.maturity, -k * step)
    return tuple(reversed(out))


@lru_cache(maxsize=None)
def _coupon_ordinals(spec: BondSpec) -> np.ndarray:
    # cached per spec; read-only because every evaluation of the spec shares it
    ordinals = np.array([d.toordinal() for d in _coupon_dates(spec)], dtype=np.int64)
    ordinals.flags.writeable = False
    return ordinals


def bond_cashflows(spec: BondSpec) -> CashflowSchedule:
    """Coupon schedule in absolute currency amounts (notional-scaled)."""
    if spec.coupon_rate == 0.0:
        return CashflowSchedule()
    amount = spec.notional * spec.coupon_rate / spec.coupon_frequency
    return CashflowSchedule(tuple((d, amount) for d in _coupon_dates(spec)))


def price_bond(spec: BondSpec, s: date, curve: ZeroCurve, factors: MarketFactors) -> float:
    """Dirty reduced-form bond value at s; see the module docstring for the model."""
    if s > spec.maturity:
        raise PastMaturity(f"valuation {s} after maturity {spec.maturity}")
    # taus = 0, then the year fractions to each coupon date after s; the last
    # coupon date is the maturity, so taus is also the recovery trapezoid grid
    ordinals = _coupon_ordinals(spec)
    s_ordinal = s.toordinal()
    first = ordinals.searchsorted(s_ordinal, side="right")
    taus = np.empty(len(ordinals) - first + 1)
    taus[0] = 0.0
    np.divide(ordinals[first:] - s_ordinal, DAYS_PER_YEAR, out=taus[1:])
    # row 0 discounts (zero rate + basis), row 1 survives (hazard rate)
    rates = np.empty((2, len(taus)))
    rates[0] = curve.zero_rate(taus) + factors.basis_spread
    rates[1] = factors.hazard_rate
    disc, surv = np.exp(rates * -taus)

    amount = spec.coupon_rate / spec.coupon_frequency
    value = math.fsum((amount * disc[1:] * surv[1:]).tolist())
    value += float(disc[-1] * surv[-1])
    if factors.recovery != 0.0 and taus[-1] > 0.0:
        integral = math.fsum((0.5 * (disc[:-1] + disc[1:]) * (surv[:-1] - surv[1:])).tolist())
        value += factors.recovery * integral
    return spec.notional * value


class ProtectionSide(str, Enum):
    BOUGHT = "bought"
    SOLD = "sold"


@dataclass(frozen=True)
class CdsSpec:
    """Credit default swap with continuously paid premium."""

    notional: float
    maturity: date
    contractual_spread: float
    direction: ProtectionSide = ProtectionSide.BOUGHT

    def __post_init__(self):
        if not self.notional > 0.0:
            raise ValueError(f"notional must be > 0, got {self.notional}")
        if self.contractual_spread < 0.0:
            raise ValueError(f"contractual_spread must be >= 0, got {self.contractual_spread}")
        object.__setattr__(self, "direction", ProtectionSide(self.direction))


def price_cds(spec: CdsSpec, s: date, curve: ZeroCurve, factors: MarketFactors) -> float:
    """CDS value to the holder at s (sign flipped for protection sold).

    Protection leg (1-R) * lambda * annuity minus premium leg
    spread * annuity, with the risky annuity integral D * S du evaluated
    by the trapezoid rule on a quarterly grid. The basis spread does not
    enter: it belongs to bond discounting only.
    """
    if s > spec.maturity:
        raise PastMaturity(f"valuation {s} after maturity {spec.maturity}")
    tau = year_fraction(s, spec.maturity)
    if tau <= 0.0:
        return 0.0
    lam = factors.hazard_rate
    steps = max(1, math.ceil(tau * 4))
    grid = tau * np.arange(steps + 1) / steps
    risky = np.exp(-curve.zero_rate(grid) * grid - lam * grid)
    annuity = math.fsum((0.5 * (risky[:-1] + risky[1:]) * np.diff(grid)).tolist())
    buyer_value = spec.notional * annuity * ((1.0 - factors.recovery) * lam - spec.contractual_spread)
    return buyer_value if spec.direction is ProtectionSide.BOUGHT else -buyer_value


@dataclass(frozen=True)
class CashSpec:
    """Cash account accruing continuously at a fixed deposit rate."""

    balance: float
    deposit_rate: float
    start: date

    def __post_init__(self):
        if not math.isfinite(self.balance) or not math.isfinite(self.deposit_rate):
            raise ValueError("balance and deposit_rate must be finite")


def price_cash(spec: CashSpec, s: date, curve: ZeroCurve | None = None,
               factors: MarketFactors | None = None) -> float:
    """balance * exp(deposit_rate * elapsed); independent of curve and factors."""
    if s < spec.start:
        raise ValueError(f"valuation {s} before account start {spec.start}")
    return spec.balance * math.exp(spec.deposit_rate * year_fraction(spec.start, s))


@dataclass(frozen=True)
class BondPricer:
    spec: BondSpec

    def price(self, s, curve, factors) -> float:
        return price_bond(self.spec, s, curve, factors)


@dataclass(frozen=True)
class CdsPricer:
    spec: CdsSpec

    def price(self, s, curve, factors) -> float:
        return price_cds(self.spec, s, curve, factors)


@dataclass(frozen=True)
class CashPricer:
    spec: CashSpec

    def price(self, s, curve, factors) -> float:
        return price_cash(self.spec, s, curve, factors)
