"""Two-point PnL decomposition into FX, rate, market, and carry parts.

The EUR PnL of holding an asset over (t, T] is A_T * chi_T - A_t * chi_t,
where chi is the EUR price of one unit of the asset currency. The split
works off cross-evaluated prices: the asset repriced at one date's
timestamp with the discount curve of a second date and the residual market
factors of a third. Writing a(s; r, x) for the price at time s under curve
r and factors x, and subscripting states by their observation date:

    rate   = mean of the curve-only repricing move at both period ends
    market = mean of the factors-only repricing move at both period ends
    carry  = mean of the two mixed time moves that hold one of r, x at the
             start state and the other at the end state

Each asset-currency piece is converted at an FX weight (average of the two
quotes, or in the start/end variant the end quote), and the FX part itself
is the quote change earned on an asset-value weight. Parts sum to the
total by construction, not by calibration: the residual is floating-point
round-off and construction rejects anything worse.

Coupons break the single-period telescope because the dirty price drops by
the coupon amount at payment. The period is therefore segmented at every
cashflow and transaction date; each subperiod starts at the ex-coupon
price, the coupon is frozen into carry at the FX level around its payment
date (or at the period-end quote in the sophis variant), and subperiod
results add componentwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    DuplicatePositionId,
    EmptyPeriod,
    EngineError,
    MissingSnapshot,
    MixedCurrencies,
    PricerEvaluationFailed,
    ScheduleOutsideGrid,
)
from .pricers import CashflowSchedule

#: Additivity tolerance, relative to max(1, |total|, scale).
ADDITIVITY_TOL = 1e-9


class FxMode(Enum):
    """How the FX part and the asset-to-EUR conversion weight are formed."""

    AVERAGE = "average"      # FX change on the average asset value, parts at the average quote
    START_END = "start-end"  # FX change on the start value, parts at the end quote


class CarryMode(Enum):
    """How coupons enter the carry part across subperiods."""

    CORRECTED = "corrected"  # subperiods start ex-coupon; parts reconcile to realized PnL
    LITERAL = "literal"      # subperiods start at the pre-coupon price; the parts sum
                             # then falls short of realized PnL by interior coupons
    SOPHIS = "sophis"        # ex-coupon starts, but coupons converted at the period-end
                             # quote, as the SOPHIS front-office column does


def _fx_rate(quote) -> float:
    rate = float(getattr(quote, "rate", quote))
    if not rate > 0.0:
        raise ValueError(f"fx quote must be > 0, got {rate}")
    return rate


def _price_fn(pricer):
    price = getattr(pricer, "price", None)
    if callable(price):
        return price
    if callable(pricer):
        return pricer
    raise TypeError(f"pricer {pricer!r} is neither callable nor has a price method")


@dataclass(frozen=True)
class AttributionResult:
    """EUR PnL split into four additive parts.

    residual = total - (fx + rate + market + carry) and must vanish to
    round-off; it is kept visible so reports can prove the reconciliation.
    `scale` is the size of the EUR values the parts were computed from:
    round-off is measured against it, since a total that cancels (a coupon
    offsetting the price drop it causes) leaves the values' round-off behind.
    """

    fx: float
    rate: float
    market: float
    carry: float
    total: float
    scale: float = field(default=0.0, compare=False, repr=False)

    def __post_init__(self):
        parts = (self.fx, self.rate, self.market, self.carry, self.total)
        if not all(math.isfinite(v) for v in parts):
            raise ValueError(f"attribution parts must be finite, got {parts}")
        if abs(self.residual) > ADDITIVITY_TOL * max(1.0, abs(self.total), self.scale):
            raise ValueError(
                f"parts do not sum to total: residual {self.residual:g} against total {self.total:g}"
            )

    @property
    def residual(self) -> float:
        return self.total - (self.fx + self.rate + self.market + self.carry)

    def scaled(self, factor: float) -> "AttributionResult":
        return AttributionResult(
            fx=factor * self.fx,
            rate=factor * self.rate,
            market=factor * self.market,
            carry=factor * self.carry,
            total=factor * self.total,
            scale=abs(factor) * self.scale,
        )

    @classmethod
    def zero(cls) -> "AttributionResult":
        return cls(0.0, 0.0, 0.0, 0.0, 0.0)

    @classmethod
    def combine(cls, results: Iterable["AttributionResult"]) -> "AttributionResult":
        """Componentwise sum (compensated) of any number of results."""
        results = list(results)
        if not results:
            return cls.zero()
        return cls(
            fx=math.fsum(r.fx for r in results),
            rate=math.fsum(r.rate for r in results),
            market=math.fsum(r.market for r in results),
            carry=math.fsum(r.carry for r in results),
            total=math.fsum(r.total for r in results),
            scale=max(r.scale for r in results),
        )


def fx_split(a_start, a_end, chi_start, chi_end, mode: FxMode = FxMode.AVERAGE):
    """Split a_end*chi_end - a_start*chi_start into (fx_part, asset_part).

    AVERAGE earns the full quote change on the mean asset value and
    converts the asset move at the mean quote; START_END earns the quote
    change on the start value and converts at the end quote. Both splits
    sum to the same total exactly.
    """
    cs, ce = _fx_rate(chi_start), _fx_rate(chi_end)
    value_weight, quote_weight = _fx_weights(a_start, a_end, cs, ce, mode)
    return value_weight * (ce - cs), quote_weight * (a_end - a_start)


def _fx_weights(a_start, a_end, cs, ce, mode: FxMode):
    """(asset value that earns the quote change, quote that converts the asset move)."""
    if mode is FxMode.AVERAGE:
        return 0.5 * (a_start + a_end), 0.5 * (cs + ce)
    if mode is FxMode.START_END:
        return a_start, ce
    raise ValueError(f"unknown fx mode {mode!r}")


def _evaluate(price, label: str, s, curve, factors) -> float:
    try:
        value = float(price(s, curve, factors))
    except Exception as exc:
        raise PricerEvaluationFailed(f"{label} raised: {exc}") from exc
    if not math.isfinite(value):
        raise PricerEvaluationFailed(f"{label} returned non-finite value {value!r}")
    return value


def four_way_split(pricer, t, T, snap_t, snap_T, fx_mode: FxMode = FxMode.AVERAGE) -> AttributionResult:
    """Decompose the EUR PnL of one asset over (t, T] into the four parts.

    `pricer` is anything with price(s, curve, factors), or bare callable
    with that signature. Snapshots only need curve, factors, and fx
    attributes; they are handed to the pricer opaquely, which is what lets
    the same code run on production curve objects and on scalar toy states.
    """
    chi_t, chi_T = _fx_rate(snap_t.fx), _fx_rate(snap_T.fx)
    result, _ = _split(_price_fn(pricer), t, T, snap_t, snap_T, chi_t, chi_T, fx_mode)
    return result


def _split(price, t, T, snap_t, snap_T, chi_t, chi_T, fx_mode: FxMode, start_old: float | None = None,
           start_coupon: float = 0.0):
    """four_way_split on a price function and quotes chi_t, chi_T; returns (result, end_new).

    A caller that already holds A_t(r_t, x_t), such as the previous
    subperiod's end_new under the same pure price function, passes it as
    `start_old` and saves one of the six evaluations. A non-zero
    `start_coupon` is added to the three start-date prices, so the period
    starts at the pre-coupon price (literal carry mode); end_new never
    includes it.
    """
    if not t < T:
        raise EmptyPeriod(f"period start {t} not before end {T}")
    r_t, x_t = snap_t.curve, snap_t.factors
    r_T, x_T = snap_T.curve, snap_T.factors

    end_new = _evaluate(price, "end price under end curve and end factors", T, r_T, x_T)
    end_old_curve = _evaluate(price, "end price under start curve and end factors", T, r_t, x_T)
    end_old_factors = _evaluate(price, "end price under end curve and start factors", T, r_T, x_t)
    if start_old is None:
        start_old = _evaluate(price, "start price under start curve and start factors", t, r_t, x_t)
    start_new_curve = _evaluate(price, "start price under end curve and start factors", t, r_T, x_t)
    start_new_factors = _evaluate(price, "start price under start curve and end factors", t, r_t, x_T)
    if start_coupon != 0.0:
        start_old += start_coupon
        start_new_curve += start_coupon
        start_new_factors += start_coupon

    rate_move = 0.5 * ((end_new - end_old_curve) + (start_new_curve - start_old))
    market_move = 0.5 * ((end_new - end_old_factors) + (start_new_factors - start_old))
    carry_move = 0.5 * ((end_old_factors - start_new_factors) + (end_old_curve - start_new_curve))

    value_weight, weight = _fx_weights(start_old, end_new, chi_t, chi_T, fx_mode)
    result = AttributionResult(
        fx=value_weight * (chi_T - chi_t),
        rate=weight * rate_move,
        market=weight * market_move,
        carry=weight * carry_move,
        total=end_new * chi_T - start_old * chi_t,
        scale=max(abs(end_new), abs(end_old_curve), abs(end_old_factors), abs(start_old),
                  abs(start_new_curve), abs(start_new_factors)) * max(chi_t, chi_T),
    )
    return result, end_new


class Bucket(str, Enum):
    """Fund reporting categories for positions."""

    CAPITAL_STRUCTURE = "CapitalStructure"
    SENIOR_SUB = "SeniorSub"
    MISMATCH_BASIS = "MismatchBasis"
    MATCHED_BASIS = "MatchedBasis"
    OTHER = "Other"
    HEDGE = "Hedge"
    CASH = "Cash"


def currency_code(code: str) -> str:
    """`code` upper-cased; raises ValueError unless that is three letters A-Z."""
    code = code.upper()
    if len(code) != 3 or not all("A" <= c <= "Z" for c in code):
        raise ValueError(f"currency must be a three-letter code, got {code!r}")
    return code


class Transaction(NamedTuple):
    date: Any
    quantity_change: float
    cost_eur: float


def checked_transaction(date, quantity_change: float, cost_eur: float) -> Transaction:
    """A Transaction; raises ValueError unless the quantity change is finite
    and the EUR cost is finite and >= 0."""
    if not math.isfinite(quantity_change):
        raise ValueError(f"transaction {date}: quantity change must be finite, got {quantity_change}")
    if not (math.isfinite(cost_eur) and cost_eur >= 0.0):
        raise ValueError(f"transaction {date}: cost must be finite and >= 0, got {cost_eur}")
    return Transaction(date, quantity_change, cost_eur)


@dataclass(frozen=True)
class Position:
    """One holding: a pricer plus its cashflow schedule and trade history.

    The schedule carries absolute amounts in `currency`, matching the
    pricer's units. Holdings start at notional_sign and move by the
    transaction quantity changes; transaction costs are EUR amounts reported
    separately from the four parts, never netted into them.
    """

    id: str
    bucket: Bucket
    pricer: Any
    notional_sign: int = 1
    schedule: CashflowSchedule = CashflowSchedule()
    transactions: tuple[Transaction, ...] = ()
    currency: str = "USD"

    def __post_init__(self):
        if self.notional_sign not in (1, -1):
            raise ValueError(f"notional_sign must be +1 or -1, got {self.notional_sign}")
        object.__setattr__(self, "bucket", Bucket(self.bucket))
        object.__setattr__(self, "currency", currency_code(self.currency))
        txns = tuple(checked_transaction(*t) for t in self.transactions)
        object.__setattr__(self, "transactions", txns)

    def quantity_at(self, when) -> float:
        """Holdings in force just after `when` (sign plus booked changes)."""
        q = float(self.notional_sign)
        for txn in self.transactions:
            if txn.date <= when:
                q += txn.quantity_change
        return q

    def costs_in(self, start, end) -> float:
        """EUR transaction costs booked on dates in [start, end]."""
        return math.fsum(t.cost_eur for t in self.transactions if start <= t.date <= end)


@dataclass(frozen=True)
class Portfolio:
    positions: tuple[Position, ...]

    def __post_init__(self):
        object.__setattr__(self, "positions", tuple(self.positions))
        seen = set()
        for pos in self.positions:
            if pos.id in seen:
                raise DuplicatePositionId(f"duplicate position id {pos.id!r}")
            seen.add(pos.id)


def segment_period(scope, t, T) -> list:
    """Grid t = t_0 < ... < t_n = T containing every transaction and
    cashflow date in (t, T] of every position in scope.

    `scope` is a Position or a Portfolio.
    """
    if not t < T:
        raise EmptyPeriod(f"period start {t} not before end {T}")
    positions = scope.positions if isinstance(scope, Portfolio) else (scope,)
    dates = {t, T}
    for pos in positions:
        dates.update(txn.date for txn in pos.transactions if t < txn.date <= T)
        dates.update(d for d, _ in pos.schedule.entries if t < d <= T)
    return sorted(dates)


def _as_snapshot_map(snapshots) -> Mapping:
    if isinstance(snapshots, Mapping):
        return snapshots
    return {snap.as_of: snap for snap in snapshots}


def _quantities(transactions, notional_sign: int, dates: Sequence) -> list[float]:
    """Position.quantity_at for each of the ascending dates, from one pass
    over the transactions in date order."""
    ordered = sorted(transactions, key=lambda txn: txn.date)
    quantity, i = float(notional_sign), 0
    out = []
    for when in dates:
        while i < len(ordered) and ordered[i].date <= when:
            quantity += ordered[i].quantity_change
            i += 1
        out.append(quantity)
    return out


def attribute_position(
    position: Position,
    snapshots,
    grid: Sequence,
    fx_mode: FxMode = FxMode.AVERAGE,
    carry_mode: CarryMode = CarryMode.CORRECTED,
) -> tuple[list[AttributionResult], AttributionResult]:
    """Attribute one position over a snapshot grid, subperiod by subperiod.

    Returns the per-subperiod results over (grid[i-1], grid[i]] and their
    componentwise sum. In CORRECTED mode the aggregate total equals the
    realized EUR PnL including coupons converted around their payment
    dates; in LITERAL mode each subperiod starts at the pre-coupon price,
    reproducing the shortfall that motivates the correction.
    """
    snaps = _as_snapshot_map(snapshots)
    grid = list(grid)
    if len(grid) < 2:
        raise EmptyPeriod("attribution grid needs at least a start and an end date")
    for u in grid:
        if u not in snaps:
            raise MissingSnapshot(f"no market snapshot at {u}")
    grid_set = set(grid)
    start, end = grid[0], grid[-1]
    for d, amount in position.schedule.entries:
        if start < d <= end and amount != 0.0 and d not in grid_set:
            raise ScheduleOutsideGrid(f"cashflow at {d} not on the attribution grid")

    price = _price_fn(position.pricer)
    chis = [1.0 if position.currency == "EUR" else _fx_rate(snaps[u].fx) for u in grid]
    end_new = None
    quantities = _quantities(position.transactions, position.notional_sign, grid[:-1])
    results: list[AttributionResult] = []
    for i, (u_prev, u_cur, quantity) in enumerate(zip(grid, grid[1:], quantities)):
        start_coupon = position.schedule.amount_on(u_prev) if carry_mode is CarryMode.LITERAL else 0.0
        try:
            split, end_new = _split(price, u_prev, u_cur, snaps[u_prev], snaps[u_cur], chis[i], chis[i + 1],
                                    fx_mode, end_new, start_coupon)
        except EngineError as exc:
            _prefix(exc, f"subperiod ({u_prev}, {u_cur}]")
            raise
        if quantity != 1.0:
            split = split.scaled(quantity)

        coupon = position.schedule.amount_on(u_cur)
        if coupon != 0.0:
            fx_weight = chis[-1] if carry_mode is CarryMode.SOPHIS else 0.5 * (chis[i] + chis[i + 1])
            coupon_eur = quantity * coupon * fx_weight
            split = AttributionResult(
                fx=split.fx,
                rate=split.rate,
                market=split.market,
                carry=split.carry + coupon_eur,
                total=split.total + coupon_eur,
                scale=max(split.scale, abs(coupon_eur)),
            )
        results.append(split)

    return results, AttributionResult.combine(results)


def _prefix(exc: Exception, where: str) -> None:
    """Put `where: ` in front of an engine error's message."""
    exc.args = (f"{where}: {exc.args[0] if exc.args else exc}",) + tuple(exc.args[1:])


@dataclass(frozen=True)
class PositionAttribution:
    """Per-position outcome: subperiod trail, aggregate, and EUR costs."""

    position_id: str
    bucket: Bucket
    subperiods: tuple[AttributionResult, ...]
    aggregate: AttributionResult
    costs: float


@dataclass(frozen=True)
class PortfolioAttribution:
    period: tuple[Any, Any]
    grid: tuple
    positions: tuple[PositionAttribution, ...]

    def by_id(self, position_id: str) -> PositionAttribution:
        for pos in self.positions:
            if pos.position_id == position_id:
                return pos
        raise KeyError(position_id)


def attribute_portfolio(
    portfolio: Portfolio,
    snapshots,
    t,
    T,
    fx_mode: FxMode = FxMode.AVERAGE,
    carry_mode: CarryMode = CarryMode.CORRECTED,
) -> PortfolioAttribution:
    """Attribute every position on the common transaction/coupon grid.

    EUR positions convert at 1 and all others at the market's one fx
    column, so a book may not mix two foreign currencies. Positions come
    back in input order; bucket and fund totals are the report's job (see
    reporting.render_report).
    """
    foreign = [pos for pos in portfolio.positions if pos.currency != "EUR"]
    for pos in foreign[1:]:
        if pos.currency != foreign[0].currency:
            raise MixedCurrencies(f"position {foreign[0].id} is in {foreign[0].currency} and position "
                                  f"{pos.id} in {pos.currency}; the market quotes one foreign currency")
    grid = segment_period(portfolio, t, T)
    snaps = _as_snapshot_map(snapshots)
    per_position: list[PositionAttribution] = []
    for pos in portfolio.positions:
        try:
            subperiods, aggregate = attribute_position(pos, snaps, grid, fx_mode, carry_mode)
        except EngineError as exc:
            _prefix(exc, f"position {pos.id}")
            raise
        per_position.append(
            PositionAttribution(
                position_id=pos.id,
                bucket=pos.bucket,
                subperiods=tuple(subperiods),
                aggregate=aggregate,
                costs=pos.costs_in(t, T),
            )
        )
    return PortfolioAttribution(period=(t, T), grid=tuple(grid), positions=tuple(per_position))
