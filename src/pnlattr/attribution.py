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
is the quote change earned on an asset-value weight. Parts sum to the total
by construction: the residual is floating-point round-off, and construction
rejects anything worse.

Coupons break the single-period telescope, so the period is segmented at
every cashflow and transaction date, and subperiod results add up. The plan
is mode-free: `_priced` makes each subperiod's six prices once (5n + 1
evaluations on n subperiods, each starting at the last one's end price),
and the pure `_split` applies both conventions in every mode asked for: an
ex-coupon start, the coupon in carry at the FX level around its payment
(literal: pre-coupon start; sophis: end quote), and the FX mode's weights.
Every entry point has one front end: `_plan` makes every check before the
first price, and `_attribute` is the one caller of `_priced` and `_split`,
driven per position by `_attribute_views` (four_way_split: one subperiod).
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from ._record import DataclassFields, Record
from .conventions import CarryMode, FxMode, _checked_modes, _fx_weights, _price_fn
from .errors import (
    EmptyPeriod,
    EngineError,
    MissingSnapshot,
    MixedCurrencies,
    NonFiniteReport,
    PricerEvaluationFailed,
    ScheduleOutsideGrid,
)

#: Additivity tolerance, relative to max(1, |total|, scale).
ADDITIVITY_TOL = 1e-9


class AttributionResult(Record):
    """EUR PnL split into four additive parts.

    residual = total - (fx + rate + market + carry) and must vanish to
    round-off; it is kept visible so reports can prove the reconciliation.
    `scale` is the size of the EUR values the parts were computed from:
    round-off is measured against it, since a total that cancels (a coupon
    offsetting the price drop it causes) leaves the values' round-off behind.
    It stays out of ==, hash and repr.
    """

    _fields = ("fx", "rate", "market", "carry", "total")

    def __init__(self, fx: float, rate: float, market: float, carry: float, total: float, scale: float = 0.0):
        isfinite = math.isfinite
        if not (isfinite(fx) and isfinite(rate) and isfinite(market) and isfinite(carry) and isfinite(total)):
            raise NonFiniteReport(f"attribution parts must be finite, got {(fx, rate, market, carry, total)}")
        residual = total - (fx + rate + market + carry)  # as the residual property computes it
        if abs(residual) > ADDITIVITY_TOL * max(1.0, abs(total), scale):
            raise ValueError(f"parts do not sum to total: residual {residual:g} against total {total:g}")
        self.__dict__.update(fx=fx, rate=rate, market=market, carry=carry, total=total, scale=scale)

    @property
    def residual(self) -> float:
        return self.total - (self.fx + self.rate + self.market + self.carry)

    @classmethod
    def combine(cls, results: Iterable["AttributionResult"]) -> "AttributionResult":
        """Componentwise sum (compensated) of any number of results, from one transposed pass."""
        rows = [(r.fx, r.rate, r.market, r.carry, r.total, r.scale) for r in results]
        fx, rate, market, carry, total, scale = list(zip(*rows)) or [()] * 6
        fsum = math.fsum
        try:
            return cls(fx=fsum(fx), rate=fsum(rate), market=fsum(market), carry=fsum(carry), total=fsum(total),
                       scale=max(scale, default=0.0))
        except OverflowError as exc:
            raise NonFiniteReport(f"attribution parts overflow when summed: {exc}") from exc


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

    `pricer` is anything with price(s, curve, factors), or a bare callable with that signature;
    snapshots need curve, factors and fx attributes and go to it opaquely, so production curve
    objects and scalar toy states both work. It is `_plan`'s one subperiod of a unit position.
    """
    modes = (_checked_modes(fx_mode),)
    [subperiods] = _plan((Position("", Bucket.OTHER, pricer),), {t: snap_t, T: snap_T}, [t, T])
    [([result], _)] = _attribute(_price_fn(pricer), subperiods, modes)
    return result


def _priced(price, subperiods: Iterable[_Subperiod]):
    """Yield each subperiod's six prices, pricing it only when asked. A subperiod starts at the
    previous one's end price A_u(r_u, x_u), so n subperiods cost 5n + 1 evaluations."""
    start_old = None
    for t, T, r_t, x_t, r_T, x_T, _, _, _, _, _, _ in subperiods:
        end_new = _evaluate(price, "end price under end curve and end factors", T, r_T, x_T)
        end_old_curve = _evaluate(price, "end price under start curve and end factors", T, r_t, x_T)
        end_old_factors = _evaluate(price, "end price under end curve and start factors", T, r_T, x_t)
        if start_old is None:
            start_old = _evaluate(price, "start price under start curve and start factors", t, r_t, x_t)
        start_new_curve = _evaluate(price, "start price under end curve and start factors", t, r_T, x_t)
        start_new_factors = _evaluate(price, "start price under start curve and end factors", t, r_t, x_T)
        yield end_new, end_old_curve, end_old_factors, start_old, start_new_curve, start_new_factors
        start_old = end_new


def _split(sub: _Subperiod, prices: tuple, fx_mode: FxMode, carry_mode: CarryMode) -> AttributionResult:
    """One subperiod's EUR result in one mode from its six prices; evaluates nothing, and is the one
    reader of either mode. Each part is the unit split times the quantity q. Literal mode adds the start
    coupon to the three start prices; the end coupon, at q * coupon * the average quote around it (sophis:
    chi_last), joins carry and total. The one record holds the final values, so its checks see what the
    run reports. The zero guards keep a -0.0 price or part, which adding 0.0 would make 0.0."""
    end_new, end_old_curve, end_old_factors, start_old, start_new_curve, start_new_factors = prices
    _, _, _, _, _, _, chi_t, chi_T, q, start_coupon, coupon, chi_last = sub
    if start_coupon != 0.0 and carry_mode is CarryMode.LITERAL:
        start_old += start_coupon
        start_new_curve += start_coupon
        start_new_factors += start_coupon

    rate_move = 0.5 * ((end_new - end_old_curve) + (start_new_curve - start_old))
    market_move = 0.5 * ((end_new - end_old_factors) + (start_new_factors - start_old))
    carry_move = 0.5 * ((end_old_factors - start_new_factors) + (end_old_curve - start_new_curve))

    value_weight, weight = _fx_weights(start_old, end_new, chi_t, chi_T, fx_mode)
    carry = q * (weight * carry_move)
    total = q * (end_new * chi_T - start_old * chi_t)
    scale = abs(q) * (max(abs(end_new), abs(end_old_curve), abs(end_old_factors), abs(start_old),
                          abs(start_new_curve), abs(start_new_factors)) * max(chi_t, chi_T))
    if coupon != 0.0:
        coupon_eur = q * coupon * (chi_last if carry_mode is CarryMode.SOPHIS else 0.5 * (chi_t + chi_T))
        carry += coupon_eur
        total += coupon_eur
        scale = max(scale, abs(coupon_eur))
    return AttributionResult(q * (value_weight * (chi_T - chi_t)), q * (weight * rate_move),
                             q * (weight * market_move), carry, total, scale)


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


class CashflowSchedule(Record):
    """Dated cash amounts leaving an instrument, in payment order.

    Amounts are in the instrument currency and in the same units as the
    pricer output they accompany: a position-level schedule is scaled by
    notional. Dates may be calendar dates or plain numbers, as long as
    they are mutually comparable.
    """

    _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[Any, float], ...] = ()):
        entries = tuple((d, float(a)) for d, a in entries)
        for (d1, _), (d2, _) in zip(entries, entries[1:]):
            if not d1 < d2:
                raise ValueError(f"cashflow dates must be strictly increasing: {d1} >= {d2}")
        for d, amount in entries:
            if not (math.isfinite(amount) and amount >= 0.0):
                raise ValueError(f"cashflow amounts must be finite and >= 0, got {amount} at {d}")
        self.__dict__.update(entries=entries, _by_date=dict(entries))

    def amount_on(self, when) -> float:
        return self._by_date.get(when, 0.0)


class Position(Record):
    """One holding: a pricer plus its cashflow schedule and trade history.

    The schedule carries absolute amounts in `currency`, matching the
    pricer's units. Holdings start at notional_sign and move by the
    transaction quantity changes; transaction costs are EUR amounts reported
    separately from the four parts, never netted into them.
    """

    _fields = ("id", "bucket", "pricer", "notional_sign", "schedule", "transactions", "currency")
    __dataclass_fields__ = DataclassFields()

    def __init__(self, id: str, bucket: Bucket, pricer: Any, notional_sign: int = 1,
                 schedule: CashflowSchedule = CashflowSchedule(), transactions: tuple[Transaction, ...] = (),
                 currency: str = "USD"):
        if notional_sign not in (1, -1):
            raise ValueError(f"notional_sign must be +1 or -1, got {notional_sign}")
        bucket = Bucket(bucket)
        currency = currency_code(currency)
        transactions = tuple(checked_transaction(*t) for t in transactions)
        self.__dict__.update(id=id, bucket=bucket, pricer=pricer, notional_sign=notional_sign, schedule=schedule,
                             transactions=transactions, currency=currency)

    def quantity_at(self, when) -> float:
        """Holdings in force just after `when` (sign plus booked changes)."""
        q = float(self.notional_sign)
        for txn in self.transactions:
            if txn.date <= when:
                q += txn.quantity_change
        return q

    def costs_in(self, start, end) -> float:
        """EUR transaction costs booked on dates in [start, end]; NonFiniteReport if their sum overflows."""
        try:
            return math.fsum(t.cost_eur for t in self.transactions if start <= t.date <= end)
        except OverflowError as exc:
            raise NonFiniteReport(f"transaction costs overflow when summed: {exc}") from exc


class Portfolio(Record):
    _fields = ("positions",)

    def __init__(self, positions: tuple[Position, ...]):
        positions = tuple(positions)
        seen = set()
        for pos in positions:
            if pos.id in seen:
                raise ValueError(f"duplicate position id {pos.id!r}")
            seen.add(pos.id)
        self.__dict__.update(positions=positions)


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


#: One position's subperiod (start, end], the same in every mode: the curve and factors _priced prices
#: it under at each end, and every other input of _split: the quotes at both ends, the coupons paid at
#: start and at end, and chi_last, the quote at the period's end.
_Subperiod = namedtuple("_Subperiod", "start end curve_start factors_start curve_end factors_end "
                                      "chi_start chi_end quantity start_coupon coupon chi_last")


def _fx_rate(quote) -> float:
    rate = float(getattr(quote, "rate", quote))
    if not 0.0 < rate < float("inf"):
        raise ValueError(f"fx quote must be finite and > 0, got {rate}")
    return rate


def _plan(positions: Sequence[Position], snapshots, grid: list) -> tuple:
    """Check a run before its first price, then lay out each position's tuple of _Subperiods. The
    checks, in order: a grid of two dates or more that increases at every step; at most one foreign
    currency; a snapshot at every grid date; unless the book is all EUR, fx quotes finite and > 0;
    and each position's non-zero cashflows in (start, end] and quantity changes in (start, end) on
    the grid. This is the one reader of a snapshot: every leg's curve, factors and quote are resolved here."""
    if len(grid) < 2:
        raise EmptyPeriod("attribution grid needs at least a start and an end date")
    for start, end in zip(grid, grid[1:]):
        if not start < end:
            raise EmptyPeriod(f"period start {start} not before end {end}")
    foreign = [pos for pos in positions if pos.currency != "EUR"]
    for pos in foreign[1:]:
        if pos.currency != foreign[0].currency:
            raise MixedCurrencies(f"position {foreign[0].id} is in {foreign[0].currency} and position "
                                  f"{pos.id} in {pos.currency}; the market quotes one foreign currency")
    if not positions:
        return ()
    mapped = snapshots if isinstance(snapshots, Mapping) else {snap.as_of: snap for snap in snapshots}
    for u in grid:
        if u not in mapped:
            raise MissingSnapshot(f"no market snapshot at {u}")
    snaps = tuple(mapped[u] for u in grid)
    curves, factors = [snap.curve for snap in snaps], [snap.factors for snap in snaps]
    eur, quotes = [1.0] * len(grid), []  # every other currency converts at the snapshot's fx quote
    for u, snap in zip(grid, snaps) if foreign else ():
        try:
            quotes.append(_fx_rate(snap.fx))
        except ValueError as exc:
            raise EngineError(f"market snapshot at {u}: {exc}") from exc
    subperiods, on_grid, start, end = [], set(grid), grid[0], grid[-1]
    for pos in positions:
        for d, amount in pos.schedule.entries:
            if start < d <= end and amount != 0.0 and d not in on_grid:
                raise ScheduleOutsideGrid(f"position {pos.id}: cashflow at {d} not on the attribution grid")
        for txn in pos.transactions:
            if start < txn.date < end and txn.quantity_change != 0.0 and txn.date not in on_grid:
                raise ScheduleOutsideGrid(f"position {pos.id}: transaction at {txn.date} not on the attribution grid")
        chi, amount_on = eur if pos.currency == "EUR" else quotes, pos.schedule.amount_on
        subperiods.append(tuple(
            _Subperiod(grid[i - 1], grid[i], curves[i - 1], factors[i - 1], curves[i], factors[i],
                       chi[i - 1], chi[i], pos.quantity_at(grid[i - 1]), amount_on(grid[i - 1]),
                       amount_on(grid[i]), chi[-1])
            for i in range(1, len(grid))))
    return tuple(subperiods)


def _attribute(price, subperiods: Sequence[_Subperiod], modes: Sequence[tuple[FxMode, CarryMode]]) -> list:
    """Price one position's planned subperiods in turn, each once, and split each in every
    (fx_mode, carry_mode) of modes; returns each mode's (results, their sum), in mode order."""
    prices, trails = _priced(price, subperiods), [[] for _ in modes]
    for sub in subperiods:
        try:
            six = next(prices)
            for results, (fx_mode, carry_mode) in zip(trails, modes):
                results.append(_split(sub, six, fx_mode, carry_mode))
        except EngineError as exc:
            raise exc.at(f"subperiod ({sub.start}, {sub.end}]")
    try:
        return [(results, AttributionResult.combine(results)) for results in trails]
    except EngineError as exc:
        raise exc.at(f"period ({subperiods[0].start}, {subperiods[-1].end}]")


def attribute_position(
    position: Position,
    snapshots,
    grid: Sequence,
    fx_mode: FxMode = FxMode.AVERAGE,
    carry_mode: CarryMode = CarryMode.CORRECTED,
) -> tuple[list[AttributionResult], AttributionResult]:
    """Attribute one position over a snapshot grid, subperiod by subperiod.

    Returns the per-subperiod results over (grid[i-1], grid[i]] and their
    componentwise sum: attribute_portfolio's record of a one-position book on
    this grid, whose cashflows and rebalances inside the period `_plan` checks
    are on it. In CORRECTED mode the total is the realized EUR PnL, coupons
    included; LITERAL mode starts each subperiod at the pre-coupon price.
    """
    modes = (_checked_modes(fx_mode, carry_mode),)
    [view] = _attribute_views((position,), snapshots, list(grid), modes)
    [result] = view.positions
    return list(result.subperiods), result.aggregate


class PositionAttribution(Record):
    """Per-position outcome: subperiod trail, aggregate, and EUR costs."""

    _fields = ("position_id", "bucket", "subperiods", "aggregate", "costs")

    def __init__(self, position_id: str, bucket: Bucket, subperiods: tuple[AttributionResult, ...],
                 aggregate: AttributionResult, costs: float):
        self.__dict__.update(position_id=position_id, bucket=bucket, subperiods=subperiods,
                             aggregate=aggregate, costs=costs)


class PortfolioAttribution(Record):
    """Every position's outcome over the grid, whose first and last dates are the period."""

    _fields = ("grid", "positions")

    def __init__(self, grid: tuple, positions: tuple[PositionAttribution, ...]):
        self.__dict__.update(grid=grid, positions=positions)

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

    EUR positions convert at 1 and all others at the market's one fx column. A mode outside
    its enum is a ValueError; segment_period checks t < T, then `_plan` checks the run once.
    Positions come back in input order; bucket and fund totals are the report's job.
    """
    modes = (_checked_modes(fx_mode, carry_mode),)
    [view] = _attribute_views(portfolio.positions, snapshots, segment_period(portfolio, t, T), modes)
    return view


def attribute_every_mode(portfolio: Portfolio, snapshots, t, T) -> dict[tuple[FxMode, CarryMode], PortfolioAttribution]:
    """attribute_portfolio's result in each of the six modes, keyed by (FxMode, CarryMode), from
    one pricing pass: the modes differ only after pricing, so all six make one mode's pricer calls."""
    modes = [(fx_mode, carry_mode) for fx_mode in FxMode for carry_mode in CarryMode]
    return dict(zip(modes, _attribute_views(portfolio.positions, snapshots, segment_period(portfolio, t, T), modes)))


def _attribute_views(positions: Sequence[Position], snapshots, grid: list, modes) -> list:
    """Each mode's PortfolioAttribution of positions over grid, in mode order, from one plan priced
    once. A missing snapshot names the first position; a date off the grid, or an error raised while
    pricing, splitting or summing a position's costs, names that position."""
    try:
        plan = _plan(positions, snapshots, grid)
    except MissingSnapshot as exc:
        raise exc.at(f"position {positions[0].id}")
    views: list[list[PositionAttribution]] = [[] for _ in modes]
    for pos, subperiods in zip(positions, plan):
        try:
            results = _attribute(_price_fn(pos.pricer), subperiods, modes)
            costs = pos.costs_in(grid[0], grid[-1])
        except EngineError as exc:
            raise exc.at(f"position {pos.id}")
        for view, (trail, aggregate) in zip(views, results):
            view.append(PositionAttribution(pos.id, pos.bucket, tuple(trail), aggregate, costs))
    return [PortfolioAttribution(tuple(grid), tuple(view)) for view in views]
