"""Random books against the frozen seed program, the pricing every mode shares, and the
relations between the modes, read off the six views of one pricing pass.

The strategy draws a holdings text and a market CSV inside the seed program's
domain: one foreign currency, which it converts every position at; bonds
(zero-coupon too), CDS on both sides and cash, long and short; maturities
after the period end and cash accounts opened at or before its start; and
rebalances on any date, to 0 as well, listed out of date order with sizes
that are not dyadic, so their sum depends on the order they are added in.
Position ids and the standalone label hold quotes, backslashes, commas and
non-ASCII text, which both report formats must quote or escape as the seed
program does. `books(eur=True)` steps outside that domain: a position may
also be in EUR, which converts at 1.0 where the seed program converts it at
the quote.
"""

import contextlib
import dataclasses
import io
import math
import sys
import tempfile
from datetime import date, timedelta
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from pnlattr import (AttributionResult, Bucket, CarryMode, FxMode, Portfolio, attribute_every_mode,
                     attribute_portfolio, four_way_split, load_market_snapshots, load_portfolio)
from pnlattr.cli import run_cli

from conftest import ScalarState
from test_currency import _assert_reconciles

# the frozen seed program, read only: every report must print what it printed
REPO = Path(__file__).resolve().parents[1]
sys.path.append(str(REPO / "perfbench"))
from seedref import attribution as seed_attribution, portfolio_io as seed_portfolio_io  # noqa: E402
from seedref.cli import run_cli as seed_run_cli  # noqa: E402

DEMO_MARKET = (REPO / "demos/data/market.csv").read_text()
DEMO_PERIOD = (date(2021, 12, 31), date(2022, 4, 1))
TENORS = "0.25;1;3;7;15"


def _fixed(book_path, extra=("--nav", "50000000", "--standalone", "FEES=-62500")):
    return (REPO / book_path).read_text(), DEMO_MARKET, *DEMO_PERIOD, extra


DEMO_BOOK = _fixed("demos/data/portfolio.txt")
OUT_OF_ORDER_BOOK = _fixed("tests/data/out_of_order_book.txt")
HEDGED_BASIS_BOOK = _fixed("demos/data/hedged_basis.txt", ())


def _number(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


def _day(draw, low: date, high: date) -> date:
    return low + timedelta(days=draw(st.integers(0, (high - low).days)))


@st.composite
def _transactions(draw, sign: int, first: date, last: date, t: date, T: date) -> list[str]:
    """Transaction lines in file order, dated in the instrument's life [first, last]
    from before t to after T, and listed in no particular date order."""
    low, high = max(first, t - timedelta(days=120)), min(last, T + timedelta(days=30))
    txns = [(_day(draw, low, high), draw(_number(-2.0, 2.0)), draw(_number(0.0, 5e3)))
            for _ in range(draw(st.integers(0, 4)))]
    if draw(st.booleans()):
        # close to exactly 0 on a day in the period: the change cancels, in file
        # order, the holdings booked by then, and is listed last
        close = _day(draw, t, T)
        held = float(sign)
        for when, change, _ in txns:
            if when <= close:
                held += change
        txns.append((close, -held, 0.0))
    return [f"transaction = {when} {change!r} {cost!r}" for when, change, cost in txns]


@st.composite
def _position(draw, position_id: str, currency: str, t: date, T: date) -> str:
    kind = draw(st.sampled_from(["bond", "bond", "cds", "cash"]))
    sign = draw(st.sampled_from([1, -1]))
    lines = [f"[position {position_id}]", f"bucket = {draw(st.sampled_from(list(Bucket))).value}",
             f"instrument = {kind}", f"currency = {currency}", f"direction = {'long' if sign > 0 else 'short'}"]
    maturity = T + timedelta(days=draw(st.integers(1, 4000)))
    if kind == "bond":
        first = t - timedelta(days=draw(st.integers(0, 3000)))
        rate = draw(st.one_of(st.just(0.0), _number(0.0, 0.09)))
        lines += [f"notional = {draw(_number(1e3, 1e7))!r}", f"issue = {first}", f"maturity = {maturity}",
                  f"coupon_rate = {rate!r}", f"coupon_frequency = {draw(st.sampled_from([1, 2, 4, 12]))}"]
    elif kind == "cds":
        first = date.min
        lines += [f"notional = {draw(_number(1e3, 1e7))!r}", f"maturity = {maturity}",
                  f"contractual_spread = {draw(_number(0.0, 0.05))!r}",
                  f"protection = {draw(st.sampled_from(['bought', 'sold']))}"]
    else:
        first = t - timedelta(days=draw(st.integers(0, 1000)))
        lines += [f"balance = {draw(_number(-1e7, 1e7))!r}", f"deposit_rate = {draw(_number(-0.02, 0.05))!r}",
                  f"start = {first}"]
    last = date.max if kind == "cash" else maturity
    return "\n".join(lines + draw(_transactions(sign, first, last, t, T))) + "\n"


#: Position ids and standalone labels: what a report escapes or quotes, in a
#: CSV field or a JSON string, and no whitespace, '#', ']' or '=', so the holdings
#: file and the LABEL=EUR argument read them back whole.
_TEXT = st.text(st.sampled_from(['P', '7', '"', '\\', ',', '\x7f', '\u00dc', '\U0001f600']), min_size=1, max_size=5)


@st.composite
def books(draw, eur=False):
    """(holdings text, market CSV text, t, T, extra CLI arguments), inside the seed program's domain
    unless eur is true, when each position is in EUR or the book's one foreign currency."""
    t = _day(draw, date(2021, 6, 30), date(2022, 12, 31))
    T = t + timedelta(days=draw(st.integers(1, 200)))
    currency = draw(st.sampled_from(["USD", "GBP", "JPY"]))
    currencies = st.sampled_from([currency, "EUR"] if eur else [currency])
    ids = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    holdings = "\n".join(draw(_position(position_id, draw(currencies), t, T)) for position_id in ids)
    # a snapshot on every grid date, as the seed program lays the grid out, and on a few more
    portfolio = seed_portfolio_io.load_portfolio(io.StringIO(holdings))
    dates = set(seed_attribution.segment_period(portfolio, t, T))
    dates.update(draw(st.lists(st.builds(lambda n: t + timedelta(days=n), st.integers(-30, 230)), max_size=3)))
    rows = ["date,fx,hazard,recovery,basis,curve_tenors,curve_rates"]
    for day in sorted(dates):
        rates = ";".join(repr(draw(_number(-0.01, 0.06))) for _ in TENORS.split(";"))
        rows.append(f"{day},{draw(_number(0.3, 2.0))!r},{draw(_number(0.0, 0.08))!r},"
                    f"{draw(_number(0.0, 0.8))!r},{draw(_number(-0.01, 0.01))!r},{TENORS},{rates}")
    label = draw(_TEXT)
    extra = draw(st.sampled_from([(), ("--nav", "50000000"), ("--nav", "1e7", "--standalone", f"{label}=-62500.5")]))
    return holdings, "\n".join(rows) + "\n", t, T, extra


def _fx_rate(snap):
    return getattr(snap.fx, "rate", snap.fx)


def reference_subperiods(position, snaps, grid, fx_mode, carry_mode):
    """The subperiod loop written with the public four_way_split; a EUR position converts at 1.0."""
    if position.currency == "EUR":
        snaps = {u: ScalarState(snaps[u].curve, snaps[u].factors, 1.0) for u in grid}
    out = []
    chi_end = _fx_rate(snaps[grid[-1]])
    for u_prev, u_cur in zip(grid, grid[1:]):
        price = position.pricer.price
        start_coupon = position.schedule.amount_on(u_prev)
        if carry_mode is CarryMode.LITERAL and start_coupon != 0.0:
            def price(s, r, x, base=price, start=u_prev, amount=start_coupon):
                return base(s, r, x) + amount if s == start else base(s, r, x)
        split = four_way_split(price, u_prev, u_cur, snaps[u_prev], snaps[u_cur], fx_mode)
        q = position.quantity_at(u_prev)
        if q != 1.0:
            split = AttributionResult(q * split.fx, q * split.rate, q * split.market, q * split.carry,
                                      q * split.total, abs(q) * split.scale)
        coupon = position.schedule.amount_on(u_cur)
        if coupon != 0.0:
            weight = chi_end if carry_mode is CarryMode.SOPHIS else 0.5 * (
                _fx_rate(snaps[u_prev]) + _fx_rate(snaps[u_cur]))
            coupon_eur = q * coupon * weight
            split = AttributionResult(split.fx, split.rate, split.market, split.carry + coupon_eur,
                                      split.total + coupon_eur, max(split.scale, abs(coupon_eur)))
        out.append(split)
    return out


def _with_eur(book, *position_ids):
    """book with the named positions moved to EUR."""
    holdings, *rest = book
    for position_id in position_ids:
        head, section = holdings.split(f"[position {position_id}]\n")
        holdings = f"{head}[position {position_id}]\n" + section.replace("currency = USD", "currency = EUR", 1)
    return holdings, *rest


#: The demo books, each with a position or two in EUR
EUR_DEMO_BOOK = _with_eur(DEMO_BOOK, "NBB_CDS")
EUR_OUT_OF_ORDER_BOOK = _with_eur(OUT_OF_ORDER_BOOK, "NBB_BOND")
EUR_HEDGED_BASIS_BOOK = _with_eur(HEDGED_BASIS_BOOK, "NBB_BOND", "RATE_HEDGE")


MODES = [(carry.value, fx.value, fmt) for carry in CarryMode for fx in FxMode for fmt in ("csv", "json")]


def _attribute(run, holdings_path, market_path, t, T, extra, carry, fx, fmt, output):
    """run's exit code and stderr text for one attribute run, the report written to output."""
    args = ["attribute", "--portfolio", str(holdings_path), "--market", str(market_path), "--from", str(t),
            "--to", str(T), "--carry-mode", carry, "--fx-mode", fx, "--format", fmt, *extra, "--output", str(output)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(args)
    return code, err.getvalue()


# No shrink phase, so a failing book is reported at once; the fixed books come
# first. In the out-of-order book the holdings differ in the last bit unless
# added in file order; the demo book has a coupon inside the period, so the
# literal start coupon and the sophis coupon quote both show.
@settings(max_examples=15, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(book=books())
@example(book=DEMO_BOOK)
@example(book=OUT_OF_ORDER_BOOK)
@example(book=HEDGED_BASIS_BOOK)
def test_random_books_print_what_the_seed_program_prints(book):
    holdings, market, t, T, extra = book
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        holdings_path, market_path = folder / "book.txt", folder / "market.csv"
        holdings_path.write_text(holdings, encoding="utf-8")
        market_path.write_text(market, encoding="utf-8")
        for carry, fx, fmt in MODES:
            runs = {}
            for name, run in (("pnlattr", run_cli), ("seedref", seed_run_cli)):
                output = folder / f"report.{name}"
                output.unlink(missing_ok=True)
                code, err = _attribute(run, holdings_path, market_path, t, T, extra, carry, fx, fmt, output)
                runs[name] = code, err, output.read_bytes() if code == 0 else None
            assert runs["pnlattr"] == runs["seedref"], (carry, fx, fmt)
            assert runs["seedref"][0] == 0, runs["seedref"][1]


class _Recording:
    """A pricer wrapped to record every call as (s, curve, factors, value bits)."""

    def __init__(self, pricer, calls: list):
        self._price, self._calls = pricer.price, calls

    def price(self, s, curve, factors):
        value = self._price(s, curve, factors)
        self._calls.append((s, curve, factors, float(value).hex()))
        return value


def _bits(result):
    return tuple(float(value).hex() for value in (result.fx, result.rate, result.market, result.carry, result.total,
                                                  result.scale))


def _trail_bits(attribution):
    return [[_bits(r) for r in (*pos.subperiods, pos.aggregate)] for pos in attribution.positions]


def _recorded(portfolio, calls: list):
    return Portfolio(tuple(dataclasses.replace(pos, pricer=_Recording(pos.pricer, calls))
                           for pos in portfolio.positions))


@settings(max_examples=10, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(book=books())
@example(book=DEMO_BOOK)
@example(book=OUT_OF_ORDER_BOOK)
def test_every_mode_makes_the_same_pricer_calls(book):
    """attribute_every_mode prices once for all six carry x FX modes: the calls of one
    attribute_portfolio run, in the same order, with the same arguments and values. Each view
    is a separate run of its mode bit for bit. Sophis fx, rate and market are corrected's bit
    for bit, and both FX modes give the same totals."""
    holdings, market, t, T, _ = book
    portfolio = load_portfolio(io.StringIO(holdings))
    snapshots = load_market_snapshots(io.StringIO(market))
    one_mode, every_mode = [], []
    attribute_portfolio(_recorded(portfolio, one_mode), snapshots, t, T)
    views = attribute_every_mode(_recorded(portfolio, every_mode), snapshots, t, T)
    assert one_mode and every_mode == one_mode
    assert list(views) == [(fx, carry) for fx in FxMode for carry in CarryMode]
    results = {}
    for (fx, carry), view in views.items():
        run = attribute_portfolio(portfolio, snapshots, t, T, fx, carry)
        assert view == run and repr(view) == repr(run), (fx, carry)
        results[carry, fx] = _trail_bits(view)
        assert results[carry, fx] == _trail_bits(run), (fx, carry)
    for fx in FxMode:
        for corrected, sophis in zip(results[CarryMode.CORRECTED, fx], results[CarryMode.SOPHIS, fx]):
            assert [bits[:3] for bits in sophis] == [bits[:3] for bits in corrected]
    for carry in CarryMode:
        for average, start_end in zip(results[carry, FxMode.AVERAGE], results[carry, FxMode.START_END]):
            assert [bits[4] for bits in start_end] == [bits[4] for bits in average]


# The mode relations, read off the six views of one price table. Each holds up to the round-off
# of the EUR values it is computed from: ROUNDOFF times the records' scale, summed over the
# subperiods for a position's sum.
ROUNDOFF = 16 * sys.float_info.epsilon


def _views(book):
    holdings, market, t, T, _ = book
    portfolio = load_portfolio(io.StringIO(holdings))
    snapshots = {snap.as_of: snap for snap in load_market_snapshots(io.StringIO(market))}
    return portfolio, snapshots, attribute_every_mode(portfolio, snapshots, t, T)


def _near(got, want, scale):
    return abs(got - want) <= ROUNDOFF * scale


def _legs(portfolio, snapshots, view):
    """Per position: its attribution in view, its (q, c(u_prev), c(u), chi(u_prev), chi(u)) on each
    subperiod (u_prev, u], and chi_T."""
    grid = view.grid
    for pos, attributed in zip(portfolio.positions, view.positions):
        chi = [1.0 if pos.currency == "EUR" else snapshots[u].fx.rate for u in grid]
        coupons = [pos.schedule.amount_on(u) for u in grid]
        legs = [(pos.quantity_at(grid[i - 1]), coupons[i - 1], coupons[i], chi[i - 1], chi[i])
                for i in range(1, len(grid))]
        yield attributed, legs, chi[-1]


@settings(max_examples=15, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(book=books())
@example(book=DEMO_BOOK)
@example(book=OUT_OF_ORDER_BOOK)
@example(book=HEDGED_BASIS_BOOK)
def test_literal_total_is_corrected_less_the_start_coupons(book):
    # literal total = corrected total - sum_i q_i c(u_{i-1}) chi(u_{i-1}), subperiod by subperiod
    portfolio, snapshots, views = _views(book)
    for fx in FxMode:
        corrected, literal = views[fx, CarryMode.CORRECTED], views[fx, CarryMode.LITERAL]
        for (cor, legs, _), lit in zip(_legs(portfolio, snapshots, corrected), literal.positions):
            start_coupons = [q * c_start * chi_start for q, c_start, _, chi_start, _ in legs]
            for c, l, start_coupon in zip(cor.subperiods, lit.subperiods, start_coupons):
                assert _near(l.total, c.total - start_coupon, max(c.scale, l.scale)), (fx, c, l, start_coupon)
            scale = math.fsum(max(c.scale, l.scale) for c, l in zip(cor.subperiods, lit.subperiods))
            assert _near(lit.aggregate.total, cor.aggregate.total - math.fsum(start_coupons), scale), fx


@settings(max_examples=15, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(book=books())
@example(book=DEMO_BOOK)
@example(book=OUT_OF_ORDER_BOOK)
@example(book=HEDGED_BASIS_BOOK)
def test_sophis_moves_only_the_coupon_to_the_end_quote(book):
    # sophis fx, rate and market are corrected's bit for bit; carry (and the total) differ by
    # sum_i q_i c(u_i) (chi_T - (chi(u_{i-1}) + chi(u_i)) / 2)
    portfolio, snapshots, views = _views(book)
    for fx in FxMode:
        corrected, sophis = views[fx, CarryMode.CORRECTED], views[fx, CarryMode.SOPHIS]
        for (cor, legs, chi_T), soph in zip(_legs(portfolio, snapshots, corrected), sophis.positions):
            shifts = [q * c_end * (chi_T - 0.5 * (chi_start + chi_end)) for q, _, c_end, chi_start, chi_end in legs]
            scales = [max(c.scale, s.scale) for c, s in zip(cor.subperiods, soph.subperiods)]
            for c, s, shift, scale in zip((*cor.subperiods, cor.aggregate), (*soph.subperiods, soph.aggregate),
                                          (*shifts, math.fsum(shifts)), (*scales, math.fsum(scales))):
                assert _bits(s)[:3] == _bits(c)[:3]
                assert _near(s.carry, c.carry + shift, scale) and _near(s.total, c.total + shift, scale), (fx, c, s)


def _hold(market: str, columns: tuple) -> str:
    """market with the given columns set to their first row's values on every row."""
    header, *rows = market.splitlines()
    names, first = header.split(","), rows[0].split(",")
    held = [",".join(kept if name in columns else cell for name, cell, kept in zip(names, row.split(","), first))
            for row in rows]
    return "\n".join([header, *held]) + "\n"


@pytest.mark.parametrize("columns, part", [(("curve_tenors", "curve_rates"), "rate"),
                                           (("hazard", "recovery", "basis"), "market"), (("fx",), "fx")],
                         ids=["curve", "factors", "quote"])
@settings(max_examples=10, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(book=books())
@example(book=DEMO_BOOK)
@example(book=OUT_OF_ORDER_BOOK)
@example(book=HEDGED_BASIS_BOOK)
def test_a_state_that_does_not_move_earns_exactly_nothing(columns, part, book):
    # a curve that does not change gives rate == 0.0 exactly in every mode, subperiods and sums
    # alike; the same holds for the factors and market, and for the quote and fx
    holdings, market, t, T, extra = book
    _, _, views = _views((holdings, _hold(market, columns), t, T, extra))
    for mode, view in views.items():
        for pos in view.positions:
            assert all(getattr(r, part) == 0.0 for r in (*pos.subperiods, pos.aggregate)), (mode, pos)


# Beyond the seed program's domain: positions in EUR as well as in the foreign currency.
@settings(max_examples=15, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(book=books(eur=True))
@example(book=DEMO_BOOK)
@example(book=OUT_OF_ORDER_BOOK)
@example(book=HEDGED_BASIS_BOOK)
@example(book=EUR_DEMO_BOOK)
@example(book=EUR_OUT_OF_ORDER_BOOK)
@example(book=EUR_HEDGED_BASIS_BOOK)
def test_corrected_parts_sum_to_realized_eur_pnl(book):
    holdings, market, t, T, _ = book
    portfolio = load_portfolio(io.StringIO(holdings))
    snapshots = {snap.as_of: snap for snap in load_market_snapshots(io.StringIO(market))}
    _assert_reconciles(portfolio, snapshots, t, T)


@settings(max_examples=15, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(book=books(eur=True))
@example(book=EUR_DEMO_BOOK)
@example(book=EUR_OUT_OF_ORDER_BOOK)
@example(book=EUR_HEDGED_BASIS_BOOK)
def test_eur_positions_earn_exactly_no_fx(book):
    portfolio, _, views = _views(book)
    for mode, view in views.items():
        for pos, attributed in zip(portfolio.positions, view.positions):
            if pos.currency == "EUR":
                assert all(r.fx == 0.0 for r in (*attributed.subperiods, attributed.aggregate)), (mode, attributed)


@settings(max_examples=10, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(book=books(eur=True))
@example(book=EUR_DEMO_BOOK)
@example(book=OUT_OF_ORDER_BOOK)
@example(book=EUR_HEDGED_BASIS_BOOK)
def test_every_view_is_the_reference_loop_bit_for_bit(book):
    portfolio, snapshots, views = _views(book)
    for (fx, carry), view in views.items():
        for pos, attributed in zip(portfolio.positions, view.positions):
            expected = reference_subperiods(pos, snapshots, view.grid, fx, carry)
            got = list(attributed.subperiods)
            assert got == expected and repr(got) == repr(expected), (fx, carry, pos.id)
