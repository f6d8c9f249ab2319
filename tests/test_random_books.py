"""Random books against the frozen seed program, and the pricing every mode shares.

The strategy draws a holdings text and a market CSV inside the seed program's
domain: one foreign currency, which it converts every position at; bonds
(zero-coupon too), CDS on both sides and cash, long and short; maturities
after the period end and cash accounts opened at or before its start; and
rebalances on any date, to 0 as well, listed out of date order with sizes
that are not dyadic, so their sum depends on the order they are added in.
Position ids and the standalone label hold quotes, backslashes, commas and
non-ASCII text, which both report formats must quote or escape as the seed
program does.
"""

import contextlib
import dataclasses
import io
import sys
import tempfile
from datetime import date, timedelta
from pathlib import Path

from hypothesis import Phase, example, given, settings, strategies as st

from pnlattr import (Bucket, CarryMode, FxMode, Portfolio, attribute_portfolio, load_market_snapshots,
                     load_portfolio)
from pnlattr.cli import run_cli

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
def books(draw):
    """(holdings text, market CSV text, t, T, extra CLI arguments), inside the seed program's domain."""
    t = _day(draw, date(2021, 6, 30), date(2022, 12, 31))
    T = t + timedelta(days=draw(st.integers(1, 200)))
    currency = draw(st.sampled_from(["USD", "GBP", "JPY"]))
    ids = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    holdings = "\n".join(draw(_position(position_id, currency, t, T)) for position_id in ids)
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
    return tuple(float(value).hex() for value in (result.fx, result.rate, result.market, result.carry, result.total))


@settings(max_examples=10, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(book=books())
@example(book=DEMO_BOOK)
@example(book=OUT_OF_ORDER_BOOK)
def test_every_mode_makes_the_same_pricer_calls(book):
    """The six carry x FX modes differ only after pricing: the same calls, in
    the same order, with the same arguments and values. Sophis fx, rate and
    market are corrected's bit for bit, and both FX modes give the same totals."""
    holdings, market, t, T, _ = book
    portfolio = load_portfolio(io.StringIO(holdings))
    snapshots = load_market_snapshots(io.StringIO(market))
    calls, results = {}, {}
    for carry in CarryMode:
        for fx in FxMode:
            recorded = calls[carry, fx] = []
            wrapped = Portfolio(tuple(dataclasses.replace(pos, pricer=_Recording(pos.pricer, recorded))
                                      for pos in portfolio.positions))
            attribution = attribute_portfolio(wrapped, snapshots, t, T, fx, carry)
            results[carry, fx] = [[_bits(r) for r in (*pos.subperiods, pos.aggregate)]
                                  for pos in attribution.positions]
    first = calls[CarryMode.CORRECTED, FxMode.AVERAGE]
    assert first and all(recorded == first for recorded in calls.values())
    for fx in FxMode:
        for corrected, sophis in zip(results[CarryMode.CORRECTED, fx], results[CarryMode.SOPHIS, fx]):
            assert [bits[:3] for bits in sophis] == [bits[:3] for bits in corrected]
    for carry in CarryMode:
        for average, start_end in zip(results[carry, FxMode.AVERAGE], results[carry, FxMode.START_END]):
            assert [bits[4] for bits in start_end] == [bits[4] for bits in average]
