import csv
import io
import math
import re
from datetime import date
from pathlib import Path

import pytest

from pnlattr import (
    DuplicateDate,
    FxQuote,
    MarketFactors,
    MarketSnapshot,
    MissingField,
    ParseError,
    ZeroCurve,
    dump_market_snapshots,
    load_market_snapshots,
    load_portfolio,
)

ANCHOR = date(2022, 1, 1)


def test_single_node_curve_is_flat():
    curve = ZeroCurve(ANCHOR, ((1.0, 0.02),))
    for tenor in (0.0, 0.5, 1.0, 7.0, 30.0):
        assert curve.zero_rate(tenor) == 0.02


def test_linear_interpolation_between_nodes():
    curve = ZeroCurve(ANCHOR, ((1.0, 0.01), (3.0, 0.03)))
    assert curve.zero_rate(2.0) == pytest.approx(0.02, rel=1e-14)
    # flat extrapolation on both sides
    assert curve.zero_rate(0.2) == 0.01
    assert curve.zero_rate(10.0) == 0.03


def test_non_monotone_tenors_rejected():
    with pytest.raises(ValueError):
        ZeroCurve(ANCHOR, ((2.0, 0.01), (1.0, 0.02)))
    with pytest.raises(ValueError):
        ZeroCurve(ANCHOR, ((-0.5, 0.01), (1.0, 0.02)))
    with pytest.raises(ValueError):
        ZeroCurve(ANCHOR, ())


def test_discount_factor_closed_form():
    # the discount factor exp(-z(tau) * tau) of a flat curve is exp(-rate * tau)
    curve = ZeroCurve(ANCHOR, ((1.0, 0.02),))
    assert curve.zero_rate(5.0) * 5.0 == pytest.approx(0.10, rel=1e-15)
    assert math.exp(-curve.zero_rate(5.0) * 5.0) == pytest.approx(0.904837, abs=1e-6)


def test_discount_matches_node_rates():
    curve = ZeroCurve(ANCHOR, ((0.5, 0.004), (2.0, 0.011), (7.0, 0.023)))
    for tenor, rate in curve.nodes:
        assert curve.zero_rate(tenor) == rate


def test_nonnegative_rates_give_monotone_discounting():
    # nondecreasing nonnegative rates keep z(tau)*tau nondecreasing, so the
    # discount factor cannot rise anywhere; sharply inverted curves can
    # break this under linear-in-zero-rate interpolation and are not claimed
    curve = ZeroCurve(ANCHOR, ((0.5, 0.0), (2.0, 0.01), (5.0, 0.04), (30.0, 0.045)))
    taus = [k * 0.25 for k in range(0, 150)]
    exponents = [curve.zero_rate(t) * t for t in taus]
    assert all(b >= a for a, b in zip(exponents, exponents[1:]))


def test_factor_and_fx_invariants():
    with pytest.raises(ValueError):
        MarketFactors(hazard_rate=-0.01)
    with pytest.raises(ValueError):
        MarketFactors(hazard_rate=0.01, recovery=1.0)
    with pytest.raises(ValueError):
        FxQuote(0.0)
    # negative basis is legitimate
    MarketFactors(hazard_rate=0.01, recovery=0.4, basis_spread=-0.006)


def test_snapshot_requires_matching_anchor():
    curve = ZeroCurve(ANCHOR, ((1.0, 0.02),))
    with pytest.raises(ValueError):
        MarketSnapshot(date(2022, 6, 1), curve, MarketFactors(0.01), FxQuote(1.1))


def test_load_happy_path(market_csv):
    snaps = load_market_snapshots(io.StringIO(market_csv))
    assert len(snaps) == 4
    assert [s.as_of for s in snaps] == sorted(s.as_of for s in snaps)
    assert snaps[0].fx.rate == 1.13
    assert snaps[0].curve.zero_rate(5.0) == 0.012
    assert snaps[0].factors.basis_spread == -0.005


def test_load_sorts_unordered_rows(market_csv):
    lines = market_csv.strip().splitlines()
    shuffled = [lines[0], lines[3], lines[1], lines[4], lines[2]]
    snaps = load_market_snapshots(shuffled)
    assert [s.as_of for s in snaps] == sorted(s.as_of for s in snaps)


DEMO_DATA = Path(__file__).parents[1] / "demos" / "data"


@pytest.mark.parametrize("load, name", [
    (load_market_snapshots, "market.csv"), (load_portfolio, "portfolio.txt"),
], ids=["market", "holdings"])
@pytest.mark.parametrize("form", ["stream", "lines"])
def test_caller_opened_input_may_start_with_a_byte_order_mark(load, name, form, tmp_path):
    # Excel's "CSV UTF-8" export, opened by the caller as plain UTF-8, loads
    # as the same file does by path
    bom_copy = tmp_path / name
    bom_copy.write_bytes(b"\xef\xbb\xbf" + (DEMO_DATA / name).read_bytes())
    with open(bom_copy, encoding="utf-8") as handle:
        source = handle if form == "stream" else handle.readlines()
        assert load(source) == load(DEMO_DATA / name)


@pytest.mark.parametrize("load", [load_market_snapshots, load_portfolio], ids=["market", "holdings"])
def test_path_that_is_not_utf8_is_named_by_the_loader(load, tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes("[position CAF\xc9]\n".encode("latin-1"))
    message = f"{path}: 'utf-8' codec can't decode byte 0xc9 in position 13: invalid continuation byte"
    for source in (path, str(path)):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            load(source)


@pytest.mark.parametrize("empty", [lambda: io.StringIO(""), list], ids=["stream", "lines"])
def test_empty_caller_opened_input_keeps_its_errors(empty):
    with pytest.raises(MissingField, match="market CSV is empty"):
        load_market_snapshots(empty())
    with pytest.raises(ParseError, match=r"no \[position"):
        load_portfolio(empty())


def test_duplicate_date_names_the_date(market_csv):
    doubled = market_csv + "2022-04-01,1.0,0.01,0.3,0,1,0.01\n"
    with pytest.raises(DuplicateDate, match="2022-04-01"):
        load_market_snapshots(io.StringIO(doubled))


def test_nonpositive_fx_is_a_parse_error(market_csv):
    bad = market_csv.replace("1.13", "0")
    with pytest.raises(ParseError, match="row 2"):
        load_market_snapshots(io.StringIO(bad))


def test_missing_column_and_cell():
    with pytest.raises(MissingField, match="recovery"):
        load_market_snapshots(io.StringIO("date,fx,hazard,basis,curve_tenors,curve_rates\n"))
    csv_text = (
        "date,fx,hazard,recovery,basis,curve_tenors,curve_rates\n"
        "2022-01-01,1.1,0.02,0.4,,1,0.01\n"
    )
    with pytest.raises(MissingField, match="basis"):
        load_market_snapshots(io.StringIO(csv_text))


def test_bad_number_and_mismatched_series():
    base = "date,fx,hazard,recovery,basis,curve_tenors,curve_rates\n"
    with pytest.raises(ParseError, match="hazard"):
        load_market_snapshots(io.StringIO(base + "2022-01-01,1.1,abc,0.4,0,1,0.01\n"))
    with pytest.raises(ParseError, match="curve_tenors has 2"):
        load_market_snapshots(io.StringIO(base + "2022-01-01,1.1,0.02,0.4,0,1;2,0.01\n"))


@pytest.mark.parametrize("header, row, message", [
    ("date,fx,fx,hazard,recovery,basis,curve_tenors,curve_rates",
     "2022-01-01,1.1,9.99,0.02,0.4,0,0.5;1,0.005;0.007",
     "market CSV header names column 'fx' twice"),
    # a decimal comma in the last column spills into a cell the header lacks
    ("date,fx,hazard,recovery,basis,curve_tenors,curve_rates",
     "2022-01-01,1.1,0.02,0.4,0,0.5;1,0.005;0,007",
     "row 2: cell '007' lies beyond the header's 7 columns"),
], ids=["repeated-column", "too-wide-row"])
def test_ambiguous_market_layout_is_a_parse_error(header, row, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        load_market_snapshots([header, row])


def test_header_errors_name_row_1():
    row = "2022-01-01,1.1,0.4,0,0.5;1,0.005;0.007"
    with pytest.raises(MissingField, match=r"^row 1: market CSV header lacks column 'hazard'$"):
        load_market_snapshots(["date,fx,recovery,basis,curve_tenors,curve_rates", row])
    with pytest.raises(ParseError, match=r"^row 1: market CSV header names column 'fx' twice$"):
        load_market_snapshots(["date,fx,fx,hazard,recovery,basis,curve_tenors,curve_rates", row])


@pytest.mark.parametrize("row", [1, 3], ids=["header", "data"])
def test_cell_over_the_csv_field_limit_names_its_row(row):
    # 40,000 curve nodes make a cell longer than csv.field_size_limit(), 131,072 by default
    header = "date,fx,hazard,recovery,basis,curve_tenors,curve_rates"
    good = "2022-01-01,1.1,0.02,0.4,0,1,0.01"
    tenors = ";".join(str(i / 100) for i in range(1, 40_001))
    lines = [f"{header},{tenors}", good] if row == 1 else [header, good, f"2022-01-02,1.1,0.02,0.4,0,{tenors},0.01"]
    limit = csv.field_size_limit()
    with pytest.raises(ParseError, match=rf"^row {row}: field larger than field limit \({limit}\)$"):
        load_market_snapshots(lines)
    assert csv.field_size_limit() == limit


def test_series_of_separators_only_is_an_empty_column():
    header = "date,fx,hazard,recovery,basis,curve_tenors,curve_rates"
    with pytest.raises(MissingField, match=r"^row 2: column 'curve_rates' is empty$"):
        load_market_snapshots([header, "2022-01-01,1.1,0.02,0.4,0,1, ; ;"])


def test_blank_rows_are_skipped_and_still_counted():
    header = "date,fx,hazard,recovery,basis,curve_tenors,curve_rates"
    first, second = "2022-01-01,1.1,0.02,0.4,0,1,0.01", "2022-01-02,1.2,0.02,0.4,0,1,0.01"
    assert load_market_snapshots([header, "", first, " , ,", second]) == load_market_snapshots([header, first, second])
    with pytest.raises(ParseError, match=r"^row 4, column 'hazard': "):
        load_market_snapshots([header, "", " ,", second.replace("0.02", "x")])


@pytest.mark.parametrize("text", ["20220101", "2022-W01-6", "2022-001", "2022-01-01T00:00", "2022-1-1", "２０２２-01-01"])
def test_market_dates_are_yyyy_mm_dd_only(text):
    header = "date,fx,hazard,recovery,basis,curve_tenors,curve_rates"
    message = re.escape(f"row 2, column 'date': bad date: Invalid isoformat string: {text!r}")
    with pytest.raises(ParseError, match=f"^{message}$"):
        load_market_snapshots([header, f"{text},1.1,0.02,0.4,0,1,0.01"])


def test_empty_cells_beyond_the_header_are_ignored():
    header = "date,fx,hazard,recovery,basis,curve_tenors,curve_rates"
    row = "2022-01-01,1.1,0.02,0.4,0,0.5;1,0.005;0.007"
    assert load_market_snapshots([header, row + ", ,"]) == load_market_snapshots([header, row])


def test_round_trip_is_numerically_identical(market_csv):
    snaps = load_market_snapshots(io.StringIO(market_csv))
    text = dump_market_snapshots(snaps)
    again = load_market_snapshots(io.StringIO(text))
    assert again == snaps
    # and dumping again is byte-identical
    assert dump_market_snapshots(again) == text


def _long_curve_snapshot(as_of, n_nodes, rate=0.01):
    return MarketSnapshot(as_of, ZeroCurve(as_of, tuple((i / 100, rate) for i in range(1, n_nodes + 1))),
                          MarketFactors(0.02, 0.4), FxQuote(1.1))


def test_dump_round_trips_a_curve_cell_just_under_the_csv_field_limit():
    # 20,000 nodes dump a curve_tenors cell of 127,001 characters, under csv.field_size_limit()
    # (131,072 by default)
    snaps = [_long_curve_snapshot(date(2022, 1, 1), 20_000)]
    text = dump_market_snapshots(snaps)
    assert max(len(cell) for cell in text.splitlines()[1].split(",")) == 127_001
    again = load_market_snapshots(io.StringIO(text))
    assert again == snaps
    assert dump_market_snapshots(again) == text


@pytest.mark.parametrize("column", ["curve_tenors", "curve_rates"])
def test_dump_refuses_a_curve_cell_over_the_csv_field_limit_before_writing(column):
    # 22,000 nodes dump a curve_tenors cell of 140,801 characters, which the loader would refuse;
    # 20,000 rates of 13 characters each make the curve_rates cell too long
    limit = csv.field_size_limit()
    fits = _long_curve_snapshot(date(2022, 1, 1), 20_000)
    too_long = (_long_curve_snapshot(date(2022, 1, 2), 22_000) if column == "curve_tenors"
                else _long_curve_snapshot(date(2022, 1, 2), 20_000, rate=0.01234567891))
    stream = io.StringIO()
    message = rf"^snapshot 2022-01-02, column '{column}': field larger than field limit \({limit}\)$"
    with pytest.raises(ValueError, match=message):
        dump_market_snapshots([fits, too_long], stream)
    assert stream.getvalue() == ""
    assert csv.field_size_limit() == limit


def test_dump_to_a_stream_writes_the_returned_text(market_csv):
    snaps = load_market_snapshots(io.StringIO(market_csv))
    stream = io.StringIO()
    assert dump_market_snapshots(snaps, stream) is None
    assert stream.getvalue() == dump_market_snapshots(snaps)


@pytest.mark.parametrize("nodes", [
    ((1.0, 0.02), (float("nan"), 0.03), (5.0, 0.04)),
    ((1.0, 0.02), (3.0, float("inf")), (5.0, 0.04)),
    ((float("-inf"), 0.02),),
])
def test_non_finite_curve_nodes_rejected(nodes):
    with pytest.raises(ValueError, match="finite"):
        ZeroCurve(ANCHOR, tuple(nodes))


@pytest.mark.parametrize("kwargs", [
    dict(hazard_rate=float("nan")),
    dict(hazard_rate=float("inf")),
    dict(hazard_rate=0.02, basis_spread=float("nan")),
    dict(hazard_rate=0.02, basis_spread=float("-inf")),
    dict(hazard_rate=0.02, recovery=float("nan")),
])
def test_non_finite_factors_rejected(kwargs):
    with pytest.raises(ValueError):
        MarketFactors(**kwargs)


def test_non_finite_fx_rejected():
    with pytest.raises(ValueError, match="finite"):
        FxQuote(float("inf"))


@pytest.mark.parametrize("column, value", [
    ("curve_tenors", "1;nan;5"),
    ("curve_rates", "0.01;inf;0.02"),
    ("hazard", "nan"),
    ("basis", "nan"),
    ("fx", "inf"),
])
def test_non_finite_market_cell_names_the_row(column, value):
    header = "date,fx,hazard,recovery,basis,curve_tenors,curve_rates"
    row = dict(zip(header.split(","), ["2022-01-03", "1.1", "0.02", "0.4", "0", "1;3;5",
                                        "0.01;0.015;0.02"]))
    row[column] = value
    good = "2022-01-01,1.1,0.02,0.4,0,1;3;5,0.01;0.015;0.02"
    text = "\n".join([header, good, ",".join(row.values())]) + "\n"
    with pytest.raises(ParseError, match="row 3"):
        load_market_snapshots(io.StringIO(text))
