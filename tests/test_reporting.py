import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pnlattr import (Bucket, EmptyResults, ReportRow, attribute_portfolio, bps, load_market_snapshots,
                     load_portfolio, render_report)
from pnlattr import reporting
from pnlattr.reporting import _BPS_COLUMNS, CSV_COLUMNS, _lay_out

# the frozen seed program, read only: the report must print what it printed
REPO = Path(__file__).resolve().parents[1]
sys.path.append(str(REPO / "perfbench"))
from seedref import (attribution as seed_attribution, market_data as seed_market_data,  # noqa: E402
                     portfolio_io as seed_portfolio_io, reporting as seed_reporting)


def row(position, bucket, fx=0.0, rate=0.0, market=0.0, carry=0.0, costs=0.0, total=None):
    if total is None:
        total = fx + rate + market + carry
    return ReportRow(position, bucket, fx, rate, market, carry, costs, total)


SAMPLE = [
    row("alpha", "SeniorSub", fx=1000.0, rate=-400.0, market=250.0, carry=150.0, costs=20.0),
    row("beta", "SeniorSub", fx=-200.0, rate=100.0, market=50.0, carry=75.0),
    row("gamma", "MatchedBasis", fx=10.0, rate=-5.0, market=500.0, carry=300.0, costs=12.0),
]


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_hedged_is_market_plus_carry_minus_costs():
    r = SAMPLE[0]
    assert r.hedged_eur == 250.0 + 150.0 - 20.0


def test_csv_structure_and_additivity():
    text = render_report(SAMPLE, "csv")
    records = parse_csv(text)
    labels = [(r["position"], r["bucket"]) for r in records]
    assert labels == [
        ("alpha", "SeniorSub"),
        ("beta", "SeniorSub"),
        ("SUBTOTAL", "SeniorSub"),
        ("gamma", "MatchedBasis"),
        ("SUBTOTAL", "MatchedBasis"),
        ("POSITIONS", ""),
        ("TOTAL", ""),
    ]
    # re-parse-and-sum: printed subtotals match printed member sums to
    # printed precision (0 decimals, so half a unit per rounded row)
    by_label = {(r["position"], r["bucket"]): r for r in records}
    for bucket, members in (("SeniorSub", ["alpha", "beta"]), ("MatchedBasis", ["gamma"])):
        subtotal = by_label[("SUBTOTAL", bucket)]
        for column in CSV_COLUMNS[2:]:
            member_sum = sum(float(by_label[(m, bucket)][column]) for m in members)
            assert abs(float(subtotal[column]) - member_sum) <= 0.5 * (len(members) + 1)
    positions = by_label[("POSITIONS", "")]
    for column in CSV_COLUMNS[2:]:
        bucket_sum = sum(float(by_label[("SUBTOTAL", b)][column]) for b in ("SeniorSub", "MatchedBasis"))
        assert abs(float(positions[column]) - bucket_sum) <= 1.5


def test_standalone_lines_roll_into_total_only():
    text = render_report(SAMPLE, "csv", standalone_lines=[("FEES", -300.0), ("OTHER COSTS", -30.0)])
    records = parse_csv(text)
    by_pos = {r["position"]: r for r in records}
    assert by_pos["FEES"]["bucket"] == "STANDALONE"
    assert float(by_pos["FEES"]["total_eur"]) == -300.0
    assert float(by_pos["TOTAL"]["total_eur"]) == float(by_pos["POSITIONS"]["total_eur"]) - 330.0
    # the other columns of the grand total ignore standalone lines
    assert float(by_pos["TOTAL"]["fx_eur"]) == float(by_pos["POSITIONS"]["fx_eur"])


def test_sums_add_left_to_right_on_every_python(monkeypatch):
    # 1e16 + 1.0 rounds to 1e16, so adding in row order gives 0.0; from Python 3.12 the builtin sum
    # compensates and gives 1.0. A compensated `sum` global in the module stands in for it on any version.
    monkeypatch.setattr(reporting, "sum", math.fsum, raising=False)
    amounts = (1e16, 1.0, -1e16)
    rows = [row(name, "Other", fx=fx) for name, fx in zip("abc", amounts)]
    layout = _lay_out(rows, [(name, amount) for name, amount in zip("xyz", amounts)])
    assert layout.buckets[0][1].fx_eur == 0.0
    assert layout.positions_total.fx_eur == 0.0
    assert layout.total.total_eur == 0.0


def test_bps_columns_present_iff_nav_supplied():
    plain = parse_csv(render_report(SAMPLE, "csv"))
    assert "total_bps" not in plain[0]
    with_nav = parse_csv(render_report(SAMPLE, "csv", nav=1_000_000.0))
    assert float(with_nav[0]["fx_bps"]) == pytest.approx(1000.0 * 10000 / 1e6, abs=0.05)


def test_bps_is_exact_for_exact_inputs():
    assert bps(490_000.0, 100_000_000.0) == 49.0


def test_bps_rounding_half_even():
    # 0.25 and 0.35 are exact binary values: half-even keeps both at 2
    assert f"{0.25:.1f}" == "0.2"
    nav = 1e8
    r = row("x", "Other", fx=2500.0, rate=0.0, market=0.0, carry=0.0)  # 0.25 bps
    records = parse_csv(render_report([r], "csv", nav=nav))
    assert records[0]["fx_bps"] == "0.2"


def test_format_stability():
    kwargs = dict(nav=2_500_000.0, standalone_lines=[("FEES", -120.0)])
    assert render_report(SAMPLE, "csv", **kwargs) == render_report(SAMPLE, "csv", **kwargs)
    assert render_report(SAMPLE, "json", **kwargs) == render_report(SAMPLE, "json", **kwargs)


def test_json_tree_mirrors_csv_fields():
    tree = json.loads(render_report(SAMPLE, "json", nav=1e6, standalone_lines=[("FEES", -10.0)]))
    assert {p["position"] for p in tree["positions"]} == {"alpha", "beta", "gamma"}
    assert tree["positions"][0]["fx_eur"] == 1000.0
    assert tree["positions"][0]["fx_bps"] == 10.0
    assert [b["bucket"] for b in tree["buckets"]] == ["SeniorSub", "MatchedBasis"]
    assert tree["positions_total"]["position"] == "POSITIONS"
    assert tree["standalones"] == [{"label": "FEES", "total_eur": -10.0, "total_bps": -0.1}]
    assert tree["total"]["total_eur"] == pytest.approx(tree["positions_total"]["total_eur"] - 10.0)


def test_single_row_no_nav():
    records = parse_csv(render_report([row("only", "Cash", carry=-70.0)], "csv"))
    assert records[0]["position"] == "only"
    assert set(records[0]) == set(CSV_COLUMNS)


def test_empty_results_rejected():
    with pytest.raises(EmptyResults):
        render_report([], "csv")


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        render_report(SAMPLE, "xml")


def test_negative_zero_never_printed():
    records = parse_csv(render_report([row("z", "Other", fx=-0.0)], "csv"))
    assert records[0]["fx_eur"] == "0"


@pytest.mark.parametrize("nav", [0.0, -1e6, math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("format", ["csv", "json"])
def test_nav_must_be_finite_and_positive(nav, format):
    with pytest.raises(ValueError, match=rf"^nav must be a finite number > 0, got {nav}$"):
        render_report(SAMPLE, format, nav=nav, standalone_lines=[("FEES", -10.0)])


def as_seed_row(row):
    return seed_reporting.ReportRow(**vars(row))


labels = st.text(alphabet='AZaz09 ,"_', min_size=1, max_size=8)
amounts = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-0.5, 0.0, exclude_min=True, exclude_max=True),
    st.builds(lambda mantissa, exponent, sign: sign * mantissa * 10.0 ** exponent,
              st.floats(1.0, 10.0), st.integers(-3, 11), st.sampled_from([1.0, -1.0])),
)
report_rows = st.lists(
    st.builds(ReportRow, labels, st.sampled_from([b.value for b in Bucket] + ["Unlisted bucket"]),
              amounts, amounts, amounts, amounts, amounts, amounts),
    min_size=1, max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(report_rows, st.none() | st.floats(1e3, 1e10),
       st.lists(st.tuples(labels, amounts), max_size=3))
def test_report_prints_what_the_seed_program_printed(rows, nav, standalones):
    for format in ("csv", "json"):
        expected = seed_reporting.render_report([as_seed_row(r) for r in rows], format, nav=nav,
                                                standalone_lines=standalones)
        assert render_report(rows, format, nav=nav, standalone_lines=standalones) == expected


def test_attribution_report_prints_what_the_seed_program_printed():
    portfolio, market = REPO / "demos/data/portfolio.txt", REPO / "demos/data/market.csv"
    snapshots = load_market_snapshots(market)
    t, T = snapshots[0].as_of, snapshots[-1].as_of
    attribution = attribute_portfolio(load_portfolio(portfolio), snapshots, t, T)
    seed = seed_attribution.attribute_portfolio(seed_portfolio_io.load_portfolio(portfolio),
                                                seed_market_data.load_market_snapshots(market), t, T)
    standalones = [("FEES", -62500.0), ('FX COSTS, "OTHER"', 1250.5)]
    for format in ("csv", "json"):
        for nav in (None, 50_000_000.0):
            assert (render_report(attribution, format, nav=nav, standalone_lines=standalones)
                    == seed_reporting.render_report(seed, format, nav=nav, standalone_lines=standalones))


def tree_json(rows, nav=None, standalone_lines=()):
    """The reference JSON report: the layout as a dict tree, written by json.dumps(indent=2)."""
    layout = _lay_out(rows, [(str(label), float(amount)) for label, amount in standalone_lines])
    header = CSV_COLUMNS if nav is None else CSV_COLUMNS + _BPS_COLUMNS

    def entry(row):
        values = row.values()
        if nav is not None:
            values += tuple(bps(v, nav) for v in values)
        return dict(zip(header, (row.position, row.bucket) + values))

    tree = {
        "nav": nav,
        "positions": [entry(row) for members, _ in layout.buckets for row in members],
        "buckets": [entry(subtotal) for _, subtotal in layout.buckets],
        "positions_total": entry(layout.positions_total),
        "standalones": [
            {"label": row.position, **{c: v for c, v in entry(row).items() if c.startswith("total_")}}
            for row in layout.standalones
        ],
        "total": entry(layout.total),
    }
    return json.dumps(tree, indent=2) + "\n"


# what json escapes or converts, beside what it writes as it is
escaped_text = st.text(st.sampled_from(['"', "\\", "\x01", "\x7f", "\u00e9", "\U0001f600", "\udcff", "a", " "]),
                       min_size=1, max_size=6)
json_values = st.one_of(
    st.sampled_from([-0.0, 5e-324, 1e16, 1e-05, True, False]),
    st.integers(-10**6, 10**6),
    st.builds(np.float64, st.floats(-1e9, 1e9)),
    st.floats(-1e9, 1e9),
)
json_rows = st.lists(
    st.builds(ReportRow, escaped_text, st.sampled_from([b.value for b in Bucket]) | escaped_text,
              json_values, json_values, json_values, json_values, json_values, json_values),
    min_size=1, max_size=5,
)


@settings(max_examples=300, deadline=None)
@given(json_rows, st.none() | st.integers(1, 10**9) | st.floats(1e3, 1e10),
       st.lists(st.tuples(escaped_text, json_values), max_size=2))
def test_json_report_is_what_json_dumps_writes(rows, nav, standalones):
    assert render_report(rows, "json", nav=nav, standalone_lines=standalones) == tree_json(rows, nav, standalones)
