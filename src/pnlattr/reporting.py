"""Report assembly: position rows, bucket subtotals, fund total.

The report is laid out once, and both formats read that layout: positions
grouped by bucket, one SUBTOTAL row per bucket, one POSITIONS row summing
all buckets, any standalone pass-through lines (fees, hedge costs, cash
parking given as inputs, not computed), and TOTAL (POSITIONS with the
standalone amounts added to total_eur). A NAV, if given, must be finite and
> 0 (else ValueError); every value column is then mirrored in basis points
(EUR * 10000 / NAV). CSV prints EUR with 0 decimals and bps with 1, rounding
half-even: an exact -0.0 prints as 0, but a value that rounds to zero from
below prints as -0 or -0.0, as the seed program prints it. JSON holds the
same rows at full precision in one object: `nav`, `positions` in bucket
order, `buckets` (the SUBTOTAL rows), `positions_total`, `standalones` as
`{label, total_eur[, total_bps]}`, and `total`. The JSON text is exactly
what `json.dumps(tree, indent=2)` writes for that object, plus a newline,
but it is filled into one %-template per indentation level: only a value
that needs escaping or is not a plain float, int or None loads `json`.
Output is byte-stable on every supported Python: subtotals and totals add
their values left to right in row order, not by the builtin `sum`, which
compensates float sums from Python 3.12.
"""

from __future__ import annotations

import csv
import io
import math
from collections import namedtuple
from functools import reduce
from operator import add
from typing import Iterable, Sequence

from ._record import Record
from .attribution import Bucket, PortfolioAttribution
from .errors import EmptyResults, NonFiniteReport

EUR_COLUMNS = ("fx_eur", "rate_eur", "market_eur", "carry_eur", "costs_eur", "total_eur", "hedged_eur")
CSV_COLUMNS = ("position", "bucket") + EUR_COLUMNS
_BPS_COLUMNS = tuple(c.replace("_eur", "_bps") for c in EUR_COLUMNS)


class ReportRow(Record):
    """One report line; hedged_eur is fixed to market + carry - costs."""

    _fields = ("position", "bucket", "fx_eur", "rate_eur", "market_eur", "carry_eur", "costs_eur", "total_eur")

    def __init__(self, position: str, bucket: str, fx_eur: float, rate_eur: float, market_eur: float,
                 carry_eur: float, costs_eur: float, total_eur: float):
        self.__dict__.update(position=position, bucket=bucket, fx_eur=fx_eur, rate_eur=rate_eur,
                             market_eur=market_eur, carry_eur=carry_eur, costs_eur=costs_eur, total_eur=total_eur)

    @property
    def hedged_eur(self) -> float:
        return self.market_eur + self.carry_eur - self.costs_eur

    def values(self) -> tuple[float, ...]:
        """The EUR_COLUMNS values, in that order."""
        return (
            self.fx_eur,
            self.rate_eur,
            self.market_eur,
            self.carry_eur,
            self.costs_eur,
            self.total_eur,
            self.hedged_eur,
        )


#: The stored EUR fields of a ReportRow, which sums and standalone rows fill.
_AMOUNTS = ReportRow._fields[2:]


def bps(eur: float, nav: float) -> float:
    """Basis points of NAV; exact when both operands are."""
    return eur * 10000.0 / nav


def build_report_rows(attribution: PortfolioAttribution) -> list[ReportRow]:
    """One row per attributed position, in portfolio order."""
    rows = []
    for pos in attribution.positions:
        agg = pos.aggregate
        rows.append(
            ReportRow(
                position=pos.position_id,
                bucket=pos.bucket.value,
                fx_eur=agg.fx,
                rate_eur=agg.rate,
                market_eur=agg.market,
                carry_eur=agg.carry,
                costs_eur=pos.costs,
                total_eur=agg.total,
            )
        )
    return rows


def _total(values: Iterable[float]) -> float:
    """values added left to right from 0, as `sum` adds floats before Python 3.12 (3.12 compensates)."""
    return reduce(add, values, 0)


def _sum_rows(label: str, bucket: str, rows: Sequence[ReportRow]) -> ReportRow:
    """Each stored field added by `_total` in row order; the bytes depend on that order."""
    return ReportRow(label, bucket, **{name: _total(getattr(row, name) for row in rows) for name in _AMOUNTS})


#: The report laid out once: each bucket's (members, SUBTOTAL) in bucket order,
#: then POSITIONS, the standalone rows and TOTAL.
_Layout = namedtuple("_Layout", "buckets positions_total standalones total")


def _lay_out(rows: Sequence[ReportRow], standalone_lines: Sequence[tuple[str, float]]) -> _Layout:
    """Known buckets in Bucket order, then unknown ones by name; members keep input order."""
    groups: dict[str, list[ReportRow]] = {}
    for row in rows:
        groups.setdefault(row.bucket, []).append(row)
    known = [b.value for b in Bucket]
    order = sorted(groups, key=lambda b: (known.index(b) if b in known else len(known), b))
    positions_total = _sum_rows("POSITIONS", "", rows)
    return _Layout(
        buckets=[(groups[b], _sum_rows("SUBTOTAL", b, groups[b])) for b in order],
        positions_total=positions_total,
        standalones=[ReportRow(label, "STANDALONE", **(dict.fromkeys(_AMOUNTS, 0.0) | {"total_eur": amount}))
                     for label, amount in standalone_lines],
        total=ReportRow(**(vars(positions_total) | {
            "position": "TOTAL",
            "total_eur": positions_total.total_eur + _total(amount for _, amount in standalone_lines)})),
    )


#: The value types json.dumps writes with repr; their str, which %s writes, is the same text.
_NUMBERS = {float, int}


def _json_value(value) -> str:
    """value as json.dumps writes it: repr for a float or an int, null for None, quotes round a printable
    ASCII string that needs no escape, and json's own encoder for anything else."""
    if type(value) in _NUMBERS:
        return repr(value)
    if value is None:
        return "null"
    if type(value) is str and value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
        return f'"{value}"'
    import json

    return json.dumps(value)


def _object(keys: Sequence[str], indent: str) -> str:
    """A %-template of one JSON object, its values left as %s in key order, laid out as
    json.dumps(indent=2) lays out an object whose closing brace is at indent."""
    members = ",\n".join(f'{indent}  "{key}": %s' for key in keys)
    return f"{{\n{members}\n{indent}}}"


def _array(items: list[str]) -> str:
    """A list of objects as the value of a top-level key, laid out as json.dumps(indent=2) lays it out."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


#: The report object's keys in order; each value is filled in with %.
_JSON_REPORT = """{
  "nav": %s,
  "positions": %s,
  "buckets": %s,
  "positions_total": %s,
  "standalones": %s,
  "total": %s
}
"""


def render_report(
    results,
    format: str = "csv",
    nav: float | None = None,
    standalone_lines: Iterable[tuple[str, float]] = (),
) -> str:
    """Render report rows (or a PortfolioAttribution) as CSV or JSON text."""
    if nav is not None and not (math.isfinite(nav) and nav > 0.0):
        raise ValueError(f"nav must be a finite number > 0, got {nav}")
    rows = build_report_rows(results) if isinstance(results, PortfolioAttribution) else list(results)
    if not rows:
        raise EmptyResults("no attribution results to report")
    layout = _lay_out(rows, [(str(label), float(amount)) for label, amount in standalone_lines])
    printed = [row for members, subtotal in layout.buckets for row in (*members, subtotal)]
    printed += [layout.positions_total, *layout.standalones, layout.total]
    for row in printed:
        for column, value in zip(EUR_COLUMNS, row.values()):
            if not math.isfinite(value if nav is None else bps(value, nav)):
                scale = "" if nav is None else f" in bps of nav {nav:g}"
                raise NonFiniteReport(f"{row.position}: {column} {value:g}{scale} is not finite")
    header = CSV_COLUMNS if nav is None else CSV_COLUMNS + _BPS_COLUMNS
    if format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for row in printed:
            values = row.values()
            record = [row.position, row.bucket] + [f"{v + 0.0:.0f}" for v in values]
            if nav is not None:
                record += [f"{bps(v, nav) + 0.0:.1f}" for v in values]
            writer.writerow(record)
        return out.getvalue()
    if format == "json":
        item, member = _object(header, "    "), _object(header, "  ")
        standalone = _object(("label", "total_eur", "total_bps")[:2 if nav is None else 3], "    ")

        def fill(template: str, row: ReportRow) -> str:
            values = row.values()
            if nav is not None:
                values += tuple([bps(v, nav) for v in values])
            if not {*map(type, values)} <= _NUMBERS:
                values = tuple(map(_json_value, values))
            return template % (_json_value(row.position), _json_value(row.bucket), *values)

        def fill_standalone(row: ReportRow) -> str:
            values = (row.position, row.total_eur) + (() if nav is None else (bps(row.total_eur, nav),))
            return standalone % tuple(map(_json_value, values))

        return _JSON_REPORT % (
            _json_value(nav),
            _array([fill(item, row) for members, _ in layout.buckets for row in members]),
            _array([fill(item, subtotal) for _, subtotal in layout.buckets]),
            fill(member, layout.positions_total),
            _array([fill_standalone(row) for row in layout.standalones]),
            fill(member, layout.total),
        )
    raise ValueError(f"unknown report format {format!r} (expected 'csv' or 'json')")
