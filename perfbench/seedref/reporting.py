"""Report assembly: position rows, bucket subtotals, fund total.

CSV layout groups positions under their bucket, emits one SUBTOTAL row per
bucket, one POSITIONS row summing all buckets, any standalone pass-through
lines (fees, hedge costs, cash parking given as inputs, not computed), and
a final TOTAL row. EUR prints with 0 decimals; when a reference NAV is
supplied every value column is mirrored in basis points (EUR * 10000 /
NAV) printed with 1 decimal, rounding half-even. JSON carries the same
tree at full precision. Output is byte-stable for identical inputs.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .attribution import Bucket, PortfolioAttribution
from .errors import EmptyResults

EUR_COLUMNS = ("fx_eur", "rate_eur", "market_eur", "carry_eur", "costs_eur", "total_eur", "hedged_eur")
CSV_COLUMNS = ("position", "bucket") + EUR_COLUMNS


@dataclass(frozen=True)
class ReportRow:
    """One report line; hedged_eur is fixed to market + carry - costs."""

    position: str
    bucket: str
    fx_eur: float
    rate_eur: float
    market_eur: float
    carry_eur: float
    costs_eur: float
    total_eur: float

    @property
    def hedged_eur(self) -> float:
        return self.market_eur + self.carry_eur - self.costs_eur

    def values(self) -> tuple[float, ...]:
        return (
            self.fx_eur,
            self.rate_eur,
            self.market_eur,
            self.carry_eur,
            self.costs_eur,
            self.total_eur,
            self.hedged_eur,
        )

    def to_dict(self, nav: float | None = None) -> dict:
        out = {"position": self.position, "bucket": self.bucket}
        out.update(zip(EUR_COLUMNS, self.values()))
        if nav is not None:
            out.update({c.replace("_eur", "_bps"): bps(v, nav) for c, v in zip(EUR_COLUMNS, self.values())})
        return out


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


def _sum_rows(label: str, bucket: str, rows: Sequence[ReportRow]) -> ReportRow:
    return ReportRow(
        position=label,
        bucket=bucket,
        fx_eur=sum(r.fx_eur for r in rows),
        rate_eur=sum(r.rate_eur for r in rows),
        market_eur=sum(r.market_eur for r in rows),
        carry_eur=sum(r.carry_eur for r in rows),
        costs_eur=sum(r.costs_eur for r in rows),
        total_eur=sum(r.total_eur for r in rows),
    )


def _bucket_order(rows: Sequence[ReportRow]) -> list[str]:
    known = [b.value for b in Bucket]
    seen = []
    for row in rows:
        if row.bucket not in seen:
            seen.append(row.bucket)
    return sorted(seen, key=lambda b: (known.index(b) if b in known else len(known), b))


def _layout(rows, standalone_lines):
    """(kind, row) pairs in final presentation order."""
    layout = []
    for bucket in _bucket_order(rows):
        members = [r for r in rows if r.bucket == bucket]
        for member in members:
            layout.append(("position", member))
        layout.append(("subtotal", _sum_rows("SUBTOTAL", bucket, members)))
    positions_total = _sum_rows("POSITIONS", "", rows)
    layout.append(("positions_total", positions_total))
    for label, amount in standalone_lines:
        layout.append(("standalone", ReportRow(label, "STANDALONE", 0.0, 0.0, 0.0, 0.0, 0.0, amount)))
    standalone_sum = sum(amount for _, amount in standalone_lines)
    layout.append(
        (
            "total",
            ReportRow(
                "TOTAL",
                "",
                positions_total.fx_eur,
                positions_total.rate_eur,
                positions_total.market_eur,
                positions_total.carry_eur,
                positions_total.costs_eur,
                positions_total.total_eur + standalone_sum,
            ),
        )
    )
    return layout


def _format_eur(value: float) -> str:
    return f"{value + 0.0:.0f}"


def _format_bps(value: float) -> str:
    return f"{value + 0.0:.1f}"


def render_report(
    results,
    format: str = "csv",
    nav: float | None = None,
    standalone_lines: Iterable[tuple[str, float]] = (),
) -> str:
    """Render report rows (or a PortfolioAttribution) as CSV or JSON text."""
    if isinstance(results, PortfolioAttribution):
        rows = build_report_rows(results)
    else:
        rows = list(results)
    if not rows:
        raise EmptyResults("no attribution results to report")
    standalone_lines = [(str(label), float(amount)) for label, amount in standalone_lines]
    layout = _layout(rows, standalone_lines)
    if format == "csv":
        return _render_csv(layout, nav)
    if format == "json":
        return _render_json(layout, nav)
    raise ValueError(f"unknown report format {format!r} (expected 'csv' or 'json')")


def _render_csv(layout, nav) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    header = list(CSV_COLUMNS)
    if nav is not None:
        header += [c.replace("_eur", "_bps") for c in EUR_COLUMNS]
    writer.writerow(header)
    for _, row in layout:
        record = [row.position, row.bucket] + [_format_eur(v) for v in row.values()]
        if nav is not None:
            record += [_format_bps(bps(v, nav)) for v in row.values()]
        writer.writerow(record)
    return out.getvalue()


def _render_json(layout, nav) -> str:
    tree = {
        "nav": nav,
        "positions": [],
        "buckets": [],
        "positions_total": None,
        "standalones": [],
        "total": None,
    }
    for kind, row in layout:
        if kind == "position":
            tree["positions"].append(row.to_dict(nav))
        elif kind == "subtotal":
            tree["buckets"].append(row.to_dict(nav))
        elif kind == "positions_total":
            tree["positions_total"] = row.to_dict(nav)
        elif kind == "standalone":
            entry = {"label": row.position, "total_eur": row.total_eur}
            if nav is not None:
                entry["total_bps"] = bps(row.total_eur, nav)
            tree["standalones"].append(entry)
        elif kind == "total":
            tree["total"] = row.to_dict(nav)
    return json.dumps(tree, indent=2) + "\n"
