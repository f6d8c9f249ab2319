"""Market state containers: zero curves, credit factors, FX quotes, snapshots.

A snapshot bundles everything a pricer needs at one observation date. The
attribution scheme only ever swaps whole snapshots between dates, so these
are immutable value objects with no bump or rebuild machinery.

The FX convention throughout is the EUR price of one unit of the asset
currency (so a falling EUR-USD market quote means a RISING fx rate here).
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
from datetime import date
from typing import IO, Iterable

from ._record import DataclassFields, Record
from .dates import parse_date
from .errors import DuplicateDate, MissingField, ParseError

MARKET_CSV_COLUMNS = (
    "date",
    "fx",
    "hazard",
    "recovery",
    "basis",
    "curve_tenors",
    "curve_rates",
)


class ZeroCurve(Record):
    """Continuously compounded zero curve, linear in zero rate between nodes.

    Nodes are (tenor, rate) pairs with tenors as ACT/365F year fractions
    from anchor_date. Rates interpolate linearly between nodes and
    extrapolate flat beyond both ends.
    """

    _fields = ("anchor_date", "nodes")

    def __init__(self, anchor_date: date, nodes: tuple[tuple[float, float], ...]):
        nodes = tuple((float(t), float(r)) for t, r in nodes)
        if not nodes:
            raise ValueError("zero curve needs at least one node")
        if not all(math.isfinite(t) and math.isfinite(r) for t, r in nodes):
            raise ValueError(f"curve nodes must be finite, got {nodes}")
        tenors, rates = zip(*nodes)
        if tenors[0] < 0.0:
            raise ValueError(f"tenors must be >= 0, got {tenors[0]}")
        if any(b <= a for a, b in zip(tenors, tenors[1:])):
            raise ValueError(f"tenors must be strictly increasing, got {list(tenors)}")
        slopes = tuple((r1 - r0) / (t1 - t0) for t0, t1, r0, r1 in zip(tenors, tenors[1:], rates, rates[1:]))
        # _table is (tenors, rates, slopes): slopes[j] is the slope from node j to node j + 1
        self.__dict__.update(anchor_date=anchor_date, nodes=nodes, _table=(tenors, rates, slopes))

    def zero_rate(self, tenor: float) -> float:
        """Interpolated zero rate at a year fraction.

        The rate is `numpy.interp`'s, bit for bit: `slope * (x - xp[j]) + fp[j]`
        between nodes j and j + 1, the node's own rate exactly on a node, flat
        beyond both ends. The bond and CDS pricers walk the same table with
        this rule inline; this method is their reference.
        """
        tenors, rates, slopes = self._table
        last = len(tenors) - 1
        j = 0
        while j < last and tenors[j + 1] <= tenor:
            j += 1
        # tenors[j] <= tenor < tenors[j + 1], or tenor lies beyond an end of the curve
        if j == last or tenor <= tenors[j]:
            return rates[j]
        return slopes[j] * (tenor - tenors[j]) + rates[j]


class MarketFactors(Record):
    """Non-rate pricing state: flat default intensity, recovery, basis spread.

    The attribution treats this bundle as one opaque state that is swapped
    wholesale between dates, never bumped component by component.
    """

    _fields = ("hazard_rate", "recovery", "basis_spread")

    def __init__(self, hazard_rate: float, recovery: float = 0.0, basis_spread: float = 0.0):
        if not math.isfinite(hazard_rate) or hazard_rate < 0.0:
            raise ValueError(f"hazard_rate must be finite and >= 0, got {hazard_rate}")
        if not math.isfinite(basis_spread):
            raise ValueError(f"basis_spread must be finite, got {basis_spread}")
        if not 0.0 <= recovery < 1.0:
            raise ValueError(f"recovery must be in [0, 1), got {recovery}")
        self.__dict__.update(hazard_rate=hazard_rate, recovery=recovery, basis_spread=basis_spread)


class FxQuote(Record):
    """EUR price of one unit of the asset currency; finite and strictly positive."""

    _fields = ("rate",)

    def __init__(self, rate: float):
        if not (math.isfinite(rate) and rate > 0.0):
            raise ValueError(f"fx rate must be finite and > 0, got {rate}")
        self.__dict__.update(rate=rate)


class MarketSnapshot(Record):
    """Dated bundle (curve, factors, fx) fed to pricers as one state."""

    _fields = ("as_of", "curve", "factors", "fx")
    __dataclass_fields__ = DataclassFields()

    def __init__(self, as_of: date, curve: ZeroCurve, factors: MarketFactors, fx: FxQuote):
        if curve.anchor_date != as_of:
            raise ValueError(f"curve anchored at {curve.anchor_date} but snapshot dated {as_of}")
        self.__dict__.update(as_of=as_of, curve=curve, factors=factors, fx=fx)


def _split_series(cell: str, row: int, column: str) -> list[float]:
    parts = [p for p in cell.split(";") if p.strip() != ""]
    if not parts:
        raise MissingField(f"column {column!r} is empty", row=row)
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ParseError(f"bad number in series: {exc}", row=row, column=column) from exc


def input_lines(source):
    """The lines of an input file, line endings kept.

    `source` is a filesystem path, an open text stream, or any iterable of
    lines. A path is read as UTF-8 with or without a byte-order mark, and its
    lines end at '\\n', '\\r\\n' or '\\r'. A path that is not UTF-8 is a
    ParseError naming it. A stream or an iterable is read as given, except
    that one byte-order mark ('\\ufeff') leading its first line is dropped.
    """
    if not (isinstance(source, (str, bytes)) or hasattr(source, "__fspath__")):
        lines = iter(source)
        first = next(lines, None)
        if first is None:
            return lines
        return itertools.chain((first.removeprefix("\ufeff"),), lines)
    try:
        with open(source, "r", encoding="utf-8-sig", newline="") as handle:
            return io.StringIO(handle.read(), newline="")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{os.fsdecode(source)}: {exc}") from exc


def _csv_rows(lines):
    """csv.reader's rows; a csv.Error, such as a cell over csv.field_size_limit(), is a ParseError naming its row."""
    reader = csv.reader(lines)
    for row_no in itertools.count(1):
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ParseError(str(exc), row=row_no) from exc
        yield row


def load_market_snapshots(source) -> list[MarketSnapshot]:
    """Read snapshots from CSV with the documented schema, sorted by date.

    `source` is read by `input_lines`: a path (UTF-8, with or without a
    byte-order mark), an open text stream, or any iterable of CSV lines.
    Header is mandatory and names each of these columns once, in any order:

        date,fx,hazard,recovery,basis,curve_tenors,curve_rates

    with curve columns holding semicolon-separated numbers of equal length,
    ISO-8601 dates, and '.' decimal points. At least one data row is
    required, and no row may have a non-empty cell beyond the header's
    last column.
    """
    reader = _csv_rows(input_lines(source))
    try:
        header = next(reader)
    except StopIteration:
        raise MissingField("market CSV is empty, header row required") from None
    names = [name.strip() for name in header]
    for column in MARKET_CSV_COLUMNS:
        if column not in names:
            raise MissingField(f"market CSV header lacks column {column!r}", row=1)
        if names.count(column) > 1:
            raise ParseError(f"market CSV header names column {column!r} twice", row=1)
    positions = {column: names.index(column) for column in MARKET_CSV_COLUMNS}

    snapshots: dict[date, MarketSnapshot] = {}
    for row_no, row in enumerate(reader, start=2):
        if not row or all(cell.strip() == "" for cell in row):
            continue
        for extra in row[len(header):]:
            if extra.strip():
                raise ParseError(f"cell {extra!r} lies beyond the header's {len(header)} columns",
                                 row=row_no)

        def cell(column: str) -> str:
            idx = positions[column]
            if idx >= len(row) or row[idx].strip() == "":
                raise MissingField(f"column {column!r} is missing", row=row_no)
            return row[idx].strip()

        try:
            as_of = parse_date(cell("date"))
        except ValueError as exc:
            raise ParseError(f"bad date: {exc}", row=row_no, column="date") from exc
        if as_of in snapshots:
            raise DuplicateDate(f"duplicate market date {as_of.isoformat()}", row=row_no)

        def number(column: str) -> float:
            try:
                return float(cell(column))
            except ValueError as exc:
                raise ParseError(f"bad number: {exc}", row=row_no, column=column) from exc

        tenors = _split_series(cell("curve_tenors"), row_no, "curve_tenors")
        rates = _split_series(cell("curve_rates"), row_no, "curve_rates")
        if len(tenors) != len(rates):
            raise ParseError(
                f"curve_tenors has {len(tenors)} entries but curve_rates has {len(rates)}",
                row=row_no,
            )
        try:
            snapshot = MarketSnapshot(
                as_of=as_of,
                curve=ZeroCurve(as_of, tuple(zip(tenors, rates))),
                factors=MarketFactors(
                    hazard_rate=number("hazard"),
                    recovery=number("recovery"),
                    basis_spread=number("basis"),
                ),
                fx=FxQuote(number("fx")),
            )
        except ValueError as exc:
            raise ParseError(str(exc), row=row_no) from exc
        snapshots[as_of] = snapshot

    if not snapshots:
        raise MissingField("market CSV has no data rows")
    return [snapshots[d] for d in sorted(snapshots)]


def dump_market_snapshots(snapshots: Iterable[MarketSnapshot], stream: IO[str] | None = None):
    """Serialize snapshots to CSV; numbers use repr so reloading round-trips.

    Every snapshot is checked before the first row is written: a curve cell
    longer than csv.field_size_limit(), which the loader would refuse, is a
    ValueError naming the snapshot's date. Returns the CSV text when no
    stream is given.
    """
    limit = csv.field_size_limit()
    rows = []
    for snap in snapshots:
        tenors = ";".join(repr(t) for t, _ in snap.curve.nodes)
        rates = ";".join(repr(r) for _, r in snap.curve.nodes)
        for column, cell in (("curve_tenors", tenors), ("curve_rates", rates)):
            if len(cell) > limit:
                raise ValueError(f"snapshot {snap.as_of.isoformat()}, column {column!r}: "
                                 f"field larger than field limit ({limit})")
        rows.append(
            [
                snap.as_of.isoformat(),
                repr(snap.fx.rate),
                repr(snap.factors.hazard_rate),
                repr(snap.factors.recovery),
                repr(snap.factors.basis_spread),
                tenors,
                rates,
            ]
        )
    out = stream if stream is not None else io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(MARKET_CSV_COLUMNS)
    writer.writerows(rows)
    if stream is None:
        return out.getvalue()
    return None
