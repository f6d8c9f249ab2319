"""Portfolio file ingestion.

The holdings file is structured text with one section per position. A
'#' at the start of a line or after whitespace begins a comment:

    # comment lines start with '#'
    [position ACME_BOND]
    bucket = MatchedBasis
    instrument = bond           # bond | cds | cash
    currency = USD              # three letters, any case (default USD)
    direction = long            # long | short (default long)
    notional = 4000000
    issue = 2021-05-21
    maturity = 2029-01-15
    coupon_rate = 0.0525
    coupon_frequency = 2        # 1 | 2 | 4 | 12 (default 2)
    transaction = 2021-05-21 0 6268     # date, quantity change, EUR cost

Instrument keys:
    bond: notional, issue, maturity, coupon_rate, coupon_frequency
    cds:  notional, maturity, contractual_spread, protection (bought|sold)
    cash: balance, deposit_rate, start

`currency` is upper-cased. EUR positions convert at 1 (no FX part); any
other currency converts at the market's one fx column, so a book may hold
EUR and at most one foreign currency.

`transaction` may repeat. A bond's coupon schedule is `bond_cashflows(spec)`,
the coupons its price drops by; a CDS or cash account has none. No key
restates a schedule.

A value the instrument rejects (say `coupon_frequency = 3`, bond dates whose
coupon roll runs back past year 1, or a `transaction` outside the spec's
`life`) is a ParseError naming the position and its section header line; a
`transaction` with a non-finite quantity change or a non-finite or negative
cost names its own line.
"""

from __future__ import annotations

import re
from typing import Any, Callable, NamedTuple

from .attribution import Bucket, CashflowSchedule, Portfolio, Position, checked_transaction, currency_code
from .dates import parse_date
from .errors import DuplicatePositionId, ParseError, UnknownBucket
from .market_data import input_lines
from .pricers import (
    BondPricer,
    BondSpec,
    CashPricer,
    CashSpec,
    CdsPricer,
    CdsSpec,
    ProtectionSide,
    _check_life,
    bond_cashflows,
)

_SECTION = re.compile(r"^\[position\s+(?P<id>\S+)\]$")
_TRAILING_COMMENT = re.compile(r"\s+#.*")
_DATE = parse_date
_KINDS = {float: "number", _DATE: "date", int: "integer"}  # what a parse failure calls the value


def load_portfolio(source) -> Portfolio:
    """Parse the holdings file, which needs at least one [position ...] section.

    `source` is read by `market_data.input_lines`: a path (UTF-8, with or
    without a byte-order mark), an open text stream, or any iterable of lines.
    """
    sections = _split_sections(input_lines(source))
    if not sections:
        raise ParseError("holdings file has no [position ...] section")
    positions = []
    seen = set()
    for position_id, header_line, fields in sections:
        if position_id in seen:
            raise DuplicatePositionId(f"duplicate position id {position_id!r}", row=header_line)
        seen.add(position_id)
        positions.append(_build_position(position_id, header_line, fields))
    return Portfolio(positions=tuple(positions))


def _split_sections(lines):
    sections = []
    current = None
    for line_no, raw in enumerate(lines, start=1):
        line = (_TRAILING_COMMENT.sub("", raw, count=1) if "#" in raw else raw).strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            match = _SECTION.match(line)
            if not match:
                raise ParseError(f"malformed section header {line!r}", row=line_no)
            current = (match.group("id"), line_no, {})
            sections.append(current)
            continue
        if current is None:
            raise ParseError(f"key outside any [position ...] section: {line!r}", row=line_no)
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", row=line_no)
        key, _, value = line.partition("=")
        key, value = key.strip().lower(), value.strip()
        fields = current[2]
        if key == "transaction":  # the one key that may repeat
            fields.setdefault(key, []).append((line_no, value))
        elif key in fields:
            raise ParseError(f"key {key!r} given twice for position {current[0]!r}", row=line_no)
        else:
            fields[key] = (line_no, value)
    return sections


def _require(fields, key, position_id, header_line):
    if key not in fields:
        raise ParseError(f"position {position_id!r} lacks required key {key!r}", row=header_line)
    return fields.pop(key)


def _parse(parse, value, line_no, key):
    """parse(value), with a ValueError raised as a ParseError naming the line."""
    try:
        return parse(value)
    except ValueError as exc:
        message = f"bad {_KINDS[parse]} for {key!r}: {value!r}" if parse in _KINDS else str(exc)
        raise ParseError(message, row=line_no) from exc


def _choice(key, options):
    """Parser of a case-insensitive token among `options`' keys, read as its value."""
    def parse(value):
        token = value.lower()
        if token not in options:
            raise ValueError(f"{key} must be {' or '.join(map(repr, options))}, got {token!r}")
        return options[token]
    return parse


class _Key(NamedTuple):
    """A holdings key: the constructor field it fills, its parser, and its
    value when absent (None: the key is required)."""

    name: str
    field: str
    parse: Callable[[str], Any]
    default: Any = None


class _Instrument(NamedTuple):
    """How a section becomes an instrument: its spec and pricer, and its keys in read order."""

    spec: type
    pricer: type
    keys: tuple[_Key, ...]
    coupons: Callable[..., CashflowSchedule] = lambda spec: CashflowSchedule()  # the spec's coupon schedule


_DIRECTION = _Key("direction", "notional_sign", _choice("direction", {"long": 1, "short": -1}), 1)
_CURRENCY = _Key("currency", "currency", currency_code, "USD")
_INSTRUMENTS = {
    "bond": _Instrument(BondSpec, BondPricer, (
        _Key("coupon_frequency", "coupon_frequency", int, 2),
        _Key("notional", "notional", float),
        _Key("issue", "issue", _DATE),
        _Key("maturity", "maturity", _DATE),
        _Key("coupon_rate", "coupon_rate", float),
    ), bond_cashflows),
    "cds": _Instrument(CdsSpec, CdsPricer, (
        _Key("protection", "direction", _choice("protection", {s.value: s for s in ProtectionSide}),
             ProtectionSide.BOUGHT),
        _Key("notional", "notional", float),
        _Key("maturity", "maturity", _DATE),
        _Key("contractual_spread", "contractual_spread", float),
    )),
    "cash": _Instrument(CashSpec, CashPricer, (
        _Key("balance", "balance", float),
        _Key("deposit_rate", "deposit_rate", float),
        _Key("start", "start", _DATE),
    )),
}


def _value(fields, key: _Key, position_id, header_line):
    if key.default is not None and key.name not in fields:
        return key.default
    line_no, value = _require(fields, key.name, position_id, header_line)
    return _parse(key.parse, value, line_no, key.name)


def _transactions(fields):
    """(line, parsed date, quantity change and cost) of each `transaction` line, in file order."""
    for line_no, value in fields.pop("transaction", []):
        parts = value.split()
        if len(parts) != 3:
            raise ParseError(f"transaction needs 'DATE QUANTITY_CHANGE COST_EUR', got {value!r}", row=line_no)
        yield line_no, tuple(_parse(parse, part, line_no, "transaction")
                             for parse, part in zip((_DATE, float, float), parts))


def _build(cls, position_id, row, *args, **kwargs):
    """cls(*args, **kwargs), with a ValueError raised as a ParseError naming the position and row."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ParseError(f"position {position_id!r}: {exc}", row=row) from exc


def _build_position(position_id, header_line, fields) -> Position:
    line_no, bucket_token = _require(fields, "bucket", position_id, header_line)
    try:
        bucket = Bucket(bucket_token)
    except ValueError:
        valid = ", ".join(b.value for b in Bucket)
        raise UnknownBucket(f"unknown bucket {bucket_token!r} (expected one of: {valid})", row=line_no) from None

    instrument_line, instrument = _require(fields, "instrument", position_id, header_line)
    instrument = instrument.lower()
    sign = _value(fields, _DIRECTION, position_id, header_line)

    transactions = [_build(checked_transaction, position_id, txn_line, *parts)
                    for txn_line, parts in _transactions(fields)]

    currency = _value(fields, _CURRENCY, position_id, header_line)
    kind = _INSTRUMENTS.get(instrument)
    if kind is None:
        raise ParseError(
            f"unknown instrument {instrument!r} (expected bond, cds, or cash)", row=instrument_line
        )
    spec = _build(kind.spec, position_id, header_line,
                  **{key.field: _value(fields, key, position_id, header_line) for key in kind.keys})
    schedule = _build(kind.coupons, position_id, header_line, spec=spec)

    for key, (stray_line, _) in fields.items():
        raise ParseError(f"unknown key {key!r} for instrument {instrument!r}", row=stray_line)

    for txn in transactions:
        _build(_check_life, position_id, header_line, spec, txn.date, what="transaction")

    return _build(
        Position, position_id, header_line,
        id=position_id,
        bucket=bucket,
        pricer=kind.pricer(spec),
        notional_sign=sign,
        schedule=schedule,
        transactions=tuple(transactions),
        currency=currency,
    )
