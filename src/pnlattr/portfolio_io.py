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

`transaction` and `cashflow` may repeat. `cashflow = DATE AMOUNT` entries
(absolute currency amounts) replace the generated bond coupon schedule
when present; bonds otherwise get their coupon schedule automatically.

A value the instrument rejects (say `coupon_frequency = 3`) is a
ParseError naming the position and its section header line; an
out-of-order or negative `cashflow`, and a `transaction` with a non-finite
quantity change or a non-finite or negative cost, name their own line.
"""

from __future__ import annotations

import re
from datetime import date

from .attribution import Bucket, Portfolio, Position, checked_transaction, currency_code
from .errors import DuplicatePositionId, ParseError, UnknownBucket
from .pricers import (
    BondPricer,
    BondSpec,
    CashflowSchedule,
    CashPricer,
    CashSpec,
    CdsPricer,
    CdsSpec,
    bond_cashflows,
)

_SECTION = re.compile(r"^\[position\s+(?P<id>\S+)\]$")
_REPEATABLE = ("transaction", "cashflow")
_TRAILING_COMMENT = re.compile(r"\s+#.*")


def load_portfolio(source) -> Portfolio:
    """Parse the holdings file; `source` is a path, stream, or line iterable."""
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    elif isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    else:
        lines = [line.rstrip("\n") for line in source]

    sections = _split_sections(lines)
    positions = []
    seen = set()
    for position_id, header_line, fields in sections:
        if position_id in seen:
            raise DuplicatePositionId(f"line {header_line}: duplicate position id {position_id!r}")
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
        if key in _REPEATABLE:
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


def _parse_float(value, line_no, key):
    try:
        return float(value)
    except ValueError as exc:
        raise ParseError(f"bad number for {key!r}: {value!r}", row=line_no) from exc


def _parse_date(value, line_no, key):
    try:
        return date.fromisoformat(value)
    except ValueError as exc:
        raise ParseError(f"bad date for {key!r}: {value!r}", row=line_no) from exc


def _parse_int(value, line_no, key):
    try:
        return int(value)
    except ValueError as exc:
        raise ParseError(f"bad integer for {key!r}: {value!r}", row=line_no) from exc


def _float_field(fields, key, position_id, header_line):
    line_no, value = _require(fields, key, position_id, header_line)
    return _parse_float(value, line_no, key)


def _date_field(fields, key, position_id, header_line):
    line_no, value = _require(fields, key, position_id, header_line)
    return _parse_date(value, line_no, key)


def _build(cls, position_id, row, **kwargs):
    """cls(**kwargs), with a ValueError raised as a ParseError naming the position and row."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ParseError(f"position {position_id!r}: {exc}", row=row) from exc


def _build_position(position_id, header_line, fields) -> Position:
    line_no, bucket_token = _require(fields, "bucket", position_id, header_line)
    try:
        bucket = Bucket(bucket_token)
    except ValueError:
        valid = ", ".join(b.value for b in Bucket)
        raise UnknownBucket(
            f"line {line_no}: unknown bucket {bucket_token!r} (expected one of: {valid})"
        ) from None

    line_no, instrument = _require(fields, "instrument", position_id, header_line)
    instrument = instrument.lower()

    sign = 1
    if "direction" in fields:
        line_no_dir, token = fields.pop("direction")
        token = token.lower()
        if token not in ("long", "short"):
            raise ParseError(f"direction must be 'long' or 'short', got {token!r}", row=line_no_dir)
        sign = 1 if token == "long" else -1

    transactions = []
    for txn_line, value in fields.pop("transaction", []):
        parts = value.split()
        if len(parts) != 3:
            raise ParseError(
                f"transaction needs 'DATE QUANTITY_CHANGE COST_EUR', got {value!r}", row=txn_line
            )
        txn = _build(
            checked_transaction, position_id, txn_line,
            date=_parse_date(parts[0], txn_line, "transaction"),
            quantity_change=_parse_float(parts[1], txn_line, "transaction"),
            cost_eur=_parse_float(parts[2], txn_line, "transaction"),
        )
        transactions.append(txn)

    explicit_cashflows = []
    for cf_line, value in fields.pop("cashflow", []):
        parts = value.split()
        if len(parts) != 2:
            raise ParseError(f"cashflow needs 'DATE AMOUNT', got {value!r}", row=cf_line)
        entry = (_parse_date(parts[0], cf_line, "cashflow"), _parse_float(parts[1], cf_line, "cashflow"))
        # the schedule's own checks, on this entry and the one before it
        _build(CashflowSchedule, position_id, cf_line, entries=(*explicit_cashflows[-1:], entry))
        explicit_cashflows.append(entry)

    currency = {}
    if "currency" in fields:
        currency_line, code = fields.pop("currency")
        try:
            currency["currency"] = currency_code(code)
        except ValueError as exc:
            raise ParseError(str(exc), row=currency_line) from exc

    if instrument == "bond":
        frequency = 2
        if "coupon_frequency" in fields:
            freq_line, freq_value = fields.pop("coupon_frequency")
            frequency = _parse_int(freq_value, freq_line, "coupon_frequency")
        spec = _build(
            BondSpec, position_id, header_line,
            notional=_float_field(fields, "notional", position_id, header_line),
            issue=_date_field(fields, "issue", position_id, header_line),
            maturity=_date_field(fields, "maturity", position_id, header_line),
            coupon_rate=_float_field(fields, "coupon_rate", position_id, header_line),
            coupon_frequency=frequency,
        )
        pricer = BondPricer(spec)
        schedule = (
            CashflowSchedule(tuple(explicit_cashflows)) if explicit_cashflows
            else _build(bond_cashflows, position_id, header_line, spec=spec)
        )
        life = (spec.issue, spec.maturity)
    elif instrument == "cds":
        protection_line, protection = fields.pop("protection", (header_line, "bought"))
        protection = protection.lower()
        if protection not in ("bought", "sold"):
            raise ParseError(
                f"protection must be 'bought' or 'sold', got {protection!r}", row=protection_line
            )
        spec = _build(
            CdsSpec, position_id, header_line,
            notional=_float_field(fields, "notional", position_id, header_line),
            maturity=_date_field(fields, "maturity", position_id, header_line),
            contractual_spread=_float_field(fields, "contractual_spread", position_id, header_line),
            direction=protection,
        )
        pricer = CdsPricer(spec)
        schedule = CashflowSchedule(tuple(explicit_cashflows))
        life = (None, spec.maturity)
    elif instrument == "cash":
        spec = _build(
            CashSpec, position_id, header_line,
            balance=_float_field(fields, "balance", position_id, header_line),
            deposit_rate=_float_field(fields, "deposit_rate", position_id, header_line),
            start=_date_field(fields, "start", position_id, header_line),
        )
        pricer = CashPricer(spec)
        schedule = CashflowSchedule(tuple(explicit_cashflows))
        life = (spec.start, None)
    else:
        raise ParseError(
            f"unknown instrument {instrument!r} (expected bond, cds, or cash)", row=line_no
        )

    for key, (stray_line, _) in fields.items():
        raise ParseError(f"unknown key {key!r} for instrument {instrument!r}", row=stray_line)

    start_life, end_life = life
    for txn in transactions:
        if start_life is not None and txn.date < start_life:
            raise ParseError(
                f"position {position_id!r}: transaction {txn.date} before instrument start {start_life}",
                row=header_line,
            )
        if end_life is not None and txn.date > end_life:
            raise ParseError(
                f"position {position_id!r}: transaction {txn.date} after maturity {end_life}",
                row=header_line,
            )

    return _build(
        Position, position_id, header_line,
        id=position_id,
        bucket=bucket,
        pricer=pricer,
        notional_sign=sign,
        schedule=schedule,
        transactions=tuple(transactions),
        **currency,
    )
