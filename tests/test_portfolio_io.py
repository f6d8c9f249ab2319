import io
import re
import textwrap
from datetime import date

import pytest

from pnlattr import (
    BondPricer,
    Bucket,
    CashPricer,
    CdsPricer,
    DuplicatePositionId,
    ParseError,
    ProtectionSide,
    UnknownBucket,
    load_portfolio,
    portfolio_io,
)

MINIMAL_BOND = """[position ONE]
bucket = SeniorSub
instrument = bond
notional = 1000000
issue = 2021-01-15
maturity = 2026-01-15
coupon_rate = 0.04
"""

MINIMAL_CDS = """[position TWO]
bucket = Hedge
instrument = cds
notional = 1000000
maturity = 2026-01-15
contractual_spread = 0.01
"""

MINIMAL_CASH = """[position THREE]
bucket = Cash
instrument = cash
balance = 1000000
deposit_rate = 0.01
start = 2021-12-31
"""


def test_minimal_bond_file():
    portfolio = load_portfolio(io.StringIO(MINIMAL_BOND))
    assert len(portfolio.positions) == 1
    pos = portfolio.positions[0]
    assert pos.id == "ONE"
    assert pos.bucket is Bucket.SENIOR_SUB
    assert isinstance(pos.pricer, BondPricer)
    assert pos.pricer.spec.coupon_frequency == 2
    assert pos.notional_sign == 1
    # auto-generated coupon schedule, notional-scaled
    assert all(amount == 1_000_000 * 0.02 for _, amount in pos.schedule.entries)
    assert pos.schedule.entries[-1][0] == date(2026, 1, 15)


def test_full_portfolio_round(portfolio_text):
    portfolio = load_portfolio(io.StringIO(portfolio_text))
    assert [p.id for p in portfolio.positions] == ["ACME_BOND", "ACME_CDS", "EUR_CASH"]
    bond, cds, cash = portfolio.positions
    assert bond.transactions[0].cost_eur == 6268.0
    assert isinstance(cds.pricer, CdsPricer)
    assert cds.pricer.spec.direction is ProtectionSide.BOUGHT
    assert isinstance(cash.pricer, CashPricer)
    assert cash.pricer.spec.deposit_rate == -0.0078
    assert cash.schedule.entries == ()


def test_unknown_bucket_names_the_token():
    bad = MINIMAL_BOND.replace("SeniorSub", "SeniorSup")
    with pytest.raises(UnknownBucket, match="SeniorSup"):
        load_portfolio(io.StringIO(bad))


def test_duplicate_position_id():
    with pytest.raises(DuplicatePositionId, match="ONE"):
        load_portfolio(io.StringIO(MINIMAL_BOND + "\n" + MINIMAL_BOND))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="row 2"):
        load_portfolio(io.StringIO("[position X]\nnot a key value line\n"))
    with pytest.raises(ParseError, match="row 1"):
        load_portfolio(io.StringIO("bucket = Other\n"))
    with pytest.raises(ParseError, match="malformed section header"):
        load_portfolio(io.StringIO("[holdings X]\n"))


def test_missing_required_key_names_key_and_position():
    text = "[position X]\nbucket = Other\ninstrument = bond\nnotional = 1\n"
    with pytest.raises(ParseError, match="coupon_rate|issue|maturity"):
        load_portfolio(io.StringIO(text))


def test_unknown_key_rejected():
    with pytest.raises(ParseError, match="unknown key 'color'"):
        load_portfolio(io.StringIO(MINIMAL_BOND + "color = blue\n"))


def test_bad_transaction_and_cashflow_lines():
    with pytest.raises(ParseError, match="transaction"):
        load_portfolio(io.StringIO(MINIMAL_BOND + "transaction = 2022-01-01 0\n"))
    with pytest.raises(ParseError, match="cashflow"):
        load_portfolio(io.StringIO(MINIMAL_BOND + "cashflow = 2022-01-01\n"))


def test_transaction_outside_life_rejected():
    with pytest.raises(ParseError, match="after maturity"):
        load_portfolio(io.StringIO(MINIMAL_BOND + "transaction = 2030-01-01 0 10\n"))
    with pytest.raises(ParseError, match="before instrument start"):
        load_portfolio(io.StringIO(MINIMAL_BOND + "transaction = 2020-01-01 0 10\n"))


def test_explicit_cashflows_replace_generated_schedule():
    text = MINIMAL_BOND + "cashflow = 2022-06-30 12345\n"
    portfolio = load_portfolio(io.StringIO(text))
    assert portfolio.positions[0].schedule.entries == ((date(2022, 6, 30), 12345.0),)


def test_short_direction():
    text = MINIMAL_BOND + "direction = short\n"
    assert load_portfolio(io.StringIO(text)).positions[0].notional_sign == -1
    with pytest.raises(ParseError, match="direction"):
        load_portfolio(io.StringIO(MINIMAL_BOND + "direction = inverse\n"))


@pytest.mark.parametrize("line, message", [
    ("protection = both", "row 7: protection must be 'bought' or 'sold', got 'both'"),
    ("direction = inverse", "row 7: direction must be 'long' or 'short', got 'inverse'"),
])
def test_bad_cds_side_names_its_own_line(line, message):
    with pytest.raises(ParseError) as info:
        load_portfolio(io.StringIO(MINIMAL_CDS + line + "\n"))
    assert str(info.value) == message


def test_currency_defaults_to_usd_and_is_carried_by_the_position(portfolio_text):
    assert load_portfolio(io.StringIO(MINIMAL_BOND)).positions[0].currency == "USD"
    book = load_portfolio(io.StringIO(portfolio_text))
    assert [p.currency for p in book.positions] == ["USD", "USD", "EUR"]


def test_lowercase_currency_is_upper_cased():
    text = MINIMAL_BOND + "currency = eur\n"
    assert load_portfolio(io.StringIO(text)).positions[0].currency == "EUR"


@pytest.mark.parametrize("code", ["EURO", "E1R", "US", "$$$"])
def test_malformed_currency_names_its_line(code):
    text = MINIMAL_BOND + f"currency = {code}\n"
    with pytest.raises(ParseError, match=r"row 8: currency must be a three-letter code"):
        load_portfolio(io.StringIO(text))


def test_docstring_example_with_trailing_comments_loads():
    doc = portfolio_io.__doc__
    block = doc[doc.index("    # comment lines"):doc.index("Instrument keys:")]
    lines = textwrap.dedent(block).splitlines()
    assert any("  # " in line for line in lines if not line.startswith("#"))
    uncommented = [line.partition("#")[0].rstrip() for line in lines]
    book = load_portfolio(lines)
    assert book == load_portfolio(uncommented)


def test_trailing_comment_after_section_header_is_stripped():
    text = MINIMAL_BOND.replace("[position ONE]", "[position ONE]   # the only bond")
    text += "currency = eur\t# lower case is fine\n"
    position = load_portfolio(io.StringIO(text)).positions[0]
    assert (position.id, position.currency) == ("ONE", "EUR")


@pytest.mark.parametrize("text, row, message", [
    (MINIMAL_BOND + "coupon_frequency = 3\n", 1, "coupon_frequency must be 1, 2, 4 or 12, got 3"),
    (MINIMAL_BOND.replace("notional = 1000000", "notional = -5"), 1, "notional must be finite and > 0"),
    (MINIMAL_BOND.replace("issue = 2021-01-15", "issue = 2027-01-15"), 1, "maturity 2026-01-15 not after issue"),
    (MINIMAL_BOND.replace("coupon_rate = 0.04", "coupon_rate = nan"), 1, "coupon_rate must be finite"),
    (MINIMAL_CDS.replace("0.01", "-0.01"), 1, "contractual_spread must be finite and >= 0"),
    (MINIMAL_CDS.replace("notional = 1000000", "notional = inf"), 1, "notional must be finite and > 0"),
    (MINIMAL_CASH.replace("balance = 1000000", "balance = inf"), 1, "balance and deposit_rate must be finite"),
    (MINIMAL_BOND + "cashflow = 2022-07-15 10\ncashflow = 2022-01-15 10\n", 9,
     "cashflow dates must be strictly increasing: 2022-07-15 >= 2022-01-15"),
    (MINIMAL_BOND + "cashflow = 2022-01-15 10\ncashflow = 2022-07-15 -10\n", 9,
     "cashflow amounts must be finite and >= 0, got -10.0 at 2022-07-15"),
], ids=["frequency", "notional", "maturity", "coupon-nan", "spread", "notional-inf", "balance-inf",
        "cashflow-order", "cashflow-negative"])
def test_invalid_values_name_the_position_and_the_line(text, row, message):
    with pytest.raises(ParseError) as info:
        load_portfolio(io.StringIO(text))
    assert info.value.row == row
    assert str(info.value).startswith(f"row {row}: position ")
    assert message in str(info.value)


@pytest.mark.parametrize("line, message", [
    ("transaction = 2022-03-01 nan 0", "transaction 2022-03-01: quantity change must be finite, got nan"),
    ("transaction = 2022-03-01 -inf 0", "transaction 2022-03-01: quantity change must be finite, got -inf"),
    ("transaction = 2022-03-01 0 nan", "transaction 2022-03-01: cost must be finite and >= 0, got nan"),
    ("transaction = 2022-03-01 0 inf", "transaction 2022-03-01: cost must be finite and >= 0, got inf"),
    ("transaction = 2022-03-01 0 -5", "transaction 2022-03-01: cost must be finite and >= 0, got -5.0"),
], ids=["quantity-nan", "quantity-inf", "cost-nan", "cost-inf", "cost-negative"])
def test_bad_transaction_values_name_the_transaction_line(line, message):
    text = MINIMAL_BOND + "transaction = 2021-06-01 0 10\n" + line + "\n"
    with pytest.raises(ParseError) as info:
        load_portfolio(io.StringIO(text))
    assert info.value.row == 9
    assert str(info.value) == f"row 9: position 'ONE': {message}"


def test_coupon_roll_out_of_date_range_names_the_position():
    text = MINIMAL_BOND.replace("issue = 2021-01-15", "issue = 0001-01-01").replace(
        "maturity = 2026-01-15", "maturity = 0001-03-01")
    with pytest.raises(ParseError) as info:
        load_portfolio(io.StringIO(text))
    assert info.value.row == 1
    assert str(info.value) == "row 1: position 'ONE': year 0 is out of range"


def _drop(text, key):
    return re.sub(rf"(?m)^{key} = .*\n", "", text)


def _swap(text, key, value):
    return re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)


B, C, K = MINIMAL_BOND, MINIMAL_CDS, MINIMAL_CASH
HOLDINGS_DIAGNOSTICS = [
    # missing required keys, each instrument in turn
    ("bond-no-bucket", _drop(B, "bucket"), ParseError, "row 1: position 'ONE' lacks required key 'bucket'"),
    ("bond-no-instrument", _drop(B, "instrument"), ParseError,
     "row 1: position 'ONE' lacks required key 'instrument'"),
    *[(f"bond-no-{key}", _drop(B, key), ParseError, f"row 1: position 'ONE' lacks required key '{key}'")
      for key in ("notional", "issue", "maturity", "coupon_rate")],
    *[(f"cds-no-{key}", _drop(C, key), ParseError, f"row 1: position 'TWO' lacks required key '{key}'")
      for key in ("notional", "maturity", "contractual_spread")],
    *[(f"cash-no-{key}", _drop(K, key), ParseError, f"row 1: position 'THREE' lacks required key '{key}'")
      for key in ("balance", "deposit_rate", "start")],
    # a value that does not parse, on every typed key
    ("bond-bad-notional", _swap(B, "notional", "1e6x"), ParseError, "row 4: bad number for 'notional': '1e6x'"),
    ("bond-bad-issue", _swap(B, "issue", "2021-13-01"), ParseError, "row 5: bad date for 'issue': '2021-13-01'"),
    ("bond-bad-maturity", _swap(B, "maturity", "soon"), ParseError, "row 6: bad date for 'maturity': 'soon'"),
    ("bond-bad-coupon_rate", _swap(B, "coupon_rate", "4%"), ParseError,
     "row 7: bad number for 'coupon_rate': '4%'"),
    ("bond-bad-coupon_frequency", B + "coupon_frequency = 2.5\n", ParseError,
     "row 8: bad integer for 'coupon_frequency': '2.5'"),
    ("cds-bad-notional", _swap(C, "notional", "one"), ParseError, "row 4: bad number for 'notional': 'one'"),
    ("cds-bad-maturity", _swap(C, "maturity", "2026-02-30"), ParseError,
     "row 5: bad date for 'maturity': '2026-02-30'"),
    ("cds-bad-contractual_spread", _swap(C, "contractual_spread", "1bp"), ParseError,
     "row 6: bad number for 'contractual_spread': '1bp'"),
    ("cds-bad-protection", C + "protection = both\n", ParseError,
     "row 7: protection must be 'bought' or 'sold', got 'both'"),
    ("cash-bad-balance", _swap(K, "balance", "lots"), ParseError, "row 4: bad number for 'balance': 'lots'"),
    ("cash-bad-deposit_rate", _swap(K, "deposit_rate", "1%"), ParseError,
     "row 5: bad number for 'deposit_rate': '1%'"),
    ("cash-bad-start", _swap(K, "start", "2021-12-32"), ParseError, "row 6: bad date for 'start': '2021-12-32'"),
    ("bad-direction", B + "direction = up\n", ParseError, "row 8: direction must be 'long' or 'short', got 'up'"),
    ("bad-currency", B + "currency = EURO\n", ParseError,
     "row 8: currency must be a three-letter code, got 'EURO'"),
    # unknown instrument and bucket, duplicate id, another instrument's key
    ("unknown-instrument", _swap(B, "instrument", "swap"), ParseError,
     "row 3: unknown instrument 'swap' (expected bond, cds, or cash)"),
    ("unknown-bucket", _swap(B, "bucket", "SeniorSup"), UnknownBucket,
     "row 2: unknown bucket 'SeniorSup' (expected one of: CapitalStructure, SeniorSub, MismatchBasis, "
     "MatchedBasis, Other, Hedge, Cash)"),
    ("duplicate-id", B + "\n" + B, DuplicatePositionId, "row 9: duplicate position id 'ONE'"),
    ("bond-cash-key", B + "start = 2021-01-15\n", ParseError, "row 8: unknown key 'start' for instrument 'bond'"),
    ("bond-cds-key", B + "protection = sold\n", ParseError,
     "row 8: unknown key 'protection' for instrument 'bond'"),
    ("cds-bond-key", C + "issue = 2021-01-15\n", ParseError, "row 7: unknown key 'issue' for instrument 'cds'"),
    ("cds-bond-frequency", C + "coupon_frequency = 4\n", ParseError,
     "row 7: unknown key 'coupon_frequency' for instrument 'cds'"),
    ("cash-bond-key", K + "maturity = 2026-01-15\n", ParseError,
     "row 7: unknown key 'maturity' for instrument 'cash'"),
    ("cash-cds-key", K + "protection = bought\n", ParseError,
     "row 7: unknown key 'protection' for instrument 'cash'"),
    # a transaction outside the instrument's life
    ("bond-before-issue", B + "transaction = 2020-01-01 0 10\n", ParseError,
     "row 1: position 'ONE': transaction 2020-01-01 before instrument start 2021-01-15"),
    ("bond-after-maturity", B + "transaction = 2030-01-01 0 10\n", ParseError,
     "row 1: position 'ONE': transaction 2030-01-01 after maturity 2026-01-15"),
    ("cds-after-maturity", C + "transaction = 2026-01-16 0 10\n", ParseError,
     "row 1: position 'TWO': transaction 2026-01-16 after maturity 2026-01-15"),
    ("cash-before-start", K + "transaction = 2021-12-30 0 10\n", ParseError,
     "row 1: position 'THREE': transaction 2021-12-30 before instrument start 2021-12-31"),
    # two faults in one section: the first named wins
    ("direction-before-transaction", B + "transaction = 2022-01-01 x 0\ndirection = up\n", ParseError,
     "row 9: direction must be 'long' or 'short', got 'up'"),
    ("transaction-before-currency", B + "currency = EURO\ntransaction = 2022-01-01 x 0\n", ParseError,
     "row 9: bad number for 'transaction': 'x'"),
    ("cashflow-before-currency", B + "currency = EURO\ncashflow = 2022-01-01 x\n", ParseError,
     "row 9: bad number for 'cashflow': 'x'"),
    ("currency-before-instrument", _swap(B, "instrument", "swap") + "currency = EURO\n", ParseError,
     "row 8: currency must be a three-letter code, got 'EURO'"),
    ("currency-before-notional", _swap(B, "notional", "abc") + "currency = EURO\n", ParseError,
     "row 8: currency must be a three-letter code, got 'EURO'"),
    ("frequency-before-notional", _swap(B, "notional", "abc") + "coupon_frequency = x\n", ParseError,
     "row 8: bad integer for 'coupon_frequency': 'x'"),
    ("notional-before-missing-issue", _drop(_swap(B, "notional", "abc"), "issue"), ParseError,
     "row 4: bad number for 'notional': 'abc'"),
    ("protection-before-notional", _swap(C, "notional", "one") + "protection = both\n", ParseError,
     "row 7: protection must be 'bought' or 'sold', got 'both'"),
    ("balance-before-missing-start", _drop(_swap(K, "balance", "lots"), "start"), ParseError,
     "row 4: bad number for 'balance': 'lots'"),
    ("spec-before-stray-key", B + "color = blue\ncoupon_frequency = 3\n", ParseError,
     "row 1: position 'ONE': coupon_frequency must be 1, 2, 4 or 12, got 3"),
    ("cds-spec-before-stray-key", _swap(C, "contractual_spread", "-0.01") + "issue = 2021-01-15\n", ParseError,
     "row 1: position 'TWO': contractual_spread must be finite and >= 0, got -0.01"),
    ("schedule-before-stray-key", _swap(_swap(B, "notional", "1e308"), "coupon_rate", "10") + "color = blue\n",
     ParseError, "row 1: position 'ONE': cashflow amounts must be finite and >= 0, got inf at 2021-07-15"),
    ("stray-key-before-life", B + "transaction = 2030-01-01 0 10\ncolor = blue\n", ParseError,
     "row 9: unknown key 'color' for instrument 'bond'"),
    # ISO forms that Python 3.11's date.fromisoformat reads and 3.10's does not
    ("bond-basic-form-issue", _swap(B, "issue", "20210115"), ParseError, "row 5: bad date for 'issue': '20210115'"),
    ("cds-week-form-maturity", _swap(C, "maturity", "2026-W03-4"), ParseError,
     "row 5: bad date for 'maturity': '2026-W03-4'"),
    ("transaction-basic-form", B + "transaction = 20220101 0 10\n", ParseError,
     "row 8: bad date for 'transaction': '20220101'"),
    ("cashflow-ordinal-form", B + "cashflow = 2022-001 5\n", ParseError, "row 8: bad date for 'cashflow': '2022-001'"),
]


@pytest.mark.parametrize("text, error, message", [case[1:] for case in HOLDINGS_DIAGNOSTICS],
                         ids=[case[0] for case in HOLDINGS_DIAGNOSTICS])
def test_holdings_diagnostics(text, error, message):
    with pytest.raises(error) as info:
        load_portfolio(io.StringIO(text))
    assert type(info.value) is error
    assert str(info.value) == message


def test_coupon_roll_out_of_date_range_is_a_load_error_with_explicit_cashflows():
    text = MINIMAL_BOND.replace("issue = 2021-01-15", "issue = 0001-01-01").replace(
        "maturity = 2026-01-15", "maturity = 0001-03-01") + "cashflow = 0001-03-01 20000\n"
    with pytest.raises(ParseError) as info:
        load_portfolio(io.StringIO(text))
    assert str(info.value) == "row 1: position 'ONE': year 0 is out of range"


def test_docstring_instrument_keys_match_the_loader_table():
    doc = portfolio_io.__doc__
    lines = doc[doc.index("Instrument keys:"):].split("\n\n")[0].splitlines()[1:]
    listed = {}
    for line in lines:
        instrument, _, keys = line.partition(":")
        listed[instrument.strip()] = {key.split()[0] for key in keys.split(",")}
    table = portfolio_io._INSTRUMENTS
    assert listed == {instrument: {key.name for key in kind.keys} for instrument, kind in table.items()}
