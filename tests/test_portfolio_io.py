import io
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
)

MINIMAL_BOND = """[position ONE]
bucket = SeniorSub
instrument = bond
notional = 1000000
issue = 2021-01-15
maturity = 2026-01-15
coupon_rate = 0.04
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
