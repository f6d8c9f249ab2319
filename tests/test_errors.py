"""An error carries where it happened: its input row and column, then each
place a caller puts in front with `at`."""

from pnlattr import MissingField, ParseError


def test_row_leads_the_message():
    exc = MissingField("x", row=3)
    assert str(exc) == "row 3: x"
    assert (exc.row, exc.column) == (3, None)


def test_at_puts_the_place_in_front_and_keeps_the_exception():
    cause = ValueError("cause")
    exc = ParseError("bad", row=2, column="c")
    exc.__cause__ = cause
    placed = exc.at("w")
    assert placed is exc
    assert type(placed) is ParseError
    assert str(placed) == "w: row 2, column 'c': bad"
    assert (placed.row, placed.column, placed.__cause__) == (2, "c", cause)
    assert str(placed.at("v")) == "v: w: row 2, column 'c': bad"

