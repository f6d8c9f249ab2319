"""Calendar helpers: ACT/365F year fractions and month rolls.

All year fractions in the package use ACT/365F; no business-day calendars.
"""

import re
from datetime import date

DAYS_PER_YEAR = 365.0
_MONTH_DAYS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
_ISO_DATE = re.compile(r"\d{4}-\d{2}-\d{2}", re.ASCII)


def parse_date(text: str) -> date:
    """A YYYY-MM-DD date, the one form date.fromisoformat reads on every Python
    version; any other form raises the ValueError Python 3.10 raises for it."""
    if not _ISO_DATE.fullmatch(text):
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return date.fromisoformat(text)


def year_fraction(start: date, end: date) -> float:
    """ACT/365F year fraction from start to end (negative if end < start)."""
    return (end - start).days / DAYS_PER_YEAR


def add_months(d: date, months: int) -> date:
    """Shift a date by whole months, clamping the day to the month length."""
    carry, month0 = divmod(d.month - 1 + months, 12)
    year = d.year + carry
    if d.day <= 28:
        return date(year, month0 + 1, d.day)
    last = _MONTH_DAYS[month0]
    if month0 == 1 and year % 4 == 0 and (year % 100 != 0 or year % 400 == 0):
        last = 29
    return date(year, month0 + 1, min(d.day, last))
