"""Calendar helpers: ACT/365F year fractions and month rolls.

All year fractions in the package use ACT/365F; no business-day calendars.
"""

import calendar
from datetime import date

DAYS_PER_YEAR = 365.0


def year_fraction(start: date, end: date) -> float:
    """ACT/365F year fraction from start to end (negative if end < start)."""
    return (end - start).days / DAYS_PER_YEAR


def add_months(d: date, months: int) -> date:
    """Shift a date by whole months, clamping the day to the month length."""
    carry, month0 = divmod(d.month - 1 + months, 12)
    year = d.year + carry
    month = month0 + 1
    day = min(d.day, calendar.monthrange(year, month)[1])
    return date(year, month, day)
