"""Exception types for the attribution engine.

Everything raised on purpose derives from EngineError so callers can catch
one base class at the boundary; the CLI maps it to exit code 1.
"""


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class EmptyNodes(EngineError):
    """Curve construction received no nodes."""


class NonMonotoneTenors(EngineError):
    """Curve tenors must be nonnegative and strictly increasing."""


class ParseError(EngineError):
    """Malformed input text; carries row/column context when known."""

    def __init__(self, message, *, row=None, column=None):
        where = []
        if row is not None:
            where.append(f"row {row}")
        if column is not None:
            where.append(f"column {column!r}")
        if where:
            message = f"{', '.join(where)}: {message}"
        super().__init__(message)
        self.row = row
        self.column = column


class DuplicateDate(EngineError):
    """Two market rows share the same observation date."""


class MissingField(EngineError):
    """A required column or cell is absent from the input."""


class PastMaturity(EngineError):
    """Valuation date lies after the instrument's maturity."""


class EmptyPeriod(EngineError):
    """Attribution period (t, T] is empty because t >= T."""


class PricerEvaluationFailed(EngineError):
    """One of the cross-evaluated prices raised or came back non-finite."""


class MissingSnapshot(EngineError):
    """No market snapshot is available at a required grid date."""


class MixedCurrencies(EngineError):
    """A book holds two foreign currencies, but the market quotes only one."""


class ScheduleOutsideGrid(EngineError):
    """A cashflow inside the period does not sit on the attribution grid."""


class InvalidCorrelation(EngineError):
    """Correlation matrix is not symmetric positive semidefinite."""


class SimulationError(EngineError, ValueError):
    """Simulation inputs or simulated paths the oracle cannot use, such as an
    fx path that underflows to zero or a jump intensity numpy cannot draw."""


class LengthMismatch(EngineError):
    """Path arrays do not share a common grid length."""


class NonFiniteDerivative(EngineError):
    """A finite-difference derivative evaluated to NaN or infinity."""


class UnknownBucket(EngineError):
    """Position bucket label is not one of the known categories."""


class DuplicatePositionId(EngineError):
    """Two portfolio positions share the same id."""


class EmptyResults(EngineError):
    """Report rendering was asked to format an empty result set."""


class NonFiniteReport(EngineError):
    """A report value or its basis-point mirror overflows to a non-finite number."""
