"""Exception types for the attribution engine.

One rule: value types (FxQuote, ZeroCurve, Position, Portfolio, BondSpec,
GbmSpec, SimulationParams, PathSet, ...) and pure functions (the pricers,
grid_ito_decomposition) raise ValueError for an argument outside their
domain. EngineError is raised by the loaders, which name the input row; by
the engine, which names the position and the subperiod; by the oracle,
which names the seed or the grid index; by the report renderer; and by the
CLI, which wraps a ValueError from its own arguments as a ParseError and
maps every EngineError to exit code 1. Two records keep an EngineError of
their own: AttributionResult's NonFiniteReport, to which the engine adds
the position and the subperiod, and PathSet's SimulationError for an fx
path not > 0, which is a ValueError too.

A diagnostic says where it happened, innermost place last: the raiser
passes the input `row` and `column` it stopped at, and each caller that
knows more puts its place in front with `at`, as in `bad.csv: row 1: market
CSV header lacks column 'hazard'` or `position X: subperiod (a, b]: ...`.
"""


class EngineError(Exception):
    """Base class for the loaders' and the engine's errors; carries row/column context when known."""

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

    def at(self, where: str) -> "EngineError":
        """This error, with `where: ` put in front of its message."""
        self.args = (f"{where}: {self}",)
        return self


class ParseError(EngineError):
    """Malformed input text."""


class DuplicateDate(EngineError):
    """Two market rows share the same observation date."""


class MissingField(EngineError):
    """A required column or cell is absent from the input."""


class EmptyPeriod(EngineError):
    """An attribution period or grid step (t, T] is empty because t >= T."""


class PricerEvaluationFailed(EngineError):
    """One of the cross-evaluated prices raised or came back non-finite."""


class MissingSnapshot(EngineError):
    """No market snapshot is available at a required grid date."""


class MixedCurrencies(EngineError):
    """A book holds two foreign currencies, but the market quotes only one."""


class ScheduleOutsideGrid(EngineError):
    """A cashflow or a transaction inside the period does not sit on the
    attribution grid."""


class SimulationError(EngineError, ValueError):
    """Simulation inputs or simulated paths the oracle cannot use, such as an
    fx path that underflows to zero or a jump intensity numpy cannot draw."""


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
