"""Multi-currency PnL attribution into FX, rate, carry, and market parts.

The package decomposes the EUR PnL of single assets and rebalanced
portfolios using cross-evaluated prices at the two period ends, handles
coupon outflows with three carry conventions, rolls positions up into fund
report buckets, and ships seeded path oracles that quantify how far the
endpoint-only split sits from the whole-path decomposition.

`import pnlattr` loads no submodule. Each name below loads its module on
first use (PEP 562), so `pnlattr.FxMode` loads only `conventions`, the
attribute engine loads without numpy, and the path-oracle names load numpy.
`from pnlattr import *` binds every name but the path oracle's.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "conventions": "CarryMode FxMode",
    "attribution": """AttributionResult Bucket CashflowSchedule Portfolio PortfolioAttribution Position
        PositionAttribution Transaction attribute_every_mode attribute_portfolio attribute_position
        four_way_split segment_period""",
    "errors": """DuplicateDate DuplicatePositionId EmptyNodes EmptyPeriod EmptyResults EngineError
        InvalidCorrelation LengthMismatch MissingField MissingSnapshot MixedCurrencies NonFiniteDerivative
        NonFiniteReport NonMonotoneTenors ParseError PastMaturity PricerEvaluationFailed ScheduleOutsideGrid
        SimulationError UnknownBucket""",
    "market_data": "FxQuote MarketFactors MarketSnapshot ZeroCurve dump_market_snapshots load_market_snapshots",
    "portfolio_io": "load_portfolio",
    "pricers": """BondPricer BondSpec CashPricer CashSpec CdsPricer CdsSpec Pricer ProtectionSide
        bond_cashflows price_bond price_cash price_cds""",
    "reporting": "ReportRow bps build_report_rows render_report",
    "path_oracle": """GbmSpec ItoDecomposition PathSet SimulationParams StudyResult compare_coarse_vs_fine
        covariation_study grid_ito_decomposition simulate_paths write_discrepancy_csv""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = [name for name, module in _MODULE_OF.items() if module != "path_oracle"]  # no numpy


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
