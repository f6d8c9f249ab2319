"""Multi-currency PnL attribution into FX, rate, carry, and market parts.

The package decomposes the EUR PnL of single assets and rebalanced
portfolios using cross-evaluated prices at the two period ends, handles
coupon outflows with three carry conventions, rolls positions up into fund
report buckets, and ships seeded path oracles that quantify how far the
endpoint-only split sits from the whole-path decomposition.
"""

from .attribution import (
    AttributionResult,
    Bucket,
    CarryMode,
    FxMode,
    Portfolio,
    PortfolioAttribution,
    Position,
    PositionAttribution,
    Transaction,
    attribute_portfolio,
    attribute_position,
    four_way_split,
    fx_split,
    segment_period,
)
from .errors import (
    DuplicateDate,
    DuplicatePositionId,
    EmptyNodes,
    EmptyPeriod,
    EmptyResults,
    EngineError,
    InvalidCorrelation,
    LengthMismatch,
    MissingField,
    MissingSnapshot,
    MixedCurrencies,
    NonFiniteDerivative,
    NonFiniteReport,
    NonMonotoneTenors,
    ParseError,
    PastMaturity,
    PricerEvaluationFailed,
    ScheduleOutsideGrid,
    SimulationError,
    UnknownBucket,
)
from .market_data import (
    FxQuote,
    MarketFactors,
    MarketSnapshot,
    ZeroCurve,
    dump_market_snapshots,
    load_market_snapshots,
)
from .path_oracle import (
    CoarseFineComparison,
    GbmSpec,
    GridDecomposition,
    ItoDecomposition,
    PathSet,
    SimulationParams,
    StudyResult,
    compare_coarse_vs_fine,
    covariation_study,
    grid_ito_decomposition,
    grid_product_decomposition,
    simulate_paths,
    write_discrepancy_csv,
)
from .portfolio_io import load_portfolio
from .pricers import (
    BondPricer,
    BondSpec,
    CashflowSchedule,
    CashPricer,
    CashSpec,
    CdsPricer,
    CdsSpec,
    Pricer,
    ProtectionSide,
    bond_cashflows,
    price_bond,
    price_cash,
    price_cds,
)
from .reporting import ReportRow, bps, build_report_rows, render_report

__version__ = "0.1.0"
