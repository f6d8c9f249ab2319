"""The package's frozen value records: construction, checks, derived state,
equality, hash, repr, immutability, copy and pickle, class by class."""

import copy
import dataclasses
import pickle
from collections import namedtuple
from datetime import date

import numpy as np
import pytest

from pnlattr import (
    AttributionResult,
    Bucket,
    BondPricer,
    BondSpec,
    CashflowSchedule,
    CashPricer,
    CashSpec,
    CdsPricer,
    CdsSpec,
    FxQuote,
    GbmSpec,
    ItoDecomposition,
    MarketFactors,
    MarketSnapshot,
    NonFiniteReport,
    PathSet,
    Portfolio,
    PortfolioAttribution,
    Position,
    PositionAttribution,
    ProtectionSide,
    ReportRow,
    SimulationError,
    SimulationParams,
    StudyResult,
    Transaction,
    ZeroCurve,
    compare_coarse_vs_fine,
)

D1, D2 = date(2022, 6, 15), date(2022, 12, 15)
BOND = BondSpec(100.0, date(2021, 8, 31), date(2023, 2, 28), 0.05)
CDS = CdsSpec(1e6, date(2026, 12, 20), 0.01)
CASH = CashSpec(1e6, 0.01, date(2022, 1, 1))
RESULT = AttributionResult(1.0, 2.0, 0.5, -0.5, 3.0)
FX_GBM = GbmSpec("fx", 1.1)
ONE_ROW = compare_coarse_vs_fine(PathSet([0.0, 1.0], {"asset": [1.0, 2.0], "fx": [1.0, 1.5]}, seed=3))

#: args: every constructor argument by name, in order; defaults: the ones that
#: may be left out and their values; bad: (argument overrides, error, message)
#: per check; derived: fields set at construction that ==, hash and repr ignore.
Case = namedtuple("Case", "cls args defaults repr bad derived", defaults=({}, {}, (), {}))

CASES = [
    Case(ZeroCurve, {"anchor_date": D1, "nodes": ((0.5, 0.01), (2, 0.02))},
         repr="ZeroCurve(anchor_date=datetime.date(2022, 6, 15), nodes=((0.5, 0.01), (2.0, 0.02)))",
         bad=[({"nodes": ()}, ValueError, "at least one node"),
              ({"nodes": ((0.5, float("nan")),)}, ValueError, "curve nodes must be finite"),
              ({"nodes": ((-0.5, 0.01),)}, ValueError, "tenors must be >= 0"),
              ({"nodes": ((2.0, 0.01), (2.0, 0.02))}, ValueError, "strictly increasing")],
         derived={"_table": ((0.5, 2.0), (0.01, 0.02), ((0.02 - 0.01) / 1.5,))}),
    Case(MarketFactors, {"hazard_rate": 0.02, "recovery": 0.4, "basis_spread": 0.001},
         defaults={"recovery": 0.0, "basis_spread": 0.0},
         repr="MarketFactors(hazard_rate=0.02, recovery=0.4, basis_spread=0.001)",
         bad=[({"hazard_rate": -0.1}, ValueError, "hazard_rate must be finite and >= 0"),
              ({"basis_spread": float("inf")}, ValueError, "basis_spread must be finite"),
              ({"recovery": 1.0}, ValueError, r"recovery must be in \[0, 1\)")]),
    Case(FxQuote, {"rate": 1.1}, repr="FxQuote(rate=1.1)",
         bad=[({"rate": 0.0}, ValueError, "fx rate must be finite and > 0")]),
    Case(MarketSnapshot, {"as_of": D1, "curve": ZeroCurve(D1, ((1.0, 0.02),)), "factors": MarketFactors(0.01),
                          "fx": FxQuote(1.1)},
         repr="MarketSnapshot(as_of=datetime.date(2022, 6, 15), "
              "curve=ZeroCurve(anchor_date=datetime.date(2022, 6, 15), nodes=((1.0, 0.02),)), "
              "factors=MarketFactors(hazard_rate=0.01, recovery=0.0, basis_spread=0.0), fx=FxQuote(rate=1.1))",
         bad=[({"curve": ZeroCurve(D2, ((1.0, 0.02),))}, ValueError,
               "^curve anchored at 2022-12-15 but snapshot dated 2022-06-15$")]),
    Case(CashflowSchedule, {"entries": ((D1, 5), (D2, 5.0))}, defaults={"entries": ()},
         repr="CashflowSchedule(entries=((datetime.date(2022, 6, 15), 5.0), (datetime.date(2022, 12, 15), 5.0)))",
         bad=[({"entries": ((D2, 5.0), (D1, 5.0))}, ValueError, "cashflow dates must be strictly increasing"),
              ({"entries": ((D1, -5.0),)}, ValueError, "cashflow amounts must be finite and >= 0")],
         derived={"_by_date": {D1: 5.0, D2: 5.0}}),
    Case(BondSpec, {"notional": 100.0, "issue": date(2021, 8, 31), "maturity": date(2023, 2, 28),
                    "coupon_rate": 0.05, "coupon_frequency": 2},
         defaults={"coupon_frequency": 2},
         repr="BondSpec(notional=100.0, issue=datetime.date(2021, 8, 31), maturity=datetime.date(2023, 2, 28), "
              "coupon_rate=0.05, coupon_frequency=2)",
         bad=[({"notional": 0.0}, ValueError, "notional must be finite and > 0"),
              ({"maturity": date(2021, 8, 31)}, ValueError, "maturity 2021-08-31 not after issue"),
              ({"coupon_rate": -0.01}, ValueError, "coupon_rate must be finite and >= 0"),
              ({"coupon_frequency": 3}, ValueError, "coupon_frequency must be 1, 2, 4 or 12")],
         derived={"life": (date(2021, 8, 31), date(2023, 2, 28)),
                  "_coupon_dates": (date(2022, 2, 28), date(2022, 8, 28), date(2023, 2, 28)),
                  "_coupon_ordinals": (738214, 738395, 738579)}),
    Case(CdsSpec, {"notional": 1e6, "maturity": date(2026, 12, 20), "contractual_spread": 0.01,
                   "direction": "sold"},
         defaults={"direction": ProtectionSide.BOUGHT},
         repr="CdsSpec(notional=1000000.0, maturity=datetime.date(2026, 12, 20), contractual_spread=0.01, "
              "direction=<ProtectionSide.SOLD: 'sold'>)",
         bad=[({"notional": float("nan")}, ValueError, "notional must be finite and > 0"),
              ({"contractual_spread": -0.01}, ValueError, "contractual_spread must be finite and >= 0"),
              ({"direction": "both"}, ValueError, "'both' is not a valid ProtectionSide")],
         derived={"life": (None, date(2026, 12, 20))}),
    Case(CashSpec, {"balance": 1e6, "deposit_rate": 0.01, "start": date(2022, 1, 1)},
         repr="CashSpec(balance=1000000.0, deposit_rate=0.01, start=datetime.date(2022, 1, 1))",
         bad=[({"deposit_rate": float("nan")}, ValueError, "balance and deposit_rate must be finite")],
         derived={"life": (date(2022, 1, 1), None)}),
    Case(BondPricer, {"spec": BOND},
         repr="BondPricer(spec=BondSpec(notional=100.0, issue=datetime.date(2021, 8, 31), "
              "maturity=datetime.date(2023, 2, 28), coupon_rate=0.05, coupon_frequency=2))"),
    Case(CdsPricer, {"spec": CDS},
         repr="CdsPricer(spec=CdsSpec(notional=1000000.0, maturity=datetime.date(2026, 12, 20), "
              "contractual_spread=0.01, direction=<ProtectionSide.BOUGHT: 'bought'>))"),
    Case(CashPricer, {"spec": CASH},
         repr="CashPricer(spec=CashSpec(balance=1000000.0, deposit_rate=0.01, start=datetime.date(2022, 1, 1)))"),
    Case(Position, {"id": "A", "bucket": "Hedge", "pricer": CashPricer(CASH), "notional_sign": -1,
                    "schedule": CashflowSchedule(((D1, 5.0),)), "transactions": ((D1, 2, 10.0),), "currency": "gbp"},
         defaults={"notional_sign": 1, "schedule": CashflowSchedule(), "transactions": (), "currency": "USD"},
         repr="Position(id='A', bucket=<Bucket.HEDGE: 'Hedge'>, pricer=CashPricer(spec=CashSpec(balance=1000000.0, "
              "deposit_rate=0.01, start=datetime.date(2022, 1, 1))), notional_sign=-1, "
              "schedule=CashflowSchedule(entries=((datetime.date(2022, 6, 15), 5.0),)), "
              "transactions=(Transaction(date=datetime.date(2022, 6, 15), quantity_change=2, cost_eur=10.0),), "
              "currency='GBP')",
         bad=[({"notional_sign": 0}, ValueError, r"^notional_sign must be \+1 or -1, got 0$"),
              ({"bucket": "Nope"}, ValueError, "'Nope' is not a valid Bucket"),
              ({"currency": "US"}, ValueError, "currency must be a three-letter code, got 'US'"),
              ({"transactions": ((D1, 2, -1.0),)}, ValueError, "cost must be finite and >= 0, got -1.0")]),
    Case(AttributionResult, {"fx": 1.0, "rate": 2.0, "market": 0.5, "carry": -0.5, "total": 3.0, "scale": 7.0},
         defaults={"scale": 0.0},
         repr="AttributionResult(fx=1.0, rate=2.0, market=0.5, carry=-0.5, total=3.0)",
         bad=[({"fx": float("nan")}, NonFiniteReport, "attribution parts must be finite"),
              ({"total": 3.5}, ValueError, "parts do not sum to total: residual 0.5 against total 3.5")],
         derived={"scale": 7.0}),
    Case(Portfolio, {"positions": [Position("A", "Cash", None)]},
         repr="Portfolio(positions=(Position(id='A', bucket=<Bucket.CASH: 'Cash'>, pricer=None, notional_sign=1, "
              "schedule=CashflowSchedule(entries=()), transactions=(), currency='USD'),))",
         bad=[({"positions": [Position("A", "Cash", None)] * 2}, ValueError, "duplicate position id 'A'")]),
    Case(PositionAttribution, {"position_id": "A", "bucket": Bucket.HEDGE, "subperiods": (RESULT,),
                               "aggregate": RESULT, "costs": 1.5},
         repr="PositionAttribution(position_id='A', bucket=<Bucket.HEDGE: 'Hedge'>, "
              "subperiods=(AttributionResult(fx=1.0, rate=2.0, market=0.5, carry=-0.5, total=3.0),), "
              "aggregate=AttributionResult(fx=1.0, rate=2.0, market=0.5, carry=-0.5, total=3.0), costs=1.5)"),
    Case(PortfolioAttribution, {"grid": (D1, D2), "positions": ()},
         repr="PortfolioAttribution(grid=(datetime.date(2022, 6, 15), datetime.date(2022, 12, 15)), positions=())"),
    Case(ReportRow, {"position": "A", "bucket": "Cash", "fx_eur": 1.0, "rate_eur": 2.0, "market_eur": 3.0,
                     "carry_eur": 4.0, "costs_eur": 0.5, "total_eur": 10.0},
         repr="ReportRow(position='A', bucket='Cash', fx_eur=1.0, rate_eur=2.0, market_eur=3.0, carry_eur=4.0, "
              "costs_eur=0.5, total_eur=10.0)"),
    Case(GbmSpec, {"name": "fx", "initial": 1.1, "drift": 0.01, "volatility": 0.1, "jump_size": 0.05},
         defaults={"drift": 0.0, "volatility": 0.0, "jump_size": 0.0},
         repr="GbmSpec(name='fx', initial=1.1, drift=0.01, volatility=0.1, jump_size=0.05)",
         bad=[({"initial": 0.0}, ValueError, "fx: geometric processes need initial > 0"),
              ({"volatility": -0.1}, ValueError, "fx: volatility must be >= 0"),
              ({"jump_size": -1.0}, ValueError, "fx: jump_size must be > -1")]),
    Case(SimulationParams, {"processes": [FX_GBM], "horizon": 2.0, "correlation": ((1.0,),), "jump_intensity": 0.5},
         defaults={"horizon": 1.0, "correlation": None, "jump_intensity": 0.0},
         repr="SimulationParams(processes=(GbmSpec(name='fx', initial=1.1, drift=0.0, volatility=0.0, "
              "jump_size=0.0),), horizon=2.0, correlation=((1.0,),), jump_intensity=0.5)",
         bad=[({"processes": []}, ValueError, "need at least one process"),
              ({"horizon": 0.0}, ValueError, "horizon must be > 0"),
              ({"jump_intensity": -1.0}, ValueError, "jump_intensity must be >= 0"),
              ({"correlation": ((1.0, 0.5), (0.5, 1.0))}, ValueError, r"correlation must be 1x1, got \(2, 2\)")],
         derived={"_factor": ((1.0,),)}),
    Case(PathSet, {"grid": [0.0, 0.5, 1.0], "paths": {"fx": [1.0, 1.1, 1.2]}, "seed": 7},
         repr="PathSet(grid=array([0. , 0.5, 1. ]), paths={'fx': array([1. , 1.1, 1.2])}, seed=7)",
         bad=[({"grid": [0.0]}, ValueError, "grid must be one-dimensional with at least two points"),
              ({"grid": [0.0, 1.0, 0.5]}, ValueError, "grid times must be strictly increasing"),
              ({"paths": {"fx": [1.0, 1.1]}}, ValueError, "path 'fx' has 2 points, grid has 3"),
              ({"paths": {"fx": [1.0, 0.0, 1.2]}}, SimulationError, "fx trajectory must stay strictly positive")]),
    Case(ItoDecomposition, {"carry": 1.0, "rate": 2.0, "market": 0.5, "total": 3.25},
         repr="ItoDecomposition(carry=1.0, rate=2.0, market=0.5, total=3.25)"),
    Case(StudyResult, {"studies": (ONE_ROW, StudyResult(), ONE_ROW)},
         repr="StudyResult(seeds=(3, 3), n_steps=(1, 1), coarse_fx=(0.75, 0.75), coarse_asset=(1.25, 1.25), "
              "fine_fx=(0.5, 0.5), fine_asset=(1.0, 1.0), covariation=(0.5, 0.5), total=(2.0, 2.0))"),
]


def assert_same(a, b):
    """a and b are equal records of one class, with equal derived state."""
    assert type(a) is type(b) and repr(a) == repr(b)
    if isinstance(a, PathSet):  # arrays: == and hash do not apply
        assert np.array_equal(a.grid, b.grid) and a.seed == b.seed and a.paths.keys() == b.paths.keys()
        assert all(np.array_equal(a.paths[name], b.paths[name]) for name in a.paths)
    else:
        assert a == b and hash(a) == hash(b) and vars(a) == vars(b)


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.cls.__name__)
def test_record_behaviour(case):
    cls, args = case.cls, case.args
    record = cls(**args)
    assert repr(record) == case.repr
    assert_same(cls(*args.values()), record)

    required = {name: value for name, value in args.items() if name not in case.defaults}
    bare = cls(*required.values())
    assert_same(bare, cls(**required, **case.defaults))
    for name, default in case.defaults.items():
        assert getattr(bare, name) == default

    for overrides, error, message in case.bad:
        with pytest.raises(error, match=message):
            cls(**(args | overrides))

    # derived state is set once, at construction, and ==, hash and repr ignore it
    for name, value in case.derived.items():
        assert getattr(record, name) == value
        twin = cls(**args)
        object.__setattr__(twin, name, None)
        assert twin == record and hash(twin) == hash(record) and repr(twin) == repr(record)
        assert f"{name}=" not in repr(record)

    for name in (next(iter(args)), *case.derived, "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == case.repr

    # another class holding the same values is never equal
    other = type(cls.__name__, (cls,), {})(**args)
    assert record != other and other != record
    assert record != tuple(getattr(record, name) for name in cls._fields)

    if cls is PathSet:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    assert copy.copy(record) == record
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert_same(twin, record)


def test_dataclasses_replace_and_fields_work_on_position_and_market_snapshot():
    # the benchmark's trace swaps in wrapped pricers and curves this way; replace rebuilds the record
    # through its constructor, so every check runs again with its own message
    position = Position("A", Bucket.HEDGE, CashPricer(CASH))
    snapshot = MarketSnapshot(D1, ZeroCurve(D1, ((1.0, 0.02),)), MarketFactors(0.01), FxQuote(1.1))
    for record in (position, snapshot):
        assert tuple(field.name for field in dataclasses.fields(record)) == type(record)._fields
        assert type(vars(type(record))["__dataclass_fields__"]) is dict  # built once, then cached on the class
    assert dataclasses.replace(position, bucket="Cash", notional_sign=-1) == Position("A", Bucket.CASH,
                                                                                      position.pricer, -1)
    assert dataclasses.replace(position, transactions=((D1, 2, 0.0),)).transactions == (Transaction(D1, 2, 0.0),)
    assert dataclasses.replace(snapshot, fx=FxQuote(1.2)) == MarketSnapshot(D1, snapshot.curve, snapshot.factors,
                                                                            FxQuote(1.2))
    with pytest.raises(ValueError, match=r"^notional_sign must be \+1 or -1, got 0$"):
        dataclasses.replace(position, notional_sign=0)
    with pytest.raises(ValueError, match="^curve anchored at 2022-12-15 but snapshot dated 2022-06-15$"):
        dataclasses.replace(snapshot, curve=ZeroCurve(D2, ((1.0, 0.02),)))


def test_simulation_params_keep_the_checked_correlation_as_float_rows():
    # an ndarray correlation, as library callers pass it, is kept as rows of float tuples
    processes = (FX_GBM, GbmSpec("asset", 100.0))
    record = SimulationParams(processes, correlation=np.array([[1, 0.5], [0.5, 1]]))
    twin = SimulationParams(processes, correlation=np.array([[1, 0.5], [0.5, 1]]))
    assert record.correlation == ((1.0, 0.5), (0.5, 1.0))
    assert all(type(value) is float for row in record.correlation for value in row)
    assert_same(twin, record)
    assert_same(SimulationParams(processes, correlation=[[1, 0.5], [0.5, 1]]), record)
    for copied in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert_same(copied, record)
    assert repr(record) == (
        "SimulationParams(processes=(GbmSpec(name='fx', initial=1.1, drift=0.0, volatility=0.0, jump_size=0.0), "
        "GbmSpec(name='asset', initial=100.0, drift=0.0, volatility=0.0, jump_size=0.0)), horizon=1.0, "
        "correlation=((1.0, 0.5), (0.5, 1.0)), jump_intensity=0.0)")
