"""Seeded inputs for the benchmark workloads.

Every input is a pure function of (workload, seed): the same seed writes
byte-identical files. The market CSV goes through the program's public
`dump_market_snapshots`, so a change to the market format flows through
to the benchmark; the holdings file is written here in the documented
text format.

Two restrictions keep every workload inside what the program handles
correctly at the commit that defined the benchmark (see README.md):
every position is USD, because the market carries one `fx` column and the
position currency is not read, and every maturity falls after the period
end, because a maturity inside the period makes the engine raise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path
from typing import ClassVar

TENORS = (0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 20.0, 30.0)
BUCKETS = ("CapitalStructure", "SeniorSub", "MismatchBasis", "MatchedBasis", "Other", "Hedge", "Cash")

# One daily market covers both attribution periods.
MARKET_START = date(2024, 1, 2)
MARKET_END = date(2024, 4, 1)
DEEP_PERIOD = (MARKET_START, MARKET_END)      # 90 days, a rebalance on every one
WIDE_PERIOD = (date(2024, 1, 10), date(2024, 2, 10))
WIDE_EVENT = date(2024, 1, 15)                # the one interior grid date of the wide book

DEEP_BONDS = 8
DEEP_REBALANCES = 12
WIDE_POSITIONS = 500
PROBE_POSITIONS = 42
ORACLE_PATHS = 2_500
ORACLE_STEPS = 256
PROBE_PATHS = 200

WORKLOADS = ("attr-deep", "attr-wide", "oracle")


@dataclass(frozen=True)
class MarketRow:
    as_of: date
    fx: float
    hazard: float
    recovery: float
    basis: float
    rates: tuple[float, ...]


@dataclass(frozen=True)
class Holding:
    """One position of a generated book: its file fields in order, then trades."""

    id: str
    fields: tuple[tuple[str, object], ...]
    transactions: tuple[tuple[date, float, float], ...] = ()

    def get(self, key, default=None):
        return dict(self.fields).get(key, default)


@dataclass(frozen=True)
class AttributeCase:
    name: str
    seed: int
    market_rows: tuple[MarketRow, ...]
    holdings: tuple[Holding, ...]
    period: tuple[date, date]
    fx_mode: str
    carry_mode: str
    format: str
    nav: float
    standalones: tuple[tuple[str, float], ...]
    market_path: Path
    book_path: Path
    output: Path
    work_unit: ClassVar[str] = "position-subperiods"

    def cli_args(self, output: Path | None = None) -> list[str]:
        args = [
            "attribute",
            "--portfolio", str(self.book_path),
            "--market", str(self.market_path),
            "--from", self.period[0].isoformat(),
            "--to", self.period[1].isoformat(),
            "--fx-mode", self.fx_mode,
            "--carry-mode", self.carry_mode,
            "--format", self.format,
            "--nav", repr(self.nav),
        ]
        for label, amount in self.standalones:
            args += ["--standalone", f"{label}={amount!r}"]
        return args + ["--output", str(output or self.output)]


@dataclass(frozen=True)
class OracleCase:
    name: str
    seed: int
    first_seed: int
    num_seeds: int
    steps: int
    output: Path
    corr: float = 0.5
    jump_intensity: float = 3.0
    work_unit: ClassVar[str] = "paths"

    def cli_args(self, output: Path | None = None) -> list[str]:
        return [
            "oracle",
            "--seed", str(self.first_seed),
            "--num-seeds", str(self.num_seeds),
            "--steps", str(self.steps),
            "--corr", repr(self.corr),
            "--jump-intensity", repr(self.jump_intensity),
            "--output", str(output or self.output),
        ]


def _days(start: date, end: date):
    return [start + timedelta(days=k) for k in range((end - start).days + 1)]


def market_rows(seed: int) -> tuple[MarketRow, ...]:
    """Daily snapshots with a 10-node curve, random-walking every quote."""
    rng = random.Random(f"market-{seed}")
    level, slope = 0.030 + rng.uniform(-0.005, 0.005), 0.015
    fx, hazard, basis = 0.92, 0.020, -0.004
    rows = []
    for day in _days(MARKET_START, MARKET_END):
        level += rng.gauss(0.0, 0.0004)
        slope += rng.gauss(0.0, 0.0002)
        fx *= 1.0 + rng.gauss(0.0, 0.004)
        hazard = max(0.002, hazard + rng.gauss(0.0, 0.0004))
        basis += rng.gauss(0.0, 0.0002)
        rates = tuple(round(level + slope * (1.0 - 2.0 ** (-t / 5.0)), 7) for t in TENORS)
        rows.append(MarketRow(day, round(fx, 7), round(hazard, 7), 0.4, round(basis, 7), rates))
    return tuple(rows)


def market_snapshots(rows, market_data):
    """Snapshots of `rows` built with the given market_data module."""
    return [
        market_data.MarketSnapshot(
            as_of=r.as_of,
            curve=market_data.ZeroCurve(r.as_of, tuple(zip(TENORS, r.rates))),
            factors=market_data.MarketFactors(r.hazard, r.recovery, r.basis),
            fx=market_data.FxQuote(r.fx),
        )
        for r in rows
    ]


def oracle_params(path_oracle, corr: float, jump_intensity: float):
    """The simulation parameters the oracle subcommand builds from its flags,
    built with the given path_oracle module."""
    import numpy as np

    jumps = jump_intensity > 0.0
    return path_oracle.SimulationParams(
        processes=(
            path_oracle.GbmSpec("asset", initial=100.0, volatility=0.2, jump_size=0.05 if jumps else 0.0),
            path_oracle.GbmSpec("fx", initial=1.0, volatility=0.1, jump_size=-0.03 if jumps else 0.0),
        ),
        correlation=np.array([[1.0, corr], [corr, 1.0]]),
        jump_intensity=jump_intensity,
    )


def _stratified(rng, n, lo, hi):
    """n draws, one from each of n equal slices of [lo, hi), shuffled.

    Stratifying the draws that set pricing cost (time to maturity) keeps
    the work of a book nearly the same from seed to seed.
    """
    values = [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]
    rng.shuffle(values)
    return values


def _fifteenth(months_after: int, base: date) -> date:
    month0 = base.month - 1 + months_after
    return date(base.year + month0 // 12, month0 % 12 + 1, 15)


def deep_book(seed: int) -> tuple[Holding, ...]:
    """Semiannual USD bonds, each rebalanced on 12 distinct days of the period.

    The bonds take consecutive windows of one shuffled cycle of the period's
    days, so together they trade on every day: the grid is always daily and
    the work of the book does not change with the seed.
    """
    rng = random.Random(f"deep-{seed}")
    start, end = DEEP_PERIOD
    span = (end - start).days
    cycle = rng.sample(range(1, span + 1), span)
    assert DEEP_BONDS * DEEP_REBALANCES >= span
    holdings = []
    for k, years in enumerate(_stratified(rng, DEEP_BONDS, 1.0, 10.0)):
        issue = date(2018, 1, 1) + timedelta(days=rng.randrange(0, 5 * 365))
        trades = sorted(cycle[(k * DEEP_REBALANCES + j) % span] for j in range(DEEP_REBALANCES))
        holdings.append(
            Holding(
                id=f"DEEP{k:03d}",
                fields=(
                    ("bucket", rng.choice(BUCKETS)),
                    ("instrument", "bond"),
                    ("currency", "USD"),
                    ("direction", "long" if rng.random() < 0.75 else "short"),
                    ("notional", float(rng.randrange(10, 100) * 100_000)),
                    ("issue", issue),
                    ("maturity", end + timedelta(days=int(years * 365.25))),
                    ("coupon_rate", round(rng.uniform(0.01, 0.07), 4)),
                    ("coupon_frequency", 2),
                ),
                transactions=tuple(
                    (start + timedelta(days=d), round(rng.uniform(-0.15, 0.2), 4), round(rng.uniform(0.0, 500.0), 2))
                    for d in trades
                ),
            )
        )
    return tuple(holdings)


def wide_book(seed: int, n: int = WIDE_POSITIONS, stream: str = "wide") -> tuple[Holding, ...]:
    """60% bonds, 25% CDS, 15% cash over all buckets; maturities on the 15th.

    Coupons and trades fall only on the 15th, so the one-month period has a
    3-point grid and per-position costs (parsing, the CDS pricer,
    aggregation, rendering) weigh more than on the deep book.
    """
    rng = random.Random(f"{stream}-{seed}")
    n_bond, n_cds = round(0.60 * n), round(0.25 * n)
    kinds = ["bond"] * n_bond + ["cds"] * n_cds + ["cash"] * (n - n_bond - n_cds)
    rng.shuffle(kinds)
    months = iter(_stratified(rng, n, 2.0, 120.0))
    end = WIDE_PERIOD[1]
    holdings = []
    for k, kind in enumerate(kinds):
        fields = [("bucket", rng.choice(BUCKETS)), ("instrument", kind), ("currency", "USD")]
        maturity = _fifteenth(int(next(months)), end)
        if kind == "bond":
            fields += [
                ("direction", "long" if rng.random() < 0.7 else "short"),
                ("notional", float(rng.randrange(5, 100) * 100_000)),
                ("issue", date(2019, 1, 1) + timedelta(days=rng.randrange(0, 4 * 365))),
                ("maturity", maturity),
                ("coupon_rate", round(rng.uniform(0.0, 0.08), 4)),
                ("coupon_frequency", (1, 2, 4)[k % 3]),
            ]
        elif kind == "cds":
            fields += [
                ("notional", float(rng.randrange(5, 100) * 100_000)),
                ("maturity", maturity),
                ("contractual_spread", round(rng.uniform(0.002, 0.03), 5)),
                ("protection", "bought" if rng.random() < 0.5 else "sold"),
            ]
        else:
            fields += [
                ("balance", round(rng.uniform(1e5, 5e6), 2)),
                ("deposit_rate", round(rng.uniform(0.0, 0.04), 5)),
                ("start", date(2023, 1, 1) + timedelta(days=rng.randrange(0, 300))),
            ]
        trades = ()
        if rng.random() < 0.3:
            trades = ((WIDE_EVENT, round(rng.uniform(-0.3, 0.3), 4), round(rng.uniform(0.0, 300.0), 2)),)
        holdings.append(Holding(f"{kind.upper()}{k:04d}", tuple(fields), trades))
    return tuple(holdings)


def _format(value) -> str:
    if isinstance(value, date):
        return value.isoformat()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def book_text(holdings) -> str:
    lines = ["# generated benchmark book"]
    for h in holdings:
        lines.append(f"[position {h.id}]")
        lines += [f"{key} = {_format(value)}" for key, value in h.fields]
        lines += [f"transaction = {d.isoformat()} {q!r} {c!r}" for d, q, c in h.transactions]
    return "\n".join(lines) + "\n"


def write_market(rows, path: Path) -> None:
    from pnlattr import market_data

    with open(path, "w", encoding="utf-8", newline="") as handle:
        market_data.dump_market_snapshots(market_snapshots(rows, market_data), handle)


def prepare(name: str, seed: int, workdir: Path):
    """Write the inputs of workload `name` for `seed` into `workdir`.

    Besides the three workloads, `probe-book` and `probe-oracle` are small
    inputs the traced run uses for layers its workload never reaches.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    if name in ("oracle", "probe-oracle"):
        num = ORACLE_PATHS if name == "oracle" else PROBE_PATHS
        return OracleCase(name, seed, first_seed=(seed & 0xFFFFFFFF) * num, num_seeds=num,
                          steps=ORACLE_STEPS, output=workdir / f"{name}.csv")
    rows = market_rows(seed)
    rng = random.Random(f"{name}-cli-{seed}")
    if name == "attr-deep":
        holdings, period, modes, fmt, nav = deep_book(seed), DEEP_PERIOD, ("average", "corrected"), "csv", 1e8
        standalones = ()
    elif name in ("attr-wide", "probe-book"):
        n = WIDE_POSITIONS if name == "attr-wide" else PROBE_POSITIONS
        holdings = wide_book(seed, n, stream=name)
        period, modes, fmt, nav = WIDE_PERIOD, ("start-end", "literal"), "json", 5e9
        standalones = (("Fees", -round(rng.uniform(1e3, 5e4), 2)), ("HedgeCost", round(rng.uniform(1e3, 5e4), 2)))
    else:
        raise ValueError(f"unknown workload {name!r}")
    market_path, book_path = workdir / "market.csv", workdir / f"{name}.txt"
    write_market(rows, market_path)
    book_path.write_text(book_text(holdings), encoding="utf-8")
    return AttributeCase(
        name, seed, rows, holdings, period, modes[0], modes[1], fmt, nav, standalones,
        market_path, book_path, output=workdir / f"{name}-report.{fmt}",
    )
