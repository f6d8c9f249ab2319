"""Layer timings from outside the program, run in a fresh interpreter.

    python perfbench/trace.py SPEC.json

SPEC.json lists cases ({"kind": "attribute" | "oracle", ...}) and whether to
trace them. For each case the script calls the program's public entry
points in the order the command-line module uses, writes the report where
the case says, and prints one JSON object per case: its total time and, when
traced, the per-layer spans and counts.

Tracing times each public call, wraps every curve in a proxy that counts and
times `zero_rate`, and wraps every position's pricer in a proxy that counts
and times `price` by instrument type. Both proxies pass every other
attribute through, so a pricer or curve that grows new methods still runs.
The untraced mode makes the same calls with no proxies and no timers; the
difference of the two totals is the tracing overhead.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from datetime import date

from workloads import oracle_params

PRICER_KINDS = {"BondPricer": "bond", "CdsPricer": "cds", "CashPricer": "cash"}


class Stats:
    """Span totals (seconds) and counts, keyed by metric name."""

    def __init__(self):
        self.values = defaultdict(float)

    @contextmanager
    def span(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.values[name] += time.perf_counter() - start


class CurveProxy:
    def __init__(self, curve, stats):
        self._curve = curve
        self._stats = stats.values

    def zero_rate(self, tenor):
        start = time.perf_counter()
        try:
            return self._curve.zero_rate(tenor)
        finally:
            self._stats["market_data.zero_rate.s"] += time.perf_counter() - start
            self._stats["market_data.zero_rate.calls"] += 1

    def __getattr__(self, name):
        return getattr(self._curve, name)


class PricerProxy:
    def __init__(self, pricer, stats):
        self._pricer = pricer
        self._stats = stats.values
        self._key = "pricers." + PRICER_KINDS.get(type(pricer).__name__, "other")

    def price(self, s, curve, factors):
        start = time.perf_counter()
        try:
            return self._pricer.price(s, curve, factors)
        except Exception:
            self._stats["pricers.failed"] += 1
            raise
        finally:
            self._stats[self._key + ".s"] += time.perf_counter() - start
            self._stats[self._key + ".evals"] += 1

    def __getattr__(self, name):
        return getattr(self._pricer, name)


def run_attribute(spec, stats):
    from pnlattr.attribution import CarryMode, FxMode, Portfolio, attribute_portfolio, segment_period
    from pnlattr.market_data import load_market_snapshots
    from pnlattr.portfolio_io import load_portfolio
    from pnlattr.reporting import build_report_rows, render_report

    span = stats.span if stats is not None else (lambda name: nullcontext())
    start, end = (date.fromisoformat(d) for d in spec["period"])
    with span("market_data.load_market_snapshots.s"):
        snapshots = load_market_snapshots(spec["market"])
    with span("portfolio_io.load_portfolio.s"):
        portfolio = load_portfolio(spec["portfolio"])
    with span("attribution.segment_period.s"):
        grid = segment_period(portfolio, start, end)
    if stats is not None:
        snapshots = [replace(s, curve=CurveProxy(s.curve, stats)) for s in snapshots]
        portfolio = Portfolio(tuple(replace(p, pricer=PricerProxy(p.pricer, stats)) for p in portfolio.positions))
    with span("attribution.attribute_portfolio.s"):
        result = attribute_portfolio(
            portfolio, snapshots, start, end, FxMode(spec["fx_mode"]), CarryMode(spec["carry_mode"])
        )
    with span("reporting.build_report_rows.s"):
        rows = build_report_rows(result)
    texts = {}
    for fmt in ("csv", "json"):
        with span(f"reporting.render_report.{fmt}_s"):
            texts[fmt] = render_report(rows, fmt, nav=spec["nav"], standalone_lines=spec["standalones"])
    text = texts[spec["format"]]
    with open(spec["output"], "w", encoding="utf-8") as handle:
        handle.write(text)
    if stats is not None:
        stats.values["portfolio_io.positions"] = len(portfolio.positions)
        stats.values["market_data.snapshots"] = len(snapshots)
        stats.values["attribution.grid_points"] = len(grid)
        stats.values["attribution.position_subperiods"] = sum(len(p.subperiods) for p in result.positions)
        stats.values["reporting.bytes"] = len(text.encode("utf-8"))


def run_oracle(spec, stats):
    from pnlattr import path_oracle
    from pnlattr.attribution import FxMode
    from pnlattr.path_oracle import (
        StudyResult, compare_coarse_vs_fine, covariation_study, simulate_paths, write_discrepancy_csv,
    )

    params = oracle_params(path_oracle, spec["corr"], spec["jump_intensity"])
    seeds = range(spec["first_seed"], spec["first_seed"] + spec["num_seeds"])
    if stats is not None:
        comparisons = []
        for seed in seeds:
            with stats.span("path_oracle.simulate_paths.s"):
                paths = simulate_paths(params, spec["steps"], seed)
            with stats.span("path_oracle.compare_coarse_vs_fine.s"):
                comparisons.append(compare_coarse_vs_fine(paths, FxMode.AVERAGE))
        study = StudyResult(tuple(comparisons))
        with stats.span("path_oracle.write_discrepancy_csv.s"):
            text = write_discrepancy_csv(study)
        stats.values["path_oracle.paths"] = len(comparisons)
    else:
        text = write_discrepancy_csv(covariation_study(params, spec["steps"], seeds, FxMode.AVERAGE))
    with open(spec["output"], "w", encoding="utf-8") as handle:
        handle.write(text)


def main(spec_path: str) -> int:
    import pnlattr  # noqa: F401  (imported before any timed region)

    with open(spec_path, encoding="utf-8") as handle:
        specs = json.load(handle)
    failed = False
    for spec in specs:
        stats = Stats() if spec["traced"] else None
        run = run_oracle if spec["kind"] == "oracle" else run_attribute
        record = {}
        start = time.perf_counter()
        try:
            run(spec, stats)
        except Exception as exc:  # report the failure and go on with the next case
            record["error"] = repr(exc)
            failed = True
        record["total_s"] = time.perf_counter() - start
        record["values"] = dict(stats.values) if stats is not None else {}
        print(json.dumps(record), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
