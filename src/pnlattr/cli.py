"""Command-line driver.

Subcommands:
    attribute   portfolio attribution over a period, report to stdout/--output
    oracle      coarse-vs-fine discrepancy study on simulated paths
    validate    ingest and check input files only

Exit codes: 0 success, 1 validation/input failure, 2 usage error.
Diagnostics go to stderr; the report goes to stdout or --output.
"""

from __future__ import annotations

import argparse
import math
import sys
from datetime import date
from pathlib import Path

from .attribution import CarryMode, FxMode, attribute_portfolio
from .errors import EmptyPeriod, EngineError, ParseError
from .market_data import load_market_snapshots
from .portfolio_io import load_portfolio
from .reporting import build_report_rows, render_report

_FX_MODES = {"average": FxMode.AVERAGE, "start-end": FxMode.START_END}
_CARRY_MODES = {
    "corrected": CarryMode.CORRECTED,
    "literal": CarryMode.LITERAL,
    "sophis": CarryMode.SOPHIS,
}


def _iso_date(text: str) -> date:
    try:
        return date.fromisoformat(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected ISO date (YYYY-MM-DD), got {text!r}") from exc


def _standalone(text: str) -> tuple[str, float]:
    label, sep, amount = text.partition("=")
    if not sep or not label:
        raise argparse.ArgumentTypeError(f"expected LABEL=EUR, got {text!r}")
    try:
        value = float(amount)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad EUR amount in {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"EUR amount must be finite in {text!r}")
    return label, value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pnlattr",
        description="Decompose EUR PnL into FX, rate, market, and carry parts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    attribute = sub.add_parser("attribute", help="attribute a portfolio over a period")
    attribute.add_argument("--portfolio", required=True, help="holdings file")
    attribute.add_argument("--market", required=True, help="market snapshot CSV")
    attribute.add_argument("--from", dest="date_from", required=True, type=_iso_date,
                           help="period start (exclusive), ISO date")
    attribute.add_argument("--to", dest="date_to", required=True, type=_iso_date,
                           help="period end (inclusive), ISO date")
    attribute.add_argument("--fx-mode", choices=sorted(_FX_MODES), default="average")
    attribute.add_argument("--carry-mode", choices=sorted(_CARRY_MODES), default="corrected")
    attribute.add_argument("--format", choices=("csv", "json"), default="csv")
    attribute.add_argument("--nav", type=float, help="reference NAV for bps columns")
    attribute.add_argument("--standalone", action="append", default=[], type=_standalone,
                           metavar="LABEL=EUR", help="pass-through report line (repeatable)")
    attribute.add_argument("--output", help="write report here instead of stdout")

    oracle = sub.add_parser("oracle", help="coarse-vs-fine path decomposition study")
    oracle.add_argument("--seed", type=int, default=0, help="first seed of the run")
    oracle.add_argument("--num-seeds", type=int, default=200)
    oracle.add_argument("--steps", type=int, default=64, help="grid steps per path")
    oracle.add_argument("--asset-vol", type=float, default=0.2)
    oracle.add_argument("--fx-vol", type=float, default=0.1)
    oracle.add_argument("--corr", type=float, default=0.0, help="asset/fx correlation")
    oracle.add_argument("--jump-intensity", type=float, default=0.0,
                        help="common jumps per unit time")
    oracle.add_argument("--fx-mode", choices=sorted(_FX_MODES), default="average")
    oracle.add_argument("--output", help="write CSV here instead of stdout")

    validate = sub.add_parser("validate", help="check input files and exit")
    validate.add_argument("--portfolio")
    validate.add_argument("--market")
    return parser


def _write_output(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _cmd_attribute(args) -> int:
    start, end = args.date_from, args.date_to
    if not start < end:
        raise EmptyPeriod(f"--from {start} must be before --to {end}")
    for path in (Path(args.portfolio), Path(args.market)):
        if not path.exists():
            raise ParseError(f"no such file: {path}")
    if args.nav is not None and not (math.isfinite(args.nav) and args.nav > 0.0):
        raise ParseError(f"--nav must be a finite number > 0, got {args.nav}")
    snapshots = load_market_snapshots(args.market)
    portfolio = load_portfolio(args.portfolio)
    attribution = attribute_portfolio(
        portfolio, snapshots, start, end, _FX_MODES[args.fx_mode], _CARRY_MODES[args.carry_mode]
    )
    rows = build_report_rows(attribution)
    text = render_report(rows, args.format, nav=args.nav, standalone_lines=args.standalone)
    _write_output(text, args.output)
    print(
        f"attributed {len(rows)} positions over ({start}, {end}] "
        f"on a {len(attribution.grid)}-point grid",
        file=sys.stderr,
    )
    return 0


def _cmd_oracle(args) -> int:
    from .path_oracle import GbmSpec, SimulationParams, covariation_study, write_discrepancy_csv

    if args.seed < 0:
        raise ParseError(f"--seed must be >= 0, got {args.seed}")
    if args.num_seeds < 1:
        raise ParseError("--num-seeds must be >= 1")
    if args.steps < 1:
        raise ParseError("--steps must be >= 1")
    for flag, value in (("--asset-vol", args.asset_vol), ("--fx-vol", args.fx_vol),
                        ("--jump-intensity", args.jump_intensity)):
        if not (math.isfinite(value) and value >= 0.0):
            raise ParseError(f"{flag} must be a finite number >= 0, got {value}")
    if not math.isfinite(args.corr):
        raise ParseError(f"--corr must be a finite number, got {args.corr}")
    correlation = None
    if args.corr != 0.0:
        correlation = ((1.0, args.corr), (args.corr, 1.0))
    params = SimulationParams(
        processes=(
            GbmSpec("asset", initial=100.0, volatility=args.asset_vol,
                    jump_size=0.05 if args.jump_intensity > 0.0 else 0.0),
            GbmSpec("fx", initial=1.0, volatility=args.fx_vol,
                    jump_size=-0.03 if args.jump_intensity > 0.0 else 0.0),
        ),
        correlation=correlation,
        jump_intensity=args.jump_intensity,
    )
    study = covariation_study(
        params,
        args.steps,
        range(args.seed, args.seed + args.num_seeds),
        _FX_MODES[args.fx_mode],
    )
    _write_output(write_discrepancy_csv(study), args.output)
    print(
        f"{args.num_seeds} seeds, {args.steps} steps: covariation mean "
        f"{study.covariation_mean:.6g}, stderr {study.covariation_stderr:.6g}",
        file=sys.stderr,
    )
    return 0


def _cmd_validate(args) -> int:
    if not args.portfolio and not args.market:
        raise ParseError("validate needs --portfolio and/or --market")
    if args.market:
        snapshots = load_market_snapshots(args.market)
        print(f"market OK: {len(snapshots)} snapshots", file=sys.stderr)
    if args.portfolio:
        portfolio = load_portfolio(args.portfolio)
        print(f"portfolio OK: {len(portfolio.positions)} positions", file=sys.stderr)
    return 0


_COMMANDS = {"attribute": _cmd_attribute, "oracle": _cmd_oracle, "validate": _cmd_validate}


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not math.isfinite(sum(amount for _, amount in getattr(args, "standalone", ()))):
            parser.error("--standalone amounts must have a finite EUR sum")
    except SystemExit as exc:  # argparse already printed usage/synopsis
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
