"""Command-line driver.

Subcommands:
    attribute   portfolio attribution over a period, report to stdout/--output
    oracle      coarse-vs-fine discrepancy study on simulated paths
    validate    ingest and check input files only

Each subcommand imports the modules it runs when it starts, so `oracle` never loads the
attribute engine and `attribute` never loads numpy.

Exit codes: 0 success, 1 validation/input failure, 2 usage error. Diagnostics go to stderr,
the report to stdout or --output; main() flushes both, then os._exit skips interpreter teardown.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from datetime import date
from pathlib import Path

from .conventions import CarryMode, FxMode
from .errors import EmptyPeriod, EngineError, ParseError


def _iso_date(text: str) -> date:
    from .dates import parse_date

    try:
        return parse_date(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected ISO date (YYYY-MM-DD), got {text!r}") from exc


def _standalone(text: str) -> tuple[str, float]:
    label, sep, amount = text.partition("=")
    if not sep or not label:
        raise argparse.ArgumentTypeError(f"expected LABEL=EUR, got {text!r}")
    try:
        label.encode("utf-8")  # an argv byte that is not UTF-8 decodes to a lone surrogate
    except UnicodeEncodeError as exc:
        raise argparse.ArgumentTypeError(f"LABEL must be UTF-8 text in {text!r}") from exc
    try:
        value = float(amount)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad EUR amount in {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"EUR amount must be finite in {text!r}")
    return label, value


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse's own writer swallows a failed write; run_cli reports it
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    attribute.add_argument("--fx-mode", choices=[m.value for m in FxMode], default="average")
    attribute.add_argument("--carry-mode", choices=[m.value for m in CarryMode], default="corrected")
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
    oracle.add_argument("--fx-mode", choices=[m.value for m in FxMode], default="average")
    oracle.add_argument("--output", help="write CSV here instead of stdout")

    validate = sub.add_parser("validate", help="check input files and exit")
    validate.add_argument("--portfolio")
    validate.add_argument("--market")
    return parser


def _write_output(text: str, output: str | None) -> None:
    """The report as UTF-8, on stdout as in an --output file, whatever stdout's own encoding."""
    if output is not None:
        Path(output).write_text(text, encoding="utf-8")
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()  # text already written to the stream goes out first
        sys.stdout.buffer.write(text.encode("utf-8"))
    else:  # a text-only stream, such as an io.StringIO, holds the text itself
        sys.stdout.write(text)


def _cmd_attribute(args) -> int:
    from .attribution import attribute_portfolio
    from .market_data import load_market_snapshots
    from .portfolio_io import load_portfolio
    from .reporting import build_report_rows, render_report

    start, end = args.date_from, args.date_to
    if not start < end:
        raise EmptyPeriod(f"--from {start} must be before --to {end}")
    if args.nav is not None and not (math.isfinite(args.nav) and args.nav > 0.0):
        raise ParseError(f"--nav must be a finite number > 0, got {args.nav}")
    snapshots = _load(load_market_snapshots, args.market)
    portfolio = _load(load_portfolio, args.portfolio)
    attribution = attribute_portfolio(
        portfolio, snapshots, start, end, FxMode(args.fx_mode), CarryMode(args.carry_mode)
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
    processes = (
        GbmSpec("asset", initial=100.0, volatility=args.asset_vol,
                jump_size=0.05 if args.jump_intensity > 0.0 else 0.0),
        GbmSpec("fx", initial=1.0, volatility=args.fx_vol,
                jump_size=-0.03 if args.jump_intensity > 0.0 else 0.0),
    )
    try:
        params = SimulationParams(processes, correlation=correlation, jump_intensity=args.jump_intensity)
    except ValueError as exc:  # a --corr outside [-1, 1]
        raise ParseError(str(exc)) from exc
    study = covariation_study(
        params,
        args.steps,
        range(args.seed, args.seed + args.num_seeds),
        FxMode(args.fx_mode),
    )
    _write_output(write_discrepancy_csv(study), args.output)
    print(
        f"{args.num_seeds} seeds, {args.steps} steps: covariation mean "
        f"{study.covariation_mean:.6g}, stderr {study.covariation_stderr:.6g}",
        file=sys.stderr,
    )
    return 0


def _cmd_validate(args) -> int:
    from .market_data import load_market_snapshots
    from .portfolio_io import load_portfolio

    if not args.portfolio and not args.market:
        raise ParseError("validate needs --portfolio and/or --market")
    code = 0
    for path, load, summary in (
        (args.market, load_market_snapshots, lambda snapshots: f"market OK: {len(snapshots)} snapshots"),
        (args.portfolio, load_portfolio, lambda portfolio: f"portfolio OK: {len(portfolio.positions)} positions"),
    ):
        if path:  # each file is checked and reported, whether or not the other fails
            try:
                loaded = _load(load, path)
            except EngineError as exc:
                code = _error(str(exc))
            except OSError as exc:
                code = _os_error(exc)
            else:
                print(summary(loaded), file=sys.stderr)
    return code


def _load(load, path: str):
    """load(path), with an EngineError's message prefixed by the path unless it names it already."""
    try:
        return load(path)
    except EngineError as exc:
        raise exc if str(exc).startswith(f"{path}: ") else exc.at(path)


_COMMANDS = {"attribute": _cmd_attribute, "oracle": _cmd_oracle, "validate": _cmd_validate}


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not math.isfinite(sum(amount for _, amount in getattr(args, "standalone", ()))):
            parser.error("--standalone amounts must have a finite EUR sum")
    except SystemExit as exc:  # argparse already printed usage/synopsis
        return exc.code if isinstance(exc.code, int) else 2
    except OSError as exc:  # --help on a stdout that cannot be written
        return _os_error(exc)
    try:
        return _COMMANDS[args.command](args)
    except EngineError as exc:
        return _error(str(exc))
    except OSError as exc:  # an input or --output file that cannot be opened, or stdout
        return _os_error(exc)


def _os_error(exc: OSError) -> int:
    reason = str(exc) if exc.strerror is None else exc.strerror.lower()
    return _error(f"{reason}: {'<stdout>' if exc.filename is None else exc.filename}")


def _error(message: str) -> int:
    try:
        print(f"error: {message}", file=sys.stderr)
    except OSError:  # stderr fails too, so nothing can be reported
        pass
    return 1


def main() -> None:
    gc.disable()  # the process ends in os._exit and builds no cyclic garbage worth collecting
    code = run_cli()  # an exception leaves through the normal exit, traceback included
    try:
        try:
            sys.stdout.flush()
        except OSError as exc:
            code = code or _os_error(exc)  # a nonzero code: run_cli reported the failed write
        sys.stderr.flush()
    except OSError:  # stderr fails too, so nothing can be reported
        code = 1
    os._exit(code)  # nothing in pnlattr registers an atexit handler, and every file is closed


if __name__ == "__main__":
    main()
