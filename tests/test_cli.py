import csv
import errno
import gc
import io
import json
import os
import subprocess
import sys
from itertools import chain
from pathlib import Path

import pytest

from pnlattr.cli import main, run_cli


@pytest.fixture
def inputs(tmp_path, market_csv, portfolio_text):
    market = tmp_path / "market.csv"
    market.write_text(market_csv)
    portfolio = tmp_path / "portfolio.txt"
    portfolio.write_text(portfolio_text)
    return str(portfolio), str(market)


def attribute_args(portfolio, market, *extra):
    return [
        "attribute",
        "--portfolio", portfolio,
        "--market", market,
        "--from", "2021-12-31",
        "--to", "2022-04-01",
        *extra,
    ]


def test_attribute_happy_path(inputs, capsys):
    portfolio, market = inputs
    code = run_cli(attribute_args(portfolio, market, "--format", "csv"))
    captured = capsys.readouterr()
    assert code == 0
    records = list(csv.DictReader(io.StringIO(captured.out)))
    positions = [r["position"] for r in records]
    assert {"ACME_BOND", "ACME_CDS", "EUR_CASH", "POSITIONS", "TOTAL"} <= set(positions)
    assert "attributed 3 positions" in captured.err


def test_attribute_json_with_nav_and_standalones(inputs, capsys):
    portfolio, market = inputs
    code = run_cli(attribute_args(
        portfolio, market, "--format", "json", "--nav", "50000000",
        "--standalone", "FEES=-37500", "--carry-mode", "sophis", "--fx-mode", "start-end",
    ))
    assert code == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["nav"] == 50000000.0
    assert tree["standalones"][0]["label"] == "FEES"
    assert "total_bps" in tree["total"]


def test_attribute_output_file_is_byte_stable(inputs, tmp_path, capsys):
    portfolio, market = inputs
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run_cli(attribute_args(portfolio, market, "--output", str(out1))) == 0
    assert run_cli(attribute_args(portfolio, market, "--output", str(out2))) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_missing_required_flag_is_usage_error(inputs, capsys):
    portfolio, market = inputs
    code = run_cli(["attribute", "--portfolio", portfolio, "--market", market,
                    "--from", "2021-12-31"])
    captured = capsys.readouterr()
    assert code == 2
    assert "usage" in captured.err.lower()


def test_unknown_subcommand_is_usage_error(capsys):
    assert run_cli(["frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_bad_date_is_usage_error(inputs, capsys):
    portfolio, market = inputs
    code = run_cli(["attribute", "--portfolio", portfolio, "--market", market,
                    "--from", "2021-31-12", "--to", "2022-04-01"])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("flag, text", [("--from", "2021-W52-5"), ("--to", "20220401"), ("--to", "2022-091")])
def test_date_flags_take_yyyy_mm_dd_only(inputs, flag, text, capsys):
    portfolio, market = inputs
    dates = {"--from": "2021-12-31", "--to": "2022-04-01", flag: text}
    code = run_cli(["attribute", "--portfolio", portfolio, "--market", market, *chain.from_iterable(dates.items())])
    assert code == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument {flag}: expected ISO date (YYYY-MM-DD), got {text!r}\n")


def test_validate_rejects_a_market_date_outside_yyyy_mm_dd(tmp_path, market_csv, capsys):
    market = tmp_path / "market.csv"
    market.write_text(market_csv.replace("2021-12-31", "20211231"))
    assert run_cli(["validate", "--market", str(market)]) == 1
    assert capsys.readouterr().err == (
        f"error: {market}: row 2, column 'date': bad date: Invalid isoformat string: '20211231'\n")


def test_validate_names_the_row_of_a_cell_over_the_csv_field_limit(tmp_path, market_csv, capsys):
    market = tmp_path / "market.csv"
    header = market_csv.splitlines()[0]
    tenors = ";".join(str(i / 100) for i in range(1, 40_001))
    market.write_text(f"{header}\n2022-01-03,1.1,0.02,0.4,0,{tenors},0.01\n")
    assert run_cli(["validate", "--market", str(market)]) == 1
    assert capsys.readouterr().err == f"error: {market}: row 2: field larger than field limit (131072)\n"


def test_from_after_to_is_validation_error(inputs, capsys):
    portfolio, market = inputs
    code = run_cli(["attribute", "--portfolio", portfolio, "--market", market,
                    "--from", "2022-04-01", "--to", "2021-12-31"])
    captured = capsys.readouterr()
    assert code == 1
    assert "error" in captured.err


def test_validate_reports_bad_fx_row(tmp_path, market_csv, capsys):
    bad = market_csv.replace("1.10", "-1.10")
    market = tmp_path / "market.csv"
    market.write_text(bad)
    code = run_cli(["validate", "--market", str(market)])
    captured = capsys.readouterr()
    assert code == 1
    assert "row 3" in captured.err


def test_loader_errors_name_their_file(tmp_path, market_csv, portfolio_text, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("bad.csv").write_text(market_csv.replace(",hazard,", ",hazrd,"))
    Path("bad.txt").write_text(portfolio_text.replace("coupon_frequency = 2", "coupon_frequency = 3"))
    Path("market.csv").write_text(market_csv)
    Path("portfolio.txt").write_text(portfolio_text)
    market_error = "error: bad.csv: row 1: market CSV header lacks column 'hazard'\n"
    holdings_error = "error: bad.txt: row 2: position 'ACME_BOND': coupon_frequency must be 1, 2, 4 or 12, got 3\n"
    for args, err in [
        (["validate", "--market", "bad.csv"], market_error),
        (attribute_args("portfolio.txt", "bad.csv"), market_error),
        (attribute_args("bad.txt", "market.csv"), holdings_error),
        # validate reports every file it fails on, each on its own line
        (["validate", "--market", "bad.csv", "--portfolio", "bad.txt"], market_error + holdings_error),
        (["validate", "--market", "missing.csv", "--portfolio", "bad.txt"],
         "error: no such file or directory: missing.csv\n" + holdings_error),
        (["validate", "--market", "bad.csv", "--portfolio", "portfolio.txt"],
         market_error + "portfolio OK: 3 positions\n"),
    ]:
        assert run_cli(args) == 1, args
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", err), args


def test_loader_error_keeps_its_class_and_row_under_the_path(tmp_path, market_csv):
    from pnlattr.cli import _load
    from pnlattr.errors import MissingField
    from pnlattr.market_data import load_market_snapshots

    path = tmp_path / "bad.csv"
    path.write_text(market_csv.replace(",hazard,", ",hazrd,"))
    with pytest.raises(MissingField) as info:
        _load(load_market_snapshots, str(path))
    assert str(info.value) == f"{path}: row 1: market CSV header lacks column 'hazard'"
    assert info.value.row == 1


def test_validate_ok(inputs, capsys):
    portfolio, market = inputs
    assert run_cli(["validate", "--market", market, "--portfolio", portfolio]) == 0
    err = capsys.readouterr().err
    assert "market OK: 4 snapshots" in err
    assert "portfolio OK: 3 positions" in err


def test_validate_without_inputs_fails(capsys):
    assert run_cli(["validate"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("nav", ["0", "-50000000", "nan", "inf"])
def test_bad_nav_is_validation_error(inputs, nav, capsys):
    portfolio, market = inputs
    code = run_cli(attribute_args(portfolio, market, "--nav", nav))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: --nav must be a finite number > 0")
    assert captured.out == ""


@pytest.mark.parametrize("text, message", [
    *((f"X={amount}", f"EUR amount must be finite in 'X={amount}'") for amount in ("inf", "-inf", "nan")),
    ("FEES", "expected LABEL=EUR, got 'FEES'"),
    ("=5", "expected LABEL=EUR, got '=5'"),
    ("FEES=abc", "bad EUR amount in 'FEES=abc'"),
])
def test_bad_standalone_is_usage_error(inputs, text, message, capsys):
    portfolio, market = inputs
    code = run_cli(attribute_args(portfolio, market, "--standalone", text))
    captured = capsys.readouterr()
    assert code == 2
    assert "usage" in captured.err.lower()
    assert captured.err.endswith(f"error: argument --standalone: {message}\n")
    assert captured.out == ""


def test_nav_too_small_for_finite_bps_is_validation_error(inputs, capsys):
    portfolio, market = inputs
    code = run_cli(attribute_args(portfolio, market, "--nav", "1e-320"))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ACME_BOND: fx_eur")
    assert "bps of nav" in captured.err and "is not finite" in captured.err
    assert captured.out == ""


def test_standalone_amounts_with_infinite_sum_are_usage_error(inputs, capsys):
    portfolio, market = inputs
    code = run_cli(attribute_args(portfolio, market, "--standalone", "A=1.7e308",
                                  "--standalone", "B=1.7e308"))
    captured = capsys.readouterr()
    assert code == 2
    assert "usage" in captured.err.lower()
    assert "--standalone amounts must have a finite EUR sum" in captured.err
    assert captured.out == ""


def test_two_foreign_currencies_are_validation_error(tmp_path, market_csv, portfolio_text, capsys):
    market = tmp_path / "market.csv"
    market.write_text(market_csv)
    portfolio = tmp_path / "portfolio.txt"
    portfolio.write_text(portfolio_text.replace("instrument = cds\ncurrency = USD",
                                                "instrument = cds\ncurrency = gbp"))
    code = run_cli(attribute_args(str(portfolio), str(market)))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: position ACME_BOND is in USD and position ACME_CDS in GBP")
    assert captured.out == ""


def test_missing_file_is_validation_error(inputs, capsys):
    portfolio, market = inputs
    code = run_cli(attribute_args(portfolio, "/nonexistent/market.csv"))
    assert code == 1
    assert "no such file" in capsys.readouterr().err


def test_oracle_runs_and_emits_csv(capsys):
    code = run_cli(["oracle", "--num-seeds", "5", "--steps", "16", "--seed", "42"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert lines[0] == "seed,n_steps,component,coarse,fine,diff"
    assert len(lines) == 1 + 3 * 5
    assert "covariation mean" in captured.err


def test_oracle_with_jumps_and_correlation(capsys):
    code = run_cli(["oracle", "--num-seeds", "3", "--steps", "8",
                    "--corr", "0.5", "--jump-intensity", "2.0"])
    assert code == 0
    capsys.readouterr()


def test_render_report_accepts_attribution_object(inputs):
    # library path used by the README quickstart
    from datetime import date

    from pnlattr import attribute_portfolio, load_market_snapshots, load_portfolio, render_report

    portfolio_path, market_path = inputs
    attribution = attribute_portfolio(
        load_portfolio(portfolio_path),
        load_market_snapshots(market_path),
        date(2021, 12, 31),
        date(2022, 4, 1),
    )
    text = render_report(attribution, "csv", nav=50_000_000.0)
    assert text.splitlines()[0].startswith("position,bucket,fx_eur")
    assert "TOTAL" in text


GOLDEN_ORACLE = Path(__file__).parent / "data" / "oracle_golden.csv"


def test_oracle_reproduces_golden_csv(tmp_path, capsys):
    out = tmp_path / "oracle.csv"
    code = run_cli(["oracle", "--seed", "0", "--num-seeds", "40", "--steps", "32",
                    "--corr", "0.5", "--jump-intensity", "3", "--output", str(out)])
    capsys.readouterr()
    assert code == 0
    assert out.read_bytes() == GOLDEN_ORACLE.read_bytes()


@pytest.mark.parametrize("flags, message", [
    (["--steps", "0"], "--steps"),
    (["--steps", "-3"], "--steps"),
    (["--asset-vol", "-1"], "--asset-vol"),
    (["--fx-vol", "-0.1"], "--fx-vol"),
    (["--fx-vol", "nan"], "--fx-vol"),
    (["--asset-vol", "inf"], "--asset-vol"),
    (["--jump-intensity", "-2"], "--jump-intensity"),
    (["--fx-vol", "50"], "fx trajectory must stay strictly positive"),
    (["--jump-intensity", "1e30"], "jump_intensity 1e+30"),
    (["--steps", "4", "--asset-vol", "1e200"], "process 'asset': per-step drift -inf"),
    (["--corr", "nan"], "error: --corr must be a finite number, got nan"),
    (["--corr", "inf"], "error: --corr must be a finite number, got inf"),
    (["--corr=-inf"], "error: --corr must be a finite number, got -inf"),
    (["--steps", "1", "--jump-intensity", "20000"], "error: seed 0: process 'asset' path is not finite"),
    (["--seed", "-3", "--steps", "33"], "error: --seed must be >= 0, got -3"),
    # numpy rejects both sizes before it allocates anything
    (["--steps", str(2**60)],
     f"error: n_steps {2**60}: cannot allocate a block of 2 x {2**60} x 2 values\n"),
    (["--steps", str(10**20)],
     f"error: n_steps {10**20}: cannot allocate a block of 2 x {10**20} x 2 values\n"),
])
@pytest.mark.filterwarnings("error")
def test_oracle_bad_numeric_flag_is_validation_error(flags, message, capsys):
    code = run_cli(["oracle", "--num-seeds", "2", *flags])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ")
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flags", [["--corr", "2"], ["--corr=-1.5"]], ids=["2", "-1.5"])
def test_oracle_correlation_outside_unit_interval_is_a_validation_error(flags, tmp_path, capsys):
    out = tmp_path / "study.csv"
    code = run_cli(["oracle", "--num-seeds", "2", *flags, "--output", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", "error: correlation entries must lie in [-1, 1]\n")
    assert not out.exists()


DEMO_DATA = Path(__file__).parents[1] / "demos" / "data"


@pytest.mark.parametrize("fmt, export", [
    ("csv", None), ("json", None), ("csv", "bom"), ("json", "bom"), ("csv", "bom-crlf"), ("json", "bom-crlf"),
], ids=["csv", "json", "csv-bom", "json-bom", "csv-bom-crlf", "json-bom-crlf"])
def test_demo_report_reproduces_golden(fmt, export, tmp_path, capsys):
    # the README's CLI command on the demo book, also as exported with a
    # UTF-8 byte-order mark (Excel's "CSV UTF-8"), with or without CRLF line ends
    data = DEMO_DATA
    if export:
        data = tmp_path
        for name in ("portfolio.txt", "market.csv"):
            text = (DEMO_DATA / name).read_bytes()
            if export == "bom-crlf":
                text = text.replace(b"\n", b"\r\n")
            (data / name).write_bytes(b"\xef\xbb\xbf" + text)
    out = tmp_path / f"report.{fmt}"
    code = run_cli(["attribute",
                    "--portfolio", str(data / "portfolio.txt"),
                    "--market", str(data / "market.csv"),
                    "--from", "2021-12-31", "--to", "2022-04-01",
                    "--nav", "50000000", "--standalone", "FEES=-62500",
                    "--format", fmt, "--output", str(out)])
    capsys.readouterr()
    assert code == 0
    golden = Path(__file__).parent / "data" / f"demo_report_golden.{fmt}"
    assert out.read_bytes() == golden.read_bytes()
    assert run_cli(["validate", "--portfolio", str(data / "portfolio.txt"),
                    "--market", str(data / "market.csv")]) == 0
    assert capsys.readouterr().err == "market OK: 4 snapshots\nportfolio OK: 3 positions\n"


DEMO_ARGS = ["--portfolio", str(DEMO_DATA / "portfolio.txt"), "--market", str(DEMO_DATA / "market.csv")]


def _child_env():
    env = dict(os.environ)
    src = str(Path(__file__).parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _python(code, *args):
    return subprocess.run([sys.executable, "-c", code, *args], env=_child_env(), capture_output=True,
                          text=True, timeout=120)


def test_attribute_and_validate_run_without_numpy(tmp_path):
    out = tmp_path / "report.csv"
    code = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from pnlattr.cli import run_cli
report, *demo = sys.argv[1:]
attribute = ["attribute", *demo, "--from", "2021-12-31", "--to", "2022-04-01", "--nav", "50000000",
             "--standalone", "FEES=-62500", "--format", "csv", "--output", report]
print(run_cli(attribute), run_cli(["validate", *demo]))
"""
    result = _python(code, str(out), *DEMO_ARGS)
    assert result.stdout.split() == ["0", "0"], result.stderr
    assert out.read_bytes() == (Path(__file__).parent / "data" / "demo_report_golden.csv").read_bytes()


def test_import_pnlattr_loads_numpy_only_for_the_oracle():
    result = _python("""
import sys
import pnlattr
print("numpy" in sys.modules)
from pnlattr import simulate_paths
print("numpy" in sys.modules, simulate_paths.__module__)
""")
    assert result.stdout.split() == ["False", "True", "pnlattr.path_oracle"], result.stderr


def test_every_exported_name_is_the_object_its_module_defines():
    import importlib

    import pnlattr
    listed = dir(pnlattr)
    for module, names in pnlattr._EXPORTS.items():
        source = importlib.import_module(f"pnlattr.{module}")
        for name in names.split():
            assert getattr(pnlattr, name) is getattr(source, name), name
            assert getattr(pnlattr, name).__module__ == source.__name__, name
            assert name in listed, name


def test_unknown_name_is_an_attribute_error_naming_it():
    import pnlattr
    with pytest.raises(AttributeError, match="module 'pnlattr' has no attribute 'attribute_book'"):
        getattr(pnlattr, "attribute_book")
    assert not hasattr(pnlattr, "_price_fn")


def test_star_import_binds_every_name_but_the_oracle_and_loads_no_numpy():
    result = _python("""
import sys
before = set(globals())
from pnlattr import *
import pnlattr
bound = set(globals()) - before - {"before", "pnlattr"}
print(len(bound), bound == set(pnlattr.__all__), "numpy" in sys.modules, "simulate_paths" in bound)
""")
    assert result.stdout.split() == ["53", "True", "False", "False"], result.stderr


def test_the_attribute_engine_loads_no_instrument_module():
    result = _python("""
import sys
import pnlattr.attribution
print(",".join(sorted(m for m in sys.modules if m.split(".")[0] == "pnlattr")))
""")
    assert result.stdout.split() == [
        "pnlattr,pnlattr._record,pnlattr.attribution,pnlattr.conventions,pnlattr.errors"], result.stderr


def test_each_entry_point_loads_only_the_modules_it_runs(tmp_path):
    result = _python("""
import sys
def loaded():
    print(",".join(sorted(m for m in sys.modules if m.split(".")[0] == "pnlattr")),
          "dataclasses" in sys.modules, "csv" in sys.modules)
import pnlattr
loaded()
from pnlattr.cli import run_cli
run_cli(["oracle", "--num-seeds", "3", "--steps", "4", "--output", sys.argv[1]])
loaded()
""", str(tmp_path / "oracle.csv"))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "pnlattr False False",
        "pnlattr,pnlattr._record,pnlattr.cli,pnlattr.conventions,pnlattr.errors,pnlattr.path_oracle "
        "False False",
    ]
    # the Itô ladder shares the pricer-call rule through conventions, not the attribute engine
    result = _python("""
import sys
from pnlattr.path_oracle import grid_ito_decomposition
grid_ito_decomposition(lambda s, r, x: 100.0 + s + r + x, [0.01, 0.02], [0.0, 0.1], [0.0, 1.0])
print(",".join(sorted(m for m in sys.modules if m.split(".")[0] == "pnlattr")),
      "dataclasses" in sys.modules, "csv" in sys.modules)
""")
    assert result.stdout.splitlines() == [
        "pnlattr,pnlattr._record,pnlattr.conventions,pnlattr.errors,pnlattr.path_oracle False False",
    ], result.stderr
    # a JSON report whose ids and labels need no escaping is written without the json module, and no
    # record builds dataclass code, so neither dataclasses nor the inspect module it imports is loaded
    result = _python("""
import sys
from pnlattr.cli import run_cli
print(run_cli(["attribute", *sys.argv[2:], "--from", "2021-12-31", "--to", "2022-04-01", "--nav", "50000000",
               "--standalone", "FEES=-62500", "--format", "json", "--output", sys.argv[1]]),
      "json" in sys.modules, "dataclasses" in sys.modules, "inspect" in sys.modules)
""", str(tmp_path / "report.json"), *DEMO_ARGS)
    assert result.stdout.split() == ["0", "False", "False", "False"], result.stderr
    golden = Path(__file__).parent / "data" / "demo_report_golden.json"
    assert (tmp_path / "report.json").read_bytes() == golden.read_bytes()


def test_import_pnlattr_cli_loads_no_numpy_or_json_and_two_dataclasses():
    result = _python("""
import sys
import pnlattr.cli
print("numpy" in sys.modules, "json" in sys.modules)
import dataclasses, importlib, pkgutil
import pnlattr
for info in pkgutil.iter_modules(pnlattr.__path__):
    module = importlib.import_module(f"pnlattr.{info.name}")
    for name, value in vars(module).items():
        if not name.startswith("_") and getattr(value, "__module__", None) == module.__name__:
            if isinstance(value, type) and dataclasses.is_dataclass(value):
                print(name)
""")
    printed = result.stdout.split()
    assert printed[:2] == ["False", "False"], result.stderr
    assert sorted(printed[2:]) == ["MarketSnapshot", "Position"], (
        "every record is a plain frozen class; only Position and MarketSnapshot answer is_dataclass, through "
        "the __dataclass_fields__ table they build on first read, because perfbench/trace.py calls "
        "dataclasses.replace on them")


def test_validate_reports_invalid_holdings_value_without_traceback(tmp_path, portfolio_text, capsys):
    portfolio = tmp_path / "portfolio.txt"
    portfolio.write_text(portfolio_text.replace("coupon_frequency = 2", "coupon_frequency = 3"))
    code = run_cli(["validate", "--portfolio", str(portfolio)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (
        f"error: {portfolio}: row 2: position 'ACME_BOND': coupon_frequency must be 1, 2, 4 or 12, got 3\n"
    )


def test_missing_snapshot_error_prints_an_iso_date(tmp_path, market_csv, portfolio_text, capsys):
    market = tmp_path / "market.csv"
    market.write_text(market_csv)
    portfolio = tmp_path / "portfolio.txt"
    portfolio.write_text(portfolio_text.replace("transaction = 2021-05-21 0 6268",
                                                "transaction = 2022-01-15 0 6268"))
    code = run_cli(attribute_args(str(portfolio), str(market)))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: position ACME_BOND: no market snapshot at 2022-01-15\n"


DEMO_PERIOD = ["--from", "2021-12-31", "--to", "2022-04-01"]


def test_transaction_costs_that_overflow_are_an_error_naming_the_position(tmp_path, capsys):
    # each cost is finite, so the book validates; only their sum over the period overflows
    portfolio = tmp_path / "portfolio.txt"
    portfolio.write_text((DEMO_DATA / "portfolio.txt").read_text().replace(
        "transaction = 2022-03-01 0 1500", "transaction = 2022-02-15 0 1e308\ntransaction = 2022-03-01 0 1e308"))
    inputs = ["--portfolio", str(portfolio), "--market", str(DEMO_DATA / "market.csv")]
    assert run_cli(["validate", *inputs]) == 0
    assert capsys.readouterr().err == "market OK: 4 snapshots\nportfolio OK: 3 positions\n"
    assert run_cli(["attribute", *inputs, *DEMO_PERIOD]) == 1
    assert capsys.readouterr().err.startswith("error: position NBB_BOND: transaction costs overflow when summed: ")


def test_bond_issued_inside_the_period_is_an_error_not_pnl_before_issue(tmp_path, capsys):
    # the bond does not exist at the period start, so it has no start price to attribute from
    portfolio = tmp_path / "portfolio.txt"
    portfolio.write_text("[position LATE]\nbucket = Other\ninstrument = bond\nnotional = 1000000\n"
                         "issue = 2022-02-01\nmaturity = 2027-02-01\ncoupon_rate = 0.05\n")
    report = tmp_path / "report.csv"
    args = ["--portfolio", str(portfolio), "--market", str(DEMO_DATA / "market.csv"), *DEMO_PERIOD]
    assert run_cli(["attribute", *args, "--output", str(report)]) == 1
    assert capsys.readouterr().err == (
        "error: position LATE: subperiod (2021-12-31, 2022-04-01]: start price under start curve and start "
        "factors raised: valuation 2021-12-31 before instrument start 2022-02-01\n")
    assert not report.exists()


@pytest.mark.parametrize("args, message", [
    (["validate", "--portfolio", "missing.txt"], "no such file or directory: missing.txt"),
    (["attribute", "--portfolio", ".", "--market", str(DEMO_DATA / "market.csv"), *DEMO_PERIOD],
     "is a directory: ."),
    (["validate", "--portfolio", "latin1.txt"],
     "latin1.txt: 'utf-8' codec can't decode byte 0xc9 in position 13: invalid continuation byte"),
    (["attribute", *DEMO_ARGS, *DEMO_PERIOD, "--output", "no/dir/r.csv"],
     "no such file or directory: no/dir/r.csv"),
    (["oracle", "--num-seeds", "2", "--steps", "4", "--output", "no/x.csv"],
     "no such file or directory: no/x.csv"),
], ids=["missing", "directory", "not-utf8", "attribute-output", "oracle-output"])
def test_unreadable_or_unwritable_file_is_one_error_line(args, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "latin1.txt").write_bytes("[position CAF\xc9]\nbucket = Other\n".encode("latin-1"))
    code = run_cli(args)
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flag, name, text, message", [
    ("--portfolio", "portfolio.txt", "", "holdings file has no [position ...] section"),
    ("--portfolio", "portfolio.txt", "# no positions yet\n\n   # none\n",
     "holdings file has no [position ...] section"),
    ("--market", "market.csv", "date,fx,hazard,recovery,basis,curve_tenors,curve_rates\n",
     "market CSV has no data rows"),
], ids=["empty-holdings", "comment-only-holdings", "header-only-market"])
def test_input_no_run_can_use_fails_validate_and_attribute_alike(flag, name, text, message, tmp_path,
                                                                  capsys):
    (tmp_path / name).write_text(text)
    files = {"--portfolio": str(DEMO_DATA / "portfolio.txt"), "--market": str(DEMO_DATA / "market.csv"),
             flag: str(tmp_path / name)}
    attribute = ["attribute", "--portfolio", files["--portfolio"], "--market", files["--market"], *DEMO_PERIOD]
    for args in (["validate", flag, files[flag]], attribute):
        assert run_cli(args) == 1
        assert capsys.readouterr().err == f"error: {files[flag]}: {message}\n"


def test_overflowing_quantity_is_one_error_line(tmp_path, capsys):
    portfolio = tmp_path / "portfolio.txt"
    text = (DEMO_DATA / "portfolio.txt").read_text()
    assert "transaction = 2022-03-01 0 1500" in text
    portfolio.write_text(text.replace("transaction = 2022-03-01 0 1500", "transaction = 2022-03-01 1e305 1500"))
    code = run_cli(["attribute", "--portfolio", str(portfolio), "--market", str(DEMO_DATA / "market.csv"),
                    *DEMO_PERIOD])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: position NBB_BOND: subperiod (2022-03-01, 2022-04-01]: "
                          "attribution parts must be finite")
    assert err.count("\n") == 1


class _FailingStdout(io.StringIO):
    """A stdout on a full disk: flush always raises OSError(*error), and write too if asked."""

    def __init__(self, error, fail_write):
        super().__init__()
        self.error, self.fail_write = error, fail_write

    def write(self, text):
        if self.fail_write:
            raise OSError(*self.error)
        return super().write(text)

    def flush(self):
        raise OSError(*self.error)


ENOSPC = (errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_stdout_write_error_names_stdout(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _FailingStdout(ENOSPC, fail_write=True))
    code = run_cli(["attribute", *DEMO_ARGS, *DEMO_PERIOD])
    assert code == 1
    assert capsys.readouterr().err == "error: no space left on device: <stdout>\n"


@pytest.mark.parametrize("args", [
    ["oracle", "--num-seeds", "0"],  # an EngineError
    ["attribute", *DEMO_ARGS, *DEMO_PERIOD],  # an OSError from the report write
], ids=["engine-error", "os-error"])
def test_error_line_that_cannot_be_written_is_exit_1(args, monkeypatch):
    broken = _FailingStdout((errno.EPIPE, os.strerror(errno.EPIPE)), fail_write=True)
    monkeypatch.setattr(sys, "stdout", broken)
    monkeypatch.setattr(sys, "stderr", broken)
    assert run_cli(args) == 1


class _Exit(Exception):
    pass


def _main(monkeypatch, *argv):
    """cli.main() in this process, returning the code it hands to os._exit."""
    def exit_(code):
        raise _Exit(code)

    monkeypatch.setattr(os, "_exit", exit_)
    monkeypatch.setattr(sys, "argv", ["pnlattr", *argv])
    with pytest.raises(_Exit) as exited:
        main()
    return exited.value.args[0]


@pytest.fixture
def collector():
    """Turns the garbage collector back on after a test that runs cli.main() in this process."""
    yield
    gc.enable()


def test_main_turns_the_collector_off_and_run_cli_leaves_it_on(collector, monkeypatch, capsys):
    assert run_cli(["validate", *DEMO_ARGS]) == 0
    assert gc.isenabled()
    assert _main(monkeypatch, "validate", *DEMO_ARGS) == 0
    assert not gc.isenabled()


@pytest.mark.parametrize("error, fail_write, message", [
    (ENOSPC, False, "no space left on device: <stdout>"),
    (ENOSPC, True, "no space left on device: <stdout>"),
    (("stream detached",), False, "stream detached: <stdout>"),
], ids=["final-flush", "write-and-final-flush", "no-strerror"])
def test_failing_final_flush_is_one_error_line(error, fail_write, message, collector, monkeypatch, capsys):
    # a write that failed inside run_cli is reported there, and not again by main()
    monkeypatch.setattr(sys, "stdout", _FailingStdout(error, fail_write))
    assert _main(monkeypatch, "attribute", *DEMO_ARGS, *DEMO_PERIOD) == 1
    err = capsys.readouterr().err
    assert err.endswith(f"error: {message}\n")
    assert err.count("error") == 1


def _cli(*args, stdout=subprocess.PIPE, unbuffered=False):
    """`python -m pnlattr.cli` in a fresh interpreter whose stdout, unless
    unbuffered, is block-buffered as a shell gives it, so the final flush in
    main() writes whatever the buffer still holds."""
    return subprocess.run(_cli_argv(*args), env=_cli_env(unbuffered), stdout=stdout,
                          stderr=subprocess.PIPE, timeout=120)


def _cli_argv(*args):
    return [sys.executable, "-m", "pnlattr.cli", *args]


def _cli_env(unbuffered=False):
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["COLUMNS"] = "80"  # argparse wraps usage lines to the terminal width
    return env


DEMO_REPORT = ["attribute", *DEMO_ARGS, *DEMO_PERIOD, "--nav", "50000000", "--standalone", "FEES=-62500"]
GOLDEN_ORACLE_ARGS = ["oracle", "--seed", "0", "--num-seeds", "40", "--steps", "32", "--corr", "0.5",
                      "--jump-intensity", "3"]


@pytest.mark.parametrize("args, code, golden", [
    ([*DEMO_REPORT, "--format", "csv"], 0, "demo_report_golden.csv"),
    ([*DEMO_REPORT, "--format", "json"], 0, "demo_report_golden.json"),
    (GOLDEN_ORACLE_ARGS, 0, "oracle_golden.csv"),
    (["validate", *DEMO_ARGS], 0, None),
    (["attribute", *DEMO_ARGS, "--from", "2022-04-01", "--to", "2021-12-31"], 1, None),
    (["oracle", "--num-seeds", "0"], 1, None),
    (["attribute", *DEMO_ARGS, "--from", "2021-12-31"], 2, None),
    (["frobnicate"], 2, None),
], ids=["demo-csv", "demo-json", "oracle", "validate", "from-after-to", "no-seeds", "missing-flag",
        "unknown-command"])
def test_entry_point_writes_what_run_cli_writes(args, code, golden, monkeypatch, capsys):
    result = _cli(*args)
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(args) == code
    captured = capsys.readouterr()
    assert result.returncode == code, result.stderr
    assert result.stdout.decode() == captured.out
    assert result.stderr.decode() == captured.err
    assert captured.err.count("error:") == (code != 0)
    if golden:
        assert result.stdout == (Path(__file__).parent / "data" / golden).read_bytes()


@pytest.mark.parametrize("format", ["csv", "json"])
def test_entry_point_standalone_label_that_is_not_utf8_is_usage_error(tmp_path, format, monkeypatch, capsys):
    # the argv byte 0xFF decodes to the lone surrogate U+DCFF, which a UTF-8 report cannot hold
    report = tmp_path / f"report.{format}"
    args = [*DEMO_REPORT, "--format", format, "--output", str(report), "--standalone"]
    result = _cli(*args, b"\xff=5")
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli([*args, "\udcff=5"]) == 2
    captured = capsys.readouterr()
    assert result.returncode == 2, result.stderr
    assert result.stderr.decode() == captured.err
    assert captured.err.endswith("error: argument --standalone: LABEL must be UTF-8 text in '\\udcff=5'\n")
    assert result.stdout == b"" and not report.exists()


def test_entry_point_report_larger_than_a_pipe_buffer_is_complete(tmp_path):
    args = ["oracle", "--num-seeds", "2000", "--steps", "8"]
    out = tmp_path / "oracle.csv"
    piped = _cli(*args)
    written = _cli(*args, "--output", str(out))
    assert piped.returncode == written.returncode == 0, piped.stderr
    assert len(piped.stdout) > 256 * 1024
    assert piped.stdout == out.read_bytes()


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_entry_point_report_on_stdout_is_utf8_whatever_its_encoding(tmp_path, encoding):
    # the CSV report writes a label as it is; stdout gets the bytes --output writes
    args = [*DEMO_REPORT, "--standalone", "\u00dc\u20ac=5"]
    out = tmp_path / "report.csv"
    env = {**_cli_env(), "PYTHONIOENCODING": encoding}
    piped = subprocess.run(_cli_argv(*args), env=env, capture_output=True, timeout=120)
    written = subprocess.run(_cli_argv(*args, "--output", str(out)), env=env, capture_output=True, timeout=120)
    assert piped.returncode == written.returncode == 0, piped.stderr
    assert piped.stdout == out.read_bytes()
    assert "\u00dc\u20ac,STANDALONE,".encode("utf-8") in piped.stdout


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args", [
    ["attribute", *DEMO_ARGS, *DEMO_PERIOD],  # smaller than the buffer: fails at the final flush
    ["oracle", "--num-seeds", "100", "--steps", "8"],  # larger: fails inside run_cli
    ["--help"],  # argparse's own writer would swallow the failed write
], ids=["small-report", "large-report", "help"])
def test_entry_point_stdout_on_a_full_device_is_one_error_line(args, unbuffered):
    with open("/dev/full", "wb") as full:
        result = _cli(*args, stdout=full, unbuffered=unbuffered)
    err = result.stderr.decode()
    assert result.returncode == 1, err
    assert err.endswith("error: no space left on device: <stdout>\n")
    assert err.count("error") == 1 and "Traceback" not in err and "Exception ignored" not in err


def test_entry_point_with_stdout_and_stderr_on_one_closed_pipe_exits_1():
    # `pnlattr oracle ... 2>&1 | head -c 10`: the error line for the failed
    # write cannot be written either, and no traceback may escape
    with subprocess.Popen(_cli_argv("oracle", "--num-seeds", "2000", "--steps", "8"), env=_cli_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT) as child:
        head = child.stdout.read(10)
        child.stdout.close()
        assert child.wait(timeout=120) == 1
    assert head == b"seed,n_ste"


@pytest.mark.parametrize("fail, code, ran", [(False, 0, []), (True, 1, ["atexit", "handler", "ran"])],
                         ids=["returns", "raises"])
def test_entry_point_skips_atexit_handlers_unless_an_exception_escapes(fail, code, ran):
    # os._exit skips other packages' atexit handlers; an exception escaping
    # run_cli leaves through the normal exit, with its traceback and the handlers
    result = _python("""
import atexit, sys
import pnlattr.cli as cli
def fail(args):
    raise RuntimeError("escaped run_cli")
if sys.argv[1] == "fail":
    cli._COMMANDS["validate"] = fail
atexit.register(print, "atexit handler ran")
sys.argv[1:] = ["validate", *sys.argv[2:]]
cli.main()
""", "fail" if fail else "pass", *DEMO_ARGS)
    assert result.returncode == code, result.stderr
    assert result.stdout.split() == ran
    assert ("Traceback" in result.stderr and "RuntimeError: escaped run_cli" in result.stderr) == fail
