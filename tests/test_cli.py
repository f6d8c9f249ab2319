import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pnlattr.cli import run_cli


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


@pytest.mark.parametrize("amount", ["inf", "-inf", "nan"])
def test_non_finite_standalone_is_usage_error(inputs, amount, capsys):
    portfolio, market = inputs
    code = run_cli(attribute_args(portfolio, market, "--standalone", f"X={amount}"))
    captured = capsys.readouterr()
    assert code == 2
    assert "usage" in captured.err.lower()
    assert f"EUR amount must be finite in 'X={amount}'" in captured.err
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


def _python(code, *args):
    env = dict(os.environ)
    src = str(Path(__file__).parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
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


def test_validate_reports_invalid_holdings_value_without_traceback(tmp_path, portfolio_text, capsys):
    portfolio = tmp_path / "portfolio.txt"
    portfolio.write_text(portfolio_text.replace("coupon_frequency = 2", "coupon_frequency = 3"))
    code = run_cli(["validate", "--portfolio", str(portfolio)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (
        "error: row 2: position 'ACME_BOND': coupon_frequency must be 1, 2, 4 or 12, got 3\n"
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
        assert capsys.readouterr().err == f"error: {message}\n"


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
