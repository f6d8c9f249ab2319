"""A mutated input ends in a report or in one diagnostic line, never in a traceback.

Each case deletes or duplicates one line of a demo input, or sets one value
in it to a number or date that a loader or the engine must reject or carry
through, then runs `attribute` in process. The seeds are fixed, so every run
tries the same inputs.
"""

import random
import re
from pathlib import Path

import pytest

from pnlattr.cli import run_cli

ROOT = Path(__file__).resolve().parents[1]
BOOK = ROOT / "demos" / "data" / "portfolio.txt"
MARKET = ROOT / "demos" / "data" / "market.csv"
VALUES = ("nan", "inf", "1e308", "1e-320", "-0", "", "9999-12-31", "2022-02-30")
MODES = [(carry, fx, fmt) for carry in ("corrected", "literal", "sophis")
         for fx in ("average", "start-end") for fmt in ("csv", "json")]
CASES = 100
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def _set_book_value(line, rng, value):
    key, _, rest = line.partition("=")
    tokens = rest.split()
    tokens[rng.randrange(len(tokens))] = value
    return f"{key}= {' '.join(tokens)}\n"


def _set_market_value(line, rng, value):
    cells = line.rstrip("\r\n").split(",")
    j = rng.randrange(len(cells))
    items = cells[j].split(";")
    items[rng.randrange(len(items))] = value
    cells[j] = ";".join(items)
    return ",".join(cells) + "\n"


def _mutations(text, set_value, settable, seed):
    """(mutated text, what was done) for CASES mutations of `text` drawn with `seed`."""
    rng = random.Random(seed)
    lines = text.splitlines(keepends=True)
    values_at = [i for i, line in enumerate(lines) if settable(line)]
    for _ in range(CASES):
        kind = rng.choice(("delete", "duplicate", "set", "set", "set"))
        if kind == "set":
            i, value = rng.choice(values_at), rng.choice(VALUES)
            mutated = lines[:i] + [set_value(lines[i], rng, value)] + lines[i + 1:]
            what = f"line {i + 1} set to {mutated[i]!r}"
        else:
            i = rng.randrange(len(lines))
            mutated = lines[:i + 1] + lines[i:] if kind == "duplicate" else lines[:i] + lines[i + 1:]
            what = f"line {i + 1} {kind}d"
        yield "".join(mutated), what


def _book_value(line):
    return "=" in line and not line.lstrip().startswith("#")


@pytest.mark.parametrize("mutated, seed", [
    ("portfolio.txt", 1),
    ("out_of_order_book.txt", 2),
    ("market.csv", 3),
])
def test_mutated_input_ends_in_a_report_or_one_error_line(mutated, seed, tmp_path, capsys):
    book, market = tmp_path / "book.txt", tmp_path / "market.csv"
    if mutated == "market.csv":
        book.write_text(BOOK.read_text())
        cases = _mutations(MARKET.read_text(), _set_market_value, lambda line: True, seed)
        target = market
    else:
        market.write_text(MARKET.read_text())
        source = BOOK if mutated == "portfolio.txt" else ROOT / "tests" / "data" / mutated
        cases = _mutations(source.read_text(), _set_book_value, _book_value, seed)
        target = book
    outcomes = {0: 0, 1: 0}
    for n, (text, what) in enumerate(cases):
        target.write_text(text)
        carry, fx, fmt = MODES[n % len(MODES)]
        args = ["attribute", "--portfolio", str(book), "--market", str(market),
                "--from", "2021-12-31", "--to", "2022-04-01", "--nav", "50000000",
                "--carry-mode", carry, "--fx-mode", fx, "--format", fmt]
        try:
            code = run_cli(args)
        except Exception as exc:
            pytest.fail(f"{mutated}, {what}: {exc!r} escaped run_cli")
        out, err = capsys.readouterr()
        if code == 0:
            assert not NON_FINITE.search(out), f"{mutated}, {what}: report holds a non-finite number"
            assert err.startswith("attributed ") and err.count("\n") == 1, f"{mutated}, {what}: {err!r}"
        else:
            assert code == 1, f"{mutated}, {what}: exit {code}"
            assert (out, err.count("\n")) == ("", 1) and err.startswith("error: "), f"{mutated}, {what}: {err!r}"
        outcomes[code] += 1
    assert min(outcomes.values()) > 0, f"{mutated}: every mutation ended the same way, {outcomes}"
