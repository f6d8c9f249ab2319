"""Every demo script runs to completion, prints exactly its pinned stdout and writes nothing to stderr.

The pins are tests/data/demos/<demo>.txt. A demo whose output changes on purpose gets its pin regenerated:
    PYTHONPATH=src python demos/<demo>.py > tests/data/demos/<demo>.txt
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED = ROOT / "tests" / "data" / "demos"


def test_all_four_demos_are_found():
    assert {demo.name for demo in DEMOS} >= {
        "coupon_carry_modes.py", "fine_grid_oracle.py", "portfolio_rollup.py", "single_asset_four_way.py",
    }


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, encoding="utf-8",
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (PINNED / f"{demo.stem}.txt").read_text(encoding="utf-8")
    assert result.stderr == ""
