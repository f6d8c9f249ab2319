"""Mutation check of the engine's own checks: every listed mutant must fail a test.

    python tests/mutants.py

Each entry below changes one exact text in one file under `src/pnlattr` and
names the test module that must fail under the change. The script copies the
repository into a temporary directory (without `.git`, `__pycache__`,
`.hypothesis` and `.pytest_cache`) and runs pytest there, so that
`pyproject.toml`'s `pythonpath = ["src"]` imports the mutated copy and not
this checkout's `src`. It first runs each named module once unmutated, and
those runs must pass; then it runs each mutant's module with `-x`, prints
one verdict per mutant, and restores the file. It exits 1 if an entry's old
text does not occur exactly once, an unmutated run fails, or a mutant
survives or stops pytest before its tests run. Stdlib only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file under src/pnlattr, exact old text, new text, test module that kills it)
MUTANTS = [
    # the additivity check and the scale it is measured against
    ("attribution.py", "ADDITIVITY_TOL = 1e-9", "ADDITIVITY_TOL = 1e-6", "test_attribution.py"),
    ("attribution.py", "max(1.0, abs(total), scale)", "max(1.0, abs(total), 1000.0 * scale)",
     "test_attribution.py"),
    ("attribution.py", "scale=max(scale, default=0.0)", "scale=0.0", "test_attribution.py"),
    ("attribution.py", "scale = abs(q) * (max(", "scale = abs(q) * (min(", "test_attribution.py"),
    ("attribution.py", "max(chi_t, chi_T)", "min(chi_t, chi_T)", "test_attribution.py"),
    # the carry conventions
    ("attribution.py", "if start_coupon != 0.0 and carry_mode is CarryMode.LITERAL:", "if start_coupon != 0.0:",
     "test_attribution.py"),
    ("attribution.py", "        start_new_factors += start_coupon\n", "", "test_attribution.py"),
    ("attribution.py", "if coupon != 0.0:", "if True:", "test_evaluation_reuse.py"),
    # the subperiod loop: evaluation reuse and the labels that name a failed price
    ("attribution.py", "if start_old is None:", "if True:", "test_evaluation_reuse.py"),
    ("attribution.py", '"end price under start curve and end factors"', '"end price under end curve and start factors"',
     "test_attribution.py"),
    ("conventions.py", "return a_start, ce", "return a_start, cs", "test_attribution.py"),
    # holdings, costs and the plan's grid checks
    ("attribution.py", "start <= t.date <= end", "start < t.date <= end", "test_attribution.py"),
    ("attribution.py", "if txn.date <= when:", "if txn.date < when:", "test_attribution.py"),
    ("attribution.py", "and d not in on_grid", "and False", "test_attribution.py"),
    ("attribution.py", "and txn.date not in on_grid", "and False", "test_attribution.py"),
    # the report's basis points
    ("reporting.py", "return eur * 10000.0 / nav", "return eur / nav * 10000.0", "test_reporting.py"),
    # the oracle's exact row sums
    ("path_oracle.py", "(4 * n * 2.0**-53)", "(n * 2.0**-53)", "test_path_oracle.py"),
    ("path_oracle.py", "(r_err + delta < up) & (r_err - delta > -down)",
     "(r_err + delta <= up) & (r_err - delta >= -down)", "test_path_oracle.py"),
]
# Not run: two equivalent mutants, which no test can kill. The reasons are in their test modules:
# the coupon term of `_split`'s scale in tests/test_attribution.py, and sigma's exponent written
# (n - 1).bit_length() in tests/test_path_oracle.py.


def _pytest(copy: Path, module: str, *flags: str) -> int:
    # no bytecode is written, so a mutant of a file's size and mtime never runs a stale .pyc
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *flags, f"tests/{module}"]
    return subprocess.run(argv, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    for name, old, new, module in MUTANTS:
        count = (ROOT / "src" / "pnlattr" / name).read_text().count(old)
        if count != 1:
            print(f"error: {name}: {old!r} occurs {count} times, not once", file=sys.stderr)
            return 1
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                                                   ".pytest_cache"))
        for module in dict.fromkeys(module for *_, module in MUTANTS):
            if _pytest(copy, module) != 0:
                print(f"error: tests/{module} fails unmutated", file=sys.stderr)
                return 1
        failures = 0
        for name, old, new, module in MUTANTS:
            path = copy / "src" / "pnlattr" / name
            source = path.read_text()
            path.write_text(source.replace(old, new))
            try:
                code = _pytest(copy, module, "-x")
            finally:
                path.write_text(source)
            # pytest exits 1 when a test fails; any other nonzero code (say, a mutant that breaks
            # collection) shows nothing about the tests, so it counts against the mutant's entry
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            failures += verdict != "killed"
            print(f"{verdict}: {name}: {old.strip()!r} -> {new.strip()!r} (tests/{module})", flush=True)
    print(f"{len(MUTANTS)} mutants, {len(MUTANTS) - failures} killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
