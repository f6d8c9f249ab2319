"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

They check that the generator is deterministic, that the output checks
reject a perturbed value and accept the reference, that a CLI run exiting
non-zero is counted as a failure, and that the metric tables in run.py
match BENCHMARK.json. They take about ten seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

import run
from check import Checker
from workloads import prepare

sys.path.insert(0, str(run.SRC))


class BenchmarkSelfTest(unittest.TestCase):
    def setUp(self):
        run.WORK.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def test_same_seed_writes_identical_files(self):
        for name in ("attr-deep", "attr-wide"):
            first = prepare(name, 7, self.tmp / f"{name}-a")
            again = prepare(name, 7, self.tmp / f"{name}-b")
            other = prepare(name, 8, self.tmp / f"{name}-c")
            for path in ("market_path", "book_path"):
                a, b, c = (getattr(case, path).read_bytes() for case in (first, again, other))
                self.assertEqual(a, b, f"{name} {path}")
                self.assertNotEqual(a, c, f"{name} {path}")
        self.assertEqual(prepare("oracle", 7, self.tmp).cli_args(), prepare("oracle", 7, self.tmp).cli_args())

    def test_csv_check_reconciles_and_rejects_a_perturbed_value(self):
        checker = Checker(prepare("attr-deep", 3, self.tmp))
        self.assertEqual(checker.problems(checker.reference), [])
        lines = checker.reference.splitlines(keepends=True)
        cells = lines[1].split(",")
        cells[7] = str(int(cells[7]) + 2)  # total_eur of the first position
        lines[1] = ",".join(cells)
        self.assertTrue(checker.problems("".join(lines)))

    def test_json_check_rejects_a_perturbed_value(self):
        checker = Checker(prepare("probe-book", 3, self.tmp))
        self.assertEqual(checker.problems(checker.reference), [])
        tree = json.loads(checker.reference)
        tree["positions"][0]["rate_eur"] *= 1.0 + 1e-6
        self.assertTrue(checker.problems(json.dumps(tree)))

    def test_oracle_check_rejects_a_broken_identity_and_missing_rows(self):
        checker = Checker(prepare("probe-oracle", 3, self.tmp))
        self.assertEqual(checker.problems(checker.reference), [])
        lines = checker.reference.splitlines(keepends=True)
        cells = lines[1].rstrip("\n").split(",")
        cells[5] = repr(float(cells[5]) + 1e-3)
        self.assertTrue(checker.problems("".join(lines[:1] + [",".join(cells) + "\n"] + lines[2:])))
        self.assertTrue(checker.problems("".join(lines[:-3])))

    def test_nonzero_exit_counts_as_failure(self):
        case = prepare("probe-oracle", 3, self.tmp)
        failing = FailingCase(case.name, case.seed, case.output)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            _, attempted, failed, _ = run.end_to_end(failing, Checker(case), 0.0, self.tmp, reference=case)
        self.assertEqual(attempted, run.MIN_INVOCATIONS)
        self.assertEqual(failed, attempted)

    def test_metric_tables_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOADS)


class FailingCase:
    """A case whose CLI invocation is rejected by the program (exit code 1)."""

    work_unit = "paths"

    def __init__(self, name, seed, output):
        self.name, self.seed, self.output = name, seed, output

    def cli_args(self, output=None):
        return ["oracle", "--num-seeds", "0", "--output", str(output or self.output)]


if __name__ == "__main__":
    unittest.main()
