"""pnlattr benchmark: the real CLI as a fresh process per repetition.

    python3 perfbench/run.py --workload attr-deep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The benchmark writes the workload's seeded
inputs under .bench_work/, computes the reference output with the frozen
seed code in perfbench/seedref, then:

--trace 0  measures the end-to-end metrics with tracing off. Until --seconds
           have passed, rounds of three fresh processes run one at a time:
           `python -m pnlattr.cli ...`, whose output is checked against the
           reference and whose peak RSS comes from os.wait4; the frozen seed
           CLI `python -m seedref.cli ...` on the same inputs; and an
           interpreter timed from spawn to `import pnlattr` returning
           (`setup_s`). `wall_vs_seedref` is the median over rounds of the
           CLI's wall time divided by the mean of the seed CLI's wall times
           just before and just after it, which cancels the host's drift.
--trace 1  measures the per-layer metrics: trace.py runs the same public
           calls in a fresh interpreter, traced and untraced in turn, until
           --seconds have passed, and reports medians. Layers the workload
           never reaches are measured on small probe inputs, so that every
           metric is measured on every workload.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines before it give the same numbers for people.
An invocation fails when it exits non-zero or its output fails a check.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from check import Checker
from workloads import WORKLOADS, OracleCase, prepare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# One benchmark process and one child at a time on a 2-core box; the oracle does a
# matmul per path, which must not fan out into BLAS threads.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_INVOCATIONS = 3
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "wall_vs_seedref": "ratio",
    "peak_rss_mb": "MB",
}
PRICER_KINDS = ("bond", "cds", "cash")
PER_LAYER = {
    "portfolio_io.load_portfolio.s": "s",
    "portfolio_io.positions": "count",
    "market_data.load_market_snapshots.s": "s",
    "market_data.snapshots": "count",
    "market_data.zero_rate.calls": "count",
    "market_data.zero_rate.s": "s",
    "market_data.zero_rate.calls_per_eval": "calls/eval",
    **{
        f"pricers.{kind}.{name}": unit
        for kind in PRICER_KINDS
        for name, unit in (("evals", "count"), ("s", "s"), ("us_per_eval", "us"))
    },
    "pricers.failed": "count",
    "attribution.segment_period.s": "s",
    "attribution.grid_points": "count",
    "attribution.attribute_portfolio.s": "s",
    "attribution.self_s": "s",
    "attribution.position_subperiods": "count",
    "attribution.evals_per_subperiod": "evals/subperiod",
    "reporting.build_report_rows.s": "s",
    "reporting.render_report.csv_s": "s",
    "reporting.render_report.json_s": "s",
    "reporting.bytes": "B",
    "path_oracle.simulate_paths.s": "s",
    "path_oracle.compare_coarse_vs_fine.s": "s",
    "path_oracle.write_discrepancy_csv.s": "s",
    "path_oracle.paths": "count",
    "trace.overhead_s": "s",
}
# Counts must repeat exactly between repetitions of one seed.
COUNTS = tuple(name for name, unit in PER_LAYER.items() if unit in ("count", "B"))


def child_env(pythonpath: Path = SRC) -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = str(pythonpath)
    return env


def spawn(argv, stdout, stderr, pythonpath: Path = SRC, timeout=CHILD_TIMEOUT_S):
    """Run argv to completion: (exit code, wall seconds, peak RSS in KiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(pythonpath), stdout=stdout, stderr=stderr)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def setup_seconds() -> float:
    """Spawn-to-import time of one fresh interpreter."""
    code = "import time, pnlattr; print(time.monotonic_ns())"
    start = time.monotonic_ns()
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return (int(done.stdout) - start) / 1e9


def _last_line(err_path: Path) -> str:
    return " ".join(err_path.read_text(errors="replace").strip().splitlines()[-1:])


def invoke_cli(case, checker, err_path: Path):
    """One fresh CLI process on the case: (wall s, peak RSS KiB, problems)."""
    case.output.unlink(missing_ok=True)
    with open(err_path, "wb") as err:
        code, wall, rss = spawn([sys.executable, "-m", "pnlattr.cli", *case.cli_args()],
                                subprocess.DEVNULL, err)
    if code != 0:
        return wall, rss, [f"exit code {code}: {_last_line(err_path)}"]
    return wall, rss, checker.problems(case.output.read_text(encoding="utf-8"))


def invoke_seedref(case, workdir: Path) -> float:
    """Wall seconds of one fresh process of the frozen seed CLI on the same inputs."""
    err_path = workdir / "seedref.err"
    with open(err_path, "wb") as err:
        code, wall, _ = spawn([sys.executable, "-m", "seedref.cli", *case.cli_args(workdir / "seedref.out")],
                              subprocess.DEVNULL, err, pythonpath=HERE)
    if code != 0:
        raise RuntimeError(f"the frozen seed CLI failed on the inputs: exit code {code}: {_last_line(err_path)}")
    return wall


def end_to_end(case, checker, seconds: float, workdir: Path, reference=None):
    """Fresh CLI processes, each between two runs of the frozen seed CLI.

    The host's speed drifts by up to 2x from one minute to the next, so a CLI
    wall time is divided by the mean of the seed CLI's wall times just before
    and just after it, on the same inputs. `reference` is the case the seed
    CLI runs on; it is the measured case itself except in the self-tests.
    """
    reference = reference or case
    setup_seconds()  # warm-up: file cache and bytecode
    setup, walls, ref_walls, ratios, rss, problems = [], [], [invoke_seedref(reference, workdir)], [], [], []
    start = time.perf_counter()
    while len(walls) < MIN_INVOCATIONS or time.perf_counter() - start + statistics.median(
            [w + r + s for w, r, s in zip(walls, ref_walls[1:], setup)]) <= seconds:
        wall, peak, found = invoke_cli(case, checker, workdir / "cli.err")
        ref_walls.append(invoke_seedref(reference, workdir))
        setup.append(setup_seconds())
        walls.append(wall)
        ratios.append(wall / statistics.fmean(ref_walls[-2:]))
        rss.append(peak / 1024.0)
        problems.append(found)
    failed = sum(1 for found in problems if found)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_vs_seedref": statistics.median(ratios),
        "peak_rss_mb": statistics.median(rss),
    }
    wall_s = statistics.median(walls)
    print(f"workload {case.name} seed {case.seed}: {checker.work_units} {case.work_unit} per invocation")
    print(f"setup_s {metrics['setup_s']:.4f} s (median of {len(setup)} spawns)")
    print(f"wall_vs_seedref {metrics['wall_vs_seedref']:.4f} (median of {len(ratios)} ratios: "
          f"{' '.join(f'{r:.3f}' for r in ratios)})")
    print(f"wall_s {wall_s:.4f} s (wall_s.n = {len(walls)}; {' '.join(f'{w:.3f}' for w in walls)})")
    print(f"seedref wall_s {statistics.median(ref_walls):.4f} s ({' '.join(f'{w:.3f}' for w in ref_walls)})")
    print(f"work_per_s {statistics.median(checker.work_units / w for w in walls):.1f} {case.work_unit}/s")
    print(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")
    print(f"error_rate {failed / len(walls):.4f} ({failed} of {len(walls)} invocations failed)")
    for found in problems:
        for line in found:
            print(f"  check: {line}", file=sys.stderr)
    return metrics, len(walls), failed, END_TO_END


def _trace_spec(case, traced: bool, output: Path) -> dict:
    spec = {"traced": traced, "output": str(output)}
    if isinstance(case, OracleCase):
        spec.update(kind="oracle", first_seed=case.first_seed, num_seeds=case.num_seeds,
                    steps=case.steps, corr=case.corr, jump_intensity=case.jump_intensity)
    else:
        spec.update(kind="attribute", market=str(case.market_path), portfolio=str(case.book_path),
                    period=[d.isoformat() for d in case.period], fx_mode=case.fx_mode,
                    carry_mode=case.carry_mode, format=case.format, nav=case.nav,
                    standalones=[list(s) for s in case.standalones])
    return spec


def run_trace_child(specs, workdir: Path) -> list[dict]:
    spec_path = workdir / "trace-spec.json"
    spec_path.write_text(json.dumps(specs), encoding="utf-8")
    done = subprocess.run([sys.executable, str(HERE / "trace.py"), str(spec_path)], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    records = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    if len(records) != len(specs):
        tail = done.stderr.strip().splitlines()[-1:]
        records += [{"error": f"exit code {done.returncode}: {' '.join(tail)}", "total_s": 0.0, "values": {}}
                    ] * (len(specs) - len(records))
    return records


def _derived(values: dict) -> dict:
    """Per-layer metrics of one traced case, with the ratios filled in."""
    out = {name: float(values.get(name, 0.0)) for name in PER_LAYER}
    evals = sum(out[f"pricers.{kind}.evals"] for kind in PRICER_KINDS)
    for kind in PRICER_KINDS:
        n = out[f"pricers.{kind}.evals"]
        out[f"pricers.{kind}.us_per_eval"] = 1e6 * out[f"pricers.{kind}.s"] / n if n else 0.0
    if evals:
        out["market_data.zero_rate.calls_per_eval"] = out["market_data.zero_rate.calls"] / evals
    if out["attribution.position_subperiods"]:
        out["attribution.evals_per_subperiod"] = evals / out["attribution.position_subperiods"]
    if out["attribution.attribute_portfolio.s"]:
        out["attribution.self_s"] = out["attribution.attribute_portfolio.s"] - sum(
            out[f"pricers.{kind}.s"] for kind in PRICER_KINDS
        )
    return out


def per_layer(case, checker, seconds: float, workdir: Path):
    problems, reps, overheads = [], [], []
    traced_out, plain_out = workdir / "traced.out", workdir / "plain.out"
    start = time.perf_counter()
    while not reps or time.perf_counter() - start + rep_s <= seconds:
        rep_start = time.perf_counter()
        traced, plain = run_trace_child(
            [_trace_spec(case, True, traced_out), _trace_spec(case, False, plain_out)], workdir
        )
        found = [r["error"] for r in (traced, plain) if "error" in r]
        if not found:
            text = traced_out.read_text(encoding="utf-8")
            found = checker.problems(text)
            if text != plain_out.read_text(encoding="utf-8"):
                found.append("traced output differs from the untraced output")
        problems.append(found)
        reps.append(_derived(traced["values"]))
        overheads.append(traced["total_s"] - plain["total_s"])
        rep_s = time.perf_counter() - rep_start

    metrics = {name: statistics.median(rep[name] for rep in reps) for name in PER_LAYER}
    metrics["trace.overhead_s"] = statistics.median(overheads)
    for name in COUNTS:
        if len({rep[name] for rep in reps}) > 1:
            problems.append([f"{name} differs between repetitions: {[rep[name] for rep in reps]}"])

    # Layers this workload never reaches are measured on the probe inputs.
    probes = [prepare(name, case.seed, workdir / "probe") for name in ("probe-book", "probe-oracle")]
    records = run_trace_child([_trace_spec(p, True, p.output) for p in probes], workdir)
    for probe, record in zip(probes, records):
        found = [record["error"]] if "error" in record else Checker(probe).problems(
            probe.output.read_text(encoding="utf-8"))
        problems.append(found)
        for name, value in _derived(record["values"]).items():
            if metrics[name] == 0.0 and name != "trace.overhead_s":
                metrics[name] = value

    failed = sum(1 for found in problems if found)
    for name, unit in PER_LAYER.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(f"error_rate {failed / len(problems):.4f} ({failed} of {len(problems)} traced checks failed)")
    for found in problems:
        for line in found:
            print(f"  check: {line}", file=sys.stderr)
    return metrics, len(problems), failed, PER_LAYER


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pnlattr" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'pnlattr'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Bytecode is written before anything is timed, so no timed process compiles.
    for package in (SRC / "pnlattr", HERE / "seedref"):
        compileall.compile_dir(package, quiet=1)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        case = prepare(args.workload, args.seed, workdir)
        checker = Checker(case)
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed, units = measure(case, checker, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
