"""Output checks: reference values from the frozen seed code, plus invariants.

A report passes when every number in it matches the reference computed by
`seedref` (the program as it was when the benchmark was defined) on the
same inputs, within a stated tolerance rather than byte for byte, so that
round-off from a reordered or vectorized computation passes and real drift
fails:

* JSON reports carry full precision: |out - ref| <= 1e-9 * |ref| + 1e-6.
* CSV reports print EUR with 0 decimals and bps with 1: a number may differ
  by one printed unit (1 EUR, 0.1 bps) plus 1e-9 * |ref|, because a value
  within round-off of a rounding boundary can print either way.
* Oracle CSV rows: |out - ref| <= 1e-9 * |ref| + 1e-9, each row satisfies
  coarse - fine = diff to 1e-12 of the operands, and there are 3 rows per
  simulated path.

In corrected carry mode the report must also reconcile to the realized EUR
PnL, computed here from the program's public pricers independently of the
attribution engine: per position and subperiod, quantity times the EUR
price move, plus coupons converted at the average quote around payment.
"""

from __future__ import annotations

import csv
import io
import json
import math

from workloads import AttributeCase, OracleCase, market_snapshots, oracle_params

JSON_REL, JSON_ABS = 1e-9, 1e-6
CSV_REL = 1e-9
ORACLE_REL, ORACLE_ABS = 1e-9, 1e-9
IDENTITY_REL = 1e-12
RECONCILE_EUR = 1.0  # the CSV prints whole EUR
MAX_PROBLEMS = 5


def _close(out: float, ref: float, rel: float, abs_: float) -> bool:
    return math.isfinite(out) and abs(out - ref) <= rel * abs(ref) + abs_


class Checker:
    """Reference output of one case and the checks a run's output must pass."""

    def __init__(self, case):
        self.case = case
        if isinstance(case, OracleCase):
            self.reference = _oracle_reference(case)
            self.realized = None
        else:
            self.reference, grid = _attribute_reference(case)
            self.realized = _realized_pnl(case, grid) if case.carry_mode == "corrected" else None
            self.grid_points = len(grid)

    @property
    def work_units(self) -> int:
        if isinstance(self.case, OracleCase):
            return self.case.num_seeds
        return len(self.case.holdings) * (self.grid_points - 1)

    def problems(self, text: str) -> list[str]:
        """Reasons `text` is not a correct output for the case; empty if it is."""
        try:
            if isinstance(self.case, OracleCase):
                found = _check_oracle(text, self.reference, self.case.num_seeds)
            elif self.case.format == "json":
                found = _compare_json(json.loads(text), json.loads(self.reference), "$")
            else:
                found = _check_csv(text, self.reference, self.realized)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            found = [f"unreadable output: {exc!r}"]
        return found[:MAX_PROBLEMS]


def _attribute_reference(case: AttributeCase):
    from seedref import attribution, market_data, portfolio_io, reporting

    snapshots = market_snapshots(case.market_rows, market_data)
    portfolio = portfolio_io.load_portfolio(case.book_path)
    result = attribution.attribute_portfolio(
        portfolio, snapshots, *case.period,
        attribution.FxMode(case.fx_mode), attribution.CarryMode(case.carry_mode),
    )
    text = reporting.render_report(
        reporting.build_report_rows(result), case.format, nav=case.nav,
        standalone_lines=case.standalones,
    )
    return text, result.grid


def _oracle_reference(case: OracleCase) -> str:
    from seedref import attribution, path_oracle

    params = oracle_params(path_oracle, case.corr, case.jump_intensity)
    seeds = range(case.first_seed, case.first_seed + case.num_seeds)
    study = path_oracle.covariation_study(params, case.steps, seeds, attribution.FxMode.AVERAGE)
    return path_oracle.write_discrepancy_csv(study)


def _realized_pnl(case: AttributeCase, grid) -> dict[str, float]:
    """Realized EUR PnL per position id and for the fund (key "TOTAL")."""
    from pnlattr import market_data, pricers

    snaps = {s.as_of: s for s in market_snapshots(case.market_rows, market_data)}
    realized = {}
    for h in case.holdings:
        if h.get("instrument") != "bond":
            raise ValueError("realized PnL is only computed for bond books")
        spec = pricers.BondSpec(
            notional=h.get("notional"), issue=h.get("issue"), maturity=h.get("maturity"),
            coupon_rate=h.get("coupon_rate"), coupon_frequency=h.get("coupon_frequency"),
        )
        coupons = dict(pricers.bond_cashflows(spec).entries)
        sign = -1.0 if h.get("direction") == "short" else 1.0
        eur = [pricers.price_bond(spec, u, snaps[u].curve, snaps[u].factors) * snaps[u].fx.rate for u in grid]
        terms = []
        for i in range(1, len(grid)):
            u_prev, u = grid[i - 1], grid[i]
            quantity = sign + math.fsum(q for d, q, _ in h.transactions if d <= u_prev)
            coupon_fx = 0.5 * (snaps[u_prev].fx.rate + snaps[u].fx.rate)
            terms.append(quantity * (eur[i] - eur[i - 1] + coupons.get(u, 0.0) * coupon_fx))
        realized[h.id] = math.fsum(terms)
    realized["TOTAL"] = math.fsum(realized.values())
    return realized


def _compare_json(out, ref, path: str) -> list[str]:
    if isinstance(ref, dict):
        if not isinstance(out, dict) or out.keys() != ref.keys():
            return [f"{path}: keys differ"]
        return [p for key in ref for p in _compare_json(out[key], ref[key], f"{path}.{key}")]
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return [f"{path}: length differs"]
        return [p for i, (o, r) in enumerate(zip(out, ref)) for p in _compare_json(o, r, f"{path}[{i}]")]
    if isinstance(ref, float):
        if isinstance(out, (int, float)) and _close(float(out), ref, JSON_REL, JSON_ABS):
            return []
        return [f"{path}: {out!r} != reference {ref!r}"]
    return [] if out == ref else [f"{path}: {out!r} != reference {ref!r}"]


def _check_csv(text: str, reference: str, realized) -> list[str]:
    out_rows = list(csv.reader(io.StringIO(text)))
    ref_rows = list(csv.reader(io.StringIO(reference)))
    if not out_rows or out_rows[0] != ref_rows[0] or len(out_rows) != len(ref_rows):
        return ["header or row count differs from the reference"]
    header = ref_rows[0]
    problems = []
    for out, ref in zip(out_rows[1:], ref_rows[1:]):
        if out[:2] != ref[:2]:
            problems.append(f"row {ref[:2]}: labels read {out[:2]}")
            continue
        for column, o, r in zip(header[2:], out[2:], ref[2:]):
            unit = 0.1 if column.endswith("_bps") else 1.0
            if not _close(float(o), float(r), CSV_REL, unit):
                problems.append(f"row {ref[0]} {column}: {o} != reference {r}")
        if realized is not None and ref[0] in realized:
            total = float(out[header.index("total_eur")])
            if not _close(total, realized[ref[0]], CSV_REL, RECONCILE_EUR):
                problems.append(f"row {ref[0]} total_eur {total} != realized EUR PnL {realized[ref[0]]:.2f}")
    return problems


def _check_oracle(text: str, reference: str, num_seeds: int) -> list[str]:
    out_rows = list(csv.reader(io.StringIO(text)))
    ref_rows = list(csv.reader(io.StringIO(reference)))
    if len(out_rows) != 1 + 3 * num_seeds:
        return [f"{len(out_rows) - 1} rows, expected {3 * num_seeds}"]
    if out_rows[0] != ref_rows[0]:
        return ["header differs from the reference"]
    problems = []
    for out, ref in zip(out_rows[1:], ref_rows[1:]):
        if out[:3] != ref[:3]:
            problems.append(f"row {ref[:3]}: labels read {out[:3]}")
            continue
        coarse, fine, diff = (float(v) for v in out[3:6])
        if abs(coarse - fine - diff) > IDENTITY_REL * max(1.0, abs(coarse), abs(fine)):
            problems.append(f"row {out[:3]}: coarse - fine != diff")
        for name, o, r in zip(("coarse", "fine", "diff"), out[3:6], ref[3:6]):
            if not _close(float(o), float(r), ORACLE_REL, ORACLE_ABS):
                problems.append(f"row {out[:3]} {name}: {o} != reference {r}")
    return problems
