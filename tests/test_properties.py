"""Property suites for the algebraic identities the engine is built on."""

import math
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnlattr import (
    Bucket,
    FxMode,
    Position,
    ZeroCurve,
    attribute_position,
    four_way_split,
    grid_ito_decomposition,
)
from pnlattr.path_oracle import DERIVATIVE_STEP

from conftest import ScalarState, product_rule, two_value_pricer

values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
quotes = st.floats(min_value=0.01, max_value=100.0, allow_nan=False)
coeffs = st.floats(min_value=-200.0, max_value=200.0, allow_nan=False)
states = st.floats(min_value=-0.2, max_value=0.5, allow_nan=False)


def two_value_split(a_start, a_end, chi_start, chi_end, mode):
    snap_t, snap_T = ScalarState(0.0, 0.0, chi_start), ScalarState(0.0, 0.0, chi_end)
    return four_way_split(two_value_pricer(a_start, a_end), 0.0, 1.0, snap_t, snap_T, mode)


@given(a_start=values, a_end=values, chi_start=quotes, chi_end=quotes,
       mode=st.sampled_from(FxMode))
def test_fx_and_asset_parts_sum_to_total(a_start, a_end, chi_start, chi_end, mode):
    res = two_value_split(a_start, a_end, chi_start, chi_end, mode)
    assert res.total == a_end * chi_end - a_start * chi_start
    assert (res.rate, res.market) == (0.0, 0.0)  # the asset part is all carry
    assert res.fx + res.carry == pytest.approx(res.total, rel=1e-9, abs=1e-6)


@given(a_start=values, a_end=values, chi=quotes, mode=st.sampled_from(FxMode))
def test_fx_isolation_constant_quote(a_start, a_end, chi, mode):
    assert two_value_split(a_start, a_end, chi, chi, mode).fx == 0.0


@given(
    alpha=coeffs, theta=coeffs, beta=coeffs, gamma=coeffs, cross=coeffs,
    r_t=states, r_T=states, x_t=states, x_T=states,
    chi_t=quotes, chi_T=quotes, mode=st.sampled_from(FxMode),
)
def test_four_way_parts_always_sum_to_total(alpha, theta, beta, gamma, cross,
                                            r_t, r_T, x_t, x_T, chi_t, chi_T, mode):
    def price(s, r, x):
        return alpha + theta * s + beta * r + gamma * x + cross * r * x

    snap_t = ScalarState(curve=r_t, factors=x_t, fx=chi_t)
    snap_T = ScalarState(curve=r_T, factors=x_T, fx=chi_T)
    # construction enforces |residual| <= 1e-9 * max(1, |total|)
    result = four_way_split(price, 0.0, 1.0, snap_t, snap_T, mode)
    assert result.total == pytest.approx(
        price(1.0, r_T, x_T) * chi_T - price(0.0, r_t, x_t) * chi_t, rel=1e-12, abs=1e-9
    )


@given(
    theta=coeffs, beta=coeffs, gamma=coeffs,
    r_t=states, r_T=states, x_t=states, x_T=states,
)
def test_linear_pricer_closed_forms(theta, beta, gamma, r_t, r_T, x_t, x_T):
    def price(s, r, x):
        return 50.0 + theta * s + beta * r + gamma * x

    snap_t = ScalarState(curve=r_t, factors=x_t, fx=1.0)
    snap_T = ScalarState(curve=r_T, factors=x_T, fx=1.0)
    span = 0.75
    result = four_way_split(price, 0.25, 1.0, snap_t, snap_T)
    tol = dict(rel=1e-9, abs=1e-9)
    assert result.carry == pytest.approx(theta * span, **tol)
    assert result.rate == pytest.approx(beta * (r_T - r_t), **tol)
    assert result.market == pytest.approx(gamma * (x_T - x_t), **tol)
    assert result.fx == 0.0


@given(
    data=st.lists(
        st.tuples(st.floats(1.0, 1000.0), st.floats(0.1, 10.0)),
        min_size=2, max_size=40,
    )
)
def test_product_decomposition_telescopes(data):
    asset = [a for a, _ in data]
    fx = [c for _, c in data]
    dec = product_rule(asset, fx)
    total = asset[-1] * fx[-1] - asset[0] * fx[0]
    # rounding scales with the largest product along the path, not the endpoints
    scale = max(1.0, max(abs(a * c) for a, c in zip(asset, fx)))
    assert abs(dec.fine_fx[0] + dec.fine_asset[0] + dec.covariation[0] - total) <= 1e-12 * scale


@given(
    nodes=st.lists(
        st.tuples(st.floats(0.0, 40.0), st.floats(-0.05, 0.2)),
        min_size=1, max_size=8,
        unique_by=lambda node: round(node[0], 6),
    )
)
def test_curve_reproduces_node_discounts(nodes):
    nodes = sorted(nodes)
    curve = ZeroCurve(date(2022, 1, 1), tuple(nodes))
    for tenor, rate in nodes:
        assert curve.zero_rate(tenor) == rate


@settings(max_examples=50)
@given(
    theta=coeffs, beta=coeffs, gamma=coeffs, cross=coeffs,
    r_t=states, r_T=states, x_t=states, x_T=states,
    chi_t=quotes, chi_T=quotes,
)
def test_average_and_start_end_modes_share_totals(theta, beta, gamma, cross,
                                                  r_t, r_T, x_t, x_T, chi_t, chi_T):
    def price(s, r, x):
        return 100.0 + theta * s + beta * r + gamma * x + cross * r * x

    snap_t = ScalarState(curve=r_t, factors=x_t, fx=chi_t)
    snap_T = ScalarState(curve=r_T, factors=x_T, fx=chi_T)
    avg = four_way_split(price, 0.0, 1.0, snap_t, snap_T, FxMode.AVERAGE)
    se = four_way_split(price, 0.0, 1.0, snap_t, snap_T, FxMode.START_END)
    assert avg.total == pytest.approx(se.total, rel=1e-12, abs=1e-9)


unit_coeffs = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(
    f=st.tuples(unit_coeffs, unit_coeffs), g=st.tuples(unit_coeffs, unit_coeffs), h=st.tuples(unit_coeffs, unit_coeffs),
    kappa=unit_coeffs, lam=unit_coeffs,
    steps=st.lists(st.tuples(st.floats(0.005, 0.08), states, states), min_size=1, max_size=12),
    r0=states, x0=states,
)
def test_symmetric_average_cross_terms_are_exact(f, g, h, kappa, lam, steps, r0, x0):
    # a = f(s) + g(r) + h(x) + kappa r x + lam s r with quadratic f, g, h: the ladder's second-order
    # Taylor steps are exact on g and h, so what the engine's symmetric average adds to them is its
    # share of the cross terms, (1/2) kappa dr dx and (1/2) lam ds dr per subperiod, and nothing else
    def price(s, r, x):
        return (1.0 + f[0] * s + f[1] * s * s + g[0] * r + g[1] * r * r + h[0] * x + h[1] * x * x
                + kappa * r * x + lam * s * r)

    grid, path_r, path_x = [0.0], [r0], [x0]
    for ds, r, x in steps:
        grid.append(grid[-1] + ds)
        path_r.append(r)
        path_x.append(x)
    snaps = {u: ScalarState(curve=r, factors=x, fx=1.0) for u, r, x in zip(grid, path_r, path_x)}
    _, engine = attribute_position(Position("toy", Bucket.OTHER, price), snaps, grid)
    ladder = grid_ito_decomposition(price, path_r, path_x, grid)

    moves = [(s1 - s0, r1 - r0, x1 - x0) for s0, s1, r0, r1, x0, x1
             in zip(grid, grid[1:], path_r, path_r[1:], path_x, path_x[1:])]
    rate_cross = math.fsum(0.5 * kappa * dr * dx + 0.5 * lam * ds * dr for ds, dr, dx in moves)
    market_cross = math.fsum(0.5 * kappa * dr * dx for _, dr, dx in moves)
    # round-off: about u |a| / step per first difference and u |a| / step**2 per second difference,
    # each times its state move; on these inputs |a| < 6 and every state's step is DERIVATIVE_STEP
    u, size, step = 2.0**-53, 6.0, DERIVATIVE_STEP
    tol = 8 * u * size * math.fsum(1.0 + (abs(dr) + abs(dx)) / step + (dr * dr + dx * dx) / step**2
                                   for _, dr, dx in moves)
    assert abs((engine.rate - ladder.rate) - rate_cross) <= tol
    assert abs((engine.market - ladder.market) - market_cross) <= tol
