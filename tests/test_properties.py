"""Property suites for the algebraic identities the engine is built on."""

from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnlattr import (
    FxMode,
    ZeroCurve,
    four_way_split,
    fx_split,
    grid_product_decomposition,
)

from conftest import ScalarState

values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
quotes = st.floats(min_value=0.01, max_value=100.0, allow_nan=False)
coeffs = st.floats(min_value=-200.0, max_value=200.0, allow_nan=False)
states = st.floats(min_value=-0.2, max_value=0.5, allow_nan=False)


@given(a_start=values, a_end=values, chi_start=quotes, chi_end=quotes,
       mode=st.sampled_from(FxMode))
def test_fx_split_sums_to_total(a_start, a_end, chi_start, chi_end, mode):
    fx_part, asset_part = fx_split(a_start, a_end, chi_start, chi_end, mode)
    total = a_end * chi_end - a_start * chi_start
    assert fx_part + asset_part == pytest.approx(total, rel=1e-9, abs=1e-6)


@given(a_start=values, a_end=values, chi=quotes, mode=st.sampled_from(FxMode))
def test_fx_isolation_constant_quote(a_start, a_end, chi, mode):
    fx_part, _ = fx_split(a_start, a_end, chi, chi, mode)
    assert fx_part == 0.0


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
    dec = grid_product_decomposition(asset, fx)
    total = asset[-1] * fx[-1] - asset[0] * fx[0]
    # rounding scales with the largest product along the path, not the endpoints
    scale = max(1.0, max(abs(a * c) for a, c in zip(asset, fx)))
    assert abs(dec.fx_integral + dec.asset_integral + dec.covariation - total) <= 1e-12 * scale


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
