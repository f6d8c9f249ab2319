import copy
import csv
import io
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from pnlattr import path_oracle
from pnlattr import (
    FxMode,
    GbmSpec,
    InvalidCorrelation,
    LengthMismatch,
    NonFiniteDerivative,
    PathSet,
    PricerEvaluationFailed,
    SimulationError,
    SimulationParams,
    StudyResult,
    compare_coarse_vs_fine,
    covariation_study,
    grid_ito_decomposition,
    simulate_paths,
    write_discrepancy_csv,
)

from conftest import product_rule

TWO_GBM = SimulationParams(
    processes=(
        GbmSpec("asset", initial=100.0, drift=0.03, volatility=0.2),
        GbmSpec("fx", initial=1.1, drift=0.0, volatility=0.1),
    ),
)


def test_zero_vol_zero_drift_paths_are_constant():
    params = SimulationParams(processes=(
        GbmSpec("asset", initial=100.0),
        GbmSpec("fx", initial=1.1),
    ))
    paths = simulate_paths(params, n_steps=8, seed=3)
    assert np.all(paths.paths["asset"] == 100.0)
    assert np.all(paths.paths["fx"] == 1.1)


def test_same_seed_is_bit_identical():
    a = simulate_paths(TWO_GBM, n_steps=32, seed=7)
    b = simulate_paths(TWO_GBM, n_steps=32, seed=7)
    assert np.array_equal(a.grid, b.grid)
    for name in a.paths:
        assert np.array_equal(a.paths[name], b.paths[name])
    c = simulate_paths(TWO_GBM, n_steps=32, seed=8)
    assert not np.array_equal(a.paths["asset"], c.paths["asset"])


def test_bad_inputs_rejected():
    with pytest.raises(InvalidCorrelation):
        simulate_paths(
            SimulationParams(processes=TWO_GBM.processes,
                             correlation=np.array([[1.0, 1.5], [1.5, 1.0]])),
            n_steps=4, seed=0,
        )
    with pytest.raises(InvalidCorrelation):
        simulate_paths(
            SimulationParams(processes=TWO_GBM.processes,
                             correlation=np.array([[1.0, 0.2], [0.6, 1.0]])),
            n_steps=4, seed=0,
        )
    with pytest.raises(ValueError):
        simulate_paths(TWO_GBM, n_steps=0, seed=0)
    with pytest.raises(ValueError):
        GbmSpec("asset", initial=100.0, volatility=-0.1)
    with pytest.raises(ValueError):
        GbmSpec("asset", initial=100.0, jump_size=-1.0)


@pytest.mark.parametrize("field", ["initial", "drift", "volatility", "jump_size"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_gbm_spec_rejects_a_non_finite_number_naming_it(field, value):
    with pytest.raises(ValueError, match=f"^asset: {field} must be finite, got {value!r}$"):
        GbmSpec("asset", **{"initial": 100.0, field: value})


@pytest.mark.parametrize("field", ["horizon", "jump_intensity"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_simulation_params_reject_a_non_finite_number_naming_it(field, value):
    # a nan jump_intensity used to simulate without jumps, as if it were 0
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value!r}$"):
        SimulationParams(TWO_GBM.processes, **{field: value})


@pytest.mark.parametrize("matrix, message", [
    ([[1.0, math.nan], [math.nan, 1.0]], "correlation entries must be finite"),
    ([[1.0, math.inf], [0.5, 1.0]], "correlation entries must be finite"),  # checked before symmetry
    ([[0.9, 0.2], [0.2, 1.0]], "correlation diagonal must be 1"),
    # off by less than numpy's default relative tolerance of 1e-5, which the checks do not apply
    ([[0.999991, 0.5], [0.500004, 1.0]], "correlation matrix must be symmetric"),
    ([[0.999991, 0.5], [0.5, 0.999991]], "correlation diagonal must be 1"),
    ([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]],
     r"correlation matrix not positive semidefinite \(min eigenvalue -0\.\d+\)"),
], ids=["nan", "inf-asymmetric", "diagonal", "asymmetric-within-rtol", "diagonal-within-rtol", "not-psd"])
def test_bad_correlation_names_its_fault(matrix, message):
    processes = tuple(GbmSpec(f"p{i}", initial=1.0) for i in range(len(matrix)))
    with pytest.raises(InvalidCorrelation, match=f"^{message}$"):
        SimulationParams(processes, correlation=matrix)


def test_perfect_correlation_is_valid():
    params = SimulationParams(processes=TWO_GBM.processes,
                              correlation=np.array([[1.0, 1.0], [1.0, 1.0]]))
    paths = simulate_paths(params, n_steps=16, seed=1)
    # identical driving noise: log-returns are proportional
    la = np.diff(np.log(paths.paths["asset"]))
    lf = np.diff(np.log(paths.paths["fx"]))
    da = (la - la.mean()) / 0.2
    df = (lf - lf.mean()) / 0.1
    assert np.allclose(da, df, atol=1e-10)


def test_fx_path_stays_positive_even_with_huge_vol():
    params = SimulationParams(processes=(
        GbmSpec("asset", initial=100.0, volatility=3.0),
        GbmSpec("fx", initial=1.0, volatility=2.5),
    ))
    paths = simulate_paths(params, n_steps=16, seed=11)
    assert np.all(paths.paths["fx"] > 0.0)
    assert np.all(paths.paths["asset"] > 0.0)


def test_three_point_product_decomposition():
    dec = product_rule([100.0, 105.0, 110.0], [1.0, 1.1, 1.2])
    assert dec.fine_fx[0] == pytest.approx(20.5, rel=1e-12)
    assert dec.fine_asset[0] == pytest.approx(10.5, rel=1e-12)
    assert dec.covariation[0] == pytest.approx(1.0, rel=1e-12)
    assert dec.total[0] == pytest.approx(32.0, rel=1e-14)
    assert dec.fine_fx[0] + dec.fine_asset[0] + dec.covariation[0] == pytest.approx(32.0, rel=1e-14)


def test_constant_fx_collapses_to_asset_integral():
    dec = product_rule([100.0, 103.0, 99.0, 108.0], [1.5, 1.5, 1.5, 1.5])
    assert dec.fine_fx[0] == 0.0
    assert dec.covariation[0] == 0.0
    assert dec.fine_asset[0] == pytest.approx(1.5 * 8.0, rel=1e-14)


def test_single_step_decomposition():
    dec = product_rule([100.0, 110.0], [1.0, 1.2])
    assert dec.fine_fx[0] == pytest.approx(100 * 0.2, rel=1e-12)
    assert dec.fine_asset[0] == pytest.approx(1.0 * 10, rel=1e-12)
    assert dec.covariation[0] == pytest.approx(10 * 0.2, rel=1e-12)


def test_length_mismatch_rejected():
    # paths of unequal length, and paths of fewer than two points, have no product-rule sums
    with pytest.raises(LengthMismatch):
        product_rule([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(LengthMismatch):
        product_rule([1.0], [1.0])


def test_telescoping_identity_on_simulated_paths():
    for seed in range(20):
        paths = simulate_paths(TWO_GBM, n_steps=256, seed=seed)
        a, chi = paths.paths["asset"], paths.paths["fx"]
        dec = product_rule(a, chi)
        total = a[-1] * chi[-1] - a[0] * chi[0]
        parts = dec.fine_fx[0] + dec.fine_asset[0] + dec.covariation[0]
        assert abs(parts - total) <= 1e-12 * max(1.0, abs(a[-1] * chi[-1]), abs(a[0] * chi[0]))


def test_manual_common_jump_lands_in_covariation():
    # flat paths except one synchronized jump: the covariation must carry
    # exactly the product of the two jump sizes
    a = np.array([100.0, 100.0, 105.0, 105.0])
    chi = np.array([1.0, 1.0, 1.1, 1.1])
    dec = product_rule(a, chi)
    assert dec.covariation[0] == pytest.approx(5.0 * 0.1, rel=1e-12)
    assert dec.fine_fx[0] == pytest.approx(100 * 0.1, rel=1e-12)
    assert dec.fine_asset[0] == pytest.approx(1.0 * 5.0, rel=1e-12)


def test_simulated_common_jumps_keep_the_identity():
    params = SimulationParams(
        processes=(
            GbmSpec("asset", initial=100.0, volatility=0.15, jump_size=0.08),
            GbmSpec("fx", initial=1.1, volatility=0.08, jump_size=-0.05),
        ),
        jump_intensity=8.0,
    )
    jumped = False
    for seed in range(10):
        paths = simulate_paths(params, n_steps=128, seed=seed)
        a, chi = paths.paths["asset"], paths.paths["fx"]
        dec = product_rule(a, chi)
        total = a[-1] * chi[-1] - a[0] * chi[0]
        assert abs(dec.fine_fx[0] + dec.fine_asset[0] + dec.covariation[0] - total) <= 1e-12 * max(
            1.0, abs(total), abs(a[0] * chi[0])
        )
        jumped = jumped or np.any(np.abs(np.diff(np.log(a))) > 0.05)
    assert jumped


def test_pathset_validation():
    with pytest.raises(LengthMismatch):
        PathSet(grid=[0.0, 0.5, 1.0], paths={"asset": [1.0, 2.0]}, seed=0)
    with pytest.raises(ValueError):
        PathSet(grid=[0.0, 1.0], paths={"fx": [1.0, -0.5]}, seed=0)


def test_pathset_copies_and_freezes_arrays_leaving_the_callers_writeable():
    grid, fx = np.linspace(0.0, 1.0, 3), np.array([1.0, 1.1, 1.2])
    paths = PathSet(grid=grid, paths={"fx": fx}, seed=0)
    assert grid.flags.writeable and fx.flags.writeable
    assert paths.grid is not grid and paths.paths["fx"] is not fx
    assert not paths.grid.flags.writeable and not paths.paths["fx"].flags.writeable
    assert np.array_equal(paths.grid, grid) and np.array_equal(paths.paths["fx"], fx)
    grid[1] = fx[1] = 0.25  # the caller's arrays change, the PathSet's do not
    assert paths.grid[1] == 0.5 and paths.paths["fx"][1] == 1.1


def test_ito_linear_pricer_recovers_closed_forms():
    theta, beta, gamma = 4.0, 200.0, -70.0
    def pricer(s, r, x):
        return 50.0 + theta * s + beta * r + gamma * x
    n = 64
    grid = np.linspace(0.0, 1.0, n + 1)
    path_r = np.linspace(0.01, 0.03, n + 1)
    path_x = np.linspace(0.05, 0.02, n + 1)
    dec = grid_ito_decomposition(pricer, path_r, path_x, grid)
    assert dec.carry == pytest.approx(theta * 1.0, abs=1e-6)
    assert dec.rate == pytest.approx(beta * 0.02, abs=1e-6)
    assert dec.market == pytest.approx(gamma * -0.03, abs=1e-6)
    assert abs(dec.residual) < 1e-6


def test_ito_constant_paths_is_pure_carry():
    def pricer(s, r, x):
        return 10.0 + 3.5 * s - 40.0 * r + 15.0 * x
    n = 128
    grid = np.linspace(0.0, 1.0, n + 1)
    r = np.full(n + 1, 0.02)
    x = np.full(n + 1, 0.04)
    dec = grid_ito_decomposition(pricer, r, x, grid)
    assert dec.rate == pytest.approx(0.0, abs=1e-12)
    assert dec.market == pytest.approx(0.0, abs=1e-12)
    assert dec.carry == pytest.approx(dec.total, abs=1e-8)


def test_ito_constant_paths_nonlinear_time_error_is_reported():
    # left-endpoint sums under-shoot a convex time drift by O(1/n); the gap
    # lands in residual instead of being silently re-absorbed
    def pricer(s, r, x):
        return 10.0 * math.exp(0.3 * s) - 40.0 * r + 15.0 * x
    n = 128
    grid = np.linspace(0.0, 1.0, n + 1)
    r = np.full(n + 1, 0.02)
    x = np.full(n + 1, 0.04)
    dec = grid_ito_decomposition(pricer, r, x, grid)
    assert dec.rate == pytest.approx(0.0, abs=1e-12)
    assert dec.market == pytest.approx(0.0, abs=1e-12)
    assert dec.carry == pytest.approx(dec.total, rel=2e-3)
    assert dec.residual == pytest.approx(dec.total - dec.carry, abs=1e-12)
    assert dec.residual > 0.0


def test_ito_residual_shrinks_with_refinement():
    def pricer(s, r, x):
        return (100.0 + 10.0 * s) * (1.0 - 2.0 * r + 30.0 * r * r) + 5.0 * x
    def run(n):
        # half-period swing so the leading cross-term error survives and
        # decays like 1/n instead of cancelling into noise
        grid = np.linspace(0.0, 1.0, n + 1)
        path_r = 0.02 + 0.015 * np.sin(0.5 * math.pi * grid)
        path_x = 0.05 - 0.02 * grid
        return abs(grid_ito_decomposition(pricer, path_r, path_x, grid).residual)
    assert run(1024) < run(16)


@pytest.mark.parametrize("n", [1, 2, 5, 32])
def test_ito_ladder_prices_7n_plus_1_times(n):
    # seven prices per step, and the total reuses the first step's start price
    calls = []

    def pricer(s, r, x):
        calls.append((s, r, x))
        return 100.0 + 3.0 * s - 40.0 * r + 15.0 * x + 60.0 * r * x

    grid = np.linspace(0.0, 1.0, n + 1)
    path_r, path_x = np.linspace(0.01, 0.03, n + 1), np.linspace(0.05, 0.02, n + 1)
    dec = grid_ito_decomposition(pricer, path_r, path_x, grid)
    assert len(calls) == 7 * n + 1
    assert calls.count((0.0, 0.01, 0.05)) == 1
    assert dec.total == pricer(1.0, 0.03, 0.02) - pricer(0.0, 0.01, 0.05)


def test_ito_nonfinite_derivative():
    def pricer(s, r, x):
        return float("nan") if r < 0.02 else r  # nan just below 0.02
    grid = [0.0, 1.0]
    with pytest.raises(NonFiniteDerivative):
        grid_ito_decomposition(pricer, [0.02, 0.02], [0.0, 0.0], grid)


def test_ito_paths_must_match_the_grid_and_have_two_points():
    def pricer(s, r, x):
        return 100.0 + s + r + x
    with pytest.raises(LengthMismatch, match="^lengths differ: grid 3, r 2, x 3$"):
        grid_ito_decomposition(pricer, [0.01, 0.02], [0.0, 0.1, 0.2], [0.0, 0.5, 1.0])
    with pytest.raises(LengthMismatch, match="^grid needs at least two points$"):
        grid_ito_decomposition(pricer, [0.01], [0.0], [0.0])


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_ito_nonfinite_end_price(bad):
    # the last grid point's price enters only the total, so no derivative check sees it
    def pricer(s, r, x):
        return bad if s == 1.0 else 100.0 + s + r + x
    with pytest.raises(PricerEvaluationFailed, match=rf"^non-finite price {bad!r} at grid index 1 \(time 1.0\)$"):
        grid_ito_decomposition(pricer, [0.01, 0.02], [0.0, 0.1], [0.0, 1.0])


def test_coarse_and_fine_agree_on_the_total():
    for seed in (0, 5, 9):
        paths = simulate_paths(TWO_GBM, n_steps=64, seed=seed)
        for mode in FxMode:
            cmp = compare_coarse_vs_fine(paths, mode)
            coarse_total = cmp.coarse_fx[0] + cmp.coarse_asset[0]
            fine_total = cmp.fine_fx[0] + cmp.fine_asset[0] + cmp.covariation[0]
            assert coarse_total == pytest.approx(fine_total, rel=1e-12)
            assert coarse_total == pytest.approx(cmp.total[0], rel=1e-12)


def test_fx_mode_that_is_not_an_fx_mode_is_a_value_error():
    paths = simulate_paths(TWO_GBM, n_steps=4, seed=0)
    with pytest.raises(ValueError, match="^unknown fx mode 'average'$"):
        compare_coarse_vs_fine(paths, "average")
    # a study checks it before it draws, and so simulates, a seed
    drawn = []

    def seeds():
        for seed in range(1000):
            drawn.append(seed)
            yield seed

    with pytest.raises(ValueError, match="^unknown fx mode 'average'$"):
        covariation_study(TWO_GBM, 256, seeds(), "average")
    assert drawn == []


def test_one_row_study_checks_its_mode_before_any_sum(monkeypatch):
    def refused(x):
        raise AssertionError("row sums taken")

    monkeypatch.setattr(path_oracle, "_exact_row_sums", refused)
    with pytest.raises(ValueError, match="^unknown fx mode 'average'$"):
        compare_coarse_vs_fine(simulate_paths(TWO_GBM, n_steps=4, seed=0), "average")


def test_zero_vol_study_has_no_discrepancy():
    params = SimulationParams(processes=(
        GbmSpec("asset", initial=100.0),
        GbmSpec("fx", initial=1.1),
    ))
    cmp = compare_coarse_vs_fine(simulate_paths(params, 16, seed=0))
    assert cmp.coarse_fx == cmp.fine_fx
    assert cmp.coarse_asset == cmp.fine_asset
    assert cmp.covariation == (0.0,)


def test_study_and_csv_report():
    study = covariation_study(TWO_GBM, n_steps=16, seeds=range(12))
    assert isinstance(study, StudyResult)
    assert study.seeds == tuple(range(12))
    assert math.isfinite(study.covariation_mean)
    assert study.covariation_stderr > 0.0
    text = write_discrepancy_csv(study)
    lines = text.strip().splitlines()
    assert lines[0] == "seed,n_steps,component,coarse,fine,diff"
    assert len(lines) == 1 + 3 * 12
    # deterministic: same seeds, same text
    assert write_discrepancy_csv(covariation_study(TWO_GBM, n_steps=16, seeds=range(12))) == text


def _seedwise_values(params, n_steps, seed):
    """Reference simulation: one seed, one generator, no batching."""
    specs = params.processes
    factor = path_oracle._correlation_factor(params.correlation, len(specs))
    rng = np.random.default_rng(seed)
    normals = rng.standard_normal((n_steps, len(specs)))
    if factor is not None:
        normals = normals @ factor.T
    dt = params.horizon / n_steps
    drift = np.array([s.drift for s in specs])
    vol = np.array([s.volatility for s in specs])
    initial = np.array([s.initial for s in specs])
    log_steps = (drift - 0.5 * vol**2) * dt + vol * math.sqrt(dt) * normals
    if params.jump_intensity > 0.0:
        counts = rng.poisson(params.jump_intensity * dt, n_steps)
        jump_logs = np.array([math.log1p(s.jump_size) for s in specs])
        log_steps = log_steps + counts[:, None] * jump_logs[None, :]
    log_paths = np.vstack([np.zeros(len(specs)), np.cumsum(log_steps, axis=0)])
    return initial[None, :] * np.exp(log_paths)


@st.composite
def study_inputs(draw):
    names = draw(st.permutations(["asset", "fx", "rate"]))
    jumps = draw(st.booleans())
    specs = tuple(
        GbmSpec(
            name,
            initial=draw(st.floats(0.5, 150.0)),
            drift=draw(st.floats(-0.1, 0.1)),
            volatility=draw(st.floats(0.0, 0.6)),
            jump_size=draw(st.floats(-0.2, 0.2)) if jumps else 0.0,
        )
        for name in names
    )
    rho = draw(st.sampled_from([None, 0.35, 1.0, -1.0]))
    correlation = None
    if rho is not None:
        i, j = names.index("asset"), names.index("fx")
        correlation = np.eye(3)
        correlation[i, j] = correlation[j, i] = rho
    params = SimulationParams(
        processes=specs,
        horizon=draw(st.sampled_from([1.0, 0.25, 3.5])),
        correlation=correlation,
        jump_intensity=draw(st.floats(0.5, 6.0)) if jumps else 0.0,
    )
    n_seeds = draw(st.integers(0, 70))
    # up to 2**130: seeds from 2**128 on go to default_rng, not derivation
    seeds = draw(st.lists(st.integers(0, 2**130), min_size=n_seeds, max_size=n_seeds))
    if n_seeds >= 2 and draw(st.booleans()):
        seeds[-1] = seeds[0]
    return params, draw(st.integers(1, 40)), seeds, draw(st.sampled_from(FxMode))


# No shrink phase: an example simulates up to 70 seeds four times, so
# shrinking a failure took minutes; the first failing example is reported.
@settings(max_examples=60, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(inputs=study_inputs())
# 41 seeds across the 64-bit seed word edge: one block, and with 20-seed
# blocks two full blocks and a last block of one seed
@example(inputs=(SimulationParams(TWO_GBM.processes, jump_intensity=2.0), 8, list(range(2**64 - 20, 2**64 + 21)),
                 FxMode.AVERAGE))
def test_batched_study_equals_seedwise_route(inputs):
    params, n_steps, seeds, fx_mode = inputs
    seedwise = []
    for seed in seeds:
        paths = simulate_paths(params, n_steps, seed)
        reference = _seedwise_values(params, n_steps, seed)
        for j, spec in enumerate(params.processes):
            assert np.array_equal(paths.paths[spec.name], reference[:, j])
        seedwise.append(compare_coarse_vs_fine(paths, fx_mode))
    expected_study = StudyResult(tuple(seedwise))
    expected = write_discrepancy_csv(expected_study)
    # 20-seed blocks: up to 70 seeds cross up to three block edges
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(path_oracle, "_BLOCK", 20)
        assert write_discrepancy_csv(covariation_study(params, n_steps, seeds, fx_mode)) == expected
    study = covariation_study(params, n_steps, seeds, fx_mode)
    assert study == expected_study and hash(study) == hash(expected_study) and repr(study) == repr(expected_study)
    assert write_discrepancy_csv(study) == expected


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**128 - 1), min_size=1, max_size=40))
@example(seeds=[0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**127, 2**128 - 1])  # the seed word edges
@pytest.mark.filterwarnings("error")  # uint32 wraparound must not warn
def test_derived_states_equal_numpys(seeds):
    assert path_oracle._pcg64_states(seeds) == [np.random.PCG64(seed).state for seed in seeds]


def test_seeds_outside_the_derivation_take_default_rngs_stream_or_error():
    outside = [2**128, np.int64(7), True, -1]
    assert path_oracle._pcg64_states(list(range(20)) + outside)[20:] == [None] * 4
    params = SimulationParams(processes=TWO_GBM.processes, jump_intensity=2.0)
    seeds = list(range(20)) + outside[:3]
    study = covariation_study(params, 16, seeds)
    expected = StudyResult(compare_coarse_vs_fine(simulate_paths(params, 16, seed)) for seed in seeds)
    assert study == expected and write_discrepancy_csv(study) == write_discrepancy_csv(expected)
    for seed in outside[:3]:
        paths = simulate_paths(params, 16, seed).paths
        reference = _seedwise_values(params, 16, seed)
        assert np.array_equal(np.column_stack((paths["asset"], paths["fx"])), reference)
    with pytest.raises(ValueError) as want:
        np.random.default_rng(-1)
    with pytest.raises(ValueError) as got:
        covariation_study(params, 16, list(range(20)) + [-1])
    assert str(got.value) == str(want.value)


def test_seeds_in_the_derivation_take_no_default_rng(monkeypatch):
    # 69 seeds: a full block and a last block of 5, each derived, as is one seed alone
    params = SimulationParams(processes=TWO_GBM.processes, jump_intensity=2.0)
    references = [_seedwise_values(params, 16, seed) for seed in range(69)]

    def refused(*args):
        raise AssertionError(f"default_rng{args} called")

    monkeypatch.setattr(np.random, "default_rng", refused)
    study = covariation_study(params, 16, range(69))
    paths = [simulate_paths(params, 16, seed) for seed in range(69)]
    for path, reference in zip(paths, references):
        assert np.array_equal(np.column_stack((path.paths["asset"], path.paths["fx"])), reference)
    assert study == StudyResult(map(compare_coarse_vs_fine, paths))


def test_study_is_one_record_of_columns_that_one_row_studies_join_into():
    study = covariation_study(CLI_PARAMS, 16, range(40))
    text = write_discrepancy_csv(study)
    assert math.isfinite(study.covariation_mean) and study.covariation_stderr > 0.0
    assert study.seeds == tuple(range(40)) and study.n_steps == (16,) * 40
    assert study.covariation_mean == np.mean(study.covariation)
    rows = [compare_coarse_vs_fine(simulate_paths(CLI_PARAMS, 16, seed)) for seed in range(40)]
    assert all(type(value) is float for row in rows for column in row._values()[2:] for value in column)
    for joined in (StudyResult(rows), StudyResult(iter(rows)), StudyResult((StudyResult(rows[:7]), StudyResult(),
                                                                              StudyResult(rows[7:])))):
        assert joined == study and hash(joined) == hash(study) and repr(joined) == repr(study)
        assert vars(joined) == vars(study) and write_discrepancy_csv(joined) == text
    for twin in (copy.copy(study), copy.deepcopy(study), pickle.loads(pickle.dumps(study))):
        assert twin == study and hash(twin) == hash(study) and repr(twin) == repr(study)
        assert vars(twin) == vars(study) and write_discrepancy_csv(twin) == text


def test_study_of_no_seeds_is_empty():
    empty = covariation_study(TWO_GBM, n_steps=8, seeds=[])
    assert empty == StudyResult() and empty.seeds == empty.total == ()
    assert write_discrepancy_csv(empty) == "seed,n_steps,component,coarse,fine,diff\n"


def test_study_without_fx_path_raises_key_error():
    params = SimulationParams(processes=(
        GbmSpec("asset", initial=100.0, volatility=0.2),
        GbmSpec("rate", initial=1.0, volatility=0.1),
    ))
    with pytest.raises(KeyError):
        compare_coarse_vs_fine(simulate_paths(params, 8, seed=0))
    with pytest.raises(KeyError):
        covariation_study(params, n_steps=8, seeds=range(40))


def test_study_checks_and_factors_the_correlation_once(monkeypatch):
    calls = []
    factor = path_oracle._correlation_factor

    def counting_factor(*args):
        calls.append(args)
        return factor(*args)

    monkeypatch.setattr(path_oracle, "_correlation_factor", counting_factor)
    with pytest.raises(InvalidCorrelation, match=r"^correlation entries must lie in \[-1, 1\]$"):
        SimulationParams(processes=TWO_GBM.processes, correlation=np.array([[1.0, 1.5], [1.5, 1.0]]))
    good = SimulationParams(processes=TWO_GBM.processes, correlation=np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert len(calls) == 2
    assert good._factor == tuple(map(tuple, factor(good.correlation, 2).tolist()))
    assert len(covariation_study(good, n_steps=8, seeds=range(70)).seeds) == 70
    for seed in range(3):
        simulate_paths(good, n_steps=8, seed=seed)
    assert len(calls) == 2


def test_study_rejects_fx_path_that_reaches_zero():
    # exp underflows to 0 after a few steps at this volatility
    params = SimulationParams(processes=(
        GbmSpec("asset", initial=100.0, volatility=0.2),
        GbmSpec("fx", initial=1.0, volatility=60.0),
    ))
    with pytest.raises(ValueError, match="fx trajectory must stay strictly positive"):
        simulate_paths(params, n_steps=4, seed=0)
    with pytest.raises(ValueError, match="fx trajectory must stay strictly positive"):
        covariation_study(params, n_steps=4, seeds=range(40))


@pytest.mark.filterwarnings("error")
def test_study_names_the_first_seed_whose_path_overflows():
    # about 14,400 jumps of +5% in one step: exp overflows on roughly a third of the seeds
    params = SimulationParams(
        processes=(GbmSpec("asset", initial=100.0, volatility=0.2, jump_size=0.05),
                   GbmSpec("fx", initial=1.0, volatility=0.1, jump_size=-0.01)),
        jump_intensity=14_400.0,
    )
    bad = []
    for seed in range(40):
        try:
            simulate_paths(params, n_steps=1, seed=seed)
        except SimulationError as exc:
            bad.append(seed)
            assert str(exc) == f"seed {seed}: process 'asset' path is not finite"
    assert 0 < len(bad) < 40 and bad[0] > 0
    with pytest.raises(SimulationError, match=f"^seed {bad[0]}: process 'asset' path is not finite$"):
        covariation_study(params, n_steps=1, seeds=range(40))


def _fsum_rows(x):
    return [math.fsum(row) for row in x.tolist()]


def _hex(values):
    return [v.hex() for v in values]


def _outcome(row_sums, x):
    """The row sums as hex, or the class and text of the error raised."""
    try:
        return _hex(row_sums(x))
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


# widths n about n + 2 = 2**j, where the extraction's sigma = 2**(e + k) steps up
EDGE_WIDTHS = [1, 2, 6, 14, 30, 62, 126, 254, 255, 256, 257]
SPOILERS = [[math.inf], [-math.inf], [math.nan], [math.inf, -math.inf], [2.0**1023, 2.0**1023, -2.0**1023]]


@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(1, 100),
    width=st.sampled_from(EDGE_WIDTHS) | st.integers(1, 300),
    spread=st.integers(0, 300),
    special=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**32 - 1),
    spoiled=st.integers(0, 3),
)
def test_exact_row_sums_equal_fsum(rows, width, spread, special, seed, spoiled):
    rng = np.random.default_rng(seed)
    centre = rng.integers(-300 + spread // 2, 301 - spread // 2, (rows, 1))
    offset = rng.integers(-(spread // 2), spread // 2 + 1, (rows, width))
    x = rng.standard_normal((rows, width)) * 10.0 ** (centre + offset)
    # signed zeros and subnormals in place of a share of the entries
    kind = rng.random((rows, width))
    zeros = np.where(rng.random((rows, width)) < 0.5, 0.0, -0.0)
    subnormals = np.ldexp(rng.integers(-2**52, 2**52, (rows, width)).astype(float), -1074)
    x = np.where(kind < special / 2, zeros, np.where(kind < special, subnormals, x))
    # every third row is followed by its negated reverse, so it cancels exactly
    half = width // 2
    x[::3, width - half:] = -x[::3, :half][:, ::-1]
    # rows whose largest magnitude is exactly a power of two
    for i in range(1, rows, 5):
        top = math.ldexp(1.0, math.frexp(np.abs(x[i]).max())[1])
        x[i, rng.integers(width)] = top if rng.random() < 0.5 else -top
    # half-ulp ties and near-ties: a, a half ulp of a, and pairs that cancel
    for i in range(2, rows, 5):
        if width >= 2:
            a = rng.standard_normal() * 2.0 ** rng.integers(-800, 800)
            x[i, 0] = a
            x[i, 1] = math.ulp(a) / 2 * rng.choice([1.0, -1.0, 1.0 + 2.0**-30, -1.0 + 2.0**-30])
            pairs = (width - 2) // 2
            x[i, 2 : 2 + pairs] = x[i - 1, :pairs]
            x[i, 2 + pairs : 2 + 2 * pairs] = -x[i - 1, :pairs][::-1]
            x[i, 2 + 2 * pairs :] = 0.0
    x[4::7] = -0.0
    # non-finite and overflowing rows: fsum's first error, in row order, comes through
    for i in rng.choice(rows, min(spoiled, rows), replace=False):
        spoiler = SPOILERS[rng.integers(len(SPOILERS))][:width]
        x[i, : len(spoiler)] = spoiler
    if seed % 2:
        x = np.asfortranarray(x)  # the sums hold in either layout
    assert _outcome(path_oracle._exact_row_sums, x) == _outcome(_fsum_rows, x)


def _counting_fsum(monkeypatch):
    calls = []
    fsum = math.fsum

    def counted(values):
        calls.append(list(values))
        return fsum(values)

    monkeypatch.setattr(path_oracle.math, "fsum", counted)
    return calls


def test_exact_row_sums_take_the_array_pass_on_few_rows(monkeypatch):
    # rows of 256 values, as in the oracle workload: their exact sums hold bits far below
    # the last place, so none is a tie, which the pass leaves to fsum (see the test below)
    rng = np.random.default_rng(11)
    arrays = [rng.standard_normal((rows, 256)) * 10.0 ** rng.integers(-5, 5, (rows, 1)) for rows in range(1, 16)]
    expected = [_fsum_rows(x) for x in arrays]
    calls = _counting_fsum(monkeypatch)
    for x, sums in zip(arrays, expected):
        assert _hex(path_oracle._exact_row_sums(x)) == _hex(sums)
    assert calls == []


def test_exact_row_sums_fall_back_to_fsum_on_special_rows(monkeypatch):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((20, 7))
    x[1, 3] = math.inf
    x[2, 0] = math.nan
    x[3] = [2.0**1000, 2.0**1000, -2.0**1000, 1.0, 0.0, 0.0, 0.0]
    x[4] = [1.0, 2.0**-53, 0.0, 0.0, 0.0, 0.0, 0.0]  # an exact tie: fsum rounds it to even
    x[5] = [1.0, 2.0**-53, 2.0**-100, 0.0, 0.0, 0.0, 0.0]  # just above the tie
    x[6] = 0.0
    expected = _fsum_rows(x)
    assert expected[4] == 1.0 and expected[5] == 1.0 + 2.0**-52
    calls = _counting_fsum(monkeypatch)
    assert _hex(path_oracle._exact_row_sums(x)) == _hex(expected)
    # every special row but the one above the tie, which the array pass certifies
    assert repr(calls) == repr([x[i].tolist() for i in (1, 2, 3, 4, 6)])

    # fsum's own errors come through unchanged
    raising = (([math.inf, -math.inf], ValueError), ([2.0**1023, 2.0**1023, -2.0**1023], OverflowError))
    for row, error in raising:
        x[7] = 0.0
        x[7, :len(row)] = row
        with pytest.raises(error) as want:
            math.fsum(x[7].tolist())
        with pytest.raises(error) as got:
            path_oracle._exact_row_sums(x)
        assert str(got.value) == str(want.value)


def test_exact_row_sums_certify_nearly_every_oracle_row(monkeypatch):
    params = SimulationParams(
        processes=(
            GbmSpec("asset", initial=100.0, volatility=0.2, jump_size=0.05),
            GbmSpec("fx", initial=1.0, volatility=0.1, jump_size=-0.03),
        ),
        correlation=((1.0, 0.5), (0.5, 1.0)),
        jump_intensity=3.0,
    )
    calls = _counting_fsum(monkeypatch)
    study = covariation_study(params, n_steps=256, seeds=range(200))
    assert len(study.seeds) == 200
    assert len(calls) <= 0.01 * 3 * 200


def _csv_reference(study):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["seed", "n_steps", "component", "coarse", "fine", "diff"])
    for seed, n, cfx, cas, ffx, fas, cov in zip(study.seeds, study.n_steps, study.coarse_fx, study.coarse_asset,
                                                study.fine_fx, study.fine_asset, study.covariation):
        for component, coarse, fine, diff in (("fx", cfx, ffx, cfx - ffx), ("asset", cas, fas, cas - fas),
                                              ("covariation", 0.0, cov, -cov)):
            writer.writerow([seed, n, component, repr(coarse), repr(fine), repr(diff)])
    return out.getvalue()


def test_discrepancy_csv_equals_csv_writer_output():
    # an asset path that overflowed, as callers may build them
    with np.errstate(all="ignore"):
        overflowed = StudyResult(
            compare_coarse_vs_fine(PathSet(grid=[0.0, 1.0], seed=seed,
                                           paths={"asset": [100.0, math.inf], "fx": [1.0, fx_end]}))
            for seed, fx_end in enumerate((1e-265, 0.5, 2.0))
        )
    text = write_discrepancy_csv(overflowed)
    assert "inf" in text and "nan" in text
    assert text == _csv_reference(overflowed)
    plain = covariation_study(TWO_GBM, n_steps=8, seeds=range(40))
    assert write_discrepancy_csv(plain) == _csv_reference(plain)


def test_mean_and_stderr_of_too_few_covariations_are_nan_without_a_warning():
    one = covariation_study(TWO_GBM, n_steps=8, seeds=[3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for study in (StudyResult(()), covariation_study(TWO_GBM, n_steps=8, seeds=[])):
            assert math.isnan(study.covariation_mean) and math.isnan(study.covariation_stderr)
        assert one.covariation_mean == one.covariation[0]
        assert math.isnan(one.covariation_stderr)


CLI_PARAMS = SimulationParams(
    processes=(GbmSpec("asset", initial=100.0, volatility=0.2, jump_size=0.05),
               GbmSpec("fx", initial=1.0, volatility=0.1, jump_size=-0.03)),
    correlation=((1.0, 0.5), (0.5, 1.0)),
    jump_intensity=3.0,
)


def test_telescoping_failure_names_the_first_failing_row(monkeypatch):
    row_sums = path_oracle._exact_row_sums

    def planted(x):
        # the fx sums of the 2nd and later seeds of each block miss by 1e6 per seed
        return [s + 1e6 * (i // 3) if i % 3 == 0 else s for i, s in enumerate(row_sums(x))]

    monkeypatch.setattr(path_oracle, "_exact_row_sums", planted)
    message = "^telescoping identity violated by -1e\\+06$"  # the block's second seed, not a later one
    with pytest.raises(ValueError, match=message):
        covariation_study(CLI_PARAMS, 16, range(40))


def test_cli_simulation_error_after_the_first_block_writes_no_output(tmp_path, capsys):
    from pnlattr.cli import run_cli

    # about one seed in 150 overflows in its single step of some 14,150 jumps of +5%
    args = ["oracle", "--steps", "1", "--jump-intensity", "14150", "--num-seeds", "200"]
    params = SimulationParams(CLI_PARAMS.processes, jump_intensity=14150.0)
    first_bad = None
    for seed in range(200):
        try:
            simulate_paths(params, 1, seed)
        except SimulationError:
            first_bad = seed
            break
    assert first_bad is not None and first_bad >= path_oracle._BLOCK
    output = tmp_path / "oracle.csv"
    assert run_cli([*args, "--output", str(output)]) == 1
    assert not output.exists()
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: seed {first_bad}: process 'asset' path is not finite\n")
