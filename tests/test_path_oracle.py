import csv
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pnlattr import path_oracle
from pnlattr import (
    FxMode,
    GbmSpec,
    InvalidCorrelation,
    LengthMismatch,
    NonFiniteDerivative,
    PathSet,
    SimulationError,
    SimulationParams,
    StudyResult,
    compare_coarse_vs_fine,
    covariation_study,
    grid_ito_decomposition,
    grid_product_decomposition,
    simulate_paths,
    write_discrepancy_csv,
)

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
    dec = grid_product_decomposition([100.0, 105.0, 110.0], [1.0, 1.1, 1.2])
    assert dec.fx_integral == pytest.approx(20.5, rel=1e-12)
    assert dec.asset_integral == pytest.approx(10.5, rel=1e-12)
    assert dec.covariation == pytest.approx(1.0, rel=1e-12)
    assert dec.total == pytest.approx(32.0, rel=1e-14)
    assert dec.fx_integral + dec.asset_integral + dec.covariation == pytest.approx(32.0, rel=1e-14)


def test_constant_fx_collapses_to_asset_integral():
    dec = grid_product_decomposition([100.0, 103.0, 99.0, 108.0], [1.5, 1.5, 1.5, 1.5])
    assert dec.fx_integral == 0.0
    assert dec.covariation == 0.0
    assert dec.asset_integral == pytest.approx(1.5 * 8.0, rel=1e-14)


def test_single_step_decomposition():
    dec = grid_product_decomposition([100.0, 110.0], [1.0, 1.2])
    assert dec.fx_integral == pytest.approx(100 * 0.2, rel=1e-12)
    assert dec.asset_integral == pytest.approx(1.0 * 10, rel=1e-12)
    assert dec.covariation == pytest.approx(10 * 0.2, rel=1e-12)


def test_length_mismatch_rejected():
    with pytest.raises(LengthMismatch):
        grid_product_decomposition([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(LengthMismatch):
        grid_product_decomposition([1.0], [1.0])


def test_telescoping_identity_on_simulated_paths():
    for seed in range(20):
        paths = simulate_paths(TWO_GBM, n_steps=256, seed=seed)
        a, chi = paths.paths["asset"], paths.paths["fx"]
        dec = grid_product_decomposition(a, chi)
        total = a[-1] * chi[-1] - a[0] * chi[0]
        parts = dec.fx_integral + dec.asset_integral + dec.covariation
        assert abs(parts - total) <= 1e-12 * max(1.0, abs(a[-1] * chi[-1]), abs(a[0] * chi[0]))


def test_manual_common_jump_lands_in_covariation():
    # flat paths except one synchronized jump: the covariation must carry
    # exactly the product of the two jump sizes
    a = np.array([100.0, 100.0, 105.0, 105.0])
    chi = np.array([1.0, 1.0, 1.1, 1.1])
    dec = grid_product_decomposition(a, chi)
    assert dec.covariation == pytest.approx(5.0 * 0.1, rel=1e-12)
    assert dec.fx_integral == pytest.approx(100 * 0.1, rel=1e-12)
    assert dec.asset_integral == pytest.approx(1.0 * 5.0, rel=1e-12)


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
        dec = grid_product_decomposition(a, chi)
        total = a[-1] * chi[-1] - a[0] * chi[0]
        assert abs(dec.fx_integral + dec.asset_integral + dec.covariation - total) <= 1e-12 * max(
            1.0, abs(total), abs(a[0] * chi[0])
        )
        jumped = jumped or np.any(np.abs(np.diff(np.log(a))) > 0.05)
    assert jumped


def test_pathset_validation():
    with pytest.raises(LengthMismatch):
        PathSet(grid=[0.0, 0.5, 1.0], paths={"asset": [1.0, 2.0]}, seed=0)
    with pytest.raises(ValueError):
        PathSet(grid=[0.0, 1.0], paths={"fx": [1.0, -0.5]}, seed=0)


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


def test_ito_nonfinite_derivative():
    def pricer(s, r, x):
        return float("nan") if r < 0.02 else r  # nan just below 0.02
    grid = [0.0, 1.0]
    with pytest.raises(NonFiniteDerivative):
        grid_ito_decomposition(pricer, [0.02, 0.02], [0.0, 0.0], grid)


def test_coarse_and_fine_agree_on_the_total():
    for seed in (0, 5, 9):
        paths = simulate_paths(TWO_GBM, n_steps=64, seed=seed)
        for mode in FxMode:
            cmp = compare_coarse_vs_fine(paths, mode)
            coarse_total = cmp.coarse_fx + cmp.coarse_asset
            fine_total = cmp.fine.fx_integral + cmp.fine.asset_integral + cmp.fine.covariation
            assert coarse_total == pytest.approx(fine_total, rel=1e-12)
            assert coarse_total == pytest.approx(cmp.total, rel=1e-12)


def test_zero_vol_study_has_no_discrepancy():
    params = SimulationParams(processes=(
        GbmSpec("asset", initial=100.0),
        GbmSpec("fx", initial=1.1),
    ))
    cmp = compare_coarse_vs_fine(simulate_paths(params, 16, seed=0))
    assert cmp.fx_diff == 0.0
    assert cmp.asset_diff == 0.0
    assert cmp.fine.covariation == 0.0


def test_study_and_csv_report():
    study = covariation_study(TWO_GBM, n_steps=16, seeds=range(12))
    assert isinstance(study, StudyResult)
    assert len(study.comparisons) == 12
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


@settings(max_examples=60, deadline=None)
@given(inputs=study_inputs())
def test_batched_study_equals_seedwise_route(inputs):
    params, n_steps, seeds, fx_mode = inputs
    seedwise = []
    for seed in seeds:
        paths = simulate_paths(params, n_steps, seed)
        reference = _seedwise_values(params, n_steps, seed)
        for j, spec in enumerate(params.processes):
            assert np.array_equal(paths.paths[spec.name], reference[:, j])
        seedwise.append(compare_coarse_vs_fine(paths, fx_mode))
    expected = write_discrepancy_csv(StudyResult(tuple(seedwise)))
    # 20-seed state chunks: chunk edges fall inside 32-seed blocks, and a
    # last chunk of fewer than _MIN_DERIVED seeds goes to default_rng
    assert 0 < 20 % path_oracle._MIN_DERIVED < path_oracle._MIN_DERIVED
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(path_oracle, "_STATE_CHUNK", 20)
        assert write_discrepancy_csv(covariation_study(params, n_steps, seeds, fx_mode)) == expected
    assert write_discrepancy_csv(covariation_study(params, n_steps, seeds, fx_mode)) == expected


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
    expected = [compare_coarse_vs_fine(simulate_paths(params, 16, seed)) for seed in seeds]
    assert write_discrepancy_csv(study) == write_discrepancy_csv(expected)
    for seed in outside[:3]:
        paths = simulate_paths(params, 16, seed).paths
        reference = _seedwise_values(params, 16, seed)
        assert np.array_equal(np.column_stack((paths["asset"], paths["fx"])), reference)
    with pytest.raises(ValueError) as want:
        np.random.default_rng(-1)
    with pytest.raises(ValueError) as got:
        covariation_study(params, 16, list(range(20)) + [-1])
    assert str(got.value) == str(want.value)


def test_study_of_no_seeds_is_empty():
    assert covariation_study(TWO_GBM, n_steps=8, seeds=[]).comparisons == ()


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
    taken = []

    def seeds():
        for seed in range(70):
            taken.append(seed)
            yield seed

    bad = SimulationParams(processes=TWO_GBM.processes,
                           correlation=np.array([[1.0, 1.5], [1.5, 1.0]]))
    with pytest.raises(InvalidCorrelation):
        covariation_study(bad, n_steps=8, seeds=seeds())
    assert taken == []

    calls = []
    factor = path_oracle._correlation_factor

    def counting_factor(*args):
        calls.append(args)
        return factor(*args)

    monkeypatch.setattr(path_oracle, "_correlation_factor", counting_factor)
    good = SimulationParams(processes=TWO_GBM.processes,
                            correlation=np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert len(covariation_study(good, n_steps=8, seeds=seeds()).comparisons) == 70
    assert len(calls) == 1


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


@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(16, 100),
    width=st.integers(1, 300),
    spread=st.integers(0, 300),
    special=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_row_sums_equal_fsum(rows, width, spread, special, seed):
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
    assert _hex(path_oracle._exact_row_sums(x)) == _hex(_fsum_rows(x))


def _counting_fsum(monkeypatch):
    calls = []
    fsum = math.fsum

    def counted(values):
        calls.append(list(values))
        return fsum(values)

    monkeypatch.setattr(path_oracle.math, "fsum", counted)
    return calls


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
    assert len(study.comparisons) == 200
    assert len(calls) <= 0.01 * 3 * 200


def _csv_reference(comparisons):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["seed", "n_steps", "component", "coarse", "fine", "diff"])
    for c in comparisons:
        for component, coarse, fine, diff in c.rows():
            writer.writerow([c.seed, c.n_steps, component, repr(coarse), repr(fine), repr(diff)])
    return out.getvalue()


def test_discrepancy_csv_equals_csv_writer_output():
    # an asset path that overflowed, as callers may build them
    with np.errstate(all="ignore"):
        overflowed = [
            compare_coarse_vs_fine(PathSet(grid=[0.0, 1.0], seed=seed,
                                           paths={"asset": [100.0, math.inf], "fx": [1.0, fx_end]}))
            for seed, fx_end in enumerate((1e-265, 0.5, 2.0))
        ]
    text = write_discrepancy_csv(overflowed)
    assert "inf" in text and "nan" in text
    assert text == _csv_reference(overflowed)
    plain = covariation_study(TWO_GBM, n_steps=8, seeds=range(40))
    assert write_discrepancy_csv(plain) == _csv_reference(plain.comparisons)
