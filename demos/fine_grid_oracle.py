"""How rough is the endpoint-only split? Ask a simulated path.

The two-point split sees the start and end states only. On a simulated
trajectory the product-rule sums decompose the same total exactly while
using every grid point, so their difference per component measures the
endpoint scheme's approximation error. Three experiments:

  1. one seeded path, component by component;
  2. the covariation sum over many independent seeds (its mean should be
     statistical noise: increment products of independent diffusions);
  3. a synchronized jump, whose increment product lands in the
     covariation sum and belongs to neither the fx nor the asset part;
  4. the Taylor-ladder split of a time/rate/spread pricer converging as
     the grid refines.

Run:  python demos/fine_grid_oracle.py
"""

import numpy as np

from pnlattr import (
    GbmSpec,
    SimulationParams,
    compare_coarse_vs_fine,
    covariation_study,
    grid_ito_decomposition,
    simulate_paths,
)

print("=" * 72)
print("1. One path: endpoint split vs whole-path decomposition")
print("=" * 72)
params = SimulationParams(processes=(
    GbmSpec("asset", initial=100.0, drift=0.03, volatility=0.25),
    GbmSpec("fx", initial=0.85, drift=0.0, volatility=0.10),
))
one = compare_coarse_vs_fine(simulate_paths(params, n_steps=256, seed=14))  # a one-row study
print(f"{'component':12s} {'coarse':>12s} {'fine':>12s} {'diff':>12s}")
rows = (("fx", one.coarse_fx[0], one.fine_fx[0]), ("asset", one.coarse_asset[0], one.fine_asset[0]),
        ("covariation", 0.0, one.covariation[0]))
for component, coarse, fine in rows:
    print(f"{component:12s} {coarse:>12.4f} {fine:>12.4f} {coarse - fine:>12.4f}")
print(f"both sides add to the same total: {one.total[0]:.4f}")

print()
print("=" * 72)
print("2. Covariation over 2000 independent seeds")
print("=" * 72)
study = covariation_study(params, n_steps=64, seeds=range(2000))
mean, stderr = study.covariation_mean, study.covariation_stderr
print(f"mean {mean:+.5f}, stderr {stderr:.5f} -> |mean|/stderr = {abs(mean) / stderr:.2f}")
print("independent diffusions leave no systematic covariation behind")

print()
print("=" * 72)
print("3. A synchronized jump shows up in the covariation sum")
print("=" * 72)
jumpy = SimulationParams(
    processes=(
        GbmSpec("asset", initial=100.0, volatility=0.15, jump_size=0.10),
        GbmSpec("fx", initial=0.85, volatility=0.08, jump_size=-0.06),
    ),
    jump_intensity=3.0,
)
for seed in (2, 3):
    paths = simulate_paths(jumpy, n_steps=256, seed=seed)
    [covariation] = compare_coarse_vs_fine(paths).covariation
    jumps = int(np.sum(np.abs(np.diff(np.log(paths.paths["asset"]))) > 0.05))
    print(f"seed {seed}: ~{jumps} jumps, covariation {covariation:+.4f} "
          f"(no rule says how to allocate it, so it is reported, not split)")

print()
print("=" * 72)
print("4. Taylor ladder on scalar (rate, spread) paths")
print("=" * 72)


def pricer(s, r, x):
    # discount-style toy: time drift, convex in the rate, linear in the spread
    return (100.0 + 8.0 * s) * (1.0 - 5.0 * r + 40.0 * r * r) - 90.0 * x


for n in (16, 64, 256, 1024):
    grid = np.linspace(0.0, 1.0, n + 1)
    path_r = 0.010 + 0.020 * np.sin(0.5 * np.pi * grid)
    path_x = 0.050 - 0.015 * grid
    dec = grid_ito_decomposition(pricer, path_r, path_x, grid)
    print(f"n = {n:5d}: carry {dec.carry:>8.4f}  rate {dec.rate:>9.4f}  "
          f"market {dec.market:>7.4f}  residual {dec.residual:+.2e}")
print("the residual is honest model error and shrinks as the grid refines")
