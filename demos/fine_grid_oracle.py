"""How rough is the endpoint-only split? Ask a simulated path.

The two-point split sees the start and end states only. On a simulated
trajectory the product-rule sums decompose the same total exactly while
using every grid point, so their difference per component measures the
endpoint scheme's approximation error. Five experiments:

  1. one seeded path, component by component;
  2. the covariation sum over many independent seeds (its mean should be
     statistical noise: increment products of independent diffusions);
  3. a synchronized jump, whose increment product lands in the
     covariation sum and belongs to neither the fx nor the asset part;
  4. the Taylor-ladder split of a time/rate/spread pricer converging as
     the grid refines;
  5. the cross terms the engine's symmetric average adds to that ladder on
     simulated (rate, spread) paths: the time term vanishes as the grid
     refines, the rate-spread term tends to the quadratic covariation.

Run:  python demos/fine_grid_oracle.py
"""

from types import SimpleNamespace

import numpy as np

from pnlattr import (
    Bucket,
    GbmSpec,
    Position,
    SimulationParams,
    attribute_position,
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

print()
print("=" * 72)
print("5. Cross terms of the symmetric average on simulated (rate, spread) paths")
print("=" * 72)
KAPPA, LAM = 40000.0, 200.0  # weights of the r x and s r cross terms
SIGMA_R, SIGMA_X, R0, X0 = 0.3, 0.4, 0.02, 0.01


def cross_pricer(s, r, x):
    # quadratic in each state, which the ladder's second-order steps take exactly, plus two cross terms
    return (100.0 + 2.0 * s - 400.0 * r + 3000.0 * r * r - 250.0 * x + 2000.0 * x * x
            + KAPPA * r * x + LAM * s * r)


def rates(rho):
    return SimulationParams(processes=(GbmSpec("r", initial=R0, volatility=SIGMA_R),
                                       GbmSpec("x", initial=X0, volatility=SIGMA_X)),
                            correlation=[[1.0, rho], [rho, 1.0]])


toy = Position("toy", Bucket.OTHER, cross_pricer, currency="EUR")
fine = simulate_paths(rates(0.6), n_steps=1024, seed=11)
path_s, path_r, path_x = fine.grid, fine.paths["r"], fine.paths["x"]
# [r, x]_T = integral of rho sigma_r sigma_x r x ds, summed on the fine grid
covariation = 0.6 * SIGMA_R * SIGMA_X * float(np.sum(path_r[:-1] * path_x[:-1] * np.diff(path_s)))
print(f"one 1024-step path (rho 0.6) read on coarser grids: 1/2 kappa [r, x]_T = {0.5 * KAPPA * covariation:.4f}")
print(f"{'n':>5s} {'1/2 lam sum ds dr':>18s} {'1/2 kappa sum dr dx':>20s} "
      f"{'engine - ladder: rate':>22s} {'market':>8s}")
for n in (16, 64, 256, 1024):
    every = 1024 // n
    grid, r, x = path_s[::every].tolist(), path_r[::every], path_x[::every]
    states = {u: SimpleNamespace(curve=r_u, factors=x_u, fx=1.0)
              for u, r_u, x_u in zip(grid, r.tolist(), x.tolist())}
    _, engine = attribute_position(toy, states, grid)
    ladder = grid_ito_decomposition(cross_pricer, r, x, grid)
    time_cross = 0.5 * LAM * float(np.sum(np.diff(grid) * np.diff(r)))
    factor_cross = 0.5 * KAPPA * float(np.sum(np.diff(r) * np.diff(x)))
    print(f"{n:5d} {time_cross:>18.4f} {factor_cross:>20.4f} "
          f"{engine.rate - ladder.rate:>22.4f} {engine.market - ladder.market:>8.4f}")
print("engine - ladder is the sum of the cross terms on rate, the rate-spread term alone on market;")
print("the time term falls as 1/n, the rate-spread term tends to 1/2 kappa [r, x]_T, not to 0")
for rho in (0.0, 0.6):
    terms = [0.5 * KAPPA * float(np.sum(np.diff(p.paths["r"]) * np.diff(p.paths["x"])))
             for p in (simulate_paths(rates(rho), n_steps=256, seed=seed) for seed in range(1000))]
    expected = 0.5 * KAPPA * R0 * X0 * np.expm1(rho * SIGMA_R * SIGMA_X)  # 1/2 kappa E[r, x]_T
    print(f"rho {rho:.1f}, 1000 seeds: mean 1/2 kappa sum dr dx {np.mean(terms):+.4f} "
          f"(stderr {np.std(terms, ddof=1) / np.sqrt(len(terms)):.4f}), expected {expected:+.4f}")
