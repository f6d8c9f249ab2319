"""Fine-grid decomposition oracles for the two-point attribution scheme.

The endpoint-only split is a proxy: it sees two states and nothing in
between. Given a whole path on a fine grid, two exact discrete identities
say what the split misses.

Product rule on a grid. For paths A and chi on t = u_0 < ... < u_n = T,

    A_T chi_T - A_t chi_t = sum A_{i-1} (chi_i - chi_{i-1})     fx integral
                          + sum chi_{i-1} (A_i - A_{i-1})       asset integral
                          + sum (A_i - A_{i-1})(chi_i - chi_{i-1})  covariation

holds exactly (telescoping). Under independent diffusions the covariation
sum vanishes in expectation; a synchronized jump contributes its increment
product to it, and no attempt is made here to allocate that term.

Taylor ladder on a grid. For a price function of time and scalar states
(r, x), summing first-order moves in each variable plus half the second
derivatives times squared state increments approximates the endpoint move;
the leftover is reported as a residual, never hidden.

All simulation is seeded and reproducible bit for bit; log-space stepping
keeps geometric paths strictly positive for any step size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Any, Iterable, Mapping

import numpy as np

from .attribution import FxMode, _price_fn, fx_split
from .errors import InvalidCorrelation, LengthMismatch, NonFiniteDerivative, SimulationError

#: Relative finite-difference step for the Taylor-ladder partials.
DERIVATIVE_STEP = 1e-5

# Seeds simulated and decomposed per array pass in covariation_study. Small
# enough that a block's temporaries stay a few hundred kB at a few hundred
# steps; larger blocks bought no speed and raised peak memory.
_BLOCK = 32

# Largest Poisson mean numpy's generator accepts (its own POISSON_LAM_MAX).
_POISSON_LAM_MAX = np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class GbmSpec:
    """One geometric process: start level, drift, volatility, and the
    multiplicative size it jumps by when a common jump fires."""

    name: str
    initial: float
    drift: float = 0.0
    volatility: float = 0.0
    jump_size: float = 0.0

    def __post_init__(self):
        if not self.initial > 0.0:
            raise ValueError(f"{self.name}: geometric processes need initial > 0")
        if self.volatility < 0.0:
            raise ValueError(f"{self.name}: volatility must be >= 0")
        if self.jump_size <= -1.0:
            raise ValueError(f"{self.name}: jump_size must be > -1")


@dataclass(frozen=True)
class SimulationParams:
    """Process set plus horizon, correlation, and common-jump intensity."""

    processes: tuple[GbmSpec, ...]
    horizon: float = 1.0
    correlation: Any = None
    jump_intensity: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "processes", tuple(self.processes))
        if not self.processes:
            raise ValueError("need at least one process")
        if not self.horizon > 0.0:
            raise ValueError("horizon must be > 0")
        if self.jump_intensity < 0.0:
            raise ValueError("jump_intensity must be >= 0")


@dataclass(frozen=True)
class PathSet:
    """Simulated trajectories on a shared grid; arrays are read-only."""

    grid: np.ndarray
    paths: Mapping[str, np.ndarray]
    seed: int

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 1 or len(grid) < 2:
            raise LengthMismatch("grid must be one-dimensional with at least two points")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("grid times must be strictly increasing")
        paths = {}
        for name, values in self.paths.items():
            arr = np.asarray(values, dtype=float)
            if arr.shape != grid.shape:
                raise LengthMismatch(
                    f"path {name!r} has {arr.shape[0] if arr.ndim == 1 else 'bad'} points, grid has {len(grid)}"
                )
            paths[name] = arr
        _require_positive_fx(paths)
        grid.flags.writeable = False
        for arr in paths.values():
            arr.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "paths", paths)

    @property
    def n_steps(self) -> int:
        return len(self.grid) - 1


def _correlation_factor(correlation, size: int):
    if correlation is None:
        return None
    corr = np.asarray(correlation, dtype=float)
    if corr.shape != (size, size):
        raise InvalidCorrelation(f"correlation must be {size}x{size}, got {corr.shape}")
    if not np.allclose(corr, corr.T, atol=1e-12):
        raise InvalidCorrelation("correlation matrix must be symmetric")
    if not np.allclose(np.diag(corr), 1.0, atol=1e-12):
        raise InvalidCorrelation("correlation diagonal must be 1")
    if np.any(np.abs(corr) > 1.0 + 1e-12):
        raise InvalidCorrelation("correlation entries must lie in [-1, 1]")
    try:
        return np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        eigenvalues, eigenvectors = np.linalg.eigh(corr)
        if eigenvalues.min() < -1e-10:
            raise InvalidCorrelation(
                f"correlation matrix not positive semidefinite (min eigenvalue {eigenvalues.min():g})"
            ) from None
        return eigenvectors * np.sqrt(np.clip(eigenvalues, 0.0, None))


def _require_positive_fx(paths: Mapping[str, np.ndarray]) -> None:
    if "fx" in paths and not np.all(paths["fx"] > 0.0):
        raise SimulationError("fx trajectory must stay strictly positive")


_UINT32_MASK = 0xFFFFFFFF
_UINT128_MASK = (1 << 128) - 1


def _hash_constants(init: int, mult: int, n: int):
    """The xor and multiplier columns of n successive SeedSequence hash steps.

    The hash constant starts at init and is multiplied by mult modulo 2**32
    at each step, whatever the data, so the whole sequence is fixed.
    """
    xors, mults = [], []
    for _ in range(n):
        xors.append(init)
        init = init * mult & _UINT32_MASK
        mults.append(init)
    return np.array(xors, np.uint32)[:, None], np.array(mults, np.uint32)[:, None]


# numpy's SeedSequence constants (bit_generator.pyx): pool of 4 words, mixed
# by 4 + 4 * 3 hashmix steps, then 8 output words for PCG64's 4 uint64 words.
_POOL_XOR, _POOL_MULT = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_XOR, _STATE_MULT = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_LEFT = np.uint32(0xCA01F9DD)
_MIX_RIGHT = np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
# PCG64's 128-bit LCG multiplier (pcg64.h, PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341

# Seeds whose PCG64 states are derived in one array pass. Deriving and
# setting the states of 256 seeds took about 1 ms, 4 us a seed against
# 13 us for default_rng, and the pass's arrays are a few kB.
_STATE_CHUNK = 256
# Chunks with fewer seeds go to default_rng seed by seed: for one seed the
# pass took about 110 us, against 16 us for default_rng, and the two broke
# even near 8-10 seeds.
_MIN_DERIVED = 12


def _hashmix(words, xors, mults):
    words = (words ^ xors) * mults
    return words ^ (words >> _SHIFT)


def _pcg64_states(seeds: list) -> list:
    """[PCG64(seed).state for seed in seeds], with None for each seed that
    is not a non-negative int below 2**128.

    numpy's SeedSequence splits such a seed into at most four 32-bit words,
    least significant first. Its pool has four words, and a missing word
    hashes as a 0 word does, so every seed is a column of four words.
    The pool mix and generate_state(4, uint64) run on (words, seeds) uint32
    arrays, which wrap as numpy's uint32_t does. pcg64_set_seed then takes
    state words 0-1 as the initial state and 2-3 as the stream, and its
    two-step LCG start-up runs on Python ints modulo 2**128.
    """
    covered = [type(seed) is int and 0 <= seed <= _UINT128_MASK for seed in seeds]
    ints = [seed if ok else 0 for seed, ok in zip(seeds, covered)]
    pool = _hashmix(
        np.array([[seed >> shift & _UINT32_MASK for seed in ints] for shift in (0, 32, 64, 96)], np.uint32),
        _POOL_XOR[:4],
        _POOL_MULT[:4],
    )
    # numpy mixes hashmix(pool[src]) into each other word in turn; pool[src]
    # does not change within its round, so its three hashes are one pass
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        step = 4 + 3 * src
        hashed = _hashmix(pool[src], _POOL_XOR[step : step + 3], _POOL_MULT[step : step + 3])
        mixed = _MIX_LEFT * pool[dst] - _MIX_RIGHT * hashed
        pool[dst] = mixed ^ (mixed >> _SHIFT)
    words = _hashmix(np.concatenate((pool, pool)), _STATE_XOR, _STATE_MULT).astype(np.uint64)
    state_hi, state_lo, inc_hi, inc_lo = (words[0::2] | words[1::2] << np.uint64(32)).tolist()
    states = []
    for ok, s_hi, s_lo, i_hi, i_lo in zip(covered, state_hi, state_lo, inc_hi, inc_lo):
        if not ok:
            states.append(None)
            continue
        inc = (i_hi << 65 | i_lo << 1 | 1) & _UINT128_MASK
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _UINT128_MASK
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def _seed_states(seeds: Iterable) -> Iterable:
    """Yield (seed, PCG64 state dict or None), taking _STATE_CHUNK seeds at a time."""
    seeds = iter(seeds)
    while chunk := list(islice(seeds, _STATE_CHUNK)):
        states = _pcg64_states(chunk) if len(chunk) >= _MIN_DERIVED else [None] * len(chunk)
        yield from zip(chunk, states)


def _simulate_values(params: SimulationParams, n_steps: int, seeds: Iterable[int]):
    """Yield (seed block, values) for blocks of at most _BLOCK seeds.

    values has shape (len(params.processes), len(block), n_steps + 1).
    n_steps, the correlation, the per-step drift and diffusion and the jump
    intensity are checked, and the correlation factored, once before the
    first seed is taken. Each seed draws from its own PCG64 stream in a
    fixed order (normals, then jump counts), so a seed's values do not
    depend on the other seeds of its block. Each block's values must be
    finite and its fx path, if any, > 0; a SimulationError names the first
    seed that breaks this.

    The stream is default_rng(seed)'s. In chunks of at least _MIN_DERIVED
    seeds, the state default_rng's PCG64 would start from is derived for a
    whole chunk at once by _pcg64_states, which follows numpy's seeding
    step for step, and set on one reused generator. A PCG64 stream is
    fixed by its state and nothing else, so the draws are the same. Other
    seeds, and those that derivation does not cover, go to default_rng.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    specs = params.processes
    factor = _correlation_factor(params.correlation, len(specs))
    dt = params.horizon / n_steps
    drift = np.array([s.drift for s in specs])
    vol = np.array([s.volatility for s in specs])
    with np.errstate(over="ignore", invalid="ignore"):
        drift_step = (drift - 0.5 * vol**2) * dt
        diffusion = vol * math.sqrt(dt)
    for spec, a, b in zip(specs, drift_step.tolist(), diffusion.tolist()):
        if not (math.isfinite(a) and math.isfinite(b)):
            raise SimulationError(f"process {spec.name!r}: per-step drift {a:g} or diffusion {b:g} is not finite")
    initial = np.array([s.initial for s in specs])
    jumps = params.jump_intensity > 0.0
    if jumps and not params.jump_intensity * dt <= _POISSON_LAM_MAX:
        raise SimulationError(
            f"jump_intensity {params.jump_intensity:g} gives a Poisson mean of "
            f"{params.jump_intensity * dt:g} jumps per step, above the {_POISSON_LAM_MAX:.3g} limit"
        )
    jump_logs = np.array([math.log1p(s.jump_size) for s in specs])
    fx_index = next((j for j, s in enumerate(specs) if s.name == "fx"), None)
    # per-process columns, broadcast over (processes, block, steps)
    drift_step, diffusion, initial, jump_logs = (
        x[:, None, None] for x in (drift_step, diffusion, initial, jump_logs)
    )

    generator = None
    seed_states = _seed_states(seeds)
    while block_states := list(islice(seed_states, _BLOCK)):
        block = [seed for seed, _ in block_states]
        try:
            normals = np.empty((len(block), n_steps, len(specs)))
            counts = np.empty((len(block), n_steps), dtype=np.int64) if jumps else None
            values = np.empty((len(specs), len(block), n_steps + 1))
        except (ValueError, MemoryError):
            raise SimulationError(
                f"n_steps {n_steps}: cannot allocate a block of {len(block)} x {n_steps} x {len(specs)} values"
            ) from None
        for i, (seed, state) in enumerate(block_states):
            if state is None:
                rng = np.random.default_rng(seed)
            else:
                if generator is None:
                    generator = np.random.Generator(np.random.PCG64(0))
                rng = generator
                rng.bit_generator.state = state
            rng.standard_normal(out=normals[i])
            if jumps:
                counts[i] = rng.poisson(params.jump_intensity * dt, n_steps)
        if factor is not None:
            normals = normals @ factor.T
        # values holds the log paths until exp: the same operations as on
        # (block, steps, processes) arrays, with the operands of some + and *
        # swapped, which IEEE arithmetic allows, so equal bit for bit
        values[:, :, 0] = 0.0
        log_steps = values[:, :, 1:]
        np.multiply(normals.transpose(2, 0, 1), diffusion, out=log_steps)
        log_steps += drift_step
        if jumps:
            log_steps += counts * jump_logs
        np.cumsum(log_steps, axis=2, out=log_steps)
        with np.errstate(over="ignore"):
            np.exp(values, out=values)
            values *= initial
        finite = np.isfinite(values)
        if not finite.all():
            i = np.flatnonzero(~finite.all(axis=(0, 2)))[0]
            _, j = np.argwhere(~finite[:, i].T)[0]  # the first step, then the first process
            raise SimulationError(f"seed {block[i]}: process {specs[j].name!r} path is not finite")
        if fx_index is not None:
            positive = values[fx_index] > 0.0
            if not positive.all():
                seed = block[np.argwhere(~positive)[0][0]]
                raise SimulationError(f"seed {seed}: fx trajectory must stay strictly positive")
        yield block, values


def simulate_paths(params: SimulationParams, n_steps: int, seed: int) -> PathSet:
    """Seeded log-Euler paths of the parameterized geometric processes.

    Common jumps: one Poisson stream with the given intensity fires for all
    processes at once; each process then scales by (1 + jump_size). Draws
    happen in a fixed order, so identical inputs give identical paths.
    """
    _, values = next(_simulate_values(params, n_steps, (seed,)))
    grid = np.linspace(0.0, params.horizon, n_steps + 1)
    paths = {spec.name: values[j, 0] for j, spec in enumerate(params.processes)}
    return PathSet(grid=grid, paths=paths, seed=seed)


@dataclass(frozen=True)
class GridDecomposition:
    """The three product-rule sums; they add to `total` exactly."""

    fx_integral: float
    asset_integral: float
    covariation: float
    total: float

    def __post_init__(self):
        scale = max(1.0, abs(self.fx_integral), abs(self.asset_integral), abs(self.covariation))
        gap = self.total - (self.fx_integral + self.asset_integral + self.covariation)
        if abs(gap) > 1e-9 * scale:
            raise ValueError(f"telescoping identity violated by {gap:g}")


def grid_product_decomposition(path_asset, path_fx) -> GridDecomposition:
    """Left-endpoint product-rule sums of two equal-length paths."""
    a = np.asarray(path_asset, dtype=float)
    chi = np.asarray(path_fx, dtype=float)
    if a.ndim != 1 or chi.ndim != 1 or a.shape != chi.shape:
        raise LengthMismatch(f"paths must be equal-length vectors, got {a.shape} and {chi.shape}")
    if len(a) < 2:
        raise LengthMismatch("paths need at least two points")
    return _product_rule_rows(a[None, :], chi[None, :])[0]


def _product_rule_rows(a: np.ndarray, chi: np.ndarray) -> list[GridDecomposition]:
    """One GridDecomposition per row of two (rows, points) path arrays.

    Each row's fx, asset and covariation terms are stacked seed by seed
    into one (3 * rows, steps) array whose row sums _exact_row_sums gives,
    each equal to math.fsum of the row. The sums are exact, so they do not
    depend on how rows are batched.
    """
    da = a[:, 1:] - a[:, :-1]
    dchi = chi[:, 1:] - chi[:, :-1]
    terms = np.empty((len(a), 3, da.shape[1]))
    np.multiply(a[:, :-1], dchi, out=terms[:, 0])
    np.multiply(chi[:, :-1], da, out=terms[:, 1])
    np.multiply(da, dchi, out=terms[:, 2])
    sums = iter(_exact_row_sums(terms.reshape(-1, da.shape[1])))
    totals = (a[:, -1] * chi[:, -1] - a[:, 0] * chi[:, 0]).tolist()
    return [
        GridDecomposition(fx_integral=fx, asset_integral=asset, covariation=cov, total=total)
        for fx, asset, cov, total in zip(sums, sums, sums, totals)
    ]


# Arrays with fewer rows than this are summed by math.fsum row by row: on
# one 256-step path's three rows the array pass took about 90 us, against
# 20 us for three fsum calls.
_ARRAY_ROWS = 16
_BIG = 2.0**1000
_SMALL = 2.0**-900
_TINY = 2.0**-1022


def _two_sum(a, b):
    """fl(a + b) and its rounding error a + b - fl(a + b), exact barring overflow (Knuth)."""
    total = a + b
    virtual = total - a
    return total, (a - (total - virtual)) + (b - virtual)


def _exact_row_sums(x: np.ndarray) -> list[float]:
    """[math.fsum(row) for row in x] for a 2-D float array, bit for bit.

    Proof sketch, for a row of n values, u = 2**-53:
    - A pairwise TwoSum tree over the columns gives the row's float sum s
      and its n - 1 rounding errors e_i. Values below 2**1000 in magnitude
      keep every partial sum finite until n passes 2**23, and an overflow
      turns r into inf or nan, which fails the test below. Otherwise each
      TwoSum is exact and the row sums to s + sum(e) exactly.
    - t = fl(sum(e)), in whatever order numpy adds, is off by at most
      gamma_{n-1} * sum(|e|), and fl(sum(|e|)) >= (1 - u)**(n-2) * sum(|e|).
      So delta = fl(fl(sum(|e|)) * 4n * u + 2**-1022) bounds |sum(e) - t|
      with room to spare; the last term covers a product that underflows.
    - TwoSum(s, t) = (r, r_err) exactly, so the row's exact sum lies within
      delta of r + r_err.
    - math.fsum returns the correctly rounded sum. That is r when
      fl(r_err + delta) < up and fl(r_err - delta) > -down, where up and down
      are half the gaps from r to its float neighbours. Both half-gaps are
      floats and rounding is monotone, so the float tests imply the exact
      ones; the strict inequalities exclude ties.

    Rows that fail the test go to math.fsum: near-ties, rows holding a
    non-finite value or one of magnitude >= 2**1000, and sums outside
    [2**-900, 2**1000), so that a zero takes fsum's sign and no gap
    underflows or is infinite. fsum's own errors, such as inf + -inf, are
    therefore raised as before, in row order. Arrays with fewer than
    _ARRAY_ROWS rows go to math.fsum whole.
    """
    rows, n = x.shape
    if rows < _ARRAY_ROWS:
        return [math.fsum(memoryview(row)) for row in x]
    with np.errstate(all="ignore"):
        s = x
        errors = [np.zeros((rows, 0))]  # a one-column row has no errors
        while s.shape[1] > 1:
            half = s.shape[1] // 2
            pair, error = _two_sum(s[:, :half], s[:, half : 2 * half])
            errors.append(error)
            s = np.concatenate((pair, s[:, -1:]), axis=1) if s.shape[1] % 2 else pair
        e = np.concatenate(errors, axis=1)
        t = e.sum(axis=1)
        delta = np.abs(e).sum(axis=1) * (4 * n * 2.0**-53) + _TINY
        r, r_err = _two_sum(s[:, 0], t)
        up = (np.nextafter(r, np.inf) - r) * 0.5
        down = (r - np.nextafter(r, -np.inf)) * 0.5
        size = np.abs(r)
        certified = (
            (r_err + delta < up)
            & (r_err - delta > -down)
            & (np.abs(x).max(axis=1) < _BIG)
            & (size >= _SMALL)
            & (size < _BIG)
        )
    sums = r.tolist()
    for i in np.flatnonzero(~certified).tolist():
        sums[i] = math.fsum(memoryview(x[i]))
    return sums


@dataclass(frozen=True)
class ItoDecomposition:
    """Taylor-ladder split of an asset-currency move along a state path.

    residual is the genuine approximation error against the exact endpoint
    move; nothing re-absorbs it.
    """

    carry: float
    rate: float
    market: float
    total: float

    @property
    def residual(self) -> float:
        return self.total - (self.carry + self.rate + self.market)


def grid_ito_decomposition(pricer, path_r, path_x, grid) -> ItoDecomposition:
    """Decompose A(T, r_T, x_T) - A(t, r_t, x_t) along scalar state paths.

    carry sums the time partial times the time step; rate and market sum
    the first partial times the state increment plus half the second
    partial times the squared increment. All partials are central
    differences at the left grid point with step DERIVATIVE_STEP * max(1, |v|).
    """
    price = _price_fn(pricer)
    r = np.asarray(path_r, dtype=float)
    x = np.asarray(path_x, dtype=float)
    u = np.asarray(grid, dtype=float)
    if not (len(r) == len(x) == len(u)):
        raise LengthMismatch(f"lengths differ: grid {len(u)}, r {len(r)}, x {len(x)}")
    if len(u) < 2:
        raise LengthMismatch("grid needs at least two points")

    carry_terms, rate_terms, market_terms = [], [], []
    for i in range(1, len(u)):
        s, ri, xi = float(u[i - 1]), float(r[i - 1]), float(x[i - 1])
        hs = DERIVATIVE_STEP * max(1.0, abs(s))
        hr = DERIVATIVE_STEP * max(1.0, abs(ri))
        hx = DERIVATIVE_STEP * max(1.0, abs(xi))
        f0 = price(s, ri, xi)
        d_s = (price(s + hs, ri, xi) - price(s - hs, ri, xi)) / (2.0 * hs)
        f_ru, f_rd = price(s, ri + hr, xi), price(s, ri - hr, xi)
        f_xu, f_xd = price(s, ri, xi + hx), price(s, ri, xi - hx)
        d_r = (f_ru - f_rd) / (2.0 * hr)
        d2_r = (f_ru - 2.0 * f0 + f_rd) / (hr * hr)
        d_x = (f_xu - f_xd) / (2.0 * hx)
        d2_x = (f_xu - 2.0 * f0 + f_xd) / (hx * hx)
        if not all(math.isfinite(v) for v in (d_s, d_r, d2_r, d_x, d2_x)):
            raise NonFiniteDerivative(f"non-finite derivative at grid index {i - 1} (time {s})")
        du = float(u[i] - u[i - 1])
        dr = float(r[i] - r[i - 1])
        dx = float(x[i] - x[i - 1])
        carry_terms.append(d_s * du)
        rate_terms.append(d_r * dr + 0.5 * d2_r * dr * dr)
        market_terms.append(d_x * dx + 0.5 * d2_x * dx * dx)

    total = price(float(u[-1]), float(r[-1]), float(x[-1])) - price(float(u[0]), float(r[0]), float(x[0]))
    return ItoDecomposition(
        carry=math.fsum(carry_terms),
        rate=math.fsum(rate_terms),
        market=math.fsum(market_terms),
        total=float(total),
    )


@dataclass(frozen=True)
class CoarseFineComparison:
    """Endpoint-only split next to the fine-grid decomposition of one path."""

    seed: int
    n_steps: int
    coarse_fx: float
    coarse_asset: float
    fine: GridDecomposition

    @property
    def total(self) -> float:
        return self.fine.total

    @property
    def fx_diff(self) -> float:
        return self.coarse_fx - self.fine.fx_integral

    @property
    def asset_diff(self) -> float:
        return self.coarse_asset - self.fine.asset_integral

    def rows(self):
        """(component, coarse, fine, diff) triples for reporting."""
        yield ("fx", self.coarse_fx, self.fine.fx_integral, self.fx_diff)
        yield ("asset", self.coarse_asset, self.fine.asset_integral, self.asset_diff)
        yield ("covariation", 0.0, self.fine.covariation, -self.fine.covariation)


def compare_coarse_vs_fine(
    paths: PathSet,
    fx_mode: FxMode = FxMode.AVERAGE,
) -> CoarseFineComparison:
    """Two-point split from the "asset" and "fx" path endpoints against the
    product-rule sums.

    Both sides reproduce the same endpoint total; only the split differs,
    and the covariation sum is exactly what the two-point scheme smears
    into its fx and asset parts.
    """
    a = paths.paths["asset"]
    chi = paths.paths["fx"]
    return _compare_rows((paths.seed,), paths.n_steps, a[None, :], chi[None, :], fx_mode)[0]


def _compare_rows(seeds, n_steps: int, a: np.ndarray, chi: np.ndarray, fx_mode: FxMode):
    """compare_coarse_vs_fine for each row of (len(seeds), n_steps + 1) paths."""
    ends = zip(a[:, 0].tolist(), a[:, -1].tolist(), chi[:, 0].tolist(), chi[:, -1].tolist())
    return [
        CoarseFineComparison(seed, n_steps, *fx_split(a0, a1, chi0, chi1, fx_mode), fine)
        for seed, (a0, a1, chi0, chi1), fine in zip(seeds, ends, _product_rule_rows(a, chi))
    ]


@dataclass(frozen=True)
class StudyResult:
    """Coarse-vs-fine comparisons over many seeds plus covariation stats."""

    comparisons: tuple[CoarseFineComparison, ...]

    def covariations(self) -> np.ndarray:
        return np.array([c.fine.covariation for c in self.comparisons])

    @property
    def covariation_mean(self) -> float:
        return float(self.covariations().mean())

    @property
    def covariation_stderr(self) -> float:
        cov = self.covariations()
        if len(cov) < 2:
            return float("nan")
        return float(cov.std(ddof=1) / math.sqrt(len(cov)))


def covariation_study(
    params: SimulationParams,
    n_steps: int,
    seeds: Iterable[int],
    fx_mode: FxMode = FxMode.AVERAGE,
) -> StudyResult:
    """Run compare_coarse_vs_fine over many seeds in the given order.

    Equal bit for bit to compare_coarse_vs_fine(simulate_paths(...)) per
    seed, but simulated and decomposed a block of seeds per array pass.
    """
    comparisons = []
    for block, values in _simulate_values(params, n_steps, seeds):
        paths = {spec.name: values[j] for j, spec in enumerate(params.processes)}
        comparisons += _compare_rows(block, n_steps, paths["asset"], paths["fx"], fx_mode)
    return StudyResult(tuple(comparisons))


def write_discrepancy_csv(comparisons) -> str:
    """CSV text: seed,n_steps,component,coarse,fine,diff per comparison row."""
    if isinstance(comparisons, StudyResult):
        comparisons = comparisons.comparisons
    return "seed,n_steps,component,coarse,fine,diff\n" + "".join(
        f"{c.seed},{c.n_steps},{component},{coarse!r},{fine!r},{diff!r}\n"
        for c in comparisons
        for component, coarse, fine, diff in c.rows()
    )
