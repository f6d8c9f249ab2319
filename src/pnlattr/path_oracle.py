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

Every coarse-vs-fine number comes from one column pass over a block of
paths (`_columns`), and `StudyResult` is the one record that holds them,
one tuple per column. `compare_coarse_vs_fine` gives the one-row study of
a path; `StudyResult(studies)` joins studies in order, so the one-row
studies of some seeds equal `covariation_study` over the same seeds.
"""

from __future__ import annotations

import math
from itertools import chain, islice
from typing import Any, Iterable, Mapping

import numpy as np

from ._record import Record
from .conventions import FxMode, _checked_modes, _fx_weights, _price_fn
from .errors import InvalidCorrelation, LengthMismatch, NonFiniteDerivative, PricerEvaluationFailed, SimulationError

#: Relative finite-difference step for the Taylor-ladder partials.
DERIVATIVE_STEP = 1e-5

# Seeds per batch in covariation_study: one state derivation, simulation pass
# and column pass per block. On 2,500 seeds x 256 steps, 128 seeds and more
# raised peak memory, and 32-seed blocks took 9.2 ms to derive the states,
# against 5.7 ms in 256-seed runs.
_BLOCK = 64

# Largest Poisson mean numpy's generator accepts (its own POISSON_LAM_MAX).
_POISSON_LAM_MAX = np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max)


class GbmSpec(Record):
    """One geometric process: start level, drift, volatility, and the
    multiplicative size it jumps by when a common jump fires."""

    _fields = ("name", "initial", "drift", "volatility", "jump_size")

    def __init__(self, name: str, initial: float, drift: float = 0.0, volatility: float = 0.0,
                 jump_size: float = 0.0):
        _require_finite(f"{name}: ", initial=initial, drift=drift, volatility=volatility, jump_size=jump_size)
        if not initial > 0.0:
            raise ValueError(f"{name}: geometric processes need initial > 0")
        if volatility < 0.0:
            raise ValueError(f"{name}: volatility must be >= 0")
        if jump_size <= -1.0:
            raise ValueError(f"{name}: jump_size must be > -1")
        self.__dict__.update(name=name, initial=initial, drift=drift, volatility=volatility, jump_size=jump_size)


class SimulationParams(Record):
    """Process set plus horizon, correlation, and common-jump intensity.

    The correlation is checked and factored once, here. `correlation` keeps
    the checked matrix and `_factor` the factor, each as rows of float tuples
    (or None without a correlation), so the record compares and hashes.
    """

    _fields = ("processes", "horizon", "correlation", "jump_intensity")

    def __init__(self, processes: tuple[GbmSpec, ...], horizon: float = 1.0, correlation: Any = None,
                 jump_intensity: float = 0.0):
        processes = tuple(processes)
        if not processes:
            raise ValueError("need at least one process")
        _require_finite("", horizon=horizon, jump_intensity=jump_intensity)
        if not horizon > 0.0:
            raise ValueError("horizon must be > 0")
        if jump_intensity < 0.0:
            raise ValueError("jump_intensity must be >= 0")
        factor = _correlation_factor(correlation, len(processes))
        self.__dict__.update(processes=processes, horizon=horizon, correlation=_rows(correlation),
                             jump_intensity=jump_intensity, _factor=_rows(factor))


class PathSet(Record):
    """Simulated trajectories on a shared grid; arrays are read-only."""

    _fields = ("grid", "paths", "seed")

    def __init__(self, grid: np.ndarray, paths: Mapping[str, np.ndarray], seed: int):
        grid = np.array(grid, dtype=float)  # a copy: the caller's arrays stay writeable
        if grid.ndim != 1 or len(grid) < 2:
            raise LengthMismatch("grid must be one-dimensional with at least two points")
        if not np.all(np.diff(grid) > 0):
            raise ValueError("grid times must be strictly increasing")
        arrays = {}
        for name, values in paths.items():
            arr = np.array(values, dtype=float)
            if arr.shape != grid.shape:
                raise LengthMismatch(
                    f"path {name!r} has {arr.shape[0] if arr.ndim == 1 else 'bad'} points, grid has {len(grid)}"
                )
            arrays[name] = arr
        if "fx" in arrays and not np.all(arrays["fx"] > 0.0):
            raise SimulationError("fx trajectory must stay strictly positive")
        grid.flags.writeable = False
        for arr in arrays.values():
            arr.flags.writeable = False
        self.__dict__.update(grid=grid, paths=arrays, seed=seed)

    @property
    def n_steps(self) -> int:
        return len(self.grid) - 1


def _require_finite(prefix: str, **values) -> None:
    for field, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{prefix}{field} must be finite, got {value!r}")


def _rows(matrix):
    return None if matrix is None else tuple(map(tuple, np.asarray(matrix, dtype=float).tolist()))


def _correlation_factor(correlation, size: int):
    if correlation is None:
        return None
    corr = np.asarray(correlation, dtype=float)
    if corr.shape != (size, size):
        raise InvalidCorrelation(f"correlation must be {size}x{size}, got {corr.shape}")
    if not np.isfinite(corr).all():
        raise InvalidCorrelation("correlation entries must be finite")
    if not np.allclose(corr, corr.T, rtol=0.0, atol=1e-12):
        raise InvalidCorrelation("correlation matrix must be symmetric")
    if not np.allclose(np.diag(corr), 1.0, rtol=0.0, atol=1e-12):
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


def _simulate_values(params: SimulationParams, n_steps: int, seeds: Iterable[int]):
    """Yield (seed block, paths) for blocks of at most _BLOCK seeds, where
    paths maps each process's name to its (len(block), n_steps + 1) values.
    n_steps, the per-step drift and diffusion and the jump intensity are
    checked once before the first seed is taken; SimulationParams has
    checked and factored the correlation. Each seed draws from its own
    PCG64 stream in a fixed order (normals, then jump counts), so a seed's
    values do not depend on the other seeds of its block. Each block's
    values must be finite and its fx path, if any, > 0; a SimulationError
    names the first seed that breaks this.

    The stream is default_rng(seed)'s. The state default_rng's PCG64 would
    start from is derived for a whole block at once by _pcg64_states, which
    follows numpy's seeding step for step, and set on one reused generator.
    A PCG64 stream is fixed by its state and nothing else, so the draws are
    the same. Only seeds the derivation does not cover go to default_rng.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    specs = params.processes
    factor = None if params._factor is None else np.array(params._factor)
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
    seeds = iter(seeds)
    while block := list(islice(seeds, _BLOCK)):
        states = _pcg64_states(block)
        try:
            normals = np.empty((len(block), n_steps, len(specs)))
            counts = np.empty((len(block), n_steps), dtype=np.int64) if jumps else None
            values = np.empty((len(specs), len(block), n_steps + 1))
        except (ValueError, MemoryError):
            raise SimulationError(
                f"n_steps {n_steps}: cannot allocate a block of {len(block)} x {n_steps} x {len(specs)} values"
            ) from None
        for i, (seed, state) in enumerate(zip(block, states)):
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
        yield block, {spec.name: values[j] for j, spec in enumerate(specs)}


def simulate_paths(params: SimulationParams, n_steps: int, seed: int) -> PathSet:
    """Seeded log-Euler paths of the parameterized geometric processes.

    Common jumps: one Poisson stream with the given intensity fires for all
    processes at once; each process then scales by (1 + jump_size). Draws
    happen in a fixed order, so identical inputs give identical paths.
    """
    _, paths = next(_simulate_values(params, n_steps, (seed,)))
    grid = np.linspace(0.0, params.horizon, n_steps + 1)
    return PathSet(grid=grid, paths={name: values[0] for name, values in paths.items()}, seed=seed)


def _columns(a: np.ndarray, chi: np.ndarray, fx_mode: FxMode) -> tuple[np.ndarray, ...]:
    """The column pass: (coarse_fx, coarse_asset, fine_fx, fine_asset, covariation, total)
    float64 arrays, one entry per row of (rows, points) asset and fx paths. The sums are
    _exact_row_sums's, math.fsum of each row of terms, so batching does not change them.
    Each row's three sums telescope to its total within 1e-9 * max(1, |largest sum|), or the
    first failing row raises its ValueError. The coarse split is _fx_weights', with no fx > 0 check.
    """
    da = a[:, 1:] - a[:, :-1]
    dchi = chi[:, 1:] - chi[:, :-1]
    terms = np.empty((len(a), 3, da.shape[1]))  # each path's three rows of terms, in path order
    np.multiply(a[:, :-1], dchi, out=terms[:, 0])
    np.multiply(chi[:, :-1], da, out=terms[:, 1])
    np.multiply(da, dchi, out=terms[:, 2])
    sums = np.array(_exact_row_sums(terms.reshape(-1, da.shape[1]))).reshape(-1, 3).T
    fine_fx, fine_asset, covariation = sums
    a0, a1, chi0, chi1 = a[:, 0], a[:, -1], chi[:, 0], chi[:, -1]
    total = a1 * chi1 - a0 * chi0
    with np.errstate(all="ignore"):  # as the engine's float arithmetic, which never warns
        scale = np.maximum(1.0, np.abs(sums).max(axis=0))
        gap = total - (fine_fx + fine_asset + covariation)
        failed = np.abs(gap) > 1e-9 * scale
        if failed.any():
            raise ValueError(f"telescoping identity violated by {gap[failed.argmax()].item():g}")
        value_weight, quote_weight = _fx_weights(a0, a1, chi0, chi1, fx_mode)
        return value_weight * (chi1 - chi0), quote_weight * (a1 - a0), fine_fx, fine_asset, covariation, total


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

    One extraction pass (Rump, Ogita and Oishi 2008, ExtractVector) splits
    each row into parts that sum exactly and a small remainder. Proof
    sketch, for a row of n < 2**26 values of largest magnitude m < 2**1000,
    u = 2**-53:
    - sigma = 2**(e + k), where m < 2**e (frexp's exponent) and k is the
      least with 2**k >= n + 2, so every |x| < sigma / 4.
    - fl(x + sigma) lies in [sigma / 2, 2 * sigma], so q = fl(x + sigma) -
      sigma is exact (Sterbenz) and a multiple of g = max(u * sigma,
      2**-1074). p = x - q is the rounding error of x + sigma, a float, so
      it is exact too: x = q + p, |q| <= m + g and |p| <= g.
    - Each partial sum of the q is a multiple of g below n * (m + g) <=
      2**53 * g in magnitude, and so a float: tau1 = sum(q) is exact in
      any order.
    - tau2 = fl(sum(p)), in whatever order it is added, is off by at most
      gamma_{n-1} * sum(|p|), and fl(sum(|p|)) >= (1 - u)**(n-1) * sum(|p|).
      So delta = fl(fl(sum(|p|)) * 4n * u + 2**-1022) bounds |sum(p) - tau2|
      with room to spare; the last term covers a product that underflows.
    - TwoSum(tau1, tau2) = (r, r_err) exactly, so the row's exact sum lies
      within delta of r + r_err. A sigma that overflows makes r nan, which
      fails the test below.
    - math.fsum returns the correctly rounded sum. That is r when
      fl(r_err + delta) < up and fl(r_err - delta) > -down, where up and down
      are half the gaps from r to its float neighbours. Both half-gaps are
      floats and rounding is monotone, so the float tests imply the exact
      ones; the strict inequalities exclude ties.

    Rows that fail the test go to math.fsum: near-ties, rows holding a
    non-finite value or one of magnitude >= 2**1000, and sums outside
    [2**-900, 2**1000), so that a zero takes fsum's sign and no gap
    underflows or is infinite. fsum's own errors, such as inf + -inf, are
    therefore raised as before, in row order. Rows of 2**26 values or
    more go to math.fsum whole.
    """
    n = x.shape[1]
    if n >= 2**26:
        return [math.fsum(memoryview(row)) for row in x]
    with np.errstate(all="ignore"):
        q = np.abs(x)  # one buffer holds |x|, then q, then p and |p|
        m = q.max(axis=1)
        sigma = np.ldexp(1.0, np.frexp(m)[1] + (n + 1).bit_length())[:, None]
        np.add(x, sigma, out=q)
        q -= sigma
        tau1 = q.sum(axis=1)
        p = np.subtract(x, q, out=q)
        r, r_err = _two_sum(tau1, p.sum(axis=1))
        delta = np.abs(p, out=p).sum(axis=1) * (4 * n * 2.0**-53) + _TINY
        up = (np.nextafter(r, np.inf) - r) * 0.5
        down = (r - np.nextafter(r, -np.inf)) * 0.5
        size = np.abs(r)
        certified = (r_err + delta < up) & (r_err - delta > -down) & (m < _BIG) & (size >= _SMALL) & (size < _BIG)
    sums = r.tolist()
    for i in np.flatnonzero(~certified).tolist():
        sums[i] = math.fsum(memoryview(x[i]))
    return sums


class ItoDecomposition(Record):
    """Taylor-ladder split of an asset-currency move along a state path.

    residual is the genuine approximation error against the exact endpoint
    move; nothing re-absorbs it.
    """

    _fields = ("carry", "rate", "market", "total")

    def __init__(self, carry: float, rate: float, market: float, total: float):
        self.__dict__.update(carry=carry, rate=rate, market=market, total=total)

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
        if i == 1:
            start = f0  # the total's start price: n steps cost 7n + 1 prices
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

    end = float(price(float(u[-1]), float(r[-1]), float(x[-1])))  # the one price no derivative check sees
    if not math.isfinite(end):
        raise PricerEvaluationFailed(f"non-finite price {end!r} at grid index {len(u) - 1} (time {float(u[-1])})")
    return ItoDecomposition(
        carry=math.fsum(carry_terms),
        rate=math.fsum(rate_terms),
        market=math.fsum(market_terms),
        total=float(end - start),
    )


def _mean_stderr(values: tuple[float, ...]) -> tuple[float, float]:
    """Mean and standard error of the values; nan, without a warning, for no values and one."""
    values, n = np.array(values), len(values)
    return (float(values.mean()) if n else math.nan), (float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else math.nan)


_STUDY_COLUMNS = ("seeds", "n_steps", "coarse_fx", "coarse_asset", "fine_fx", "fine_asset", "covariation", "total")


class StudyResult(Record):
    """Coarse-vs-fine comparisons of paths, one row per path, plus covariation stats.

    The study is held as columns: tuples seeds, n_steps, coarse_fx,
    coarse_asset, fine_fx, fine_asset, covariation and total, one entry per
    path in order, and ==, hash and repr compare and show them.
    StudyResult(studies) joins the columns of the given studies in order.
    """

    _fields = _STUDY_COLUMNS

    def __init__(self, studies: Iterable[StudyResult] = ()):
        studies = tuple(studies)
        self.__dict__.update((name, tuple(chain.from_iterable(getattr(study, name) for study in studies)))
                             for name in _STUDY_COLUMNS)

    @classmethod
    def _from_columns(cls, columns) -> StudyResult:
        study = cls.__new__(cls)
        study.__dict__.update(zip(_STUDY_COLUMNS, map(tuple, columns)))
        return study

    @property
    def covariation_mean(self) -> float:
        return _mean_stderr(self.covariation)[0]

    @property
    def covariation_stderr(self) -> float:
        return _mean_stderr(self.covariation)[1]


def compare_coarse_vs_fine(paths: PathSet, fx_mode: FxMode = FxMode.AVERAGE) -> StudyResult:
    """One-row study: the two-point split from the "asset" and "fx" path endpoints
    against the product-rule sums.

    Both sides reproduce the same endpoint total; only the split differs,
    and the covariation sum is exactly what the two-point scheme smears
    into its fx and asset parts. A mode that is not an FxMode is a
    ValueError before any sum is taken.
    """
    _checked_modes(fx_mode)
    columns = _columns(paths.paths["asset"][None, :], paths.paths["fx"][None, :], fx_mode)
    return StudyResult._from_columns(((paths.seed,), (paths.n_steps,), *(c.tolist() for c in columns)))


def covariation_study(
    params: SimulationParams,
    n_steps: int,
    seeds: Iterable[int],
    fx_mode: FxMode = FxMode.AVERAGE,
) -> StudyResult:
    """Run compare_coarse_vs_fine over many seeds in the given order.

    Equal bit for bit to StudyResult(compare_coarse_vs_fine(simulate_paths(params,
    n_steps, seed), fx_mode) for seed in seeds), but a block of seeds is simulated
    per array pass, and the study keeps the column pass's columns as they are.
    A mode that is not an FxMode is a ValueError before any seed is simulated.
    """
    _checked_modes(fx_mode)
    # freeing 2 MB lifts glibc's mmap and trim thresholds above a block's
    # temporaries, so every block reuses the heap pages of the one before
    np.empty(1 << 18)
    study_seeds, columns = [], [[] for _ in _STUDY_COLUMNS[2:]]
    for block, paths in _simulate_values(params, n_steps, seeds):
        study_seeds += block
        for column, values in zip(columns, _columns(paths["asset"], paths["fx"], fx_mode)):
            column += values.tolist()
    return StudyResult._from_columns((study_seeds, (n_steps,) * len(study_seeds), *columns))


def write_discrepancy_csv(study: StudyResult) -> str:
    """CSV text: seed,n_steps,component,coarse,fine,diff, three lines per path,
    written by one f-string from the study's columns."""
    rows = zip(study.seeds, study.n_steps, study.coarse_fx, study.coarse_asset, study.fine_fx, study.fine_asset,
               study.covariation)
    return "seed,n_steps,component,coarse,fine,diff\n" + "".join(
        f"{seed},{n},fx,{cfx!r},{ffx!r},{cfx - ffx!r}\n{seed},{n},asset,{cas!r},{fas!r},{cas - fas!r}\n"
        f"{seed},{n},covariation,0.0,{cov!r},{-cov!r}\n"
        for seed, n, cfx, cas, ffx, fas, cov in rows
    )
