"""Euler-Maruyama ensembles of the diffusion dx = b dt + dW, E(dW^2) = 2 nu dt,
with ``nu`` read from the drift, so its osmotic part and the noise agree."""
from __future__ import annotations

import os
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..errors import InputError, NumericalBreakdownError, UnsupportedConfigError
from ..fields.drift import DriftField
from ..grids import Grid1D
from ..params import DiffusionParams
from . import rng

# smallest shard the default partition makes: simulate_ensemble's shards
# join once, ensemble_steps' after every step (crossovers measured on two
# cores, BENCH_sampler_march.json)
MIN_SHARD_PATHS = 8_192
MIN_STEP_SHARD_PATHS = 16_384
BLOCK_PATHS = 32_768  # paths stepped at once; keeps the temporaries in cache


@dataclass
class Ensemble:
    """Matrix of sample paths ``paths[k, j] = x_k(t0 + j dt)``.

    ``dt`` is the spacing of the *stored* columns; when the integrator
    substeps (``store_every > 1``), ``sde_dt`` records the finer step it
    actually took.  The member, its provenance and the walls are read from
    ``drift``.  Regenerating with the same (seed, drift, steps, n_paths)
    gives a bit-identical matrix regardless of how path chunks were
    scheduled.
    """

    paths: np.ndarray
    dt: float
    t0: float
    seed: int
    drift: DriftField
    sde_dt: float | None = None

    def __post_init__(self):
        if self.sde_dt is None:
            self.sde_dt = self.dt

    @property
    def params(self) -> DiffusionParams:
        return self.drift.params

    @property
    def x_min(self) -> float:
        return self.drift.grid.x_min

    @property
    def x_max(self) -> float:
        return self.drift.grid.x_max

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def n_steps(self) -> int:
        return self.paths.shape[1] - 1

    def positions(self, j: int) -> np.ndarray:
        return self.paths[:, j]


def sample_initial(rho0: np.ndarray, grid: Grid1D, n_paths: int,
                   seed: int) -> np.ndarray:
    """Inverse-CDF draw of n_paths positions from a nodal density.

    The CDF is the cumulative trapezoid of ``rho0``; uniforms come from the
    dedicated initial-positions stream of ``seed``, so the draw is
    deterministic and independent of everything simulated later.
    """
    rho0 = np.asarray(rho0, dtype=float)
    if rho0.shape != (grid.n,):
        raise InputError("rho0 must be a nodal field on the grid")
    if not np.isfinite(rho0).all():
        raise InputError("rho0 must be finite")
    if rho0.min() < 0:
        raise InputError("rho0 must be nonnegative")
    total = grid.trapezoid(rho0)
    if total <= 0:
        raise InputError("rho0 is degenerate (zero mass)")
    if n_paths < 0:
        raise InputError("n_paths must be >= 0")
    if n_paths == 0:
        return np.empty(0)
    mids = 0.5 * (rho0[:-1] + rho0[1:])
    cdf = np.concatenate(([0.0], np.cumsum(mids) * grid.dx)) / total
    cdf[-1] = 1.0
    u = rng.stream_uniforms(seed, rng.INIT_TAG, n_paths)
    return np.interp(u, cdf, grid.x)


def reflect(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Fold positions into [lo, hi] by specular reflection at the walls.

    Returns a new array.  Only positions outside the box are folded; those
    inside are returned bit-unchanged.
    """
    y = np.array(x, dtype=float)
    if y.size and not (y.min() >= lo and y.max() <= hi):
        _fold(y, lo, hi)
    return y


def _fold(y: np.ndarray, lo: float, hi: float) -> None:
    """Fold the positions of ``y`` outside [lo, hi] in place."""
    outside = (y < lo) | (y > hi)
    width = hi - lo
    folded = np.mod(y[outside] - lo, 2.0 * width)
    y[outside] = lo + np.minimum(folded, 2.0 * width - folded)


def _default_workers(n_paths: int, min_shard: int) -> int:
    """Threads used when ``n_workers`` is None: the usable cores, but no
    shard smaller than ``min_shard`` paths."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cores = os.cpu_count() or 1
    return max(1, min(cores, n_paths // min_shard))


class _Shard:
    """Paths [lo, hi) of the position array ``x``, with the buffers of
    their march allocated once.

    ``march`` is the only Euler-Maruyama step loop.  Each step draws its
    noise from one Philox generator that skips ahead to path ``lo`` and
    then serves the shard's blocks of at most ``BLOCK_PATHS`` paths in
    order, so every path is bit-identical for any partition.  The drift's
    slope/intercept tables are taken once per step, or once for a static
    drift, by ``DriftField.b_tables``.
    """

    def __init__(self, df: DriftField, x: np.ndarray, lo: int, hi: int,
                 dt: float, sigma: float, seed: int):
        self.df, self.x, self.lo, self.hi = df, x, lo, hi
        self.dt, self.sigma, self.seed = dt, sigma, seed
        m = min(BLOCK_PATHS, hi - lo)
        self.z, self.u, self.b = np.empty(m), np.empty(m), np.empty(m)
        self.i = np.empty(m, dtype=np.intp)
        self.tables = df.b_tables(0.0) if df.static else None

    def march(self, j0: int, j1: int, paths: np.ndarray | None = None,
              every: int = 1) -> tuple[int, int] | None:
        """Advance the shard's paths from step j0 to step j1 in place.

        When ``paths`` is given, the shard writes its rows of stored
        column ``j // every`` after each step j that ``every`` divides.
        Returns ``(step, path)`` of the first non-finite position, the
        lowest path at the first step that has one, and stops there; or
        None.
        """
        df, x, dt, sigma = self.df, self.x, self.dt, self.sigma
        lo, hi = self.lo, self.hi
        x_min, x_max = df.grid.x_min, df.grid.x_max
        for j in range(j0, j1):
            gen = rng.stream_at(self.seed, j, lo)
            tables = (self.tables if self.tables is not None
                      else df.b_tables(j * dt))
            for a in range(lo, hi, BLOCK_PATHS):
                m = min(BLOCK_PATHS, hi - a)
                xs = x[a:a + m]
                z = rng.fill_normals(gen, self.z[:m])
                b = df.b_from_tables(tables, xs, out=self.b[:m],
                                     u=self.u[:m], i=self.i[:m])
                b *= dt
                xs += b
                z *= sigma
                xs += z
                if not (xs.min() >= x_min and xs.max() <= x_max):
                    finite = np.isfinite(xs)
                    if not finite.all():
                        return j + 1, a + int(np.argmin(finite))
                    _fold(xs, x_min, x_max)
            if paths is not None and (j + 1) % every == 0:
                paths[lo:hi, (j + 1) // every] = x[lo:hi]
        return None


def _raise_first(bad) -> None:
    """Raise for the least (step, path) that the shards reported, if any."""
    bad = [k for k in bad if k is not None]
    if bad:
        step, path = min(bad)
        raise NumericalBreakdownError(
            f"non-finite position for path {path} at step {step}")


def _plan(df: DriftField, init: np.ndarray, dt: float, n_steps: int,
          n_workers: int | None, min_shard: int
          ) -> tuple[np.ndarray, list, float]:
    """Check a march's arguments; return ``init`` as floats, the shards'
    path bounds (``n_workers`` None: no shard under ``min_shard`` paths)
    and the noise scale ``sqrt(2 nu dt)``."""
    nu = df.params.nu_real      # refuses a continued member
    if not dt > 0:
        raise InputError(f"dt must be positive, got {dt}")
    init = np.asarray(init, dtype=float)
    if init.ndim != 1:
        raise InputError("init must be a 1-d array of positions")
    if n_workers is None:
        n_workers = _default_workers(init.size, min_shard)
    elif n_workers < 1:
        raise InputError("n_workers must be >= 1")
    guard = df.max_abs_b() * dt
    if not guard < 10.0 * df.grid.dx:     # a NaN drift node fails too
        raise InputError(
            f"dt too large for this drift: max|b| dt = {guard:.3g} "
            f"is not below 10 dx = {10 * df.grid.dx:.3g}")
    bad0 = ~np.isfinite(init)
    if bad0.any():
        raise NumericalBreakdownError(
            f"non-finite position for path {int(np.argmax(bad0))} at step 0")
    if n_steps < 0:
        raise InputError("n_steps must be >= 0")
    bounds = np.linspace(0, init.size, n_workers + 1).astype(int).tolist()
    shards = [(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]
    return init, shards, np.sqrt(2.0 * nu * dt)


def ensemble_steps(df: DriftField, init: np.ndarray, dt: float, n_steps: int,
                   seed: int, *, n_workers: int | None = None
                   ) -> Iterator[np.ndarray]:
    """Step the ensemble with explicit Euler-Maruyama; yield its positions.

    ``x_{j+1} = x_j + b(x_j, t_j) dt + dW_j`` with ``dW_j`` zero-mean
    Gaussian of variance ``2 nu dt`` (``nu`` from ``df.params``); the
    drift is linear interpolation of the field in x and t; reflecting
    walls at the grid ends keep paths in the box (``init`` is folded in
    first).  The generator yields the positions at steps 0, 1, ...,
    ``n_steps`` as *one* array that each step advances in place: copy what
    must outlive the next step.

    The paths are split into ``n_workers`` contiguous shards that step on
    as many threads; ``None`` (the default) uses the usable cores but keeps
    every shard at least ``MIN_STEP_SHARD_PATHS`` paths, and one shard
    steps on the calling thread.  The positions are bit-identical for
    every value: each shard draws its slice of the step's noise row by
    counter skip-ahead.  Each shard runs the march of ``simulate_ensemble``
    one step at a time, with its buffers kept from step to step, and the
    threads join after every step, before the array is yielded.  Every
    argument is checked when this is called, before any step; the threads
    start at the first ``next()`` and are released when the generator
    finishes, raises or is closed.

    Raises
    ------
    UnsupportedConfigError
        A drift at a continued member.
    InputError
        ``init`` not 1-d, a non-positive ``dt`` or ``n_workers``, a negative
        ``n_steps``, or a drift so large that ``max|b| dt >= 10 dx`` (a step
        would jump many cells; a NaN drift node fails too).
    NumericalBreakdownError
        Non-finite position: a non-finite ``init`` on the call, or, while
        stepping, the first step at which one occurs and the lowest path
        index at that step.
    """
    init, bounds, sigma = _plan(df, init, dt, n_steps, n_workers,
                                MIN_STEP_SHARD_PATHS)

    def steps():
        x = reflect(init, df.grid.x_min, df.grid.x_max)
        shards = [_Shard(df, x, lo, hi, dt, sigma, seed) for lo, hi in bounds]
        pool = ThreadPoolExecutor(len(shards)) if len(shards) > 1 else None
        run = map if pool is None else pool.map
        try:
            yield x
            for j in range(n_steps):
                _raise_first(run(lambda s: s.march(j, j + 1), shards))
                yield x
        finally:
            if pool is not None:
                pool.shutdown()
    return steps()


def simulate_ensemble(df: DriftField, init: np.ndarray, p: DiffusionParams,
                      dt: float, n_steps: int, seed: int, *,
                      n_workers: int | None = None,
                      store_every: int = 1) -> Ensemble:
    """Store every ``store_every``-th array that ``ensemble_steps`` yields.

    ``p`` must be ``df.params`` (a continued ``p``:
    UnsupportedConfigError; any other: InputError).  The other arguments,
    their checks and the errors are those of ``ensemble_steps``, and so is
    the partition, except that ``n_workers=None`` keeps every shard at
    least ``MIN_SHARD_PATHS`` paths; ``store_every`` must be >= 1 and
    divide ``n_steps`` (InputError).  Each shard marches once through all
    ``n_steps`` on its own thread, writing its own rows of every stored
    column, and the threads join once, at the end; a non-finite position
    is then reported at the least (step, path) over the shards, as
    ``ensemble_steps`` reports it.  The stored matrix represents the
    process observed at spacing ``store_every * dt``, with the integration
    step recorded as ``sde_dt``.  ``paths`` is column-major, so each stored
    step is contiguous.
    """
    if not p.is_real:
        raise UnsupportedConfigError("sampling needs a real diffusion constant")
    if p != df.params:
        raise InputError(f"p has nu = {p.nu}, but the drift was built at "
                         f"nu = {df.params.nu}")
    init, bounds, sigma = _plan(df, init, dt, n_steps, n_workers,
                                MIN_SHARD_PATHS)
    if store_every < 1 or (n_steps % store_every and n_steps > 0):
        raise InputError("store_every must be >= 1 and divide n_steps")
    paths = np.empty((init.size, n_steps // store_every + 1), order="F")
    x = reflect(init, df.grid.x_min, df.grid.x_max)
    paths[:, 0] = x
    shards = [_Shard(df, x, lo, hi, dt, sigma, seed) for lo, hi in bounds]

    def march(s):
        return s.march(0, n_steps, paths, store_every)
    if len(shards) > 1:
        with ThreadPoolExecutor(len(shards)) as pool:
            bad = list(pool.map(march, shards))
    else:
        bad = list(map(march, shards))
    _raise_first(bad)
    return Ensemble(paths=paths, dt=dt * store_every, t0=0.0, seed=seed,
                    drift=df, sde_dt=dt)
