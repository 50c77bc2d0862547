"""Euler-Maruyama ensembles of the diffusion dx = b dt + dW, E(dW^2) = 2 nu dt."""
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

MIN_SHARD_PATHS = 16_384  # smallest shard the default partition makes
BLOCK_PATHS = 32_768  # paths stepped at once; keeps the temporaries in cache


@dataclass
class Ensemble:
    """Matrix of sample paths ``paths[k, j] = x_k(t0 + j dt)``.

    ``dt`` is the spacing of the *stored* columns; when the integrator
    substeps (``store_every > 1``), ``sde_dt`` records the finer step it
    actually took.  Regenerating with the same (seed, drift, steps,
    n_paths) gives a bit-identical matrix regardless of how path chunks
    were scheduled.
    """

    paths: np.ndarray
    dt: float
    t0: float
    seed: int
    params: DiffusionParams
    provenance: str
    x_min: float
    x_max: float
    sde_dt: float | None = None

    def __post_init__(self):
        if self.sde_dt is None:
            self.sde_dt = self.dt

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def n_steps(self) -> int:
        return self.paths.shape[1] - 1

    def time(self, j: int) -> float:
        return self.t0 + j * self.dt

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
        outside = (y < lo) | (y > hi)
        width = hi - lo
        folded = np.mod(y[outside] - lo, 2.0 * width)
        y[outside] = lo + np.minimum(folded, 2.0 * width - folded)
    return y


def _default_workers(n_paths: int) -> int:
    """Threads used when ``n_workers`` is None: the usable cores, but no
    shard smaller than ``MIN_SHARD_PATHS`` paths."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cores = os.cpu_count() or 1
    return max(1, min(cores, n_paths // MIN_SHARD_PATHS))


def _shard_step(df: DriftField, x: np.ndarray, j: int, dt: float,
                sigma: float, seed: int, lo: int, hi: int) -> int | None:
    """Advance paths [lo, hi) of ``x`` from step j to j + 1 in place; return
    the lowest path index that went non-finite, or None.

    The shard draws its slice of step j's noise row by skip-ahead, so ``x``
    after a step does not depend on the partition.  It is stepped in blocks
    of at most ``BLOCK_PATHS`` paths so that the temporaries stay in cache.
    """
    grid = df.grid
    for a in range(lo, hi, BLOCK_PATHS):
        end = min(a + BLOCK_PATHS, hi)
        xs = x[a:end]
        z = rng.step_normals(seed, j, x.size, a, end)
        b = df.b_at(j * dt, xs)
        b *= dt
        xs += b
        z *= sigma
        xs += z
        finite = np.isfinite(xs)
        if not finite.all():
            return a + int(np.argmin(finite))
        xs[...] = reflect(xs, grid.x_min, grid.x_max)
    return None


def ensemble_steps(df: DriftField, init: np.ndarray, p: DiffusionParams,
                   dt: float, n_steps: int, seed: int, *,
                   n_workers: int | None = None) -> Iterator[np.ndarray]:
    """Step the ensemble with explicit Euler-Maruyama; yield its positions.

    ``x_{j+1} = x_j + b(x_j, t_j) dt + dW_j`` with ``dW_j`` zero-mean
    Gaussian of variance ``2 nu dt``; the drift is linear interpolation of
    the field in x and t; reflecting walls at the grid ends keep paths in
    the box (``init`` is folded in first).  The generator yields the
    positions at steps 0, 1, ..., ``n_steps`` as *one* array that each
    step advances in place: copy what must outlive the next step.

    The paths are split into ``n_workers`` contiguous shards that step on
    as many threads; ``None`` (the default) uses the usable cores but keeps
    every shard at least ``MIN_SHARD_PATHS`` paths, and one shard steps on
    the calling thread.  The positions are bit-identical for every value:
    each shard draws its slice of the step's noise row by counter
    skip-ahead.  Every argument is checked when this is called, before any
    step; the threads start at the first ``next()`` and are released when
    the generator finishes, raises or is closed.

    Raises
    ------
    UnsupportedConfigError
        Continued-mode parameters.
    InputError
        ``init`` not 1-d, a non-positive ``dt`` or ``n_workers``, a negative
        ``n_steps``, or a drift so large that ``max|b| dt >= 10 dx`` (a step
        would jump many cells; a NaN drift node fails too).
    NumericalBreakdownError
        Non-finite position: a non-finite ``init`` on the call, or, while
        stepping, the first step at which one occurs and the lowest path
        index at that step.
    """
    if not p.is_real:
        raise UnsupportedConfigError(
            "sampling needs a real diffusion constant")
    if not dt > 0:
        raise InputError(f"dt must be positive, got {dt}")
    init = np.asarray(init, dtype=float)
    if init.ndim != 1:
        raise InputError("init must be a 1-d array of positions")
    if n_workers is None:
        n_workers = _default_workers(init.size)
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
    sigma = np.sqrt(2.0 * p.nu_real * dt)

    def steps():
        x = reflect(init, df.grid.x_min, df.grid.x_max)
        pool = ThreadPoolExecutor(len(shards)) if len(shards) > 1 else None
        run = map if pool is None else pool.map
        try:
            yield x
            for j in range(n_steps):
                bad = [k for k in run(lambda s: _shard_step(
                    df, x, j, dt, sigma, seed, *s), shards) if k is not None]
                if bad:
                    raise NumericalBreakdownError(
                        f"non-finite position for path {min(bad)} "
                        f"at step {j + 1}")
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

    The other arguments, their checks and the errors are those of
    ``ensemble_steps``; ``store_every`` must be >= 1 and divide ``n_steps``
    (InputError).  The stored matrix represents the process observed at
    spacing ``store_every * dt``, with the integration step recorded as
    ``sde_dt``.  ``paths`` is column-major, so each stored step is
    contiguous.
    """
    steps = ensemble_steps(df, init, p, dt, n_steps, seed,
                           n_workers=n_workers)
    if store_every < 1 or (n_steps % store_every and n_steps > 0):
        raise InputError("store_every must be >= 1 and divide n_steps")
    paths = np.empty((len(init), n_steps // store_every + 1), order="F")
    for j, x in enumerate(steps):
        if j % store_every == 0:
            paths[:, j // store_every] = x
    return Ensemble(paths=paths, dt=dt * store_every, t0=0.0, seed=seed,
                    params=p, provenance=df.provenance, x_min=df.grid.x_min,
                    x_max=df.grid.x_max, sde_dt=dt)
