"""Euler-Maruyama ensembles of the diffusion dx = b dt + dW, E(dW^2) = 2 nu dt."""
from __future__ import annotations

import os
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


class _EulerMaruyama:
    """Explicit Euler-Maruyama steps of a position array, sharded by path.

    ``step(x, j)`` advances every path of ``x`` in place from step j to
    j + 1.  Path shards ``[lo, hi)`` step concurrently on threads (the noise
    draws and the numpy/scipy kernels release the GIL); each shard skips
    ahead to its own slice of the step's noise row, so ``x`` after a step
    does not depend on the partition.  Use as a context manager so the
    threads are released.
    """

    def __init__(self, df: DriftField, p: DiffusionParams, dt: float,
                 n_paths: int, seed: int, n_workers: int | None):
        if not p.is_real:
            raise UnsupportedConfigError(
                "sampling needs a real diffusion constant")
        if not dt > 0:
            raise InputError(f"dt must be positive, got {dt}")
        if n_workers is None:
            n_workers = _default_workers(n_paths)
        elif n_workers < 1:
            raise InputError("n_workers must be >= 1")
        guard = df.max_abs_b() * dt
        if not guard < 10.0 * df.grid.dx:     # a NaN drift node fails too
            raise InputError(
                f"dt too large for this drift: max|b| dt = {guard:.3g} "
                f"is not below 10 dx = {10 * df.grid.dx:.3g}")
        self.df = df
        self.dt = dt
        self.sigma = np.sqrt(2.0 * p.nu_real * dt)
        self.seed = seed
        self.n_paths = n_paths
        bounds = np.linspace(0, n_paths, n_workers + 1).astype(int).tolist()
        self.shards = [(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]
        self._pool = None

    def __enter__(self) -> "_EulerMaruyama":
        if len(self.shards) > 1:
            self._pool = ThreadPoolExecutor(max_workers=len(self.shards))
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _shard_step(self, x: np.ndarray, j: int, lo: int,
                    hi: int) -> int | None:
        """Advance paths [lo, hi) of ``x`` one step in place; return the
        lowest path index that went non-finite, or None.

        The shard is stepped in blocks of at most ``BLOCK_PATHS`` paths so
        that the step's temporaries stay in cache.
        """
        grid = self.df.grid
        for a in range(lo, hi, BLOCK_PATHS):
            end = min(a + BLOCK_PATHS, hi)
            xs = x[a:end]
            z = rng.step_normals(self.seed, j, self.n_paths, a, end)
            b = self.df.b_at(j * self.dt, xs)
            b *= self.dt
            xs += b
            z *= self.sigma
            xs += z
            finite = np.isfinite(xs)
            if not finite.all():
                return a + int(np.argmin(finite))
            xs[...] = reflect(xs, grid.x_min, grid.x_max)
        return None

    def step(self, x: np.ndarray, j: int) -> None:
        if self._pool is None:
            bad = [self._shard_step(x, j, a, b) for a, b in self.shards]
        else:
            bad = list(self._pool.map(
                lambda s: self._shard_step(x, j, *s), self.shards))
        bad = [k for k in bad if k is not None]
        if bad:
            raise NumericalBreakdownError(
                f"non-finite position for path {min(bad)} at step {j + 1}")


def simulate_ensemble(df: DriftField, init: np.ndarray, p: DiffusionParams,
                      dt: float, n_steps: int, seed: int, *,
                      n_workers: int | None = None,
                      store_every: int = 1) -> Ensemble:
    """Integrate the ensemble with explicit Euler-Maruyama steps.

    ``x_{j+1} = x_j + b(x_j, t_j) dt + dW_j`` with ``dW_j`` zero-mean
    Gaussian of variance ``2 nu dt``; the drift is linear interpolation of
    the field in x and t; reflecting walls at the grid ends keep paths in
    the box.  The paths are split into ``n_workers`` contiguous shards that
    step on as many threads; ``None`` (the default) uses the usable cores
    but keeps every shard at least ``MIN_SHARD_PATHS`` paths.  The result
    is bit-identical for every value: each shard draws its slice of the
    step's noise row by counter skip-ahead.  ``store_every`` keeps every
    k-th step (``n_steps`` must divide evenly); the stored matrix then
    represents the process observed at spacing ``k dt``, with the
    integration step recorded separately.  ``paths`` is column-major, so
    each stored step is contiguous.

    Raises
    ------
    UnsupportedConfigError
        Continued-mode parameters.
    InputError
        A non-positive ``dt`` or ``n_workers``, or a drift so large that
        ``max|b| dt >= 10 dx`` (step would jump many cells).
    NumericalBreakdownError
        Non-finite position, reported with the first step at which one
        occurs and the lowest path index at that step.
    """
    init = np.asarray(init, dtype=float)
    em = _EulerMaruyama(df, p, dt, init.size, seed, n_workers)
    if init.ndim != 1:
        raise InputError("init must be a 1-d array of positions")
    bad0 = ~np.isfinite(init)
    if bad0.any():
        raise NumericalBreakdownError(
            f"non-finite position for path {int(np.argmax(bad0))} at step 0")
    if n_steps < 0:
        raise InputError("n_steps must be >= 0")
    if store_every < 1 or (n_steps % store_every and n_steps > 0):
        raise InputError("store_every must be >= 1 and divide n_steps")

    n_paths = init.size
    lo, hi = df.grid.x_min, df.grid.x_max
    paths = np.empty((n_paths, n_steps // store_every + 1), order="F")
    x = reflect(init, lo, hi)
    paths[:, 0] = x
    with em:
        for j in range(n_steps):
            em.step(x, j)
            if (j + 1) % store_every == 0:
                paths[:, (j + 1) // store_every] = x
    return Ensemble(paths=paths, dt=dt * store_every, t0=0.0, seed=seed,
                    params=p, provenance=df.provenance, x_min=lo, x_max=hi,
                    sde_dt=dt)
