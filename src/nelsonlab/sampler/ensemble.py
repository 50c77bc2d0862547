"""Euler-Maruyama ensembles of the diffusion dx = b dt + dW, E(dW^2) = 2 nu dt,
with ``nu`` read from the drift, so its osmotic part and the noise agree."""
from __future__ import annotations

import numbers
import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..errors import InputError, NumericalBreakdownError, UnsupportedConfigError
from ..fields.drift import DriftField
from ..grids import Grid1D
from ..params import DiffusionParams
from . import rng

# smallest shard the default partition makes (crossover of shards that
# join once, measured on two cores, BENCH_sampler_march.json)
MIN_SHARD_PATHS = 8_192
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
    ``n_paths`` must be an integer >= 0, not a bool (InputError, before
    any draw).
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
    if isinstance(n_paths, bool) or not isinstance(n_paths, numbers.Integral):
        raise InputError(f"n_paths must be an integer, got {n_paths!r}")
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


def _default_workers(n_paths: int) -> int:
    """Threads used when ``n_workers`` is None: the usable cores, but no
    shard smaller than ``MIN_SHARD_PATHS`` paths."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cores = os.cpu_count() or 1
    return max(1, min(cores, n_paths // MIN_SHARD_PATHS))


class _Shard:
    """Paths [lo, hi) of the position array ``x``, with the buffers of
    their march allocated once.

    ``march`` is the only Euler-Maruyama step loop; ``ensemble_steps`` runs
    it from each kept step to the next.  Each step draws its noise from one
    Philox generator that skips ahead to path ``lo`` and then serves the
    shard's blocks of at most ``BLOCK_PATHS`` paths in order, so every path
    is bit-identical for any partition.  The drift's slope/intercept tables
    are taken once per step, or once for a static drift, by
    ``DriftField.b_tables``.
    """

    def __init__(self, df: DriftField, x: np.ndarray, lo: int, hi: int,
                 dt: float, sigma: float, seed: int):
        self.df, self.x, self.lo, self.hi = df, x, lo, hi
        self.dt, self.sigma, self.seed = dt, sigma, seed
        m = min(BLOCK_PATHS, hi - lo)
        self.z, self.u, self.b = np.empty(m), np.empty(m), np.empty(m)
        self.i = np.empty(m, dtype=np.intp)
        self.tables = df.b_tables(0.0) if df.static else None

    def march(self, j0: int, j1: int) -> tuple[int, int] | None:
        """Advance the shard's paths from step j0 to step j1 in place.

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
        return None


def _plan(df: DriftField, init: np.ndarray, dt: float, steps: Sequence[int],
          n_workers: int | None) -> tuple[np.ndarray, list[int], list, float]:
    """Check a march's arguments; return ``init`` as floats, the kept
    steps as ints, the shards' path bounds and the noise scale
    ``sqrt(2 nu dt)``."""
    nu = df.params.nu_real      # refuses a continued member
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
    steps = np.asarray(steps)
    if steps.ndim != 1 or steps.size == 0 or steps.dtype.kind not in "iu":
        raise InputError("steps must be a non-empty 1-d integer sequence")
    # compared pairwise: np.diff of unsigned steps would wrap, not go negative
    if steps[0] < 0 or not (steps[1:] > steps[:-1]).all():
        raise InputError("steps must be >= 0 and strictly increasing")
    bounds = np.linspace(0, init.size, n_workers + 1).astype(int).tolist()
    shards = [(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]
    return init, steps.tolist(), shards, np.sqrt(2.0 * nu * dt)


def ensemble_steps(df: DriftField, init: np.ndarray, dt: float,
                   steps: Sequence[int], seed: int, *,
                   n_workers: int | None = None) -> np.ndarray:
    """Step the ensemble with explicit Euler-Maruyama; keep the positions
    at ``steps``.

    ``x_{j+1} = x_j + b(x_j, t_j) dt + dW_j`` with ``dW_j`` zero-mean
    Gaussian of variance ``2 nu dt`` (``nu`` from ``df.params``); the
    drift is linear interpolation of the field in x and t; reflecting
    walls at the grid ends keep paths in the box (``init`` is folded in
    first, and is step 0).  ``steps`` is a strictly increasing sequence of
    nonnegative integer step indices; the result is the column-major
    ``(n_paths, len(steps))`` array whose column c holds the positions at
    step ``steps[c]``.

    The paths are split into ``n_workers`` contiguous shards, each
    marching on its own thread (a lone shard on the calling thread) from
    one kept step to the next and writing its own rows of that step's
    column; the threads join once, at the end.  ``None`` (the default)
    uses the usable cores but keeps every shard at least
    ``MIN_SHARD_PATHS`` paths.  The positions are bit-identical for every
    value: each shard draws its slice of the step's noise row by counter
    skip-ahead.  Every argument is checked before any thread starts.

    Raises
    ------
    UnsupportedConfigError
        A drift at a continued member.
    InputError
        ``init`` not 1-d, a non-positive ``dt`` or ``n_workers``, a
        ``steps`` that is empty, not 1-d, not integer, negative or not
        strictly increasing, or a drift so large that ``max|b| dt >= 10
        dx`` (a step would jump many cells; a NaN drift node fails too).
    NumericalBreakdownError
        Non-finite position: a non-finite ``init``, or, while stepping,
        the first step at which one occurs (kept or not) and the lowest
        path index at that step.
    """
    init, steps, bounds, sigma = _plan(df, init, dt, steps, n_workers)
    paths = np.empty((init.size, len(steps)), order="F")
    x = reflect(init, df.grid.x_min, df.grid.x_max)

    def march(s: _Shard) -> tuple[int, int] | None:
        j = 0
        for c, k in enumerate(steps):
            bad = s.march(j, k)
            if bad is not None:
                return bad
            paths[s.lo:s.hi, c] = x[s.lo:s.hi]
            j = k
        return None
    shards = [_Shard(df, x, lo, hi, dt, sigma, seed) for lo, hi in bounds]
    if len(shards) > 1:
        with ThreadPoolExecutor(len(shards)) as pool:
            bad = list(pool.map(march, shards))
    else:
        bad = list(map(march, shards))
    bad = min(filter(None, bad), default=None)    # the least (step, path)
    if bad is not None:
        step, path = bad
        raise NumericalBreakdownError(
            f"non-finite position for path {path} at step {step}")
    return paths


def simulate_ensemble(df: DriftField, init: np.ndarray, p: DiffusionParams,
                      dt: float, n_steps: int, seed: int, *,
                      n_workers: int | None = None,
                      store_every: int = 1) -> Ensemble:
    """Keep every ``store_every``-th step of ``ensemble_steps``.

    ``p`` must be ``df.params`` (a continued ``p``:
    UnsupportedConfigError; any other: InputError).  ``n_steps`` and
    ``store_every`` must be integers, not bools, ``n_steps >= 0``, and
    ``store_every`` must be >= 1 and divide ``n_steps`` (InputError).  The
    other arguments, their checks, the partition, the single join and the
    errors are those of ``ensemble_steps`` on ``range(0, n_steps + 1,
    store_every)``.  The stored matrix represents the process observed at
    spacing ``store_every * dt``, with the integration step recorded as
    ``sde_dt``.  ``paths`` is column-major, so each stored step is
    contiguous.
    """
    if not p.is_real:
        raise UnsupportedConfigError("sampling needs a real diffusion constant")
    if p != df.params:
        raise InputError(f"p has nu = {p.nu}, but the drift was built at "
                         f"nu = {df.params.nu}")
    for name, count in (("n_steps", n_steps), ("store_every", store_every)):
        if isinstance(count, bool) or not isinstance(count, numbers.Integral):
            raise InputError(f"{name} must be an integer, got {count!r}")
    if n_steps < 0:
        raise InputError("n_steps must be >= 0")
    if store_every < 1 or n_steps % store_every:
        raise InputError("store_every must be >= 1 and divide n_steps")
    paths = ensemble_steps(df, init, dt, range(0, n_steps + 1, store_every),
                           seed, n_workers=n_workers)
    return Ensemble(paths=paths, dt=dt * store_every, t0=0.0, seed=seed,
                    drift=df, sde_dt=dt)
