"""Conservative implicit density evolution d(rho)/dt = -d(b rho)/dx + nu d2(rho)/dx2.

Finite-volume flux form with zero-flux (reflecting) end faces: the nodal
sum ``sum(rho) dx`` telescopes exactly, so total probability is conserved
to roundoff.  Time stepping is trapezoidal (Crank-Nicolson), with the
drift row interpolated in time between the snapshots of the DriftField.

``stepping.crank_nicolson`` marches the density: a static drift's step
matrix is factored once, and a time-dependent drift's bands are built once
per step, at its end time, and carried to the next step.  A static drift
whose faces all pass mass both ways (``lower * upper > 0``) makes the step
the generator of a reversible chain, and the march runs in its
detailed-balance gauge ``rho = D z``, ``D`` proportional to the square
root of the chain's stationary density, where ``1 - A`` is symmetric
positive definite (LAPACK ``dpttrf`` and ``dpttrs``); the guard below
passes every nonnegative density, so the march asks it only on a step
with a negative or NaN entry.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InputError, InstabilityError
from ..grids import Grid1D
from .drift import DriftField
from .stepping import crank_nicolson

_NEGATIVITY_TOL = -1e-6
_NORM_TOL = 1e-6


@dataclass
class DensityEvolution:
    grid: Grid1D
    times: np.ndarray
    rho: np.ndarray  # (n_times, n_nodes)

    def final(self) -> np.ndarray:
        return self.rho[-1]

    def masses(self) -> np.ndarray:
        return self.rho.sum(axis=1) * self.grid.dx


def _generator_bands(b_row: np.ndarray, nu: float, dx: float
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tridiagonal bands of the flux-form generator for one drift row.

    Each face moves mass between its two nodes, so every column sums to
    zero: ``main[i] = -lower[i] - upper[i - 1]``.
    """
    bf = 0.5 * (b_row[:-1] + b_row[1:])  # face-centered drift
    c1 = 0.5 * bf / dx
    c2 = nu / (dx * dx)
    upper = c2 - c1
    lower = c1 + c2
    main = np.zeros(b_row.size)
    main[:-1] -= lower
    main[1:] -= upper
    return main, upper, lower


def evolve_density_fokker_planck(df: DriftField, rho0: np.ndarray, dt: float,
                                 n_steps: int, *,
                                 store_every: int = 1) -> DensityEvolution:
    """March ``rho0`` forward under the drift field's forward equation.

    Parameters
    ----------
    df : DriftField
        Supplies the drift rows (time-interpolated) and the diffusion
        constant through its parameters.
    rho0 : array
        Nonnegative initial density, trapezoid-normalized within 1e-6.
    dt, n_steps
        Step size and count; snapshots kept every ``store_every`` steps.

    Raises
    ------
    InputError
        Non-finite, negative or non-normalized rho0, bad dt, n_steps or
        store_every.
    InstabilityError
        If any nodal density drops below -1e-6 or is NaN (suggests a
        smaller dt).
    NumericalBreakdownError
        If LAPACK finds the step matrix singular.
    """
    grid = df.grid
    rho = np.asarray(rho0, dtype=float)
    if rho.shape != (grid.n,):
        raise InputError("rho0 must be a nodal field on the drift grid")
    if not np.all(np.isfinite(rho)):
        raise InputError("rho0 must be finite")
    if rho.min() < 0:
        raise InputError("rho0 must be nonnegative")
    norm = grid.trapezoid(rho)
    if abs(norm - 1.0) > _NORM_TOL:
        raise InputError(f"rho0 is not normalized: integral = {norm:.8f}")

    def half_bands(t):
        g = _generator_bands(df.b_on_grid(t), df.params.nu_real, grid.dx)
        return [0.5 * dt * band for band in g]

    def guard(j, rho):
        # written so that a NaN density fails the test too
        if not rho.min() >= _NEGATIVITY_TOL:
            raise InstabilityError(
                f"density reached {rho.min():.3e} at t={j * dt:.6g}; "
                "reduce dt (or refine the grid)")

    times, kept = crank_nicolson(half_bands(0.0) if df.static else half_bands,
                                 rho, dt, n_steps, store_every, guard)
    return DensityEvolution(grid, np.array(times), np.array(kept))


def l1_distance(grid: Grid1D, rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """Trapezoidal L1 distance between two nodal densities."""
    return float(grid.trapezoid(np.abs(rho_a - rho_b)))
