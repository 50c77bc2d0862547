"""Conservative implicit density evolution d(rho)/dt = -d(b rho)/dx + nu d2(rho)/dx2.

Finite-volume flux form with zero-flux (reflecting) end faces: the nodal
sum ``sum(rho) dx`` telescopes exactly, so total probability is conserved
to roundoff.  Time stepping is trapezoidal (Crank-Nicolson), with the
drift row interpolated in time between the snapshots of the DriftField.

Each step builds one set of generator bands, at its end time
``t0 + (j + 1) dt``, and carries it to the next step as that step's start
bands; the implicit tridiagonal system is solved in place by LAPACK
``dgtsv``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from ..errors import InputError, InstabilityError, NumericalBreakdownError
from ..grids import Grid1D
from .drift import DriftField

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
                                 n_steps: int, *, t0: float = 0.0,
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
    rho = np.asarray(rho0, dtype=float).copy()
    if rho.shape != (grid.n,):
        raise InputError("rho0 must be a nodal field on the drift grid")
    if not np.all(np.isfinite(rho)):
        raise InputError("rho0 must be finite")
    if rho.min() < 0:
        raise InputError("rho0 must be nonnegative")
    norm = grid.trapezoid(rho)
    if abs(norm - 1.0) > _NORM_TOL:
        raise InputError(f"rho0 is not normalized: integral = {norm:.8f}")
    if n_steps < 0:
        raise InputError("n_steps must be >= 0")
    if store_every < 1:
        raise InputError("store_every must be >= 1")
    if n_steps > 0 and not dt > 0:
        raise InputError(f"dt must be positive, got {dt}")

    nu = df.params.nu_real
    dx = grid.dx
    half = 0.5 * dt
    rhs = np.empty_like(rho)
    out_rho = [rho.copy()]
    out_t = [t0]

    def half_bands(t):
        return [half * g for g in _generator_bands(df.b_on_grid(t), nu, dx)]

    # (1 + dt/2 G(t_j)) rho_j = (1 - dt/2 G(t_{j+1})) rho_{j+1}; the end
    # bands of one step are the start bands of the next
    m0, u0, l0 = half_bands(t0)
    for j in range(n_steps):
        t = t0 + (j + 1) * dt
        m1, u1, l1 = half_bands(t)
        np.multiply(1.0 + m0, rho, out=rhs)
        rhs[:-1] += u0 * rho[1:]
        rhs[1:] += l0 * rho[:-1]
        _, _, _, x, info = lapack.dgtsv(-l1, 1.0 - m1, -u1, rhs,
                                        overwrite_dl=1, overwrite_d=1,
                                        overwrite_du=1, overwrite_b=1)
        if info != 0:  # pragma: no cover - defensive
            raise NumericalBreakdownError(
                f"singular tridiagonal system at step {j} (dgtsv info={info})")
        rho, rhs = x, rho
        m0, u0, l0 = m1, u1, l1
        # written so that a NaN density fails the test too
        if not rho.min() >= _NEGATIVITY_TOL:
            raise InstabilityError(
                f"density reached {rho.min():.3e} at t={t:.6g}; "
                "reduce dt (or refine the grid)")
        if (j + 1) % store_every == 0:
            out_rho.append(rho.copy())
            out_t.append(t)
    if out_t[-1] != t0 + n_steps * dt:
        out_rho.append(rho.copy())
        out_t.append(t0 + n_steps * dt)
    return DensityEvolution(grid=grid, times=np.array(out_t),
                            rho=np.array(out_rho))


def l1_distance(grid: Grid1D, rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """Trapezoidal L1 distance between two nodal densities."""
    return float(grid.trapezoid(np.abs(rho_a - rho_b)))
