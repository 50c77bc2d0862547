"""Implicit trapezoidal (Crank-Nicolson) Schrodinger stepper, hard walls.

The wavefunction is pinned to zero at both grid ends; the interior update
is the Cayley transform ``(1 + i dt H / 2 hbar)^-1 (1 - i dt H / 2 hbar)``,
which is exactly unitary in the nodal l2 norm for the symmetric tridiagonal
H, so the norm is conserved to roundoff at every step.

H does not change between steps, so ``stepping.crank_nicolson`` factors
the implicit matrix once and solves each step in place.
"""
from __future__ import annotations

import numpy as np

from ..errors import InputError, NumericalBreakdownError
from ..grids import Grid1D, real_potential
from ..params import HBAR, MASS
from .stepping import crank_nicolson
from .wave import WaveSolution

_NORM_TOL = 1e-6


def solve_schrodinger(V: np.ndarray, psi0: np.ndarray, grid: Grid1D,
                      dt: float, n_steps: int, *,
                      store_every: int = 1) -> WaveSolution:
    """Evolve ``psi0`` under ``-hbar^2/2m d^2/dx^2 + V`` for ``n_steps`` steps.

    Parameters
    ----------
    V : array
        Static real potential sampled on the grid nodes.
    psi0 : complex array
        Initial state, trapezoid-normalized to 1 within 1e-6.
    dt, n_steps
        Step size (> 0) and step count; ``n_steps = 0`` returns the input
        state unchanged.
    store_every : int
        Keep every k-th step (the initial state is always kept).

    Returns
    -------
    WaveSolution
        Stored snapshots with log-amplitude/phase populated at each time.

    Raises
    ------
    InputError
        Non-normalized or non-finite psi0, non-finite or complex V, bad dt,
        or a ``V`` or ``psi0`` that is not a nodal field on the grid.
    NumericalBreakdownError
        If LAPACK reports a singular factor or a failed solve, or a step
        leaves a non-finite value (reported with its step index).
    """
    V = real_potential(V, grid)
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (grid.n,):
        raise InputError("psi0 must be a nodal field on the grid")
    if not np.all(np.isfinite(V)):
        raise InputError("V must be finite")
    if not np.all(np.isfinite(psi0)):
        raise InputError("psi0 must be finite")
    norm = grid.trapezoid(np.abs(psi0) ** 2)
    if abs(norm - 1.0) > _NORM_TOL:
        raise InputError(f"psi0 is not normalized: integral |psi0|^2 = {norm:.8f}")

    kin = HBAR * HBAR / (2.0 * MASS * grid.dx * grid.dx)
    r = 0.5j * dt / HBAR
    # A = -(dt/2) i H / hbar on the interior, as -(r h): 1 -/+ A = 1 +/- r h
    off = -(r * (-kin * np.ones(grid.n - 3)))
    bands = (-(r * (2.0 * kin + V[1:-1])), off, off)

    def guard(j, p):
        if not np.all(np.isfinite(p)):
            raise NumericalBreakdownError(
                f"non-finite wavefunction at step {j}")

    times, kept = crank_nicolson(
        bands, psi0[1:-1], dt, n_steps, store_every, guard,
        lambda p: np.concatenate(([0j], p, [0j])))
    psi = np.array(kept)
    psi[0] = psi0           # the initial state keeps its wall values
    return WaveSolution(grid, times, psi)
