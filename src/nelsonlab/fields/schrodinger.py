"""Implicit trapezoidal (Crank-Nicolson) Schrodinger stepper, hard walls.

The wavefunction is pinned to zero at both grid ends; the interior update
is the Cayley transform ``(1 + i dt H / 2 hbar)^-1 (1 - i dt H / 2 hbar)``,
which is exactly unitary in the nodal l2 norm for the symmetric tridiagonal
H, so the norm is conserved to roundoff at every step.

``A = 1 + i dt H / 2 hbar`` does not change between steps, so it is
factored once (LAPACK ``zgttrf``, LU with partial pivoting); each step forms
its explicit right-hand side in one buffer and solves it in place with
``zgttrs``.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from ..errors import InputError, NumericalBreakdownError
from ..grids import Grid1D
from .wave import DEFAULT_RHO_FLOOR, WaveSolution

_NORM_TOL = 1e-6


def solve_schrodinger(V: np.ndarray, psi0: np.ndarray, grid: Grid1D,
                      dt: float, n_steps: int, *, m: float = 1.0,
                      hbar: float = 1.0, store_every: int = 1,
                      rho_floor: float = DEFAULT_RHO_FLOOR) -> WaveSolution:
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
        Non-normalized or non-finite psi0, non-finite or complex V, bad dt.
    NumericalBreakdownError
        If LAPACK reports a singular factor or a failed solve, or a step
        leaves a non-finite value (reported with its step index).
    """
    V = np.asarray(V, dtype=float)
    psi0 = np.asarray(psi0, dtype=complex)
    if V.shape != (grid.n,) or psi0.shape != (grid.n,):
        raise InputError("V and psi0 must be nodal fields on the grid")
    if not np.all(np.isfinite(V)):
        raise InputError("V must be finite")
    if not np.all(np.isfinite(psi0)):
        raise InputError("psi0 must be finite")
    if n_steps < 0:
        raise InputError("n_steps must be >= 0")
    if n_steps > 0 and not dt > 0:
        raise InputError(f"dt must be positive, got {dt}")
    if store_every < 1:
        raise InputError("store_every must be >= 1")
    norm = grid.trapezoid(np.abs(psi0) ** 2)
    if abs(norm - 1.0) > _NORM_TOL:
        raise InputError(f"psi0 is not normalized: integral |psi0|^2 = {norm:.8f}")

    if n_steps == 0:
        return WaveSolution.from_psi(grid, [0.0], psi0[None, :].copy(),
                                     rho_floor=rho_floor)

    dx = grid.dx
    n_int = grid.n - 2
    kin = hbar * hbar / (2.0 * m * dx * dx)
    h_main = 2.0 * kin + V[1:-1]
    h_off = -kin * np.ones(n_int - 1)
    r = 0.5j * dt / hbar

    # 1 - r H (explicit) and 1 + r H (implicit, factored once) share the
    # off-diagonal r h_off
    rhs_main = 1.0 - r * h_main
    r_off = r * h_off
    dl, d, du, du2, ipiv, info = lapack.zgttrf(r_off, 1.0 + r * h_main, r_off)
    if info != 0:  # pragma: no cover - defensive: Re(A_ii) = 1
        raise NumericalBreakdownError(
            f"tridiagonal factorization failed (info={info})")

    p = psi0[1:-1].copy()
    rhs = np.empty_like(p)
    tmp = np.empty(n_int - 1, dtype=complex)
    stored = [psi0.copy()]
    stored_times = [0.0]
    for j in range(n_steps):
        np.multiply(rhs_main, p, out=rhs)
        np.multiply(r_off, p[1:], out=tmp)
        rhs[:-1] -= tmp
        np.multiply(r_off, p[:-1], out=tmp)
        rhs[1:] -= tmp
        x, info = lapack.zgttrs(dl, d, du, du2, ipiv, rhs, overwrite_b=1)
        if info != 0:  # pragma: no cover - defensive
            raise NumericalBreakdownError(
                f"tridiagonal solve failed at step {j} (info={info})")
        p, rhs = x, p  # x is rhs, solved in place
        if not np.all(np.isfinite(p)):
            raise NumericalBreakdownError(
                f"non-finite wavefunction at step {j}")
        if (j + 1) % store_every == 0:
            full = np.zeros(grid.n, dtype=complex)
            full[1:-1] = p
            stored.append(full)
            stored_times.append((j + 1) * dt)
    if stored_times[-1] != n_steps * dt:
        full = np.zeros(grid.n, dtype=complex)
        full[1:-1] = p
        stored.append(full)
        stored_times.append(n_steps * dt)
    return WaveSolution.from_psi(grid, stored_times, np.array(stored),
                                 rho_floor=rho_floor)
