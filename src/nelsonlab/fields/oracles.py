"""Closed-form reference states sampled on a grid.

These are the test oracles of the package: states whose density, phase and
moments are known exactly, against which both the solvers and the sampled
ensembles are checked.
"""
from __future__ import annotations

import numpy as np

from ..errors import InputError
from ..grids import Grid1D
from ..params import HBAR, MASS
from .wave import WaveSolution

ORACLE_KINDS = ("ho_ground", "ho_coherent", "free_gaussian")

# angular frequency of the harmonic well V = m omega^2 x^2 / 2
OMEGA = 1.0

_BOUNDARY_DENSITY_TOL = 1e-12


def analytic_oracle(kind: str, params: dict | None, grid: Grid1D,
                    times) -> WaveSolution:
    """Sample an exact reference state on ``grid`` at the given times.

    Supported kinds and their parameters (``HBAR``, ``MASS`` and ``OMEGA``
    are the package's natural units):

    ``ho_ground``
        Harmonic-oscillator ground state; no parameters.
        Stationary: density static, phase advances uniformly.
    ``ho_coherent``
        Displaced (coherent) oscillator state; ``x0`` (default 1).  The
        density is a rigid Gaussian whose center follows ``x0 cos(omega t)``.
    ``free_gaussian``
        Free packet of initial position-density variance ``sigma0**2``
        (default 1) centered at ``x0`` (default 0) with mean wavenumber
        ``k0`` (default 0); variance grows as
        ``sigma0^2 (1 + (hbar t / 2 m sigma0^2)^2)``.

    The grid must be wide enough that the boundary density stays below
    1e-12 of the peak at every requested time.
    """
    if kind not in ORACLE_KINDS:
        raise InputError(f"unsupported oracle kind {kind!r}")
    p = dict(params or {})
    times = np.atleast_1d(np.asarray(times, dtype=float))
    x = grid.x

    if kind == "free_gaussian":
        sigma0 = float(p.pop("sigma0", 1.0))
        x0 = float(p.pop("x0", 0.0))
        k0 = float(p.pop("k0", 0.0))
        if not sigma0 > 0:
            raise InputError(
                f"oracle parameter sigma0 must be positive, got {sigma0}")
        state, args = _free_gaussian_psi, (sigma0, x0, k0)
    else:
        x0 = float(p.pop("x0", 1.0)) if kind == "ho_coherent" else 0.0
        state, args = _ho_coherent_psi, (x0,)
    if p:
        raise InputError(f"unknown oracle parameters for {kind}: {sorted(p)}")
    psi = np.array([state(x, t, *args) for t in times])

    rho = np.abs(psi) ** 2
    edge = max(rho[:, 0].max(), rho[:, -1].max())
    if edge > _BOUNDARY_DENSITY_TOL * rho.max():
        raise InputError(
            f"grid too narrow for {kind}: boundary density {edge:.2e} "
            f"exceeds {_BOUNDARY_DENSITY_TOL:g} of the peak")
    return WaveSolution(grid, times, psi)


def _ho_coherent_psi(x, t, x0):
    """Coherent state of the harmonic well; ``x0 = 0`` is the ground state.

    Center and mean momentum follow the classical orbit
    ``xb = x0 cos(omega t)``, ``pb = -m omega x0 sin(omega t)``; the global
    phase is fixed by the Schrodinger evolution of the displaced Gaussian.
    """
    a = MASS * OMEGA / HBAR
    xb = x0 * np.cos(OMEGA * t)
    pb = -MASS * OMEGA * x0 * np.sin(OMEGA * t)
    phase = (pb * (x - xb) + 0.5 * xb * pb) / HBAR - 0.5 * OMEGA * t
    return (a / np.pi) ** 0.25 * np.exp(-0.5 * a * (x - xb) ** 2 + 1j * phase)


def _free_gaussian_psi(x, t, sigma0, x0, k0):
    """Spreading free packet; position-density variance sigma0^2 at t = 0.

    Galilean boost of the rest-frame packet: the boost phase
    ``k0 (x - x0) - hbar k0^2 t / 2m`` rides on a packet whose center moves
    at ``hbar k0 / m``.
    """
    gamma = 1.0 + 1j * HBAR * t / (2.0 * MASS * sigma0 ** 2)
    xc = x0 + HBAR * k0 * t / MASS
    envelope = (2.0 * np.pi * sigma0 ** 2) ** -0.25 / np.sqrt(gamma)
    boost = np.exp(1j * (k0 * (x - x0) - HBAR * k0 ** 2 * t / (2.0 * MASS)))
    return envelope * np.exp(-(x - xc) ** 2 / (4.0 * sigma0 ** 2 * gamma)) * boost


def ho_potential(x: np.ndarray) -> np.ndarray:
    """The harmonic well ``m omega^2 x^2 / 2`` of the ``ho_*`` oracles."""
    return 0.5 * MASS * OMEGA ** 2 * x ** 2


def ho_ground_density(x: np.ndarray) -> np.ndarray:
    """Exact ground-state density (Gaussian of variance hbar/2m omega)."""
    a = MASS * OMEGA / HBAR
    return np.sqrt(a / np.pi) * np.exp(-a * x ** 2)


def free_gaussian_variance(t: float, sigma0: float) -> float:
    """Spreading law for the free packet's position-density variance."""
    return sigma0 ** 2 * (1.0 + (HBAR * t / (2.0 * MASS * sigma0 ** 2)) ** 2)
