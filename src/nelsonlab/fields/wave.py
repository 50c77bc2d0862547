"""Wavefunction snapshots and their log-amplitude/phase decomposition.

The convention throughout the package: ``rho = exp(2 R)`` with
``R = ln|psi|`` and ``S`` the unwrapped phase, so ``psi = exp(R + i S)``
wherever the density is above the floor.  ``S`` is only defined on the
mask ``rho > DEFAULT_RHO_FLOOR * max(rho)``; it is NaN elsewhere.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import EmptyMaskError, InputError
from ..finitediff import contiguous_runs
from ..grids import Grid1D

DEFAULT_RHO_FLOOR = 1e-12
TWO_PI = 2.0 * np.pi


def decompose(psi: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split a complex field into log-amplitude R, unwrapped phase S, mask.

    Parameters
    ----------
    psi : complex array
        Nodal wavefunction values; must be finite.  Nodes with
        ``|psi|^2 <= DEFAULT_RHO_FLOOR * max`` are excluded from the phase
        mask.

    Returns
    -------
    R : array
        ``0.5 * ln(psi psi*)``, clamped at the floor value below the mask
        (so downstream gradients see a flat plateau rather than -inf).
    S : array
        Phase, unwrapped independently on each contiguous masked run and
        anchored so the value at the run's center node lies in (-pi, pi].
        NaN outside the mask.
    mask : bool array
        Where the density exceeds the floor.
    """
    psi = np.asarray(psi, dtype=complex)
    if not np.all(np.isfinite(psi)):
        raise InputError("psi must be finite")
    rho = np.abs(psi) ** 2
    rho_max = rho.max()
    if rho_max <= 0.0:
        raise EmptyMaskError("psi vanishes identically")
    floor_abs = DEFAULT_RHO_FLOOR * rho_max
    mask = rho > floor_abs
    if not mask.any():
        raise EmptyMaskError("all nodes fall below the density floor")

    R = 0.5 * np.log(np.maximum(rho, floor_abs))
    S = np.full(psi.shape, np.nan)
    for lo, hi in contiguous_runs(mask):
        seg = np.unwrap(np.angle(psi[lo:hi]))
        center = (hi - 1 - lo) // 2
        # shift by whole turns so the anchor lands in (-pi, pi]
        k = np.ceil(seg[center] / TWO_PI - 0.5)
        S[lo:hi] = seg - TWO_PI * k
    return R, S, mask


@dataclass
class WaveSolution:
    """Time-indexed wavefunction with its decomposition on a grid.

    ``psi``, ``R``, ``S`` have shape (n_times, n_nodes); ``mask`` is the
    boolean phase-definition region per time.
    """

    grid: Grid1D
    times: np.ndarray
    psi: np.ndarray
    R: np.ndarray
    S: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.times = np.atleast_1d(np.asarray(self.times, dtype=float))
        for name in ("psi", "R", "S", "mask"):
            arr = np.atleast_2d(np.asarray(getattr(self, name)))
            setattr(self, name, arr)
            if arr.shape != (self.times.size, self.grid.n):
                raise InputError(f"{name} has shape {arr.shape}, expected "
                                 f"({self.times.size}, {self.grid.n})")

    @classmethod
    def from_psi(cls, grid: Grid1D, times, psi) -> "WaveSolution":
        psi = np.atleast_2d(np.asarray(psi, dtype=complex))
        R = np.empty(psi.shape)
        S = np.empty(psi.shape)
        mask = np.empty(psi.shape, dtype=bool)
        for j in range(psi.shape[0]):
            R[j], S[j], mask[j] = decompose(psi[j])
        return cls(grid=grid, times=np.asarray(times, dtype=float),
                   psi=psi, R=R, S=S, mask=mask)

    @property
    def n_times(self) -> int:
        return self.times.size

    def rho(self, j: int | None = None) -> np.ndarray:
        """Density ``exp(2R)`` at snapshot ``j`` (all snapshots if None)."""
        R = self.R if j is None else self.R[j]
        return np.exp(2.0 * R)

    def norms(self) -> np.ndarray:
        """Trapezoidal integral of |psi|^2 at every stored time."""
        return np.array([self.grid.trapezoid(np.abs(self.psi[j]) ** 2)
                         for j in range(self.n_times)])

    def roundtrip_error(self, j: int = 0) -> float:
        """Max |exp(R + iS) - psi| over the mask at snapshot j."""
        m = self.mask[j]
        rebuilt = np.exp(self.R[j, m] + 1j * self.S[j, m])
        return float(np.max(np.abs(rebuilt - self.psi[j, m]))) if m.any() else 0.0
