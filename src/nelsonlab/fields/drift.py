"""Forward and backward drift fields extracted from a wave solution.

For a family member with diffusion constant nu, the forward drift is

    b  = 2 nu dR/dx + (hbar/m) dS/dx

(osmotic part scales with nu, current part does not) and the backward
drift is ``b* = b - 2 nu d(ln rho)/dx``, built from the same R gradient so
the half-difference identity ``(b - b*)/2 = nu d(ln rho)/dx`` holds to
machine precision by construction.

Drifts diverge at density nodes; outside the phase mask the current part
is dropped and the value is clamped to ``+/- DEFAULT_B_CAP`` so path
integration stays finite.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ..errors import InputError
from ..finitediff import gradient, masked_gradient
from ..grids import Grid1D
from ..params import HBAR, MASS, DiffusionParams
from .wave import WaveSolution

DEFAULT_B_CAP = 1e3


@dataclass
class DriftField:
    """Nodal forward/backward drifts at the stored times of a solution.

    ``times`` must be finite and strictly increasing, as a
    ``WaveSolution``'s are: ``b_on_grid`` bisects them.
    """

    grid: Grid1D
    times: np.ndarray
    b: np.ndarray
    b_star: np.ndarray
    params: DiffusionParams
    provenance: str = ""

    def __post_init__(self):
        self.times = np.atleast_1d(np.asarray(self.times, dtype=float))
        if not (np.isfinite(self.times).all()
                and (np.diff(self.times) > 0).all()):
            raise InputError(f"times must be finite and strictly increasing, "
                             f"got {self.times.tolist()}")

    @property
    def static(self) -> bool:
        return self.times.size == 1

    def _bracket(self, t: float) -> tuple[int, int, float]:
        times = self.times
        if self.static or t <= times[0]:
            return 0, 0, 0.0
        if t >= times[-1]:
            return times.size - 1, times.size - 1, 0.0
        i = bisect_right(times, t) - 1
        w = (t - times[i]) / (times[i + 1] - times[i])
        return i, i + 1, w

    def b_on_grid(self, t: float) -> np.ndarray:
        """Forward drift row at time t, linear interpolation between snapshots."""
        i, k, w = self._bracket(t)
        return (1.0 - w) * self.b[i] + w * self.b[k]

    def b_at(self, t: float, x: np.ndarray) -> np.ndarray:
        """Forward drift at arbitrary positions (linear in x and t).

        Positions outside the box take the value at the nearest wall, and
        a NaN position gives NaN.  The row at t becomes per-cell tables
        (``b_tables``), slope ``d[i] = row[i+1] - row[i]`` and intercept
        ``a[i] = row[i] - i d[i]`` (padded with ``d[n-1] = 0`` and
        ``a[n-1] = row[n-1]``), so that in units ``u`` of the grid spacing,
        clipped to ``[0, n-1]``, the drift is ``a[i] + d[i] u`` with
        ``i = int(u)``: one clip, one cast, two gathers and one multiply-add
        per position (``b_from_tables``).
        This agrees with the blend ``(1 - w) row[i] + w row[i+1]`` to
        rounding (about 1e-14 of max|b|), not bit for bit.
        """
        return self.b_from_tables(self.b_tables(t), x)

    def b_tables(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Slope and intercept tables ``(d, a)`` of the drift row at t."""
        row = self.b_on_grid(t)
        d = np.empty_like(row)
        np.subtract(row[1:], row[:-1], out=d[:-1])
        d[-1] = 0.0
        return d, row - np.arange(self.grid.n) * d

    def b_from_tables(self, tables: tuple[np.ndarray, np.ndarray],
                      x: np.ndarray, out: np.ndarray | None = None,
                      u: np.ndarray | None = None,
                      i: np.ndarray | None = None) -> np.ndarray:
        """``b_at`` on tables taken once by ``b_tables``.

        ``out``, ``u`` (float) and ``i`` (``np.intp``), when given, are
        buffers shaped like ``x`` that the evaluation overwrites, so a
        caller that steps many blocks allocates none per block.  Returns
        the drift, in ``out`` when it is given.
        """
        d, a = tables
        shape = np.shape(x)
        u = np.subtract(x, self.grid.x_min,
                        out=np.empty(shape) if u is None else u)
        u /= self.grid.dx
        np.clip(u, 0.0, self.grid.n - 1.0, out=u)
        if i is None:
            i = np.empty(shape, dtype=np.intp)
        np.copyto(i, u, casting="unsafe")    # truncates: the cell index
        b = np.take(d, i, out=out, mode="clip")
        b *= u
        b += np.take(a, i, out=u, mode="clip")
        return b

    def max_abs_b(self) -> float:
        return float(np.max(np.abs(self.b)))


def drift_fields(ws: WaveSolution, p: DiffusionParams) -> DriftField:
    """Build the (b, b*) pair for every stored time of ``ws``.

    Rejects continued-mode parameters (``UnsupportedConfigError``): drifts
    are the physical, real-nu objects of the theory.
    """
    nu = p.nu_real
    dx = ws.grid.dx
    nt = ws.n_times
    b = np.empty((nt, ws.grid.n))
    b_star = np.empty_like(b)
    for j in range(nt):
        dR = gradient(ws.R[j], dx)
        dS = masked_gradient(ws.S[j], dx, ws.mask[j], fill=0.0)
        fwd = 2.0 * nu * dR + (HBAR / MASS) * dS
        bwd = fwd - 4.0 * nu * dR  # same dR array: osmotic identity exact
        out = ~ws.mask[j]
        fwd[out] = np.clip(fwd[out], -DEFAULT_B_CAP, DEFAULT_B_CAP)
        bwd[out] = np.clip(bwd[out], -DEFAULT_B_CAP, DEFAULT_B_CAP)
        b[j] = fwd
        b_star[j] = bwd
    return DriftField(grid=ws.grid, times=ws.times.copy(), b=b,
                      b_star=b_star, params=p,
                      provenance=f"drift_fields(nu={nu:g})")


def log_density_gradient(ws: WaveSolution, j: int = 0) -> np.ndarray:
    """d(ln rho)/dx = 2 dR/dx at snapshot j (central differences)."""
    return 2.0 * gradient(ws.R[j], ws.grid.dx)
