"""Second-order finite-difference stencils, nodal and matrix forms.

Interior nodes use centered stencils; the first and last node of a
contiguous run use one-sided second-order stencils.  The hard-wall
matrix stencils live with the operator algebra
(``nelsonlab.algebra.operators``).
"""
from __future__ import annotations

import numpy as np

from .errors import InputError


def gradient(f: np.ndarray, dx: float) -> np.ndarray:
    """Second-order first derivative with one-sided boundary rows."""
    f = np.asarray(f)
    if f.shape[-1] < 3:
        raise InputError("gradient needs at least 3 nodes")
    g = np.empty_like(f, dtype=np.result_type(f, float))
    g[..., 1:-1] = (f[..., 2:] - f[..., :-2]) * (0.5 / dx)
    g[..., 0] = (-3.0 * f[..., 0] + 4.0 * f[..., 1] - f[..., 2]) / (2.0 * dx)
    g[..., -1] = (3.0 * f[..., -1] - 4.0 * f[..., -2] + f[..., -3]) / (2.0 * dx)
    return g


def laplacian(f: np.ndarray, dx: float) -> np.ndarray:
    """Second-order second derivative with one-sided boundary rows."""
    f = np.asarray(f)
    if f.shape[-1] < 4:
        raise InputError("laplacian needs at least 4 nodes")
    L = np.empty_like(f, dtype=np.result_type(f, float))
    inv = 1.0 / (dx * dx)
    L[..., 1:-1] = (f[..., 2:] - 2.0 * f[..., 1:-1] + f[..., :-2]) * inv
    L[..., 0] = (2.0 * f[..., 0] - 5.0 * f[..., 1] + 4.0 * f[..., 2] - f[..., 3]) * inv
    L[..., -1] = (2.0 * f[..., -1] - 5.0 * f[..., -2] + 4.0 * f[..., -3] - f[..., -4]) * inv
    return L


def masked_gradient(f: np.ndarray, dx: float, mask: np.ndarray,
                    fill: float = 0.0) -> np.ndarray:
    """Gradient applied independently on each contiguous masked run.

    Nodes outside the mask receive ``fill``.  Runs shorter than 3 nodes
    cannot support a second-order stencil and are filled as well.
    """
    out = np.full(f.shape, fill, dtype=float)
    for lo, hi in contiguous_runs(mask):
        if hi - lo >= 3:
            out[lo:hi] = gradient(f[lo:hi], dx)
    return out


def contiguous_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Half-open index ranges of the True runs of a boolean mask."""
    m = np.asarray(mask, dtype=bool)
    if not m.any():
        return []
    padded = np.concatenate(([False], m, [False])).astype(int)
    d = np.diff(padded)
    starts = np.where(d == 1)[0]
    stops = np.where(d == -1)[0]
    return list(zip(starts, stops))

