"""Weighted inner-product spaces on a grid.

Three weights occur:

* the density-weighted space (weight ``rho``), where conditional
  expectations of functions of the process are inner products;
* its gauge image (weight ``exp(-2 Re(S/z))``), reached by multiplying
  states with ``exp(R + S/z)``;
* the flat space (weight 1), which the gauge image collapses to on the
  continued branches where ``S/z`` is imaginary.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InputError
from ..grids import Grid1D
from ..params import DiffusionParams, phase_scale

SPACE_KINDS = ("H_t", "I_t", "L2")

# lifts density values that underflowed to zero, and nothing else
_DENSITY_FLOOR = 1e-300


@dataclass(frozen=True)
class WeightedSpace:
    """Grid plus a positive nodal weight; (f, g) = sum(w conj(f) g) dx."""

    grid: Grid1D
    weight: np.ndarray
    kind: str = "L2"

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=float)
        if w.shape != (self.grid.n,):
            raise InputError("weight must be a nodal field on the grid")
        if not np.all(w > 0):
            raise InputError("weight must be positive on all nodes")
        object.__setattr__(self, "weight", w)

    def inner(self, f: np.ndarray, g: np.ndarray) -> complex:
        return complex(np.sum(self.weight * np.conj(f) * g) * self.grid.dx)

    def norm(self, f: np.ndarray) -> float:
        return float(np.sqrt(self.inner(f, f).real))

    def normalize(self, f: np.ndarray) -> np.ndarray:
        n = self.norm(f)
        if n == 0:
            raise InputError("cannot normalize the zero field")
        return f / n


def build_space(grid: Grid1D, kind: str, field: np.ndarray | None = None,
                p: DiffusionParams | None = None) -> WeightedSpace:
    """Construct one of the three canonical spaces.

    ``kind='H_t'``: ``field`` is the density rho(x, t).
    ``kind='I_t'``: ``field`` is the fixed phase S(x, t); the weight is
    ``exp(-2 Re(S/z))`` with z from ``p`` (identically 1 on the continued
    branches).  NaN phase values (outside the mask) fall back to weight 1.
    ``kind='L2'``: weight 1, no field needed.
    """
    if kind not in SPACE_KINDS:
        raise InputError(f"unknown space kind {kind!r}")
    if kind == "L2":
        return WeightedSpace(grid, np.ones(grid.n), kind)
    if field is None:
        raise InputError(f"space kind {kind!r} needs its defining field")
    field = np.asarray(field)
    if kind == "H_t":
        f = field.astype(float)
        if f.min() < 0:
            raise InputError("density weight must be nonnegative")
        w = np.maximum(f, _DENSITY_FLOOR)
        if not np.all(w > 0):
            raise InputError("density weight must be positive after flooring")
        return WeightedSpace(grid, w, kind)
    if p is None:
        raise InputError("I_t needs diffusion parameters (for z)")
    sn = np.where(np.isnan(field), 0.0, field) * phase_scale(p)
    w = np.exp(-2.0 * np.real(sn))
    return WeightedSpace(grid, w, kind)
