"""Uniform one-dimensional grids and quadrature."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of ``n`` nodes on ``[x_min, x_max]``.

    All fields, densities and operator matrices in the package live on the
    nodes of such a grid.  Spacing is ``dx = (x_max - x_min) / (n - 1)``.
    """

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise InputError(f"grid needs at least 3 nodes, got n={self.n}")
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise InputError(
                f"grid bounds must be finite, got [{self.x_min}, {self.x_max}]"
            )
        if not self.x_max > self.x_min:
            raise InputError(
                f"grid needs x_max > x_min, got [{self.x_min}, {self.x_max}]"
            )

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    @cached_property
    def x(self) -> np.ndarray:
        """Node coordinates (read-only array)."""
        x = np.linspace(self.x_min, self.x_max, self.n)
        x.flags.writeable = False
        return x

    def trapezoid(self, f: np.ndarray) -> float | complex:
        """Trapezoidal quadrature of a nodal field."""
        return np.trapezoid(f, dx=self.dx)

    def contains(self, x: np.ndarray) -> np.ndarray:
        return (x >= self.x_min) & (x <= self.x_max)
