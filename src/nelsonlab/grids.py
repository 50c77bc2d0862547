"""Uniform one-dimensional grids and quadrature."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError

# largest mirror defect accepted, relative to the norm of a tridiagonal
# matrix for its bands and to the largest entry of a nodal field: within
# it the matrix commutes with the mirror J (node i to node n-1-i), and the
# field is mirror-even or mirror-odd.  The two tests below ask it for the
# Hamiltonian's parity split (algebra) and the half-grid march (fields).
# Measured on n = 21 to 16001 and the boxes [-L, L], L = 6, 8, 10, 16:
# the oscillator's bands reach 2.5 eps ||H||, the double well's
# (x^2 - 4)^2 / 16 6.9 eps ||H||, and x 1.7 eps max|x|.
MIRROR_TOL = 16 * np.finfo(float).eps


def commutes_with_mirror(main: np.ndarray, upper: np.ndarray,
                         lower: np.ndarray) -> bool:
    """Whether the tridiagonal matrix of bands ``main``, ``upper``,
    ``lower`` commutes with the mirror J: ``main == main[::-1]`` and
    ``upper == lower[::-1]``, to ``MIRROR_TOL`` of
    ``max|main| + max|upper| + max|lower|``."""
    scale = (np.max(np.abs(main)) + np.max(np.abs(upper))
             + np.max(np.abs(lower)))
    return max(np.max(np.abs(main - main[::-1])),
               np.max(np.abs(upper - lower[::-1]))) <= MIRROR_TOL * scale


def has_mirror_parity(y: np.ndarray, parity: int) -> bool:
    """Whether the nodal field ``y`` equals ``parity * y[::-1]`` (1: even,
    -1: odd) to ``MIRROR_TOL`` of ``max|y|``."""
    return (np.max(np.abs(y - parity * y[::-1]))
            <= MIRROR_TOL * np.max(np.abs(y)))


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


def real_potential(V, grid: Grid1D) -> np.ndarray:
    """``V`` as a float array of one value per node of ``grid``.

    Raises InputError for any other shape, and for a nonzero imaginary
    part, which a float conversion would drop without a word.
    """
    V = np.asarray(V)
    if V.shape != (grid.n,):
        raise InputError("V must be a nodal field on the grid")
    if np.iscomplexobj(V) and np.any(V.imag != 0):
        raise InputError("V must be real: a complex potential does not "
                         "conserve the norm")
    return np.asarray(V.real, dtype=float)
