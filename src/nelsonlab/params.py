"""The one-parameter family of diffusion constants and its continuation.

The package works in natural units: ``HBAR`` and ``MASS`` are constants
equal to 1, and every formula names them where they belong.  A member of
the family is then fixed by any one of:

* ``nu``   -- the diffusion constant, ``E(dW^2) = 2 nu dt``  (length^2/time),
* ``z``    -- the dimensionless ratio ``z = 2 m nu / hbar``,
* ``beta`` -- the dynamical weight, related by ``z = 1 / sqrt(1 - beta/2)``.

Real members need ``nu > 0`` (equivalently ``beta < 2``).  The two
distinguished imaginary members ``nu = +i hbar/2m`` and ``nu = -i hbar/2m``
(``z = +i`` / ``z = -i``) are carried as separate modes and come only from
``continue_to_imaginary``: they lose the probabilistic meaning but keep the
whole operator algebra, and the ratio ``2 nu / z = hbar / m`` stays fixed
across the family, so the current-velocity part of every drift is mode
independent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InputError, UnsupportedConfigError

HBAR = 1.0
MASS = 1.0

MODE_REAL = "real"
MODE_PLUS = "continued-plus"
MODE_MINUS = "continued-minus"
_MODES = (MODE_REAL, MODE_PLUS, MODE_MINUS)


@dataclass(frozen=True)
class DiffusionParams:
    """A consistent (nu, z, beta) triple and its mode."""

    nu: complex
    z: complex
    beta: float
    mode: str

    def __post_init__(self):
        if self.mode not in _MODES:
            raise InputError(f"unknown mode {self.mode!r}")
        if self.mode == MODE_REAL:
            if not (self.nu.imag == 0 and self.nu.real > 0):
                raise DomainError(f"real mode needs nu > 0, got {self.nu}")
            if self.beta >= 2:
                raise DomainError(f"real mode needs beta < 2, got {self.beta}")

    @property
    def is_real(self) -> bool:
        return self.mode == MODE_REAL

    @property
    def nu_real(self) -> float:
        """The diffusion constant as a float; only meaningful in real mode."""
        if not self.is_real:
            raise UnsupportedConfigError(
                "nu is imaginary in continued mode; this quantity is real-mode only"
            )
        return self.nu.real

    @property
    def sign(self) -> int:
        """+1 / -1 for the continued branches, 0 in real mode."""
        if self.mode == MODE_PLUS:
            return 1
        if self.mode == MODE_MINUS:
            return -1
        return 0


def _from_z(z: complex, mode: str) -> DiffusionParams:
    nu = z * HBAR / (2.0 * MASS)
    beta = 2.0 * (1.0 - 1.0 / (z * z))     # real for every member: 4 at z = +/- i
    return DiffusionParams(nu=complex(nu), z=complex(z),
                           beta=float(beta.real), mode=mode)


def diffusion_params(kind: str, value: float) -> DiffusionParams:
    """Build the real member fixed by one of (nu, z, beta).

    Raises
    ------
    DomainError
        If ``beta >= 2`` or the resulting ``nu`` is not positive.
    """
    if kind not in ("nu", "z", "beta"):
        raise InputError(f"kind must be one of nu/z/beta, got {kind!r}")
    value = float(value)
    if kind == "nu":
        if value <= 0:
            raise DomainError(f"real mode needs nu > 0, got {value}")
        z = 2.0 * MASS * value / HBAR
    elif kind == "z":
        if value <= 0:
            raise DomainError(f"real mode needs z > 0, got {value}")
        z = value
    else:  # beta
        if value >= 2:
            raise DomainError(f"beta must satisfy beta < 2, got {value}")
        z = 1.0 / math.sqrt(1.0 - value / 2.0)
    return _from_z(z, MODE_REAL)


def continue_to_imaginary(p: DiffusionParams, sign: str = "minus") -> DiffusionParams:
    """Continue a parameter set to ``nu = +/- i hbar/2m`` (``z = +/- i``).

    ``sign`` is ``"minus"`` or ``"plus"``.  The minus branch reproduces the
    standard quantum conventions downstream (momentum ``-i hbar d/dx``);
    the plus branch is its conjugate partner.  Every member continues to
    the same two points, so the result does not depend on ``p``.
    """
    if sign == "minus":
        return _from_z(-1j, MODE_MINUS)
    if sign == "plus":
        return _from_z(1j, MODE_PLUS)
    raise InputError(f"sign must be 'minus' or 'plus', got {sign!r}")


def phase_scale(p: DiffusionParams) -> complex:
    """Factor converting the fixed phase S into the mode's native phase S/z.

    ``S/z`` is what enters gauge weights and the isometry map; on the
    continued branches ``1/z = -/+ i`` makes it imaginary.
    """
    return 1.0 / p.z
