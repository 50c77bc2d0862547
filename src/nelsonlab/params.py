"""The one-parameter family of diffusion constants and its continuation.

The package works in natural units: ``HBAR`` and ``MASS`` are constants
equal to 1, and every formula names them where they belong.  A member of
the family is its diffusion constant ``nu`` (``E(dW^2) = 2 nu dt``,
length^2/time); ``DiffusionParams`` stores ``nu`` alone and works out the
two other ways of writing it:

* ``z``    -- the dimensionless ratio ``z = 2 m nu / hbar``,
* ``beta`` -- the dynamical weight, related by ``z = 1 / sqrt(1 - beta/2)``.

Real members need ``nu > 0`` (equivalently ``beta < 2``) and come from
``diffusion_params`` with any one of the three.  The two distinguished
imaginary members ``nu = +i hbar/2m`` and ``nu = -i hbar/2m``
(``z = +i`` / ``z = -i``) come from ``continue_to_imaginary``: they lose
the probabilistic meaning but keep the whole operator algebra, and the
ratio ``2 nu / z = hbar / m`` stays fixed across the family, so the
current-velocity part of every drift is mode independent.  A member has
no other name than ``nu``: ``z``, ``beta`` and ``mode`` are read from it,
and every formula downstream takes the member from ``nu`` alone.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import DomainError, InputError, UnsupportedConfigError

HBAR = 1.0
MASS = 1.0

MODE_REAL = "real"
MODE_PLUS = "continued-plus"
MODE_MINUS = "continued-minus"


@dataclass(frozen=True)
class DiffusionParams:
    """A member of the family, fixed by its diffusion constant ``nu``.

    ``nu`` is a real number above 0 (with ``beta < 2``) or exactly
    ``+/- i hbar/2m``; it is stored as a complex number.
    """

    nu: complex

    def __post_init__(self):
        if not isinstance(self.nu, numbers.Number):
            raise InputError(f"nu must be a number, got {self.nu!r}")
        nu = complex(self.nu)
        object.__setattr__(self, "nu", nu)
        if nu.imag != 0:
            if nu.real != 0 or abs(nu.imag) != HBAR / (2.0 * MASS):
                raise DomainError(f"an imaginary nu must be +/- i hbar/2m, "
                                  f"got {nu}")
        elif not nu.real > 0:
            raise DomainError(f"real mode needs nu > 0, got {nu.real}")
        elif not self.beta < 2:
            raise DomainError(f"real mode needs beta < 2, got {self.beta}")

    @property
    def is_real(self) -> bool:
        return self.nu.imag == 0

    @property
    def mode(self) -> str:
        return MODE_REAL if self.is_real else (
            MODE_PLUS if self.nu.imag > 0 else MODE_MINUS)

    @property
    def z(self) -> complex:
        """``2 m nu / hbar``: real for a real member, ``+/- i`` continued."""
        return 2.0 * MASS * self.nu / HBAR

    @property
    def beta(self) -> float:
        """``2 (1 - 1/z^2)``: below 2 for a real member, 4 when continued.

        It falls to ``-inf`` as ``nu -> 0``, which is its value where
        ``z^2`` underflows.
        """
        zz = self.z * self.z
        return float((2.0 * (1.0 - 1.0 / zz)).real) if zz else -math.inf

    @property
    def nu_real(self) -> float:
        """The diffusion constant as a float; only meaningful in real mode."""
        if not self.is_real:
            raise UnsupportedConfigError(
                "nu is imaginary in continued mode; this quantity is real-mode only"
            )
        return self.nu.real


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
        return DiffusionParams(value)
    if kind == "beta":
        if value >= 2:
            raise DomainError(f"beta must satisfy beta < 2, got {value}")
        value = 1.0 / math.sqrt(1.0 - value / 2.0)
    return DiffusionParams(value * HBAR / (2.0 * MASS))


def continue_to_imaginary(p: DiffusionParams, sign: str = "minus") -> DiffusionParams:
    """Continue a parameter set to ``nu = +/- i hbar/2m`` (``z = +/- i``).

    ``sign`` is ``"minus"`` or ``"plus"``.  The minus branch reproduces the
    standard quantum conventions downstream (momentum ``-i hbar d/dx``);
    the plus branch is its conjugate partner.  Every member continues to
    the same two points, so the result does not depend on ``p``.
    """
    if sign == "minus":
        z = -1j
    elif sign == "plus":
        z = 1j
    else:
        raise InputError(f"sign must be 'minus' or 'plus', got {sign!r}")
    return DiffusionParams(z * HBAR / (2.0 * MASS))
