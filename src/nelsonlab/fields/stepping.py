"""One Crank-Nicolson march for the tridiagonal field equations.

Both field solvers step ``dy/dt = G(t) y``, G tridiagonal, by the
trapezoidal rule (Crank and Nicolson, 1947).  With ``A = (dt/2) G``, step j
solves ``(1 - A(t_j)) y_j = (1 + A(t_{j-1})) y_{j-1}``: a constant ``A`` is
factored once (LAPACK ``?gttrf``) and solved in place (``?gttrs``); a
time-dependent ``A`` is built once per step, at its end time, carried to
the next step, and solved with ``?gtsv``.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from ..errors import InputError, NumericalBreakdownError


def crank_nicolson(bands, y0: np.ndarray, dt: float, n_steps: int,
                   store_every: int, guard, keep=np.copy):
    """March ``y0`` for ``n_steps`` steps; return (times, kept states).

    ``bands`` is ``A``'s (main, upper, lower) diagonals if ``A`` is constant,
    else a function of ``t`` that returns them; ``y0``'s dtype picks the
    real or complex routines.  ``guard(j, y)`` sees the state after each
    step ``j >= 1`` and raises to stop the march; ``keep`` copies the
    initial state, every ``store_every``-th and the last.  Bad ``n_steps``,
    ``dt`` or ``store_every`` raise InputError, and a singular step matrix
    NumericalBreakdownError.
    """
    if n_steps < 0:
        raise InputError("n_steps must be >= 0")
    if n_steps > 0 and not dt > 0:
        raise InputError(f"dt must be positive, got {dt}")
    if store_every < 1:
        raise InputError("store_every must be >= 1")
    y = np.array(y0)
    times, kept = [0.0], [keep(y)]
    if n_steps == 0:
        return times, kept
    kind = "z" if np.iscomplexobj(y) else "d"
    static = not callable(bands)
    main, upper, lower = bands if static else bands(0.0)
    if static:
        *lu, info = getattr(lapack, kind + "gttrf")(-lower, 1.0 - main, -upper)
        if info != 0:
            raise NumericalBreakdownError(f"singular step matrix (info={info})")
    solve = getattr(lapack, kind + ("gttrs" if static else "gtsv"))
    explicit = 1.0 + main
    rhs = np.empty_like(y)
    tmp = np.empty(y.size - 1, dtype=y.dtype)
    for j in range(1, n_steps + 1):
        np.multiply(explicit, y, out=rhs)
        np.multiply(upper, y[1:], out=tmp)
        rhs[:-1] += tmp
        np.multiply(lower, y[:-1], out=tmp)
        rhs[1:] += tmp
        if static:
            x, info = solve(*lu, rhs, overwrite_b=1)
        else:
            main, upper, lower = bands(j * dt)
            *_, x, info = solve(-lower, 1.0 - main, -upper, rhs, overwrite_dl=1,
                                overwrite_d=1, overwrite_du=1, overwrite_b=1)
            explicit = 1.0 + main
        if info != 0:
            raise NumericalBreakdownError(
                f"singular step matrix at step {j} (info={info})")
        y, rhs = x, y    # x is rhs, solved in place
        guard(j, y)
        if j % store_every == 0 or j == n_steps:
            times.append(j * dt)
            kept.append(keep(y))
    return times, kept
