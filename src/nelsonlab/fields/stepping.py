"""One Crank-Nicolson march for the tridiagonal field equations.

Both field solvers step ``dy/dt = G(t) y``, G tridiagonal, by the
trapezoidal rule (Crank and Nicolson, 1947).  With ``A = (dt/2) G``, step j
solves ``(1 - A(t_j)) y_j = (1 + A(t_{j-1})) y_{j-1}``: a constant ``A`` is
factored once (LAPACK ``?gttrf``, or ``dpttrf`` in the gauge below) and
solved in place (``?gttrs`` or ``dpttrs``); a
time-dependent ``A`` is built once per step, at its end time, carried to
the next step, and solved with ``?gtsv``.

A constant ``A`` that commutes with the mirror J (node i to node n-1-i:
``main == main[::-1]`` and ``upper == lower[::-1]``), marching a
mirror-even ``y0``, keeps every state mirror-even, so the march runs on
the first ``m = ceil(n/2)`` nodes (Cantoni and Butler, Linear Algebra
Appl. 13, 275 (1976)) and each kept state is mirrored back out.  Folding
``y[n-1-i] = y[i]`` into the half changes one coupling: the centre node
of an odd n couples to its neighbour by ``lower[m-2] + upper[m-1]``, and
the last node of an even n to its own mirror image through
``main[m-1] + upper[m-1]``.  Both tests are asked to ``grids.MIRROR_TOL``,
of ``max|main| + max|upper| + max|lower|`` for the bands and of
``max|y0|`` for the state; any other march runs on all n nodes.  The half
march solves the first half's mirror image, so its states move by
rounding only: at most 1.9e-13 (n = 6401 Schrodinger, 1000 steps) and
5.8e-13 (n = 8001 Fokker-Planck) of their largest entry.

A constant real ``A`` whose off-diagonal products ``lower * upper`` are
all positive, as a static Fokker-Planck step's are, is the generator of a
reversible chain.  After the fold, it is marched in the chain's
detailed-balance gauge ``y = D z``, ``D[i+1] / D[i] = sqrt(lower[i] /
upper[i])`` with a largest entry of 1, so ``D`` is proportional to the
square root of the stationary density (Risken, The Fokker-Planck
Equation, 2nd ed. 1989, sec. 5.4).  There ``D^-1 A D`` has the symmetric
off-diagonal ``sqrt(lower * upper)``, so ``1 - D^-1 A D`` is symmetric
positive definite: LAPACK ``dpttrf`` factors it once, and each step forms
the explicit product on the symmetric bands and solves in place with
``dpttrs``, in about half the time of ``dgttrs`` (31-36 against 60-73 us
at 4001 nodes, each timed alone).  ``D > 0``, so ``z`` has the signs of
``y``: the guard is handed ``D z`` only on a step where ``z`` has a
negative or NaN entry, and each kept state is ``D z``.  A complex march, a
product that is not positive (a NaN drift among them), a ``D`` that spans
more than ``exp(_GAUGE_RANGE)`` and a factorization that ``dpttrf``
refuses all keep ``?gttrf`` and ``?gttrs``, and with them their bits.  The
gauge moves the kept states by rounding only: against the ``?gttrs``
march, at most 4.4e-13 of their largest entry (n = 8001, OU drift, 1000
steps) and 2.9e-14 with b = 0.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from ..errors import InputError, NumericalBreakdownError
from ..grids import commutes_with_mirror, has_mirror_parity

# the largest ln(max D / min D) of the gauge: exp(-600) is still a normal
# float64, with room left for the states it scales
_GAUGE_RANGE = 600.0


def _mirror_even(bands, y: np.ndarray) -> bool:
    """Whether the constant ``A`` of ``bands`` commutes with the mirror J
    and ``y`` is mirror-even, both to ``grids.MIRROR_TOL``."""
    return y.size >= 3 and commutes_with_mirror(*bands) \
        and has_mirror_parity(y, 1)


def _fold(bands):
    """``A``'s bands on the first ``m = ceil(n/2)`` nodes for mirror-even
    states: the image of node i is node n-1-i."""
    main, upper, lower = bands
    n = main.size
    m = n - n // 2
    coupling = upper[m - 1]
    main, upper, lower = main[:m].copy(), upper[:m - 1], lower[:m - 1].copy()
    if n % 2:
        lower[-1] += coupling   # the centre node sees node m-2 on both sides
    else:
        main[-1] += coupling    # node m-1's right neighbour is its own image
    return main, upper, lower


def _gauge(bands):
    """``(D, s, factors)`` for a real constant ``A`` of a reversible chain,
    or None: ``D`` scales ``y = D z`` so that ``D^-1 A D`` has the
    symmetric off-diagonal ``s = sqrt(lower * upper)``, and ``factors`` is
    ``dpttrf``'s factorization of ``1 - D^-1 A D``.  None if a product
    ``lower * upper`` is not positive, if ``D`` spans more than
    ``exp(_GAUGE_RANGE)`` or if the factorization fails."""
    main, upper, lower = bands
    product = lower * upper
    if not np.all(product > 0):     # a NaN fails too
        return None
    log_d = np.concatenate(([0.0], np.cumsum(0.5 * np.log(lower / upper))))
    log_d -= log_d.max()
    if not log_d.min() >= -_GAUGE_RANGE:
        return None
    symmetric = np.sqrt(product)
    *factors, info = lapack.dpttrf(1.0 - main, -symmetric)
    if info != 0:
        return None
    return np.exp(log_d), symmetric, factors


def crank_nicolson(bands, y0: np.ndarray, dt: float, n_steps: int,
                   store_every: int, guard, keep=np.copy):
    """March ``y0`` for ``n_steps`` steps; return (times, kept states).

    ``bands`` is ``A``'s (main, upper, lower) diagonals if ``A`` is constant,
    else a function of ``t`` that returns them; ``y0``'s dtype picks the
    real or complex routines.  ``guard(j, y)`` sees the state after each
    step ``j >= 1`` (on a folded march, its first half) and raises to stop
    the march; a march in the detailed-balance gauge calls it only on a
    step whose state has a negative or NaN entry, so a guard must pass
    every nonnegative state.  ``keep`` copies the initial state, ``y0``
    itself, every ``store_every``-th and the last.  Bad ``n_steps``,
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
    if static and _mirror_even(bands, y):
        n = y.size
        bands, y, keep_whole = _fold(bands), y[:n - n // 2], keep

        def keep(half):     # the whole state, its mirror half appended
            return keep_whole(np.concatenate((half, half[:n // 2][::-1])))
    main, upper, lower = bands if static else bands(0.0)
    gauge = _gauge(bands) if static and kind == "d" else None
    if gauge is not None:
        scale, symmetric, factors = gauge
        upper = lower = symmetric
        y, keep_y, guard_y = y / scale, keep, guard
        solve = lapack.dpttrs

        def keep(z):
            return keep_y(scale * z)

        def guard(j, z):    # scale > 0: z has the signs of y = scale * z
            if not z.min() >= 0:
                guard_y(j, scale * z)
    elif static:
        *factors, info = getattr(lapack, kind + "gttrf")(-lower, 1.0 - main,
                                                         -upper)
        if info != 0:
            raise NumericalBreakdownError(f"singular step matrix (info={info})")
        solve = getattr(lapack, kind + "gttrs")
    else:
        solve = getattr(lapack, kind + "gtsv")
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
            x, info = solve(*factors, rhs, overwrite_b=1)
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
