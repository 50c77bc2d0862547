"""Operator evolution: the recursion, evolved positions, and correlations.

Higher time-derivative operators follow the single recursion

    X^{k+1} = (1 / 2 m nu) [H, X^k]        (+ d/dt of coefficients, zero
                                            for the stationary states
                                            these formulas are used on)

which is analytic in nu: on the continued branches ``1/(2 m nu)`` becomes
``-/+ i / hbar`` and the recursion is the standard quantum one.  The
evolved position at finite time is either the Taylor sum of the recursion
or, on the continued branches, the exact unitary conjugation by the
eigendecomposition of the interior Hamiltonian.

Operators are held as their diagonals, so the recursion goes band in,
band out.  The interior Hamiltonian and the stationary generator are
tridiagonal, so their eigensystems come from their two bands through
``scipy.linalg.eigh_tridiagonal``.  Its default driver, in scipy 1.17.1,
is LAPACK ``stevd`` (divide and conquer) for the full spectrum that every
call here asks for, and ``stebz`` (bisection) with ``stein`` (inverse
iteration) for a window of it; the choice in older scipy releases down
to the 1.13 floor has not been checked.
Every eigensystem comes from ``_eigh_bands``, which keeps the last one it
computed: both continued branches and the dense and state forms of the
conjugation share one Hamiltonian, so consecutive calls on it diagonalize
it once.  The exact conjugation acts on states: ``heisenberg_action``
applies the eigenvectors to state vectors, O(n^2) per state and lag, and
the continued two-time elements go through it.  Only
``heisenberg_operator`` forms the full evolved matrix, for the checks that
test a dense X(s) itself.
"""
from __future__ import annotations

from collections.abc import Sequence
from math import factorial

import numpy as np
from scipy.linalg import eigh_tridiagonal

from ..errors import InputError, NumericalBreakdownError, UnsupportedConfigError
from ..fields.wave import WaveSolution
from ..params import HBAR, MASS, DiffusionParams
from .operators import (OperatorMatrix, _scaled, commutator, hamiltonian,
                        position_operator)
from .spaces import WeightedSpace, build_space

_STATE_NORM_TOL = 1e-6


def _interior_bands(H: OperatorMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and first off-diagonal of H on the interior nodes.

    H must have no nonzero diagonal beyond the first and be real symmetric
    on the interior, as ``hamiltonian`` builds it.
    """
    wide = [k for k, d in H.diagonals.items() if abs(k) > 1 and d.any()]
    if wide:
        raise InputError(f"the matrix must be tridiagonal; it has nonzero "
                         f"diagonals out to offsets ({min(wide)}, {max(wide)})")
    lower, diag, upper = (H.diagonal(k)[1:-1] for k in (-1, 0, 1))
    if any(np.iscomplexobj(d) and d.imag.any() for d in (lower, diag, upper)) \
            or not np.array_equal(lower, upper):
        raise InputError("the matrix must be real symmetric")
    return diag.real, upper.real


# (key, result) of the last solve: one entry, replaced by one assignment
_last_eigensystem: tuple | None = None


def _eigh_bands(diag: np.ndarray, off: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """``(lam, U)`` of ``eigh_tridiagonal`` on the two bands of a real
    symmetric matrix.

    The last eigensystem is kept, keyed on the exact bytes of both bands,
    so a repeat call on the same matrix returns it without a new solve; the
    solver is deterministic, so the result is the one a fresh solve gives.
    The returned arrays are read-only.
    """
    global _last_eigensystem
    key = (diag.dtype.str, diag.tobytes(), off.dtype.str, off.tobytes())
    last = _last_eigensystem
    if last is not None and last[0] == key:
        return last[1]
    try:
        lam, U = eigh_tridiagonal(diag, off)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise NumericalBreakdownError("eigendecomposition failed") from exc
    lam.flags.writeable = U.flags.writeable = False
    _last_eigensystem = (key, (lam, U))
    return lam, U


def _real_right_matmul(v: np.ndarray, U: np.ndarray) -> np.ndarray:
    """``v @ U`` for complex rows ``v`` and real ``U``: one real product of
    the real and imaginary parts stacked into one contiguous array, without
    a complex copy of ``U``."""
    k = v.shape[0]
    parts = np.concatenate((v.real, v.imag)) @ U
    out = np.empty(parts[:k].shape, complex)
    out.real, out.imag = parts[:k], parts[k:]
    return out


def _lags(s: float | Sequence[float]) -> np.ndarray:
    """``s`` as a float array: a scalar or a 1-D sequence of finite lags."""
    lags = np.asarray(s, dtype=float)
    if lags.ndim > 1:
        raise InputError("s must be a scalar or a 1-D sequence of lags")
    if not np.isfinite(lags).all():
        raise InputError(f"lags must be finite; got {lags.tolist()}")
    return lags


def _conjugation_eigensystem(X: OperatorMatrix, H: OperatorMatrix,
                             p: DiffusionParams):
    """``(lam, U)`` of the interior of H, after the checks the exact
    conjugation needs: a continued branch, a diagonal X and an H that is
    real symmetric tridiagonal on the interior."""
    if p.is_real:
        raise UnsupportedConfigError(
            "exact conjugation is a continued-branch operation; use "
            "taylor_heisenberg or the stationary semigroup in real mode")
    if X.space.grid.n != H.space.grid.n:
        raise InputError("X and H act on different grids")
    if any(d.any() for k, d in X.diagonals.items() if k != 0):
        raise InputError("exact conjugation needs a diagonal position operator")
    return _eigh_bands(*_interior_bands(H))


def time_derivative_recursion(X0: OperatorMatrix, H: OperatorMatrix,
                              p: DiffusionParams, n_target: int
                              ) -> list[OperatorMatrix]:
    """X^1 .. X^{n_target} from repeated commutators with H / (2 m nu).

    In real mode the Hamiltonian must have been built from a stationary
    density (its coefficient fields carry no time dependence); a
    non-stationary real-mode H is rejected.
    """
    if n_target < 1:
        raise InputError("n_target must be >= 1")
    if p.is_real and H.meta is not None and not H.meta.get("stationary", True):
        raise UnsupportedConfigError(
            "real-mode recursion is defined for stationary densities only")
    scale = 1.0 / (2.0 * MASS * p.nu)
    out = [X0]
    for k in range(n_target):
        out.append(OperatorMatrix(X0.space, _scaled(
            scale, commutator(H, out[-1]).diagonals), f"time_derivative^{k + 1}"))
    return out[1:]


def taylor_heisenberg(X: OperatorMatrix, H: OperatorMatrix, s: float,
                      order: int, p: DiffusionParams) -> OperatorMatrix:
    """Evolved position as the order-limited Taylor sum of the recursion.

    The order-k term is ``X^k s^k / k!``.  Truncation tracks the exact
    conjugation only while ``|s| * (spectral diameter of H / 2 m nu)``
    stays modest; see the verification suite notes.
    """
    if order < 0:
        raise InputError("order must be >= 0")
    total = {k: d.astype(complex) for k, d in X.diagonals.items()}
    derivs = time_derivative_recursion(X, H, p, order) if order > 0 else []
    for k, Xk in enumerate(derivs, start=1):
        for r, d in Xk.diagonals.items():
            total[r] = total.get(r, 0) + d * (s ** k / factorial(k))
    return OperatorMatrix(X.space, total, f"taylor_evolved(s={s:g}, order={order})")


def heisenberg_operator(X: OperatorMatrix, H: OperatorMatrix, s: float,
                        p: DiffusionParams) -> OperatorMatrix:
    """Exact evolved position on a continued branch, as a full matrix.

    ``X(s) = exp(-/+ i H s / hbar) X exp(+/- i H s / hbar)`` (minus branch
    gives the standard convention), realized by the eigendecomposition of
    the Hamiltonian restricted to interior nodes (hard walls).  Boundary
    rows pass through unchanged from X.

    The interior of H must be real symmetric tridiagonal and X diagonal,
    as ``hamiltonian`` and ``position_operator`` build them.  X(s) is a
    full matrix: it is formed dense and stored through ``from_dense``.
    Where only its action on states is needed, ``heisenberg_action``
    gives it in O(n^2) per state.
    """
    lam, U = _conjugation_eigensystem(X, H, p)
    x = X.diagonal(0)
    # minus branch: X(s) = L X L^H with L = U e^{i phi} U^T = e^{+iHs/hbar}
    phi = -p.sign * lam * s / HBAR
    left = np.empty(U.shape, dtype=complex)
    left.real = (U * np.cos(phi)) @ U.T
    left.imag = (U * np.sin(phi)) @ U.T
    out = np.diag(x.astype(complex))
    out[1:-1, 1:-1] = (left * x[1:-1]) @ left.conj()
    return OperatorMatrix.from_dense(X.space, out, f"heisenberg(s={s:g})")


def heisenberg_action(X: OperatorMatrix, H: OperatorMatrix,
                      s: float | Sequence[float], p: DiffusionParams,
                      states: np.ndarray | Sequence[np.ndarray]
                      ) -> np.ndarray:
    """``X(s) psi`` of ``heisenberg_operator`` for each state, without
    forming X(s).

    On the interior ``X(s) = L x L^H`` with ``L = U e^{i phi} U^T``, so
    ``X(s) psi`` there is ``L (x . L^H psi)``: four products by the
    eigenvector matrix U, O(n^2) per state and lag.  The boundary rows are
    those of X.  H is diagonalized at most once per call, and not at all
    when the previous eigensolve was of the same interior bands.

    ``states`` holds nodal fields as rows, shape ``(k, n)``.  ``s`` is a
    scalar or a 1-D sequence of lags; the result has shape ``(k, n)`` for a
    scalar and ``(len(s), k, n)`` for a sequence, and its element ``j`` is
    the scalar call at ``s[j]`` bit for bit.
    """
    lam, U = _conjugation_eigensystem(X, H, p)
    lags = _lags(s)
    states = np.asarray(states)
    n = X.space.grid.n
    if states.ndim != 2 or states.shape[1] != n:
        raise InputError(f"states must be rows of nodal fields of n={n}; "
                         f"got shape {states.shape}")
    x = X.diagonal(0)
    coeffs = _real_right_matmul(states[:, 1:-1], U)       # (U^T psi)^T
    out = np.empty((lags.size, *states.shape), complex)
    out[:, :, [0, -1]] = x[[0, -1]] * states[:, [0, -1]]
    for j, lag in enumerate(lags.ravel()):
        phase = np.exp(1j * p.sign * lam * lag / HBAR)   # e^{-i phi}
        w = x[1:-1] * _real_right_matmul(coeffs * phase, U.T)
        out[j, :, 1:-1] = _real_right_matmul(
            _real_right_matmul(w, U) * phase.conj(), U.T)
    return out[0] if lags.ndim == 0 else out


def correlation(state: np.ndarray, ops: list[OperatorMatrix],
                space: WeightedSpace) -> complex:
    """Sandwich ``(state, ops[0] ops[1] ... ops[-1] state)`` in the space.

    Operators are listed exactly as they appear in the written product
    (leftmost entry outermost, i.e. applied last).  The state must be
    normalized in the space within 1e-6.
    """
    state = np.asarray(state)
    if state.shape != (space.grid.n,):
        raise InputError("state must be a nodal field on the space's grid")
    nrm = space.inner(state, state).real
    if abs(nrm - 1.0) > _STATE_NORM_TOL:
        raise InputError(f"state is not normalized in this space: (f,f) = {nrm:.8f}")
    vec = state.astype(complex)
    for op in reversed(ops):
        if op.space.grid.n != space.grid.n:
            raise InputError("operator/state dimension mismatch")
        vec = op.apply(vec)
    return space.inner(state, vec)


def stationary_generator(ws: WaveSolution, p: DiffusionParams
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauge-image generator of the stationary diffusion on interior nodes.

    Returns ``(diag, off, theta)``: the diagonal and the off-diagonal of
    the symmetric tridiagonal ``L = nu (Lap_D - diag(Lap_D theta / theta))``
    and ``theta = sqrt(rho)`` on the interior nodes, from the first stored
    time of the stationary state.  The construction makes ``L theta = 0``
    exact, so ``exp(s L)`` is a stable contraction with theta invariant.
    This is the Hamiltonian of the recursion shifted by the state's energy
    and divided by ``2 m nu``, up to O(dx^2).
    """
    if not p.is_real:
        raise UnsupportedConfigError("the stationary semigroup is real-mode only")
    grid = ws.grid
    theta = np.exp(ws.R[0])[1:-1]
    inv = 1.0 / (grid.dx * grid.dx)
    padded = np.concatenate(([0.0], theta, [0.0]))
    lap_theta = (inv * padded[:-2] + inv * padded[2:]) + (-2.0 * inv) * theta
    q = lap_theta / theta
    diag = p.nu_real * (-2.0 * inv - q)
    off = np.full(theta.size - 1, p.nu_real * inv)
    return diag, off, theta


def two_time_position_correlation(ws: WaveSolution, p: DiffusionParams,
                                  s: float | Sequence[float],
                                  V: np.ndarray | None = None
                                  ) -> complex | np.ndarray:
    """Stationary-state matrix element of the lag-s position pair.

    Real mode: ``(X theta, exp(s L) X theta)`` with the stationary
    semigroup above -- the operator form of the path average
    ``E[x(t) x(t+s)]``, equal for the ground-state diffusion to the
    autocovariance ``var * exp(-2 nu s)`` of the corresponding
    Ornstein-Uhlenbeck process.

    Continued branches: ``(psi, X(s) X psi)`` in the flat space with
    ``psi = exp(R + iS)`` at the first stored time and ``heisenberg_action``
    for ``X(s)`` (needs the potential ``V``); the minus branch reproduces
    the standard quantum two-point function.

    ``s`` is a scalar, which gives a ``complex``, or a 1-D sequence of
    finite lags, which gives a complex array, one eigensolve for all of
    them.  The real branch takes only ``s >= 0``, where its semigroup is a
    contraction; the unitary continued branches take any sign.  Both
    continued branches share one Hamiltonian, so a minus call and a plus
    call in a row diagonalize it once.
    """
    grid = ws.grid
    lags = _lags(s)
    if p.is_real:
        if (lags < 0).any():
            raise InputError("the stationary semigroup exp(sL) is a "
                             f"contraction only for s >= 0; got {lags.tolist()}")
        diag, off, theta = stationary_generator(ws, p)
        theta = theta / np.sqrt(np.sum(theta ** 2) * grid.dx)
        lam, U = _eigh_bands(diag, off)
        w = U.T @ (grid.x[1:-1] * theta)
        vals = np.array([np.sum(w * np.exp(lam * lag) * w) * grid.dx
                         for lag in lags.ravel()], dtype=complex)
    else:
        if V is None:
            raise InputError("continued-mode correlation needs the potential V")
        space = build_space(grid, "L2")
        psi = np.exp(ws.R[0] + 1j * np.where(
            np.isnan(ws.S[0]), 0.0, ws.S[0]))
        psi = space.normalize(psi)
        X = position_operator(space)
        evolved = heisenberg_action(X, hamiltonian(None, p, V, space),
                                    lags.ravel(), p, [X.apply(psi)])
        vals = np.sum(np.conj(psi) * evolved[:, 0], axis=-1) * grid.dx
    return complex(vals[0]) if lags.ndim == 0 else vals
