"""Operator evolution: the recursion, evolved positions, and correlations.

Higher time-derivative operators follow the single recursion

    X^{k+1} = (1 / 2 m nu) [H, X^k]        (+ d/dt of coefficients, zero
                                            for the stationary states
                                            these formulas are used on)

which is analytic in nu: on the minus and plus branches ``1/(2 m nu)``
becomes ``+/- i / hbar`` and the recursion is the standard quantum one.
The evolved position at finite time is either the Taylor sum of the
recursion or, on the continued branches, the exact conjugation by
``exp(s H / 2 m nu)``, from the eigensystem of the interior Hamiltonian.

Operators are held as their diagonals, so the recursion goes band in,
band out.  The interior Hamiltonian and the stationary generator are
tridiagonal, so their eigensystems come from their two bands through
``scipy.linalg.eigh_tridiagonal``, by one LAPACK driver for both, named
once as ``_SECTOR_DRIVER``: ``stemr``, MRRR (Dhillon and Parlett, Linear
Algebra Appl. 387, 1 (2004); Dhillon, Parlett and Voemel, ACM TOMS 32,
533 (2006)).  It makes no level-3 BLAS call.  The divide and conquer of
``stevd`` does, in its merges, on scipy's own threaded BLAS, whose threads
contend with numpy's pool right after a numpy product; ``stemr``'s time
does not depend on what ran before it.  On the oscillator and the double
well ``(x^2 - 4)^2 / 16`` at n = 201 to 1601 its eigenvectors are
orthonormal to 3.3e-13 (``stevd``: 4e-15), and its residuals are within
7.2e-15 of ``||T||``.

A Hamiltonian's eigensystem is a list of sectors.  Every Hamiltonian the
checks and the benchmark build has an even potential on a box centred at
0, so its interior commutes with the mirror J (node i to node m-1-i) and
the position is odd under it.  Such an H splits exactly into an even and an odd sector
of half the size (Cantoni and Butler, Linear Algebra Appl. 13, 275
(1976), on centrosymmetric matrices), and X couples only the even sector
to the odd one.  The split is taken when the bands equal their mirror
image, and x is mirror-odd, to ``grids.MIRROR_TOL``; any other H is one
sector with the identity fold, on the same code.  ``_eigh_bands`` solves the
sectors and keeps the last ones it computed: both continued branches and
the dense and state forms of the conjugation share one Hamiltonian, so
consecutive calls on it diagonalize it once.  The exact conjugation acts
on states: ``heisenberg_action`` folds them into the sectors in O(n) and
applies the sector eigenvectors, O(n^2) per state and lag.  Only
``heisenberg_operator`` forms the full evolved matrix, for the checks
that test a dense X(s) itself: one product ``L_r A L_c^H`` of the sector
sizes, unfolded with its adjoint straight into the output in O(n^2).

The two-time element of every member, real or continued, is one formula,
``dx sum_k w_k^2 exp(conj(nu) mu_k s)``, over the eigenpairs of the
``nu``-free stationary generator M (``L = nu M``) and the weights of
``v = x theta`` on them.  When theta is mirror-even and x mirror-odd,
both are taken exactly so: M's bands equal their mirror image, v is odd,
and only M's odd sector, solved in full, carries v's weight.  Any other
state is one full solve.  Nothing is left out, so the one check is
Parseval's, ``sum w^2 = ||v||^2``.  The eigenpairs serve every lag and
every member, and are kept apart from the Hamiltonian eigensystem.
"""
from __future__ import annotations

from collections.abc import Sequence
from math import factorial

import numpy as np
from scipy.linalg import eigh_tridiagonal

from ..errors import InputError, NumericalBreakdownError, UnsupportedConfigError
from ..fields.wave import WaveSolution
from ..grids import commutes_with_mirror, has_mirror_parity
from ..params import MASS, DiffusionParams
from .operators import OperatorMatrix, _require_stationary, _scaled, commutator
from .spaces import WeightedSpace

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


_HALF_SQRT2 = np.sqrt(0.5)


def _mirrored(diag: np.ndarray, off: np.ndarray, x: np.ndarray) -> bool:
    """Whether the tridiagonal H of bands ``diag``, ``off`` commutes with
    the mirror J to rounding and the diagonal x anticommutes with it.

    Both are asked to ``grids.MIRROR_TOL``, of ``||H|| = max|d| + 2 max|e|``
    and of ``max|x|``.  The split then conjugates by H', the mirror image
    of H's first half, and the mirror-odd part of x, ``(x - Jx) / 2``.
    Dropping x's even part moves X(s) by at most its largest entry,
    ``MIRROR_TOL max|x|`` (conjugation is unitary), and
    ``||H - H'|| <= 3 MIRROR_TOL ||H||`` moves it by at most
    ``2 |s| ||H - H'|| max|x| / hbar``.
    """
    if diag.size < 2:
        return False
    return commutes_with_mirror(diag, off, off) and has_mirror_parity(x, -1)


def _sector_bands(diag: np.ndarray, off: np.ndarray, split: bool
                  ) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
    """``(parity, diag, off)`` of each sector of the tridiagonal H.

    Without the split, H itself with parity 0, the identity fold.  With
    it, the even (+1) and odd (-1) blocks, of the sizes ``ceil(m/2)`` and
    ``floor(m/2)``, from the first half of the bands: for ``m = 2h`` the
    even block ends in ``d[h-1] + e[h-1]`` and the odd one in
    ``d[h-1] - e[h-1]``; for ``m = 2h + 1`` the centre node joins the even
    block through ``sqrt(2) e[h-1]``.
    """
    if not split:
        return ((0, diag, off),)
    h = diag.size // 2
    if diag.size % 2:
        even_off = off[:h].copy()
        even_off[-1] *= np.sqrt(2.0)
        return ((1, diag[:h + 1], even_off), (-1, diag[:h], off[:h - 1]))
    even, odd = diag[:h].copy(), diag[:h].copy()
    even[-1] += off[h - 1]
    odd[-1] -= off[h - 1]
    return ((1, even, off[:h - 1]), (-1, odd, off[:h - 1]))


def _restrict(v: np.ndarray, parity: int) -> np.ndarray:
    """``v Q``: the m interior values on v's last axis in the orthonormal
    coordinates of the sector of ``parity`` (0 is the identity fold)."""
    if not parity:
        return v
    h = v.shape[-1] // 2
    out = (v[..., :h] + parity * v[..., :-h - 1:-1]) * _HALF_SQRT2
    if parity > 0 and v.shape[-1] % 2:
        out = np.concatenate((out, v[..., h:h + 1]), axis=-1)
    return out


def _expand(w: np.ndarray, parity: int, m: int, axis: int = -1
            ) -> np.ndarray:
    """``Q w`` along ``axis``: sector coordinates back to the m interior
    values; the inverse of ``_restrict`` on its sector."""
    if not parity:
        return w
    h = m // 2
    shape = list(w.shape)
    shape[axis] = m
    out = np.zeros(shape, w.dtype)
    # written through views with the sector axis last; out keeps its layout
    o, w = np.moveaxis(out, axis, -1), np.moveaxis(w, axis, -1)
    o[..., :h] = w[..., :h] * _HALF_SQRT2
    o[..., :-h - 1:-1] = parity * o[..., :h]
    if parity > 0 and m % 2:
        o[..., h] = w[..., h]
    return out


# LAPACK driver of every tridiagonal solve: MRRR, which makes no level-3
# BLAS call, so its time does not depend on the products around it
_SECTOR_DRIVER = "stemr"
# (key, result) of the last solve: one entry, replaced by one assignment
_last_eigensystem: tuple | None = None


def _solve_sector(d: np.ndarray, e: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``(lam, U)`` of the tridiagonal matrix of bands ``d``, ``e`` by
    ``_SECTOR_DRIVER``; a LAPACK failure is a ``NumericalBreakdownError``."""
    try:
        return eigh_tridiagonal(d, e, lapack_driver=_SECTOR_DRIVER)
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdownError(
            f"eigendecomposition of {d.size} nodes failed: {exc}") from exc


def _eigh_bands(diag: np.ndarray, off: np.ndarray, split: bool
                ) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
    """``(parity, lam, U)`` of each sector of ``_sector_bands``, from
    ``_solve_sector`` on the sector's bands.

    The last sectors are kept, keyed on the split and the exact bytes of
    both bands, so a repeat call on the same matrix returns them without a
    new solve; the solver is deterministic, so the result is the one fresh
    solves give.  The returned arrays are read-only.
    """
    global _last_eigensystem
    key = (split, diag.dtype.str, diag.tobytes(), off.dtype.str,
           off.tobytes())
    last = _last_eigensystem
    if last is not None and last[0] == key:
        return last[1]
    sectors = []
    for parity, d, e in _sector_bands(diag, off, split):
        lam, U = _solve_sector(d, e)
        lam.flags.writeable = U.flags.writeable = False
        sectors.append((parity, lam, U))
    sectors = tuple(sectors)
    _last_eigensystem = (key, sectors)
    return sectors


# largest relative miss of sum w^2 from ||v||^2 that orthonormal U allow
_NORM_SLACK = 1e-12
# (key, result) of the last solve of M, kept apart from _last_eigensystem
_last_generator: tuple | None = None


def _generator_eigenpairs(diag: np.ndarray, off: np.ndarray, v: np.ndarray,
                          split: bool) -> tuple[np.ndarray, np.ndarray]:
    """``(mu, w)``: the eigenvalues of the tridiagonal M and the
    coefficients ``w = U^T v`` of v on its eigenvectors.

    With the split, v must be exactly mirror-odd, so only M's odd sector,
    the last of ``_sector_bands``, is solved; without it, all of M.  A
    ``sum w^2`` that misses ``||v||^2`` by more than ``_NORM_SLACK`` of it
    raises ``NumericalBreakdownError``.  The last result is kept, keyed on
    the split and the exact bytes of both bands and of v; the returned
    arrays are read-only.
    """
    global _last_generator
    key = (split, *((a.dtype.str, a.tobytes()) for a in (diag, off, v)))
    last = _last_generator
    if last is not None and last[0] == key:
        return last[1]
    parity, d, e = _sector_bands(diag, off, split)[-1]
    mu, U = _solve_sector(d, e)
    w = U.T @ _restrict(v, parity)
    vv = float(np.sum(v * v))
    ww = float(np.sum(w * w))
    if abs(ww - vv) > _NORM_SLACK * vv:
        raise NumericalBreakdownError(
            f"the {d.size} eigenvectors of M carry {ww / vv:.15g} of "
            "||v||^2: they are not orthonormal")
    mu.flags.writeable = w.flags.writeable = False
    _last_generator = (key, (mu, w))
    return mu, w


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
    """``(sectors, (r, c, a))`` for the exact conjugation, after the checks
    it needs: a continued branch, a real diagonal X and an H that is real
    symmetric tridiagonal on the interior.

    ``sectors`` are those of ``_eigh_bands``.  In their coordinates X is
    the diagonal ``a`` from sector c to sector r and its transpose back:
    x itself on the one sector, or x's mirror-odd part on the first half
    of the nodes from the odd sector to the even one.
    """
    if p.is_real:
        raise UnsupportedConfigError(
            "exact conjugation is a continued-branch operation; use "
            "taylor_heisenberg or the stationary semigroup in real mode")
    if X.space.grid.n != H.space.grid.n:
        raise InputError("X and H act on different grids")
    if any(d.any() for k, d in X.diagonals.items() if k != 0):
        raise InputError("exact conjugation needs a diagonal position operator")
    x = X.diagonal(0)
    if np.iscomplexobj(x) and x.imag.any():
        raise InputError("exact conjugation needs a real position operator")
    diag, off = _interior_bands(H)
    x = x.real[1:-1]
    split = _mirrored(diag, off, x)
    sectors = _eigh_bands(diag, off, split)
    if not split:
        return sectors, (0, 0, x)
    h = x.size // 2
    return sectors, (0, 1, (x[:h] - x[:-h - 1:-1]) / 2.0)


def time_derivative_recursion(X0: OperatorMatrix, H: OperatorMatrix,
                              p: DiffusionParams, n_target: int
                              ) -> list[OperatorMatrix]:
    """X^1 .. X^{n_target} from repeated commutators with H / (2 m nu).

    In real mode the coefficient fields carry no time dependence because
    ``hamiltonian`` builds a real-mode H only from a stationary density.
    """
    if n_target < 1:
        raise InputError("n_target must be >= 1")
    scale = 1.0 / (2.0 * MASS * p.nu)
    out = [X0]
    for _ in range(n_target):
        out.append(OperatorMatrix(X0.space, _scaled(
            scale, commutator(H, out[-1]).diagonals)))
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
    return OperatorMatrix(X.space, total)


def _unfold_mirror_pair(block: np.ndarray, out: np.ndarray) -> None:
    """Write ``E + E^H``, ``E = Q_e B Q_o^T``, into the m x m ``out``: the
    even-from-odd sector block ``B`` unfolded, with its adjoint.

    With ``h = m // 2`` and ``T = B[:h] / 2`` (the two folds' ``sqrt(1/2)``),
    the first h rows hold ``S = T + T^H`` and, on the mirrored columns,
    ``D = T^H - T``; the last h rows, mirrored, hold ``-D`` and ``-S``.  An
    odd m adds the centre row ``B[h] sqrt(1/2)``, mirror-odd, and its
    adjoint as the centre column.  Every entry is the sum that
    ``_expand`` twice and the adjoint sum would form, so the result is
    theirs bit for bit, up to the sign of a zero.
    """
    m = out.shape[0]
    h = m // 2
    T = block[:h] * _HALF_SQRT2 * _HALF_SQRT2
    Th = T.conj().T
    top, bottom = out[:h], out[:-h - 1:-1]        # bottom: rows m-1 .. m-h
    np.add(T, Th, out=top[:, :h])
    np.subtract(Th, T, out=top[:, :-h - 1:-1])
    np.subtract(T, Th, out=bottom[:, :h])
    np.negative(top[:, :h], out=bottom[:, :-h - 1:-1])
    if m % 2:
        centre = block[h] * _HALF_SQRT2
        out[h, :h], out[h, :-h - 1:-1], out[h, h] = centre, -centre, 0.0
        out[:h, h], out[:-h - 1:-1, h] = centre.conj(), -centre.conj()


def heisenberg_operator(X: OperatorMatrix, H: OperatorMatrix, s: float,
                        p: DiffusionParams) -> OperatorMatrix:
    """Exact evolved position on a continued branch, as a full matrix.

    ``X(s) = L X L^H`` with ``L = exp(s H / 2 m nu)``, on the recursion's
    scale: ``exp(+i H s / hbar)`` on the minus branch (the standard
    convention), realized by the sector eigensystems of the Hamiltonian on
    the interior nodes (hard walls).  Boundary rows are those of X.

    L is block diagonal on the sectors, ``L_r = U_r e^{i phi_r} U_r^T``,
    and X couples sector c to sector r through the diagonal A, so the one
    block ``B = L_r A L_c^H = U_r (e^{i phi_r} U_r^T A U_c e^{-i phi_c})
    U_c^T`` is three products of the sector sizes; on a mirrored H the
    interior is ``Q_r B Q_c^T`` plus its adjoint, written into the output
    in one O(n^2) pass (``_unfold_mirror_pair``).  The split and what it
    may move are stated at ``_mirrored``.

    The interior of H must be real symmetric tridiagonal and X real
    diagonal, as ``hamiltonian`` and ``position_operator`` build them.
    X(s) is a full matrix: it is formed dense, and the operator keeps that
    array without a copy.  Where only its action on states is needed,
    ``heisenberg_action`` gives it in O(n^2) per state.
    """
    sectors, (r, c, a) = _conjugation_eigensystem(X, H, p)
    (_, lam_r, U_r), (_, lam_c, U_c) = sectors[r], sectors[c]
    k, n = a.size, X.space.grid.n
    scale = s / (2.0 * MASS * p.nu)                 # i phi = lam scale
    inner = U_r[:k].T @ (a[:, None] * U_c[:k])     # U_r^T A U_c
    inner = np.exp(lam_r * scale)[:, None] * inner * np.exp(-lam_c * scale)
    block = _real_right_matmul(_real_right_matmul(inner.T, U_r.T).T, U_c.T)
    out = np.zeros((n, n), complex)
    out[0, 0], out[-1, -1] = X.diagonal(0)[[0, -1]]
    if r == c:
        out[1:-1, 1:-1] = block
    else:
        _unfold_mirror_pair(block, out[1:-1, 1:-1])
    return OperatorMatrix._owning(X.space, out)


def heisenberg_action(X: OperatorMatrix, H: OperatorMatrix,
                      s: float | Sequence[float], p: DiffusionParams,
                      states: np.ndarray | Sequence[np.ndarray]
                      ) -> np.ndarray:
    """``X(s) psi`` of ``heisenberg_operator`` for each state, without
    forming X(s).

    On the interior ``X(s) = L X L^H`` with L block diagonal on the
    sectors, ``L_r = U_r e^{i phi_r} U_r^T``.  Each state is folded into
    the sectors in O(n); there ``L^H`` is applied, then X (x's diagonal
    from each sector to its partner), then L, four products by the sector
    eigenvectors, O(n^2) per state and lag; the result is unfolded.  The
    boundary rows are those of X.  H is diagonalized at most once per
    call, and not at all when the previous eigensolve was of the same
    interior bands.

    ``states`` holds nodal fields as rows, shape ``(k, n)``.  ``s`` is a
    scalar or a 1-D sequence of lags; the result has shape ``(k, n)`` for a
    scalar and ``(len(s), k, n)`` for a sequence, and its element ``j`` is
    the scalar call at ``s[j]`` bit for bit.
    """
    sectors, (r, c, a) = _conjugation_eigensystem(X, H, p)
    lags = _lags(s)
    states = np.asarray(states)
    n = X.space.grid.n
    if states.ndim != 2 or states.shape[1] != n:
        raise InputError(f"states must be rows of nodal fields of n={n}; "
                         f"got shape {states.shape}")
    x, k = X.diagonal(0), a.size
    coeffs = [_real_right_matmul(_restrict(states[:, 1:-1], parity), U)
              for parity, _, U in sectors]                 # (U^T Q^T psi)^T
    out = np.zeros((lags.size, *states.shape), complex)
    out[:, :, [0, -1]] = x[[0, -1]] * states[:, [0, -1]]
    for j, lag in enumerate(lags.ravel()):
        phases = [np.exp(-lam * (lag / (2.0 * MASS * p.nu)))  # e^{-i phi}
                  for _, lam, _ in sectors]
        back = [_real_right_matmul(cf * ph, U.T)               # L^H psi
                for cf, ph, (_, _, U) in zip(coeffs, phases, sectors)]
        moved = [np.zeros_like(b) for b in back]
        for i, i_from in {(r, c), (c, r)}:
            moved[i][:, :k] = a * back[i_from][:, :k]
        for w, ph, (parity, _, U) in zip(moved, phases, sectors):
            out[j, :, 1:-1] += _expand(_real_right_matmul(
                _real_right_matmul(w, U) * ph.conj(), U.T), parity, n - 2)
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


def _generator_bands(theta: np.ndarray, dx: float
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of ``M = Lap_D - diag(Lap_D theta /
    theta)`` on the interior values theta; ``M theta = 0`` exactly, and a
    mirror-symmetric theta gives mirror-symmetric bands exactly."""
    inv = 1.0 / (dx * dx)
    padded = np.concatenate(([0.0], theta, [0.0]))
    lap_theta = (inv * padded[:-2] + inv * padded[2:]) + (-2.0 * inv) * theta
    return -2.0 * inv - lap_theta / theta, np.full(theta.size - 1, inv)


def stationary_generator(ws: WaveSolution
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauge-image generator of the stationary diffusion on interior nodes.

    Returns ``(diag, off, theta)``: the diagonal and the off-diagonal of
    the symmetric tridiagonal ``M = Lap_D - diag(Lap_D theta / theta)``
    and ``theta = sqrt(rho)`` on the interior nodes, from the first stored
    time of the stationary state.  M carries no ``nu``: the generator of
    member ``nu``, real or continued, is ``L = nu M``.  The construction
    makes ``M theta = 0`` exact, and theta has no node, so ``M <= 0``.
    This is ``-2 m / hbar^2`` times the Hamiltonian of the recursion
    shifted by the state's energy, up to O(dx^2).
    """
    theta = np.exp(ws.R[0])[1:-1]
    return (*_generator_bands(theta, ws.grid.dx), theta)


def two_time_position_correlation(ws: WaveSolution, p: DiffusionParams,
                                  s: float | Sequence[float],
                                  V: np.ndarray | None = None
                                  ) -> complex | np.ndarray:
    """Stationary-state matrix element of the lag-s position pair, for
    every member by one formula:

        element(nu, s) = dx sum_k w_k^2 exp(conj(nu) mu_k s)

    over the eigenpairs ``(mu_k, u_k)`` of the ``nu``-free generator M of
    ``stationary_generator``, with ``w = U^T (x theta)`` and theta
    normalized.  On a real member it is ``(x theta, exp(s nu M) x theta)``,
    the operator form of the path average ``E[x(t) x(t+s)]``, equal for
    the ground-state diffusion to the autocovariance ``var exp(-2 nu s)``
    of the Ornstein-Uhlenbeck process.  On a continued member it is
    ``(psi, X(s) X psi)``, the conjugate of ``(x theta, exp(s nu M) x
    theta)``: ``exp(s nu M)`` is then ``exp(+/- i (H - E0) s / hbar)``,
    the inverse of the propagator that X(s) puts on the right.  So the
    minus branch reads ``0.5 exp(-i s)`` on the oscillator ground state,
    the standard quantum two-point function, and the plus branch its
    conjugate.

    ``mu <= 0`` and ``Re nu >= 0``, so ``|exp(conj(nu) mu s)| <= 1`` for
    every member at ``s >= 0``, and for the continued members at any s.
    Lags below 0 are refused where ``Re nu > 0``.  When theta is
    mirror-even and x mirror-odd, to ``grids.MIRROR_TOL``, both are made
    exactly so and only M's odd sector, ``floor(m/2)`` nodes, is solved;
    any other state takes one solve of M's m nodes.  A second member or lag
    sequence on the same state solves nothing, and a two-time call never
    replaces the kept Hamiltonian eigensystem.

    ``s`` is a scalar, which gives a ``complex``, or a 1-D sequence of
    finite lags, which gives a complex array whose element ``j`` is the
    scalar call at ``s[j]`` bit for bit.  ``V`` is not read; it is kept
    for callers that still pass it.  A state whose density moves or that
    carries a current is refused (``UnsupportedConfigError``).
    """
    grid = ws.grid
    lags = _lags(s)
    _require_stationary(ws)
    if p.nu.real > 0 and (lags < 0).any():
        raise InputError("the stationary semigroup exp(s nu M) is a "
                         f"contraction only for s >= 0; got {lags.tolist()}")
    theta, x = np.exp(ws.R[0])[1:-1], grid.x[1:-1]
    split = (theta.size >= 2 and has_mirror_parity(theta, 1)
             and has_mirror_parity(x, -1))
    if split:
        theta, x = (theta + theta[::-1]) / 2.0, (x - x[::-1]) / 2.0
    diag, off = _generator_bands(theta, grid.dx)
    theta = theta / np.sqrt(np.sum(theta ** 2) * grid.dx)
    mu, w = _generator_eigenpairs(diag, off, x * theta, split)
    rate = p.nu.conjugate() * mu
    vals = np.array([np.sum(w * np.exp(rate * lag) * w)
                     for lag in lags.ravel().tolist()]) * grid.dx
    return complex(vals[0]) if lags.ndim == 0 else vals
