"""Operator matrices on a grid: position, velocities, Hamiltonian.

Every operator is stored as a dense ``n x n`` array, but every operator
built here is diagonal or tridiagonal, so ``commutator`` reads the band of
its narrower operand and forms the two products from a few diagonals
instead of two dense matrix products.

All differential operator matrices carry the hard-wall closure: exact
centered stencils on interior rows, zero entries in the boundary rows and
columns (states vanish at the walls, so boundary values neither evolve
nor feed back).  Identity assertions are made on interior rows; repeated
commutators additionally develop finite-section artifacts in an
``O(order)``-node corner layer, which tests exclude.

A note on the discrete commutation rules.  With ``X = diag(x)`` and the
centered derivative ``D``, the product rule on a uniform grid gives

    ([D, X] f)_i = (f_{i-1} + f_{i+1}) / 2        (interior rows),

i.e. ``[D, X] = A``, the nearest-neighbor averaging operator -- the
second-order-accurate discrete representation of the identity, equal to
``1 + (dx^2/2) Lap`` on smooth fields.  No finite matrix pair can achieve
``[D, X] = 1`` exactly (the diagonal of any commutator with a diagonal X
vanishes entrywise), so the commutator identities below are exact *as
matrix identities against A*, and second-order against the plain identity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import bandwidth

from ..errors import EmptyMaskError, InputError, UnsupportedConfigError
from ..fields.drift import DriftField
from ..fields.wave import WaveSolution
from ..finitediff import gradient, laplacian
from ..params import DiffusionParams
from .spaces import WeightedSpace


@dataclass
class OperatorMatrix:
    """Dense operator with the space it acts on and a provenance label."""

    space: WeightedSpace
    matrix: np.ndarray
    label: str = ""
    meta: dict | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix)
        n = self.space.grid.n
        if m.shape != (n, n):
            raise InputError(f"operator shape {m.shape} does not match grid n={n}")
        if not np.all(np.isfinite(m)):
            raise InputError("operator entries must be finite")
        self.matrix = m

    def apply(self, f: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(f)

    def __matmul__(self, other):
        if isinstance(other, OperatorMatrix):
            return OperatorMatrix(self.space, self.matrix @ other.matrix,
                                  f"({self.label} @ {other.label})")
        return self.matrix @ other


# The band kernel below costs about what the two dense complex products cost
# once the narrow operand has about n/40 diagonals (measured at n = 512 and
# 1025 against a wide operand), so it is used up to n/64.
_BAND_RATIO = 64
_ROW_BLOCK = 16


def commutator(a: OperatorMatrix | np.ndarray,
               b: OperatorMatrix | np.ndarray) -> np.ndarray:
    """Matrix commutator [a, b] = ab - ba, as a dense array.

    When the operand with fewer diagonals has at most ``n / 64`` of them,
    both products are sums of that operand's diagonals scaling shifted rows
    and columns of the other, restricted to the other's band: O(bands n^2)
    work against a wide operand and far less against a banded one, instead
    of two O(n^3) products.  Two wide operands take the plain
    dense products.
    """
    ma = a.matrix if isinstance(a, OperatorMatrix) else np.asarray(a)
    mb = b.matrix if isinstance(b, OperatorMatrix) else np.asarray(b)
    if ma.ndim != 2 or ma.shape != mb.shape or ma.shape[0] != ma.shape[1]:
        return ma @ mb - mb @ ma
    try:
        band_a, band_b = bandwidth(ma), bandwidth(mb)
    except TypeError:  # a dtype bandwidth cannot scan, e.g. object
        return ma @ mb - mb @ ma
    if sum(band_a) <= sum(band_b):
        narrow, wide, swap = (ma, band_a), (mb, band_b), False
    else:
        narrow, wide, swap = (mb, band_b), (ma, band_a), True
    if (sum(narrow[1]) + 1) * _BAND_RATIO > ma.shape[0]:
        return ma @ mb - mb @ ma
    return _banded_commutator(narrow, wide, swap)


def _banded_commutator(narrow, wide, swap: bool) -> np.ndarray:
    """``N W - W N`` (``W N - N W`` when ``swap``) for ``narrow = (N, (l, u))``
    and ``wide = (W, (lw, uw))``, the operands with their lower and upper
    bandwidths.

    ``(N W)[i] = sum_k N[i, i+k] W[i+k]`` scales shifted rows of W and
    ``(W N)[:, j] = sum_k W[:, j-k] N[j-k, j]`` scales shifted columns.  Row
    blocks of the result are formed in turn over the columns the two bands
    can reach, each product summed over k in ascending order as a dense
    product sums its inner index.
    """
    (nm, (lo, up)), (w, (lw, uw)) = narrow, wide
    n = w.shape[0]
    dtype = np.result_type(nm, w)
    out = np.zeros((n, n), dtype=dtype)
    diags = [(k, np.diagonal(nm, k)) for k in range(-lo, up + 1)]
    for r0 in range(0, n, _ROW_BLOCK):
        r1 = min(n, r0 + _ROW_BLOCK)
        c0, c1 = max(0, r0 - lo - lw), min(n, r1 + up + uw)
        nw = np.zeros((r1 - r0, c1 - c0), dtype=dtype)
        wn = np.zeros((r1 - r0, c1 - c0), dtype=dtype)
        for k, d in diags:
            # N[i, i+k] is d[i] for k >= 0 and d[i+k] for k < 0
            i0, i1 = max(r0, -k), min(r1, n - k)
            if i0 < i1:
                dk = d[i0:i1] if k >= 0 else d[i0 + k:i1 + k]
                nw[i0 - r0:i1 - r0] += dk[:, None] * w[i0 + k:i1 + k, c0:c1]
            # N[j-k, j] is d[j-k] for k >= 0 and d[j] for k < 0
            if k >= 0 and max(c0, k) < c1:
                j0 = max(c0, k)
                wn[:, j0 - c0:] += w[r0:r1, j0 - k:c1 - k] * d[j0 - k:c1 - k]
            elif k < 0 and c0 < min(c1, n + k):
                j1 = min(c1, n + k)
                wn[:, :j1 - c0] += w[r0:r1, c0 - k:j1 - k] * d[c0:j1]
        if swap:
            np.subtract(wn, nw, out=out[r0:r1, c0:c1])
        else:
            np.subtract(nw, wn, out=out[r0:r1, c0:c1])
    return out


def _hard_wall_tridiagonal(n: int, lower: float, diag: float,
                           upper: float) -> np.ndarray:
    """Three-point stencil ``(lower, diag, upper)`` on the interior rows,
    with the hard-wall closure: boundary rows and columns are zero."""
    M = np.zeros((n, n))
    idx = np.arange(1, n - 1)
    M[idx, idx - 1] = lower
    M[idx, idx] = diag
    M[idx, idx + 1] = upper
    M[:, [0, -1]] = 0.0
    return M


def closed_derivative_matrix(n: int, dx: float) -> np.ndarray:
    """Centered first derivative with the hard-wall closure.

    Interior rows are the exact centered stencil; boundary rows and
    columns are zero, making the matrix exactly antisymmetric.
    """
    c = 0.5 / dx
    return _hard_wall_tridiagonal(n, -c, 0.0, c)


def closed_laplacian_matrix(n: int, dx: float) -> np.ndarray:
    """Centered second derivative with the hard-wall closure (symmetric)."""
    inv = 1.0 / (dx * dx)
    return _hard_wall_tridiagonal(n, inv, -2.0 * inv, inv)


def averaging_matrix(n: int) -> np.ndarray:
    """The discrete unit produced by centered-stencil commutators.

    Nearest-neighbor average on interior rows, with the hard-wall closure
    (no reach into boundary columns); zero boundary rows.  Equals
    ``[D, X]`` for the closed derivative exactly.
    """
    return _hard_wall_tridiagonal(n, 0.5, 0.0, 0.5)


def position_operator(space: WeightedSpace) -> OperatorMatrix:
    """Multiplication by the node coordinate."""
    return OperatorMatrix(space, np.diag(space.grid.x), "position")


def derivative_operator(space: WeightedSpace) -> OperatorMatrix:
    """Centered first derivative with the hard-wall closure."""
    return OperatorMatrix(space, closed_derivative_matrix(space.grid.n,
                                                          space.grid.dx),
                          "d/dx")


def velocity_operator(df: DriftField, p: DiffusionParams, space: WeightedSpace,
                      t: float = 0.0) -> OperatorMatrix:
    """Forward-velocity operator b(x,t) + 2 nu d/dx on the density-weighted space."""
    if not p.is_real:
        raise UnsupportedConfigError(
            "velocity_operator is a real-mode object; use "
            "mapped_velocity_operator on the continued branches")
    b_row = df.b_on_grid(t)
    mat = np.diag(b_row) + 2.0 * p.nu_real * closed_derivative_matrix(
        space.grid.n, space.grid.dx)
    return OperatorMatrix(space, mat, "velocity")


def mapped_velocity_operator(p: DiffusionParams, space: WeightedSpace
                             ) -> OperatorMatrix:
    """Gauge image of the velocity: 2 nu d/dx (pure derivative, any mode).

    On the continued branches this is ``+/- (i hbar / m) d/dx``, whose mass
    multiple is the momentum operator.
    """
    D = closed_derivative_matrix(space.grid.n, space.grid.dx)
    mat = (2.0 * p.nu) * D
    return OperatorMatrix(space, mat, "mapped_velocity")


def momentum_operator(p: DiffusionParams, space: WeightedSpace) -> OperatorMatrix:
    """P = m * (mapped velocity) = +/- i hbar d/dx; minus branch is standard."""
    if p.is_real:
        raise UnsupportedConfigError("momentum is a continued-branch object")
    op = mapped_velocity_operator(p, space)
    return OperatorMatrix(space, p.m * op.matrix, "momentum")


def gauge_map(f: np.ndarray, R: np.ndarray, S: np.ndarray,
              p: DiffusionParams) -> np.ndarray:
    """Multiply by ``exp(R + S/z)``: isometry from the density-weighted
    space onto its gauge image (NaN phase outside the mask counts as 0).

    On the continued branches ``S/z = -/+ i S`` makes the factor a pure
    gauge phase times ``exp(R)``.
    """
    sn = np.where(np.isnan(S), 0.0, S) / p.z
    factor = np.exp(R + sn)
    return factor * np.asarray(f)


def density_curvature(ws: WaveSolution, j: int = 0,
                      floor: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """(Lap sqrt(rho)) / sqrt(rho) on the full grid, plus the usable mask.

    Computed from ``exp(R)`` with centered stencils on the full grid; the
    mask marks where the density is above the solution's floor so callers
    can restrict assertions to trustworthy nodes.
    """
    sq = np.exp(ws.R[j])
    q = laplacian(sq, ws.grid.dx) / sq
    mask = ws.mask[j]
    if floor > 0:
        rho = np.exp(2.0 * ws.R[j])
        mask = rho > floor * rho.max()
    return q, mask


@dataclass
class AccelerationFields:
    """The two closed forms of the forward acceleration, for comparison."""

    grid_x: np.ndarray
    from_drift: np.ndarray
    from_potential: np.ndarray
    mask: np.ndarray

    def max_gap(self) -> float:
        d = np.abs(self.from_drift - self.from_potential)[self.mask]
        return float(d.max())


def acceleration_function(ws: WaveSolution, p: DiffusionParams,
                          V: np.ndarray, *, t_index: int = 0,
                          compare_floor: float | None = None
                          ) -> AccelerationFields:
    """Forward acceleration in drift form and in potential form.

    Drift form: ``db/dt + nu Lap b + (1/2) d(b^2)/dx`` from the drift of
    ``ws`` at this member's nu (the 1-d setting makes the rotational term
    vanish identically).  Potential form:
    ``(-dV/dx + d/dx[(hbar^2/2m + 2 m nu^2) (Lap sqrt(rho))/sqrt(rho)])/m``.
    The two agree within O(dx^2) on the comparison mask; ``compare_floor``
    (relative density) shrinks the mask to where both are resolvable --
    second derivatives of log-density amplify the truncation error in the
    far tails.

    ``db/dt`` uses centered differences across stored times; a single
    stored time is treated as stationary.
    """
    if not p.is_real:
        raise UnsupportedConfigError("acceleration fields are real-mode objects")
    from ..fields.drift import drift_fields

    nu = p.nu_real
    grid = ws.grid
    df = drift_fields(ws, p)
    b = df.b[t_index]
    rho = np.exp(2.0 * ws.R[t_index])
    mask = ws.mask[t_index]
    if compare_floor is not None:
        mask = rho > compare_floor * rho.max()
    if mask.sum() < 5:
        raise EmptyMaskError("mask too small to differentiate on")

    if ws.n_times == 1:
        db_dt = np.zeros(grid.n)
    else:
        tgrid = ws.times
        if t_index == 0:
            db_dt = (df.b[1] - df.b[0]) / (tgrid[1] - tgrid[0])
        elif t_index == ws.n_times - 1:
            db_dt = (df.b[-1] - df.b[-2]) / (tgrid[-1] - tgrid[-2])
        else:
            db_dt = (df.b[t_index + 1] - df.b[t_index - 1]) / (
                tgrid[t_index + 1] - tgrid[t_index - 1])

    a_drift = db_dt + nu * laplacian(b, grid.dx) + 0.5 * gradient(b * b, grid.dx)

    V = np.asarray(V, dtype=float)
    if V.shape != (grid.n,):
        raise InputError("V must be a nodal field on the grid")
    coeff = p.hbar ** 2 / (2.0 * p.m) + 2.0 * p.m * nu ** 2
    q, _ = density_curvature(ws, t_index)
    a_pot = (-gradient(V, grid.dx) + gradient(coeff * q, grid.dx)) / p.m
    return AccelerationFields(grid_x=grid.x, from_drift=a_drift,
                              from_potential=a_pot, mask=mask)


def rho_term_coefficient(p: DiffusionParams) -> complex:
    """``hbar^2/2m + 2 m nu^2``; exactly zero on the continued branches."""
    return p.hbar ** 2 / (2.0 * p.m) + 2.0 * p.m * p.nu ** 2


def hamiltonian(ws: WaveSolution | None, p: DiffusionParams, V: np.ndarray,
                space: WeightedSpace, *, t_index: int = 0) -> OperatorMatrix:
    """Generator of the time-derivative recursion.

    Real mode: ``2 m nu^2 Lap + V - (hbar^2/2m + 2 m nu^2) (Lap sqrt(rho))/sqrt(rho)``
    built from the stored density (which must exist).  Continued mode: the
    density term's coefficient vanishes identically and the matrix is the
    standard ``-(hbar^2/2m) Lap + V`` -- no wave solution needed.

    The matrix is tagged stationary when the stored density is static;
    the real-mode recursion requires that tag.
    """
    V = np.asarray(V, dtype=float)
    grid = space.grid
    if V.shape != (grid.n,):
        raise InputError("V must be a nodal field on the grid")
    Lap = closed_laplacian_matrix(grid.n, grid.dx)
    coeff = rho_term_coefficient(p)
    diag = np.zeros(grid.n)
    if p.is_real:
        if ws is None:
            raise InputError("real-mode Hamiltonian needs the wave solution")
        q, qmask = density_curvature(ws, t_index)
        if qmask.sum() < 5:
            raise EmptyMaskError(
                "density floor violated almost everywhere; the density term "
                "cannot be formed")
        q = np.where(qmask, q, 0.0)  # flat plateau outside the floor
        diag[1:-1] = (V - coeff.real * q)[1:-1]
        mat = 2.0 * p.m * p.nu_real ** 2 * Lap + np.diag(diag)
        stationary = _is_stationary(ws)
    else:
        diag[1:-1] = V[1:-1]
        mat = (-p.hbar ** 2 / (2.0 * p.m)) * Lap + np.diag(diag)
        stationary = True
    return OperatorMatrix(space, mat,
                          "hamiltonian",
                          meta={"stationary": stationary, "mode": p.mode,
                                "rho_coefficient": coeff})


def _is_stationary(ws: WaveSolution, tol: float = 1e-10) -> bool:
    if ws.n_times == 1:
        return True
    rho = np.exp(2.0 * ws.R)
    return float(np.max(np.abs(rho - rho[0]))) <= tol * float(rho.max())
