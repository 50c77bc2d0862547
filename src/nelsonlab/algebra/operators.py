"""Operator matrices on a grid: position, velocities, Hamiltonian.

Every operator is stored as its diagonals.  Those built here are diagonal
or tridiagonal and the recursion terms stay banded (order k has 2k + 1
diagonals), so ``commutator`` forms its products diagonal by diagonal, band
in and band out.  The exact Heisenberg conjugation is applied to states
(``evolution.heisenberg_action``); only ``heisenberg_operator``, kept for
the checks of a dense X(s), stores a full matrix, through ``from_dense``.

All differential operator matrices carry the hard-wall closure: exact
centered stencils on interior rows, zero entries in the boundary rows and
columns (states vanish at the walls, so boundary values neither evolve
nor feed back).  The closure zeroes the boundary rows on both sides of the
exact identities below, so their gaps are measured on every row; repeated
commutators develop finite-section artifacts in an ``O(order)``-node
corner layer, which tests exclude.

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
from functools import cached_property

import numpy as np

from ..errors import EmptyMaskError, InputError, UnsupportedConfigError
from ..fields.drift import DriftField
from ..fields.wave import WaveSolution
from ..finitediff import gradient, laplacian
from ..params import HBAR, MASS, DiffusionParams
from .spaces import WeightedSpace


@dataclass(frozen=True)
class OperatorMatrix:
    """Operator held as its diagonals, with the space it acts on and a
    provenance label.

    ``diagonals[k]`` is diagonal ``k`` in ``np.diagonal``'s convention:
    entry ``j`` is ``M[j, j + k]`` for ``k >= 0`` and ``M[j - k, j]`` for
    ``k < 0``, so it holds ``n - |k|`` values.  Stored offsets are kept in
    ascending order; offsets that are not stored are zero.
    """

    space: WeightedSpace
    diagonals: dict[int, np.ndarray]
    label: str = ""
    meta: dict | None = None

    def __post_init__(self):
        if not isinstance(self.diagonals, dict):
            raise InputError("diagonals must map offsets to arrays; build "
                             "from a dense matrix with from_dense")
        n = self.space.grid.n
        diags = {}
        for k in sorted(self.diagonals):
            if not isinstance(k, (int, np.integer)) or abs(k) >= n:
                raise InputError(f"offset {k!r} is not an integer inside "
                                 f"an {n}-node operator")
            d = np.asarray(self.diagonals[k])
            if d.shape != (n - abs(k),):
                raise InputError(f"diagonal {k} has shape {d.shape}, not "
                                 f"({n - abs(k)},)")
            if not np.all(np.isfinite(d)):
                raise InputError("operator entries must be finite")
            diags[int(k)] = d
        object.__setattr__(self, "diagonals", diags)

    @classmethod
    def from_dense(cls, space: WeightedSpace, m: np.ndarray,
                   label: str = "") -> OperatorMatrix:
        """The operator of the dense matrix ``m``: its main diagonal and
        every other diagonal that has a nonzero entry.

        ``m`` is copied once, read-only; that copy is the operator's
        ``matrix`` and the stored diagonals are views of it.  The copy is
        checked once and its nonzero diagonals found in one pass, so the
        per-diagonal checks of the constructor are not repeated."""
        m = np.asarray(m)
        m = m.astype(np.result_type(float, m))
        m.flags.writeable = False
        n = space.grid.n
        if m.shape != (n, n):
            raise InputError(f"operator shape {m.shape} does not match "
                             f"grid n={n}")
        if not np.isfinite(m).all():
            raise InputError("operator entries must be finite")
        # Row i of the column-reversed matrix, laid in rows of width 2n
        # and read back in rows of width 2n - 1, lands shifted right by i:
        # entry (i, j) goes to column n - 1 - (j - i), so column c holds
        # diagonal n - 1 - c.
        skew = np.zeros((n, 2 * n), bool)
        skew[:, :n] = m[:, ::-1] != 0
        nonzero = skew.reshape(-1)[:n * (2 * n - 1)].reshape(
            n, 2 * n - 1).any(axis=0)
        offsets = sorted({0, *(n - 1 - np.flatnonzero(nonzero)).tolist()})
        op = object.__new__(cls)
        # the fields as the constructor would set them, and the copy where
        # cached_property keeps ``matrix``
        op.__dict__.update(space=space, label=label, meta=None, matrix=m,
                           diagonals={k: np.diagonal(m, k) for k in offsets})
        return op

    def diagonal(self, k: int = 0) -> np.ndarray:
        """Diagonal ``k``; zeros when it is not stored."""
        d = self.diagonals.get(k)
        return np.zeros(self.space.grid.n - abs(k)) if d is None else d

    @cached_property
    def matrix(self) -> np.ndarray:
        """Read-only dense view, built from the diagonals on first use
        (``from_dense`` sets it to its copy of the dense matrix)."""
        n = self.space.grid.n
        m = np.zeros((n, n), np.result_type(float, *self.diagonals.values()))
        flat = m.reshape(-1)
        for k, d in self.diagonals.items():
            start = k if k >= 0 else -k * n
            flat[start:start + d.size * (n + 1):n + 1] = d
        m.flags.writeable = False
        return m

    def apply(self, f: np.ndarray) -> np.ndarray:
        """``M f`` for a nodal field: each diagonal scales a shifted slice
        of ``f``."""
        f = np.asarray(f)
        n = self.space.grid.n
        if f.shape != (n,):
            raise InputError(f"operand shape {f.shape} is not a nodal field "
                             f"of n={n}")
        out = np.zeros(n, np.result_type(f, *self.diagonals.values()))
        for k, d in self.diagonals.items():
            r, c = max(0, -k), max(0, k)
            out[r:r + d.size] += d * f[c:c + d.size]
        return out

    def __matmul__(self, f: np.ndarray) -> np.ndarray:
        return self.apply(f)


def _product(a: OperatorMatrix, b: OperatorMatrix) -> dict[int, np.ndarray]:
    """Diagonals of ``a b``: ``(ab)[i, i+p+q] += a[i, i+p] b[i+p, i+p+q]``,
    each sum taken over ``p`` in ascending order."""
    n = a.space.grid.n
    dtype = np.result_type(*a.diagonals.values(), *b.diagonals.values())
    out: dict[int, np.ndarray] = {}
    for p, da in a.diagonals.items():
        for q, db in b.diagonals.items():
            r = p + q
            if abs(r) >= n:
                continue
            if r not in out:
                out[r] = np.zeros(n - abs(r), dtype)
            # rows i where a[i, i+p], b[i+p, i+r] and (ab)[i, i+r] all exist;
            # diagonal k holds row i at index i - max(0, -k)
            i0, i1 = max(0, -p, -r), min(n, n - p, n - r)
            sa, sb, sr = max(0, -p), max(0, -q) - p, max(0, -r)
            out[r][i0 - sr:i1 - sr] += da[i0 - sa:i1 - sa] * db[i0 - sb:i1 - sb]
    return out


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """Commutator ``[a, b] = ab - ba``, formed diagonal by diagonal.

    Each product diagonal is a sum over the pairs of stored diagonals whose
    offsets add up to it, so the work is (diagonals of a) x (diagonals of b)
    x n, and the result has the diagonals the two products can reach.
    """
    if a.space.grid.n != b.space.grid.n:
        raise InputError("commutator operands act on different grids")
    ab, ba = _product(a, b), _product(b, a)
    return OperatorMatrix(a.space, {r: ab[r] - ba[r] for r in ab},
                          f"[{a.label}, {b.label}]")


def _scaled(c, bands: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """Every diagonal multiplied by the scalar ``c``."""
    return {k: c * d for k, d in bands.items()}


def _hard_wall_bands(n: int, lower: float, diag: float,
                     upper: float) -> dict[int, np.ndarray]:
    """Diagonals of the three-point stencil ``(lower, diag, upper)`` on the
    interior rows, with the hard-wall closure: boundary rows and columns
    are zero."""
    bands = {-1: np.zeros(n - 1), 0: np.zeros(n), 1: np.zeros(n - 1)}
    for k, value in zip((-1, 0, 1), (lower, diag, upper)):
        bands[k][1:-1] = value
    return bands


def closed_derivative_bands(n: int, dx: float) -> dict[int, np.ndarray]:
    """Centered first derivative with the hard-wall closure.

    Interior rows are the exact centered stencil; boundary rows and
    columns are zero, making the matrix exactly antisymmetric.
    """
    c = 0.5 / dx
    return _hard_wall_bands(n, -c, 0.0, c)


def closed_laplacian_bands(n: int, dx: float) -> dict[int, np.ndarray]:
    """Centered second derivative with the hard-wall closure (symmetric)."""
    inv = 1.0 / (dx * dx)
    return _hard_wall_bands(n, inv, -2.0 * inv, inv)


def averaging_bands(n: int) -> dict[int, np.ndarray]:
    """The discrete unit produced by centered-stencil commutators.

    Nearest-neighbor average on interior rows, with the hard-wall closure
    (no reach into boundary columns); zero boundary rows.  Equals
    ``[D, X]`` for the closed derivative exactly.
    """
    return _hard_wall_bands(n, 0.5, 0.0, 0.5)


def position_operator(space: WeightedSpace) -> OperatorMatrix:
    """Multiplication by the node coordinate."""
    return OperatorMatrix(space, {0: space.grid.x}, "position")


def velocity_operator(df: DriftField, p: DiffusionParams, space: WeightedSpace,
                      t: float = 0.0) -> OperatorMatrix:
    """Forward-velocity operator b(x,t) + 2 nu d/dx on the density-weighted space."""
    if not p.is_real:
        raise UnsupportedConfigError(
            "velocity_operator is a real-mode object; use "
            "mapped_velocity_operator on the continued branches")
    bands = _scaled(2.0 * p.nu_real,
                    closed_derivative_bands(space.grid.n, space.grid.dx))
    bands[0] = df.b_on_grid(t) + bands[0]
    return OperatorMatrix(space, bands, "velocity")


def mapped_velocity_operator(p: DiffusionParams, space: WeightedSpace
                             ) -> OperatorMatrix:
    """Gauge image of the velocity: 2 nu d/dx (pure derivative, any mode).

    On the continued branches this is ``+/- (i hbar / m) d/dx``, whose mass
    multiple is the momentum operator.
    """
    bands = closed_derivative_bands(space.grid.n, space.grid.dx)
    return OperatorMatrix(space, _scaled(2.0 * p.nu, bands), "mapped_velocity")


def momentum_operator(p: DiffusionParams, space: WeightedSpace) -> OperatorMatrix:
    """P = m * (mapped velocity) = +/- i hbar d/dx; minus branch is standard."""
    if p.is_real:
        raise UnsupportedConfigError("momentum is a continued-branch object")
    op = mapped_velocity_operator(p, space)
    return OperatorMatrix(space, _scaled(MASS, op.diagonals), "momentum")


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


def density_curvature(ws: WaveSolution, j: int = 0
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(Lap sqrt(rho)) / sqrt(rho) on the full grid, plus the usable mask.

    Computed from ``exp(R)`` with centered stencils on the full grid; the
    mask is the solution's phase mask at ``j`` (density above its floor),
    so callers can restrict assertions to trustworthy nodes.
    """
    sq = np.exp(ws.R[j])
    q = laplacian(sq, ws.grid.dx) / sq
    return q, ws.mask[j]


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
    coeff = HBAR ** 2 / (2.0 * MASS) + 2.0 * MASS * nu ** 2
    q, _ = density_curvature(ws, t_index)
    a_pot = (-gradient(V, grid.dx) + gradient(coeff * q, grid.dx)) / MASS
    return AccelerationFields(grid_x=grid.x, from_drift=a_drift,
                              from_potential=a_pot, mask=mask)


def rho_term_coefficient(p: DiffusionParams) -> complex:
    """``hbar^2/2m + 2 m nu^2``; exactly zero on the continued branches."""
    return HBAR ** 2 / (2.0 * MASS) + 2.0 * MASS * p.nu ** 2


def hamiltonian(ws: WaveSolution | None, p: DiffusionParams, V: np.ndarray,
                space: WeightedSpace) -> OperatorMatrix:
    """Generator of the time-derivative recursion.

    Real mode: ``2 m nu^2 Lap + V - (hbar^2/2m + 2 m nu^2) (Lap sqrt(rho))/sqrt(rho)``
    built from the first stored density (which must exist).  Continued
    mode: the density term's coefficient vanishes identically and the
    matrix is the standard ``-(hbar^2/2m) Lap + V`` -- no wave solution
    needed.

    The matrix is tagged stationary when the stored density is static;
    the real-mode recursion requires that tag.
    """
    V = np.asarray(V, dtype=float)
    grid = space.grid
    if V.shape != (grid.n,):
        raise InputError("V must be a nodal field on the grid")
    coeff = rho_term_coefficient(p)
    diag = np.zeros(grid.n)
    if p.is_real:
        if ws is None:
            raise InputError("real-mode Hamiltonian needs the wave solution")
        q, qmask = density_curvature(ws)
        if qmask.sum() < 5:
            raise EmptyMaskError(
                "density floor violated almost everywhere; the density term "
                "cannot be formed")
        q = np.where(qmask, q, 0.0)  # flat plateau outside the floor
        diag[1:-1] = (V - coeff.real * q)[1:-1]
        kinetic = 2.0 * MASS * p.nu_real ** 2
        stationary = _is_stationary(ws)
    else:
        diag[1:-1] = V[1:-1]
        kinetic = -HBAR ** 2 / (2.0 * MASS)
        stationary = True
    bands = _scaled(kinetic, closed_laplacian_bands(grid.n, grid.dx))
    bands[0] = bands[0] + diag
    return OperatorMatrix(space, bands, "hamiltonian",
                          meta={"stationary": stationary, "mode": p.mode,
                                "rho_coefficient": coeff})


def _is_stationary(ws: WaveSolution, tol: float = 1e-10) -> bool:
    if ws.n_times == 1:
        return True
    rho = np.exp(2.0 * ws.R)
    return float(np.max(np.abs(rho - rho[0]))) <= tol * float(rho.max())
