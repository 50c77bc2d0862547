"""The named checks of the verification suite.

Each check returns one or more CheckRecords.  ``fast`` checks are
deterministic identity/solver checks (seconds total); ``full`` adds the
seeded Monte Carlo checks (about 20 s at the default path count).  Every
Monte Carlo status comes from one rule, ``_mc_status``: too few samples, or
noise alone reaching the gate's limit, is inconclusive, never red.  Operator
identities are compared on their stored diagonals, every row included
(``_gap``); Monte Carlo SEs come from ``_pooled`` and ``_path_se``.

Three checks assert statements that cannot hold on any finite grid or at
any finite path count (see their docstrings); they are registered with
``known_unattainable`` so they report honestly without flipping the
aggregate, and each sits next to the exact or convergent form of the
same content, which must pass.
"""
from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from scipy.linalg import eigh_tridiagonal

from ..algebra import (averaging_bands, build_space,
                       commutator, correlation, gauge_map, hamiltonian,
                       heisenberg_action, heisenberg_operator,
                       mapped_velocity_operator,
                       momentum_operator, position_operator,
                       rho_term_coefficient, taylor_heisenberg,
                       time_derivative_recursion,
                       two_time_position_correlation, velocity_operator,
                       acceleration_function)
from ..algebra.operators import COMPARE_FLOOR
from ..errors import DomainError
from ..fields import (analytic_oracle, decompose, diffusion_params,
                      continue_to_imaginary, drift_fields,
                      evolve_density_fokker_planck, free_gaussian_variance,
                      ho_ground_density, ho_potential, l1_distance,
                      solve_schrodinger)
from ..fields.drift import DriftField, log_density_gradient
from ..fields.wave import WaveSolution
from ..finitediff import gradient
from ..grids import Grid1D
from ..params import HBAR, MASS
from ..sampler import (MIN_COUNT_ASSERT, Ensemble, density_histogram,
                       ensemble_steps, estimate_backward_drift,
                       estimate_forward_drift, estimate_mean_acceleration,
                       estimate_quadratic_variation, histogram_l1_distance,
                       sample_initial, simulate_ensemble)
from .config import ExperimentConfig
from .report import FAIL, INCONCLUSIVE, PASS, CheckRecord, digest


class CheckContext:
    """Shared lazily-computed inputs for the checks of one run: every
    member, space and operator that two checks use is built here once."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.cache: dict = {}
        self.artifacts: dict = {}

    # dyadic grid: binary-exact spacing makes the exact identities exact in
    # floating point too (all stencil entries are dyadic rationals)
    @property
    def dyadic_grid(self) -> Grid1D:
        return Grid1D(-8.0, 8.0, 1025)

    # the grid of every check that does not fix its own
    @property
    def grid(self) -> Grid1D:
        return Grid1D(-8.0, 8.0, 801)

    def memo(self, key, builder):
        if key not in self.cache:
            self.cache[key] = builder()
        return self.cache[key]

    def ho_ground(self, grid: Grid1D):
        return self.memo(("ho_ground", grid),
                         lambda: analytic_oracle("ho_ground", None, grid, [0.0]))

    def position(self, grid: Grid1D, kind: str) -> tuple:
        """``(space, X)``: the flat (``"L2"``) or the ground state's
        density-weighted (``"H_t"``) space on ``grid`` and its position
        operator.  Neither depends on the member, so every member on
        ``grid`` shares them."""
        def build():
            field = self.ho_ground(grid).rho(0) if kind == "H_t" else None
            space = build_space(grid, kind, field)
            return space, position_operator(space)
        return self.memo(("position", grid, kind), build)

    def continued(self, grid: Grid1D, sign: str) -> SimpleNamespace:
        """The continued member ``p`` on ``sign``'s branch, with the flat
        ``space`` on ``grid`` and its ``X``, ``P`` and oscillator ``H``."""
        def build():
            p = continue_to_imaginary(diffusion_params("nu", 0.5), sign)
            space, X = self.position(grid, "L2")
            return SimpleNamespace(
                p=p, space=space, X=X, P=momentum_operator(p, space),
                H=hamiltonian(None, p, ho_potential(grid.x), space))
        return self.memo(("continued", grid, sign), build)

    def weighted(self, grid: Grid1D, nu: float) -> SimpleNamespace:
        """The real member ``p`` at ``nu``, with the ground state's
        density-weighted ``space`` on ``grid`` and its ``X`` and
        oscillator ``H``."""
        def build():
            p = diffusion_params("nu", nu)
            ws = self.ho_ground(grid)
            space, X = self.position(grid, "H_t")
            return SimpleNamespace(
                p=p, space=space, X=X,
                H=hamiltonian(ws, p, ho_potential(grid.x), space))
        return self.memo(("weighted", grid, nu), build)

    def ou_drift(self, nu: float, grid: Grid1D | None = None) -> DriftField:
        grid = grid or self.grid
        p = diffusion_params("nu", nu)
        return self.memo(("ou_drift", nu, grid),
                         lambda: drift_fields(self.ho_ground(grid), p))

    def ou_ensemble(self, nu: float, dt: float, n_steps: int,
                    store_every: int = 1) -> Ensemble:
        """Ground-state-drift ensemble started from its stationary law."""
        def build():
            grid = self.grid
            p = diffusion_params("nu", nu)
            rho0 = ho_ground_density(grid.x)
            x0 = sample_initial(rho0, grid, self.cfg.sde.n_paths,
                                self.cfg.sde.seed)
            return simulate_ensemble(self.ou_drift(nu), x0, p, dt, n_steps,
                                     self.cfg.sde.seed,
                                     store_every=store_every)
        return self.memo(("ou_ensemble", nu, dt, n_steps, store_every,
                          self.cfg.sde.n_paths, self.cfg.sde.seed), build)

    def record(self, name, anchor, status, cause="", **fields) -> CheckRecord:
        """``cause``: why a Monte Carlo record is inconclusive, as
        ``_mc_status`` gives it; it leads the notes."""
        if cause:
            fields["notes"] = "; ".join(filter(None, (cause,
                                                      fields.get("notes"))))
        return CheckRecord(name=name, anchor=anchor, status=status,
                           inputs_digest=digest(self.cfg.digest_payload()),
                           **fields)


def _status(value: float, tol: float) -> str:
    return PASS if value < tol else FAIL


# noise alone gives a correct program a mean |deviation| of sqrt(2/pi) SE
_NOISE_PER_SE = np.sqrt(2 / np.pi)


def _mc_status(dev: float, count: int, se: float = 0.0,
               min_count: int = MIN_COUNT_ASSERT) -> tuple[str, str]:
    """The one Monte Carlo rule: (status, why it is inconclusive or "").
    ``dev``: the gate's worst deviation in units of its limit (|z|/3 for
    3-SE gates, value/tol for tolerance gates); ``count``: the samples
    behind it; ``se``: a tolerance gate's SE in the same units (zero for
    3-SE gates, whose limit is already 3 SE)."""
    expected = _NOISE_PER_SE * se
    if count < min_count:
        return INCONCLUSIVE, f"{count:.0f} samples, below {min_count}"
    if expected >= 1.0:
        return INCONCLUSIVE, f"noise alone is {expected:.3g} of the limit"
    return PASS if dev < 1.0 else FAIL, ""


def _worst(*devs) -> float:
    """Largest entry of the arrays; NaN if one is NaN or all are empty."""
    flat = np.concatenate([np.ravel(d) for d in devs])
    return float(flat.max()) if flat.size else np.nan


def _gap(a: dict, b: dict) -> float:
    """Largest ``|a - b|`` entry, on every row, of two operators given as
    their diagonals (an offset missing from one is zero there)."""
    return _worst(*(np.abs(a.get(k, 0.0) - b.get(k, 0.0))
                    for k in a.keys() | b.keys()))


def _pooled(tables, uses, axis):
    """Count-weighted estimate, SE (tables independent) and sample count
    of binned tables over their usable bins: per bin with ``axis=0``, over
    all with ``axis=None``; NaN estimate and SE where the count is 0."""
    use = np.array(uses)
    w = np.where(use, [t.counts for t in tables], 0)
    est = np.where(use, [t.estimate for t in tables], 0.0)
    se = np.where(use, [t.std_error for t in tables], 0.0)
    count = np.sum(w, axis)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (np.sum(est * w, axis) / count,
                np.sqrt(np.sum((se * w) ** 2, axis)) / count, count)


def _path_se(values: np.ndarray):
    """SE of the mean of a statistic taken once per independent path."""
    return values.std() / np.sqrt(values.size)


# --------------------------------------------------------------------------
# fast: parameterization, fields, solvers
# --------------------------------------------------------------------------

def check_family_parameterization(ctx: CheckContext):
    tol = 1e-12
    devs = []
    p0 = diffusion_params("beta", 0.0)
    devs.append(abs(p0.nu - 0.5))          # nu = hbar/2m at beta = 0
    devs.append(abs(p0.z - 1.0))
    p32 = diffusion_params("beta", 1.5)
    devs.append(abs(p32.z - 2.0))          # z = 1/sqrt(1 - 3/4) = 2
    devs.append(abs(p32.nu - 1.0))         # nu = z hbar/2m = 1
    rejected = False
    try:
        diffusion_params("beta", 2.0)
    except DomainError:
        rejected = True
    for nu in (0.5, 1.0, 2.0):
        p = diffusion_params("nu", nu)
        devs.append(abs(2.0 * p.nu / p.z - HBAR / MASS))
    for sign in ("minus", "plus"):
        pc = continue_to_imaginary(p0, sign)
        devs.append(abs(2.0 * pc.nu / pc.z - HBAR / MASS))
        devs.append(abs(pc.nu - (1j if sign == "plus" else -1j) * 0.5))
    worst = float(max(devs))
    ok = worst < tol and rejected
    return [ctx.record(
        "family_parameterization", "family-parameterization",
        PASS if ok else FAIL,
        measured={"max_relation_deviation": worst, "beta_2_rejected": rejected},
        reference={"beta=0": "nu = hbar/2m", "beta=1.5": "z = 2, nu = hbar/m",
                   "always": "2 nu / z = hbar / m"},
        tolerance=tol, oracle="closed forms of the parameter relations")]


def check_wave_decomposition(ctx: CheckContext):
    tol = 1e-8
    grid = ctx.grid
    ws = ctx.ho_ground(grid)
    R_exact = -grid.x ** 2 / 2 - 0.25 * np.log(np.pi)
    m = ws.mask[0]
    r_err = float(np.max(np.abs(ws.R[0] - R_exact)[m]))
    s_err = float(np.max(np.abs(ws.S[0][m])))
    rt = ws.roundtrip_error(0)
    # plane-wave phase winding: S - k x constant across many turns
    k = 5.0
    psi = np.exp(R_exact) * np.exp(1j * k * grid.x)
    R2, S2, m2 = decompose(psi)
    lin = S2[m2] - k * grid.x[m2]
    unwrap_err = float(np.ptp(lin))
    norm_dev = float(np.max(np.abs(ws.norms() - 1.0)))
    worst = max(r_err, s_err, rt, unwrap_err)
    notes = (f"R err {r_err:.2e}, S err {s_err:.2e}, roundtrip {rt:.2e}, "
             f"unwrap flatness {unwrap_err:.2e}, norm dev {norm_dev:.2e}")
    return [ctx.record(
        "wave_decomposition", "wave-decomposition",
        _status(max(worst, norm_dev / 1e-2), tol),
        measured={"max_deviation": worst, "norm_deviation": norm_dev},
        reference={"R": "-x^2/2 - ln(pi)/4", "S": "0 / k x + const"},
        tolerance=tol, oracle="ground-state closed form; plane-wave phase",
        notes=notes)]


def check_schrodinger_stationary(ctx: CheckContext):
    # the sampled analytic state mixes O(dx^2) of higher discrete modes,
    # whose beating bounds the density drift; dx = 0.0025 puts it ~4e-7
    tol = 1e-6
    grid = Grid1D(-8.0, 8.0, 6401)
    ws0 = ctx.ho_ground(grid)
    sol = solve_schrodinger(ho_potential(grid.x), ws0.psi[0], grid, 1e-3,
                            1000, store_every=100)
    dens_err = float(np.max(np.abs(np.abs(sol.psi[-1]) ** 2
                                   - np.abs(sol.psi[0]) ** 2)))
    norms = sol.norms()
    norm_drift = float(np.max(np.abs(np.diff(norms)))) / 100.0  # per step
    ok = dens_err < tol and norm_drift < 1e-12
    return [ctx.record(
        "schrodinger_stationary", "schrodinger-dynamics",
        PASS if ok else FAIL,
        measured={"density_Linf_drift_T=1": dens_err,
                  "norm_drift_per_step": norm_drift},
        reference={"density": "static", "norm": "conserved"},
        tolerance=tol, oracle="stationary ground state",
        notes=f"unitarity drift/step {norm_drift:.2e}")]


def check_free_packet_spreading(ctx: CheckContext):
    tol = 5e-3
    grid = Grid1D(-16.0, 16.0, 1601)
    ws = analytic_oracle("free_gaussian", {"sigma0": 1.0}, grid, [0.0])
    sol = solve_schrodinger(np.zeros(grid.n), ws.psi[0], grid, 1e-3, 1000,
                            store_every=1000)
    rho = np.abs(sol.psi[-1]) ** 2
    var = float(grid.trapezoid(grid.x ** 2 * rho))
    ref = free_gaussian_variance(1.0, 1.0)
    rel = abs(var - ref) / ref
    return [ctx.record(
        "free_packet_spreading", "schrodinger-dynamics", _status(rel, tol),
        measured={"variance_T=1": var, "relative_error": rel},
        reference={"variance": ref}, tolerance=tol,
        oracle="free-packet spreading law sigma0^2 (1 + (t/2 sigma0^2)^2)")]


def check_drift_closed_forms(ctx: CheckContext):
    tol = 1e-10
    grid = ctx.grid
    ws = ctx.ho_ground(grid)
    # erode the mask so the closed forms are compared away from the clamp
    # plateau at the mask edges (where R flattens by construction)
    m = ws.mask[0]
    interior = m & np.roll(m, 2) & np.roll(m, -2)
    interior[:2] = interior[-2:] = False
    devs = {}
    dR = gradient(ws.R[0], grid.dx)
    bs = {}
    for nu in (0.5, 1.0, 2.0):
        p = diffusion_params("nu", nu)
        df = drift_fields(ws, p)
        devs[f"b_nu={nu}"] = float(np.max(np.abs(
            df.b[0] + 2 * nu * grid.x)[interior]))
        devs[f"b_star_nu={nu}"] = float(np.max(np.abs(
            df.b_star[0] - 2 * nu * grid.x)[interior]))
        # osmotic identity is exact by construction
        osm = (df.b[0] - df.b_star[0]) / 2 - nu * log_density_gradient(ws, 0)
        devs[f"osmotic_nu={nu}"] = float(np.max(np.abs(osm)))
        bs[nu] = df.b[0]
    # scaling: b(nu2) - b(nu1) = 2 (nu2 - nu1) dR exactly
    devs["scaling"] = float(np.max(np.abs(bs[2.0] - bs[0.5]
                                          - 2 * 1.5 * dR)))
    # plane-wave phase adds (hbar/m) k to b, independent of nu
    k = 3.0
    psi_k = ws.psi[0] * np.exp(1j * k * grid.x)
    ws_k = WaveSolution(grid, [0.0], psi_k)
    for nu in (0.5, 2.0):
        p = diffusion_params("nu", nu)
        bk = drift_fields(ws_k, p).b[0]
        b0 = bs[nu]
        devs[f"current_part_nu={nu}"] = float(np.max(np.abs(
            (bk - b0 - k))[interior]))
    worst = float(max(devs.values()))
    return [ctx.record(
        "drift_closed_forms", "drift-definition", _status(worst, tol),
        measured=devs, reference={"b": "-2 nu x", "b_star": "+2 nu x",
                                  "current": "+ (hbar/m) k"},
        tolerance=tol, oracle="ground-state and plane-wave closed forms",
        notes="osmotic/scaling identities hold by construction")]


def check_fokker_planck_forward(ctx: CheckContext):
    # stationarity residual of the flux scheme is O(dx^2); dx = 0.002
    # leaves ~6e-7 of L1 drift per unit time against the 1e-6 bound
    tol = 1e-6
    grid = Grid1D(-8.0, 8.0, 8001)
    nu = 0.5
    df = ctx.ou_drift(nu, grid)
    rho0 = ho_ground_density(grid.x)
    rho0 = rho0 / grid.trapezoid(rho0)
    ev = evolve_density_fokker_planck(df, rho0, 1e-3, 1000, store_every=1000)
    stat_l1 = l1_distance(grid, ev.final(), rho0)
    mass_drift = float(np.max(np.abs(ev.masses() - ev.masses()[0])))
    # pure diffusion: variance grows by 2 nu t
    flat_b = DriftField(grid=grid, times=np.array([0.0]),
                        b=np.zeros((1, grid.n)), b_star=np.zeros((1, grid.n)),
                        params=diffusion_params("nu", nu), provenance="b=0")
    sig0 = 0.5
    g0 = np.exp(-grid.x ** 2 / (2 * sig0 ** 2)) / np.sqrt(2 * np.pi * sig0 ** 2)
    g0 = g0 / grid.trapezoid(g0)
    T = 0.5
    ev2 = evolve_density_fokker_planck(flat_b, g0, 1e-3, 500, store_every=500)
    var = float(grid.trapezoid(grid.x ** 2 * ev2.final())
                - grid.trapezoid(grid.x * ev2.final()) ** 2)
    var_ref = sig0 ** 2 + 2 * nu * T
    var_rel = abs(var - var_ref) / var_ref
    ok = stat_l1 < tol and mass_drift < 1e-10 and var_rel < 1e-3
    return [ctx.record(
        "fokker_planck_forward", "forward-equation",
        PASS if ok else FAIL,
        measured={"stationary_L1_per_unit_time": stat_l1,
                  "mass_drift": mass_drift,
                  "pure_diffusion_variance_rel_err": var_rel},
        reference={"stationary": "unchanged", "variance_growth": "2 nu t"},
        tolerance=tol,
        oracle="stationary density of the linear-drift process; diffusion law",
        notes=f"conservation to {mass_drift:.1e}")]


# --------------------------------------------------------------------------
# fast: operator algebra
# --------------------------------------------------------------------------

def _random_fields(n, count, seed=7, complex_fields=False):
    g = np.random.default_rng(seed)
    if complex_fields:
        return [g.standard_normal(n) + 1j * g.standard_normal(n)
                for _ in range(count)]
    return [g.standard_normal(n) for _ in range(count)]


def check_commutator_exact(ctx: CheckContext):
    """[velocity, X] = 2 nu A exactly (A = discrete averaging unit)."""
    tol = 1e-12
    grid = ctx.dyadic_grid
    A = averaging_bands(grid.n)
    devs = {}
    for nu in (0.5, 1.0, 2.0):
        m = ctx.weighted(grid, nu)
        vel = velocity_operator(ctx.ou_drift(nu, grid), m.space)
        devs[f"nu={nu}"] = _gap(commutator(vel, m.X).diagonals,
                                {k: 2 * nu * d for k, d in A.items()})
        devs[f"[X,X]_nu={nu}"] = _gap(commutator(m.X, m.X).diagonals, {})
    worst = float(max(devs.values()))
    return [ctx.record(
        "commutator_exact", "commutation-rules", _status(worst, tol),
        measured=devs,
        reference={"identity": "[velocity, X] = 2 nu A with A the "
                               "neighbor-average unit; [X, X] = 0"},
        tolerance=tol, oracle="exact matrix identity on a dyadic grid",
        notes="A acts as the identity at second order on smooth fields")]


def check_commutator_pointwise_literal(ctx: CheckContext):
    """Literal pointwise form ([v,X]f)_i = 2 nu f_i on random fields.

    Unattainable on any finite grid: for X = diag(x), every commutator
    [M, X] has entries M_ij (x_j - x_i), which vanish on the diagonal, so
    the coefficient of f_i in ([M,X]f)_i is exactly zero and the residual
    against 2 nu f_i is 2 nu |f_i| at unit scale.  The exact discrete
    statement is the companion check (residual against 2 nu A f, which is
    zero to machine precision; A f - f = (dx^2/2) f'' on smooth fields).
    """
    tol = 1e-12
    grid = ctx.grid
    m = ctx.weighted(grid, 0.5)
    C = commutator(velocity_operator(ctx.ou_drift(0.5, grid), m.space), m.X)
    two_nu = 2 * m.p.nu_real
    worst = max(float(np.max(np.abs((C @ f - two_nu * f)[1:-1])))
                for f in _random_fields(grid.n, 20))
    smooth = np.exp(-grid.x ** 2 / 4) * np.sin(2 * grid.x)
    smooth_resid = float(np.max(np.abs((C @ smooth - two_nu * smooth)[1:-1])))
    return [ctx.record(
        "commutator_pointwise_literal", "commutation-rules",
        _status(worst, tol), known_unattainable=True,
        measured={"max_residual_random_fields": worst,
                  "residual_smooth_field": smooth_resid},
        reference={"stated": "< 1e-12 pointwise on random fields"},
        tolerance=tol, oracle="n/a (see notes)",
        notes="no finite matrix pair can satisfy [M, diag(x)] = c*1: the "
              "commutator diagonal vanishes entrywise; residual is O(|f|) "
              "for rough fields and nu dx^2 |f''| for smooth ones "
              f"(= {smooth_resid:.1e} here); the exact discrete identity "
              "is verified at machine precision by commutator_exact")]


def check_canonical_algebra(ctx: CheckContext):
    tol = 1e-12
    grid = ctx.dyadic_grid
    A = averaging_bands(grid.n)
    devs = {}
    for sign in ("minus", "plus"):
        c = ctx.continued(grid, sign)
        pc, P = c.p, c.P
        want = 1j * HBAR if sign == "minus" else -1j * HBAR
        devs[f"[X,P]-{sign}"] = _gap(commutator(c.X, P).diagonals,
                                     {k: want * d for k, d in A.items()})
        coeff = rho_term_coefficient(pc)
        devs[f"rho_coefficient_{sign}"] = abs(coeff)
        # z * (S/z) = S: the fixed phase is branch independent
        S = np.sin(grid.x)
        devs[f"phase_invariant_{sign}"] = float(np.max(np.abs(
            pc.z * (S / pc.z) - S)))
        mv = mapped_velocity_operator(pc, c.space)
        devs[f"P=m*mapped_{sign}"] = _gap(P.diagonals, {
            k: MASS * d for k, d in mv.diagonals.items()})
        # momentum is exactly hermitian in the flat space
        devs[f"P_hermitian_{sign}"] = _gap(P.diagonals, {
            -k: d.conj() for k, d in P.diagonals.items()})
    worst = float(max(devs.values()))
    return [ctx.record(
        "canonical_algebra", "continuation-algebra", _status(worst, tol),
        measured=devs,
        reference={"[X,P]": "+i hbar A on the minus branch",
                   "rho_coefficient": "exactly 0", "z*(S/z)": "S"},
        tolerance=tol,
        oracle="exact matrix identities; exact cancellation of the "
               "density-term coefficient")]


def check_canonical_pointwise_literal(ctx: CheckContext):
    """Literal ([X,P]f)_i = i hbar f_i on random fields; see the commutator
    twin for why this cannot hold in finite dimensions."""
    tol = 1e-12
    grid = ctx.grid
    c = ctx.continued(grid, "minus")
    C = commutator(c.X, c.P)
    worst = max(float(np.max(np.abs((C @ f - 1j * HBAR * f)[1:-1])))
                for f in _random_fields(grid.n, 20, complex_fields=True))
    coeff = abs(rho_term_coefficient(c.p))
    return [ctx.record(
        "canonical_pointwise_literal", "continuation-algebra",
        _status(worst, tol), known_unattainable=True,
        measured={"max_residual_random_fields": worst,
                  "rho_coefficient": coeff},
        reference={"stated": "< 1e-12 pointwise on random fields;"
                             " coefficient exactly 0"},
        tolerance=tol, oracle="n/a (see notes)",
        notes="same diagonal obstruction as the real-mode commutator; the "
              "exact discrete form [X, P] = i hbar A passes at machine "
              "precision (canonical_algebra), and the coefficient clause "
              f"holds exactly ({coeff:.1f})")]


_TMAP_BLOCK = 32   # nodes per block of unit vectors in tmap_unitarity


def _tmap_fields(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``tmap_unitarity``'s fields on n nodes, as rows: ``blocks`` (row r
    sums the unit vectors of nodes ``32 r, ..., 32 r + 31``) and ``combs``
    (row s sums i times those of the nodes equal to s mod 32)."""
    node = np.arange(n)
    blocks = (node // _TMAP_BLOCK
              == np.arange(-(-n // _TMAP_BLOCK))[:, None]).astype(float)
    combs = 1j * (node % _TMAP_BLOCK == np.arange(_TMAP_BLOCK)[:, None])
    return blocks, combs


def _gram(space, f: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``space.inner(f[r], h[s])`` for every row pair (r, s)."""
    return (np.conj(f) * space.weight) @ h.T * space.grid.dx


def check_tmap_unitarity(ctx: CheckContext):
    """The gauge map is an isometry, node by node, with no random field.

    Each row of ``_tmap_fields``' blocks meets each row of its combs in at
    most one node, so entry (r, s) of their Gram matrix is that one node's
    weight times ``i dx``: its entries (26 x 32 on 801 nodes) test the
    identity ``(f, h) = (Tf, Th)`` at every node, weight for weight.
    """
    tol = 1e-10
    grid = ctx.grid
    states = {
        "ho_ground(t=0.3)": analytic_oracle("ho_ground", None, grid, [0.3]),
        "ho_coherent(t=0.7)": analytic_oracle("ho_coherent", {"x0": 1.0},
                                              grid, [0.7]),
    }
    plist = [diffusion_params("nu", 0.5), diffusion_params("nu", 2.0),
             ctx.continued(grid, "minus").p, ctx.continued(grid, "plus").p]
    blocks, combs = _tmap_fields(grid.n)
    worst = 0.0
    details = {}
    for sname, ws in states.items():
        Ht = build_space(grid, "H_t", ws.rho(0))
        lhs = _gram(Ht, blocks, combs)
        for p in plist:
            It = build_space(grid, "I_t", ws.S[0], p)
            rhs = _gram(It, gauge_map(blocks, ws.R[0], ws.S[0], p),
                        gauge_map(combs, ws.R[0], ws.S[0], p))
            dev = float(np.max(np.abs(lhs - rhs)))
            details[f"{sname},{p.mode},nu={p.nu:g}"] = dev
            worst = max(worst, dev)
    # f = 1 maps to sqrt(rho) when the phase vanishes
    ws0 = ctx.ho_ground(grid)
    p0 = diffusion_params("nu", 1.0)
    t1 = gauge_map(np.ones(grid.n), ws0.R[0], ws0.S[0], p0)
    sq_dev = float(np.max(np.abs(t1 - np.exp(ws0.R[0]))))
    worst = max(worst, sq_dev)
    return [ctx.record(
        "tmap_unitarity", "isometry-map", _status(worst, tol),
        measured={"max_inner_product_gap": worst,
                  "unit_maps_to_sqrt_rho": sq_dev},
        reference={"identity": "(f,g) density-weighted = ((Tf,Tg)) gauge image"},
        tolerance=tol,
        oracle="pointwise weight cancellation (every node's unit vector "
               "against its i-multiple, in blocks of 32)",
        notes="; ".join(f"{k}: {v:.1e}" for k, v in list(details.items())[:4]))]


def check_recursion_velocity(ctx: CheckContext):
    tol = 1e-12
    grid = ctx.dyadic_grid
    members = {**{f"nu={nu}": ctx.weighted(grid, nu)
                  for nu in (0.5, 1.0, 2.0)},
               **{sign: ctx.continued(grid, sign)
                  for sign in ("minus", "plus")}}
    devs = {}
    for name, m in members.items():
        X1 = time_derivative_recursion(m.X, m.H, m.p, 1)[0]
        devs[name] = _gap(X1.diagonals,
                          mapped_velocity_operator(m.p, m.space).diagonals)
    worst = float(max(devs.values()))
    return [ctx.record(
        "recursion_velocity", "hamiltonian-recursion", _status(worst, tol),
        measured=devs,
        reference={"identity": "[H, X] / (2 m nu) = 2 nu d/dx on interior rows"},
        tolerance=tol, oracle="exact matrix identity on a dyadic grid",
        notes="continued branches: kinetic sign fixed by recursion "
              "consistency")]


def check_acceleration_identity(ctx: CheckContext):
    tol = 5e-3
    ratio_min = 3.5
    results = {}
    worst = 0.0
    worst_ratio = np.inf
    for nu in (0.5, 1.0):
        p = diffusion_params("nu", nu)
        gaps = {}
        for n in (801, 1601):
            grid = Grid1D(-8.0, 8.0, n)
            acc = acceleration_function(ctx.ho_ground(grid), p,
                                        ho_potential(grid.x))
            gaps[n] = acc.max_gap()
        results[f"gap_dx=0.02_nu={nu}"] = gaps[801]
        ratio = gaps[801] / gaps[1601]
        results[f"refinement_ratio_nu={nu}"] = ratio
        worst = max(worst, gaps[801])
        worst_ratio = min(worst_ratio, ratio)
    # closed-form spot value at nu = 0.5: acceleration(x) = x
    grid = ctx.grid
    acc = acceleration_function(ctx.ho_ground(grid),
                                diffusion_params("nu", 0.5),
                                ho_potential(grid.x))
    i = int(np.argmin(np.abs(grid.x - 1.0)))
    spot = abs(acc.from_drift[i] - 1.0)
    results["spot_|a(1)-1|_nu=0.5"] = spot
    ok = worst < tol and worst_ratio >= ratio_min and spot < 1e-8
    return [ctx.record(
        "acceleration_identity", "acceleration-forms",
        PASS if ok else FAIL, measured=results,
        reference={"gap": f"< {tol} at dx=0.02 on the rho > 1e-3*max mask",
                   "ratio": ">= 3.5 (O(dx^2))", "a(1)": "1 at nu=0.5"},
        tolerance=tol,
        oracle="symbolic evaluation: both forms reduce to x for the "
               "ground state at nu = 1/2",
        notes=f"comparison mask floor {COMPARE_FLOOR:g} (relative); tails "
              "excluded because d2/dx2 of log-density amplifies truncation "
              "error")]


def check_hamiltonian_spectrum(ctx: CheckContext):
    tol = 1e-4
    H = ctx.continued(ctx.grid, "minus").H
    lam = eigh_tridiagonal(H.diagonal(0)[1:-1], H.diagonal(1)[1:-1],
                           eigvals_only=True, select="i", select_range=(0, 1))
    err0 = abs(lam[0] - 0.5)
    err1 = abs(lam[1] - 1.5)
    return [ctx.record(
        "hamiltonian_spectrum", "hamiltonian-recursion",
        _status(max(err0, err1), tol),
        measured={"lowest_eigenvalue": float(lam[0]),
                  "second_eigenvalue": float(lam[1])},
        reference={"spectrum": "(n + 1/2) hbar omega"}, tolerance=tol,
        oracle="textbook oscillator spectrum")]


def check_heisenberg_taylor(ctx: CheckContext):
    """Order-10 Taylor vs exact conjugation, on spectrally resolved grids.

    The order-k truncation of exp(i ad_H s) tracks the exponential only
    while |s| * (spectral diameter of H) stays below ~k; on a fine grid
    the kinetic eigenvalues ~ 1/dx^2 put the high end of the ad-spectrum
    far beyond any fixed order (measured gap ~ 1e10 at dx = 0.02), so the
    comparison is made where it is mathematically meaningful, on grids
    whose full spectrum is order-resolvable at s = 0.1.
    """
    tol = 1e-8
    devs = {}
    for n in (25, 31):
        c = ctx.continued(Grid1D(-6.0, 6.0, n), "minus")
        X, H, pc = c.X, c.H, c.p
        T10 = taylor_heisenberg(X, H, 0.1, 10, pc)
        E = heisenberg_operator(X, H, 0.1, pc)
        devs[f"n={n}"] = _gap(T10.diagonals, E.diagonals)
        if n == 25:
            z = taylor_heisenberg(X, H, 0.0, 0, pc)
            devs["order0_is_X"] = _gap(z.diagonals, X.diagonals)
            e0 = heisenberg_operator(X, H, 0.0, pc)
            devs["s=0_is_X"] = _gap(e0.diagonals, X.diagonals)
    worst = float(max(devs.values()))
    return [ctx.record(
        "heisenberg_taylor", "taylor-evolution", _status(worst, tol),
        measured=devs,
        reference={"gap": "< 1e-8 at order 10, s = 0.1"},
        tolerance=tol, oracle="exact conjugation by eigendecomposition",
        notes="grids chosen so the full spectral diameter is resolvable "
              "at order 10; see docstring for the fine-grid obstruction")]


def _smooth_test_states(grid: Grid1D):
    """Normalized Gaussian packets spanning the trapped phase space."""
    out = []
    for x0, k0 in ((0.0, 0.0), (-1.5, 0.0), (1.0, 1.0), (0.5, -2.0),
                   (-0.5, 1.5), (1.5, 0.5)):
        psi = np.exp(-(grid.x - x0) ** 2 / 2.0) * np.exp(1j * k0 * grid.x)
        psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx)
        out.append(psi)
    return out


def check_heisenberg_closed_form(ctx: CheckContext):
    """X(s) vs X cos(s) + P sin(s) for the oscillator, in action on states.

    Raw entrywise comparison of the two matrices is not a convergent
    statement (the momentum kernel is a discretized derivative of a delta
    function, and box states above the wall height do not follow the
    oscillator closure), so the gap is measured in action on normalized
    smooth packets supported away from the walls, where it is O(dx^2).
    """
    tol = 5e-3
    grid = ctx.grid
    c = ctx.continued(grid, "minus")
    X, P = c.X, c.P
    states = _smooth_test_states(grid)
    lags = (0.1, 1.0)
    evolved = heisenberg_action(X, c.H, lags, c.p, states)
    devs = {}
    for s, moved in zip(lags, evolved):
        devs[f"s={s}"] = max(float(np.max(np.abs(
            got - (X.apply(psi) * np.cos(s) + P.apply(psi) * np.sin(s)))))
            for got, psi in zip(moved, states))
    worst = float(max(devs.values()))
    return [ctx.record(
        "heisenberg_closed_form", "exponential-evolution",
        _status(worst, tol), measured=devs,
        reference={"identity": "X(s) = X cos s + P sin s in action on "
                               "trapped smooth states"},
        tolerance=tol, oracle="oscillator ladder closed form",
        notes="measured in action on 6 normalized Gaussian packets; raw "
              "entrywise max-norm is dominated by wall states and the "
              "delta-prime kernel of P (O(10) at any dx)")]


def check_recursion_closed_forms(ctx: CheckContext):
    tol = 5e-3    # the O(dx^2) action gaps; X^1 = P/m is exact, to 1e-10
    grid = ctx.grid
    c = ctx.continued(grid, "minus")
    X, pc = c.X, c.p
    states = _smooth_test_states(grid)
    devs = {}
    # free particle: X^1 = P/m, X^2 = 0
    H0 = hamiltonian(None, pc, np.zeros(grid.n), c.space)
    X1, X2 = time_derivative_recursion(X, H0, pc, 2)
    devs["free_X1_vs_P/m"] = _gap(X1.diagonals, {
        k: d / MASS for k, d in c.P.diagonals.items()})
    devs["free_X2"] = max(float(np.max(np.abs(X2.apply(psi))))
                          for psi in states)
    # oscillator: X^2 = -X in action
    _, X2h = time_derivative_recursion(X, c.H, pc, 2)
    devs["ho_X2_plus_X"] = max(float(np.max(np.abs(
        X2h.apply(psi) + X.apply(psi)))) for psi in states)
    # real mode, ground state: X^2 = multiplication by the acceleration field
    r = ctx.weighted(grid, 0.5)
    _, X2r = time_derivative_recursion(r.X, r.H, r.p, 2)
    acc = acceleration_function(ctx.ho_ground(grid), r.p, ho_potential(grid.x))
    mult = np.where(acc.mask, acc.from_drift, 0.0)
    devs["real_X2_vs_acceleration"] = max(float(np.max(np.abs(
        X2r.apply(psi) - mult * psi)[acc.mask])) for psi in states)
    worst = max(v for k, v in devs.items() if k != "free_X1_vs_P/m")
    return [ctx.record(
        "recursion_closed_forms", "hamiltonian-recursion",
        _status(max(devs["free_X1_vs_P/m"] / 1e-10, worst / tol), 1.0),
        measured=devs,
        reference={"free": "X^1 = P/m, X^2 = 0", "oscillator": "X^2 = -X",
                   "real ground state": "X^2 = multiplication by the "
                                        "acceleration field"},
        tolerance=tol, oracle="commutator closed forms, in action on "
                              "smooth trapped states",
        notes="X^1 = P/m is an exact identity, held to 1e-10")]


def check_equal_time_value(ctx: CheckContext):
    """(X X) = 1/2 on the ground state, from theta = exp(R) (real mode)
    and psi = exp(R + iS) (continued branches).

    Neither state nor X carries nu or the branch sign, so each value is
    computed once and stands for every family member and both branches.
    """
    tol = 1e-6
    ws = ctx.ho_ground(ctx.grid)
    c = ctx.continued(ctx.grid, "minus")
    XX = [c.X, c.X]
    real = correlation(c.space.normalize(np.exp(ws.R[0])), XX, c.space)
    continued = correlation(_flat_state(ws, c.space), XX, c.space)
    devs = {"real": abs(real - 0.5), "continued": abs(continued - 0.5),
            "imag": abs(continued.imag)}
    worst = float(max(devs.values()))
    return [ctx.record(
        "equal_time_value", "measurable-statistics", _status(worst, tol),
        measured=devs,
        reference={"value": 0.5, "property": "real and identical across all "
                                             "family members and branches"},
        tolerance=tol, oracle="stationary variance hbar/2 m omega")]


def _flat_state(ws: WaveSolution, space) -> np.ndarray:
    """``psi = exp(R + iS)`` at the first stored time, normalized in the
    flat ``space``."""
    return space.normalize(np.exp(ws.R[0] + 1j * np.where(
        np.isnan(ws.S[0]), 0.0, ws.S[0])))


def _hamiltonian_two_time(ws: WaveSolution, c, lags) -> np.ndarray:
    """``(psi, X(s) X psi)`` at each lag through ``heisenberg_action`` on
    the oscillator ``H`` of the continued bundle ``c``, with ``psi`` the
    flat state of ``ws``: a route that shares nothing with the stationary
    generator."""
    psi = _flat_state(ws, c.space)
    evolved = heisenberg_action(c.X, c.H, lags, c.p, [c.X.apply(psi)])
    return np.sum(np.conj(psi) * evolved[:, 0], axis=-1) * ws.grid.dx


def check_continued_two_time(ctx: CheckContext):
    """Both continued members of the one-formula two-time element against
    the oscillator ladder, against each other (the branches are
    conjugates), and against the Hamiltonian route, which reuses the
    eigensystem that ``heisenberg_closed_form`` leaves on the same H.  The
    two routes differ by O(dx^2)."""
    tol = 5e-3
    ws = ctx.ho_ground(ctx.grid)
    minus, plus = (ctx.continued(ctx.grid, sign) for sign in ("minus", "plus"))
    lags = (0.25, 0.5, 1.0)
    devs = {}
    curve = []
    for s, cm, cp, hm, hp in zip(
            lags, two_time_position_correlation(ws, minus.p, lags),
            two_time_position_correlation(ws, plus.p, lags),
            _hamiltonian_two_time(ws, minus, lags),
            _hamiltonian_two_time(ws, plus, lags)):
        cm, cp = complex(cm), complex(cp)
        ref = 0.5 * np.exp(-1j * s)
        devs[f"s={s}"] = abs(cm - ref)
        devs[f"branch_conjugacy_s={s}"] = abs(cp - np.conj(cm))
        devs[f"route_gap_minus_s={s}"] = abs(cm - hm)
        devs[f"route_gap_plus_s={s}"] = abs(cp - hp)
        curve.append((s, cm))
    worst = float(max(devs.values()))
    ctx.artifacts["continued_two_time_curve"] = {
        "kind": "correlation_curve",
        "columns": ["s", "matrix_element_re", "matrix_element_im",
                    "reference_re", "reference_im"],
        "rows": [[s, c.real, c.imag, (0.5 * np.exp(-1j * s)).real,
                  (0.5 * np.exp(-1j * s)).imag] for s, c in curve],
    }
    return [ctx.record(
        "continued_two_time", "path-correlation-formula",
        _status(worst, tol), measured=devs,
        reference={"value": "0.5 exp(-i s) on the minus branch; branches "
                            "are complex conjugates; the stationary "
                            "generator at nu = -/+ i hbar/2m equals the "
                            "Hamiltonian route up to O(dx^2)"},
        tolerance=tol, oracle="oscillator ladder two-point function; "
                              "heisenberg_action on H(V)")]


# --------------------------------------------------------------------------
# full: Monte Carlo
# --------------------------------------------------------------------------

def _pooled_qvar(ctx, nu, dt, n_steps, j_lo, j_hi):
    """Pooled estimate over usable bins, its SE (steps independent), count."""
    e = ctx.ou_ensemble(nu, dt, n_steps)
    tabs = [estimate_quadratic_variation(e, j, bins=32)
            for j in range(j_lo, j_hi)]
    return _pooled(tabs, [t.counts >= MIN_COUNT_ASSERT for t in tabs], None)


def check_qvar_recovery(ctx: CheckContext):
    tol = 0.02
    tol_rich = 0.005
    devs = {}
    count, noise = np.inf, 0.0       # noise: worst SE in units of its limit
    for nu in (0.5, 1.0):
        est1, se1, n1 = _pooled_qvar(ctx, nu, 1e-3, 40, 5, 35)
        est2, se2, n2 = _pooled_qvar(ctx, nu, 5e-4, 80, 10, 70)
        count = min(count, n1, n2)
        noise = max(noise, se1 / (2 * nu) / tol,
                    np.hypot(2 * se2, se1) / (2 * nu) / tol_rich)
        rel1 = abs(est1 - 2 * nu) / (2 * nu)
        extrap = 2 * est2 - est1
        rel_r = abs(extrap - 2 * nu) / (2 * nu)
        devs[f"estimate_nu={nu}"] = est1
        devs[f"relative_error_nu={nu}"] = rel1
        devs[f"richardson_nu={nu}"] = extrap
        devs[f"richardson_rel_error_nu={nu}"] = rel_r
    worst = max(v for k, v in devs.items() if k.startswith("relative"))
    worst_r = max(v for k, v in devs.items() if k.startswith("richardson_rel"))
    return [ctx.record(
        "qvar_recovery", "quadratic-variation",
        *_mc_status(max(worst / tol, worst_r / tol_rich), count, noise),
        measured=devs, reference={"value": "2 nu",
                                  "richardson": "O(dt) bias removed"},
        tolerance=tol, oracle="defining variance of the noise; "
                              "step-halving extrapolation",
        notes=f"occupancy-weighted over usable bins (>= {MIN_COUNT_ASSERT})")]


def check_drift_recovery(ctx: CheckContext):
    """Binned forward/backward drift estimates vs the generating fields."""
    nu = 0.5
    dt = 0.01
    e = ctx.ou_ensemble(nu, dt, 40)
    edges = np.arange(-3.4, 3.401, 0.4)
    slices = (10, 20, 30)
    kw = dict(bins=edges, min_count=MIN_COUNT_ASSERT)
    fs = [estimate_forward_drift(e, j, **kw) for j in slices]
    bs = [estimate_backward_drift(e, j, **kw) for j in slices]
    uses = [f.usable & b.usable for f, b in zip(fs, bs)]
    fwd, se_f, wsum = _pooled(fs, uses, 0)
    bwd, se_b, _ = _pooled(bs, uses, 0)
    counts = sum(f.counts for f in fs)
    hists = sum(density_histogram(e, j, bins=edges)[1] / len(slices)
                for j in slices)
    use = wsum > 0
    centers = 0.5 * (edges[:-1] + edges[1:])
    fwd, bwd, se_f, se_b = fwd[use], bwd[use], se_f[use], se_b[use]
    x = centers[use]
    dev_f = np.abs(fwd - (-2 * nu * x)) / (3 * se_f)
    dev_b = np.abs(bwd - (+2 * nu * x)) / (3 * se_b)
    # estimator-level osmotic identity: (b - b*)/2 vs nu * d ln(rho-hat)/dx
    ln_rho = np.log(np.maximum(hists, 1e-300))
    dln = np.gradient(ln_rho, centers)
    se_ln = 1.0 / np.sqrt(np.maximum(counts, 1))
    se_dln = np.sqrt(se_ln[2:] ** 2 + se_ln[:-2] ** 2)[use[1:-1]] / (
        2 * (centers[1] - centers[0]))
    half = (fwd - bwd) / 2
    inner = use & np.concatenate(([False], np.ones(use.size - 2, bool), [False]))
    hsel = inner[use]
    osm_gap = np.abs(half[hsel] - nu * dln[inner])
    osm_se = np.sqrt((se_f[hsel] ** 2 + se_b[hsel] ** 2) / 4
                     + (nu * se_dln) ** 2)
    dev_o = osm_gap / (3 * osm_se)
    ctx.artifacts["drift_recovery_table"] = {
        "kind": "drift_compare",
        "columns": ["bin_center", "forward_est", "forward_ref",
                    "backward_est", "backward_ref", "se_forward",
                    "se_backward"],
        "rows": [[float(x[i]), float(fwd[i]), float(-2 * nu * x[i]),
                  float(bwd[i]), float(2 * nu * x[i]), float(se_f[i]),
                  float(se_b[i])] for i in range(x.size)],
    }
    return [ctx.record(
        "drift_recovery", "drift-definition",
        *_mc_status(_worst(dev_f, dev_b, dev_o), int(wsum.sum())),
        measured={"usable_bins": int(use.sum()),
                  "max_forward_dev_over_3se": _worst(dev_f),
                  "max_backward_dev_over_3se": _worst(dev_b),
                  "max_osmotic_dev_over_3se": _worst(dev_o)},
        reference={"forward": "-2 nu x", "backward": "+2 nu x",
                   "osmotic": "nu d ln rho / dx"},
        tolerance=1.0, oracle="generating fields; histogram log-derivative",
        notes="deviations in units of 3 standard errors; bins with >= "
              f"{MIN_COUNT_ASSERT} samples, pooled over 3 time slices")]


def check_initial_sampling(ctx: CheckContext):
    grid = ctx.grid
    rho0 = ho_ground_density(grid.x)
    n = ctx.cfg.sde.n_paths
    x = sample_initial(rho0, grid, n, ctx.cfg.sde.seed)
    se_mean = np.sqrt(0.5 / n)
    se_var = 0.5 * np.sqrt(2.0 / max(n - 1, 1))
    dev_mean = abs(float(x.mean())) / (3 * se_mean)
    dev_var = abs(float(x.var()) - 0.5) / (3 * se_var)
    empty = sample_initial(rho0, grid, 0, 1).size == 0
    spike = np.zeros(grid.n)
    i0 = grid.n // 3
    spike[i0] = 1.0
    spike /= grid.trapezoid(spike)
    xs = sample_initial(spike, grid, 1000, 3)
    in_support = bool(np.all(np.abs(xs - grid.x[i0]) <= grid.dx))
    worst = max(dev_mean, dev_var) if empty and in_support else np.inf
    return [ctx.record(
        "initial_sampling", "initial-law", *_mc_status(worst, n),
        measured={"mean_dev_over_3se": dev_mean, "var_dev_over_3se": dev_var,
                  "empty_ok": empty, "spike_support_ok": in_support},
        reference={"mean": 0.0, "variance": 0.5},
        tolerance=1.0, std_error=se_var,
        oracle="standard-error bounds for Gaussian sampling")]


def check_determinism(ctx: CheckContext):
    grid = ctx.grid
    df = ctx.ou_drift(0.5)
    x0 = sample_initial(ho_ground_density(grid.x), grid, 2000, 9)
    e1 = simulate_ensemble(df, x0, df.params, 1e-3, 25, seed=9, n_workers=1)
    e8 = simulate_ensemble(df, x0, df.params, 1e-3, 25, seed=9, n_workers=8)
    e1b = simulate_ensemble(df, x0, df.params, 1e-3, 25, seed=9, n_workers=3)
    identical = bool(np.array_equal(e1.paths, e8.paths)
                     and np.array_equal(e1.paths, e1b.paths))
    return [ctx.record(
        "determinism", "reproducible-sampling", PASS if identical else FAIL,
        measured={"bit_identical_1_vs_8_vs_3_workers": identical},
        reference={"contract": "bit-identical for any worker partition"},
        oracle="array equality")]


def check_time_change(ctx: CheckContext):
    """A stationary member at ``(nu, dt)`` is the ``nu = 1/2`` member at
    ``2 nu dt``, bit for bit: on a one-time drift table the drift and the
    noise variance both scale by ``2 nu``, so ``nu`` sets only the clock.  The
    real two-time element at ``(nu, s)`` is likewise the one at
    ``(1/2, 2 nu s)``.  The ratios are powers of two, so both hold
    exactly; this gate stands for the members the sampled checks do not
    rerun."""
    grid = ctx.grid
    half = ctx.ou_drift(0.5)
    ws = ctx.ho_ground(grid)
    x0 = sample_initial(ho_ground_density(grid.x), grid, 2000, 9)
    lags = np.array([0.25, 0.5, 1.0])
    equal = {}
    for nu in (1.0, 2.0):
        member = ctx.ou_drift(nu)
        for dt in (1e-3, 5e-3):      # the steps of the sampled members
            equal[f"paths_nu={nu}_dt={dt:g}"] = all(
                np.array_equal(a, b) for a, b in zip(
                    ensemble_steps(member, x0, dt, 40, 9),
                    ensemble_steps(half, x0, 2 * nu * dt, 40, 9)))
        equal[f"two_time_nu={nu}"] = bool(np.array_equal(
            two_time_position_correlation(ws, member.params, lags),
            two_time_position_correlation(ws, half.params, 2 * nu * lags)))
    return [ctx.record(
        "time_change", "measurable-statistics",
        PASS if all(equal.values()) else FAIL, measured=equal,
        reference={"paths": "nu at dt equals nu = 1/2 at 2 nu dt",
                   "two_time": "nu at s equals nu = 1/2 at 2 nu s"},
        oracle="array equality")]


def check_stationary_variance(ctx: CheckContext):
    """Equal-time histogram variance of the ``nu = 1/2`` member is 0.5.

    The other real members on this drift are this process on another
    clock (``time_change``), so sampling them would add only the
    Euler-Maruyama bias at a larger effective step.
    """
    n = ctx.cfg.sde.n_paths
    se = 0.5 * np.sqrt(2.0 / max(n - 1, 1))
    nu = 0.5
    e = ctx.ou_ensemble(nu, 1e-3, 40)
    v = float(e.positions(e.n_steps).var())
    dev = abs(v - 0.5) / (3 * se)
    return [ctx.record(
        f"stationary_variance[nu={nu}]", "measurable-statistics",
        *_mc_status(dev, n),
        measured={"nu": nu, "variance": v, "dev_over_3se": dev},
        reference={"variance": 0.5}, tolerance=1.0, std_error=se,
        oracle="stationary variance hbar / 2 m omega = nu / gamma")]


def check_density_histogram_match(ctx: CheckContext):
    tol = 0.02
    edges = np.arange(-4.0, 4.001, 0.2)
    centers = 0.5 * (edges[:-1] + edges[1:])
    e = ctx.ou_ensemble(0.5, 5e-3, 2000, store_every=100)  # to t = 10
    _, dens, se = density_histogram(e, e.n_steps, bins=edges)
    devs = {"L1_nu=0.5": histogram_l1_distance(edges, dens,
                                               ho_ground_density)}
    l1_se = float(np.sum(se * np.diff(edges)))  # the L1 noise scale
    ctx.artifacts["density_histogram_nu0.5"] = {
        "kind": "density_compare",
        "columns": ["bin_center", "histogram", "reference"],
        "rows": [[float(c), float(d), float(r)] for c, d, r in zip(
            centers, dens, ho_ground_density(centers))]}
    # spreading packet: histogram variance follows the free-packet law
    oracle_times = np.linspace(0.0, 1.0, 51)
    gf = Grid1D(-16.0, 16.0, 1601)
    wsf = analytic_oracle("free_gaussian", {"sigma0": 1.0}, gf, oracle_times)
    p = diffusion_params("nu", 0.5)
    dff = drift_fields(wsf, p)
    x0 = sample_initial(np.abs(wsf.psi[0]) ** 2, gf, ctx.cfg.sde.n_paths,
                        ctx.cfg.sde.seed + 1)
    ef = simulate_ensemble(dff, x0, p, 2e-3, 500, ctx.cfg.sde.seed + 1,
                           store_every=100)
    vhat = float(ef.positions(ef.n_steps).var())
    vref = free_gaussian_variance(1.0, 1.0)
    se_v = vref * np.sqrt(2.0 / ef.n_paths)
    devs["free_packet_var_dev_over_3se"] = abs(vhat - vref) / (3 * se_v)
    return [ctx.record(
        "density_histogram_match", "density-law",
        *_mc_status(max(devs["L1_nu=0.5"] / tol,
                        devs["free_packet_var_dev_over_3se"]),
                    ef.n_paths, l1_se / tol),
        measured=devs,
        reference={"L1": f"< {tol} vs exp(2R) at t = 10",
                   "free_packet": "variance follows the spreading law"},
        tolerance=tol, oracle="ground-state density; spreading law",
        notes="expected L1 from sampling noise alone "
              f"{_NOISE_PER_SE * l1_se:.3g}; every other stationary "
              "member is this process at a step of 2 nu dt (time_change)")]


def check_fk_bridge_real(ctx: CheckContext):
    """Monte Carlo two-time product vs the semigroup matrix element."""
    tol = 0.02
    nu = 0.5
    dt = 2e-3
    stride = 25                      # stored spacing 0.05
    e = ctx.ou_ensemble(nu, dt, 1450, store_every=stride)
    dt_stored = dt * stride
    ws = ctx.ho_ground(ctx.grid)
    p = diffusion_params("nu", nu)
    base_idx = [int(round(t / dt_stored)) for t in np.arange(0.5, 1.91, 0.1)]
    lags = (0.25, 0.5, 1.0)
    mats = two_time_position_correlation(ws, p, lags).real
    rows = []
    devs = {}
    for s, mat in zip(lags, mats.tolist()):
        lag = int(round(s / dt_stored))
        prods = np.concatenate([
            e.positions(j) * e.positions(j + lag) for j in base_idx])
        mc = float(prods.mean())
        # SE of the per-path means: paths are independent, base times not
        se = float(_path_se(prods.reshape(len(base_idx),
                                          e.n_paths).mean(axis=0)))
        rel = abs(mc - mat) / abs(mat)
        devs[f"mc_s={s}"] = mc
        devs[f"matrix_s={s}"] = mat
        devs[f"rel_gap_s={s}"] = rel
        rows.append([s, mc, se, mat, 0.0])
    ctx.artifacts["fk_bridge_curve"] = {
        "kind": "correlation_curve",
        "columns": ["s", "mc_estimate", "mc_stderr", "matrix_element_re",
                    "matrix_element_im"],
        "rows": rows,
    }
    worst = max(v for k, v in devs.items() if k.startswith("rel"))
    rel_se = max(se / abs(mat) for _, _, se, mat, _ in rows)
    return [ctx.record(
        "fk_bridge_real", "path-correlation-formula",
        *_mc_status(worst / tol, e.n_paths, rel_se / tol),
        measured=devs,
        reference={"autocovariance": "0.5 exp(-2 nu s)"},
        tolerance=tol,
        oracle="path average pooled over 15 stationary base times vs the "
               "stationary-semigroup matrix element",
        notes="matrix element equals the exact autocovariance to O(dx^2)")]


def _coherent_steps(ctx, dt, n_steps, n_paths, seed):
    """The drift of the displaced oscillator packet (x0 = 1) at nu = 1/2,
    tabulated a step past the last one, and its ``ensemble_steps``."""
    grid = ctx.grid
    times = np.linspace(0.0, (n_steps + 1) * dt, 80)
    ws = analytic_oracle("ho_coherent", {"x0": 1.0}, grid, times)
    df = drift_fields(ws, diffusion_params("nu", 0.5))
    x0 = sample_initial(np.abs(ws.psi[0]) ** 2, grid, n_paths, seed)
    return df, ensemble_steps(df, x0, dt, n_steps, seed)


def check_mean_acceleration_packet(ctx: CheckContext):
    """Packet-mean acceleration: second difference of the mean position.

    The osmotic divergence of the naive binned estimator integrates to
    zero in the unconditional average, so the second difference of the
    ensemble-mean trajectory cleanly measures the mean acceleration of
    the packet, which for the displaced oscillator state at nu = hbar/2m
    is minus the packet center.
    """
    tol = 0.05
    n_cfg = ctx.cfg.sde.n_paths
    min_paths = 50_000  # below this the 200k-path run is not worth starting
    dt = 0.01
    stride = 45       # tau = 0.45: variance-bias compromise, see notes
    n_paths = max(n_cfg, 200_000)
    t_probe = [int(round(t / dt)) for t in (1.0, 2.0, 3.14, 4.2, 5.3, 6.28)]
    n_total = max(t_probe) + stride
    tau = stride * dt
    c1 = 2 * (1 - np.cos(tau)) / tau ** 2   # finite-stride factor on cos
    devs, ses, worst = {}, [], np.nan
    if _mc_status(worst, n_cfg, min_count=min_paths)[0] != INCONCLUSIVE:
        probes = [j for j in t_probe if abs(np.cos(j * dt)) >= 0.4]
        keep = {j + k for j in probes for k in (-stride, 0, stride)}
        _, steps = _coherent_steps(ctx, dt, n_total, n_paths,
                                   ctx.cfg.sde.seed + 2)
        kept = {j: x.copy() for j, x in enumerate(steps) if j in keep}
        worst = 0.0
        for j0 in probes:
            t = j0 * dt
            xbar = np.cos(t)
            up, mid, down = (kept[j0 + k] for k in (stride, 0, -stride))
            acc = (up.mean() - 2 * mid.mean() + down.mean()) / tau ** 2
            rel = abs(acc / c1 - (-xbar)) / abs(xbar)
            devs[f"t={t:.2f}"] = rel
            devs[f"raw_t={t:.2f}"] = abs(acc - (-xbar)) / abs(xbar)
            worst = max(worst, rel)
            # SE of rel from the per-path second differences
            ses.append(float(_path_se(up - 2 * mid + down)
                             / (tau ** 2 * c1 * abs(xbar))))
    return [ctx.record(
        "mean_acceleration_packet", "mean-acceleration",
        *_mc_status(worst / tol, n_cfg, max(ses, default=0.0) / tol,
                    min_count=min_paths),
        measured=devs, std_error=max(ses, default=None),
        reference={"packet": "d2<x>/dt2 = -<x> for the displaced oscillator "
                             "state at nu = hbar/2m"},
        tolerance=tol, oracle="classical center motion x0 cos(t)",
        notes=f"stride tau = {tau:g} trades the 4 nu / tau^3 estimator "
              f"variance against the finite-stride factor "
              f"2(1-cos tau)/tau^2 = {c1:.4f} (divided out)"
              + (f"; n_paths = {n_paths}" if devs else ""))]


def check_mean_acceleration_binned_literal(ctx: CheckContext):
    """Literal binned symmetric-difference acceleration vs -x.

    Unattainable: conditioned on the middle position, the expectation of
    the symmetric second difference is (b - b*)/dt + O(1) -- the osmotic
    term diverges as dt -> 0 wherever the density has a gradient (for the
    displaced ground-state packet it is -2 (x - center)/dt, i.e. ~ -200
    (x - center) at dt = 0.01, against a target of -x), and the
    per-sample variance grows like 4 nu / dt^3.  The packet-mean check
    next to this one is the convergent unconditional form.
    """
    tol = 0.05
    dt = 0.01
    n_paths = ctx.cfg.sde.n_paths
    j0 = 100
    df, steps = _coherent_steps(ctx, dt, j0 + 1, n_paths,
                                ctx.cfg.sde.seed + 3)
    paths = np.stack([x.copy() for j, x in enumerate(steps) if j >= j0 - 1],
                     axis=1)
    e = Ensemble(paths=paths, dt=dt, t0=(j0 - 1) * dt,
                 seed=ctx.cfg.sde.seed + 3, drift=df)
    tab = estimate_mean_acceleration(e, 1, bins=np.arange(-3.0, 3.01, 0.25),
                                     min_count=MIN_COUNT_ASSERT)
    use = tab.usable
    centers = tab.centers[use]
    est = tab.estimate[use]
    rel = np.abs(est - (-centers)) / np.maximum(np.abs(centers), 0.4)
    worst = _worst(rel)
    xbar = float(np.cos(j0 * dt))
    pred = -(2.0 / dt) * (centers - xbar) + 0.0 * centers
    return [ctx.record(
        "mean_acceleration_binned_literal", "mean-acceleration",
        *_mc_status(worst / tol, int(tab.counts[use].sum())),
        known_unattainable=True,
        measured={"max_relative_dev": worst,
                  "sample_bin_values": {f"x={c:.2f}": float(v)
                                        for c, v in zip(centers[:6], est[:6])},
                  "divergent_term_prediction": {f"x={c:.2f}": float(v)
                                                for c, v in
                                                zip(centers[:6], pred[:6])}},
        reference={"stated": "-x within 5% in occupied central bins"},
        tolerance=tol, oracle="n/a (see notes)",
        notes="the conditional second difference measures (b - b*)/dt + "
              "O(1), which diverges as dt -> 0; measured bin values track "
              "the -2(x - center)/dt prediction, not -x; the convergent "
              "unconditional form passes (mean_acceleration_packet)")]


def check_fp_schrodinger_consistency(ctx: CheckContext):
    """Coherent-state density: forward-equation evolution vs exp(2R).

    One wave solve serves every family member: the density of each
    ``nu`` must track the same exp(2R(t)).
    """
    tol = 1e-3
    grid = Grid1D(-8.0, 8.0, 1601)
    nus = (0.5, 1.0, 2.0)
    wc = analytic_oracle("ho_coherent", {"x0": 1.0}, grid, [0.0])
    dt = 1e-3
    period = 2 * np.pi
    n_steps = int(round(period / dt))
    n_steps -= n_steps % 40           # align snapshots and checkpoints
    sol = solve_schrodinger(ho_potential(grid.x), wc.psi[0], grid, dt,
                            n_steps, store_every=10)
    rho0 = np.exp(2 * sol.R[0])
    rho0 /= grid.trapezoid(rho0)
    quarters = range(n_steps // 4, n_steps + 1, n_steps // 4)
    refs = []
    for jq in quarters:
        ref = np.exp(2 * sol.R[jq // 10])
        refs.append(ref / grid.trapezoid(ref))
    devs = {}
    for nu in nus:
        df = drift_fields(sol, diffusion_params("nu", nu))
        ev = evolve_density_fokker_planck(df, rho0, dt, n_steps,
                                          store_every=n_steps // 4)
        for kq, ref in enumerate(refs, start=1):
            devs[f"L1_quarter_{kq}_nu={nu}"] = l1_distance(grid, ev.rho[kq],
                                                           ref)
        if nu == nus[0]:
            ctx.artifacts["fp_density_movie"] = {
                "kind": "density_movie",
                "grid": grid,
                "times": ev.times,
                "rho": ev.rho,
            }
    worst = float(max(devs.values()))
    return [ctx.record(
        "fp_schrodinger_consistency", "forward-equation",
        _status(worst, tol), measured=devs,
        reference={"L1": f"< {tol} over one period at every nu"},
        tolerance=tol,
        oracle="wave-equation density exp(2R(t)) from the implicit solver",
        notes=f"{n_steps} steps at dt = {dt} for nu = "
              f"{', '.join(str(nu) for nu in nus)}, drift interpolated "
              "between snapshots every 10 steps; the density movie is "
              f"nu = {nus[0]}")]


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

FAST_CHECKS = {
    "family_parameterization": check_family_parameterization,
    "wave_decomposition": check_wave_decomposition,
    "schrodinger_stationary": check_schrodinger_stationary,
    "free_packet_spreading": check_free_packet_spreading,
    "drift_closed_forms": check_drift_closed_forms,
    "fokker_planck_forward": check_fokker_planck_forward,
    "commutator_exact": check_commutator_exact,
    "commutator_pointwise_literal": check_commutator_pointwise_literal,
    "canonical_algebra": check_canonical_algebra,
    "canonical_pointwise_literal": check_canonical_pointwise_literal,
    "tmap_unitarity": check_tmap_unitarity,
    "recursion_velocity": check_recursion_velocity,
    "acceleration_identity": check_acceleration_identity,
    "hamiltonian_spectrum": check_hamiltonian_spectrum,
    "heisenberg_taylor": check_heisenberg_taylor,
    "heisenberg_closed_form": check_heisenberg_closed_form,
    "recursion_closed_forms": check_recursion_closed_forms,
    "equal_time_value": check_equal_time_value,
    "continued_two_time": check_continued_two_time,
}

FULL_CHECKS = {
    **FAST_CHECKS,
    "qvar_recovery": check_qvar_recovery,
    "drift_recovery": check_drift_recovery,
    "initial_sampling": check_initial_sampling,
    "determinism": check_determinism,
    "time_change": check_time_change,
    "stationary_variance": check_stationary_variance,
    "density_histogram_match": check_density_histogram_match,
    "fk_bridge_real": check_fk_bridge_real,
    "mean_acceleration_packet": check_mean_acceleration_packet,
    "mean_acceleration_binned_literal": check_mean_acceleration_binned_literal,
    "fp_schrodinger_consistency": check_fp_schrodinger_consistency,
}

MONTE_CARLO_CHECKS = (frozenset(FULL_CHECKS) - set(FAST_CHECKS)
                      - {"determinism", "time_change",
                         "fp_schrodinger_consistency"})
