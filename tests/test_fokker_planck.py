import numpy as np
import pytest
from scipy.linalg import lapack, solve_banded

from nelsonlab import Grid1D, InputError, InstabilityError, diffusion_params
from nelsonlab.fields import (analytic_oracle, drift_fields,
                              evolve_density_fokker_planck, ho_ground_density,
                              l1_distance, solve_schrodinger)
from nelsonlab.fields.drift import DriftField


def _flat_drift(grid, nu):
    return DriftField(grid=grid, times=np.array([0.0]),
                      b=np.zeros((1, grid.n)), b_star=np.zeros((1, grid.n)),
                      params=diffusion_params("nu", nu), provenance="b=0")


def _two_band_reference(df, rho0, dt, n_steps, store_every):
    """Crank-Nicolson that builds both band sets of every step afresh and
    solves by ``solve_banded``; the end bands of step j sit at t_j + dt."""
    nu = df.params.nu_real
    dx = df.grid.dx

    def bands(t):
        b = df.b_on_grid(t)
        bf = 0.5 * (b[:-1] + b[1:])
        c1 = 0.5 * bf / dx
        c2 = nu / (dx * dx)
        main = np.zeros(df.grid.n)
        main[:-1] += -c1 - c2
        main[1:] += c1 - c2
        return main, -c1 + c2, c1 + c2

    rho = rho0.copy()
    out = [rho.copy()]
    ab = np.zeros((3, df.grid.n))
    t = 0.0
    for j in range(n_steps):
        m0, u0, l0 = bands(t)
        m1, u1, l1 = bands(t + dt)
        rhs = (1.0 + 0.5 * dt * m0) * rho
        rhs[:-1] += 0.5 * dt * u0 * rho[1:]
        rhs[1:] += 0.5 * dt * l0 * rho[:-1]
        ab[0, 1:] = -0.5 * dt * u1
        ab[1, :] = 1.0 - 0.5 * dt * m1
        ab[2, :-1] = -0.5 * dt * l1
        rho = solve_banded((1, 1), ab, rhs)
        t = (j + 1) * dt
        if (j + 1) % store_every == 0:
            out.append(rho.copy())
    return np.array(out)


@pytest.fixture(scope="module")
def coherent_packet_solution():
    g = Grid1D(-8.0, 8.0, 1601)
    ws0 = analytic_oracle("ho_coherent", {"x0": 1.0}, g, [0.0])
    return solve_schrodinger(0.5 * g.x ** 2, ws0.psi[0], g, 1e-3, 1560,
                             store_every=10)


def _packet_drift(sol, drift):
    """The packet's drift at nu = ``drift``, or a static OU or flat drift."""
    if drift == "ou_ground":
        ws = analytic_oracle("ho_ground", None, sol.grid, [0.0])
        return drift_fields(ws, diffusion_params("nu", 0.5))
    if drift == "flat":
        return _flat_drift(sol.grid, 0.5)
    return drift_fields(sol, diffusion_params("nu", drift))


@pytest.mark.parametrize("drift", [0.5, 1.0, 2.0, "ou_ground", "flat"])
def test_carried_bands_match_two_band_reference(coherent_packet_solution,
                                                drift):
    sol = coherent_packet_solution
    g = sol.grid
    df = _packet_drift(sol, drift)
    rho0 = np.exp(2 * sol.R[0])
    rho0 /= g.trapezoid(rho0)
    ev = evolve_density_fokker_planck(df, rho0, 1e-3, 1560, store_every=390)
    ref = _two_band_reference(df, rho0, 1e-3, 1560, 390)
    assert ev.rho.shape == ref.shape
    assert np.max(np.abs(ev.rho - ref)) <= 1e-13 * np.max(ref)
    assert np.max(np.abs(ev.masses() - ev.masses()[0])) < 1e-10


@pytest.mark.parametrize("drift, counts", [
    ("flat", (1, 5, 0, 0, 0)), ("ou_ground", (1, 5, 0, 0, 0)),
    (0.5, (0, 0, 0, 0, 5))])
def test_static_drift_is_factored_once(coherent_packet_solution, drift,
                                       counts, monkeypatch):
    """A static drift's step matrix is factored once, in the
    detailed-balance gauge by ``dpttrf``, and then only solved; a
    time-dependent one is solved afresh by ``dgtsv`` at every step."""
    calls = {"dpttrf": 0, "dpttrs": 0, "dgttrf": 0, "dgttrs": 0, "dgtsv": 0}
    for name in calls:
        def counted(*args, _name=name, _routine=getattr(lapack, name), **kw):
            calls[_name] += 1
            return _routine(*args, **kw)
        monkeypatch.setattr(lapack, name, counted)
    sol = coherent_packet_solution
    rho0 = np.exp(2 * sol.R[0])
    rho0 /= sol.grid.trapezoid(rho0)
    evolve_density_fokker_planck(_packet_drift(sol, drift), rho0, 1e-3, 5)
    assert tuple(calls.values()) == counts, calls


def test_stationary_density_is_preserved():
    g = Grid1D(-8.0, 8.0, 4001)
    ws = analytic_oracle("ho_ground", None, g, [0.0])
    df = drift_fields(ws, diffusion_params("nu", 0.5))
    rho0 = ho_ground_density(g.x)
    rho0 /= g.trapezoid(rho0)
    ev = evolve_density_fokker_planck(df, rho0, 1e-3, 500)
    assert l1_distance(g, ev.final(), rho0) < 2e-6   # half a unit time


def test_pure_diffusion_variance_growth():
    g = Grid1D(-8.0, 8.0, 801)
    sig0 = 0.5
    rho0 = np.exp(-g.x ** 2 / (2 * sig0 ** 2))
    rho0 /= g.trapezoid(rho0)
    ev = evolve_density_fokker_planck(_flat_drift(g, 0.5), rho0, 1e-3, 500)
    var = g.trapezoid(g.x ** 2 * ev.final())
    assert abs(var - (sig0 ** 2 + 2 * 0.5 * 0.5)) < 1e-3


def test_mass_conserved_to_roundoff():
    g = Grid1D(-8.0, 8.0, 801)
    ws = analytic_oracle("ho_coherent", {"x0": 1.0}, g, [0.0])
    df = drift_fields(ws, diffusion_params("nu", 0.5))
    rho0 = ws.rho(0)
    rho0 /= g.trapezoid(rho0)
    ev = evolve_density_fokker_planck(df, rho0, 1e-3, 200, store_every=50)
    assert np.max(np.abs(ev.masses() - ev.masses()[0])) < 1e-12


def test_matches_wave_density_over_time():
    """Forward-equation evolution tracks exp(2R(t)) from the wave solver."""
    g = Grid1D(-8.0, 8.0, 801)
    ws0 = analytic_oracle("ho_coherent", {"x0": 1.0}, g, [0.0])
    dt = 1e-3
    n = 400
    sol = solve_schrodinger(0.5 * g.x ** 2, ws0.psi[0], g, dt, n, store_every=10)
    df = drift_fields(sol, diffusion_params("nu", 0.5))
    rho0 = np.exp(2 * sol.R[0])
    rho0 /= g.trapezoid(rho0)
    ev = evolve_density_fokker_planck(df, rho0, dt, n, store_every=n)
    ref = np.exp(2 * sol.R[-1])
    ref /= g.trapezoid(ref)
    assert l1_distance(g, ev.final(), ref) < 1e-3


def test_rejects_bad_density():
    g = Grid1D(-8.0, 8.0, 801)
    df = _flat_drift(g, 0.5)
    rho = ho_ground_density(g.x)
    with pytest.raises(InputError):
        evolve_density_fokker_planck(df, 2 * rho, 1e-3, 5)   # unnormalized
    bad = rho.copy()
    bad[0] = -0.1
    with pytest.raises(InputError):
        evolve_density_fokker_planck(df, bad, 1e-3, 5)


@pytest.mark.parametrize("store_every", [0, -2])
def test_rejects_store_every_below_one(store_every):
    g = Grid1D(-8.0, 8.0, 801)
    rho = ho_ground_density(g.x)
    rho /= g.trapezoid(rho)
    with pytest.raises(InputError, match="store_every"):
        evolve_density_fokker_planck(_flat_drift(g, 0.5), rho, 1e-3, 4,
                                     store_every=store_every)


@pytest.mark.parametrize("n_steps", [0, 5])
def test_rejects_non_finite_density(n_steps):
    g = Grid1D(-8.0, 8.0, 801)
    rho = ho_ground_density(g.x)
    rho /= g.trapezoid(rho)
    rho[400] = np.nan   # passes both the sign and the norm test
    with pytest.raises(InputError, match="finite"):
        evolve_density_fokker_planck(_flat_drift(g, 0.5), rho, 1e-3, n_steps)


def test_nan_drift_node_reports_instability_at_first_step():
    g = Grid1D(-8.0, 8.0, 801)
    df = _flat_drift(g, 0.5)
    df.b[0, 500] = np.nan
    rho = ho_ground_density(g.x)
    rho /= g.trapezoid(rho)
    with pytest.raises(InstabilityError, match=r"t=0\.001;"):
        evolve_density_fokker_planck(df, rho, 1e-3, 5)


def test_sharp_spike_with_huge_step_reports_instability():
    g = Grid1D(-8.0, 8.0, 801)
    rho = np.zeros(g.n)
    rho[g.n // 2] = 1.0
    rho /= g.trapezoid(rho)
    with pytest.raises(InstabilityError):
        evolve_density_fokker_planck(_flat_drift(g, 0.5), rho, 5.0, 3)
