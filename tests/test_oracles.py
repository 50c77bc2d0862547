import numpy as np
import pytest

from nelsonlab import Grid1D, InputError
from nelsonlab.fields import (analytic_oracle, free_gaussian_variance,
                              ho_ground_density, solve_schrodinger)


def test_ground_state_closed_form(grid801, ground):
    x = grid801.x
    m = ground.mask[0]
    assert np.max(np.abs(ground.R[0] - (-x ** 2 / 2 - np.log(np.pi) / 4))[m]) < 1e-12
    # time-linear uniform phase with zero gradient
    ws = analytic_oracle("ho_ground", None, grid801, [0.0, 0.5, 1.0])
    for j in range(ws.n_times):
        assert np.ptp(ws.S[j][ws.mask[j]]) < 1e-12   # uniform phase
    dphase = ws.S[1][ws.mask[1]][0] - ws.S[0][ws.mask[0]][0]
    assert abs(dphase + 0.25) < 1e-12      # dS = -omega dt / 2


def test_coherent_with_zero_displacement_is_ground(grid801):
    a = analytic_oracle("ho_coherent", {"x0": 0.0}, grid801, [0.7])
    b = analytic_oracle("ho_ground", None, grid801, [0.7])
    assert np.max(np.abs(a.rho(0) - b.rho(0))) < 1e-14


def test_coherent_center_follows_classical_orbit(grid801):
    times = [0.0, 0.8, 2.1]
    ws = analytic_oracle("ho_coherent", {"x0": 1.0}, grid801, times)
    for j, t in enumerate(times):
        mean = grid801.trapezoid(grid801.x * ws.rho(j))
        assert abs(mean - np.cos(t)) < 1e-10


def test_free_gaussian_initial_and_spread():
    g = Grid1D(-16.0, 16.0, 1601)
    ws = analytic_oracle("free_gaussian", {"sigma0": 1.0}, g, [0.0, 1.0])
    rho0 = ws.rho(0)
    ref = np.exp(-g.x ** 2 / 2) / np.sqrt(2 * np.pi)
    assert np.max(np.abs(rho0 - ref)) < 1e-12
    var1 = g.trapezoid(g.x ** 2 * ws.rho(1))
    assert abs(var1 - free_gaussian_variance(1.0, 1.0)) < 1e-8


def test_boosted_gaussian_moves():
    g = Grid1D(-24.0, 24.0, 2401)
    ws = analytic_oracle("free_gaussian", {"sigma0": 1.0, "k0": 2.0}, g,
                         [0.0, 1.5])
    mean = g.trapezoid(g.x * ws.rho(1))
    assert abs(mean - 2.0 * 1.5) < 1e-8    # hbar k0 t / m


def test_oracle_validates_against_solver(grid801):
    """Coherent closed form and the implicit stepper agree over half a period."""
    ws0 = analytic_oracle("ho_coherent", {"x0": 1.0}, grid801, [0.0])
    V = 0.5 * grid801.x ** 2
    T, dt = 1.5, 1e-3
    sol = solve_schrodinger(V, ws0.psi[0], grid801, dt, int(T / dt),
                            store_every=int(T / dt))
    ref = analytic_oracle("ho_coherent", {"x0": 1.0}, grid801, [T])
    overlap = abs(grid801.trapezoid(np.conj(sol.psi[-1]) * ref.psi[0]))
    assert overlap > 1 - 1e-6


def test_unsupported_kind_and_bad_params(grid801):
    with pytest.raises(InputError):
        analytic_oracle("square_well", None, grid801, [0.0])
    with pytest.raises(InputError):
        analytic_oracle("free_gaussian", {"sigma0": -1.0}, grid801, [0.0])
    # the units are constants: setting one, even to its value, is unknown
    for kind in ("ho_ground", "ho_coherent", "free_gaussian"):
        for unit in ("m", "hbar", "omega"):
            with pytest.raises(InputError, match="unknown oracle parameters"):
                analytic_oracle(kind, {unit: 1.0}, grid801, [0.0])
    with pytest.raises(InputError):
        analytic_oracle("ho_ground", {"bogus": 1.0}, grid801, [0.0])


def test_narrow_grid_rejected():
    g = Grid1D(-2.0, 2.0, 41)   # boundary density far above 1e-12 of peak
    with pytest.raises(InputError):
        analytic_oracle("ho_ground", None, g, [0.0])


def test_ground_density_helper(grid801):
    rho = ho_ground_density(grid801.x)
    assert abs(grid801.trapezoid(rho) - 1) < 1e-10
    assert abs(grid801.trapezoid(grid801.x ** 2 * rho) - 0.5) < 1e-10
