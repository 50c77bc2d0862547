import numpy as np
import pytest
from scipy.linalg import solve_banded

from nelsonlab import Grid1D, InputError
from nelsonlab.fields import (analytic_oracle, free_gaussian_variance,
                              solve_schrodinger, stepping)


def _banded_reference(V, psi0, grid, dt, n_steps, store_every):
    """Crank-Nicolson by a fresh ``solve_banded`` of ``1 + r H`` every step."""
    n_int = grid.n - 2
    kin = 1.0 / (2.0 * grid.dx * grid.dx)
    h_main = 2.0 * kin + V[1:-1]
    h_off = -kin * np.ones(n_int - 1)
    r = 0.5j * dt
    ab = np.zeros((3, n_int), dtype=complex)
    ab[0, 1:] = r * h_off
    ab[1, :] = 1.0 + r * h_main
    ab[2, :-1] = r * h_off
    p = psi0[1:-1].copy()
    stored = [psi0.copy()]
    for j in range(n_steps):
        rhs = (1.0 - r * h_main) * p
        rhs[:-1] -= r * h_off * p[1:]
        rhs[1:] -= r * h_off * p[:-1]
        p = solve_banded((1, 1), ab, rhs)
        if (j + 1) % store_every == 0 or j + 1 == n_steps:
            full = np.zeros(grid.n, dtype=complex)
            full[1:-1] = p
            stored.append(full)
    return np.array(stored)


@pytest.mark.parametrize(
    "lo, hi, kind, params, harmonic, n_steps, store_every, fold_off", [
        (-8.0, 8.0, "ho_coherent", {"x0": 1.0}, True, 1560, 10, False),
        (-16.0, 16.0, "free_gaussian", {"sigma0": 1.0}, False, 1000, 1000,
         True),
    ], ids=["coherent_packet", "free_packet"])
def test_factored_solve_is_bit_identical_to_banded_reference(
        monkeypatch, lo, hi, kind, params, harmonic, n_steps, store_every,
        fold_off):
    """The displaced coherent packet runs on every node.  The centred free
    packet is mirror-even and would run on half of them
    (``tests/test_stepping.py`` holds that march); here the fold is
    turned off, so the full-size march is held to the reference."""
    if fold_off:
        monkeypatch.setattr(stepping, "_mirror_even", lambda bands, y: False)
    g = Grid1D(lo, hi, 1601)
    psi0 = analytic_oracle(kind, params, g, [0.0]).psi[0]
    V = 0.5 * g.x ** 2 if harmonic else np.zeros(g.n)
    sol = solve_schrodinger(V, psi0, g, 1e-3, n_steps, store_every=store_every)
    ref = _banded_reference(V, psi0, g, 1e-3, n_steps, store_every)
    assert np.array_equal(sol.psi, ref)


def test_zero_steps_returns_input(grid801, ground):
    V = 0.5 * grid801.x ** 2
    out = solve_schrodinger(V, ground.psi[0], grid801, 1e-3, 0)
    assert np.array_equal(out.psi[0], ground.psi[0])
    assert out.n_times == 1


def test_stationary_ground_state_density():
    g = Grid1D(-8.0, 8.0, 6401)
    ws = analytic_oracle("ho_ground", None, g, [0.0])
    sol = solve_schrodinger(0.5 * g.x ** 2, ws.psi[0], g, 1e-3, 1000,
                            store_every=500)
    drift = np.max(np.abs(np.abs(sol.psi[-1]) ** 2 - np.abs(sol.psi[0]) ** 2))
    assert drift < 1e-6


def test_norm_conserved_every_step(grid801):
    ws = analytic_oracle("ho_coherent", {"x0": 1.0}, grid801, [0.0])
    sol = solve_schrodinger(0.5 * grid801.x ** 2, ws.psi[0], grid801,
                            1e-3, 200, store_every=1)
    norms = sol.norms()
    assert np.max(np.abs(np.diff(norms))) < 1e-12


def test_free_packet_spreading_matches_law():
    g = Grid1D(-16.0, 16.0, 1601)
    ws = analytic_oracle("free_gaussian", {"sigma0": 1.0}, g, [0.0])
    sol = solve_schrodinger(np.zeros(g.n), ws.psi[0], g, 1e-3, 1000,
                            store_every=1000)
    var = g.trapezoid(g.x ** 2 * np.abs(sol.psi[-1]) ** 2)
    ref = free_gaussian_variance(1.0, 1.0)
    assert abs(var - ref) / ref < 5e-3


def test_rejects_bad_inputs(grid801, ground):
    V = 0.5 * grid801.x ** 2
    with pytest.raises(InputError):
        solve_schrodinger(V, 2.0 * ground.psi[0], grid801, 1e-3, 10)
    badV = V.copy()
    badV[3] = np.inf
    with pytest.raises(InputError):
        solve_schrodinger(badV, ground.psi[0], grid801, 1e-3, 10)
    with pytest.raises(InputError):
        solve_schrodinger(V, ground.psi[0], grid801, -1e-3, 10)
    with pytest.raises(InputError):
        solve_schrodinger(V[:-1], ground.psi[0], grid801, 1e-3, 10)


@pytest.mark.parametrize("n_steps", [0, 10])
def test_rejects_non_finite_psi0(grid801, ground, n_steps):
    psi0 = ground.psi[0].copy()
    psi0[400] = np.nan   # the norm test alone lets NaN through
    with pytest.raises(InputError, match="finite"):
        solve_schrodinger(0.5 * grid801.x ** 2, psi0, grid801, 1e-3, n_steps)


def test_partial_store_keeps_final_state(grid801, ground):
    V = 0.5 * grid801.x ** 2
    sol = solve_schrodinger(V, ground.psi[0], grid801, 1e-3, 25, store_every=10)
    assert sol.times[-1] == pytest.approx(0.025)
    assert sol.n_times == 4   # t = 0, 0.01, 0.02, 0.025
