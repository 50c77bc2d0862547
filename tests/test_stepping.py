"""The half-grid march of a mirror-symmetric Crank-Nicolson problem."""
import numpy as np
import pytest
from scipy.linalg import lapack

from nelsonlab import Grid1D, diffusion_params
from nelsonlab.fields import (analytic_oracle, drift_fields,
                              evolve_density_fokker_planck, ho_ground_density,
                              solve_schrodinger, stepping)
from nelsonlab.fields.drift import DriftField


@pytest.fixture()
def factored(monkeypatch):
    """Sizes of the step matrices that ``?gttrf`` factors."""
    sizes = []
    for name in ("dgttrf", "zgttrf"):
        def counted(dl, d, du, *args, _routine=getattr(lapack, name), **kw):
            sizes.append(d.size)
            return _routine(dl, d, du, *args, **kw)
        monkeypatch.setattr(lapack, name, counted)
    return sizes


def _full_size(monkeypatch, march):
    """``march()`` with the fold turned off: on every node, as a march
    that is not mirror-symmetric runs."""
    with monkeypatch.context() as m:
        m.setattr(stepping, "_mirror_even", lambda bands, y: False)
        return march()


def _wave(n, odd=0.0):
    """``(psi0, march)``: 1000 Schrodinger steps on n nodes of [-8, 8]
    under the oscillator, from its ground state plus ``odd`` times a
    mirror-odd packet."""
    g = Grid1D(-8.0, 8.0, n)
    psi0 = analytic_oracle("ho_ground", None, g, [0.0]).psi[0]
    psi0 = psi0 + odd * g.x * np.exp(-g.x ** 2)
    V = 0.5 * g.x ** 2
    return psi0, lambda: solve_schrodinger(V, psi0, g, 1e-3, 1000,
                                           store_every=250).psi


def _density(n, drift, odd=0.0):
    """``(rho0, march)``: 1000 Fokker-Planck steps on n nodes of [-8, 8]
    under the ground state's OU drift at nu = 1/2 (``"ou"``) or b = 0
    (``"flat"``), from the ground density times ``1 + odd tanh(x)``."""
    g = Grid1D(-8.0, 8.0, n)
    if drift == "ou":
        ws = analytic_oracle("ho_ground", None, g, [0.0])
        df = drift_fields(ws, diffusion_params("nu", 0.5))
    else:
        df = DriftField(grid=g, times=np.array([0.0]), b=np.zeros((1, n)),
                        b_star=np.zeros((1, n)),
                        params=diffusion_params("nu", 0.5), provenance="b=0")
    rho0 = ho_ground_density(g.x) * (1.0 + odd * np.tanh(g.x))
    rho0 = rho0 / g.trapezoid(rho0)
    return rho0, lambda: evolve_density_fokker_planck(df, rho0, 1e-3, 1000,
                                                      store_every=250).rho


# interior sizes 1599 and 1600 for the wave, grid sizes 2001 and 2000 for
# the density: one odd and one even fold of each
MARCHES = {
    "schrodinger_odd": (lambda **kw: _wave(1601, **kw), 800, 1599),
    "schrodinger_even": (lambda **kw: _wave(1602, **kw), 800, 1600),
    "fokker_planck_ou": (lambda **kw: _density(2001, "ou", **kw), 1001, 2001),
    "fokker_planck_flat": (lambda **kw: _density(2000, "flat", **kw), 1000,
                           2000),
}


@pytest.mark.parametrize("case", MARCHES)
def test_half_march_matches_the_full_size_march(case, factored, monkeypatch):
    """A mirror-even state under a mirror-symmetric static step matrix is
    marched on half the nodes, within 1e-12 of the full-size march's
    largest entry after 1000 steps (a bound fixed before the run), and the
    initial kept state is the input bit for bit."""
    build, half, full = MARCHES[case]
    y0, march = build()
    got = march()
    ref = _full_size(monkeypatch, march)
    assert factored == [half, full]
    assert got.shape == ref.shape == (5, y0.size)
    assert np.array_equal(got[0], y0)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("case", MARCHES)
def test_mirror_odd_part_takes_the_full_march(case, factored, monkeypatch):
    """A mirror-odd part of 1e-8 is far above rounding: the state is not
    mirror-even, so it is marched on every node, with the bits of the
    full-size march, and its odd part is not dropped."""
    build, _, full = MARCHES[case]
    y0, march = build(odd=1e-8)
    got = march()
    ref = _full_size(monkeypatch, march)
    assert factored == [full, full]
    assert np.array_equal(got, ref)
    assert np.array_equal(got[0], y0)


def test_fast_verify_factors_half_size_matrices_only(factored):
    """Every march of fast verify is static and mirror-even:
    ``schrodinger_stationary`` (6399 interior nodes),
    ``free_packet_spreading`` (1599) and both of
    ``fokker_planck_forward`` (8001 nodes)."""
    from nelsonlab.harness.suite import verify_suite
    verify_suite("fast")
    assert factored == [3200, 800, 4001, 4001]
