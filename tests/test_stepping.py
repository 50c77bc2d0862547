"""The half-grid march of a mirror-symmetric Crank-Nicolson problem, and
the detailed-balance gauge of a static Fokker-Planck march."""
import re

import numpy as np
import pytest
from scipy.linalg import lapack

from nelsonlab import Grid1D, InstabilityError, diffusion_params
from nelsonlab.fields import (analytic_oracle, drift_fields,
                              evolve_density_fokker_planck, fokker_planck,
                              ho_ground_density, solve_schrodinger, stepping)
from nelsonlab.fields.drift import DriftField


@pytest.fixture()
def factored(monkeypatch):
    """Sizes of the step matrices that ``?gttrf`` and ``dpttrf`` factor,
    by routine."""
    sizes = {"zgttrf": [], "dgttrf": [], "dpttrf": []}
    for name, diagonal in (("zgttrf", 1), ("dgttrf", 1), ("dpttrf", 0)):
        def counted(*args, _name=name, _diagonal=diagonal,
                    _routine=getattr(lapack, name), **kw):
            sizes[_name].append(args[_diagonal].size)
            return _routine(*args, **kw)
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


def _static_drift(g, b):
    """The static drift ``b`` on ``g`` at nu = 1/2."""
    return DriftField(grid=g, times=np.array([0.0]), b=b[None, :],
                      b_star=b[None, :], params=diffusion_params("nu", 0.5),
                      provenance="static b")


def _density_drift(g, drift):
    """The ground state's OU drift at nu = 1/2 (``"ou"``) or b = 0
    (``"flat"``) on ``g``."""
    if drift == "ou":
        ws = analytic_oracle("ho_ground", None, g, [0.0])
        return drift_fields(ws, diffusion_params("nu", 0.5))
    return _static_drift(g, np.zeros(g.n))


def _density(n, drift, odd=0.0):
    """``(rho0, march)``: 1000 Fokker-Planck steps on n nodes of [-8, 8]
    under ``_density_drift``, from the ground density times
    ``1 + odd tanh(x)``."""
    g = Grid1D(-8.0, 8.0, n)
    df = _density_drift(g, drift)
    rho0 = ho_ground_density(g.x) * (1.0 + odd * np.tanh(g.x))
    rho0 = rho0 / g.trapezoid(rho0)
    return rho0, lambda: evolve_density_fokker_planck(df, rho0, 1e-3, 1000,
                                                      store_every=250).rho


# interior sizes 1599 and 1600 for the wave, grid sizes 2001 and 2000 for
# the density: one odd and one even fold of each; a real march is in the
# detailed-balance gauge and factored by dpttrf, a complex one by zgttrf
MARCHES = {
    "schrodinger_odd": (lambda **kw: _wave(1601, **kw), "zgttrf", 800, 1599),
    "schrodinger_even": (lambda **kw: _wave(1602, **kw), "zgttrf", 800,
                         1600),
    "fokker_planck_ou": (lambda **kw: _density(2001, "ou", **kw), "dpttrf",
                         1001, 2001),
    "fokker_planck_flat": (lambda **kw: _density(2000, "flat", **kw),
                           "dpttrf", 1000, 2000),
}


def _only(routine, sizes):
    """The ``factored`` record of a run that calls only ``routine``."""
    return {"zgttrf": [], "dgttrf": [], "dpttrf": [], routine: sizes}


@pytest.mark.parametrize("case", MARCHES)
def test_half_march_matches_the_full_size_march(case, factored, monkeypatch):
    """A mirror-even state under a mirror-symmetric static step matrix is
    marched on half the nodes, within 1e-12 of the full-size march's
    largest entry after 1000 steps (a bound fixed before the run), and the
    initial kept state is the input bit for bit."""
    build, routine, half, full = MARCHES[case]
    y0, march = build()
    got = march()
    ref = _full_size(monkeypatch, march)
    assert factored == _only(routine, [half, full])
    assert got.shape == ref.shape == (5, y0.size)
    assert np.array_equal(got[0], y0)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("case", MARCHES)
def test_mirror_odd_part_takes_the_full_march(case, factored, monkeypatch):
    """A mirror-odd part of 1e-8 is far above rounding: the state is not
    mirror-even, so it is marched on every node, with the bits of the
    full-size march, and its odd part is not dropped."""
    build, routine, _, full = MARCHES[case]
    y0, march = build(odd=1e-8)
    got = march()
    ref = _full_size(monkeypatch, march)
    assert factored == _only(routine, [full, full])
    assert np.array_equal(got, ref)
    assert np.array_equal(got[0], y0)


def test_fast_verify_factors_half_size_matrices_only(factored):
    """Every march of fast verify is static and mirror-even:
    ``schrodinger_stationary`` (6399 interior nodes) and
    ``free_packet_spreading`` (1599) by zgttrf, and both of
    ``fokker_planck_forward`` (8001 nodes) in the detailed-balance gauge
    by dpttrf."""
    from nelsonlab.harness.suite import verify_suite
    verify_suite("fast")
    assert factored == {"zgttrf": [3200, 800], "dgttrf": [],
                        "dpttrf": [4001, 4001]}


def _no_gauge(monkeypatch, march):
    """``march()`` with the detailed-balance gauge turned off: by ``?gttrf``
    and ``?gttrs``, as a march without a positive product runs."""
    with monkeypatch.context() as m:
        m.setattr(stepping, "_gauge", lambda bands: None)
        return march()


@pytest.mark.parametrize("fold", [True, False])
@pytest.mark.parametrize("drift, n", [("ou", 2001), ("ou", 2000),
                                      ("flat", 2000)])
def test_gauge_march_matches_the_gttrs_march(drift, n, fold, factored,
                                             monkeypatch):
    """A static Fokker-Planck march in the detailed-balance gauge, on half
    the nodes or on all of them, is within 1e-12 of the ``?gttrs`` march's
    largest entry after 1000 steps (a bound fixed before the run), and the
    initial kept state is the input bit for bit."""
    rho0, march = _density(n, drift)
    if fold:
        got, ref = march(), _no_gauge(monkeypatch, march)
    else:
        got = _full_size(monkeypatch, march)
        ref = _full_size(monkeypatch, lambda: _no_gauge(monkeypatch, march))
    size = n - n // 2 if fold else n
    assert factored == {"zgttrf": [], "dgttrf": [size], "dpttrf": [size]}
    assert got.shape == ref.shape == (5, n)
    assert np.array_equal(got[0], rho0)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _blocked_cell():
    """b = 0 but for two nodes at x = -6 where b = 60, so that the face
    between them has ``upper = nu/dx^2 - b/(2 dx) < 0``."""
    g = Grid1D(-8.0, 8.0, 801)
    b = np.zeros(g.n)
    b[100:102] = 60.0
    return g, b


def _steep_ou():
    """b = -20 x on 8001 nodes: ``ln D`` spans more than 600."""
    g = Grid1D(-8.0, 8.0, 8001)
    return g, -20.0 * g.x


# the blocked cell breaks the mirror symmetry, the steep OU drift is
# marched on half its nodes
@pytest.mark.parametrize("build, size", [(_blocked_cell, 801),
                                         (_steep_ou, 4001)])
def test_drift_outside_the_gauge_takes_gttrs(build, size, factored,
                                             monkeypatch):
    """A static drift with a face where ``lower * upper <= 0``, or whose
    ``D`` spans more than ``exp(600)``, is factored by ``dgttrf`` and
    marched with the bits of the march that has no gauge."""
    g, b = build()
    rho0 = np.exp(-10.0 * g.x ** 2)
    rho0 /= g.trapezoid(rho0)
    bands = [0.5e-3 * band for band in
             fokker_planck._generator_bands(b, 0.5, g.dx)]
    assert stepping._gauge(bands) is None
    march = lambda: evolve_density_fokker_planck(_static_drift(g, b), rho0,
                                                 1e-3, 20, store_every=5).rho
    got = march()
    ref = _no_gauge(monkeypatch, march)
    assert factored == {"zgttrf": [], "dgttrf": [size, size], "dpttrf": []}
    assert np.array_equal(got, ref)


def test_step_matrix_that_is_not_positive_definite_takes_gttrs(factored,
                                                               monkeypatch):
    """Positive products but ``1 - A`` indefinite: ``dpttrf`` refuses the
    factorization and the march keeps the bits of ``?gttrs``."""
    rng = np.random.default_rng(3)
    n = 9
    bands = (np.full(n, 3.0), np.full(n - 1, 1.0), np.full(n - 1, 2.0))
    y0 = rng.standard_normal(n)
    march = lambda: stepping.crank_nicolson(bands, y0, 0.1, 6, 2,
                                            lambda j, y: None)[1]
    got = march()
    ref = _no_gauge(monkeypatch, march)
    assert factored == {"zgttrf": [], "dgttrf": [n, n], "dpttrf": [n]}
    assert np.array_equal(np.array(got), np.array(ref))


@pytest.mark.parametrize("drift, node, dt", [("flat", 400, 5.0),
                                             ("ou", 500, 1.4e-3)])
def test_spike_instability_names_the_same_step_in_the_gauge(
        drift, node, dt, monkeypatch):
    """A spike whose first step goes below -1e-6 raises InstabilityError at
    the same step in the gauge (folded at the centre, full size off it) as
    by ``?gttrs``."""
    g = Grid1D(-8.0, 8.0, 801)
    rho0 = np.zeros(g.n)
    rho0[node] = 1.0
    rho0 /= g.trapezoid(rho0)
    df = _density_drift(g, drift)
    march = lambda: evolve_density_fokker_planck(df, rho0, dt, 3)
    steps = []
    for run in (march, lambda: _no_gauge(monkeypatch, march)):
        with pytest.raises(InstabilityError) as err:
            run()
        steps.append(re.search(r"at t=(\S+);", str(err.value)).group(1))
    assert steps == [f"{dt:.6g}"] * 2


def test_gauge_guard_sees_a_nan_state(factored):
    """A NaN in the state reaches the guard: the gauge passes it the
    scaled state whenever the minimum is not >= 0."""
    n = 11
    bands = (np.full(n, -0.2), np.full(n - 1, 0.1), np.full(n - 1, 0.1))
    bands[0][0] = bands[0][-1] = -0.1
    y0 = np.linspace(1.0, 2.0, n)
    y0[3] = np.nan
    seen = []
    stepping.crank_nicolson(bands, y0, 0.1, 2, 1,
                            lambda j, y: seen.append(j) if np.isnan(y).any()
                            else None)
    assert factored == {"zgttrf": [], "dgttrf": [], "dpttrf": [n]}
    assert seen == [1, 2]
