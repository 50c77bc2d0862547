import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nelsonlab import EmptyMaskError, Grid1D, InputError
from nelsonlab.fields import WaveSolution, decompose

TWO_PI = 2 * np.pi


def test_real_positive_wavefunction(grid801):
    x = grid801.x
    psi = np.pi ** -0.25 * np.exp(-x ** 2 / 2)
    R, S, mask = decompose(psi.astype(complex))
    ref = -x ** 2 / 2 - 0.25 * np.log(np.pi)
    assert np.max(np.abs(R - ref)[mask]) < 1e-12
    assert np.max(np.abs(S[mask])) == 0.0


def test_plane_wave_unwrapping(grid801):
    x = grid801.x
    k = 5.0  # many 2 pi windings across the box
    psi = np.exp(-x ** 2 / 2) * np.exp(1j * k * x)
    R, S, mask = decompose(psi)
    lin = S[mask] - k * x[mask]
    assert np.ptp(lin) < 1e-9           # continuous, no 2 pi jumps
    center = np.where(mask)[0]
    c = center[(center.size - 1) // 2]
    assert -np.pi < S[c] <= np.pi       # anchor window


def test_roundtrip_on_mask(grid801):
    x = grid801.x
    psi = np.exp(-x ** 2 / 4) * np.exp(1j * (0.3 * x ** 2 - 2 * x))
    psi /= np.sqrt(grid801.trapezoid(np.abs(psi) ** 2))
    R, S, mask = decompose(psi)
    err = np.abs(np.exp(R[mask] + 1j * S[mask]) - psi[mask])
    assert err.max() < 1e-8


def test_phase_undefined_outside_mask(grid801):
    x = grid801.x
    psi = np.exp(-x ** 2 / 2).astype(complex)
    _, S, mask = decompose(psi)
    assert (~mask).any()                 # the far tails fall below the floor
    assert np.isnan(S[~mask]).all()
    assert not np.isnan(S[mask]).any()


def test_independent_regions():
    g = Grid1D(-8.0, 8.0, 801)
    x = g.x
    psi = x * np.exp(-x ** 2 / 2) + 0j   # node at x = 0
    R, S, mask = decompose(psi)
    runs = np.diff(np.where(mask)[0])
    assert (runs > 1).any()              # the node splits the mask
    # left region carries phase pi (negative lobe), right region 0
    left = mask & (x < -0.5)
    right = mask & (x > 0.5)
    assert np.allclose(np.abs(S[left]), np.pi, atol=1e-12)
    assert np.allclose(S[right], 0.0, atol=1e-12)


def test_degenerate_inputs():
    g = Grid1D(-1.0, 1.0, 11)
    with pytest.raises(EmptyMaskError):
        decompose(np.zeros(11, dtype=complex))
    with pytest.raises(InputError):
        decompose(np.full(11, np.nan + 0j))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=3),
       st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
       st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
def test_roundtrip_property(n_osc, x0, k):
    """exp(R + iS) rebuilds any smooth normalizable field on its mask."""
    g = Grid1D(-10.0, 10.0, 401)
    x = g.x
    psi = np.exp(-(x - x0) ** 2 / 2) * np.exp(1j * k * x) \
        * (1.0 + 0.2 * np.cos(n_osc * x))
    R, S, mask = decompose(psi)
    err = np.abs(np.exp(R[mask] + 1j * S[mask]) - psi[mask])
    assert err.max() < 1e-8


def test_wave_solution_shapes_and_norms(grid801, ground):
    assert ground.n_times == 1
    assert np.abs(ground.norms() - 1).max() < 1e-8
    assert ground.rho(0).shape == (grid801.n,)
    with pytest.raises(InputError):
        WaveSolution(grid=grid801, times=np.array([0.0]),
                     psi=np.zeros((2, grid801.n), dtype=complex),
                     R=np.zeros((1, grid801.n)), S=np.zeros((1, grid801.n)),
                     mask=np.ones((1, grid801.n), bool))
