import numpy as np
import pytest

from nelsonlab import (Grid1D, InputError, UnsupportedConfigError,
                       continue_to_imaginary, diffusion_params)
from nelsonlab.fields import WaveSolution, analytic_oracle, drift_fields
from nelsonlab.fields.drift import (DEFAULT_B_CAP, DriftField,
                                    log_density_gradient)
from nelsonlab.finitediff import gradient


def _interior(ws):
    m = ws.mask[0]
    out = m & np.roll(m, 2) & np.roll(m, -2)
    out[:2] = out[-2:] = False
    return out


def test_ground_state_drifts(grid801, ground, p_half):
    df = drift_fields(ground, p_half)
    sel = _interior(ground)
    x = grid801.x
    assert np.max(np.abs(df.b[0] + x)[sel]) < 1e-10       # b = -2 nu x
    assert np.max(np.abs(df.b_star[0] - x)[sel]) < 1e-10  # b* = +2 nu x


def test_osmotic_identity_exact_by_construction(ground, p_half):
    df = drift_fields(ground, p_half)
    resid = (df.b[0] - df.b_star[0]) / 2 - 0.5 * log_density_gradient(ground, 0)
    assert np.max(np.abs(resid)) == 0.0


def test_current_part_is_nu_independent(grid801, ground):
    k = 3.0
    psi_k = ground.psi[0] * np.exp(1j * k * grid801.x)
    ws_k = WaveSolution(grid801, [0.0], psi_k)
    sel = _interior(ws_k)
    for nu in (0.5, 2.0):
        p = diffusion_params("nu", nu)
        base = drift_fields(ground, p).b[0]
        with_k = drift_fields(ws_k, p).b[0]
        assert np.max(np.abs(with_k - base - k)[sel]) < 1e-10


def test_osmotic_scaling_exact(grid801, ground):
    b1 = drift_fields(ground, diffusion_params("nu", 0.5)).b[0]
    b2 = drift_fields(ground, diffusion_params("nu", 2.0)).b[0]
    dR = gradient(ground.R[0], grid801.dx)
    assert np.max(np.abs(b2 - b1 - 2 * 1.5 * dR)) == 0.0


def test_continued_mode_rejected(ground, p_half):
    pc = continue_to_imaginary(p_half, "minus")
    with pytest.raises(UnsupportedConfigError):
        drift_fields(ground, pc)


def test_nodal_guard_caps_drift():
    """A box state's density falls from its peak to zero within one node,
    so the unclamped osmotic drift just outside its mask is above the cap."""
    g = Grid1D(-2.0, 2.0, 801)
    ws = WaveSolution(g, [0.0], (np.abs(g.x) < 1.0).astype(complex))
    p = diffusion_params("nu", 0.5)
    outside = ~ws.mask[0]
    unclamped = 2.0 * p.nu_real * gradient(ws.R[0], g.dx)
    assert np.max(np.abs(unclamped[outside])) > DEFAULT_B_CAP
    df = drift_fields(ws, p)
    assert np.all(np.isfinite(df.b)) and np.all(np.isfinite(df.b_star))
    assert np.max(np.abs(df.b[0][outside])) == DEFAULT_B_CAP
    assert np.max(np.abs(df.b_star[0][outside])) == DEFAULT_B_CAP


def test_time_interpolation(grid801):
    times = [0.0, 1.0]
    ws = analytic_oracle("ho_coherent", {"x0": 1.0}, grid801, times)
    df = drift_fields(ws, diffusion_params("nu", 0.5))
    mid = df.b_on_grid(0.5)
    assert np.allclose(mid, 0.5 * (df.b[0] + df.b[1]))
    # clamping at the ends of the stored range
    assert np.array_equal(df.b_on_grid(-1.0), df.b[0])
    assert np.array_equal(df.b_on_grid(2.0), df.b[1])


@pytest.mark.parametrize("times", [[1.0, 0.0], [0.5, 0.5], [0.0, np.nan],
                                   [0.0, np.inf]],
                         ids=["decreasing", "repeated", "nan", "inf"])
def test_hand_built_drift_refuses_times_it_cannot_bisect(grid801, p_half,
                                                         times):
    """Built by hand with ``times = [1, 0]``, ``b_on_grid(0.0)`` used to
    return the t = 1 row; such times are now refused when built."""
    b = np.zeros((2, grid801.n))
    with pytest.raises(InputError, match="strictly increasing"):
        DriftField(grid=grid801, times=np.array(times), b=b, b_star=b,
                   params=p_half)


def test_pointwise_interpolation_matches_linear(grid801, ground, p_half, rng):
    df = drift_fields(ground, p_half)
    x = rng.uniform(-8, 8, 5000)
    ref = np.interp(x, grid801.x, df.b_on_grid(0.0))
    assert np.max(np.abs(df.b_at(0.0, x) - ref)) < 1e-12


def _blend_b_at(df, t, x):
    """The former formula: clip, cast, clamp the cell, two gathers, blend."""
    row = df.b_on_grid(t)
    grid = df.grid
    u = (np.asarray(x, dtype=float) - grid.x_min) / grid.dx
    u = np.clip(u, 0.0, grid.n - 1.0)
    i = np.minimum(u.astype(np.intp), grid.n - 2)
    w = u - i
    return row[i] * (1.0 - w) + row[i + 1] * w


@pytest.mark.parametrize("state, times", [
    ("ho_ground", [0.0]),
    ("ho_coherent", [0.0, 0.4, 0.9, 1.5]),
])
def test_slope_table_b_at_matches_blend(grid801, state, times, rng):
    params = {"x0": 1.0} if state == "ho_coherent" else None
    ws = analytic_oracle(state, params, grid801, times)
    df = drift_fields(ws, diffusion_params("nu", 0.5))
    x = np.concatenate([rng.uniform(-10.0, 10.0, 20_000), grid801.x,
                        [-8.0, 8.0, -1e9, 1e9, -np.inf, np.inf]])
    limit = 1e-13 * np.max(np.abs(df.b))
    for t in (-1.0, *times, 0.2, 1.1, 3.0):
        assert np.max(np.abs(df.b_at(t, x) - _blend_b_at(df, t, x))) <= limit
    # outside the box: the value at the nearest wall
    assert df.b_at(0.0, np.array([-9.0]))[0] == df.b_on_grid(0.0)[0]
    assert df.b_at(0.0, np.array([9.0]))[0] == df.b_on_grid(0.0)[-1]


def test_b_at_keeps_the_shape_of_x(grid801, ground, p_half):
    df = drift_fields(ground, p_half)
    assert np.shape(df.b_at(0.0, 0.5)) == ()
    assert df.b_at(0.0, np.zeros((3, 4))).shape == (3, 4)
    assert df.b_at(0.0, np.empty(0)).shape == (0,)


def _searched_b_on_grid(df, t):
    """The former time bracket: np.searchsorted on one scalar."""
    times = df.times
    if df.static or t <= times[0]:
        i, k, w = 0, 0, 0.0
    elif t >= times[-1]:
        i = k = times.size - 1
        w = 0.0
    else:
        i = int(np.searchsorted(times, t, side="right") - 1)
        k = i + 1
        w = (t - times[i]) / (times[i + 1] - times[i])
    return (1.0 - w) * df.b[i] + w * df.b[k]


def test_b_on_grid_equals_the_searched_bracket(grid801, p_half, rng):
    times = np.sort(rng.uniform(0.0, 3.0, 157))
    b = rng.normal(size=(times.size, grid801.n))
    df = DriftField(grid=grid801, times=times, b=b, b_star=-b, params=p_half)
    mids = 0.5 * (times[1:] + times[:-1])
    probes = np.concatenate([
        times, np.nextafter(times, -np.inf), np.nextafter(times, np.inf),
        mids, [-1.0, times[0] - 1e-12, times[-1] + 1e-12, 4.0]])
    for t in probes:
        assert np.array_equal(df.b_on_grid(t), _searched_b_on_grid(df, t))
