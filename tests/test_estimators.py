import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nelsonlab import Grid1D, InputError, diffusion_params
from nelsonlab.fields import drift_fields, ho_ground_density
from nelsonlab.fields.drift import DriftField
from nelsonlab.sampler import (Ensemble, density_histogram,
                               estimate_backward_drift, estimate_forward_drift,
                               estimate_mean_acceleration,
                               estimate_quadratic_variation,
                               histogram_l1_distance, sample_initial,
                               simulate_ensemble)
from nelsonlab.sampler.estimators import ConditionalMomentTable, _bin_index
from nelsonlab.harness.files import export_table_csv


@pytest.fixture(scope="module")
def ou(grid801_module):
    grid, ground, p = grid801_module
    df = drift_fields(ground, p)
    x0 = sample_initial(ho_ground_density(grid.x), grid, 100_000, seed=42)
    return simulate_ensemble(df, x0, p, 0.01, 20, seed=42)


@pytest.fixture(scope="module")
def grid801_module():
    from nelsonlab.fields import analytic_oracle
    grid = Grid1D(-8.0, 8.0, 801)
    ground = analytic_oracle("ho_ground", None, grid, [0.0])
    return grid, ground, diffusion_params("nu", 0.5)


def test_forward_drift_recovers_generator(ou):
    tab = estimate_forward_drift(ou, 10, bins=24)
    sel = tab.counts >= 500
    dev = np.abs(tab.estimate[sel] - (-tab.centers[sel])) / tab.std_error[sel]
    assert dev.max() < 3.0


def test_backward_drift_sign_flip(ou):
    tab = estimate_backward_drift(ou, 10, bins=24)
    sel = tab.counts >= 500
    dev = np.abs(tab.estimate[sel] - (+tab.centers[sel])) / tab.std_error[sel]
    assert dev.max() < 3.0


def test_driftless_estimates_vanish(grid801_module):
    grid, _, p = grid801_module
    df = DriftField(grid=grid, times=np.array([0.0]), b=np.zeros((1, grid.n)),
                    b_star=np.zeros((1, grid.n)), params=p, provenance="b=0")
    # uniform stationary start in the box
    rho0 = np.ones(grid.n) / (grid.x_max - grid.x_min)
    x0 = sample_initial(rho0, grid, 100_000, seed=17)
    e = simulate_ensemble(df, x0, p, 0.01, 4, seed=17)
    fwd = estimate_forward_drift(e, 2, bins=16)
    bwd = estimate_backward_drift(e, 2, bins=16)
    central = np.abs(fwd.centers) < 5.0   # away from the reflecting walls
    for tab in (fwd, bwd):
        sel = tab.usable & central
        assert np.all(np.abs(tab.estimate[sel]) < 3 * tab.std_error[sel])


def test_quadratic_variation_recovers_2nu(grid801_module):
    grid, ground, p = grid801_module
    df = drift_fields(ground, p)
    x0 = sample_initial(ho_ground_density(grid.x), grid, 100_000, seed=8)
    e = simulate_ensemble(df, x0, p, 1e-3, 10, seed=8)
    tab = estimate_quadratic_variation(e, 5, bins=20)
    sel = tab.counts >= 2000
    assert np.all(np.abs(tab.estimate[sel] - 1.0) < 0.02)


def test_mean_acceleration_is_the_symmetric_second_difference():
    paths = np.array([[0.0, 1.0, 4.0],
                      [0.0, 1.2, 4.4]])
    grid = Grid1D(-8.0, 8.0, 17)
    flat = DriftField(grid=grid, times=np.array([0.0]), b=np.zeros((1, grid.n)),
                      b_star=np.zeros((1, grid.n)),
                      params=diffusion_params("nu", 0.5), provenance="b=0")
    e = Ensemble(paths=paths, dt=0.5, t0=0.0, seed=0, drift=flat)
    tab = estimate_mean_acceleration(e, 1, bins=np.array([0.5, 1.5]),
                                     min_count=1)
    # ((4 - 2 + 0) + (4.4 - 2.4 + 0)) / 2 / 0.25
    assert tab.estimate[0] == pytest.approx(8.0)


def test_endpoint_indices_rejected(ou):
    with pytest.raises(InputError):
        estimate_forward_drift(ou, ou.n_steps)
    with pytest.raises(InputError):
        estimate_backward_drift(ou, 0)
    with pytest.raises(InputError):
        estimate_mean_acceleration(ou, 0)
    with pytest.raises(InputError):
        estimate_mean_acceleration(ou, ou.n_steps)


def test_single_path_all_bins_unusable(grid801_module):
    grid, ground, p = grid801_module
    df = drift_fields(ground, p)
    e = simulate_ensemble(df, np.zeros(1), p, 0.01, 4, seed=1)
    tab = estimate_forward_drift(e, 2, bins=16)
    assert not tab.usable.any()
    assert np.isnan(tab.estimate).all()


def test_min_occupancy_flags(ou):
    tab = estimate_forward_drift(ou, 10, bins=60, min_count=50)
    assert tab.usable.sum() < 60          # tails starve
    assert (tab.counts[tab.usable] >= 50).all()
    assert np.isnan(tab.estimate[~tab.usable]).all()


def test_density_histogram_and_l1(ou):
    edges, dens, se = density_histogram(ou, 20, bins=np.arange(-4, 4.01, 0.2))
    widths = np.diff(edges)
    assert abs(np.sum(dens * widths) - 1.0) < 1e-12
    l1 = histogram_l1_distance(edges, dens, lambda x: ho_ground_density(x))
    assert l1 < 0.02
    assert np.all(se[dens > 0] > 0)


def test_l1_reference_is_a_function_only(ou):
    edges, dens, _ = density_histogram(ou, 20, bins=np.arange(-4, 4.01, 0.2))
    with pytest.raises(TypeError):
        histogram_l1_distance(edges, dens, ho_ground_density,
                              grid=Grid1D(-4.0, 4.0, 41))


def test_bad_bins_rejected(ou):
    with pytest.raises(InputError):
        estimate_forward_drift(ou, 1, bins=np.array([1.0, 0.5]))


@pytest.mark.parametrize("bins", [[0.0, np.nan, 1.0], [-np.inf, 0.0, np.inf],
                                  0, 2.5, True, -3])
@pytest.mark.parametrize("estimate", [estimate_forward_drift,
                                      density_histogram])
def test_bad_bin_edges_and_counts_rejected(ou, bins, estimate):
    with pytest.raises(InputError):
        estimate(ou, 1, bins=bins)


def _digitize_bin_reduce(cond, values, edges, min_count):
    """The reference reduction: np.digitize, then bincount in sample order."""
    nb = edges.size - 1
    idx = np.digitize(cond, edges)
    inside = slice(1, nb + 1)
    counts = np.bincount(idx, minlength=nb + 2)[inside]
    sums = np.bincount(idx, weights=values, minlength=nb + 2)[inside]
    sq = np.bincount(idx, weights=values * values, minlength=nb + 2)[inside]
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = sums / counts
        var = np.maximum(sq / counts - mean * mean, 0.0)
        sem = np.sqrt(var / np.maximum(counts - 1, 1))
    usable = counts >= max(min_count, 2)
    mean[~usable] = np.nan
    sem[~usable] = np.nan
    return ConditionalMomentTable(bin_edges=edges, counts=counts,
                                  estimate=mean, std_error=sem,
                                  usable=usable)


@pytest.mark.parametrize("bins", [None, 24, np.arange(-3.0, 3.01, 0.25),
                                  np.array([-2.0, -0.7, -0.1, 0.0, 0.05,
                                            1.3, 4.0])])
def test_tables_equal_the_digitize_reduction(ou, bins):
    j, dt = 10, ou.dt
    x0, x1, x2 = ou.paths[:, j - 1], ou.paths[:, j], ou.paths[:, j + 1]
    cases = [
        (estimate_forward_drift, (x2 - x1) / dt),
        (estimate_quadratic_variation, (x2 - x1) * (x2 - x1) / dt),
        (estimate_mean_acceleration, (x2 - 2.0 * x1 + x0) / dt ** 2),
    ]
    for estimate, values in cases:
        tab = estimate(ou, j, bins=bins)
        ref = _digitize_bin_reduce(x1, values, tab.bin_edges, 50)
        assert np.array_equal(tab.counts, ref.counts)
        assert np.array_equal(tab.usable, ref.usable)
        assert np.array_equal(tab.estimate, ref.estimate, equal_nan=True)
        assert np.array_equal(tab.std_error, ref.std_error, equal_nan=True)


_EDGES = st.one_of(
    st.builds(lambda lo, step, n: np.arange(lo, lo + n * step, step),
              st.floats(-5.0, 5.0), st.sampled_from([0.1, 0.2, 0.25, 0.3, 0.7]),
              st.integers(2, 40)),
    st.builds(lambda lo, width, nb: np.linspace(lo, lo + width, nb + 1),
              st.floats(-1e3, 1e3), st.floats(1e-6, 1e3), st.integers(1, 60)),
    st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30,
             unique=True).map(lambda v: np.array(sorted(v))),
).filter(lambda e: e.size >= 2 and np.all(np.diff(e) > 0))


@settings(max_examples=200, deadline=None)
@given(_EDGES, st.lists(st.floats(allow_nan=True, allow_infinity=True),
                        max_size=50), st.integers(0, 2 ** 32 - 1))
def test_bin_index_agrees_with_digitize(edges, extra, seed):
    nb = edges.size - 1
    spread = np.random.default_rng(seed).uniform(
        edges[0] - 1.0, edges[-1] + 1.0, 200)
    x = np.concatenate([
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        [np.nan, np.inf, -np.inf], spread, extra])
    for sample in (x, np.empty(0)):
        got = _bin_index(sample, edges)
        ref = np.digitize(sample, edges)
        inside = (ref >= 1) & (ref <= nb)
        assert got.shape == sample.shape
        assert np.array_equal(got[inside], ref[inside])
        assert np.all((got[~inside] == 0) | (got[~inside] == nb + 1))


def test_table_csv(tmp_path, ou):
    tab = estimate_forward_drift(ou, 10, bins=10)
    path = export_table_csv(tmp_path / "tab.csv", tab)
    lines = path.read_text().splitlines()
    assert lines[0] == "bin_center,count,estimate,std_error"
    assert len(lines) == 11


def test_mean_acceleration_driftless_within_3se(grid801_module):
    grid, _, p = grid801_module
    df = DriftField(grid=grid, times=np.array([0.0]), b=np.zeros((1, grid.n)),
                    b_star=np.zeros((1, grid.n)), params=p, provenance="b=0")
    rho0 = np.ones(grid.n) / (grid.x_max - grid.x_min)
    x0 = sample_initial(rho0, grid, 100_000, seed=23)
    e = simulate_ensemble(df, x0, p, 0.01, 4, seed=23)
    tab = estimate_mean_acceleration(e, 2, bins=12)
    sel = tab.usable & (np.abs(tab.centers) < 5.0)
    assert np.all(np.abs(tab.estimate[sel]) < 3 * tab.std_error[sel])


def test_many_path_histogram_tracks_diffused_gaussian(grid801_module):
    """Central limit of the scheme: a million driftless paths land on the
    analytically diffused density."""
    grid, _, p = grid801_module
    df = DriftField(grid=grid, times=np.array([0.0]), b=np.zeros((1, grid.n)),
                    b_star=np.zeros((1, grid.n)), params=p, provenance="b=0")
    sig0 = 0.7
    rho0 = np.exp(-grid.x ** 2 / (2 * sig0 ** 2))
    rho0 /= grid.trapezoid(rho0)
    x0 = sample_initial(rho0, grid, 1_000_000, seed=29)
    e = simulate_ensemble(df, x0, p, 0.01, 2, seed=29)
    var_t = sig0 ** 2 + 2 * p.nu_real * 0.02
    edges, dens, _ = density_histogram(e, 2, bins=np.arange(-4, 4.01, 0.2))
    ref = lambda x: np.exp(-x ** 2 / (2 * var_t)) / np.sqrt(2 * np.pi * var_t)
    assert histogram_l1_distance(edges, dens, ref) < 0.01
