import tracemalloc

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
from nelsonlab.sampler.ensemble import BLOCK_PATHS
from nelsonlab.sampler.estimators import (ConditionalMomentTable, _as_edges,
                                          _bin_index)
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


def _flat_ensemble(paths, dt=0.5):
    """An ensemble over given paths, on a 17-node grid over [-8, 8]."""
    grid = Grid1D(-8.0, 8.0, 17)
    flat = DriftField(grid=grid, times=np.array([0.0]), b=np.zeros((1, grid.n)),
                      b_star=np.zeros((1, grid.n)),
                      params=diffusion_params("nu", 0.5), provenance="b=0")
    return Ensemble(paths=np.asfortranarray(paths), dt=dt, t0=0.0, seed=0,
                    drift=flat)


def test_mean_acceleration_is_the_symmetric_second_difference():
    e = _flat_ensemble(np.array([[0.0, 1.0, 4.0],
                                 [0.0, 1.2, 4.4]]))
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


def _assert_tables_equal_the_digitize_reduction(e, j, bins, min_count=50):
    dt = e.dt
    x0, x1, x2 = e.paths[:, j - 1], e.paths[:, j], e.paths[:, j + 1]
    cases = [
        (estimate_forward_drift, (x2 - x1) / dt),
        (estimate_backward_drift, (x1 - x0) / dt),
        (estimate_quadratic_variation, (x2 - x1) * (x2 - x1) / dt),
        (estimate_mean_acceleration, (x2 - 2.0 * x1 + x0) / dt ** 2),
    ]
    for estimate, values in cases:
        tab = estimate(e, j, bins=bins, min_count=min_count)
        ref = _digitize_bin_reduce(x1, values, tab.bin_edges, min_count)
        assert np.array_equal(tab.counts, ref.counts)
        assert tab.counts.dtype == ref.counts.dtype
        assert np.array_equal(tab.usable, ref.usable)
        assert np.array_equal(tab.estimate, ref.estimate, equal_nan=True)
        assert np.array_equal(tab.std_error, ref.std_error, equal_nan=True)


_TABLE_BINS = [None, 24, np.arange(-3.0, 3.01, 0.25),
               np.array([-2.0, -0.7, -0.1, 0.0, 0.05, 1.3, 4.0])]
_BINS_IDS = ["default", "count", "uniform", "irregular"]


@pytest.mark.parametrize("bins", _TABLE_BINS)
def test_tables_equal_the_digitize_reduction(ou, bins):
    _assert_tables_equal_the_digitize_reduction(ou, 10, bins)


@pytest.mark.parametrize("bins", _TABLE_BINS, ids=_BINS_IDS)
@pytest.mark.parametrize("n_paths", [BLOCK_PATHS - 1, BLOCK_PATHS,
                                     BLOCK_PATHS + 1, 5 * BLOCK_PATHS // 2],
                         ids=["block_less_1", "block", "block_plus_1",
                              "blocks_2.5"])
def test_tables_equal_the_digitize_reduction_across_blocks(n_paths, bins):
    """Samples on every edge, one ulp either side of it, NaN and +-inf are
    spread over the blocks; two samples in one bin step to +inf and -inf,
    so that bin's sums meet inf - inf.  Every table must equal the
    digitize + bincount reduction bit for bit."""
    rng = np.random.default_rng(n_paths)
    edges = _as_edges(_flat_ensemble(np.zeros((1, 3))), bins)
    special = np.concatenate([edges, np.nextafter(edges, -np.inf),
                              np.nextafter(edges, np.inf),
                              [np.nan, np.inf, -np.inf]])
    x1 = rng.uniform(edges[0] - 1.0, edges[-1] + 1.0, n_paths)
    # the last sample, on the first edge, is in the table
    x1[np.linspace(0, n_paths - 1, special.size).astype(int)] = special[::-1]
    x0 = x1 + rng.normal(0.0, 0.3, n_paths)
    x2 = x1 + rng.normal(0.0, 0.3, n_paths)
    x0[~np.isfinite(x0)] = 0.0
    x2[~np.isfinite(x2)] = 0.0
    inner = np.flatnonzero((x1 > edges[0]) & (x1 < edges[1]))[:2]
    x2[inner] = [np.inf, -np.inf]
    e = _flat_ensemble(np.stack([x0, x1, x2], axis=1), dt=0.01)
    _assert_tables_equal_the_digitize_reduction(e, 1, bins, min_count=2)


@pytest.mark.parametrize("bins", _TABLE_BINS, ids=_BINS_IDS)
def test_histogram_counts_equal_np_histogram(bins):
    """Positions on every edge, the top edge and the walls (``default_bins``)
    included, across three blocks: the counts are np.histogram's, which
    closes the last bin."""
    rng = np.random.default_rng(5)
    e0 = _flat_ensemble(np.zeros((1, 1)))
    edges = _as_edges(e0, bins)
    n = 3 * BLOCK_PATHS + 17
    x = rng.uniform(edges[0] - 1.0, edges[-1] + 1.0, n)
    special = np.concatenate([edges, np.nextafter(edges, -np.inf),
                              np.nextafter(edges, np.inf), [e0.x_min, e0.x_max],
                              np.repeat(edges[-1], 40), [np.inf, -np.inf]])
    x[rng.choice(n, special.size, replace=False)] = special
    e = _flat_ensemble(x[:, None])
    out_edges, dens, se = density_histogram(e, 0, bins=bins)
    ref, _ = np.histogram(x, bins=edges)
    assert np.array_equal(out_edges, edges)
    counts = np.rint(dens * np.diff(edges) * ref.sum()).astype(int)
    assert np.array_equal(counts, ref)
    p = ref / ref.sum()
    assert np.array_equal(dens, p / np.diff(edges))
    assert np.array_equal(se, np.sqrt(p * (1.0 - p) / ref.sum())
                          / np.diff(edges))


def test_histogram_of_no_inside_position_is_all_zeros():
    e = _flat_ensemble(np.array([[-9.0], [9.0]]))
    edges, dens, se = density_histogram(e, 0, bins=np.array([-1.0, 0.0, 1.0]))
    assert np.array_equal(dens, np.zeros(2))
    assert np.array_equal(se, np.zeros(2))


def test_estimator_call_holds_no_full_column():
    """An estimator over eight blocks holds at most a few block-sized
    temporaries at once, never one as long as a stored column."""
    n = 8 * BLOCK_PATHS
    e = _flat_ensemble(np.random.default_rng(3).normal(size=(n, 3)), dt=0.01)
    estimate_forward_drift(e, 1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        estimate_forward_drift(e, 1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    column = n * e.paths.itemsize
    assert peak < column // 2, (peak, column)
    assert peak < 4 * BLOCK_PATHS * e.paths.itemsize, peak


_BAD_STEPS = [(1.5, "float"), (np.float64(1), "numpy_float"), (True, "bool"),
              (np.bool_(True), "numpy_bool"), ("1", "str"), (None, "none"),
              (np.array(1), "zero_d_array")]


@pytest.mark.parametrize("t_j", [t for t, _ in _BAD_STEPS],
                         ids=[name for _, name in _BAD_STEPS])
@pytest.mark.parametrize("estimate", [estimate_forward_drift,
                                      estimate_backward_drift,
                                      estimate_quadratic_variation,
                                      estimate_mean_acceleration,
                                      density_histogram])
def test_step_index_must_be_an_integer(estimate, t_j):
    e = _flat_ensemble(np.zeros((1000, 4)))
    with pytest.raises(InputError, match="t_j must be an integer"):
        estimate(e, t_j)


@pytest.mark.parametrize("estimate", [estimate_forward_drift,
                                      estimate_backward_drift,
                                      estimate_quadratic_variation,
                                      estimate_mean_acceleration,
                                      density_histogram])
def test_numpy_integer_steps_are_accepted(estimate):
    e = _flat_ensemble(np.random.default_rng(2).normal(size=(1000, 4)))
    plain = estimate(e, 2)
    for j in (np.int64(2), np.int32(2), np.uint8(2)):
        got = estimate(e, j)
        if isinstance(got, ConditionalMomentTable):
            got, ref = (got.counts, got.estimate), (plain.counts, plain.estimate)
        else:
            ref = plain
        for a, b in zip(got, ref):
            assert np.array_equal(a, b, equal_nan=True)


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
