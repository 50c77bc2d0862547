import csv
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri

from nelsonlab import (Grid1D, InputError, NumericalBreakdownError,
                       UnsupportedConfigError, diffusion_params,
                       continue_to_imaginary)
from nelsonlab.fields import analytic_oracle, drift_fields, ho_ground_density
from nelsonlab.sampler import (ensemble_steps, reflect, sample_initial,
                               simulate_ensemble, step_normals,
                               stream_uniforms)
from nelsonlab.fields.drift import DriftField
from nelsonlab.harness.files import (export_ensemble_binary,
                                     export_ensemble_csv, load_ensemble_binary)


def _stream_normals(seed, tag, n):
    """The full row of normals that ``step_normals`` slices."""
    return ndtri(stream_uniforms(seed, tag, n))


def _flat_drift(grid, nu=0.5):
    return DriftField(grid=grid, times=np.array([0.0]),
                      b=np.zeros((1, grid.n)), b_star=np.zeros((1, grid.n)),
                      params=diffusion_params("nu", nu), provenance="b=0")


def test_sample_initial_moments(grid801):
    rho0 = ho_ground_density(grid801.x)
    x = sample_initial(rho0, grid801, 100_000, seed=5)
    se_mean = np.sqrt(0.5 / x.size)
    se_var = 0.5 * np.sqrt(2 / (x.size - 1))
    assert abs(x.mean()) < 3 * se_mean
    assert abs(x.var() - 0.5) < 3 * se_var


def test_sample_initial_edge_cases(grid801):
    rho0 = ho_ground_density(grid801.x)
    assert sample_initial(rho0, grid801, 0, 1).size == 0
    spike = np.zeros(grid801.n)
    spike[100] = 1.0
    xs = sample_initial(spike / grid801.trapezoid(spike), grid801, 500, 2)
    assert np.all(np.abs(xs - grid801.x[100]) <= grid801.dx)
    with pytest.raises(InputError):
        sample_initial(np.zeros(grid801.n), grid801, 10, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sample_initial_rejects_non_finite_density(grid801, bad):
    rho0 = ho_ground_density(grid801.x)
    rho0[400] = bad
    with pytest.raises(InputError, match="finite"):
        sample_initial(rho0, grid801, 100, seed=1)


def test_sample_initial_deterministic(grid801):
    rho0 = ho_ground_density(grid801.x)
    a = sample_initial(rho0, grid801, 1000, seed=7)
    b = sample_initial(rho0, grid801, 1000, seed=7)
    assert np.array_equal(a, b)
    c = sample_initial(rho0, grid801, 1000, seed=8)
    assert not np.array_equal(a, c)


def test_wiener_variance_law(grid801):
    """Driftless paths spread with variance exactly 2 nu t."""
    nu, dt, n = 0.5, 1e-3, 100_000
    df = _flat_drift(grid801, nu)
    e = simulate_ensemble(df, np.zeros(n), diffusion_params("nu", nu),
                          dt, 50, seed=11)
    t = 50 * dt
    var = e.positions(50).var()
    se = 2 * nu * t * np.sqrt(2.0 / n)
    assert abs(var - 2 * nu * t) < 3 * se


def test_ou_stationary_variance(grid801, ground, p_half):
    """Linear-drift ensemble relaxes to variance nu/gamma within 1%."""
    df = drift_fields(ground, p_half)
    rng = np.random.default_rng(0)
    x0 = rng.normal(0.0, 0.1, 100_000)      # start far from stationarity
    e = simulate_ensemble(df, x0, p_half, 5e-3, 2000, seed=13,
                          store_every=200)  # t = 10
    assert abs(e.positions(e.n_steps).var() - 0.5) / 0.5 < 0.01


def test_schedule_independence(grid801, ground, p_half):
    df = drift_fields(ground, p_half)
    x0 = sample_initial(ho_ground_density(grid801.x), grid801, 3000, seed=3)
    runs = [simulate_ensemble(df, x0, p_half, 1e-3, 30, seed=3, n_workers=w)
            for w in (1, 4, 8)]
    assert np.array_equal(runs[0].paths, runs[1].paths)
    assert np.array_equal(runs[0].paths, runs[2].paths)


@pytest.mark.parametrize("dt", [1e-3, 2e-3])
def test_member_is_half_member_on_another_clock(grid801, ground, p_half, dt):
    """On a one-time drift table the member at (nu, dt) is the nu = 1/2
    member at 2 nu dt, bit for bit: the drift and the noise variance both
    scale by 2 nu."""
    x0 = sample_initial(ho_ground_density(grid801.x), grid801, 3000, seed=4)
    half = drift_fields(ground, p_half)
    for nu in (1.0, 2.0, 4.0):
        p = diffusion_params("nu", nu)
        df = drift_fields(ground, p)
        for w in (1, 3):
            e = simulate_ensemble(df, x0, p, dt, 30, seed=4, n_workers=w)
            ref = simulate_ensemble(half, x0, p_half, 2 * nu * dt, 30,
                                    seed=4, n_workers=w)
            assert np.array_equal(e.paths, ref.paths), (nu, w)


def _serial_reference(df, x0, p, dt, n_steps, seed):
    """Unsharded Euler-Maruyama loop on full noise rows, every step kept."""
    lo, hi = df.grid.x_min, df.grid.x_max
    sigma = np.sqrt(2.0 * p.nu_real * dt)
    x = reflect(x0, lo, hi)
    cols = [x]
    for j in range(n_steps):
        z = _stream_normals(seed, j, x.size)
        x = reflect(x + df.b_at(j * dt, x) * dt + sigma * z, lo, hi)
        cols.append(x)
    return np.stack(cols, axis=1)


def test_shards_and_blocks_match_serial_loop(grid801, p_half):
    """Shard edges off the Philox word boundary, shards longer than one
    block, and paths that hit the walls all reproduce the serial loop, on
    the static ground-state drift and on the coherent packet's drift,
    whose tables change at every step; so do kept step sets that skip
    steps or do not start at step 0."""
    dt, n_steps = 5e-3, 12
    # 80 snapshots give every step of the packet a drift row of its own
    times = np.linspace(0.0, (n_steps + 1) * dt, 80)
    for state, params, ts in (("ho_ground", None, times[:1]),
                              ("ho_coherent", {"x0": 1.0}, times)):
        ws = analytic_oracle(state, params, grid801, ts)
        df = drift_fields(ws, p_half)
        x0 = sample_initial(ws.rho(0), grid801, 70_001, seed=5)
        x0[:300] = 7.99                       # reflect at the right wall
        ref = _serial_reference(df, x0, p_half, dt, n_steps, seed=5)
        first = (x0 + df.b_at(0.0, x0) * dt
                 + np.sqrt(2 * 0.5 * dt) * _stream_normals(5, 0, x0.size))
        assert np.count_nonzero(first > grid801.x_max) > 10
        for w in (None, 1, 2, 3, 8):
            e = simulate_ensemble(df, x0, p_half, dt, n_steps, seed=5,
                                  n_workers=w)
            assert e.paths.flags.f_contiguous
            assert np.array_equal(e.paths, ref), (state, w)
            for keep in ([0, 1, 5, 12], [2, 3, 7, 12]):
                kept = ensemble_steps(df, x0, dt, keep, seed=5, n_workers=w)
                assert kept.flags.f_contiguous
                assert np.array_equal(kept, ref[:, keep]), (state, w, keep)
    with pytest.raises(InputError):
        simulate_ensemble(df, x0, p_half, dt, n_steps, seed=5, n_workers=0)


def test_threaded_march_survives_fast_thread_switching(grid801, ground,
                                                      p_half):
    """Eight shards on two or more threads each, the interpreter switching
    threads every microsecond: every stored column is still the serial
    loop's, so no shard wrote another's rows or lost a step."""
    df = drift_fields(ground, p_half)
    x0 = sample_initial(ho_ground_density(grid801.x), grid801, 9_001, seed=6)
    ref = _serial_reference(df, x0, p_half, 5e-3, 12, seed=6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            e = simulate_ensemble(df, x0, p_half, 5e-3, 12, seed=6,
                                  n_workers=8, store_every=2)
            assert np.array_equal(e.paths, ref[:, ::2])
    finally:
        sys.setswitchinterval(interval)


def _nan_node_drift():
    """Drift 500 to the right on a unit-spaced grid, NaN at the node x = 0:
    a path within one cell of x = 0 goes non-finite on its next step."""
    grid = Grid1D(-8.0, 8.0, 17)
    b = np.full((1, grid.n), 500.0)
    b[0, 8] = np.nan
    return DriftField(grid=grid, times=np.array([0.0]), b=b, b_star=b.copy(),
                      params=diffusion_params("nu", 0.5), provenance="nan node")


@pytest.mark.parametrize("n_workers", [None, 1, 2, 3, 8])
@pytest.mark.parametrize("late, early, expected", [
    # paths at -1.25 go bad at step 2, paths at -0.25 at step 1
    ({2: -1.25}, {5: -0.25, 10: -0.25}, "path 5 at step 1"),
    ({1: -1.25}, {9: -0.25}, "path 9 at step 1"),
])
def test_nonfinite_report_is_partition_independent(n_workers, late, early,
                                                   expected, monkeypatch):
    df = _nan_node_drift()
    # let the NaN node past the up-front dt guard, so the per-step report runs
    monkeypatch.setattr(df, "max_abs_b", lambda: 500.0)
    x0 = np.full(12, -5.0)
    for k, v in {**late, **early}.items():
        x0[k] = v
    with pytest.raises(NumericalBreakdownError, match=expected):
        simulate_ensemble(df, x0, df.params, 1e-3, 3, seed=1,
                          n_workers=n_workers)
    # kept sets that skip the bad step still name it
    for keep in ([3], [0, 2, 3]):
        with pytest.raises(NumericalBreakdownError, match=expected):
            ensemble_steps(df, x0, 1e-3, keep, seed=1, n_workers=n_workers)


@pytest.mark.parametrize("n_workers", [None, 1, 3, 8])
def test_ensemble_steps_yield_the_stored_paths(grid801, ground, p_half,
                                               n_workers):
    """``simulate_ensemble`` stores what ``ensemble_steps`` keeps on
    ``range(0, n + 1, every)``, for every partition; on two or more cores
    None makes two shards."""
    df = drift_fields(ground, p_half)
    x0 = sample_initial(ho_ground_density(grid801.x), grid801, 40_000, seed=7)
    x0[:200] = 7.99                       # reflect at the right wall
    for every in (1, 2, 3):
        kept = ensemble_steps(df, x0, 5e-3, range(0, 7, every), seed=7,
                              n_workers=n_workers)
        e = simulate_ensemble(df, x0, p_half, 5e-3, 6, seed=7,
                              store_every=every)
        assert np.array_equal(kept, e.paths), every


def _no_threads(*args, **kwargs):
    raise AssertionError("a thread pool was started")


@pytest.mark.parametrize("args, kwargs, error", [
    ((np.zeros(5), "continued", 1e-3, [0, 3]), {}, UnsupportedConfigError),
    ((np.zeros(5), "real", 0.0, [0, 3]), {}, InputError),
    ((np.zeros(5), "real", -1e-3, [0, 3]), {}, InputError),
    ((np.zeros((5, 2)), "real", 1e-3, [0, 3]), {}, InputError),
    ((np.array([0.0, np.nan]), "real", 1e-3, [0, 3]), {},
     NumericalBreakdownError),
    ((np.zeros(5), "real", 1e-3, [-1, 3]), {}, InputError),
    ((np.zeros(5), "real", 1e-3, [0, 3]), {"n_workers": 0}, InputError),
    ((np.zeros(5), "real", 1.0, [0, 3]), {}, InputError),     # max|b| dt
    ((np.zeros(5), "real", 1e-3, []), {}, InputError),
    ((np.zeros(5), "real", 1e-3, 3), {}, InputError),
    ((np.zeros(5), "real", 1e-3, [[0, 3]]), {}, InputError),
    ((np.zeros(5), "real", 1e-3, [0.0, 3.0]), {}, InputError),
    ((np.zeros(5), "real", 1e-3, [0, 3, 3]), {}, InputError),
    ((np.zeros(5), "real", 1e-3, [0, 3, 2]), {}, InputError),
    ((np.zeros(5), "real", 1e-3, np.array([0, 3, 2], dtype=np.uint64)), {},
     InputError),                       # np.diff would wrap to 2**64 - 1
], ids=["continued", "dt_zero", "dt_negative", "init_2d", "init_nan",
        "steps_negative", "n_workers_zero", "dt_guard", "steps_empty",
        "steps_scalar", "steps_2d", "steps_float", "steps_repeat",
        "steps_decrease", "steps_decrease_unsigned"])
def test_ensemble_steps_checks_arguments_on_the_call(grid801, ground, p_half,
                                                     args, kwargs, error,
                                                     monkeypatch):
    """Every bad argument is refused before a thread pool starts."""
    df = drift_fields(ground, p_half)
    init, mode, dt, steps = args
    if mode == "continued":              # a drift built by hand at -i/2
        df = replace(df, params=continue_to_imaginary(p_half, "minus"))
    monkeypatch.setattr("nelsonlab.sampler.ensemble.ThreadPoolExecutor",
                        _no_threads)
    with pytest.raises(error):
        ensemble_steps(df, init, dt, steps, 1,
                       **{"n_workers": 3, **kwargs})


@pytest.mark.parametrize("kwargs", [{"n_steps": 4.0}, {"store_every": 2.0},
                                    {"n_steps": np.float64(4)}])
def test_float_step_counts_are_input_errors(ground, p_half, kwargs,
                                            monkeypatch):
    df = drift_fields(ground, p_half)
    monkeypatch.setattr("nelsonlab.sampler.ensemble.ThreadPoolExecutor",
                        _no_threads)
    with pytest.raises(InputError, match="must be an integer"):
        simulate_ensemble(df, np.zeros(5), p_half, 1e-3,
                          **{"n_steps": 4, "seed": 1, "n_workers": 3,
                             **kwargs})


@pytest.mark.parametrize("n_workers", [None, 3])
def test_empty_ensemble_and_zero_steps(grid801, ground, p_half, n_workers):
    df = drift_fields(ground, p_half)
    for keep in (range(5), [3]):
        empty = ensemble_steps(df, np.empty(0), 1e-3, keep, seed=1,
                               n_workers=n_workers)
        assert empty.shape == (0, len(keep))
    e = simulate_ensemble(df, np.empty(0), p_half, 1e-3, 4, seed=1,
                          n_workers=n_workers)
    assert e.paths.shape == (0, 5)
    x0 = np.array([-9.0, 0.5, 8.25])
    only = ensemble_steps(df, x0, 1e-3, [0], seed=1, n_workers=n_workers)
    assert np.array_equal(only,
                          reflect(x0, grid801.x_min, grid801.x_max)[:, None])
    e = simulate_ensemble(df, x0, p_half, 1e-3, 0, seed=1,
                          n_workers=n_workers)
    assert np.array_equal(e.paths, only)


def test_no_thread_outlives_a_call(grid801, ground, p_half, monkeypatch):
    """Neither entry point leaves a thread behind once it returns or
    raises."""
    df = drift_fields(ground, p_half)
    baseline = set(threading.enumerate())
    ensemble_steps(df, np.zeros(3000), 1e-3, [0, 4, 10], seed=1, n_workers=3)
    assert set(threading.enumerate()) - baseline == set()
    simulate_ensemble(df, np.zeros(3000), p_half, 1e-3, 10, seed=1,
                      n_workers=3)
    assert set(threading.enumerate()) - baseline == set()
    bad = _nan_node_drift()
    monkeypatch.setattr(bad, "max_abs_b", lambda: 500.0)
    with pytest.raises(NumericalBreakdownError, match="at step 1"):
        simulate_ensemble(bad, np.full(12, -0.25), bad.params, 1e-3, 3,
                          seed=1, n_workers=3)
    assert set(threading.enumerate()) - baseline == set()
    with pytest.raises(NumericalBreakdownError, match="at step 1"):
        ensemble_steps(bad, np.full(12, -0.25), 1e-3, [3], seed=1,
                       n_workers=3)
    assert set(threading.enumerate()) - baseline == set()


def test_shards_join_once_per_call(ground, p_half, monkeypatch):
    """One pool map per call, one task per shard: no per-step join."""
    maps, tasks = [], []
    real_map, real_submit = ThreadPoolExecutor.map, ThreadPoolExecutor.submit

    def counted_map(self, *args, **kwargs):
        maps.append(self)
        return real_map(self, *args, **kwargs)

    def counted_submit(self, *args, **kwargs):
        tasks.append(self)
        return real_submit(self, *args, **kwargs)
    monkeypatch.setattr(ThreadPoolExecutor, "map", counted_map)
    monkeypatch.setattr(ThreadPoolExecutor, "submit", counted_submit)
    df = drift_fields(ground, p_half)
    ensemble_steps(df, np.zeros(3000), 1e-3, [0, 4, 5, 10], seed=1,
                   n_workers=3)
    assert (len(maps), len(tasks)) == (1, 3)
    simulate_ensemble(df, np.zeros(3000), p_half, 1e-3, 10, seed=1,
                      n_workers=3)
    assert (len(maps), len(tasks)) == (2, 6)


def test_nan_drift_node_is_rejected_before_any_step():
    df = _nan_node_drift()
    with pytest.raises(InputError, match="max\\|b\\| dt = nan"):
        simulate_ensemble(df, np.full(12, -5.0), df.params, 1e-3, 3, seed=1)
    with pytest.raises(InputError, match="max\\|b\\| dt = nan"):
        ensemble_steps(df, np.full(12, -5.0), 1e-3, range(4), seed=1)


def test_store_every_matches_dense_run(grid801, ground, p_half):
    df = drift_fields(ground, p_half)
    x0 = sample_initial(ho_ground_density(grid801.x), grid801, 500, seed=4)
    dense = simulate_ensemble(df, x0, p_half, 1e-3, 40, seed=4)
    thin = simulate_ensemble(df, x0, p_half, 1e-3, 40, seed=4, store_every=10)
    assert np.array_equal(thin.paths, dense.paths[:, ::10])
    assert np.array_equal(
        thin.paths, ensemble_steps(df, x0, 1e-3, range(0, 41, 10), seed=4))
    assert thin.dt == pytest.approx(1e-2)
    assert thin.sde_dt == pytest.approx(1e-3)
    # the member and the walls are the drift's, held once
    assert thin.drift is df and thin.params is thin.drift.params
    assert (thin.x_min, thin.x_max) == (grid801.x_min, grid801.x_max)
    with pytest.raises(InputError):
        simulate_ensemble(df, x0, p_half, 1e-3, 41, seed=4, store_every=10)


def test_paths_stay_inside_box(grid801):
    nu = 2.0
    df = _flat_drift(grid801, nu)
    e = simulate_ensemble(df, np.full(2000, 7.9), diffusion_params("nu", nu),
                          0.05, 200, seed=21)
    assert e.paths.min() >= grid801.x_min
    assert e.paths.max() <= grid801.x_max


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_reflect_folds_into_box(x):
    y = reflect(np.array([x]), -8.0, 8.0)[0]
    assert -8.0 <= y <= 8.0
    if -8.0 <= x <= 8.0:
        assert y == x


def test_reflect_leaves_in_box_points_and_input_alone():
    x = np.array([-8.0, -7.999999999999999, -3.3, 0.1, 7.3, 8.0,
                  8.5, -9.0, 25.0, -40.25])
    before = x.copy()
    y = reflect(x, -8.0, 8.0)
    assert np.array_equal(x, before)
    assert np.array_equal(y[:6], x[:6])
    assert np.allclose(y[6:], [7.5, -7.0, -7.0, -7.75], rtol=0, atol=1e-12)


def test_guards(grid801, ground, p_half):
    df = drift_fields(ground, p_half)
    with pytest.raises(UnsupportedConfigError):
        simulate_ensemble(df, np.zeros(5),
                          continue_to_imaginary(p_half, "minus"), 1e-3, 5, 1)
    # a p other than the drift's own member: the noise would be of another
    # member than the osmotic part
    with pytest.raises(InputError, match="drift was built at"):
        simulate_ensemble(df, np.zeros(5), diffusion_params("nu", 1.0),
                          1e-3, 5, 1)
    with pytest.raises(InputError):
        simulate_ensemble(df, np.zeros(5), p_half, 1.0, 5, 1)  # max|b| dt
    with pytest.raises(NumericalBreakdownError):
        simulate_ensemble(df, np.array([0.0, np.inf]), p_half, 1e-3, 3, 1)


def test_stream_normals_are_standard():
    z = _stream_normals(99, 0, 200_000)
    assert abs(z.mean()) < 3 / np.sqrt(z.size)
    assert abs(z.var() - 1.0) < 3 * np.sqrt(2.0 / z.size)
    # distinct steps decorrelate
    z2 = _stream_normals(99, 1, 200_000)
    assert abs(np.corrcoef(z, z2)[0, 1]) < 3 / np.sqrt(z.size)


@pytest.mark.parametrize("lo, hi", [(0, 1001), (1, 1000), (7, 503),
                                    (3, 4), (500, 500), (998, 1001)])
def test_step_normals_shard_is_slice_of_row(lo, hi):
    row = _stream_normals(42, 7, 1001)
    assert np.array_equal(step_normals(42, 7, 1001, lo, hi), row[lo:hi])


def test_step_normals_shards_concatenate_to_row():
    row = _stream_normals(42, 3, 1001)
    edges = [0, 1, 3, 3, 250, 667, 1001]
    parts = [step_normals(42, 3, 1001, a, b)
             for a, b in zip(edges, edges[1:])]
    assert np.array_equal(np.concatenate(parts), row)
    assert np.array_equal(step_normals(42, 3, 1001), row)
    with pytest.raises(InputError):
        step_normals(42, 3, 1001, 5, 1002)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, np.int64(-3)])
def test_a_seed_philox_cannot_key_is_an_input_error(seed):
    with pytest.raises(InputError, match="seed"):
        _stream_normals(seed, 3, 10)
    with pytest.raises(InputError, match="seed"):
        step_normals(seed, 3, 10, 2, 5)


def test_the_largest_seed_keys_philox():
    assert np.array_equal(step_normals(2 ** 64 - 1, 3, 10, 2, 5),
                          _stream_normals(2 ** 64 - 1, 3, 10)[2:5])


def test_binary_export_is_row_major(tmp_path, grid801, ground, p_half):
    df = drift_fields(ground, p_half)
    x0 = sample_initial(ho_ground_density(grid801.x), grid801, 40, seed=6)
    e = simulate_ensemble(df, x0, p_half, 1e-3, 5, seed=6)
    assert e.paths.flags.f_contiguous
    binpath = export_ensemble_binary(tmp_path / "e.bin", e)
    assert binpath.read_bytes() == np.ascontiguousarray(e.paths).tobytes()


def test_ensemble_io_roundtrip(tmp_path, grid801, ground, p_half):
    df = drift_fields(ground, p_half)
    x0 = sample_initial(ho_ground_density(grid801.x), grid801, 50, seed=6)
    e = simulate_ensemble(df, x0, p_half, 1e-3, 5, seed=6)
    binpath = export_ensemble_binary(tmp_path / "e.bin", e)
    back = load_ensemble_binary(binpath)
    assert np.array_equal(back, e.paths)
    csvpath = export_ensemble_csv(tmp_path / "e.csv", e)
    lines = csvpath.read_text().splitlines()
    assert lines[0] == "path_id,step,x"
    assert len(lines) == 1 + 50 * 6


def test_ensemble_csv_round_trips_every_double(tmp_path, grid801, ground,
                                               p_half):
    df = drift_fields(ground, p_half)
    x0 = sample_initial(ho_ground_density(grid801.x), grid801, 37, seed=8)
    e = simulate_ensemble(df, x0, p_half, 1e-3, 9, seed=8)
    with export_ensemble_csv(tmp_path / "e.csv", e).open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["path_id", "step", "x"]
    k, j = np.divmod(np.arange(e.n_paths * (e.n_steps + 1)), e.n_steps + 1)
    assert [int(r[0]) for r in rows[1:]] == k.tolist()
    assert [int(r[1]) for r in rows[1:]] == j.tolist()
    assert [float(r[2]) for r in rows[1:]] == e.paths[k, j].tolist()
    # the rows a per-sample csv.writer loop writes, byte for byte
    ref = tmp_path / "ref.csv"
    with ref.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["path_id", "step", "x"])
        for kk in range(e.n_paths):
            for jj in range(e.n_steps + 1):
                w.writerow([kk, jj, repr(float(e.paths[kk, jj]))])
    assert (tmp_path / "e.csv").read_bytes() == ref.read_bytes()
