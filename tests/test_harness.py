import json
import re
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from nelsonlab import Grid1D, InputError, diffusion_params
from nelsonlab.harness import (FAST_CHECKS, FULL_CHECKS, CheckContext,
                               ExperimentConfig, Report, config_from_dict,
                               load_config, run_experiment, verify_suite)
import nelsonlab.harness.checks as checks
from nelsonlab.harness.files import emit_plots_data
from nelsonlab.harness.checks import (MONTE_CARLO_CHECKS, _mc_status, _pooled,
                                      check_continued_two_time,
                                      check_equal_time_value,
                                      check_time_change, check_tmap_unitarity)
from nelsonlab.harness.report import FAIL, INCONCLUSIVE, PASS, CheckRecord
from nelsonlab.sampler import MIN_COUNT_ASSERT


def small_cfg(**kw):
    cfg = ExperimentConfig()
    cfg.sde.n_paths = kw.pop("n_paths", 20_000)
    cfg.sde.seed = kw.pop("seed", 42)
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


def test_config_validation_catches_unknown_check():
    cfg = small_cfg(checks=["no_such_check"])
    with pytest.raises(InputError, match="no_such_check"):
        run_experiment(cfg)


def test_config_validation_reports_field():
    cfg = small_cfg(n_paths=0)
    with pytest.raises(InputError, match=r"sde\.n_paths"):
        cfg.validate()
    cfg = small_cfg()
    cfg.sde.seed = None
    with pytest.raises(InputError, match=r"sde\.seed"):
        cfg.validate()


def test_config_file_parse_error_reports_line(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text('{"sde": {"seed": 41,}}')
    with pytest.raises(InputError, match="line 1"):
        load_config(p)


def test_config_roundtrip(tmp_path):
    raw = {
        "sde": {"n_paths": 100, "seed": 7},
        "checks": ["equal_time_value"],
        "out_dir": "somewhere",
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    cfg = load_config(p)
    assert cfg.sde.seed == 7 and cfg.sde.n_paths == 100
    assert cfg.checks == ["equal_time_value"]
    assert cfg.out_dir == "somewhere"
    cfg.validate(known_checks=set(FULL_CHECKS))
    for key in ("grid", "tolerances"):
        assert not hasattr(cfg, key)
    assert not hasattr(CheckContext(cfg), "tol")


def test_ho_ground_memo_keys_on_the_whole_grid():
    ctx = CheckContext(small_cfg())
    ctx.ho_ground(Grid1D(-8.0, 8.0, 801))
    wider = Grid1D(-8.0, 10.0, 801)
    assert ctx.ho_ground(wider).grid == wider


def test_ou_drift_memo_keys_on_the_whole_grid():
    ctx = CheckContext(small_cfg())
    ctx.ou_drift(0.5)                                   # on ctx.grid
    narrow = Grid1D(-6.0, 6.0, 801)
    assert ctx.ou_drift(0.5, narrow).grid == narrow
    assert ctx.ou_drift(0.5) is ctx.ou_drift(0.5, ctx.grid)


def test_run_experiment_writes_report_and_artifacts(tmp_path):
    cfg = small_cfg(checks=["equal_time_value", "continued_two_time"])
    report = run_experiment(cfg, out_dir=tmp_path)
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "continued_two_time_curve.csv").exists()
    body = json.loads((tmp_path / "report.json").read_text())
    assert body["schema_version"] == 1
    assert {r["name"] for r in body["records"]} == {"equal_time_value",
                                                    "continued_two_time"}
    assert report.passed


def test_fast_run_builds_each_shared_operator_once(monkeypatch):
    """The checks take members and operators from ``CheckContext``: one
    fast run builds no Hamiltonian twice on the same grid, space, member
    and potential, and at most 10 position operators."""
    from nelsonlab.harness import checks
    hams, xs = [], []
    build_h, build_x = checks.hamiltonian, checks.position_operator

    def hamiltonian(ws, p, V, space):
        hams.append((space.grid, space.weight.tobytes(), p,
                     np.asarray(V).tobytes()))
        return build_h(ws, p, V, space)

    def position_operator(space):
        xs.append(space.grid)
        return build_x(space)

    monkeypatch.setattr(checks, "hamiltonian", hamiltonian)
    monkeypatch.setattr(checks, "position_operator", position_operator)
    verify_suite("fast")
    assert len(set(hams)) == len(hams) <= 11
    assert len(xs) <= 10


def test_tmap_unitarity_gram_pairs_every_node_once():
    """Every node's unit vector meets its i-multiple in exactly one Gram
    entry, which is that pair's single ``inner``, bit for bit, on both
    sides of the identity; every other entry is zero."""
    from nelsonlab.algebra import build_space, gauge_map
    from nelsonlab.fields import analytic_oracle
    ctx = CheckContext(small_cfg())
    grid = ctx.grid
    ws = analytic_oracle("ho_coherent", {"x0": 1.0}, grid, [0.7])
    p = ctx.continued(grid, "minus").p
    Ht = build_space(grid, "H_t", ws.rho(0))
    blocks, combs = checks._tmap_fields(grid.n)
    lhs = checks._gram(Ht, blocks, combs)
    k = np.arange(grid.n)
    unit = np.eye(grid.n)
    assert np.array_equal(lhs[k // 32, k % 32],
                          [Ht.inner(unit[i], 1j * unit[i]) for i in k])
    assert np.count_nonzero(lhs) == grid.n
    It = build_space(grid, "I_t", ws.S[0], p)
    rhs = checks._gram(It, gauge_map(blocks, ws.R[0], ws.S[0], p),
                       gauge_map(combs, ws.R[0], ws.S[0], p))
    single = [It.inner(gauge_map(unit[i], ws.R[0], ws.S[0], p),
                       gauge_map(1j * unit[i], ws.R[0], ws.S[0], p))
              for i in k]
    assert np.max(np.abs(rhs[k // 32, k % 32] - single)) <= (
        4 * np.finfo(float).eps * np.max(np.abs(single)))
    assert np.count_nonzero(rhs) == grid.n
    [rec] = check_tmap_unitarity(ctx)
    assert rec.status == PASS


def test_tmap_unitarity_turns_red_on_a_gauge_map_off_by_1e_8(monkeypatch):
    """A gauge map scaled by 1 + 1e-8 moves every node's weight by 2e-8 of
    itself; at the density's peak that is 2.3e-10, above the 1e-10
    tolerance, on every case the notes list."""
    exact = checks.gauge_map
    monkeypatch.setattr(checks, "gauge_map",
                        lambda f, R, S, p: (1 + 1e-8) * exact(f, R, S, p))
    [rec] = check_tmap_unitarity(CheckContext(small_cfg()))
    assert rec.status == FAIL
    gaps = [float(item.rsplit(": ", 1)[1]) for item in rec.notes.split("; ")]
    assert len(gaps) == 4 and min(gaps) > rec.tolerance


def test_fast_run_builds_one_space_and_x_per_grid_and_kind(monkeypatch):
    """Every member on a grid shares that grid's flat or density-weighted
    space and its X: one fast run builds 6 position operators, one per
    (grid, kind), where building them per member made 10, and its report
    is byte-identical to the run that builds them per member."""
    from nelsonlab.harness import checks
    built = []
    build_x = checks.position_operator

    def position_operator(space):
        built.append((space.grid, space.weight.tobytes()))
        return build_x(space)

    monkeypatch.setattr(checks, "position_operator", position_operator)
    shared = verify_suite("fast").to_json(include_timestamp=False)
    assert len(built) == len(set(built)) == 6
    position = CheckContext.position
    monkeypatch.setattr(CheckContext, "position", lambda self, grid, kind:
                        position(CheckContext(self.cfg), grid, kind))
    per_member = verify_suite("fast").to_json(include_timestamp=False)
    assert len(built) == 6 + 10
    assert per_member == shared


def test_report_body_is_deterministic():
    cfg = small_cfg(checks=["equal_time_value"])
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    assert r1.to_json(include_timestamp=False) == r2.to_json(include_timestamp=False)


# noise alone reaches the limit at an SE of sqrt(pi/2) of the limit
SE_AT_LIMIT = np.sqrt(np.pi / 2)


@pytest.mark.parametrize("dev, count, se, min_count, status", [
    (0.99, MIN_COUNT_ASSERT, 0.0, MIN_COUNT_ASSERT, PASS),
    (1.0, MIN_COUNT_ASSERT, 0.0, MIN_COUNT_ASSERT, FAIL),
    (float("nan"), 10 ** 6, 0.0, MIN_COUNT_ASSERT, FAIL),
    (5.0, MIN_COUNT_ASSERT - 1, 0.0, MIN_COUNT_ASSERT, INCONCLUSIVE),
    (5.0, 10 ** 6, SE_AT_LIMIT, MIN_COUNT_ASSERT, INCONCLUSIVE),
    (0.5, 10 ** 6, 0.99 * SE_AT_LIMIT, MIN_COUNT_ASSERT, PASS),
    (0.5, 49_999, 0.0, 50_000, INCONCLUSIVE),
], ids=["below_limit", "at_limit_fails", "nan_fails", "low_count",
        "noise_reaches_limit", "noise_below_limit", "caller_min_count"])
def test_monte_carlo_status_rule(dev, count, se, min_count, status):
    """``se`` is the gate's SE in units of its limit; noise alone gives
    sqrt(2/pi) of it, so the gate cannot decide from sqrt(pi/2) on."""
    got, cause = _mc_status(dev, count, se, min_count)
    assert got == status
    assert bool(cause) == (status == INCONCLUSIVE)


def test_monte_carlo_checks_are_the_full_checks_that_sample():
    assert MONTE_CARLO_CHECKS == (set(FULL_CHECKS) - set(FAST_CHECKS)
                                  - {"determinism", "time_change",
                                     "fp_schrodinger_consistency"})
    assert len(MONTE_CARLO_CHECKS) == 8


def test_time_change_sees_noise_of_another_member(monkeypatch):
    """A nu = 1 drift whose table was built at nu = 1/2: its osmotic part
    is of one member and its noise of another."""
    ctx = CheckContext(small_cfg())
    built = ctx.ou_drift
    monkeypatch.setattr(ctx, "ou_drift", lambda nu, grid=None: replace(
        built(0.5, grid), params=diffusion_params("nu", nu))
        if nu == 1.0 else built(nu, grid))
    rec, = check_time_change(ctx)
    assert rec.status == FAIL
    assert not rec.measured["paths_nu=1.0_dt=0.001"]
    assert rec.measured["paths_nu=2.0_dt=0.001"]


def test_time_change_sees_a_lag_that_nu_does_not_scale(monkeypatch):
    """A two-time element that ignores nu compares s with 2 nu s."""
    element = checks.two_time_position_correlation
    monkeypatch.setattr(checks, "two_time_position_correlation",
                        lambda ws, p, s: element(
                            ws, diffusion_params("nu", 0.5), s))
    rec, = check_time_change(CheckContext(small_cfg()))
    assert rec.status == FAIL
    assert not rec.measured["two_time_nu=1.0"]
    assert not rec.measured["two_time_nu=2.0"]
    assert rec.measured["paths_nu=1.0_dt=0.001"]


@pytest.fixture(scope="module")
def starved_contexts():
    return {n: CheckContext(small_cfg(n_paths=n)) for n in (10, 1000, 5000)}


@pytest.mark.parametrize("n_paths", [10, 1000, 5000])
@pytest.mark.parametrize("name", sorted(MONTE_CARLO_CHECKS))
def test_monte_carlo_check_at_starved_path_count(name, n_paths,
                                                 starved_contexts):
    """A correct program is never red for want of samples: at 10 paths
    every record is inconclusive, and at 1000 and 5000 only a
    known-unattainable record may fail."""
    recs = FULL_CHECKS[name](starved_contexts[n_paths])
    assert recs
    for r in recs:
        assert r.status != FAIL or r.known_unattainable, (r.name, r.measured)
        if n_paths == 10:
            assert r.status == INCONCLUSIVE, (r.name, r.status)
            assert re.match(r"\d+ samples, below \d+|noise alone is ",
                            r.notes), (r.name, r.notes)


def test_correlation_curve_columns(tmp_path):
    cfg = small_cfg(checks=["continued_two_time"])
    report = run_experiment(cfg, out_dir=tmp_path)
    header = (tmp_path / "continued_two_time_curve.csv").read_text().splitlines()[0]
    assert header.split(",")[0] == "s"


def test_emit_plots_data_empty_report(tmp_path):
    rep = Report(records=[], environment={})
    out = emit_plots_data(rep, tmp_path / "sub")
    assert out == []
    assert not (tmp_path / "sub").exists()


def test_fast_suite_lines_and_counts():
    cfg = small_cfg()
    ctx = CheckContext(cfg)
    recs = check_equal_time_value(ctx) + check_continued_two_time(ctx)
    rep = Report(records=recs, environment={})
    assert rep.passed
    assert all(line.startswith("[PASS]") for line in rep.lines())
    counts = rep.counts()
    assert counts["pass"] == 2 and counts["fail"] == 0


@pytest.mark.parametrize("seed, ok", [
    (0, True), (2 ** 64 - 4, True), (-1, False), (2 ** 64 - 3, False)])
def test_config_seed_must_key_every_check_stream(seed, ok):
    cfg = config_from_dict({"sde": {"seed": seed}})
    if ok:
        cfg.validate()
    else:
        with pytest.raises(InputError, match="sde.seed"):
            cfg.validate()


def test_verify_rejects_unknown_level():
    with pytest.raises(InputError):
        verify_suite("medium")


def test_report_writes_unmeasured_values_as_null():
    rec = CheckRecord(name="x", anchor="a", status=INCONCLUSIVE,
                      measured={"dev": np.nan, "nested": {"z": np.inf},
                                "count": 0})
    text = Report(records=[rec], environment={}).to_json()
    assert "NaN" not in text and "Infinity" not in text
    measured = json.loads(text)["records"][0]["measured"]
    assert measured == {"dev": None, "nested": {"z": None}, "count": 0}


def test_known_unattainable_does_not_flip_aggregate():
    rec = CheckRecord(name="x", anchor="a", status="fail",
                      known_unattainable=True)
    rep = Report(records=[rec, CheckRecord(name="y", anchor="b", status=PASS)],
                 environment={})
    assert rep.passed
    assert rep.counts()["fail_expected"] == 1


def test_config_from_dict_type_errors():
    with pytest.raises(InputError):
        config_from_dict([1, 2, 3])
    with pytest.raises(InputError, match="checks: must be a list"):
        config_from_dict({"checks": {"equal_time_value": True}})
    with pytest.raises(InputError, match="sde: must be an object"):
        config_from_dict({"sde": 42})


@pytest.mark.parametrize("raw, match", [
    ({"grid": {"n": "abc"}}, r"\bgrid: unknown key"),
    ({"grid": {"x_max": [8.0]}}, r"\bgrid: unknown key"),
    ({"sde": {"seed": None}}, r"sde\.seed: expected int, got None"),
    ({"tolerances": [1, 2]}, r"\btolerances: unknown key"),
    ({"checks": "equal_time_value"}, r"checks: must be a list"),
    ({"checks": ["equal_time_value", 3]}, r"checks: must be a list"),
], ids=["grid.n", "grid.x_max", "sde.seed", "tolerances", "checks_str",
        "checks_item"])
def test_config_from_dict_field_type_errors_name_the_field(raw, match):
    with pytest.raises(InputError, match=match):
        config_from_dict(raw)


@pytest.mark.parametrize("raw, key", [
    ({"state": {"kind": "ho_ground"}}, "state"),
    ({"params": [{"kind": "nu", "value": 0.5}]}, "params"),
    ({"chekcs": ["equal_time_value"]}, "chekcs"),
    ({"sde": {"dt": 0.001, "seed": 1}}, "sde.dt"),
    ({"sde": {"n_steps": 60}}, "sde.n_steps"),
    ({"grid": {"x_min": -8.0, "x_max": 8.0, "n": 801}}, "grid"),
    ({"tolerances": {"fk_brige_real": 1.0}}, "tolerances"),
])
def test_config_from_dict_rejects_unknown_keys(raw, key):
    with pytest.raises(InputError, match=rf"\b{key}: unknown key"):
        config_from_dict(raw)


def _tables(rng, n_tables, n_bins):
    """Binned tables with NaN estimates and SEs in the sparse bins."""
    out = []
    for _ in range(n_tables):
        counts = rng.integers(0, 3 * MIN_COUNT_ASSERT, n_bins)
        usable = counts >= MIN_COUNT_ASSERT
        est, se = rng.standard_normal((2, n_bins))
        out.append(SimpleNamespace(counts=counts, usable=usable,
                                   estimate=np.where(usable, est, np.nan),
                                   std_error=np.where(usable, abs(se), np.nan)))
    return out


def test_pooled_per_bin_matches_hand_accumulation(rng):
    tabs = _tables(rng, 3, 17)
    num, var, wsum = np.zeros((3, 17))
    for t in tabs:
        use = t.usable
        num[use] += t.estimate[use] * t.counts[use]
        var[use] += (t.std_error[use] * t.counts[use]) ** 2
        wsum[use] += t.counts[use]
    est, se, count = _pooled(tabs, [t.usable for t in tabs], 0)
    use = wsum > 0
    assert np.array_equal(count, wsum)
    assert np.array_equal(est[use], num[use] / wsum[use])
    assert np.array_equal(se[use], np.sqrt(var[use]) / wsum[use])
    assert np.isnan(est[~use]).all() and np.isnan(se[~use]).all()


def test_pooled_over_all_bins_matches_loop(rng):
    tabs = _tables(rng, 30, 32)
    num, var, den = 0.0, 0.0, 0
    for t in tabs:
        use = t.counts >= MIN_COUNT_ASSERT
        num += float(np.sum(t.estimate[use] * t.counts[use]))
        var += float(np.sum((t.std_error[use] * t.counts[use]) ** 2))
        den += int(t.counts[use].sum())
    est, se, count = _pooled(tabs, [t.usable for t in tabs], None)
    assert count == den
    assert est == pytest.approx(num / den, rel=1e-14, abs=0.0)
    assert se == pytest.approx(np.sqrt(var) / den, rel=1e-14, abs=0.0)


def test_pooled_without_usable_bins_is_nan(rng):
    tabs = _tables(rng, 4, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est, se, count = _pooled(tabs, [np.zeros(8, bool)] * 4, None)
    assert count == 0 and np.isnan(est) and np.isnan(se)
