import csv
import json

import numpy as np
import pytest

from nelsonlab import InputError
from nelsonlab.harness.cli import build_parser, main
from nelsonlab.harness.config import ExperimentConfig
from nelsonlab.harness.suite import verify_suite


def test_parser_subcommands():
    ap = build_parser()
    args = ap.parse_args(["verify", "--level", "fast", "--paths", "100"])
    assert args.level == "fast" and args.paths == 100
    args = ap.parse_args(["correlate", "--mode", "minus", "--s", "0.1,0.2"])
    assert args.mode == "minus"
    with pytest.raises(SystemExit):
        ap.parse_args(["verify", "--level", "medium"])


@pytest.mark.parametrize("argv", [
    ["verify", "--nu", "1"],
    ["verify", "--beta", "1"],
    ["verify", "--dt", "0.01"],
    ["verify", "--grid-n", "3"],
    ["verify", "--grid-x-max", "4"],
    ["solve", "--nu", "1"],
    ["solve", "--beta", "1"],
    ["solve", "--paths", "10"],
    ["solve", "--seed", "1"],
    ["correlate", "--dt", "0.01"],
    ["correlate", "--seed", "1"],
    ["correlate", "--paths", "10"],
])
def test_parser_rejects_flags_the_subcommand_ignores(argv, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv, expect", [
    (["solve", "--grid-n", "401", "--grid-x-max", "6", "--dt", "0.002",
      "--out", "o", "--state", "free_gaussian", "--x0", "0.5", "--sigma0",
      "2", "--steps", "10", "--snapshots", "2"],
     dict(grid_n=401, grid_x_max=6.0, dt=0.002, out="o",
          state="free_gaussian", x0=0.5, sigma0=2.0, steps=10, snapshots=2)),
    (["sample", "--seed", "3", "--nu", "0.7", "--beta", "1.0", "--grid-n",
      "401", "--grid-x-max", "6", "--dt", "0.002", "--paths", "10", "--out",
      "o", "--steps", "5", "--csv"],
     dict(seed=3, nu=0.7, beta=1.0, grid_n=401, grid_x_max=6.0, dt=0.002,
          paths=10, out="o", steps=5, csv=True)),
    (["verify", "--level", "full", "--seed", "3", "--paths", "10",
      "--out", "o"],
     dict(level="full", seed=3, paths=10, out="o")),
    (["correlate", "--nu", "0.7", "--beta", "1.0", "--grid-n", "401",
      "--grid-x-max", "6", "--out", "o", "--mode", "plus", "--s", "0.1"],
     dict(nu=0.7, beta=1.0, grid_n=401, grid_x_max=6.0, out="o",
          mode="plus", s="0.1")),
    (["report", "--path", "r.json", "--config", "c.json", "--out", "o"],
     dict(path="r.json", config="c.json", out="o")),
])
def test_parser_accepts_every_declared_flag(argv, expect):
    args = vars(build_parser().parse_args(argv))
    assert {k: args[k] for k in expect} == expect
    assert set(args) == set(expect) | {"command", "fn"}


def test_correlate_writes_curve(tmp_path, capsys):
    rc = main(["correlate", "--mode", "minus", "--s", "0.25,0.5",
               "--grid-n", "401", "--grid-x-max", "8.0",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "matrix element" in out
    lines = (tmp_path / "correlation_curve.csv").read_text().splitlines()
    assert lines[0] == "s,matrix_element_re,matrix_element_im"
    assert len(lines) == 3


def test_sample_and_report(tmp_path, capsys):
    rc = main(["sample", "--paths", "500", "--steps", "20",
               "--nu", "0.5", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "ensemble.bin").exists()
    assert (tmp_path / "forward_drift.csv").exists()

    cfg = {"checks": ["equal_time_value"], "sde": {"n_paths": 1000}}
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps(cfg))
    rc = main(["report", "--config", str(cfgpath), "--out", str(tmp_path)])
    assert rc == 0
    rc = main(["report", "--path", str(tmp_path / "report.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "equal_time_value" in out


def test_report_path_prints_what_verify_prints(tmp_path, capsys):
    """A stored report is summarized by the same record lines and counts
    that the run which wrote it printed."""
    from nelsonlab.harness.report import CheckRecord, Report

    report = Report(environment={}, records=[
        CheckRecord(name="a", anchor="x", status="pass"),
        CheckRecord(name="b", anchor="y", status="fail",
                    known_unattainable=True, notes="as stated"),
        CheckRecord(name="c[nu=1]", anchor="z", status="inconclusive",
                    notes="10 samples, below 500", elapsed_s=0.5)])
    report.write(tmp_path / "r.json")
    rc = main(["report", "--path", str(tmp_path / "r.json")])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == report.lines() + [
        "", "1 passed, 0 failed, 1 failed-as-documented, 1 inconclusive"]


@pytest.mark.parametrize("text, message", [
    ("not json", "Expecting value"),
    ('{"schema_version": 1, "environment": {}, "created_at": "t", '
     '"records": [{"name": "a", "anchor": "x", "status": "pass", '
     '"extra": 1}]}', "unexpected keyword argument 'extra'"),
    ("[1, 2]", "not a schema 1 report object"),
    ('{"schema_version": 1, "environment": {}, "created_at": "t", '
     '"records": [{"name": "a", "anchor": "x", "status": "odd"}]}',
     "status 'odd'"),
], ids=["not_json", "unknown_key", "top_level_list", "unknown_status"])
def test_report_path_refuses_a_malformed_report(text, message, tmp_path,
                                                capsys):
    """A stored report that cannot be read is an error line that names the
    file, and exit 2, never a traceback."""
    path = tmp_path / "r.json"
    path.write_text(text)
    assert main(["report", "--path", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ")
    assert message in captured.err


def test_solve_exports_densities(tmp_path):
    rc = main(["solve", "--state", "ho_coherent", "--x0", "1.0",
               "--grid-n", "401", "--dt", "0.002", "--steps", "100",
               "--snapshots", "4", "--out", str(tmp_path)])
    assert rc == 0
    files = sorted((tmp_path / "density").glob("density_*.csv"))
    assert len(files) >= 4
    sidecars = sorted((tmp_path / "density").glob("density_*.csv.json"))
    assert len(sidecars) == len(files)
    header = files[0].read_text().splitlines()[0]
    assert header == "x,value_real,value_imag"


def test_cli_surfaces_errors(tmp_path, capsys):
    rc = main(["sample", "--paths", "10", "--steps", "20", "--nu", "-1.0",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["correlate", "solve", "sample"])
def test_cli_rejects_an_infinite_grid(command, tmp_path, capsys):
    rc = main([command, "--grid-x-max", "inf", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "grid bounds must be finite" in err


@pytest.mark.parametrize("sampled, says", [
    ("inconclusive", True),
    ("pass", False),
])
def test_verify_says_when_no_monte_carlo_check_was_decided(
        sampled, says, tmp_path, capsys, monkeypatch):
    from nelsonlab.harness import cli
    from nelsonlab.harness.report import CheckRecord, Report

    def starved_suite(level, cfg):
        return Report(environment={}, records=[
            CheckRecord(name="equal_time_value", anchor="a", status="pass"),
            CheckRecord(name="time_change", anchor="a", status="pass"),
            CheckRecord(name="stationary_variance[nu=0.5]", anchor="b",
                        status=sampled),
            CheckRecord(name="drift_recovery", anchor="c",
                        status="inconclusive")])

    monkeypatch.setattr(cli, "verify_suite", starved_suite)
    rc = main(["verify", "--level", "full", "--paths", "10",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert ("no Monte Carlo check was decided at --paths 10" in out) == says


@pytest.mark.parametrize("argv, message", [
    (["correlate", "--s", "0.5,,"], "comma-separated"),
    (["correlate", "--s", "0.5,abc"], "comma-separated"),
    (["correlate", "--mode", "real", "--s=-1"], "s >= 0"),
    (["correlate", "--mode", "real", "--s=-1,nan"], "finite"),
    (["correlate", "--mode", "minus", "--s=inf"], "finite"),
])
def test_correlate_rejects_bad_lags(argv, message, tmp_path, capsys):
    rc = main(argv + ["--grid-n", "201", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "correlation_curve.csv").exists()


_TAKEN = "exists and is not a directory"


@pytest.mark.parametrize("argv, message", [
    (["verify", "--level", "full", "--paths", "0"], "sde.n_paths"),
    (["verify", "--paths", "-5"], "sde.n_paths"),
    (["solve", "--snapshots", "0"], "--snapshots"),
    (["sample", "--steps", "1"], "--steps"),
    (["sample", "--paths", "0", "--steps", "4"], "--paths"),
    (["sample", "--seed", "-1", "--paths", "100", "--steps", "4",
      "--grid-n", "201"], "--seed"),
    (["sample", "--seed", str(2 ** 64 - 3), "--paths", "100", "--steps",
      "4", "--grid-n", "201"], "--seed"),
    (["verify", "--level", "full", "--seed", "-1", "--paths", "10"],
     "sde.seed"),
    (["verify", "--seed", str(2 ** 64 - 3)], "sde.seed"),
    (["sample", "--dt", "0", "--paths", "100", "--steps", "4",
      "--grid-n", "201"], "dt must be positive"),
    (["sample", "--dt", "5", "--paths", "100", "--steps", "4",
      "--grid-n", "201"], "dt too large for this drift"),
    # an --out that names an existing file is refused before the work
    (["correlate", "--s", "0.5", "--grid-n", "201"], _TAKEN),
    (["sample", "--paths", "100", "--steps", "4", "--grid-n", "201"],
     _TAKEN),
    (["solve", "--steps", "2", "--snapshots", "1", "--grid-n", "201"],
     _TAKEN),
    # solve writes t = 0 and exactly --snapshots more densities
    (["solve", "--steps", "25", "--snapshots", "2", "--grid-n", "201"],
     "--snapshots"),
    (["solve", "--steps", "25", "--snapshots", "30", "--grid-n", "201"],
     "--snapshots"),
    (["solve", "--steps", "0", "--grid-n", "201"], "--steps"),
])
def test_cli_rejects_counts_it_cannot_run(argv, message, tmp_path, capsys):
    out = tmp_path / "out"
    if message == _TAKEN:
        out.write_text("taken")
    rc = main(argv + ["--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and message in captured.err
    assert captured.out == ""
    if message == _TAKEN:
        assert out.read_text() == "taken"
        assert list(tmp_path.iterdir()) == [out]
    else:
        assert not out.exists()


def test_verify_suite_validates_its_config():
    cfg = ExperimentConfig()
    cfg.sde.n_paths = 0
    with pytest.raises(InputError, match="sde.n_paths"):
        verify_suite("full", cfg)


@pytest.mark.parametrize("argv, message", [
    (["correlate", "--mode", "minus", "--nu", "3"], "neither --nu nor --beta"),
    (["correlate", "--mode", "plus", "--beta", "0"], "neither --nu nor --beta"),
    (["correlate", "--nu", "1", "--beta", "0"], "give one"),
    (["sample", "--nu", "1", "--beta", "0"], "give one"),
    (["solve", "--state", "ho_ground", "--x0", "2"], "x0"),
    (["solve", "--state", "ho_coherent", "--sigma0", "2"], "sigma0"),
    (["report", "--config", "c.json", "--path", "nowhere.json"], "--path"),
    (["report", "--path", "nowhere.json"], "--out"),
])
def test_cli_refuses_flags_it_would_ignore(argv, message, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(argv + ["--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


def test_report_refuses_flags_it_would_ignore(tmp_path, capsys):
    """With files that exist: ``--config`` with ``--path`` runs nothing, and
    ``--path`` with ``--out`` reads nothing."""
    from nelsonlab.harness.report import CheckRecord, Report
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"checks": ["equal_time_value"]}))
    stored = tmp_path / "r.json"
    Report(environment={}, records=[
        CheckRecord(name="a", anchor="x", status="pass")]).write(stored)
    out = tmp_path / "o"
    for argv in (["--config", str(cfg), "--path", str(stored)],
                 ["--config", str(cfg), "--path", str(stored), "--out",
                  str(out)],
                 ["--path", str(stored), "--out", str(out)]):
        assert main(["report", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
        assert not out.exists()


def test_solve_centers_the_free_packet_at_x0(tmp_path):
    rc = main(["solve", "--state", "free_gaussian", "--x0", "1", "--steps",
               "2", "--snapshots", "1", "--grid-x-max", "10", "--out",
               str(tmp_path)])
    assert rc == 0
    with (tmp_path / "density" / "density_0000.csv").open(newline="") as fh:
        x, rho, _ = np.array([row for row in csv.reader(fh)][1:],
                             dtype=float).T
    assert np.sum(x * rho) / np.sum(rho) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("argv", [
    ["sample", "--paths", "200", "--steps", "4", "--grid-n", "201", "--csv"],
    ["correlate", "--s", "0,0.25", "--grid-n", "201"],
    ["correlate", "--mode", "minus", "--s", "0,0.25", "--grid-n", "201"],
])
def test_every_csv_cell_is_a_number(argv, tmp_path):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    files = sorted(tmp_path.glob("*.csv"))
    assert files
    for path in files:
        raw = path.read_bytes()
        assert raw.count(b"\n") == raw.count(b"\r\n")
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) > 1
        for row in rows[1:]:
            [float(cell) for cell in row]


@pytest.mark.parametrize("argv", [
    ["solve", "--steps", "2", "--snapshots", "1", "--grid-n", "201"],
    ["sample", "--paths", "100", "--steps", "4", "--grid-n", "201"],
    ["correlate", "--s", "0.25", "--grid-n", "201"],
    ["verify"],
])
def test_cli_reports_a_write_failure(argv, tmp_path, capsys, monkeypatch):
    from nelsonlab.harness import cli
    from nelsonlab.harness.report import CheckRecord, Report

    monkeypatch.setattr(cli, "verify_suite", lambda level, cfg: Report(
        environment={}, records=[CheckRecord(name="a", anchor="x",
                                             status="pass")]))
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    rc = main(argv + ["--out", str(taken)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    assert taken.read_text() == "not a directory"


def test_verify_refuses_an_unusable_out_before_the_run(tmp_path, capsys,
                                                       monkeypatch):
    from nelsonlab.harness import cli
    runs = []
    monkeypatch.setattr(cli, "verify_suite",
                        lambda level, cfg: runs.append(level))
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    rc = main(["verify", "--out", str(taken)])
    captured = capsys.readouterr()
    assert rc == 2 and runs == []
    assert captured.out == "" and captured.err.startswith("error:")
    assert taken.read_text() == "not a directory"


def test_report_config_refuses_an_unusable_out_before_the_run(
        tmp_path, capsys, monkeypatch):
    from nelsonlab.harness import suite
    runs = []
    monkeypatch.setattr(suite, "_run_checks",
                        lambda cfg, names, registry: runs.append(names))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"checks": ["equal_time_value"]}))
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    rc = main(["report", "--config", str(cfg), "--out", str(taken)])
    captured = capsys.readouterr()
    assert rc == 2 and runs == []
    assert captured.out == "" and captured.err.startswith("error:")
    assert "exists" in captured.err


def test_report_config_and_report_share_the_default_out(
        tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NELSONLAB_OUT", raising=False)
    (tmp_path / "c.json").write_text(json.dumps(
        {"checks": ["equal_time_value"]}))
    assert main(["report", "--config", "c.json"]) == 0
    assert (tmp_path / "out" / "report.json").is_file()
    capsys.readouterr()
    assert main(["report"]) == 0
    assert "equal_time_value" in capsys.readouterr().out


def test_sample_writes_counts_as_integers(tmp_path):
    assert main(["sample", "--paths", "300", "--steps", "4", "--grid-n",
                 "201", "--out", str(tmp_path)]) == 0
    for name in ("forward_drift.csv", "backward_drift.csv"):
        with (tmp_path / name).open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert sum(int(row["count"]) for row in rows) > 0


@pytest.mark.parametrize("steps, snapshots", [(20, 2), (25, 5), (25, 25),
                                              (25, 1)])
def test_solve_writes_t0_and_exactly_snapshots_more(steps, snapshots,
                                                     tmp_path):
    assert main(["solve", "--steps", str(steps), "--snapshots",
                 str(snapshots), "--grid-n", "201", "--dt", "0.01", "--out",
                 str(tmp_path)]) == 0
    times = sorted(json.loads(path.read_text())["time"] for path in
                   (tmp_path / "density").glob("density_*.csv.json"))
    every = steps // snapshots
    assert times == pytest.approx([0.01 * every * k
                                   for k in range(snapshots + 1)])


def test_solve_sidecars_record_time_label_and_grid(tmp_path):
    assert main(["solve", "--steps", "20", "--snapshots", "2", "--grid-n",
                 "201", "--grid-x-max", "7", "--dt", "0.01", "--out",
                 str(tmp_path)]) == 0
    files = sorted((tmp_path / "density").glob("density_*.csv"))
    assert len(files) == 3
    for j, path in enumerate(files):
        meta = json.loads(path.with_name(path.name + ".json").read_text())
        assert meta == {"label": "density", "time": pytest.approx(0.1 * j),
                        "grid": {"x_min": -7.0, "x_max": 7.0, "n": 201}}
