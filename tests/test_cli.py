import json

import pytest

from nelsonlab.harness.cli import build_parser, main


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
    (["solve", "--nu", "0.7", "--beta", "1.0", "--grid-n", "401",
      "--grid-x-max", "6", "--dt", "0.002", "--out", "o", "--state",
      "free_gaussian", "--x0", "0.5", "--sigma0", "2", "--steps", "10",
      "--snapshots", "2"],
     dict(nu=0.7, beta=1.0, grid_n=401, grid_x_max=6.0, dt=0.002, out="o",
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
