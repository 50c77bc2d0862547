import csv
import json
from pathlib import Path

import numpy as np
import pytest

from nelsonlab.fields import drift_fields, ho_ground_density
from nelsonlab.harness.files import (export_ensemble_binary, make_dir,
                                     load_ensemble_binary, resolve_out_dir,
                                     write_float_csv, write_sidecar)
from nelsonlab.sampler import sample_initial, simulate_ensemble


def test_out_dir_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv("NELSONLAB_OUT", raising=False)
    assert resolve_out_dir() == Path("out")
    assert resolve_out_dir(None, "cfg") == Path("cfg")
    monkeypatch.setenv("NELSONLAB_OUT", str(tmp_path / "env"))
    assert resolve_out_dir() == tmp_path / "env"
    assert resolve_out_dir(None, "cfg") == Path("cfg")
    assert resolve_out_dir("flag", "cfg") == Path("flag")
    assert not (tmp_path / "env").exists()
    assert make_dir(tmp_path / "a" / "b").is_dir()


def test_float_csv_keeps_integers_and_round_trips_floats(tmp_path):
    rows = [(1, np.int64(2), 0.1, np.float64(-1e-300)),
            (0, 0, float("inf"), 1 / 3)]
    path = write_float_csv(tmp_path / "t.csv", ["a", "b", "c", "d"], rows)
    assert path.read_bytes() == (
        b"a,b,c,d\r\n1,2,0.1,-1e-300\r\n0,0,inf,0.3333333333333333\r\n")
    with path.open(newline="") as fh:
        back = list(csv.reader(fh))[1:]
    assert [[int(r[0]), int(r[1]), float(r[2]), float(r[3])]
            for r in back] == [list(map(float, row)) for row in rows]


def test_sidecar_is_sorted_indented_json(tmp_path):
    side = write_sidecar(tmp_path / "f.csv", {"b": 1, "a": {"d": 2, "c": 3}})
    assert side.name == "f.csv.json"
    assert side.read_text() == json.dumps(
        {"a": {"c": 3, "d": 2}, "b": 1}, indent=2, sort_keys=True) + "\n"


def test_ensemble_header_round_trips(tmp_path, grid801, ground, p_half):
    df = drift_fields(ground, p_half)
    x0 = sample_initial(ho_ground_density(grid801.x), grid801, 30, seed=4)
    e = simulate_ensemble(df, x0, p_half, 1e-3, 7, seed=4)
    path = export_ensemble_binary(tmp_path / "e.bin", e)
    header = json.loads((tmp_path / "e.bin.json").read_text())
    assert header == {"dtype": "<f8", "order": "row-major",
                      "n_paths": 30, "n_steps": 7, "dt": e.dt, "t0": e.t0,
                      "seed": 4, "provenance": df.provenance}
    back = load_ensemble_binary(path)
    assert back.shape == (header["n_paths"], header["n_steps"] + 1)
    assert np.array_equal(back, e.paths)
