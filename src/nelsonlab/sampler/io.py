"""Ensemble and estimator-table export: CSV and a compact binary layout."""
from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .ensemble import Ensemble
from .estimators import ConditionalMomentTable


def export_ensemble_csv(path: str | Path, e: Ensemble) -> Path:
    """Long-form CSV: one ``path_id, step, x`` row per sample, path-major.

    ``x`` is written as ``repr(float)``, which ``float()`` reads back to the
    stored double exactly.  Each path's rows are filled into one format
    string, so the Python-level loop runs over paths, not samples.
    """
    path = Path(path)
    rows = "".join(f"{{0}},{j},{{{j + 1}!r}}\r\n"
                   for j in range(e.n_steps + 1))
    with path.open("w", newline="") as fh:
        fh.write("path_id,step,x\r\n")
        for k in range(e.n_paths):
            fh.write(rows.format(k, *e.paths[k].tolist()))
    return path


def export_ensemble_binary(path: str | Path, e: Ensemble) -> Path:
    """Row-major little-endian float64 dump plus a JSON header file.

    The header ``<path>.json`` declares dimensions, seed, dt and t0 so the
    blob is portable across platforms.
    """
    path = Path(path)
    e.paths.astype("<f8").tofile(path)
    header = {
        "dtype": "<f8",
        "order": "row-major",
        "n_paths": e.n_paths,
        "n_steps": e.n_steps,
        "dt": e.dt,
        "t0": e.t0,
        "seed": e.seed,
        "provenance": e.provenance,
    }
    Path(str(path) + ".json").write_text(
        json.dumps(header, indent=2, sort_keys=True) + "\n")
    return path


def load_ensemble_binary(path: str | Path) -> np.ndarray:
    """Read back the path matrix written by :func:`export_ensemble_binary`."""
    path = Path(path)
    header = json.loads(Path(str(path) + ".json").read_text())
    flat = np.fromfile(path, dtype=header["dtype"])
    return flat.reshape(header["n_paths"], header["n_steps"] + 1)


def export_table_csv(path: str | Path, table: ConditionalMomentTable) -> Path:
    """Estimator table as ``bin_center, count, estimate, std_error``."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bin_center", "count", "estimate", "std_error"])
        for c, n, est, se in zip(table.centers, table.counts,
                                 table.estimate, table.std_error):
            w.writerow([repr(float(c)), int(n), repr(float(est)),
                        repr(float(se))])
    return path
