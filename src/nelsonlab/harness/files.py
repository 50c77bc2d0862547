"""Every file the package writes or reads back, and where it goes.

A file that needs metadata gets a ``<file>.json`` sidecar.
"""
from __future__ import annotations

import csv
import json
import os
from pathlib import Path

import numpy as np

from ..errors import InputError, NelsonlabError
from ..grids import Grid1D
from ..sampler import ConditionalMomentTable, Ensemble
from .report import (FAIL, INCONCLUSIVE, PASS, SCHEMA_VERSION, CheckRecord,
                     Report)

DEFAULT_OUT_ENV = "NELSONLAB_OUT"
SNAPSHOT_STEM = "density"


def resolve_out_dir(out: str | Path | None = None,
                    configured: str | Path | None = None) -> Path:
    """The output directory: ``out``, else ``configured``, else
    ``$NELSONLAB_OUT``, else ``./out``.  Nothing is created, and a path
    that exists and is not a directory is refused, so a command can
    resolve it before its work."""
    path = Path(out or configured or os.environ.get(DEFAULT_OUT_ENV) or "out")
    if path.exists() and not path.is_dir():
        raise InputError(f"output directory {path} exists and is not a "
                         "directory")
    return path


def make_dir(path: str | Path) -> Path:
    """Create ``path`` and its parents if missing."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_float_csv(path: str | Path, columns: list[str], rows) -> Path:
    """A header row, then one ``\\r\\n``-ended line per row: integers as
    integers, every other cell as ``repr(float)``, which ``float()`` reads
    back to the stored double exactly."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        for row in rows:
            w.writerow([int(v) if isinstance(v, (int, np.integer))
                        else repr(float(v)) for v in row])
    return path


def _sidecar(path: Path) -> Path:
    return Path(str(path) + ".json")


def write_sidecar(path: str | Path, meta: dict) -> Path:
    """Write ``meta`` to ``<path>.json``, keys sorted."""
    sidecar = _sidecar(Path(path))
    sidecar.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return sidecar


def export_table_csv(path: str | Path, table: ConditionalMomentTable) -> Path:
    """Estimator table as ``bin_center, count, estimate, std_error``."""
    return write_float_csv(
        path, ["bin_center", "count", "estimate", "std_error"],
        zip(table.centers, table.counts, table.estimate, table.std_error))


def export_snapshots(out_dir: str | Path, grid: Grid1D, times: np.ndarray,
                     values: np.ndarray) -> list[Path]:
    """One ``x, value_real, value_imag`` CSV per stored time,
    ``density_0000.csv``, ..., each with a sidecar that records the grid,
    the time and the label."""
    out_dir = make_dir(out_dir)
    grid_meta = {"x_min": grid.x_min, "x_max": grid.x_max, "n": grid.n}
    paths = []
    for j, t in enumerate(np.atleast_1d(times)):
        v = np.asarray(values[j], dtype=complex)
        p = write_float_csv(out_dir / f"{SNAPSHOT_STEM}_{j:04d}.csv",
                            ["x", "value_real", "value_imag"],
                            zip(grid.x, v.real, v.imag))
        write_sidecar(p, {"label": SNAPSHOT_STEM, "time": float(t),
                          "grid": grid_meta})
        paths.append(p)
    return paths


def export_ensemble_csv(path: str | Path, e: Ensemble) -> Path:
    """Long-form CSV: one ``path_id, step, x`` row per sample, path-major.

    Each path's rows are filled into one format string, so the Python-level
    loop runs over paths, not samples; the bytes are those of
    :func:`write_float_csv`.
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
    """Row-major little-endian float64 dump plus a sidecar header.

    The header declares dimensions, seed, dt and t0 so the blob is portable
    across platforms.
    """
    path = Path(path)
    e.paths.astype("<f8").tofile(path)
    write_sidecar(path, {"dtype": "<f8", "order": "row-major",
                         "n_paths": e.n_paths, "n_steps": e.n_steps,
                         "dt": e.dt, "t0": e.t0, "seed": e.seed,
                         "provenance": e.drift.provenance})
    return path


def load_ensemble_binary(path: str | Path) -> np.ndarray:
    """Read back the path matrix written by :func:`export_ensemble_binary`."""
    path = Path(path)
    header = json.loads(_sidecar(path).read_text())
    flat = np.fromfile(path, dtype=header["dtype"])
    return flat.reshape(header["n_paths"], header["n_steps"] + 1)


def read_report(path: str | Path) -> Report:
    """Read back a report that ``Report.write`` stored.  A file that is not
    one, of this schema version, is refused with an InputError naming it."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
        if not (isinstance(raw, dict)
                and raw.get("schema_version") == SCHEMA_VERSION):
            raise ValueError(f"not a schema {SCHEMA_VERSION} report object")
        records = [CheckRecord(**rec) for rec in raw["records"]]
        for r in records:
            if r.status not in (PASS, FAIL, INCONCLUSIVE):
                raise ValueError(f"record {r.name!r} has status {r.status!r}")
        return Report(records=records, environment=raw["environment"],
                      created_at=raw["created_at"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: not a stored report: {exc}") from exc


def emit_plots_data(report: Report, out_dir: str | Path) -> list[Path]:
    """Write one CSV per artifact attached to the report.

    Tabular artifacts (correlation curves, density/drift comparisons)
    become single CSVs; density movies become one CSV per stored time.
    An empty report writes nothing and succeeds.
    """
    written: list[Path] = []
    if not report.artifacts:
        return written
    out_dir = make_dir(out_dir)
    for name, art in report.artifacts.items():
        try:
            if art.get("kind") == "density_movie":
                written.extend(export_snapshots(
                    out_dir / name, art["grid"], art["times"], art["rho"]))
            else:
                written.append(write_float_csv(
                    out_dir / f"{name}.csv", art["columns"], art["rows"]))
        except OSError as exc:
            raise NelsonlabError(f"failed writing {name} under {out_dir}: "
                                 f"{exc}") from exc
    return written
