"""CSV export of nodal fields with a JSON metadata sidecar."""
from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from ..grids import Grid1D
from ..params import HBAR, MASS, DiffusionParams


def export_field_csv(path: str | Path, grid: Grid1D, values: np.ndarray,
                     *, time: float = 0.0, params: DiffusionParams | None = None,
                     label: str = "field") -> Path:
    """Write one snapshot as ``x, value_real, value_imag`` plus a sidecar.

    The imaginary column is written as 0 for real fields.  The sidecar
    ``<path>.json`` records the grid, the time, the label and (if given)
    the diffusion parameters.
    """
    path = Path(path)
    values = np.asarray(values)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "value_real", "value_imag"])
        imag = values.imag if np.iscomplexobj(values) else np.zeros(values.shape)
        real = values.real if np.iscomplexobj(values) else values
        for xi, vr, vi in zip(grid.x, real, imag):
            w.writerow([repr(float(xi)), repr(float(vr)), repr(float(vi))])
    meta = {
        "label": label,
        "time": time,
        "grid": {"x_min": grid.x_min, "x_max": grid.x_max, "n": grid.n},
    }
    if params is not None:
        meta["params"] = {
            "m": MASS, "hbar": HBAR, "mode": params.mode,
            "nu": [params.nu.real, params.nu.imag],
            "z": [params.z.real, params.z.imag],
            "beta": params.beta,
        }
    sidecar = path.with_suffix(path.suffix + ".json")
    sidecar.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return path


def export_snapshots(out_dir: str | Path, grid: Grid1D, times: np.ndarray,
                     values: np.ndarray, *, stem: str = "field",
                     params: DiffusionParams | None = None) -> list[Path]:
    """One CSV per stored time: ``<stem>_0000.csv``, ..."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for j, t in enumerate(np.atleast_1d(times)):
        p = out_dir / f"{stem}_{j:04d}.csv"
        export_field_csv(p, grid, values[j], time=float(t), params=params,
                         label=stem)
        paths.append(p)
    return paths
