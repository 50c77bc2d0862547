"""Plot-ready CSV emission from a report's attached artifacts."""
from __future__ import annotations

import csv
from pathlib import Path

from ..errors import NelsonlabError
from ..fields.io import export_snapshots
from .report import Report


def write_float_csv(path: Path, columns: list[str], rows) -> None:
    """A header row, then each row's values as round-trip floats."""
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        for row in rows:
            w.writerow([repr(float(v)) for v in row])


def emit_plots_data(report: Report, out_dir: str | Path) -> list[Path]:
    """Write one CSV per artifact attached to the report.

    Tabular artifacts (correlation curves, density/drift comparisons)
    become single CSVs; density movies become one CSV per stored time.
    An empty report writes nothing and succeeds.
    """
    out_dir = Path(out_dir)
    written: list[Path] = []
    if not report.artifacts:
        return written
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, art in report.artifacts.items():
        kind = art.get("kind")
        try:
            if kind == "density_movie":
                written.extend(export_snapshots(
                    out_dir / name, art["grid"], art["times"], art["rho"],
                    stem="density"))
            else:
                path = out_dir / f"{name}.csv"
                write_float_csv(path, art["columns"], art["rows"])
                written.append(path)
        except OSError as exc:
            raise NelsonlabError(f"failed writing {name} under {out_dir}: "
                                 f"{exc}") from exc
    return written
