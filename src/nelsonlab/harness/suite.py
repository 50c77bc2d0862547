"""Suite runner and configured experiments."""
from __future__ import annotations

import time
from pathlib import Path

from .. import __version__
from ..errors import InputError, NelsonlabError
from .checks import FAST_CHECKS, FULL_CHECKS, CheckContext
from .config import ExperimentConfig
from .files import emit_plots_data, make_dir
from .report import FAIL, CheckRecord, Report


def _environment(cfg: ExperimentConfig) -> dict:
    import numpy
    import scipy
    return {
        "version": __version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": cfg.sde.seed,
        "n_paths": cfg.sde.n_paths,
    }


def _run_checks(cfg: ExperimentConfig, names, registry) -> Report:
    ctx = CheckContext(cfg)
    records = []
    for name in names:
        fn = registry[name]
        t0 = time.perf_counter()
        try:
            recs = fn(ctx)
        except NelsonlabError as exc:
            recs = [CheckRecord(name=name, anchor="runtime", status=FAIL,
                                notes=f"error in stage {name}: {exc}")]
        for r in recs:
            if r.elapsed_s is None:
                r.elapsed_s = round(time.perf_counter() - t0, 3)
        records.extend(recs)
    report = Report(records=records, environment=_environment(cfg))
    report.artifacts = ctx.artifacts
    return report


def verify_suite(level: str = "fast", cfg: ExperimentConfig | None = None
                 ) -> Report:
    """Run the built-in verification suite.

    ``fast`` covers the deterministic identity and solver checks (seconds);
    ``full`` adds the seeded Monte Carlo checks (about 20 s at the default
    path count).  Statistical checks at starved path counts come back
    inconclusive rather than failed.  The config is validated first.
    """
    if level not in ("fast", "full"):
        raise InputError(f"level must be fast or full, got {level!r}")
    cfg = cfg or ExperimentConfig()
    cfg.validate()
    registry = FAST_CHECKS if level == "fast" else FULL_CHECKS
    return _run_checks(cfg, list(registry), registry)


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None
                   ) -> Report:
    """Validate a config, run its named checks, write report and artifacts.

    The report and artifacts go to ``out_dir``, else ``cfg.out_dir``; with
    neither, nothing is written.  The report body is a pure function of the
    config (timestamps aside).  Unknown check names fail validation, and an
    output directory that cannot be made fails, before anything executes.
    """
    cfg.validate(known_checks=set(FULL_CHECKS))
    out = out_dir or cfg.out_dir
    if out:
        out = make_dir(out)
    names = cfg.checks or ["stationary_variance", "equal_time_value",
                           "drift_recovery"]
    report = _run_checks(cfg, names, FULL_CHECKS)
    if out:
        report.write(out / "report.json")
        emit_plots_data(report, out)
    return report
