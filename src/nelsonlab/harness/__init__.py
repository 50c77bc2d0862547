"""Configured experiments, verification suite, reports, file output, CLI."""
from .checks import FAST_CHECKS, FULL_CHECKS, CheckContext
from .config import ExperimentConfig, SdeConfig, config_from_dict, load_config
from .report import FAIL, INCONCLUSIVE, PASS, CheckRecord, Report, digest
from .suite import run_experiment, verify_suite

__all__ = [
    "CheckContext",
    "CheckRecord",
    "ExperimentConfig",
    "FAIL",
    "FAST_CHECKS",
    "FULL_CHECKS",
    "INCONCLUSIVE",
    "PASS",
    "Report",
    "SdeConfig",
    "config_from_dict",
    "digest",
    "load_config",
    "run_experiment",
    "verify_suite",
]
