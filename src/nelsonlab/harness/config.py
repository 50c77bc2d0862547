"""Experiment configuration: JSON file + flag overrides, validated early."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import InputError

_KEYS = {"sde", "checks", "out_dir"}
_SDE_KEYS = {"n_paths", "seed"}

# Philox takes a 64-bit key, and the checks key seed + 1 ... seed + 3 too
MAX_SEED = 2 ** 64 - 4


@dataclass
class SdeConfig:
    n_paths: int = 100_000
    seed: int = 42

    def validate(self):
        if self.n_paths < 1:
            raise InputError("sde.n_paths: must be >= 1")
        if self.seed is None:
            raise InputError("sde.seed: required when sampling is requested")
        if not 0 <= self.seed <= MAX_SEED:
            raise InputError(f"sde.seed: must be in [0, 2**64 - 4], "
                             f"got {self.seed}")


@dataclass
class ExperimentConfig:
    """Everything a reproducible run depends on: the sampler's seed and path
    count, and the checks to run.

    ``checks`` names must exist in the check registry.  Each check fixes
    its own grid and tolerance, so neither is a setting.
    """

    sde: SdeConfig = field(default_factory=SdeConfig)
    checks: list = field(default_factory=list)
    out_dir: str | None = None

    def validate(self, known_checks: set[str] | None = None):
        self.sde.validate()
        if known_checks is not None:
            for name in self.checks:
                if name not in known_checks:
                    raise InputError(f"checks: unknown check {name!r}")

    def digest_payload(self) -> dict:
        return {"sde": {"n_paths": self.sde.n_paths, "seed": self.sde.seed}}


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a JSON config file with per-field error reporting."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}") from exc
    return config_from_dict(raw, source=str(path))


def _section(raw: dict, name: str, keys: set[str], source: str) -> dict:
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise InputError(f"{source}: {name}: must be an object")
    _reject_unknown(section, keys, source, f"{name}.")
    return section


def _reject_unknown(raw: dict, keys: set[str], source: str, prefix: str = ""):
    for key in raw:
        if key not in keys:
            raise InputError(f"{source}: {prefix}{key}: unknown key "
                             f"(expected one of {', '.join(sorted(keys))})")


def _convert(value, kind: type, where: str):
    """``kind(value)``, or an InputError that names the field."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: expected {kind.__name__}, "
                         f"got {value!r}") from exc


def config_from_dict(raw: dict, source: str = "<dict>") -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise InputError(f"{source}: top level must be an object")
    _reject_unknown(raw, _KEYS, source)
    cfg = ExperimentConfig()
    sde = _section(raw, "sde", _SDE_KEYS, source)
    cfg.sde = SdeConfig(
        n_paths=_convert(sde.get("n_paths", cfg.sde.n_paths), int,
                         f"{source}: sde.n_paths"),
        seed=_convert(sde.get("seed", cfg.sde.seed), int,
                      f"{source}: sde.seed"))
    checks = raw.get("checks", [])
    if not (isinstance(checks, list)
            and all(isinstance(name, str) for name in checks)):
        raise InputError(f"{source}: checks: must be a list of check names")
    cfg.checks = list(checks)
    cfg.out_dir = raw.get("out_dir")
    return cfg
