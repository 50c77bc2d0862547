"""Machine-readable check records and report serialization.

Every record names the identity it verifies (a stable anchor string), the
oracle its reference came from, the measured and reference values, the
tolerance it was held to, and its outcome.  Outcomes are ``pass``,
``fail``, or ``inconclusive`` (too few samples, or too much sampling
noise, for a statistical assertion -- deliberately distinct from
failure).  Records for checks that are known to be unattainable in exact
arithmetic carry ``known_unattainable = True`` and do not flip the
aggregate status; the notes field holds the quantitative story.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

SCHEMA_VERSION = 1

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass
class CheckRecord:
    name: str
    anchor: str
    status: str
    measured: dict = field(default_factory=dict)
    reference: dict = field(default_factory=dict)
    tolerance: float | None = None
    std_error: float | None = None
    inputs_digest: str = ""
    oracle: str = ""
    known_unattainable: bool = False
    notes: str = ""
    elapsed_s: float | None = None

    def ok(self) -> bool:
        return self.status == PASS or self.known_unattainable \
            or self.status == INCONCLUSIVE


@dataclass
class Report:
    records: list
    environment: dict
    created_at: str = ""
    artifacts: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self.created_at:
            self.created_at = datetime.now(timezone.utc).isoformat()

    @property
    def passed(self) -> bool:
        return all(r.ok() for r in self.records)

    def counts(self) -> dict:
        out = {PASS: 0, FAIL: 0, INCONCLUSIVE: 0, "fail_expected": 0}
        for r in self.records:
            if r.status == FAIL and r.known_unattainable:
                out["fail_expected"] += 1
            else:
                out[r.status] += 1
        return out

    def to_json(self, include_timestamp: bool = True) -> str:
        records = [_null_nonfinite(asdict(r)) for r in self.records]
        if not include_timestamp:
            for r in records:
                r.pop("elapsed_s", None)   # timing is timestamp-class data
        body = {
            "schema_version": SCHEMA_VERSION,
            "environment": self.environment,
            "summary": self.counts(),
            "records": records,
        }
        if include_timestamp:
            body["created_at"] = self.created_at
        return json.dumps(body, indent=2, sort_keys=True, default=_jsonify) + "\n"

    def write(self, path) -> None:
        from pathlib import Path
        Path(path).write_text(self.to_json())

    def lines(self) -> list[str]:
        out = []
        for r in self.records:
            tag = r.status.upper()
            if r.status == FAIL and r.known_unattainable:
                tag = "FAIL (expected: unattainable as stated)"
            out.append(f"[{tag}] {r.name} ({r.anchor})"
                       + (f" -- {r.notes}" if r.notes and r.status != PASS else ""))
        return out


def _null_nonfinite(obj):
    """JSON has no NaN or infinity: a value a check could not measure (at a
    starved path count, say) is written as null."""
    if isinstance(obj, dict):
        return {k: _null_nonfinite(v) for k, v in obj.items()}
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _jsonify(obj):
    import numpy as np
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def digest(payload) -> str:
    """Stable sha256 of a JSON-serializable payload (12 hex chars)."""
    blob = json.dumps(payload, sort_keys=True, default=_jsonify)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]
