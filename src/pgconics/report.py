"""Stage records and the machine-readable run report.

The JSON schema is fixed: {config, stages[], verdict, version, digests} with
stage entries {name, verdict, counts, witness, millis}.  Reports are
deterministic for identical inputs except for the millis fields.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field


VERSION = "0.1.0"

PASS = "pass"
FAIL = "fail"
WARN = "warn"
SKIPPED = "skipped"


@dataclass
class StageRecord:
    name: str
    verdict: str
    counts: dict = field(default_factory=dict)
    witness: str | None = None
    millis: float = 0.0

    def to_dict(self):
        return {
            "name": self.name,
            "verdict": self.verdict,
            "counts": dict(self.counts),
            "witness": self.witness,
            "millis": round(self.millis, 3),
        }


def witness_text(exc):
    """A failed check as "{Type}: {message}", plus " [{witness}]" when the
    exception carries a non-empty witness (converted with str())."""
    witness = getattr(exc, "witness", None)
    witness = None if witness is None else str(witness)
    return f"{type(exc).__name__}: {exc}" + (f" [{witness}]" if witness else "")


@dataclass
class Report:
    config: dict
    stages: list
    verdict: str
    digests: dict = field(default_factory=lambda: {"input": None, "output": None})
    version: str = VERSION

    @classmethod
    def from_stages(cls, config, stages, exploratory=False, digests=None):
        if exploratory:
            verdict = "exploratory"
        elif any(s.verdict == FAIL for s in stages):
            verdict = FAIL
        else:
            verdict = PASS
        return cls(config=config, stages=list(stages), verdict=verdict,
                   digests=digests or {"input": None, "output": None})

    def to_dict(self):
        return {
            "config": dict(self.config),
            "stages": [s.to_dict() for s in self.stages],
            "verdict": self.verdict,
            "version": self.version,
            "digests": dict(self.digests),
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def to_text(self):
        lines = [f"pgconics report v{self.version}"]
        cfg = " ".join(f"{k}={v}" for k, v in sorted(self.config.items()))
        lines.append(f"config: {cfg}")
        for s in self.stages:
            counts = " ".join(f"{k}={v}" for k, v in s.counts.items())
            lines.append(f"  [{s.verdict:>7}] {s.name:<18} {s.millis:9.1f} ms  {counts}")
            if s.witness:
                lines.append(f"            witness: {s.witness}")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
