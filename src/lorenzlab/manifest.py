"""Run manifests: check outcomes, artifact hashes, atomic JSON output."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass(frozen=True)
class CheckOutcome:
    """One acceptance check: what was measured against what bound."""

    name: str
    passed: bool
    value: float
    bound: float | None = None
    note: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed),
                "value": self.value, "bound": self.bound, "note": self.note}


@dataclass
class RunManifest:
    """Everything needed to audit one experiment run."""

    experiment: str
    config: dict
    version: str
    started_utc: str
    wall_clock_s: float = 0.0
    status: str = "ok"
    error: str = ""
    checks: list[CheckOutcome] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)
    results: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return self.status == "ok" and all(c.passed for c in self.checks)

    def add_check(self, name: str, passed: bool, value: float,
                  bound: float | None = None, note: str = "") -> None:
        self.checks.append(CheckOutcome(name=name, passed=bool(passed),
                                        value=float(value), bound=bound,
                                        note=note))

    def add_file(self, path, root) -> None:
        self.files[str(Path(path).relative_to(root))] = file_sha256(path)

    def as_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "config": self.config,
            "version": self.version,
            "started_utc": self.started_utc,
            "wall_clock_s": self.wall_clock_s,
            "status": self.status,
            "error": self.error,
            "all_passed": self.all_passed,
            "checks": [c.as_dict() for c in self.checks],
            "files": dict(sorted(self.files.items())),
            "results": self.results,
        }

    def write(self, path) -> Path:
        """Serialize to JSON atomically (write-then-rename)."""
        path = Path(path)
        text = json.dumps(self.as_dict(), indent=2, sort_keys=True,
                          default=_jsonable)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text + "\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path


def _jsonable(obj):
    """json default hook: numpy arrays and scalars become Python values."""
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")
