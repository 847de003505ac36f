"""Run manifests and the artifact writers: atomic JSON, %.17g CSV."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_json(path, payload) -> None:
    """Serialize payload to JSON (indent 2, sorted keys, numpy values as
    Python values) atomically: write a temporary file, then rename it."""
    path = Path(path)
    text = json.dumps(payload, indent=2, sort_keys=True, default=_jsonable)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header: str, rows) -> None:
    """Write the header line, then one line per row: Python ints exactly,
    every other value with 17 significant digits."""
    with Path(path).open("w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join("%d" % v if isinstance(v, int) else "%.17g" % v
                              for v in row) + "\n")


@dataclass(frozen=True)
class CheckOutcome:
    """One acceptance check: what was measured against what bound."""

    name: str
    passed: bool
    value: float
    bound: float | None = None
    note: str = ""


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

    def write(self, path) -> None:
        """Serialize every field plus all_passed with write_json."""
        write_json(path, {**asdict(self), "all_passed": self.all_passed})


def _jsonable(obj):
    """json default hook: numpy arrays and scalars become Python values."""
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")
