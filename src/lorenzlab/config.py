"""Flat key-value experiment configuration with defaults and overrides.

A config file holds `key = value` lines (`#` starts a comment). Command
line overrides use the same `key=value` form. Every key has a documented
default; unknown keys are rejected rather than ignored so a typo cannot
silently fall back to a default.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .noise import NoiseKind

EXPERIMENTS = ("attractor", "cusp-map", "stat-stability", "pdmp",
               "stochastic-stability", "full-suite")

_NOISE_KINDS = tuple(k.value for k in NoiseKind)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated parameters for one named experiment run."""

    experiment: str = "stat-stability"
    zeta: float = 10.0
    gamma: float = 28.0
    beta: float = 8.0 / 3.0
    eps: float = 0.05
    eps_ladder: tuple[float, ...] = (0.1, 0.05, 0.02, 0.01, 0.005)
    noise_kind: str = "uniform"
    seed: int = 0
    n_bins: int = 1024
    n_samples: int = 10_000
    n_transitions: int = 2_200
    burn_in: int = 1_000
    t_final: float = 40.0
    eps_box: float = 25.0
    probes: int = 100
    out_dir: str = "runs"

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; "
                f"choose from {', '.join(EXPERIMENTS)}")
        if self.noise_kind not in _NOISE_KINDS:
            raise ConfigError(f"unknown noise_kind {self.noise_kind!r}")
        for name in ("zeta", "gamma", "beta", "t_final", "eps_box"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        if self.eps < 0:
            raise ConfigError("eps must be >= 0")
        if not self.eps_ladder:
            raise ConfigError("ladder must be non-empty")
        if not all(v > 0 for v in self.eps_ladder):
            raise ConfigError("ladder entries must be > 0")
        if any(b >= a for a, b in zip(self.eps_ladder, self.eps_ladder[1:])):
            raise ConfigError("ladder must be strictly decreasing")
        for name in ("n_samples", "n_transitions", "probes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.burn_in < 0:
            raise ConfigError("burn_in must be >= 0")
        if self.n_bins < 16:
            raise ConfigError("n_bins must be >= 16")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = ",".join(repr(float(x)) for x in v) \
                if isinstance(v, tuple) else v
        return out


_HELP = {
    "experiment": "one of " + ", ".join(EXPERIMENTS),
    "zeta": "first dissipation coefficient of the flow",
    "gamma": "forcing coefficient of the flow",
    "beta": "third dissipation coefficient of the flow",
    "eps": "noise amplitude of the pdmp runner",
    "eps_ladder": "comma-separated decreasing amplitudes > 0; stat-stability "
                  "needs >= 3, stochastic-stability >= 2",
    "noise_kind": "noise law of the pdmp runner (stochastic-stability always "
                  "uses the two-atom law), one of " + ", ".join(_NOISE_KINDS),
    "seed": "base seed of the run's random streams (the unforced cusp-map "
            "chain and stat-stability draw none, so they ignore it)",
    "n_bins": "bin count for densities and transfer matrices",
    "n_samples": "sample count for sweeps and map scatters",
    "n_transitions": "chain length for continuous-time experiments",
    "burn_in": "transitions discarded before stationary estimates",
    "t_final": "time horizon of the reference trajectory",
    "eps_box": "half-width of the section membership box",
    "probes": "probe count for the conjugation check",
    "out_dir": "directory that receives one subdirectory per run",
}


def _coerce(name: str, value, current):
    """Parse a value to its key's type; ExperimentConfig checks the result."""
    try:
        if isinstance(current, tuple):
            return value if isinstance(value, tuple) else \
                tuple(float(v) for v in str(value).split(","))
        if isinstance(current, bool):
            raise TypeError("no boolean keys")
        if isinstance(current, int):
            return int(str(value))
        if isinstance(current, float):
            return float(str(value))
        return str(value)
    except (TypeError, ValueError):
        raise ConfigError(f"bad value {value!r} for key {name!r}") from None


def make_config(pairs: dict) -> ExperimentConfig:
    """Build a config from string key-value pairs over the defaults."""
    base = ExperimentConfig()
    known = {f.name for f in fields(ExperimentConfig)}
    kwargs = {}
    for key, value in pairs.items():
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        kwargs[key] = _coerce(key, value, getattr(base, key))
    return ExperimentConfig(**kwargs)


def read_config_file(path) -> dict:
    """Parse `key = value` lines into a string-to-string dict."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    pairs = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        pairs[key] = value
    return pairs


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Config from an optional file plus overrides, defaults elsewhere."""
    pairs = read_config_file(path) if path is not None else {}
    pairs.update(overrides or {})
    return make_config(pairs)


def format_config(cfg: ExperimentConfig) -> str:
    """The effective configuration as a reloadable key-value text."""
    lines = ["# effective configuration (reloadable as a config file)"]
    for key, value in cfg.as_dict().items():
        lines.append(f"{key} = {value}  # {_HELP[key]}")
    return "\n".join(lines) + "\n"
