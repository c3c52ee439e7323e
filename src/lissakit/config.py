"""Flat key = value experiment configuration.

One option per line, `#` comments, no nesting.  Every field is typed and
validated up front so a bad config fails before any computation starts, and
the raw text hashes into the run manifest, which is what makes reruns
auditable.  Substream seeds for the individual pipeline stages derive from
the one global seed plus a component name, never from call order.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

from .core import derive_seed


class ConfigError(ValueError):
    """Malformed, unknown, or missing configuration input."""


def component_seed(seed: int, name: str) -> int:
    """Stable substream seed for one named pipeline component."""
    digest = hashlib.sha256(name.encode()).digest()
    return derive_seed(seed, int.from_bytes(digest[:8], "little"))


def parse_config_text(text: str) -> dict[str, str]:
    """Flat `key = value` lines into a string map; rejects duplicates."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _int(v: str) -> int:
    return int(v, 10)


def _float(v: str) -> float:
    x = float(v)
    if not math.isfinite(x):
        raise ValueError("not a finite number")
    return x


def _str(v: str) -> str:
    return v


def _int_tuple(v: str) -> tuple[int, ...]:
    return tuple(int(part.strip(), 10) for part in v.split(","))


def _float_tuple(v: str) -> tuple[float, ...]:
    return tuple(_float(part.strip()) for part in v.split(","))


_CASTERS = {
    "command": _str,
    "seed": _int,
    "out_dir": _str,
    "threads": _int,
    "model_kind": _str,
    "layer_sizes": _int_tuple,
    "activation": _str,
    "init_scale": _float,
    "n_examples": _int,
    "separation": _float,
    "dataset_path": _str,
    "corpus_path": _str,
    "n_probes": _int,
    "sketch_dim": _int,
    "sketch_layout": _str,
    "hvp_mode": _str,
    "fd_delta": _float,
    "trace": _float,
    "lambda_max": _float,
    "c_const": _float,
    "t_multiplier": _float,
    "eta": _float,
    "lambda_damp": _float,
    "batch_size": _int,
    "t_steps": _int,
    "snapshot_every": _int,
    "train_index": _int,
    "tolerance": _float,
    "batch_sizes": _int_tuple,
    "epsilon": _float,
    "pbrf_lr": _float,
    "pbrf_steps": _int,
    "n_train": _int,
    "n_test": _int,
    "eigenvalues": _float_tuple,
    "n_runs": _int,
    "t_max": _int,
    "n_docs": _int,
    "doc_length": _int,
    "vocab_size": _int,
    "n_items": _int,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Typed view of one run's settings; None means derive or use a default."""

    command: str | None = None
    seed: int = 0
    out_dir: str | None = None
    threads: int = 1
    # model and dataset
    model_kind: str = "softmax-linear"
    layer_sizes: tuple[int, ...] = (8, 3)
    activation: str = "tanh"
    init_scale: float = 0.5
    n_examples: int = 256
    separation: float = 2.0
    dataset_path: str | None = None
    corpus_path: str | None = None
    # spectrum estimation
    n_probes: int = 200
    sketch_dim: int = 64
    sketch_layout: str = "summed"
    hvp_mode: str = "exact"
    fd_delta: float = 0.01
    # externally supplied curvature statistics
    trace: float | None = None
    lambda_max: float | None = None
    c_const: float = 2.0
    t_multiplier: float = 2.0
    # stochastic solver
    eta: float | None = None
    lambda_damp: float = 1.0
    batch_size: int | None = None
    t_steps: int | None = None
    snapshot_every: int = 0
    train_index: int = 0
    tolerance: float | None = None
    batch_sizes: tuple[int, ...] | None = None
    # retraining comparison
    epsilon: float = 1e-8
    pbrf_lr: float | None = None
    pbrf_steps: int | None = None
    n_train: int = 5
    n_test: int = 20
    # counter-example problem
    eigenvalues: tuple[float, ...] | None = None
    n_runs: int = 200
    t_max: int = 8
    # bag-of-words corpus
    n_docs: int = 50
    doc_length: int = 8
    vocab_size: int = 10
    # similarity
    n_items: int = 8

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.lambda_damp < 0:
            raise ConfigError("lambda_damp must be non-negative")
        if self.n_examples < 1:
            raise ConfigError("n_examples must be >= 1")
        if self.n_probes < 2:
            raise ConfigError("n_probes must be >= 2")
        if self.sketch_dim < 2:
            raise ConfigError("sketch_dim must be >= 2")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.batch_sizes is not None and min(self.batch_sizes) < 1:
            raise ConfigError("batch_sizes entries must be >= 1")
        if self.hvp_mode not in ("exact", "fd"):
            raise ConfigError(f"hvp_mode must be exact or fd, got {self.hvp_mode!r}")
        if self.sketch_layout not in ("summed", "concatenated"):
            raise ConfigError(f"unknown sketch_layout {self.sketch_layout!r}")

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        values = {}
        for key, raw in mapping.items():
            if key not in known:
                raise ConfigError(f"unknown config field {key!r}")
            try:
                values[key] = _CASTERS[key](raw)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from exc
        try:
            return cls(**values)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        return cls.from_mapping(parse_config_text(text))

    def require(self, *names: str):
        """Values of the named fields, or ConfigError naming what is missing."""
        values = []
        for name in names:
            value = getattr(self, name)
            if value is None:
                raise ConfigError(f"this command needs the config field {name!r}")
            values.append(value)
        return values[0] if len(values) == 1 else values


def load_config(path: str) -> tuple[ExperimentConfig, str]:
    """Config plus the raw text it was parsed from (for hashing)."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return ExperimentConfig.from_text(text), text


def sha256_hex(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()
