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


def _int_tuple(v: str) -> tuple[int, ...]:
    return tuple(int(part.strip(), 10) for part in v.split(","))


def _float_tuple(v: str) -> tuple[float, ...]:
    return tuple(_float(part.strip()) for part in v.split(","))


# Caster of each field annotation, an optional field's by its "| None" base.
_ANNOTATION_CASTERS = {
    "str": str,
    "int": _int,
    "float": _float,
    "tuple[int, ...]": _int_tuple,
    "tuple[float, ...]": _float_tuple,
}


def _caster(annotation: str):
    return _ANNOTATION_CASTERS[annotation.removesuffix(" | None")]


# Lower bound of each bounded field as (bound, strict): a value must exceed a
# strict bound and reach any other.  Unset (None) fields are not checked; a
# tuple field is checked entry by entry.
_LOWER_BOUNDS = {
    "seed": (0, False),
    "n_examples": (1, False),
    "n_probes": (2, False),
    "sketch_dim": (2, False),
    "fd_delta": (0, True),
    "c_const": (0, True),
    "t_multiplier": (0, True),
    "eta": (0, True),
    "lambda_damp": (0, False),
    "batch_size": (1, False),
    "t_steps": (1, False),
    "snapshot_every": (0, False),
    "tolerance": (0, False),
    "batch_sizes": (1, False),
    "epsilon": (0, True),
    "pbrf_steps": (1, False),
    "n_train": (1, False),
    "n_test": (1, False),
    "n_runs": (2, False),
    "t_max": (1, False),
    "n_docs": (1, False),
    "doc_length": (1, False),
    "vocab_size": (2, False),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Typed view of one run's settings; None means derive or use a default."""

    command: str | None = None
    seed: int = 0
    out_dir: str | None = None
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
    # set: the curvature operator takes J v by central differences of this step
    fd_delta: float | None = None
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
        for name, (bound, strict) in _LOWER_BOUNDS.items():
            value = getattr(self, name)
            if value is None:
                continue
            low = min(value) if isinstance(value, tuple) else value
            if low < bound or (strict and low == bound):
                raise ConfigError(
                    f"{name} must be {'>' if strict else '>='} {bound}, got {low!r}"
                )
        if self.sketch_layout not in ("summed", "concatenated"):
            raise ConfigError(f"unknown sketch_layout {self.sketch_layout!r}")

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "ExperimentConfig":
        annotations = {f.name: f.type for f in fields(cls)}
        values = {}
        for key, raw in mapping.items():
            if key not in annotations:
                raise ConfigError(f"unknown config field {key!r}")
            try:
                values[key] = _caster(annotations[key])(raw)
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
