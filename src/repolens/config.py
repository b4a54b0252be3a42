"""Pipeline configuration in layers.

Values resolve in a fixed order: built-in defaults, then a YAML file, then
``REPOLENS_*`` environment variables. The field defaults of
``PipelineConfig`` are the only place a default is written, and its
``__post_init__`` the only place a value is checked; layer functions that
take a tunable default to the matching class attribute. Unknown keys,
non-finite floats and out-of-range values raise ConfigError instead of
being silently ignored.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping

from .errors import ConfigError
from .gateway import BACKENDS

_ENV_PREFIX = "REPOLENS_"
_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


@dataclass(frozen=True)
class PipelineConfig:
    """Every tunable of the pipeline in one flat record."""

    # graph ranking
    alpha: float = 0.85
    tol: float = 1e-8
    max_iter: int = 200
    top_k: int = 5
    body_preview_lines: int = 8
    # snippet retrieval and re-ranking
    window: int = 20
    stride: int = 10
    pool_size: int = 20
    k_final: int = 5
    w_semantic: float = 0.7
    w_structure: float = 0.3
    embedding_endpoint: str = ""
    # prompt rendering
    token_budget: int = 4000
    # generation backend
    backend: str = "mock_echo"
    endpoint: str = ""
    model: str = ""
    max_new_tokens: int = 64
    temperature: float = 0.0
    seed: int = 123
    stop: tuple[str, ...] = ()
    timeout: float = 30.0
    retries: int = 2
    backoff: float = 0.5
    fixture_path: str = ""
    # evaluation
    max_concurrency: int = 4
    idem_unordered: bool = False

    def __post_init__(self) -> None:
        for name, kind in _field_kinds().items():
            if kind is float and not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)!r}")
        checks = [
            (0.0 < self.alpha < 1.0, "alpha must be in (0, 1)"),
            (self.tol > 0, "tol must be positive"),
            (self.max_iter >= 1, "max_iter must be at least 1"),
            (self.top_k >= 1, "top_k must be at least 1"),
            (self.body_preview_lines >= 1, "body_preview_lines must be at least 1"),
            (self.window >= 1, "window must be at least 1"),
            (self.stride >= 1, "stride must be at least 1"),
            (self.pool_size >= 1, "pool_size must be at least 1"),
            (self.k_final >= 1, "k_final must be at least 1"),
            (0.0 <= self.w_semantic <= 1.0, "w_semantic must be in [0, 1]"),
            (0.0 <= self.w_structure <= 1.0, "w_structure must be in [0, 1]"),
            (
                abs(self.w_semantic + self.w_structure - 1.0) <= 1e-9,
                "w_semantic and w_structure must sum to 1",
            ),
            (self.token_budget >= 1, "token_budget must be at least 1"),
            (self.max_concurrency >= 1, "max_concurrency must be at least 1"),
            (
                self.backend in BACKENDS,
                f"unknown backend {self.backend!r}, expected one of {BACKENDS}",
            ),
            (self.max_new_tokens >= 1, "max_new_tokens must be at least 1"),
            (self.temperature >= 0.0, "temperature must be non-negative"),
            (self.timeout > 0, "timeout must be positive"),
            (self.retries >= 0, "retries must be non-negative"),
            (self.backoff >= 0, "backoff must be non-negative"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)

    @property
    def weights(self) -> tuple[float, float]:
        return (self.w_semantic, self.w_structure)


def _coerce_env(name: str, value: str, kind: type) -> object:
    if kind is bool:
        word = value.strip().lower()
        if word in _TRUE_WORDS:
            return True
        if word in _FALSE_WORDS:
            return False
        raise ConfigError(f"{name}: cannot read {value!r} as a boolean")
    if kind is int or kind is float:
        try:
            return kind(value)
        except ValueError:
            raise ConfigError(f"{name}: cannot read {value!r} as {kind.__name__}") from None
    if kind is str:
        return value
    return tuple(part for part in value.split(",") if part)


def _check_value(name: str, value: object, kind: type) -> object:
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{name}: expected a boolean, got {value!r}")
        return value
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{name}: expected an integer, got {value!r}")
        return value
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name}: expected a number, got {value!r}")
        return float(value)
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{name}: expected a string, got {value!r}")
        return value
    if isinstance(value, str):
        return (value,)
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{name}: expected a list of strings, got {value!r}")
    return tuple(value)


def _field_kinds() -> dict[str, type]:
    """Each field's kind is the type of its default."""

    return {field.name: type(field.default) for field in fields(PipelineConfig)}


def load_config(
    path: Path | str | None = None,
    env: Mapping[str, str] | None = None,
) -> PipelineConfig:
    """Merge a YAML file and environment variables on top of the
    defaults; later layers win."""

    kinds = _field_kinds()
    merged: dict[str, object] = {}

    if path is not None:
        import yaml  # only a config file needs the YAML parser

        try:
            doc = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from exc
        if doc is None:
            doc = {}
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {path} must hold a key/value mapping")
        for key, value in doc.items():
            if key not in kinds:
                raise ConfigError(f"unknown config key {key!r} in {path}")
            merged[key] = _check_value(key, value, kinds[key])

    if env is None:
        env = os.environ
    for name in sorted(env):
        if not name.startswith(_ENV_PREFIX):
            continue
        key = name[len(_ENV_PREFIX) :].lower()
        if key not in kinds:
            raise ConfigError(f"unknown environment variable {name}")
        merged[key] = _coerce_env(name, env[name], kinds[key])

    return PipelineConfig(**merged)


def generation_config(cfg: PipelineConfig) -> PipelineConfig:
    """Identity: the gateway reads ``PipelineConfig``; the benchmark harness still calls this."""
    return cfg
