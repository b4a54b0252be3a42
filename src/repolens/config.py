"""Pipeline configuration with layered overrides.

Values resolve in a fixed order: built-in defaults, then a YAML file, then
``REPOLENS_*`` environment variables, then explicit overrides (CLI flags).
Unknown keys and out-of-range values raise ConfigError instead of being
silently ignored.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping

import yaml

from .errors import ConfigError
from .gateway import GenerationConfig

_ENV_PREFIX = "REPOLENS_"
_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


@dataclass(frozen=True)
class PipelineConfig:
    """Every tunable of the pipeline in one flat record."""

    # graph ranking
    alpha: float = 0.85
    tol: float = 1e-8
    max_iter: int = 100
    top_k: int = 5
    body_preview_lines: int = 8
    # snippet retrieval and re-ranking
    window: int = 20
    stride: int = 10
    pool_size: int = 20
    k_final: int = 5
    w_semantic: float = 0.7
    w_structure: float = 0.3
    path_depth: int = 12
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
    max_concurrency: int = 4
    fixture_path: str = ""
    # evaluation
    idem_unordered: bool = False

    def __post_init__(self) -> None:
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
            (self.path_depth >= 1, "path_depth must be at least 1"),
            (self.token_budget >= 1, "token_budget must be at least 1"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        # the gateway owns the checks on the backend fields
        generation_config(self)

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
    kinds: dict[str, type] = {}
    for field in fields(PipelineConfig):
        text = field.type if isinstance(field.type, str) else field.type.__name__
        kinds[field.name] = {"float": float, "int": int, "str": str, "bool": bool}.get(
            text.split("[")[0].strip(), tuple
        )
    return kinds


def load_config(
    path: Path | str | None = None,
    env: Mapping[str, str] | None = None,
    overrides: Mapping[str, object] | None = None,
) -> PipelineConfig:
    """Merge a YAML file, environment variables, and explicit overrides on
    top of the defaults; later layers win."""

    kinds = _field_kinds()
    merged: dict[str, object] = {}

    if path is not None:
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

    for key, value in (overrides or {}).items():
        if key not in kinds:
            raise ConfigError(f"unknown config override {key!r}")
        merged[key] = _check_value(key, value, kinds[key])

    return PipelineConfig(**merged)


def generation_config(
    cfg: PipelineConfig, fixture_table: dict[str, str] | None = None
) -> GenerationConfig:
    """Project the backend slice of the pipeline config onto the gateway."""

    return GenerationConfig(
        backend=cfg.backend,
        endpoint=cfg.endpoint,
        model=cfg.model,
        max_new_tokens=cfg.max_new_tokens,
        temperature=cfg.temperature,
        seed=cfg.seed,
        stop=cfg.stop,
        timeout=cfg.timeout,
        retries=cfg.retries,
        backoff=cfg.backoff,
        max_concurrency=cfg.max_concurrency,
        fixture_table=fixture_table,
        fixture_path=cfg.fixture_path or None,
    )
