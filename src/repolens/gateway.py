"""Pluggable completion backends.

``http_chat`` speaks the common chat-completions JSON protocol (single
user message carrying the prompt). ``mock_echo`` and ``mock_fixture`` are
deterministic stand-ins for tests and offline runs: echo returns the last
line of the prompt's target section, fixture looks completions up by task
id. Server errors and timeouts are retried with exponential backoff;
client errors fail immediately.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import requests

from .errors import (
    BackendError,
    BackendHttpError,
    BackendTimeoutError,
    ConfigError,
    MalformedResponseError,
)
from .prompting import PromptDocument

_BACKENDS = ("http_chat", "mock_echo", "mock_fixture")


@dataclass(slots=True)
class GenerationConfig:
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
    fixture_table: dict[str, str] | None = None
    fixture_path: str | None = None

    def __post_init__(self) -> None:
        checks = [
            (
                self.backend in _BACKENDS,
                f"unknown backend {self.backend!r}, expected one of {_BACKENDS}",
            ),
            (self.max_new_tokens >= 1, "max_new_tokens must be at least 1"),
            (self.temperature >= 0.0, "temperature must be non-negative"),
            (self.timeout > 0, "timeout must be positive"),
            (self.retries >= 0, "retries must be non-negative"),
            (self.backoff >= 0, "backoff must be non-negative"),
            (self.max_concurrency >= 1, "max_concurrency must be at least 1"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)


@dataclass(frozen=True, slots=True)
class GenerationResult:
    text: str  # line completion: raw up to the first newline
    raw: str
    backend: str
    attempts: int


def _extract_line(raw: str, stop: tuple[str, ...]) -> str:
    text = raw.lstrip("\n").split("\n", 1)[0]
    for sequence in stop:
        text = text.split(sequence, 1)[0]
    return text


def _target_text(prompt: PromptDocument) -> str:
    for kind, text in prompt.sections:
        if kind == "target":
            return text
    return prompt.text


def _fixture_lookup(cfg: GenerationConfig, task_id: str | None) -> str:
    table = cfg.fixture_table
    if table is None and cfg.fixture_path:
        table = json.loads(Path(cfg.fixture_path).read_text(encoding="utf-8"))
    if table is None:
        raise BackendError("mock_fixture backend needs fixture_table or fixture_path")
    if task_id is None or task_id not in table:
        raise BackendError(f"no fixture completion for task {task_id!r}")
    return table[task_id]


def _http_chat(prompt: PromptDocument, cfg: GenerationConfig) -> tuple[str, int]:
    payload = {
        "model": cfg.model,
        "messages": [{"role": "user", "content": prompt.text}],
        "max_tokens": cfg.max_new_tokens,
        "temperature": cfg.temperature,
        "seed": cfg.seed,
    }
    if cfg.stop:
        payload["stop"] = list(cfg.stop)

    last_error: BackendError | None = None
    attempts = 0
    for attempt in range(cfg.retries + 1):
        attempts = attempt + 1
        if attempt:
            time.sleep(cfg.backoff * 2 ** (attempt - 1))
        try:
            response = requests.post(cfg.endpoint, json=payload, timeout=cfg.timeout)
        except requests.Timeout:
            last_error = BackendTimeoutError(
                f"no answer from {cfg.endpoint} within {cfg.timeout}s"
            )
            continue
        except requests.RequestException as err:
            raise BackendError(f"request to {cfg.endpoint} failed: {err}") from err
        if 500 <= response.status_code < 600:
            last_error = BackendHttpError(response.status_code)
            continue
        if response.status_code >= 400:
            raise BackendHttpError(response.status_code)
        try:
            content = response.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as err:
            raise MalformedResponseError(f"unexpected completion payload: {err}") from err
        if not isinstance(content, str):
            raise MalformedResponseError("completion content is not text")
        return content, attempts
    assert last_error is not None
    raise last_error


def generate(
    prompt: PromptDocument, cfg: GenerationConfig, task_id: str | None = None
) -> GenerationResult:
    """Run one completion; the returned text is the first generated line."""

    attempts = 1
    if cfg.backend == "mock_echo":
        raw = _target_text(prompt).splitlines()[-1] if _target_text(prompt) else ""
    elif cfg.backend == "mock_fixture":
        raw = _fixture_lookup(cfg, task_id)
    else:
        raw, attempts = _http_chat(prompt, cfg)
    return GenerationResult(
        text=_extract_line(raw, cfg.stop),
        raw=raw,
        backend=cfg.backend,
        attempts=attempts,
    )
