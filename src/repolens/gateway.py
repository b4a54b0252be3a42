"""Pluggable completion backends.

``http_chat`` speaks the common chat-completions JSON protocol (single
user message carrying the prompt). ``mock_echo`` and ``mock_fixture`` are
deterministic stand-ins for tests and offline runs: echo returns the last
line of the prompt's target section, fixture looks completions up by task
id. Server errors and timeouts are retried with exponential backoff;
client errors fail immediately. ``post_json`` is the one HTTP client of the
package; the dense retriever uses it too.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import (
    BackendError,
    BackendHttpError,
    BackendTimeoutError,
    ConfigError,
    MalformedResponseError,
)

if TYPE_CHECKING:
    from .config import PipelineConfig
    from .prompting import PromptDocument

BACKENDS = ("http_chat", "mock_echo", "mock_fixture")


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


def read_fixture_table(path: str) -> dict[str, str]:
    """A ``fixture_path`` file's completions by task id; its faults raise ``ConfigError``."""
    try:
        table = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read fixture file {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"fixture file {path} is not JSON: {exc}") from exc
    if not isinstance(table, dict) or not all(isinstance(v, str) for v in table.values()):
        raise ConfigError(f"fixture file {path} must hold a JSON object of strings")
    return table


def _fixture_lookup(path: str, task_id: str | None, table: dict[str, str] | None) -> str:
    if table is None and path:
        table = read_fixture_table(path)
    if table is None:
        raise BackendError("mock_fixture backend needs fixture_table or fixture_path")
    if task_id is None or task_id not in table:
        raise BackendError(f"no fixture completion for task {task_id!r}")
    return table[task_id]


def post_json(url: str, payload: object, timeout: float) -> object:
    """POST ``payload`` as JSON to ``url`` and return the decoded reply.

    Transport failures become package errors here: an error status is a
    ``BackendHttpError``, no answer within ``timeout`` seconds a
    ``BackendTimeoutError``, a URL that is not http(s) or any other
    failure to connect or read a ``BackendError``, and a body that is not
    JSON a ``MalformedResponseError``.
    """

    if not url.lower().startswith(("http://", "https://")):
        raise BackendError(f"request to {url} failed: not an http(s) URL")
    data = json.dumps(payload).encode()
    try:
        request = urllib.request.Request(
            url, data=data, headers={"Content-Type": "application/json"}
        )
        with urllib.request.urlopen(request, timeout=timeout) as response:
            body = response.read()
    except urllib.error.HTTPError as err:
        err.close()
        raise BackendHttpError(err.code) from err
    except (OSError, http.client.HTTPException, ValueError) as err:
        # a connect timeout arrives wrapped in URLError, a read timeout bare
        if isinstance(err, TimeoutError) or isinstance(getattr(err, "reason", None), TimeoutError):
            raise BackendTimeoutError(f"no answer from {url} within {timeout}s") from err
        raise BackendError(f"request to {url} failed: {err}") from err
    try:
        return json.loads(body)
    except ValueError as err:
        raise MalformedResponseError(f"reply from {url} is not JSON: {err}") from err


def _http_chat(prompt: PromptDocument, cfg: PipelineConfig) -> tuple[str, int]:
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
    for attempt in range(cfg.retries + 1):
        if attempt:
            time.sleep(cfg.backoff * 2 ** (attempt - 1))
        try:
            reply = post_json(cfg.endpoint, payload, cfg.timeout)
        except BackendHttpError as err:
            if err.status < 500:
                raise
            last_error = err
            continue
        except BackendTimeoutError as err:
            last_error = err
            continue
        try:
            content = reply["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as err:
            raise MalformedResponseError(f"unexpected completion payload: {err}") from err
        if not isinstance(content, str):
            raise MalformedResponseError("completion content is not text")
        return content, attempt + 1
    assert last_error is not None
    raise last_error


def generate(
    prompt: PromptDocument,
    cfg: PipelineConfig,
    task_id: str | None = None,
    fixture_table: dict[str, str] | None = None,
) -> GenerationResult:
    """Run one completion with the backend fields of ``cfg``; the returned text
    is the first generated line. ``fixture_table`` stands in for the file at
    ``fixture_path``, whose faults raise ``ConfigError``."""

    attempts = 1
    if cfg.backend == "mock_echo":
        raw = _target_text(prompt).splitlines()[-1] if _target_text(prompt) else ""
    elif cfg.backend == "mock_fixture":
        raw = _fixture_lookup(cfg.fixture_path, task_id, fixture_table)
    else:
        raw, attempts = _http_chat(prompt, cfg)
    return GenerationResult(
        text=_extract_line(raw, cfg.stop),
        raw=raw,
        backend=cfg.backend,
        attempts=attempts,
    )
