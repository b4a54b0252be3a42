"""Exception types shared across the pipeline.

Analysis stages prefer degrading with a :class:`Diagnostic` over raising;
exceptions are reserved for contract violations the caller must handle.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class RepoLensError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(RepoLensError):
    """Configuration document contains unknown keys or out-of-range values."""


class BudgetTooSmallError(RepoLensError):
    """Prompt token budget cannot hold even the target section."""


class EmptyBenchmarkError(RepoLensError):
    """Task file contained zero tasks."""


class EmbeddingBackendError(RepoLensError):
    """Dense embedding endpoint failed or answered with a bad payload."""


class BackendError(RepoLensError):
    """Base class for generation backend failures."""


class BackendTimeoutError(BackendError):
    """Backend did not answer within the configured timeout (after retries)."""


class BackendHttpError(BackendError):
    """Backend answered with a non-success HTTP status."""

    def __init__(self, status: int, message: str = "") -> None:
        super().__init__(message or f"backend returned HTTP {status}")
        self.status = status


class MalformedResponseError(BackendError):
    """Backend payload did not match the expected response schema."""


@dataclass(slots=True)
class Diagnostic:
    """Non-fatal analysis event, e.g. an ambiguous import suffix or a
    cross-file definition that could not be resolved."""

    code: str
    message: str
    context: dict[str, object] = field(default_factory=dict)

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"
