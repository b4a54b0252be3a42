"""File-level dependency partition around the cursor.

Pre-cursor definitions split into two buckets against the usage set of the
target function: names both defined and used are explicit dependencies,
names defined but unused are potential ones. Names the function binds
(locals shadowing a module name, its own name when it calls itself) never
count as dependencies. At script scope there is no usage set,
so every pre-cursor definition lands in the potential bucket.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import PipelineConfig
from .syntax import SymbolRecord


@dataclass(frozen=True, slots=True)
class FileDependency:
    """A pre-cursor definition classified as explicit or potential; the
    preview truncates long function bodies to signature plus a few lines."""

    symbol: SymbolRecord
    dep_kind: str  # explicit | potential
    preview: str


def code_preview(code: str, body_lines: int) -> str:
    """Cut ``code`` down to its header line plus ``body_lines`` more,
    appending an ellipsis marker when anything was dropped. Lines end at
    "\n" only, so a form feed inside a line keeps it whole."""
    lines = code.removesuffix("\n").split("\n")
    header_end = 0
    for i, line in enumerate(lines):
        if line.rstrip().endswith(":"):
            header_end = i
            break
    keep = header_end + 1 + body_lines
    if len(lines) <= keep:
        return code
    return "\n".join(lines[:keep] + ["    ..."])


def _preview(symbol: SymbolRecord, body_lines: int) -> str:
    if symbol.sym_kind == "function":
        return code_preview(symbol.code, body_lines)
    return symbol.code


def explicit_deps(
    defs: list[SymbolRecord],
    uses: set[str],
    owner: SymbolRecord | None,
    *,
    body_preview_lines: int = PipelineConfig.body_preview_lines,
) -> list[FileDependency]:
    """Definitions whose names the target function actually references,
    excluding what the function binds (its own name included). Empty at
    script scope (no owner means no usage matching)."""
    if owner is None:
        return []
    effective = uses.difference(owner.refs.bound)
    return [
        FileDependency(symbol=d, dep_kind="explicit", preview=_preview(d, body_preview_lines))
        for d in defs
        if d.name in effective
    ]


def potential_deps(
    defs: list[SymbolRecord],
    uses: set[str],
    *,
    body_preview_lines: int = PipelineConfig.body_preview_lines,
) -> list[FileDependency]:
    """Definitions the cursor can see but the target function has not used
    yet; the set difference applies at any scope."""
    return [
        FileDependency(symbol=d, dep_kind="potential", preview=_preview(d, body_preview_lines))
        for d in defs
        if d.name not in uses
    ]
