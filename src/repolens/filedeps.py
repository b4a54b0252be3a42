"""File-level dependency partition around the cursor.

Pre-cursor definitions split into two buckets against the usage set of the
target function: names both defined and used are explicit dependencies,
names defined but unused are potential ones. Function-internal
self-references (locals shadowing a module name, the function calling
itself) never count as dependencies. At script scope there is no usage set,
so every pre-cursor definition lands in the potential bucket.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import PipelineConfig
from .syntax import SymbolRecord, SyntaxNode, declared_name


@dataclass(frozen=True, slots=True)
class FileDependency:
    """A pre-cursor definition classified as explicit or potential; the
    preview truncates long function bodies to signature plus a few lines."""

    symbol: SymbolRecord
    dep_kind: str  # explicit | potential
    preview: str


def local_bindings(owner: SyntaxNode | None) -> set[str]:
    """Names bound inside the owner function: parameters, assignment
    targets, loop variables, nested definitions."""
    if owner is None:
        return set()
    return {
        leaf.value
        for leaf in owner.leaves()
        if leaf.kind == "name" and leaf.is_def and leaf.value
    }


def code_preview(code: str, body_lines: int) -> str:
    """Cut ``code`` down to its header line plus ``body_lines`` more,
    appending an ellipsis marker when anything was dropped."""
    lines = code.splitlines()
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
    owner: SyntaxNode | None,
    *,
    body_preview_lines: int = PipelineConfig.body_preview_lines,
) -> list[FileDependency]:
    """Definitions whose names the target function actually references,
    excluding its own name and anything it binds locally. Empty at script
    scope (no owner means no usage matching)."""
    if owner is None:
        return []
    bindings = local_bindings(owner)
    name_leaf = declared_name(owner)
    owner_name = name_leaf.value if name_leaf else None
    effective = uses - bindings
    if owner_name:
        effective.discard(owner_name)
    return [
        FileDependency(symbol=d, dep_kind="explicit", preview=_preview(d, body_preview_lines))
        for d in defs
        if d.name in effective and d.name != owner_name
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
