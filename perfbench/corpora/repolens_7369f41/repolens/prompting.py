"""Prompt assembly under a token budget.

Sections appear in a fixed order: function-level control flow, file-level
context, project-level context, retrieved examples, then the unfinished
code. When the estimate exceeds the budget, items are dropped in fixed
priority: exemplars from the tail, then the lowest-scored project items,
then the lowest-scored file items, then CFG lines from the earliest. The
target section is never cut; a budget that cannot hold it alone is an
error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import BudgetTooSmallError
from .ranking import GraphNode, RankedContext
from .retrieval import ExemplarSet

DEFAULT_BUDGET = 4000

SECTION_HEADERS = {
    "function_ctx": "### Function-level context (control flow)",
    "file_ctx": "### File-level context",
    "project_ctx": "### Project-level context",
    "exemplars": "### Similar code examples",
    "target": "### Complete the following code",
}

_SECTION_ORDER = ("function_ctx", "file_ctx", "project_ctx", "exemplars", "target")

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


@dataclass(frozen=True, slots=True)
class PromptDocument:
    sections: list[tuple[str, str]]
    token_count: int
    truncations: list[tuple[str, str]]
    text: str


def estimate_tokens(text: str) -> int:
    """Deterministic local token estimate: words and punctuation marks."""
    return len(_TOKEN_RE.findall(text))


def _indent(text: str) -> str:
    return "\n".join(f"  {line}" if line else "" for line in text.splitlines())


def _node_location(node: GraphNode, target_path: str) -> str:
    dep = node.payload
    if node.level == "project":
        resolved = getattr(dep, "resolved", None)
        if resolved is not None and dep.resolved_path is not None:
            return f"{dep.resolved_path}:{resolved.def_span.start_line + 1}"
        line = dep.import_rec.import_span.start_line + 1
        return f"{target_path}:{line}" if target_path else f"line {line}"
    line = node.origin_ref[0] + 1
    return f"{target_path}:{line}" if target_path else f"line {line}"


def _render_node(node: GraphNode, target_path: str) -> str:
    head = f"- {node.label} ({node.node_kind}, defined at {_node_location(node, target_path)}):"
    preview = node.preview.rstrip("\n")
    if not preview:
        return head
    return f"{head}\n{_indent(preview)}"


def _render_exemplar(entry) -> str:
    head = f"- example from {entry.snippet.snippet_id} (score {entry.final_score:.2f}):"
    return f"{head}\n{_indent(entry.snippet.text.rstrip())}"


def _assemble(parts: dict[str, list[str]], target_text: str) -> str:
    blocks = []
    for kind in _SECTION_ORDER:
        if kind == "target":
            blocks.append(f"{SECTION_HEADERS['target']}\n{target_text}")
            continue
        items = parts[kind]
        if not items:
            continue
        blocks.append(SECTION_HEADERS[kind] + "\n" + "\n".join(items))
    return "\n\n".join(blocks)


def render(
    ranked: RankedContext,
    cfg_text: str,
    exemplars: ExemplarSet,
    target_code: str,
    budget: int = DEFAULT_BUDGET,
    *,
    target_path: str = "",
) -> PromptDocument:
    """Render the prompt, dropping low-priority items to meet the budget."""

    target_text = target_code.rstrip("\n")
    target_block = f"{SECTION_HEADERS['target']}\n{target_text}"
    if estimate_tokens(target_block) > budget:
        raise BudgetTooSmallError(
            f"target section alone needs {estimate_tokens(target_block)} tokens, budget is {budget}"
        )

    cfg_lines = [line for line in cfg_text.splitlines() if line.strip()]
    parts: dict[str, list[str]] = {
        "function_ctx": list(cfg_lines),
        "file_ctx": [_render_node(n, target_path) for n in ranked.file_topk],
        "project_ctx": [_render_node(n, target_path) for n in ranked.project_topk],
        "exemplars": [_render_exemplar(e) for e in exemplars.entries],
    }
    labels: dict[str, list[str]] = {
        "function_ctx": list(cfg_lines),
        "file_ctx": [n.label for n in ranked.file_topk],
        "project_ctx": [n.label for n in ranked.project_topk],
        "exemplars": [e.snippet.snippet_id for e in exemplars.entries],
    }

    truncations: list[tuple[str, str]] = []

    def drop_one() -> bool:
        for kind, from_tail in (
            ("exemplars", True),
            ("project_ctx", True),
            ("file_ctx", True),
            ("function_ctx", False),
        ):
            if parts[kind]:
                idx = -1 if from_tail else 0
                parts[kind].pop(idx)
                truncations.append((kind, labels[kind].pop(idx)))
                return True
        return False

    text = _assemble(parts, target_text)
    while estimate_tokens(text) > budget:
        if not drop_one():
            break
        text = _assemble(parts, target_text)

    sections: list[tuple[str, str]] = []
    for kind in _SECTION_ORDER:
        if kind == "target":
            sections.append(("target", target_text))
        elif parts[kind]:
            sections.append((kind, "\n".join(parts[kind])))
    return PromptDocument(
        sections=sections,
        token_count=estimate_tokens(text),
        truncations=truncations,
        text=text,
    )
