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

from .config import PipelineConfig
from .errors import BudgetTooSmallError
from .ranking import GraphNode, RankedContext
from .retrieval import ExemplarSet

SECTION_HEADERS = {
    "function_ctx": "### Function-level context (control flow)",
    "file_ctx": "### File-level context",
    "project_ctx": "### Project-level context",
    "exemplars": "### Similar code examples",
    "target": "### Complete the following code",
}

# drop priority: which section loses an item next, and from which end
_DROP_ORDER = (("exemplars", -1), ("project_ctx", -1), ("file_ctx", -1), ("function_ctx", 0))

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
    # lines end at "\n" only, as the index cuts them: str.splitlines would
    # also break at a form feed and other separators inside a line
    return "\n".join(f"  {line}" if line else "" for line in text.split("\n"))


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


def render(
    ranked: RankedContext,
    cfg_text: str,
    exemplars: ExemplarSet,
    target_code: str,
    budget: int = PipelineConfig.token_budget,
    *,
    target_path: str = "",
) -> PromptDocument:
    """Render the prompt, dropping low-priority items to meet the budget.

    Tokens never span whitespace and the prompt joins headers, items and
    the target with newlines, so its token count is the sum of theirs:
    each piece is counted once and the total follows the drops.
    """

    target_text = target_code.rstrip("\n")
    total = estimate_tokens(f"{SECTION_HEADERS['target']}\n{target_text}")
    if total > budget:
        raise BudgetTooSmallError(f"target section alone needs {total} tokens, budget is {budget}")

    # (label, text) per item; the sections are in prompt order, target last
    parts: dict[str, list[tuple[str, str]]] = {
        "function_ctx": [(line, line) for line in cfg_text.split("\n") if line.strip()],
        "file_ctx": [(n.label, _render_node(n, target_path)) for n in ranked.file_topk],
        "project_ctx": [(n.label, _render_node(n, target_path)) for n in ranked.project_topk],
        "exemplars": [(e.snippet.snippet_id, _render_exemplar(e)) for e in exemplars.entries],
    }
    costs = {kind: [estimate_tokens(text) for _, text in items] for kind, items in parts.items()}
    for kind, item_costs in costs.items():
        if item_costs:
            total += estimate_tokens(SECTION_HEADERS[kind]) + sum(item_costs)

    truncations: list[tuple[str, str]] = []
    for kind, end in _DROP_ORDER:
        items = parts[kind]
        while total > budget and items:
            label, _ = items.pop(end)
            total -= costs[kind].pop(end)
            truncations.append((kind, label))
            if not items:
                total -= estimate_tokens(SECTION_HEADERS[kind])

    sections = [(kind, "\n".join(text for _, text in items)) for kind, items in parts.items() if items]
    sections.append(("target", target_text))
    return PromptDocument(
        sections=sections,
        token_count=total,
        truncations=truncations,
        text="\n\n".join(f"{SECTION_HEADERS[kind]}\n{body}" for kind, body in sections),
    )
