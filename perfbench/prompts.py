"""Reading rendered prompts: context recall and correctness checks.

Every check works on the prompt text as a user sees it, so the in-process
workload and the CLI workload are judged the same way.
"""

from __future__ import annotations

import keyword
import re
from pathlib import Path

from repolens.prompting import SECTION_HEADERS, estimate_tokens

_IDENT = re.compile(r"[A-Za-z_]\w*")
_EXEMPLAR_HEAD = re.compile(r"^- example from (.+):(\d+) \(score [^)]*\):$")
_TARGET_HEADER = SECTION_HEADERS["target"]
_HEADERS = set(SECTION_HEADERS.values())


def identifiers(text: str) -> set[str]:
    return {name for name in _IDENT.findall(text) if not keyword.iskeyword(name)}


def split_prompt(text: str) -> tuple[dict[str, list[str]], str]:
    """Lines of each non-target section by header, and the target text."""
    head, sep, target = text.rpartition(_TARGET_HEADER + "\n")
    if not sep:
        raise ValueError("prompt has no target section")
    sections: dict[str, list[str]] = {}
    current = None
    for line in head.split("\n"):
        if line in _HEADERS:
            current = sections.setdefault(line, [])
        elif current is not None:
            current.append(line)
    return sections, target


def context_id_recall(truth: str, prompt_text: str) -> float:
    """Share of the truth's identifiers found in the non-target sections."""
    wanted = identifiers(truth)
    if not wanted:
        raise ValueError(f"ground truth {truth!r} has no identifier")
    sections, _ = split_prompt(prompt_text)
    seen = identifiers("\n".join(line for lines in sections.values() for line in lines))
    return len(wanted & seen) / len(wanted)


def _indent(text: str) -> str:
    return "\n".join(f"  {line}" if line else "" for line in text.splitlines())


def stale_exemplars(prompt_text: str, repo: Path, window: int) -> list[str]:
    """Ids of exemplars whose text differs from the lines the id names now."""
    sections, _ = split_prompt(prompt_text)
    items: list[tuple[str, int, list[str]]] = []
    for line in sections.get(SECTION_HEADERS["exemplars"], []):
        match = _EXEMPLAR_HEAD.match(line)
        if match:
            items.append((match.group(1), int(match.group(2)), []))
        elif items:
            items[-1][2].append(line)
    stale = []
    for path, start, shown in items:
        while shown and not shown[-1]:
            shown.pop()
        lines = (repo / path).read_text(encoding="utf-8").splitlines()
        current = "\n".join(lines[start : start + window]).rstrip()
        if "\n".join(shown) != _indent(current):
            stale.append(f"{path}:{start}")
    return stale


def check_prompt(
    prompt_text: str, expected_tail: str, budget: int, repo: Path, window: int
) -> list[str]:
    """Every correctness problem of one prompt; empty when it is right."""
    problems = []
    tokens = estimate_tokens(prompt_text)
    if tokens > budget:
        problems.append(f"prompt has {tokens} tokens, budget is {budget}")
    _, target = split_prompt(prompt_text)
    if not target.endswith(expected_tail):
        problems.append(f"target section does not end with {expected_tail!r}")
    stale = stale_exemplars(prompt_text, repo, window)
    if stale:
        problems.append(f"exemplars differ from the files: {', '.join(stale)}")
    return problems
