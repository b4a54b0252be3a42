"""Sliding-window snippet index, similarity scoring and re-ranking.

Candidates come from a plain lexical scorer (identifier-bag Jaccard) or an
optional dense scorer speaking JSON over HTTP; either way the pool is then
re-ranked by a weighted blend of the semantic score and an AST-path Jaccard
similarity, so structurally close snippets rise even when identifiers
differ.
"""

from __future__ import annotations

import json
import keyword
import math
import re
from dataclasses import dataclass
from pathlib import Path

import requests

from .errors import Diagnostic, EmbeddingBackendError
from .projdeps import _iter_source_files
from .syntax import SourceFile, SyntaxNode, parse

DEFAULT_WINDOW = 20
DEFAULT_STRIDE = 10
DEFAULT_POOL_SIZE = 20
DEFAULT_K_FINAL = 5
DEFAULT_WEIGHTS = (0.7, 0.3)
DEFAULT_PATH_DEPTH = 12

_INDEX_VERSION = 1

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
_KEYWORDS = frozenset(keyword.kwlist)


@dataclass(frozen=True, slots=True)
class Snippet:
    snippet_id: str
    path: str
    start_line: int
    end_line: int  # exclusive
    text: str
    tokens: frozenset[str]
    ast_paths: frozenset[str]


@dataclass(frozen=True, slots=True)
class SnippetIndex:
    root: str
    window: int
    stride: int
    snippets: list[Snippet]


@dataclass(frozen=True, slots=True)
class ExemplarEntry:
    snippet: Snippet
    sem_score: float
    structure_score: float
    final_score: float


@dataclass(frozen=True, slots=True)
class ExemplarSet:
    entries: list[ExemplarEntry]
    weights: tuple[float, float]


def identifier_tokens(text: str) -> set[str]:
    """Identifier bag of a code fragment, keywords removed."""
    return {tok for tok in _IDENTIFIER.findall(text) if tok not in _KEYWORDS}


def ast_paths_of(text: str, depth_cap: int = DEFAULT_PATH_DEPTH) -> frozenset[str]:
    """Root-to-terminal node-kind paths of ``text``, identifiers erased.

    Each path is the "/"-joined kind sequence from the module root down to
    one terminal token, truncated to ``depth_cap`` kinds. Erasing token
    values makes the resulting set rename-invariant.
    """

    if not text.strip():
        return frozenset()
    tree = parse(SourceFile.from_text("snippet.py", text))
    paths: set[str] = set()

    def descend(node: SyntaxNode, prefix: tuple[str, ...]) -> None:
        chain = prefix + (node.kind,)
        if not node.children:
            paths.add("/".join(chain[:depth_cap]))
            return
        for child in node.children:
            descend(child, chain)

    descend(tree.root, ())
    return frozenset(paths)


def build_index(
    repo_root: Path | str,
    window: int = DEFAULT_WINDOW,
    stride: int = DEFAULT_STRIDE,
    exclude: str | None = None,
    diagnostics: list[Diagnostic] | None = None,
) -> SnippetIndex:
    """Slide a fixed window over every source file except ``exclude``."""

    root = Path(repo_root).resolve()
    snippets: list[Snippet] = []
    for path in _iter_source_files(root, diagnostics):
        rel = path.relative_to(root).as_posix()
        if exclude is not None and rel == exclude:
            continue
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as err:
            if diagnostics is not None:
                diagnostics.append(
                    Diagnostic(
                        code="unreadable_file",
                        message=f"skipped {rel}: {err}",
                        context={"path": rel},
                    )
                )
            continue
        lines = text.splitlines()
        for start in range(0, max(len(lines) - window, 0) + 1, stride):
            chunk = "\n".join(lines[start : start + window])
            snippets.append(
                Snippet(
                    snippet_id=f"{rel}:{start}",
                    path=rel,
                    start_line=start,
                    end_line=min(start + window, len(lines)),
                    text=chunk,
                    tokens=frozenset(identifier_tokens(chunk)),
                    ast_paths=ast_paths_of(chunk),
                )
            )
    return SnippetIndex(root=str(root), window=window, stride=stride, snippets=snippets)


def save_index(index: SnippetIndex, path: Path | str) -> None:
    doc = {
        "version": _INDEX_VERSION,
        "root": index.root,
        "window": index.window,
        "stride": index.stride,
        "snippets": [
            {
                "id": s.snippet_id,
                "path": s.path,
                "start": s.start_line,
                "end": s.end_line,
                "text": s.text,
                "tokens": sorted(s.tokens),
                "ast_paths": sorted(s.ast_paths),
            }
            for s in index.snippets
        ],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def load_index(path: Path | str) -> SnippetIndex | None:
    """Read a cached index back; None when absent, stale or malformed."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict) or doc.get("version") != _INDEX_VERSION:
        return None
    try:
        snippets = [
            Snippet(
                snippet_id=row["id"],
                path=row["path"],
                start_line=row["start"],
                end_line=row["end"],
                text=row["text"],
                tokens=frozenset(row["tokens"]),
                ast_paths=frozenset(row["ast_paths"]),
            )
            for row in doc["snippets"]
        ]
        return SnippetIndex(
            root=doc["root"], window=doc["window"], stride=doc["stride"], snippets=snippets
        )
    except (KeyError, TypeError):
        return None


def _jaccard(a: frozenset[str] | set[str], b: frozenset[str] | set[str]) -> float:
    union = len(a | b)
    if union == 0:
        return 0.0
    return len(a & b) / union


class LexicalScorer:
    """Jaccard similarity over identifier-token bags."""

    def scores(self, query: str, snippets: list[Snippet]) -> list[float]:
        bag = identifier_tokens(query)
        return [_jaccard(bag, s.tokens) for s in snippets]


def _cosine(a: list[float], b: list[float]) -> float:
    dot = sum(x * y for x, y in zip(a, b))
    norm = math.sqrt(sum(x * x for x in a)) * math.sqrt(sum(y * y for y in b))
    if norm == 0.0:
        return 0.0
    return dot / norm


class DenseScorer:
    """Embedding-endpoint scorer: POST {texts: [...]} -> {vectors: [[...]]}.

    Snippet vectors are requested once and cached by snippet id; the query
    is embedded per call. Cosine similarities are min-max normalized per
    query so downstream weighting sees [0, 1].
    """

    def __init__(self, endpoint: str, timeout: float = 30.0, session: requests.Session | None = None):
        self.endpoint = endpoint
        self.timeout = timeout
        self._session = session or requests.Session()
        self._vectors: dict[str, list[float]] = {}

    def _embed(self, texts: list[str]) -> list[list[float]]:
        try:
            response = self._session.post(
                self.endpoint, json={"texts": texts}, timeout=self.timeout
            )
            response.raise_for_status()
            vectors = response.json()["vectors"]
        except (requests.RequestException, KeyError, ValueError) as err:
            raise EmbeddingBackendError(f"embedding request failed: {err}") from err
        if not isinstance(vectors, list) or len(vectors) != len(texts):
            raise EmbeddingBackendError("embedding reply does not match request size")
        return vectors

    def scores(self, query: str, snippets: list[Snippet]) -> list[float]:
        missing = [s for s in snippets if s.snippet_id not in self._vectors]
        if missing:
            for snippet, vector in zip(missing, self._embed([s.text for s in missing])):
                self._vectors[snippet.snippet_id] = vector
        query_vec = self._embed([query])[0]
        sims = [_cosine(query_vec, self._vectors[s.snippet_id]) for s in snippets]
        low, high = min(sims, default=0.0), max(sims, default=0.0)
        if high == low:
            return [1.0 if high > 0 else 0.0 for _ in sims]
        return [(x - low) / (high - low) for x in sims]


def semantic_candidates(
    index: SnippetIndex,
    query: str,
    n: int = DEFAULT_POOL_SIZE,
    scorer=None,
    diagnostics: list[Diagnostic] | None = None,
) -> list[tuple[Snippet, float]]:
    """Top-n snippets by semantic score, falling back to the lexical
    scorer when a dense backend fails."""

    snippets = index.snippets
    if scorer is None:
        scorer = LexicalScorer()
    try:
        values = scorer.scores(query, snippets)
    except EmbeddingBackendError as err:
        if diagnostics is not None:
            diagnostics.append(
                Diagnostic(
                    code="embedding_fallback",
                    message=f"dense scorer failed, using lexical: {err}",
                    context={},
                )
            )
        values = LexicalScorer().scores(query, snippets)
    ranked = sorted(zip(snippets, values), key=lambda pair: (-pair[1], pair[0].snippet_id))
    return ranked[:n]


def structure_score(query_paths: set[str] | frozenset[str], candidate_paths: set[str] | frozenset[str]) -> float:
    """Jaccard similarity of two AST path sets; 0 when both are empty."""
    return _jaccard(set(query_paths), set(candidate_paths))


def rerank(
    candidates: list[tuple[Snippet, float]],
    query_paths: set[str] | frozenset[str],
    weights: tuple[float, float] = DEFAULT_WEIGHTS,
    k_final: int = DEFAULT_K_FINAL,
) -> ExemplarSet:
    """Blend semantic and structural scores and keep the best k_final.

    The sort is stable on final score, so with w_struct=0 the output order
    reduces to the incoming semantic order.
    """

    w_sem, w_struct = weights
    if abs(w_sem + w_struct - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1, got {weights}")
    entries = []
    for snippet, sem in candidates:
        struct = structure_score(query_paths, snippet.ast_paths)
        entries.append(
            ExemplarEntry(
                snippet=snippet,
                sem_score=sem,
                structure_score=struct,
                final_score=w_sem * sem + w_struct * struct,
            )
        )
    entries.sort(key=lambda e: -e.final_score)
    return ExemplarSet(entries=entries[:k_final], weights=weights)
