"""Sliding-window snippet index, similarity scoring and re-ranking.

Candidates come from a plain lexical scorer (identifier-bag Jaccard) or an
optional dense scorer speaking JSON over HTTP; either way the pool is then
re-ranked by a weighted blend of the semantic score and an AST-path Jaccard
similarity, so structurally close snippets rise even when identifiers
differ.
"""

from __future__ import annotations

import hashlib
import json
import keyword
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from .config import PipelineConfig
from .errors import BackendError, Diagnostic, EmbeddingBackendError
from .gateway import post_json
from .projdeps import _iter_source_files
from .syntax import SourceFile, SyntaxNode, parse

# AST paths are cut at this many node kinds, for the query and for every
# snippet alike, so the two sides of the structure score always agree.
_PATH_DEPTH = 12

_INDEX_VERSION = 3

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
    """Windows over a repository, in file order then start order.

    ``digests`` maps each windowed file's relative path to the sha256 of
    its text, so a later build can tell which files it may reuse.
    """

    window: int
    stride: int
    snippets: list[Snippet]
    digests: dict[str, str] = field(default_factory=dict)


def index_path(repo_root: Path | str) -> Path:
    """Where ``repolens index`` keeps a repository's snippet cache."""
    return Path(repo_root) / ".repolens" / "snippets.json"


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


def ast_paths_of(text: str) -> frozenset[str]:
    """Root-to-terminal node-kind paths of ``text``, identifiers erased.

    Each path is the "/"-joined kind sequence from the module root down to
    one terminal token, truncated to ``_PATH_DEPTH`` kinds. Erasing token
    values makes the resulting set rename-invariant.
    """

    if not text.strip():
        return frozenset()
    tree = parse(SourceFile.from_text("snippet.py", text))
    paths: set[str] = set()

    def descend(node: SyntaxNode, prefix: tuple[str, ...]) -> None:
        chain = prefix + (node.kind,)
        if not node.children:
            paths.add("/".join(chain[:_PATH_DEPTH]))
            return
        for child in node.children:
            descend(child, chain)

    descend(tree.root, ())
    return frozenset(paths)


def build_index(
    repo_root: Path | str,
    window: int = PipelineConfig.window,
    stride: int = PipelineConfig.stride,
    exclude: str | None = None,
    diagnostics: list[Diagnostic] | None = None,
    reuse: SnippetIndex | None = None,
) -> SnippetIndex:
    """Slide a fixed window over every source file except ``exclude``.

    A file's windows depend only on its relative path, its text, the window
    and the stride. So when ``reuse`` was built with the same window and
    stride, the windows of every file whose content digest it records
    unchanged are taken from it; only new or edited files are windowed, and
    files gone from the tree drop out. The result equals a fresh build.
    """

    root = Path(repo_root).resolve()
    cached: dict[str, list[Snippet]] = {}
    if reuse is not None and (reuse.window, reuse.stride) == (window, stride):
        for snippet in reuse.snippets:
            cached.setdefault(snippet.path, []).append(snippet)
    snippets: list[Snippet] = []
    digests: dict[str, str] = {}
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
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        digests[rel] = digest
        if rel in cached and reuse.digests.get(rel) == digest:
            snippets.extend(cached[rel])
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
    return SnippetIndex(window=window, stride=stride, snippets=snippets, digests=digests)


def save_index(index: SnippetIndex, path: Path | str) -> None:
    """Write ``index`` as JSON; each distinct AST path is stored once, in a
    table that the snippets' ``ast_paths`` index into."""
    table = sorted({p for s in index.snippets for p in s.ast_paths})
    slot = {p: i for i, p in enumerate(table)}
    doc = {
        "version": _INDEX_VERSION,
        "window": index.window,
        "stride": index.stride,
        "digests": index.digests,
        "ast_paths": table,
        "snippets": [
            {
                "id": s.snippet_id,
                "path": s.path,
                "start": s.start_line,
                "end": s.end_line,
                "text": s.text,
                "tokens": sorted(s.tokens),
                "ast_paths": sorted(slot[p] for p in s.ast_paths),
            }
            for s in index.snippets
        ],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def load_index(path: Path | str) -> SnippetIndex | None:
    """Read a cached index back; None when absent, of another version or
    malformed, so the caller builds afresh."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict) or doc.get("version") != _INDEX_VERSION:
        return None
    try:
        table = doc["ast_paths"]
        snippets = [
            Snippet(
                snippet_id=row["id"],
                path=row["path"],
                start_line=row["start"],
                end_line=row["end"],
                text=row["text"],
                tokens=frozenset(row["tokens"]),
                ast_paths=frozenset(table[i] for i in row["ast_paths"]),
            )
            for row in doc["snippets"]
        ]
        digests = dict(doc["digests"])
        index = SnippetIndex(
            window=doc["window"],
            stride=doc["stride"],
            snippets=snippets,
            digests=digests,
        )
    except (KeyError, TypeError, IndexError, ValueError):
        return None
    # Every windowed file yields at least one snippet; a cache whose
    # snippets and digests name different files was not written by us.
    if {s.path for s in snippets} != digests.keys():
        return None
    return index


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

    Snippet vectors are requested once per distinct text and cached by that
    text, so an id that names edited text after an index rebuild is embedded
    afresh; the query is embedded per call. Cosine similarities are min-max
    normalized per query so downstream weighting sees [0, 1].
    """

    def __init__(self, endpoint: str, timeout: float = PipelineConfig.timeout):
        self.endpoint = endpoint
        self.timeout = timeout
        self._vectors: dict[str, list[float]] = {}

    def _embed(self, texts: list[str]) -> list[list[float]]:
        try:
            vectors = post_json(self.endpoint, {"texts": texts}, self.timeout)["vectors"]
        except (BackendError, KeyError, TypeError) as err:
            raise EmbeddingBackendError(f"embedding request failed: {err}") from err
        if not isinstance(vectors, list) or len(vectors) != len(texts):
            raise EmbeddingBackendError("embedding reply does not match request size")
        return vectors

    def scores(self, query: str, snippets: list[Snippet]) -> list[float]:
        missing = list(dict.fromkeys(s.text for s in snippets if s.text not in self._vectors))
        if missing:
            self._vectors.update(zip(missing, self._embed(missing)))
        query_vec = self._embed([query])[0]
        sims = [_cosine(query_vec, self._vectors[s.text]) for s in snippets]
        low, high = min(sims, default=0.0), max(sims, default=0.0)
        if high == low:
            return [1.0 if high > 0 else 0.0 for _ in sims]
        return [(x - low) / (high - low) for x in sims]


def semantic_candidates(
    index: SnippetIndex,
    query: str,
    n: int = PipelineConfig.pool_size,
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
    return _jaccard(query_paths, candidate_paths)


def rerank(
    candidates: list[tuple[Snippet, float]],
    query_paths: set[str] | frozenset[str],
    weights: tuple[float, float] = (PipelineConfig.w_semantic, PipelineConfig.w_structure),
    k_final: int = PipelineConfig.k_final,
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
