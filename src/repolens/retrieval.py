"""Sliding-window snippet index, similarity scoring and re-ranking.

Candidates come from a plain lexical scorer (identifier-bag Jaccard) or an
optional dense scorer speaking JSON over HTTP; either way the pool is then
re-ranked by a weighted blend of the semantic score and an AST-path Jaccard
similarity, so structurally close snippets rise even when identifiers
differ.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import keyword
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path

from .config import PipelineConfig
from .errors import BackendError, Diagnostic, EmbeddingBackendError
from .gateway import post_json
from .projdeps import _iter_source_files
from .syntax import FileFacts, SourceFile, children, facts_from_json, facts_to_json, kind_of, parse

# AST paths are cut at this many node kinds, for the query and for every
# snippet alike, so the two sides of the structure score always agree.
_PATH_DEPTH = 12

_INDEX_VERSION = 6

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
    """Windows over a repository, in file order then start order."""

    window: int
    stride: int
    snippets: list[Snippet]


# Each window key's identifier tokens and AST paths.
WindowCache = dict[str, tuple[frozenset[str], frozenset[str]]]


def index_path(repo_root: Path | str) -> Path:
    """Where a repository's store is kept: the window cache ``repolens index``
    writes, and the file facts ``complete`` and ``evaluate`` add to it."""
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
    paths: set[str] = set()
    # every node holds a retained leaf, so a chain that is already full is
    # the path of every leaf below it
    stack = [(parse(SourceFile.from_text("snippet.py", text)).root, ())]
    while stack:
        node, prefix = stack.pop()
        chain = prefix + (kind_of(node),)
        kids = children(node) if len(chain) < _PATH_DEPTH else None
        if kids:
            stack.extend((child, chain) for child in kids)
        else:
            paths.add("/".join(chain))
    return frozenset(paths)


def _window_key(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build_index(
    repo_root: Path | str,
    window: int = PipelineConfig.window,
    stride: int = PipelineConfig.stride,
    exclude: str | None = None,
    diagnostics: list[Diagnostic] | None = None,
    reuse: Store | None = None,
) -> SnippetIndex:
    """Slide a fixed window over every source file except ``exclude``.

    A window's tokens and AST paths depend on its text alone, so they are
    taken from the windows of the ``reuse`` store when it holds the window's
    key and computed otherwise; ids, lines and text always come from the
    file. The result equals a fresh build.
    """

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
        lines = text.removesuffix("\n").split("\n") if text else []
        for start in range(0, max(len(lines) - window, 0) + 1, stride):
            chunk = "\n".join(lines[start : start + window])
            cached = reuse.windows.get(_window_key(chunk)) if reuse else None
            tokens, ast_paths = cached or (frozenset(identifier_tokens(chunk)), ast_paths_of(chunk))
            snippets.append(
                Snippet(
                    snippet_id=f"{rel}:{start}",
                    path=rel,
                    start_line=start,
                    end_line=min(start + window, len(lines)),
                    text=chunk,
                    tokens=tokens,
                    ast_paths=ast_paths,
                )
            )
    return SnippetIndex(window=window, stride=stride, snippets=snippets)


def window_cache(index: SnippetIndex) -> WindowCache:
    """The cache entries of ``index``'s windows, keyed on the sha256 of their text."""
    return {_window_key(s.text): (s.tokens, s.ast_paths) for s in index.snippets}


def _file_key(path: str, text: str) -> str:
    return hashlib.sha256(f"{path}\0{text}".encode("utf-8")).hexdigest()


def _entry_path(entry: object) -> str | None:
    path = entry.get("path") if isinstance(entry, dict) else None
    return path if isinstance(path, str) else None


@dataclass(eq=False, slots=True)
class Store:
    """A loaded ``.repolens/snippets.json``, which holds two JSON lines: the
    window cache, decoded on load and kept as read in ``window_line``, and
    the file facts, each decoded when it is looked up. A write-back writes
    ``window_line`` back unchanged and encodes only the file facts.

    A file entry is keyed on the sha256 of the file's repository-relative
    path, a NUL and its text, so only the text can make it stale, and the
    text is part of the key.
    """

    path: Path
    windows: WindowCache
    files: dict
    window_line: str
    changed: bool = False

    def facts(self, path: str, text: str) -> FileFacts | None:
        """The stored facts of ``text`` at ``path``; None when absent or malformed."""
        entry = self.files.get(_file_key(path, text))
        return facts_from_json(entry, SourceFile.from_text(path, text)) if entry is not None else None

    def keep(self, facts: FileFacts) -> None:
        """Store ``facts`` in place of any older entry for the same path."""
        path = facts.file.path
        older = [key for key, entry in self.files.items() if _entry_path(entry) == path]
        for key in older:
            del self.files[key]
        self.files[_file_key(path, facts.file.text)] = facts_to_json(facts)
        self.changed = True

    def retain(self, paths: set[str]) -> bool:
        """Drop every file entry that names no path in ``paths``; True when
        one was dropped."""
        kept = {key: entry for key, entry in self.files.items() if _entry_path(entry) in paths}
        dropped = len(kept) < len(self.files)
        self.files = kept
        return dropped

    def flush(self) -> None:
        """Write the store back if it kept new facts. A failed write is
        ignored: the store is a cache, and the next run parses again."""
        if self.changed:
            self.changed = False
            with contextlib.suppress(OSError):
                _write_store(self.path, self.window_line, self.files)


def _encode_windows(windows: WindowCache) -> str:
    """The store's first line: the window cache as JSON, each window's AST
    paths as slots in a table that holds each distinct path once."""
    table = sorted({p for _, paths in windows.values() for p in paths})
    slot = {p: i for i, p in enumerate(table)}
    encoded = {key: [sorted(tokens), sorted(slot[p] for p in paths)] for key, (tokens, paths) in windows.items()}
    return json.dumps({"version": _INDEX_VERSION, "ast_paths": table, "windows": encoded}, sort_keys=True) + "\n"


def _write_store(path: Path, window_line: str, files: dict) -> None:
    """Write a store: ``window_line``, then the file entries as the second
    JSON line. The text goes to a temporary file beside ``path`` first
    and then replaces it in one step, so an interrupted write leaves the old
    store."""
    scratch = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        scratch.write_text(window_line + json.dumps(files, sort_keys=True) + "\n", encoding="utf-8")
        os.replace(scratch, path)
    except BaseException:
        scratch.unlink(missing_ok=True)
        raise


def save_index(index: SnippetIndex, path: Path | str, files: dict | None = None) -> None:
    """Write ``window_cache(index)`` and the file entries ``files`` as the
    store at ``path``."""
    _write_store(Path(path), _encode_windows(window_cache(index)), files or {})


def load_index(path: Path | str) -> Store | None:
    """Read the store back; None when absent, of another version or
    malformed in either line, so the caller builds afresh."""
    path = Path(path)
    try:
        with path.open(encoding="utf-8", newline="\n") as lines:
            window_line = lines.readline()
            doc = json.loads(window_line)
            files = json.loads(lines.read())
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict) or doc.get("version") != _INDEX_VERSION or not isinstance(files, dict):
        return None
    try:
        # a dict, not the list, so a negative slot is missing rather than counted from the end
        table = dict(enumerate(doc["ast_paths"]))
        windows = {
            key: (frozenset(tokens), frozenset(map(table.__getitem__, slots)))
            for key, (tokens, slots) in doc["windows"].items()
        }
    except (AttributeError, KeyError, TypeError, ValueError):
        return None
    return Store(path, windows, files, window_line)


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
