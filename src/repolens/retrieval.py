"""Sliding-window snippet index, similarity scoring and re-ranking.

Candidates come from a plain lexical score (identifier-bag Jaccard, through
the index's posting lists) or, given an embedding endpoint, from the cosine
of vectors fetched as JSON over HTTP and kept on the index; either way the
pool is then re-ranked by a weighted blend of the semantic score and an
AST-path Jaccard similarity, so structurally close snippets rise even when
identifiers differ.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import json
import keyword
import math
import operator
import os
import re
from collections import Counter
from collections.abc import Collection, Sequence
from dataclasses import dataclass, field
from itertools import accumulate, chain, islice
from pathlib import Path

from parso.utils import split_lines

from .config import PipelineConfig
from .errors import BackendError, Diagnostic, EmbeddingBackendError
from .gateway import post_json
from .projdeps import _iter_source_files
from .syntax import FileFacts, SourceFile, children, facts_from_json, facts_to_json, kind_of, parse

# AST paths are cut at this many node kinds, for the query and for every
# snippet alike, so the two sides of the structure score always agree.
_PATH_DEPTH = 12

_INDEX_VERSION = 8

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
_KEYWORDS = frozenset(keyword.kwlist)


@dataclass(frozen=True, slots=True)
class Snippet:
    """One window of a file. ``tokens`` (its identifier bag) and
    ``ast_paths`` are sorted tuples of distinct strings; ``build_index``
    makes each distinct string one object, shared by every window of the
    index that holds it."""

    snippet_id: str
    path: str
    start_line: int
    end_line: int  # exclusive
    text: str
    tokens: tuple[str, ...]
    ast_paths: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class SnippetIndex:
    """Windows over a repository, in file order then start order, with what
    queries compute once and keep: the posting lists and each endpoint's
    vector of each window text it embedded, keyed by (endpoint, text)."""

    window: int
    stride: int
    snippets: list[Snippet]
    _postings: dict[str, list[int]] | None = field(default=None, init=False, repr=False, compare=False)
    _vectors: dict[tuple[str, str], list[float]] = field(default_factory=dict, init=False, repr=False, compare=False)

    def postings(self) -> dict[str, list[int]]:
        """Each token's posting list, built on first use (see ``_posting_lists``)."""
        if self._postings is None:
            object.__setattr__(self, "_postings", _posting_lists(self.snippets))
        return self._postings


def _posting_lists(snippets: list[Snippet]) -> dict[str, list[int]]:
    """Token -> the positions in ``snippets`` of the windows holding it."""
    postings: dict[str, list[int]] = {}
    for position, snippet in enumerate(snippets):
        for token in snippet.tokens:
            postings.setdefault(token, []).append(position)
    return postings


def index_path(repo_root: Path | str) -> Path:
    """Where a repository's store is kept: one entry per file, holding the
    windows ``repolens index`` cut and the file facts ``complete`` and
    ``evaluate`` parsed."""
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
    return frozenset().union(*line_ast_paths("snippet.py", text))


def line_ast_paths(path: str, text: str) -> list[set[str]]:
    """The AST paths (see ``ast_paths_of``) of each line of ``text``, the
    file at ``path``, from one parse of the whole text: each terminal's
    path is filed under every line its leaves span. Lines end at "\\n"
    alone, as the index cuts them; every set is empty for a text nested too
    deeply for parso to parse."""

    # parso also ends a line at a lone "\r": ``ours[n]`` is the line that
    # holds parso's line ``n + 1``
    ours = list(accumulate((piece.endswith("\n") for piece in split_lines(text, keepends=True)), initial=0))
    lines: list[set[str]] = [set() for _ in range(ours[-1] + 1)]
    try:
        root = parse(SourceFile.from_text(path, text)).root
    except ValueError:  # nested too deeply for parso to parse
        return lines
    # below a full chain every node keeps it, so each leaf under a node cut
    # at ``_PATH_DEPTH`` takes that node's path
    stack = [(root, ())]
    while stack:
        node, chain = stack.pop()
        if len(chain) < _PATH_DEPTH:
            chain += (kind_of(node),)
        if kids := children(node):
            stack.extend((child, chain) for child in kids)
            continue
        # a leaf, or a node whose leaves are all dropped (a newline, the
        # endmarker); a leaf's positions are its own, so no walk recurses
        (first, _), (last, _) = node.start_pos, node.end_pos
        joined = "/".join(chain)
        for line in range(ours[first - 1], ours[last - 1] + 1):
            lines[line].add(joined)
    return lines


# Each window's identifier tokens and AST paths, each a sorted tuple of
# distinct strings: a tuple takes less memory than a frozenset, hashes
# nothing when built, and the garbage collector stops tracking a tuple
# that holds only strings.
WindowFeatures = list[tuple[tuple[str, ...], tuple[str, ...]]]


def _lean(strings: Sequence[str], shared: dict[str, str]) -> tuple[str, ...]:
    """``strings`` as a tuple, each string replaced by the first equal
    string ``shared`` met, so every window holding it keeps one object."""
    return tuple(map(shared.setdefault, strings, strings))


def _ascending(strings: tuple[str, ...]) -> bool:
    """Whether ``strings`` is sorted without repeats."""
    return all(map(operator.lt, strings, islice(strings, 1, None)))


def build_index(
    repo_root: Path | str,
    window: int = PipelineConfig.window,
    stride: int = PipelineConfig.stride,
    exclude: str | None = None,
    diagnostics: list[Diagnostic] | None = None,
    reuse: Store | None = None,
) -> SnippetIndex:
    """Slide a fixed window over every source file except ``exclude``.

    A file's windows are taken from its entry in the ``reuse`` store when
    that entry was cut from the same text with the same window and stride.
    Otherwise the file is parsed once: a window's tokens come from its text,
    and its AST paths are the union of its lines' (``line_ast_paths``); the
    windows are kept in the file's entry. Ids, lines and text always come
    from the file, and the result equals a fresh build. Each distinct token
    or path is one string object across the index, whichever way its
    windows were obtained. A one-shot task excludes its target: with the
    target in the index, an edited target would be parsed twice, once for
    its windows and once for its facts.
    """

    root = Path(repo_root).resolve()
    shared: dict[str, str] = {}
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
        starts = range(0, max(len(lines) - window, 0) + 1, stride)
        chunks = ["\n".join(lines[start : start + window]) for start in starts]
        features = None if reuse is None else reuse.window_features(rel, text, window, stride, len(chunks))
        if features is None:
            line_paths = line_ast_paths(rel, text)
            features = [
                (
                    tuple(sorted(identifier_tokens(chunk))),
                    tuple(sorted(set().union(*line_paths[start : start + window]))),
                )
                for start, chunk in zip(starts, chunks)
            ]
            if reuse is not None:
                reuse.keep_windows(rel, text, window, stride, features)
        for start, chunk, (tokens, ast_paths) in zip(starts, chunks, features):
            snippets.append(
                Snippet(
                    snippet_id=f"{rel}:{start}",
                    path=rel,
                    start_line=start,
                    end_line=min(start + window, len(lines)),
                    text=chunk,
                    tokens=_lean(tokens, shared),
                    ast_paths=_lean(ast_paths, shared),
                )
            )
    return SnippetIndex(window=window, stride=stride, snippets=snippets)


@dataclass(eq=False, slots=True)
class Store:
    """A loaded ``.repolens/snippets.json``: one JSON document mapping each
    repository-relative path to one entry, keyed on the sha256 of the
    file's text. An entry holds the file's windows (each window's tokens and
    AST-path slots into the entry's own path table, with the window and
    stride they were cut with) and, once parsed, the file's facts
    (``syntax.facts_to_json``). An entry is decoded when it is looked up, and
    a lookup with any other text replaces the whole entry with an empty one,
    so an edited file is never served stale. A malformed entry, or a
    malformed part of one, is computed again.
    """

    path: Path
    files: dict
    changed: bool = False

    def _entry(self, path: str, text: str) -> dict:
        key = hashlib.sha256(text.encode("utf-8")).hexdigest()
        entry = self.files.get(path)
        if not isinstance(entry, dict) or entry.get("key") != key:
            entry = self.files[path] = {"key": key}
        return entry

    def window_features(self, path: str, text: str, window: int, stride: int, count: int) -> WindowFeatures | None:
        """The tokens and AST paths of the ``count`` windows of ``text`` at
        ``path``, decoded from its entry; None unless the entry holds them for
        this window and stride. A row's tokens and its paths are stored
        sorted, so they are decoded straight into tuples; a row that is not
        sorted without repeats is malformed."""
        entry = self._entry(path, text)
        try:
            cut = entry["windows"]
            rows = cut["rows"]
            if cut["geometry"] == [window, stride] and len(rows) == count:
                # a dict, not the list, so a negative slot is missing rather than counted from the end
                table = dict(enumerate(cut["ast_paths"]))
                # a token row that is not a list (a string would give its characters) is left out
                features = [
                    (tuple(tokens), tuple(map(table.__getitem__, slots)))
                    for tokens, slots in rows
                    if type(tokens) is list
                ]
                # each join raises TypeError unless every path or token is a string
                "".join(table.values())
                "".join(chain.from_iterable(tokens for tokens, _ in features))
                if len(features) == count and all(map(_ascending, chain.from_iterable(features))):
                    return features
        except (KeyError, TypeError, ValueError):
            pass
        return None

    def keep_windows(self, path: str, text: str, window: int, stride: int, features: WindowFeatures) -> None:
        """Store ``features``, the windows of ``text`` at ``path`` cut with
        ``window`` and ``stride``, in that path's entry."""
        table = sorted(set().union(*(paths for _, paths in features)))
        slot = {p: i for i, p in enumerate(table)}
        # sorted paths take ascending slots in the sorted table
        rows = [[list(tokens), list(map(slot.__getitem__, paths))] for tokens, paths in features]
        self._entry(path, text)["windows"] = {"geometry": [window, stride], "ast_paths": table, "rows": rows}
        self.changed = True

    def facts(self, path: str, text: str) -> FileFacts | None:
        """The stored facts of ``text`` at ``path``; None when absent or malformed."""
        entry = self._entry(path, text)
        return facts_from_json(entry["facts"], SourceFile.from_text(path, text)) if "facts" in entry else None

    def keep(self, facts: FileFacts) -> None:
        """Store ``facts`` in the entry of their file's path and text."""
        self._entry(facts.file.path, facts.file.text)["facts"] = facts_to_json(facts)
        self.changed = True

    def retain(self, paths: set[str]) -> None:
        """Drop the entry of every path not in ``paths``."""
        stale = self.files.keys() - paths
        for path in stale:
            del self.files[path]
        self.changed |= bool(stale)

    def write(self) -> None:
        """Write the store to ``path``. The text goes to a temporary file
        beside it first and then replaces it in one step, so an interrupted
        write leaves the old store."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        scratch = self.path.with_name(f".{self.path.name}.{os.getpid()}.tmp")
        try:
            # the text of json.dumps(document, sort_keys=True), written one
            # entry at a time so the whole text is never held at once
            with scratch.open("w", encoding="utf-8") as out:
                out.write('{"files": {')
                for i, path in enumerate(sorted(self.files)):
                    out.write(f"{', ' if i else ''}{json.dumps(path)}: {json.dumps(self.files[path], sort_keys=True)}")
                out.write(f'}}, "version": {_INDEX_VERSION}}}')
            os.replace(scratch, self.path)
        except BaseException:
            scratch.unlink(missing_ok=True)
            raise
        self.changed = False

    def flush(self) -> None:
        """Write the store back if an entry was kept or dropped since it was
        loaded. A failed write is ignored: the store is a cache, and the next
        run computes again."""
        if self.changed:
            with contextlib.suppress(OSError):
                self.write()


def load_index(path: Path | str) -> Store | None:
    """Read the store back; None when absent, of another version or not a
    JSON document mapping paths to entries, so the caller starts afresh."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict) or doc.get("version") != _INDEX_VERSION or not isinstance(doc.get("files"), dict):
        return None
    return Store(path, doc["files"])


def _jaccard(a: set[str] | frozenset[str], b: Collection[str]) -> float:
    """Jaccard similarity of the set ``a`` (a query's) and ``b``, distinct
    strings such as a window's sorted tuple; 0.0 when both are empty."""
    shared = len(a.intersection(b))
    union = len(a) + len(b) - shared
    if union == 0:
        return 0.0
    return shared / union


def _cosine(a: list[float], b: list[float]) -> float:
    dot = sum(x * y for x, y in zip(a, b))
    norm = math.sqrt(sum(x * x for x in a)) * math.sqrt(sum(y * y for y in b))
    if norm == 0.0:
        return 0.0
    return dot / norm


def _embed(endpoint: str, texts: list[str], timeout: float) -> list[list[float]]:
    """POST {texts: [...]} to ``endpoint`` and read back {vectors: [[...]]}."""
    try:
        vectors = post_json(endpoint, {"texts": texts}, timeout)["vectors"]
    except (BackendError, KeyError, TypeError) as err:
        raise EmbeddingBackendError(f"embedding request failed: {err}") from err
    # checked before any vector is kept on an index, where a bad one would fail every later query
    if not (isinstance(vectors, list) and len(vectors) == len(texts) and all(map(_is_vector, vectors))):
        raise EmbeddingBackendError("embedding reply is not one list of numbers per text")
    return vectors


def _is_vector(value) -> bool:
    return isinstance(value, list) and all(type(x) in (int, float) for x in value)


def _dense_scores(index: SnippetIndex, query: str, snippets: list[Snippet], endpoint: str, timeout: float) -> list[float]:
    """Cosine of each snippet's vector with the query's, min-max normalized
    per query so downstream weighting sees [0, 1]. A text the index holds
    no vector of from ``endpoint`` is embedded once; the query is embedded
    per call."""
    vectors = index._vectors
    missing = list(dict.fromkeys(s.text for s in snippets if (endpoint, s.text) not in vectors))
    if missing:
        vectors.update(zip([(endpoint, text) for text in missing], _embed(endpoint, missing, timeout)))
    query_vec = _embed(endpoint, [query], timeout)[0]
    sims = [_cosine(query_vec, vectors[endpoint, s.text]) for s in snippets]
    low, high = min(sims, default=0.0), max(sims, default=0.0)
    if high == low:
        return [1.0 if high > 0 else 0.0 for _ in sims]
    return [(x - low) / (high - low) for x in sims]


def _top(n: int, scored) -> list[tuple[Snippet, float]]:
    """The first ``n`` (snippet, score) pairs by descending score, then by
    id: ``sorted(scored)[:n]`` under that key, ties kept in input order."""
    return heapq.nsmallest(n, scored, key=lambda pair: (-pair[1], pair[0].snippet_id))


def _lexical_top(index: SnippetIndex, query: str, n: int, exclude: str | None) -> list[tuple[Snippet, float]]:
    """``_top`` of the lexical scores, with Jaccard computed only for the
    windows that share a token with the query; windows that share none
    score 0.0, and fill the pool in id order when too few score more."""
    bag = identifier_tokens(query)
    postings = index.postings()
    snippets = index.snippets
    shared = Counter(chain.from_iterable(postings[token] for token in bag if token in postings))
    scored = []
    for position, count in shared.items():
        snippet = snippets[position]
        if snippet.path != exclude:
            # _jaccard(bag, snippet.tokens), float for float
            scored.append((snippet, count / (len(bag) + len(snippet.tokens) - count)))
    top = _top(n, scored)
    if len(top) < n:
        unscored = (
            (snippet, 0.0)
            for position, snippet in enumerate(snippets)
            if position not in shared and snippet.path != exclude
        )
        top += _top(n - len(top), unscored)
    return top


def semantic_candidates(
    index: SnippetIndex,
    query: str,
    n: int = PipelineConfig.pool_size,
    diagnostics: list[Diagnostic] | None = None,
    exclude: str | None = None,
    *,
    endpoint: str = PipelineConfig.embedding_endpoint,
    timeout: float = PipelineConfig.timeout,
) -> list[tuple[Snippet, float]]:
    """Top-n snippets by semantic score, then by id, leaving out the windows
    of the file ``exclude``.

    With an embedding ``endpoint`` the scores are dense (``_dense_scores``),
    from vectors kept on the index, so each window text is embedded once
    per index and endpoint. Without one, or when the endpoint fails (one
    ``embedding_fallback`` diagnostic), the scores are lexical and come
    through the index's posting lists, built on its first such query.
    """

    if not endpoint:
        return _lexical_top(index, query, n, exclude)
    snippets = index.snippets
    if exclude is not None:
        snippets = [s for s in snippets if s.path != exclude]
    try:
        values = _dense_scores(index, query, snippets, endpoint, timeout)
    except EmbeddingBackendError as err:
        if diagnostics is not None:
            diagnostics.append(
                Diagnostic(
                    code="embedding_fallback",
                    message=f"embedding endpoint failed, using lexical: {err}",
                    context={},
                )
            )
        return _lexical_top(index, query, n, exclude)
    return _top(n, zip(snippets, values))


def structure_score(query_paths: set[str] | frozenset[str], candidate_paths: Collection[str]) -> float:
    """Jaccard similarity of the query's AST-path set and distinct candidate
    paths, such as a window's ``Snippet.ast_paths``; 0 when both are empty."""
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
