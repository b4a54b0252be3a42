"""Snippet index, similarity scoring and structure-aware re-ranking."""

from __future__ import annotations

import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repolens import retrieval
from repolens.config import PipelineConfig
from repolens.errors import EmbeddingBackendError
from repolens.retrieval import (
    DenseScorer,
    LexicalScorer,
    Snippet,
    ast_paths_of,
    build_index,
    identifier_tokens,
    load_index,
    rerank,
    save_index,
    semantic_candidates,
    structure_score,
    window_cache,
)
from tests.conftest import http_stub, write_repo


def make_snippet(sid: str, tokens: set[str] | None = None, paths: set[str] | None = None) -> Snippet:
    return Snippet(
        snippet_id=sid,
        path="x.py",
        start_line=0,
        end_line=1,
        text=" ".join(sorted(tokens or set())),
        tokens=frozenset(tokens or set()),
        ast_paths=frozenset(paths or set()),
    )


def numbered_lines(n: int) -> str:
    return "".join(f"value_{i} = {i}\n" for i in range(n))


def test_window_enumeration_matches_brute_force(tmp_path):
    write_repo(tmp_path, {"long.py": numbered_lines(40)})
    index = build_index(tmp_path)
    starts = [s.start_line for s in index.snippets]
    line_total = 40
    window, stride = PipelineConfig.window, PipelineConfig.stride
    expected = list(range(0, max(line_total - window, 0) + 1, stride))
    assert starts == expected == [0, 10, 20]
    for snip in index.snippets:
        assert snip.end_line - snip.start_line <= window
        assert snip.snippet_id == f"long.py:{snip.start_line}"
    # consecutive windows overlap by window - stride lines
    assert index.snippets[0].end_line - index.snippets[1].start_line == window - stride


def test_short_file_is_one_snippet(tmp_path):
    write_repo(tmp_path, {"tiny.py": "a = 1\nb = 2\n"})
    index = build_index(tmp_path)
    assert len(index.snippets) == 1
    assert index.snippets[0].text == "a = 1\nb = 2"


def test_target_file_excluded(tmp_path):
    write_repo(tmp_path, {"main.py": numbered_lines(30), "other.py": numbered_lines(30)})
    index = build_index(tmp_path, exclude="main.py")
    assert {s.path for s in index.snippets} == {"other.py"}


def test_windows_split_lines_on_newline_only(tmp_path):
    lines = [f"v{i} = {i}" for i in range(30)]
    lines[6] = "\f"
    lines[14] = "s = '\v\x1c\x1d\x1e\x85\u2028\u2029'"
    text = "".join(line + "\n" for line in lines)
    write_repo(tmp_path, {"m.py": text})
    index = build_index(tmp_path)
    assert [s.snippet_id for s in index.snippets] == ["m.py:0", "m.py:10"]
    for snippet in index.snippets:
        assert snippet.text == "\n".join(text.split("\n")[snippet.start_line : snippet.end_line])


def test_index_tokens_skip_keywords(tmp_path):
    write_repo(tmp_path, {"m.py": "if flag:\n    total = compute()\n"})
    index = build_index(tmp_path)
    assert index.snippets[0].tokens == frozenset({"flag", "total", "compute"})
    assert identifier_tokens("for item in items: pass") == {"item", "items"}


def test_index_build_is_deterministic(tmp_path):
    write_repo(tmp_path, {"a.py": numbered_lines(25), "b/c.py": numbered_lines(5)})
    first = build_index(tmp_path)
    second = build_index(tmp_path)
    assert [s.snippet_id for s in first.snippets] == [s.snippet_id for s in second.snippets]
    assert [s.ast_paths for s in first.snippets] == [s.ast_paths for s in second.snippets]


def test_index_cache_roundtrip(tmp_path):
    write_repo(tmp_path, {"a.py": numbered_lines(25)})
    index = build_index(tmp_path)
    cache = tmp_path / "index.json"
    save_index(index, cache)
    loaded = load_index(cache)
    assert loaded == window_cache(index)
    assert build_index(tmp_path, reuse=loaded) == index
    # keys the cache does not write are ignored
    doc = json.loads(cache.read_text())
    cache.write_text(json.dumps({**doc, "root": str(tmp_path)}))
    assert load_index(cache) == loaded


def test_index_cache_stores_each_ast_path_once(tmp_path):
    write_repo(tmp_path, {"a.py": numbered_lines(45), "b.py": numbered_lines(12)})
    index = build_index(tmp_path)
    cache = tmp_path / "index.json"
    save_index(index, cache)
    doc = json.loads(cache.read_text())
    table = doc["ast_paths"]
    assert table == sorted(set().union(*(s.ast_paths for s in index.snippets)))
    assert all(isinstance(i, int) for _, slots in doc["windows"].values() for i in slots)
    assert set(doc) == {"version", "ast_paths", "windows"}
    assert doc["windows"].keys() == window_cache(index).keys()


def test_index_cache_version_mismatch_returns_none(tmp_path):
    cache = tmp_path / "index.json"
    cache.write_text('{"version": 999, "snippets": []}')
    assert load_index(cache) is None
    assert load_index(tmp_path / "absent.json") is None


def _v1_doc(index):
    """The version-1 layout: inline AST path strings, no digests."""
    return {
        "version": 1,
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


def _v3_doc(index):
    """The version-3 layout: positioned snippets with AST-path slots, and one
    content digest per file."""
    table = sorted(set().union(*(s.ast_paths for s in index.snippets)))
    doc = _v1_doc(index)
    for row, snippet in zip(doc["snippets"], index.snippets):
        row["ast_paths"] = sorted(table.index(p) for p in snippet.ast_paths)
    digests = {s.path: "0" * 64 for s in index.snippets}
    return {**doc, "version": 3, "ast_paths": table, "digests": digests}


def test_v1_and_malformed_caches_are_ignored(tmp_path):
    repo = write_repo(tmp_path / "repo", {"a.py": numbered_lines(25), "b.py": "x = 1\n"})
    index = build_index(repo)
    cache = tmp_path / "index.json"
    save_index(index, cache)
    good = json.loads(cache.read_text())

    def bad(mutate):
        doc = json.loads(json.dumps(good))
        mutate(doc)
        return doc

    def first_entry(doc):
        return next(iter(doc["windows"].values()))

    broken = [
        _v1_doc(index),
        bad(lambda d: d.update(version=2)),  # v2 paths spelled the renamed kinds
        _v3_doc(index),
        bad(lambda d: d.pop("ast_paths")),
        bad(lambda d: d.pop("windows")),
        bad(lambda d: first_entry(d).append([])),
        bad(lambda d: d["windows"].update(dict.fromkeys(d["windows"], 7))),
        bad(lambda d: first_entry(d)[1].append(len(d["ast_paths"]))),
        bad(lambda d: d.update(windows="not a map")),
    ]
    for doc in broken:
        cache.write_text(json.dumps(doc))
        assert load_index(cache) is None, doc
    cache.write_text(json.dumps(good)[:-40])
    assert load_index(cache) is None


def test_reuse_windows_only_new_or_edited_files(tmp_path, monkeypatch):
    other = numbered_lines(30).replace("value", "other")
    write_repo(tmp_path, {"a.py": numbered_lines(30), "b.py": other})
    old = build_index(tmp_path)
    cache = tmp_path / "index.json"
    save_index(old, cache)
    parsed = []
    real_parse = retrieval.parse

    def counted_parse(file):
        parsed.append(file.text)
        return real_parse(file)

    monkeypatch.setattr(retrieval, "parse", counted_parse)
    assert build_index(tmp_path, reuse=load_index(cache)) == old
    assert parsed == []

    (tmp_path / "b.py").write_text(other.replace("other_25 = 25", "edited = True"))
    (tmp_path / "c.py").write_text("fresh = 1\n")
    rebuilt = build_index(tmp_path, reuse=load_index(cache))
    old_texts = {s.text for s in old.snippets}
    assert sorted(parsed) == sorted(s.text for s in rebuilt.snippets if s.text not in old_texts)
    assert {s.path for s in rebuilt.snippets if s.text in parsed} == {"b.py", "c.py"}

    parsed.clear()
    save_index(rebuilt, cache)
    assert build_index(tmp_path, window=15, stride=5, reuse=load_index(cache)) == build_index(
        tmp_path, window=15, stride=5
    )
    assert len(parsed) > 0


def test_in_place_edit_parses_only_the_changed_windows(tmp_path, monkeypatch):
    write_repo(tmp_path, {"a.py": numbered_lines(50)})
    cache = tmp_path / "index.json"
    save_index(build_index(tmp_path), cache)
    (tmp_path / "a.py").write_text(numbered_lines(50).replace("value_25 = 25", "value_25 = 52"))
    parsed = []
    real_paths = retrieval.ast_paths_of

    def counted_paths(text):
        parsed.append(text)
        return real_paths(text)

    monkeypatch.setattr(retrieval, "ast_paths_of", counted_paths)
    rebuilt = build_index(tmp_path, reuse=load_index(cache))
    edited = [s.text for s in rebuilt.snippets if "value_25 = 52" in s.text]
    assert len(edited) == 2 and len(rebuilt.snippets) == 4
    assert parsed == edited


_LINES = [
    "import os",
    "x = 1",
    "def f(a):",
    "    return a + x",
    "if ready:",
    "    pass",
    "class C:",
    "    y = f(2)",
    "# note",
    "",
    "total = f(x) + g(y)",
]
_FILES = ["a.py", "b.py", "pkg/c.py", "pkg/deep/d.py"]
_GEOMETRY = st.sampled_from([(4, 2), (5, 5), (3, 1)])
_CONTENT = st.lists(st.sampled_from(_LINES), max_size=14).map(lambda ls: "".join(l + "\n" for l in ls))


@settings(max_examples=30, deadline=None)
@given(
    before=st.fixed_dictionaries({name: st.one_of(st.none(), _CONTENT) for name in _FILES}),
    after=st.fixed_dictionaries(
        {name: st.one_of(st.just("same"), st.none(), _CONTENT) for name in _FILES}
    ),
    old_geometry=_GEOMETRY,
    new_geometry=_GEOMETRY,
    exclude=st.sampled_from([None, *_FILES]),
)
def test_reused_build_equals_fresh_build(before, after, old_geometry, new_geometry, exclude):
    """Edits, additions and deletions, through a save/load round trip."""
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        write_repo(root, {name: text for name, text in before.items() if text is not None})
        cache = root / ".repolens" / "snippets.json"
        cache.parent.mkdir()
        save_index(build_index(root, *old_geometry), cache)
        for name, change in after.items():
            if change == "same":
                continue
            target = root / name
            if change is None:
                target.unlink(missing_ok=True)
            else:
                write_repo(root, {name: change})
        reused = build_index(root, *new_geometry, exclude=exclude, reuse=load_index(cache))
        fresh = build_index(root, *new_geometry, exclude=exclude)
        assert reused == fresh
        assert [s.snippet_id for s in reused.snippets] == [s.snippet_id for s in fresh.snippets]


def test_lexical_scores_hand_cases(tmp_path):
    write_repo(
        tmp_path,
        {
            "same.py": "alpha = beta + gamma\n",
            "half.py": "b = c + d\n",
            "far.py": "zz = qq\n",
        },
    )
    index = build_index(tmp_path)
    # identical identifier bag ranks first with score 1.0
    top = semantic_candidates(index, "alpha = beta + gamma", n=3)
    assert top[0][0].path == "same.py"
    assert top[0][1] == 1.0
    # {a,b,c} vs {b,c,d}: |{b,c}| / |{a,b,c,d}| = 0.5
    scored = dict(
        (s.path, score) for s, score in semantic_candidates(index, "a = b + c", n=3)
    )
    assert scored["half.py"] == 0.5
    # no shared identifiers: all zero
    assert all(score == 0.0 for _, score in semantic_candidates(index, "nothing_here", n=3))


def test_semantic_candidates_order_and_cutoff():
    snippets = [make_snippet(f"s{i}", {"common", f"only{i}"}) for i in range(5)]
    snippets.append(make_snippet("exact", {"common", "query_word"}))

    class FakeIndex:
        pass

    index = FakeIndex()
    index.snippets = snippets
    top = semantic_candidates(index, "common query_word", n=2)
    assert [s.snippet_id for s, _ in top] == ["exact", "s0"]
    assert len(top) == 2


def test_structure_score_hand_cases():
    p = {"file_input/expr_stmt/name", "file_input/if_stmt/keyword"}
    q = {"file_input/expr_stmt/name", "file_input/while_stmt/keyword"}
    assert structure_score(p, p) == 1.0
    assert structure_score(p, {"other/path"}) == 0.0
    assert structure_score(p, q) == pytest.approx(1 / 3)
    assert structure_score(set(), set()) == 0.0


@given(
    st.sets(st.text(alphabet="abcdef/", min_size=1, max_size=12), max_size=8),
    st.sets(st.text(alphabet="abcdef/", min_size=1, max_size=12), max_size=8),
)
def test_structure_score_symmetric_and_bounded(a, b):
    score = structure_score(a, b)
    assert score == structure_score(b, a)
    assert 0.0 <= score <= 1.0
    if a and a == b:
        assert score == 1.0


def test_structure_score_matches_set_arithmetic_oracle():
    rng = random.Random(99)
    pool = [f"path/{i}" for i in range(30)]
    for _ in range(200):
        a = set(rng.sample(pool, rng.randint(0, 12)))
        b = set(rng.sample(pool, rng.randint(0, 12)))
        union = a | b
        expected = len(a & b) / len(union) if union else 0.0
        assert structure_score(a, b) == expected


def test_ast_paths_are_kind_sequences_without_identifiers():
    paths = ast_paths_of("total = compute(1)\n")
    assert all(tok.isidentifier() for p in paths for tok in p.split("/"))
    renamed = ast_paths_of("result = anything(2)\n")
    assert paths == renamed
    assert any(p.startswith("file_input/") for p in paths)


def test_ast_paths_depth_cap():
    nested = "x = ((((((((((((((1))))))))))))))\n"
    depths = {len(p.split("/")) for p in ast_paths_of(nested)}
    assert max(depths) == retrieval._PATH_DEPTH


def test_rerank_reduction_at_zero_struct_weight():
    rng = random.Random(41)
    for _ in range(20):
        count = rng.randint(1, 12)
        candidates = [
            (make_snippet(f"s{i}", paths={f"p{rng.randint(0, 5)}"}), round(rng.random(), 3))
            for i in range(count)
        ]
        candidates.sort(key=lambda pair: -pair[1])
        result = rerank(candidates, {"p0", "p1"}, weights=(1.0, 0.0), k_final=count)
        assert [e.snippet.snippet_id for e in result.entries] == [s.snippet_id for s, _ in candidates]
        assert [e.final_score for e in result.entries] == [score for _, score in candidates]


def test_rerank_weighted_example():
    query = {f"q{i}" for i in range(9)}
    low_overlap = make_snippet("low", paths={"q0", "x1"})  # jaccard 1/10
    high_overlap = make_snippet("high", paths=set(query) | {"x2"})  # jaccard 9/10
    candidates = [(low_overlap, 0.9), (high_overlap, 0.6)]
    result = rerank(candidates, query, weights=(0.7, 0.3), k_final=2)
    finals = {e.snippet.snippet_id: e.final_score for e in result.entries}
    assert finals["low"] == pytest.approx(0.7 * 0.9 + 0.3 * 0.1)
    assert finals["high"] == pytest.approx(0.7 * 0.6 + 0.3 * 0.9)
    assert [e.snippet.snippet_id for e in result.entries] == ["high", "low"]


def test_rerank_equal_semantics_prefers_structure():
    query = {"q0", "q1"}
    near = make_snippet("near", paths={"q0", "q1"})
    far = make_snippet("far", paths={"z0"})
    result = rerank([(far, 0.5), (near, 0.5)], query, k_final=2)
    assert [e.snippet.snippet_id for e in result.entries] == ["near", "far"]
    assert result.entries[0].structure_score == 1.0
    assert result.entries[1].structure_score == 0.0


def test_rerank_final_is_convex_combination():
    rng = random.Random(17)
    pool = [f"p{i}" for i in range(10)]
    query = set(rng.sample(pool, 5))
    candidates = [
        (make_snippet(f"s{i}", paths=set(rng.sample(pool, rng.randint(0, 8)))), rng.random())
        for i in range(30)
    ]
    result = rerank(candidates, query, k_final=30)
    for entry in result.entries:
        low = min(entry.sem_score, entry.structure_score)
        high = max(entry.sem_score, entry.structure_score)
        assert low - 1e-12 <= entry.final_score <= high + 1e-12


def test_rerank_keeps_k_final():
    candidates = [(make_snippet(f"s{i}"), 1.0 - i * 0.1) for i in range(8)]
    result = rerank(candidates, set(), k_final=3)
    assert len(result.entries) == 3
    assert result.weights == (0.7, 0.3)


def test_rerank_rejects_bad_weights():
    with pytest.raises(ValueError):
        rerank([(make_snippet("s"), 1.0)], set(), weights=(0.7, 0.7))


def test_dense_scorer_ranks_by_cosine():
    vectors = {
        "q": [1.0, 0.0],
        "near q": [0.9, 0.1],
        "off axis": [0.0, 1.0],
    }

    content_types = []

    def handler(path, payload, headers):
        content_types.append(headers["Content-Type"])
        return 200, {"vectors": [vectors[t] for t in payload["texts"]]}

    # hand-built snippets keep the text-to-vector mapping obvious
    near = Snippet("near", "a.py", 0, 1, "near q", frozenset({"near"}), frozenset())
    off = Snippet("off", "b.py", 0, 1, "off axis", frozenset({"off"}), frozenset())

    class Holder:
        snippets = [near, off]

    with http_stub(handler) as url:
        scorer = DenseScorer(endpoint=url + "/embed")
        top = semantic_candidates(Holder, "q", n=2, scorer=scorer)
    assert [s.snippet_id for s, _ in top] == ["near", "off"]
    assert top[0][1] == 1.0
    assert top[1][1] == 0.0
    assert set(content_types) == {"application/json"}


def test_dense_scorer_failure_falls_back_to_lexical():
    snippets = [make_snippet("a", {"shared", "one"}), make_snippet("b", {"unrelated"})]

    class Holder:
        pass

    Holder.snippets = snippets
    scorer = DenseScorer(endpoint="http://127.0.0.1:9/unreachable", timeout=0.2)
    diagnostics = []
    top = semantic_candidates(Holder, "shared thing", n=2, scorer=scorer, diagnostics=diagnostics)
    assert [s.snippet_id for s, _ in top] == ["a", "b"]
    assert any(d.code == "embedding_fallback" for d in diagnostics)


def test_dense_scorer_server_error_falls_back_to_lexical():
    def handler(path, payload, headers):
        return 500, {"error": "boom"}

    class Holder:
        snippets = [make_snippet("a", {"shared", "one"}), make_snippet("b", {"unrelated"})]

    diagnostics = []
    with http_stub(handler) as url:
        scorer = DenseScorer(endpoint=url)
        top = semantic_candidates(Holder, "shared thing", n=2, scorer=scorer, diagnostics=diagnostics)
    assert [s.snippet_id for s, _ in top] == ["a", "b"]
    assert [d.code for d in diagnostics] == ["embedding_fallback"]


def test_dense_scorer_malformed_reply_raises():
    def handler(path, payload, headers):
        return 200, {"unexpected": []}

    with http_stub(handler) as url:
        scorer = DenseScorer(endpoint=url)
        with pytest.raises(EmbeddingBackendError):
            scorer.scores("q", [make_snippet("s", {"x"})])


def _recording_embedder(posted):
    def handler(path, payload, headers):
        posted.append(list(payload["texts"]))
        return 200, {"vectors": [[float(len(t)), float(t.count("_")) + 1.0] for t in payload["texts"]]}

    return handler


def test_dense_scorer_embeds_each_text_once_and_edits_afresh(tmp_path):
    write_repo(tmp_path, {"a.py": numbered_lines(30), "b.py": numbered_lines(30)})
    old = build_index(tmp_path)
    cache = tmp_path / "index.json"
    save_index(old, cache)
    posted = []
    with http_stub(_recording_embedder(posted)) as url:
        scorer = DenseScorer(endpoint=url)
        scorer.scores("value_3", old.snippets)
        scorer.scores("value_4", old.snippets)
        snippet_batches = [batch for batch in posted if batch[0] not in ("value_3", "value_4")]
        embedded = [text for batch in snippet_batches for text in batch]
        assert sorted(embedded) == sorted({s.text for s in old.snippets})

        (tmp_path / "b.py").write_text(numbered_lines(29) + "edited = True\n")
        rebuilt = build_index(tmp_path, reuse=load_index(cache))
        posted.clear()
        scorer.scores("value_5", rebuilt.snippets)
    old_texts = {s.text for s in old.snippets}
    assert posted[0] == [s.text for s in rebuilt.snippets if s.text not in old_texts]
    assert any("edited = True" in text for text in posted[0])
    assert posted[1:] == [["value_5"]]
