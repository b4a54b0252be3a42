"""Snippet index, similarity scoring and structure-aware re-ranking."""

from __future__ import annotations

import hashlib
import json
import random
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repolens import retrieval, syntax
from repolens.config import PipelineConfig
from repolens.errors import EmbeddingBackendError
from repolens.retrieval import (
    DenseScorer,
    LexicalScorer,
    Snippet,
    SnippetIndex,
    Store,
    ast_paths_of,
    build_index,
    identifier_tokens,
    line_ast_paths,
    load_index,
    rerank,
    semantic_candidates,
    structure_score,
)
from repolens.syntax import SourceFile, facts_to_json, file_facts, parse
from tests.conftest import TESTS_DIR, count_parses, http_stub, index_repo, read_store, write_repo, write_store


def make_snippet(sid: str, tokens: set[str] | None = None, paths: set[str] | None = None) -> Snippet:
    return Snippet(
        snippet_id=sid,
        path="x.py",
        start_line=0,
        end_line=1,
        text=" ".join(sorted(tokens or set())),
        tokens=tuple(sorted(tokens or ())),
        ast_paths=tuple(sorted(paths or ())),
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
    assert index.snippets[0].tokens == ("compute", "flag", "total")
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
    store = Store(cache, {})
    assert build_index(tmp_path, reuse=store) == index
    store.write()
    loaded = load_index(cache)
    assert loaded.files == store.files
    assert build_index(tmp_path, reuse=loaded) == index
    assert not loaded.changed
    # keys the store does not write are ignored
    doc = json.loads(cache.read_text())
    cache.write_text(json.dumps({**doc, "root": str(tmp_path)}))
    assert load_index(cache).files == loaded.files


def test_index_cache_stores_each_ast_path_once(tmp_path):
    files = {"a.py": numbered_lines(45), "b.py": numbered_lines(12)}
    write_repo(tmp_path, files)
    index = build_index(tmp_path)
    entries = read_store(index_repo(tmp_path, tmp_path / "index.json"))
    assert entries.keys() == files.keys()
    for path, entry in entries.items():
        windows = [s for s in index.snippets if s.path == path]
        assert entry.keys() == {"key", "windows"}
        assert entry["key"] == hashlib.sha256(files[path].encode()).hexdigest()
        cut = entry["windows"]
        assert cut.keys() == {"geometry", "ast_paths", "rows"}
        assert cut["geometry"] == [index.window, index.stride]
        table = cut["ast_paths"]
        assert table == sorted(set().union(*(s.ast_paths for s in windows)))
        decoded = [(tokens, [table[i] for i in slots]) for tokens, slots in cut["rows"]]
        assert decoded == [(list(s.tokens), list(s.ast_paths)) for s in windows]


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
    cache = index_repo(repo, tmp_path / "index.json")
    good = read_store(cache)
    v4 = {"version": 4, "ast_paths": [], "windows": {}}
    ignored = [
        json.dumps(_v1_doc(index)),
        json.dumps({"version": 2}),  # v2 paths spelled the renamed kinds
        json.dumps(_v3_doc(index)),
        json.dumps(v4),
        json.dumps({**v4, "version": 5, "files": {}}),
        json.dumps({**v4, "version": 6}) + "\n{}\n",  # the two-line layout
        json.dumps({"version": 6, "files": good}),
        json.dumps({"version": retrieval._INDEX_VERSION}),
        json.dumps({"version": retrieval._INDEX_VERSION, "files": ["not", "a", "map"]}),
        json.dumps([retrieval._INDEX_VERSION, good]),
        "{not json",
    ]
    for text in ignored:
        cache.write_text(text)
        assert load_index(cache) is None, text
    write_store(cache, good)
    cache.write_text(cache.read_text()[:-40])
    assert load_index(cache) is None

    def rows(entry):
        return entry["windows"]["rows"]

    # a malformed entry is computed again; the rest of the store is kept
    malformed = [
        lambda entry: entry.clear(),
        lambda entry: entry.update(key="0" * 64),
        lambda entry: entry.pop("windows"),
        lambda entry: entry.update(windows="not a map"),
        lambda entry: entry["windows"].pop("ast_paths"),
        lambda entry: entry["windows"].update(geometry=[20]),
        lambda entry: rows(entry).pop(),
        lambda entry: rows(entry)[0].append([]),
        lambda entry: rows(entry).__setitem__(0, 7),
        lambda entry: rows(entry)[0][1].append(len(entry["windows"]["ast_paths"])),
        lambda entry: rows(entry)[0][1].append(-1),  # a list index would count it from the end
        lambda entry: rows(entry)[0].__setitem__(0, "alpha"),  # not its characters
        lambda entry: rows(entry)[0][0].append(7),
        lambda entry: entry["windows"]["ast_paths"].__setitem__(0, 7),
        # a row is decoded as it is stored, so one out of order or with a
        # repeat would change a window's score
        lambda entry: rows(entry)[0][0].reverse(),
        lambda entry: rows(entry)[0][0].append(rows(entry)[0][0][-1]),
        lambda entry: rows(entry)[0][1].append(rows(entry)[0][1][-1]),
        lambda entry: entry["windows"]["ast_paths"].reverse(),
    ]
    for mutate in malformed:
        files = json.loads(json.dumps(good))
        mutate(files["a.py"])
        write_store(cache, files)
        store = load_index(cache)
        assert build_index(repo, reuse=store) == index
        assert store.changed
        assert store.files == good
    write_store(cache, {"a.py": 7, "b.py": ["not", "an", "entry"]})
    store = load_index(cache)
    assert build_index(repo, reuse=store) == index
    assert store.files == good


def test_interrupted_write_keeps_the_previous_store(tmp_path, monkeypatch):
    repo = write_repo(tmp_path / "repo", {"a.py": numbered_lines(25)})
    cache = index_repo(repo)
    before = cache.read_bytes()
    write_repo(repo, {"b.py": "y = 2\n"})
    store = load_index(cache)
    build_index(repo, reuse=store)
    real_dumps = json.dumps

    def fail_at_the_second_entry(value, *args, **kwargs):
        # the store writes a.py's entry, then b.py's
        if value is store.files["b.py"]:
            raise OSError(28, "No space left on device")
        return real_dumps(value, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", fail_at_the_second_entry)
    with pytest.raises(OSError):
        store.write()
    store.keep(file_facts(parse(SourceFile.from_text("b.py", "y = 2\n"))))
    store.flush()  # a write-back that fails is ignored
    monkeypatch.undo()
    assert cache.read_bytes() == before
    assert [p.name for p in cache.parent.iterdir()] == ["snippets.json"]


def _file_text_pairs():
    """(path, text) for every file of the test and benchmark corpora and of
    ``src/repolens``, each also cut a line and a half short of two thirds,
    which parses with error recovery."""
    roots = [TESTS_DIR / "corpus_cases", TESTS_DIR / "dep_cases", TESTS_DIR.parent / "src"]
    roots += sorted((TESTS_DIR.parent / "perfbench" / "corpora").iterdir())
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            rel = f"{root.name}/{path.relative_to(root).as_posix()}"  # src/ and a corpus both hold repolens/
            text = path.read_text(encoding="utf-8")
            lines = text.split("\n")
            cut = len(lines) * 2 // 3
            yield rel, text
            yield f"cut/{rel}", "\n".join(lines[:cut] + [lines[cut][: len(lines[cut]) // 2]])


def test_stored_facts_equal_fresh_ones():
    with tempfile.TemporaryDirectory() as scratch:
        cache = Path(scratch) / "snippets.json"
        store = Store(cache, {})
        fresh = {}
        for rel, text in _file_text_pairs():
            fresh[rel] = file_facts(parse(SourceFile.from_text(rel, text)))
            store.keep(fresh[rel])
        store.flush()
        stored = load_index(cache)
    assert len(stored.files) == len(fresh) > 130
    for rel, facts in fresh.items():
        back = stored.facts(rel, facts.file.text)
        assert back == facts, rel
        # SymbolRecord.refs is left out of record equality, so compare it on its own
        records = [(r.code, r.refs) for r in facts.definitions + facts.functions]
        assert [(r.code, r.refs) for r in back.definitions + back.functions] == records, rel
        assert back.refs == facts.refs, rel
        assert stored.facts(rel, facts.file.text + "\n") is None  # the text is part of the key


def test_reuse_windows_only_new_or_edited_files(tmp_path, monkeypatch):
    other = numbered_lines(30).replace("value", "other")
    write_repo(tmp_path, {"a.py": numbered_lines(30), "b.py": other})
    old = build_index(tmp_path)
    cache = index_repo(tmp_path, tmp_path / "index.json")
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
    build_index(tmp_path, reuse=load_index(cache))
    assert parsed == [(tmp_path / name).read_text() for name in ("b.py", "c.py")]

    # another window and stride parse every file again, once
    index_repo(tmp_path, cache)
    fresh = build_index(tmp_path, window=15, stride=5)
    parsed.clear()
    assert build_index(tmp_path, window=15, stride=5, reuse=load_index(cache)) == fresh
    assert parsed == [(tmp_path / name).read_text() for name in ("a.py", "b.py", "c.py")]


def test_in_place_edit_parses_every_window_of_the_file_once(tmp_path, monkeypatch):
    """The four windows of the edited file come from one parse of it."""
    write_repo(tmp_path, {"a.py": numbered_lines(50), "b.py": numbered_lines(30)})
    cache = index_repo(tmp_path, tmp_path / "index.json")
    (tmp_path / "a.py").write_text(numbered_lines(50).replace("value_25 = 25", "value_25 = 52"))
    parsed = count_parses(monkeypatch)
    store = load_index(cache)
    rebuilt = build_index(tmp_path, reuse=store)
    assert len([s for s in rebuilt.snippets if s.path == "a.py"]) == 4
    assert parsed == [("retrieval", "a.py")]
    store.write()
    parsed.clear()
    assert build_index(tmp_path, reuse=load_index(cache)) == rebuilt
    assert parsed == []


def test_streamed_write_equals_one_json_dumps(tmp_path):
    repo = write_repo(
        tmp_path / "repo",
        {"a.py": numbered_lines(45), "pkg/b.py": "caf\u00e9 = '\u00fc'\n", "z\u00e9ta.py": "x = 1\n"},
    )
    store = Store(tmp_path / "index.json", {})
    build_index(repo, reuse=store)
    store.keep(file_facts(parse(SourceFile.from_text("a.py", numbered_lines(45)))))
    for files in (store.files, {}):
        store.files = files
        store.write()
        doc = {"version": retrieval._INDEX_VERSION, "files": files}
        assert store.path.read_text(encoding="utf-8") == json.dumps(doc, sort_keys=True)


def _corpus_repo(root: Path) -> Path:
    files = {f"corpus/{path.name}": path.read_text() for path in sorted((TESTS_DIR / "corpus_cases").glob("*.py"))}
    return write_repo(root, {**files, "a.py": numbered_lines(300), "pkg/short.py": "x = 1\n", "pkg/empty.py": ""})


def test_every_build_path_gives_a_lean_index(tmp_path):
    """A build computed here and one decoded from a store are equal; in
    each, a window's tokens and paths are sorted tuples without repeats,
    and each distinct string is one object."""
    repo = _corpus_repo(tmp_path / "repo")
    fresh = build_index(repo)
    decoded = build_index(repo, reuse=load_index(index_repo(repo, tmp_path / "index.json")))
    assert decoded == fresh
    for index in (fresh, decoded):
        fields = [field for s in index.snippets for field in (s.tokens, s.ast_paths)]
        assert all(type(field) is tuple and list(field) == sorted(set(field)) for field in fields)
        strings = [string for field in fields for string in field]
        assert len({id(string) for string in strings}) == len(set(strings))


_PATH_SETS = st.sets(st.text(alphabet="abc/_", max_size=6), max_size=10)


@settings(max_examples=300)
@given(_PATH_SETS, _PATH_SETS)
@example(set(), set())
def test_jaccard_of_a_set_and_a_sorted_tuple_is_set_arithmetic(a, b):
    union = a | b
    expected = len(a & b) / len(union) if union else 0.0
    assert retrieval._jaccard(a, tuple(sorted(b))).hex() == expected.hex()


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
    """Edits, additions and deletions, with a write-back of windows and
    facts between them and through a reload."""
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        write_repo(root, {name: text for name, text in before.items() if text is not None})
        cache = index_repo(root, None, *old_geometry)

        def write_back(store):
            """Keep the facts of every file and write, as ``complete`` does;
            the facts kept."""
            kept = {}
            for name in _FILES:
                if (root / name).exists():
                    kept[name] = file_facts(parse(SourceFile.from_text(name, (root / name).read_text())))
                    store.keep(kept[name])
            store.flush()
            return kept

        write_back(load_index(cache))
        for name, change in after.items():
            if change == "same":
                continue
            target = root / name
            if change is None:
                target.unlink(missing_ok=True)
            else:
                write_repo(root, {name: change})
        store = load_index(cache)
        reused = build_index(root, *new_geometry, exclude=exclude, reuse=store)
        fresh = build_index(root, *new_geometry, exclude=exclude)
        assert reused == fresh
        assert [s.snippet_id for s in reused.snippets] == [s.snippet_id for s in fresh.snippets]

        kept = write_back(store)
        stored = load_index(cache)
        # one entry per path, keyed on the text the file holds now
        assert set(kept) <= set(stored.files) <= {name for name, text in before.items() if text is not None} | set(kept)
        for name, facts in kept.items():
            assert stored.files[name]["key"] == hashlib.sha256(facts.file.text.encode()).hexdigest()
            assert facts_to_json(stored.facts(name, facts.file.text)) == facts_to_json(facts)
        # the windows written back serve the next build without a parse
        assert build_index(root, *new_geometry, exclude=exclude, reuse=stored) == fresh
        assert not stored.changed


def _oracle_line_paths(text: str) -> list[set[str]]:
    """Each line's AST paths by a recursive walk of one parse of ``text``:
    a terminal's kind path, cut at ``_PATH_DEPTH`` kinds, goes under every
    line from the start of its first leaf to the end of its last."""
    lines: list[set[str]] = [set() for _ in range(text.count("\n") + 1)]

    def visit(node, chain):
        if len(chain) < retrieval._PATH_DEPTH:
            chain = chain + (syntax.kind_of(node),)
        kids = syntax.children(node)
        for kid in kids:
            visit(kid, chain)
        if not kids:
            for line in range(node.start_pos[0], node.end_pos[0] + 1):
                lines[line - 1].add("/".join(chain))

    visit(parse(SourceFile.from_text("m.py", text)).root, ())
    return lines


# more than _LINES: leaves over two lines, a chain deeper than _PATH_DEPTH,
# an async wrapper, a statement over two lines and a comment-only line
_PATH_LINES = _LINES + [
    's = """doc',
    'more"""',
    "deep = [[[[[[[[[[[[x]]]]]]]]]]]]",
    "async def g():",
    "    await f(x); y = 2",
    "total = (1 +",
    "    2)",
]


@settings(max_examples=60, deadline=None)
@given(lines=st.lists(st.sampled_from(_PATH_LINES), max_size=14), geometry=_GEOMETRY)
def test_window_paths_are_the_union_of_their_lines_paths(lines, geometry):
    text = "".join(line + "\n" for line in lines)
    with tempfile.TemporaryDirectory() as scratch:
        write_repo(Path(scratch), {"m.py": text})
        index = build_index(scratch, *geometry)
    line_paths = _oracle_line_paths(text)
    window = geometry[0]
    for snippet in index.snippets:
        union = set().union(*line_paths[snippet.start_line : snippet.start_line + window])
        assert snippet.ast_paths == tuple(sorted(union))


def test_a_lone_carriage_return_stays_inside_its_line():
    """parso ends a line at a lone "\\r" too; the paths stay with the line
    that holds it, as a window cut at "\\n" does."""
    split = line_ast_paths("m.py", "a = 1\nb = 2\nc = (3,\n4)\n")
    joined = line_ast_paths("m.py", "a = 1\rb = 2\nc = (3,\r4)\n")
    assert joined == [split[0] | split[1], split[2] | split[3], split[4]]
    assert ast_paths_of("a = 1\rb = 2\n") == ast_paths_of("a = 1\nb = 2\n")


def test_a_build_parses_each_computed_file_once(tmp_path, monkeypatch):
    """One parse per file no store entry holds windows of, none for a stored
    one; a file nested too deeply for parso gets windows without paths."""
    repo = _corpus_repo(tmp_path / "repo")
    write_repo(repo, {"deep.py": "def f(c):\n    return " + "not " * 2000 + "c )\n"})
    parses = count_parses(monkeypatch)
    store = Store(tmp_path / "index.json", {})
    fresh = build_index(repo, reuse=store)
    files = list(dict.fromkeys(s.path for s in fresh.snippets))
    assert len(files) == 8
    assert parses == [("retrieval", path) for path in files]
    assert [s.ast_paths for s in fresh.snippets if s.path == "deep.py"] == [()]
    assert all(s.ast_paths for s in fresh.snippets if s.path == "a.py")
    store.write()

    (repo / "pkg" / "short.py").write_text("x = 2\n")
    parses.clear()
    assert build_index(repo, reuse=load_index(store.path)) == build_index(repo)
    assert parses == [("retrieval", "pkg/short.py")] + [("retrieval", path) for path in files]


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
    index = SnippetIndex(window=1, stride=1, snippets=snippets)
    top = semantic_candidates(index, "common query_word", n=2)
    assert [s.snippet_id for s, _ in top] == ["exact", "s0"]
    assert len(top) == 2


_WINDOW_PATHS = ["a.py", "b.py", "pkg/c.py"]
_WINDOW_TOKENS = ["alpha", "beta", "gamma", "delta", "eps"]


def _window(path, start, tokens):
    return Snippet(f"{path}:{start}", path, start, start + 20, " ".join(sorted(tokens)), tuple(sorted(tokens)), ())


def _full_scan(snippets, query, n, exclude):
    kept = [s for s in snippets if s.path != exclude]
    ranked = sorted(zip(kept, LexicalScorer().scores(query, kept)), key=lambda pair: (-pair[1], pair[0].snippet_id))
    return ranked[:n]


def _ids_and_floats(pairs):
    return [(s.snippet_id, score.hex()) for s, score in pairs]


@settings(max_examples=300, deadline=None)
@given(
    windows=st.lists(
        st.tuples(
            st.sampled_from(_WINDOW_PATHS),
            st.sampled_from([0, 3, 20, 100, 200]),
            st.frozensets(st.sampled_from(_WINDOW_TOKENS)),
        ),
        max_size=12,
        unique_by=lambda w: w[:2],
    ),
    bag=st.frozensets(st.sampled_from([*_WINDOW_TOKENS, "omega"])),
    n=st.integers(0, 16),
    exclude=st.sampled_from([None, "elsewhere.py", *_WINDOW_PATHS]),
)
@example(windows=[("a.py", 0, {"alpha"})], bag=frozenset(), n=3, exclude=None)  # an empty query bag
@example(  # ties ordered by the id string: "a.py:100" < "a.py:20"
    windows=[("a.py", 20, {"alpha"}), ("a.py", 100, {"alpha"}), ("a.py", 3, set())],
    bag=frozenset({"alpha"}), n=2, exclude=None,
)
@example(  # one window shares a token, two must be padded, and n exceeds the pool
    windows=[("b.py", 0, {"beta"}), ("a.py", 20, {"gamma"}), ("a.py", 100, set())],
    bag=frozenset({"beta"}), n=9, exclude="elsewhere.py",
)
@example(  # exclude names every window's path
    windows=[("a.py", 0, {"alpha"}), ("a.py", 20, {"beta"})], bag=frozenset({"alpha"}), n=2, exclude="a.py",
)
def test_posting_lists_return_the_full_scan(windows, bag, n, exclude):
    """Through posting lists, the lexical pool is today's full scan: the
    windows outside ``exclude`` sorted by (-score, id), the same floats."""
    snippets = [_window(*w) for w in windows]
    index = SnippetIndex(window=20, stride=10, snippets=snippets)
    query = " ".join(sorted(bag))
    expected = _ids_and_floats(_full_scan(snippets, query, n, exclude))
    for _ in range(2):  # the second query reuses the posting lists
        assert _ids_and_floats(semantic_candidates(index, query, n, exclude=exclude)) == expected
    assert _ids_and_floats(semantic_candidates(index, query, n, LexicalScorer(), exclude=exclude)) == expected


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


_NAMES = st.frozensets(st.sampled_from(["a", "b", "value", "total", "f_1", "_x"]))


@given(_NAMES, st.lists(_NAMES, max_size=6))
def test_lexical_and_structure_scores_are_intersection_over_union(query, bags):
    def oracle(a, b):
        return len(a & b) / len(a | b) if a | b else 0.0

    expected = [oracle(query, bag) for bag in bags]
    snippets = [make_snippet(f"s{i}", bag, bag) for i, bag in enumerate(bags)]
    assert LexicalScorer().scores(" ".join(sorted(query)), snippets) == expected
    assert [structure_score(query, s.ast_paths) for s in snippets] == expected


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
        "q itself": [1.0, 0.0],
    }

    content_types = []
    posted = []

    def handler(path, payload, headers):
        content_types.append(headers["Content-Type"])
        posted.append(payload["texts"])
        return 200, {"vectors": [vectors[t] for t in payload["texts"]]}

    # hand-built snippets keep the text-to-vector mapping obvious
    near = Snippet("near", "a.py", 0, 1, "near q", ("near",), ())
    mine = Snippet("mine", "target.py", 0, 1, "q itself", ("q",), ())
    off = Snippet("off", "b.py", 0, 1, "off axis", ("off",), ())
    index = SnippetIndex(window=1, stride=1, snippets=[near, mine, off])

    with http_stub(handler) as url:
        scorer = DenseScorer(endpoint=url + "/embed")
        top = semantic_candidates(index, "q", n=3, scorer=scorer, exclude="target.py")
    assert [s.snippet_id for s, _ in top] == ["near", "off"]
    assert top[0][1] == 1.0
    assert top[1][1] == 0.0
    assert set(content_types) == {"application/json"}
    assert posted == [["near q", "off axis"], ["q"]]  # the target's window is never embedded


def _with_target_window():
    """Windows a and b, and a ``target.py`` window that would rank first for "shared thing"."""
    mine = replace(make_snippet("mine", {"shared", "thing"}), path="target.py")
    snippets = [make_snippet("a", {"shared", "one"}), mine, make_snippet("b", {"unrelated"})]
    return SnippetIndex(window=1, stride=1, snippets=snippets)


def test_dense_scorer_failure_falls_back_to_lexical():
    index = _with_target_window()
    scorer = DenseScorer(endpoint="http://127.0.0.1:9/unreachable", timeout=0.2)
    diagnostics = []
    top = semantic_candidates(index, "shared thing", n=3, scorer=scorer, diagnostics=diagnostics, exclude="target.py")
    assert [s.snippet_id for s, _ in top] == ["a", "b"]
    assert any(d.code == "embedding_fallback" for d in diagnostics)


def test_dense_scorer_server_error_falls_back_to_lexical():
    def handler(path, payload, headers):
        return 500, {"error": "boom"}

    index = _with_target_window()
    diagnostics = []
    with http_stub(handler) as url:
        scorer = DenseScorer(endpoint=url)
        top = semantic_candidates(
            index, "shared thing", n=3, scorer=scorer, diagnostics=diagnostics, exclude="target.py"
        )
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
    cache = index_repo(tmp_path, tmp_path / "index.json")
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
