"""Single-task orchestration: extraction, selection, retrieval, rendering.

The fixture repository mirrors the one used by the prompt tests, so the
expected dependency sets are known by hand: inside ``target`` the explicit
file-level names are combine and BASE_DIR, the potential ones scale, Widget
and FancyWidget, and the imports split into one external and two cross-file
entities.
"""

from __future__ import annotations

import json
import os

import pytest

from repolens import pipeline, projdeps, retrieval
from repolens.config import PipelineConfig
from repolens.errors import ConfigError
from repolens.pipeline import (
    ABLATION_VARIANTS,
    CompletionTask,
    complete_task,
    extract_context,
)
from repolens.retrieval import (
    ast_paths_of,
    build_index,
    index_path,
    semantic_candidates,
)
from tests.conftest import (
    TESTS_DIR,
    count_parses,
    count_posting_builds,
    http_stub,
    index_repo,
    read_store,
    write_repo,
    write_store,
)

MAIN_PY = """\
import os
from data_processor import process_data, parse_code

BASE_DIR = "/tmp"


def scale(x):
    return x * 2


def combine(x):
    return scale(x) + 1


class Widget:
    pass


class FancyWidget(Widget):
    pass


def target(path):
    full = os.path.join(BASE_DIR, path)
    value = combine(7)
    result = process_
"""

PROCESSOR_PY = """\
def process_data(row):
    return row.strip()


def parse_code(text):
    return text.split()
"""

UTILS_PY = """\
def shorten(path):
    trimmed = os.path.basename(path)
    return trimmed


def merge(path, value):
    full = os.path.join(path, str(value))
    return full
"""

CURSOR = 25


@pytest.fixture
def repo(tmp_path):
    write_repo(
        tmp_path,
        {
            "main.py": MAIN_PY,
            "data_processor.py": PROCESSOR_PY,
            "lib/text_utils.py": UTILS_PY,
        },
    )
    return tmp_path


def make_task(repo, **kw):
    defaults = dict(task_id="t0", repo=repo, file="main.py", line=CURSOR)
    defaults.update(kw)
    return CompletionTask(**defaults)


def section_kinds(result):
    return [kind for kind, _ in result.prompt.sections]


def test_extract_context_assembles_all_levels(repo):
    bundle = extract_context(repo, "main.py", CURSOR)
    assert bundle.slice_.origin == "function"
    assert bundle.slice_.owner.name == "target"
    assert bundle.cfg_text.startswith("entry ->")
    by_kind = {(d.symbol.name, d.dep_kind) for d in bundle.file_deps}
    assert by_kind == {
        ("combine", "explicit"),
        ("BASE_DIR", "explicit"),
        ("scale", "potential"),
        ("Widget", "potential"),
        ("FancyWidget", "potential"),
    }
    origins = {(d.symbol, d.origin) for d in bundle.project_deps}
    assert origins == {
        ("os", "external"),
        ("process_data", "cross_file"),
        ("parse_code", "cross_file"),
    }


def test_owner_function_found_once_per_extraction(repo, monkeypatch):
    calls = []
    real = pipeline.local_slice

    def counted(facts, line):
        calls.append(line)
        return real(facts, line)

    monkeypatch.setattr(pipeline, "local_slice", counted)
    bundle = extract_context(repo, "main.py", CURSOR)
    assert calls == [CURSOR]
    assert bundle.slice_.owner is not None


def test_cursor_out_of_range_rejected(repo):
    with pytest.raises(ValueError):
        extract_context(repo, "main.py", 999)


def test_complete_task_renders_all_sections(repo):
    result = complete_task(make_task(repo))
    assert section_kinds(result) == [
        "function_ctx",
        "file_ctx",
        "project_ctx",
        "exemplars",
        "target",
    ]
    kind, body = result.prompt.sections[-1]
    assert body.endswith("    result = process_")
    assert result.target_code.endswith("    result = process_")


def test_complete_task_deterministic(repo):
    first = complete_task(make_task(repo))
    second = complete_task(make_task(repo))
    assert first.prompt.text == second.prompt.text


def test_shared_index_equals_fresh_build(repo):
    shared = build_index(repo)
    with_shared = complete_task(make_task(repo), index=shared)
    fresh = complete_task(make_task(repo))
    assert with_shared.prompt.text == fresh.prompt.text
    assert all(e.snippet.path != "main.py" for e in with_shared.exemplars.entries)


def test_one_shot_task_builds_no_posting_lists(repo, monkeypatch):
    built = count_posting_builds(monkeypatch)
    complete_task(make_task(repo))
    index_repo(repo)
    complete_task(make_task(repo))  # through the store
    assert built == []


def test_shared_index_builds_its_posting_lists_once(repo, monkeypatch):
    built = count_posting_builds(monkeypatch)
    shared = build_index(repo)
    assert built == []  # not at build time
    tasks = [
        make_task(repo),
        make_task(repo, line=CURSOR - 1),
        make_task(repo, file="data_processor.py", line=1),
        make_task(repo, file="lib/text_utils.py", line=1),
    ]
    for task in tasks:
        shared_result = complete_task(task, index=shared)
        assert shared_result.prompt.text == complete_task(task).prompt.text
    assert built == [len(shared.snippets)]
    complete_task(make_task(repo), index=build_index(repo))
    assert built == [len(shared.snippets)] * 2  # once per index


def test_current_cache_spares_every_window_parse(repo, monkeypatch):
    parses = []
    inside = []
    real_build, real_parse = pipeline.build_index, retrieval.parse

    def traced_build(*args, **kwargs):
        inside.append(True)
        try:
            return real_build(*args, **kwargs)
        finally:
            inside.pop()

    def counted_parse(file):
        if inside:
            parses.append(file.path)
        return real_parse(file)

    monkeypatch.setattr(pipeline, "build_index", traced_build)
    monkeypatch.setattr(retrieval, "parse", counted_parse)
    uncached = complete_task(make_task(repo))
    assert parses
    index_repo(repo)
    parses.clear()
    cached = complete_task(make_task(repo))
    assert parses == []
    assert cached.prompt.text == uncached.prompt.text


def test_in_place_edit_reaches_exemplars_through_cache(repo):
    index_repo(repo)
    stale = complete_task(make_task(repo))
    assert "trimmed = os.path.basename(path)" in stale.prompt.text
    edited = UTILS_PY.replace("trimmed = os.path.basename(path)", "trimmed = edited_marker(path)")
    (repo / "lib" / "text_utils.py").write_text(edited)

    result = complete_task(make_task(repo))
    assert "trimmed = edited_marker(path)" in result.prompt.text
    assert "trimmed = os.path.basename(path)" not in result.prompt.text
    index_path(repo).unlink()
    assert complete_task(make_task(repo)).prompt.text == result.prompt.text


def test_malformed_cache_is_ignored(repo):
    fresh = complete_task(make_task(repo))
    index_path(repo).parent.mkdir()
    for junk in ("{not json", '{"version": 1, "snippets": []}', '{"version": 2}'):
        index_path(repo).write_text(junk)
        assert complete_task(make_task(repo)).prompt.text == fresh.prompt.text


def test_prefix_override_replaces_cursor_line(repo):
    task = make_task(repo, prefix_override="    result = parse_")
    result = complete_task(task)
    assert result.target_code.endswith("    result = parse_")
    assert "process_" not in result.prompt.sections[-1][1]


def test_timings_recorded(repo):
    result = complete_task(make_task(repo))
    assert set(result.timings_ms) == {"context", "rank", "retrieve", "render", "total"}
    assert all(value >= 0.0 for value in result.timings_ms.values())
    assert result.timings_ms["total"] >= result.timings_ms["context"]


def test_ablate_no_cc_keeps_only_exemplars_and_target(repo):
    result = complete_task(make_task(repo), ablate="no-cc")
    assert section_kinds(result) == ["exemplars", "target"]
    assert result.graph is None


def test_ablate_func_only(repo):
    result = complete_task(make_task(repo), ablate="func-only")
    assert section_kinds(result) == ["function_ctx", "exemplars", "target"]


def test_ablate_file_only_passes_every_definition(repo):
    cfg = PipelineConfig(top_k=2)
    selected = complete_task(make_task(repo), cfg)
    raw = complete_task(make_task(repo), cfg, ablate="file-only")
    assert section_kinds(raw) == ["file_ctx", "exemplars", "target"]
    assert len(selected.ranked.file_topk) == 2
    assert [n.label for n in raw.ranked.file_topk] == [
        "BASE_DIR",
        "combine",
        "scale",
        "Widget",
        "FancyWidget",
    ]


def test_ablate_proj_only_passes_every_import(repo):
    result = complete_task(make_task(repo), PipelineConfig(top_k=1), ablate="proj-only")
    assert section_kinds(result) == ["project_ctx", "exemplars", "target"]
    assert [n.label for n in result.ranked.project_topk] == ["os", "process_data", "parse_code"]


def test_ablate_all_raw_keeps_everything(repo):
    cfg = PipelineConfig(top_k=1)
    result = complete_task(make_task(repo), cfg, ablate="all-raw")
    assert section_kinds(result) == [
        "function_ctx",
        "file_ctx",
        "project_ctx",
        "exemplars",
        "target",
    ]
    assert len(result.ranked.file_topk) == 5
    assert len(result.ranked.project_topk) == 3


def test_ablate_no_sm_orders_by_semantic_score(repo):
    cfg = PipelineConfig()
    result = complete_task(make_task(repo), cfg, ablate="no-sm")
    pool = semantic_candidates(
        build_index(repo, exclude="main.py"), result.target_code, cfg.pool_size
    )
    expected = [snippet.snippet_id for snippet, _ in pool][: cfg.k_final]
    assert [e.snippet.snippet_id for e in result.exemplars.entries] == expected
    assert result.exemplars.weights == (1.0, 0.0)


def test_ablate_unknown_variant_rejected(repo):
    with pytest.raises(ConfigError, match="telepathy"):
        complete_task(make_task(repo), ablate="telepathy")
    assert "no-cc" in ABLATION_VARIANTS


def test_complete_task_scores_with_dense_endpoint(repo):
    def handler(path, payload, headers):
        return 200, {"vectors": [[float(len(t)), 1.0] for t in payload["texts"]]}

    with http_stub(handler) as url:
        result = complete_task(make_task(repo), PipelineConfig(embedding_endpoint=url))
    assert not [d for d in result.bundle.diagnostics if d.code == "embedding_fallback"]


def project_section(result) -> str:
    return dict(result.prompt.sections)["project_ctx"]


def test_in_place_edit_of_imported_module_is_never_served_stale(repo):
    module = repo / "data_processor.py"
    before = complete_task(make_task(repo))
    assert "def process_data(row):" in project_section(before)

    stat = module.stat()
    edited = PROCESSOR_PY.replace("process_data(row):\n    return row.", "process_data(rec):\n    return rec.")
    assert edited != PROCESSOR_PY and len(edited) == len(PROCESSOR_PY)
    module.write_text(edited)
    os.utime(module, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert module.stat().st_mtime_ns == stat.st_mtime_ns
    assert module.stat().st_size == stat.st_size

    after = complete_task(make_task(repo))
    assert "def process_data(rec):" in project_section(after)
    assert "def process_data(row):" not in project_section(after)


def test_unreadable_imported_module_reports_on_every_call(repo):
    module = repo / "data_processor.py"
    module.write_bytes(b"\xff\xfe not utf8")
    for _ in range(2):
        result = complete_task(make_task(repo))
        errors = [d for d in result.bundle.diagnostics if d.code == "resolution_error"]
        assert [d.context["path"] for d in errors] == ["data_processor.py"]
        resolved = {d.symbol: d.resolved for d in result.bundle.project_deps}
        assert resolved["process_data"] is None
    module.write_text(PROCESSOR_PY)
    result = complete_task(make_task(repo))
    assert not [d for d in result.bundle.diagnostics if d.code == "resolution_error"]
    assert "def process_data(row):" in project_section(result)


def test_repeat_task_parses_only_target_slice_and_query(repo, monkeypatch):
    real_build_graph = pipeline.build_graph
    parses = count_parses(monkeypatch)

    def traced_build_graph(*args, **kwargs):
        before = len(parses)
        graph = real_build_graph(*args, **kwargs)
        assert parses[before:] == [], "build_graph parsed"
        return graph

    monkeypatch.setattr(pipeline, "build_graph", traced_build_graph)
    projdeps.facts_of.cache_clear()
    index = build_index(repo)
    module_map = projdeps.build_module_map(repo)

    parses.clear()
    complete_task(make_task(repo), index=index, module_map=module_map)
    # a cold cache parses the target and its imports, all in one place
    assert {("projdeps", "main.py"), ("projdeps", "data_processor.py")} <= set(parses)

    parses.clear()
    complete_task(make_task(repo), index=index, module_map=module_map)
    assert sorted(parses) == [("funcflow", "<slice>"), ("retrieval", "snippet.py")]


def stored_facts(repo) -> dict:
    """The file facts in the repository's store, by path."""
    return {path: entry["facts"] for path, entry in read_store(index_path(repo)).items() if "facts" in entry}


def stored_paths(repo) -> list[str]:
    return sorted(stored_facts(repo))


def same_output(one, other) -> bool:
    return (one.prompt, one.bundle.diagnostics) == (other.prompt, other.bundle.diagnostics)


def test_stored_facts_spare_every_file_parse(repo, monkeypatch):
    index_repo(repo)
    projdeps.facts_of.cache_clear()
    first = complete_task(make_task(repo))
    assert stored_paths(repo) == ["data_processor.py", "main.py"]

    parses = count_parses(monkeypatch)
    projdeps.facts_of.cache_clear()
    second = complete_task(make_task(repo))
    assert sorted(parses) == [("funcflow", "<slice>"), ("retrieval", "snippet.py")]
    assert same_output(second, first)


def test_stored_module_edited_in_place_is_never_served_stale(repo):
    index_repo(repo)
    projdeps.facts_of.cache_clear()
    complete_task(make_task(repo))
    assert "data_processor.py" in stored_paths(repo)
    module = repo / "data_processor.py"
    stat = module.stat()
    edited = PROCESSOR_PY.replace("process_data(row):\n    return row.", "process_data(rec):\n    return rec.")
    assert len(edited) == len(PROCESSOR_PY)
    module.write_text(edited)
    os.utime(module, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert (module.stat().st_size, module.stat().st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)

    projdeps.facts_of.cache_clear()
    stored = complete_task(make_task(repo))
    assert "def process_data(rec):" in project_section(stored)
    index_path(repo).unlink()
    projdeps.facts_of.cache_clear()
    assert same_output(stored, complete_task(make_task(repo)))


@pytest.mark.parametrize("fault", ["not_utf8", "dangling_link"])
def test_unreadable_module_is_never_stored(repo, fault):
    index_repo(repo)
    module = repo / "data_processor.py"
    if fault == "not_utf8":
        module.write_bytes(b"\xff\xfe not utf8")
    else:
        module.unlink()
        module.symlink_to(repo / "missing.py")
    for _ in range(2):
        projdeps.facts_of.cache_clear()
        result = complete_task(make_task(repo))
        errors = [d for d in result.bundle.diagnostics if d.code == "resolution_error"]
        assert [d.context["path"] for d in errors] == ["data_processor.py"]
        assert stored_paths(repo) == ["main.py"]


def test_malformed_stored_facts_are_parsed_again(repo):
    index_repo(repo)
    projdeps.facts_of.cache_clear()
    expected = complete_task(make_task(repo))
    good = read_store(index_path(repo))
    broken = [
        lambda facts: facts.clear(),
        lambda facts: facts.update(path="elsewhere.py"),
        lambda facts: facts.update(records=7),
        lambda facts: facts["definitions"].append(-1),  # a list index would count it from the end
        lambda facts: facts["records"][0][2].pop(),  # a span of three numbers
        lambda facts: facts["records"][0][3].append(["unhashable"]),
        lambda facts: facts["refs"][3].append(5),
        lambda facts: facts["imports"].append(["m", [["only one name"]], [0, 0, 0, 0]]),
    ]
    for path in ("main.py", "data_processor.py"):
        for mutate in broken + [lambda facts: None]:
            files = json.loads(json.dumps(good))
            mutate(files[path]["facts"])
            write_store(index_path(repo), files)
            projdeps.facts_of.cache_clear()
            assert same_output(complete_task(make_task(repo)), expected)
            assert read_store(index_path(repo))[path] == good[path]
    write_store(index_path(repo), dict.fromkeys(good, 7))
    projdeps.facts_of.cache_clear()
    assert same_output(complete_task(make_task(repo)), expected)
    assert stored_paths(repo) == ["data_processor.py", "main.py"]


def test_failed_store_write_changes_nothing(repo, monkeypatch):
    index_repo(repo)
    before = index_path(repo).read_bytes()

    def refuse(*args):
        raise PermissionError(13, "Read-only file system")

    monkeypatch.setattr(retrieval.os, "replace", refuse)
    projdeps.facts_of.cache_clear()
    refused = complete_task(make_task(repo))
    assert index_path(repo).read_bytes() == before
    assert [p.name for p in index_path(repo).parent.iterdir()] == ["snippets.json"]
    monkeypatch.undo()
    projdeps.facts_of.cache_clear()
    assert same_output(refused, complete_task(make_task(repo)))
    assert index_path(repo).read_bytes() != before


def test_store_keeps_one_entry_per_path(repo):
    index_repo(repo)
    projdeps.facts_of.cache_clear()
    module = repo / "data_processor.py"
    for i in range(3):
        module.write_text(PROCESSOR_PY.replace("row.strip()", f"row.strip()[{i}]"))
        complete_task(make_task(repo))
        assert stored_paths(repo) == ["data_processor.py", "main.py"]


def test_complete_without_store_writes_nothing(repo):
    complete_task(make_task(repo))
    assert not (repo / ".repolens").exists()


def test_in_place_edit_of_target_is_seen_by_the_next_task(repo):
    target = repo / "main.py"
    before = extract_context(repo, "main.py", CURSOR)
    assert "value = combine(7)" in before.slice_.code

    stat = target.stat()
    edited = MAIN_PY.replace("value = combine(7)", "value = combine(8)")
    target.write_text(edited)
    os.utime(target, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert (target.stat().st_size, target.stat().st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)

    after = extract_context(repo, "main.py", CURSOR)
    assert "value = combine(8)" in after.slice_.code
    assert "value = combine(7)" not in after.slice_.code


def _records(bundle):
    return [bundle.slice_.owner] + [d.symbol for d in bundle.file_deps] + [
        d.resolved for d in bundle.project_deps
    ]


def test_reused_facts_equal_fresh_ones_on_every_dep_case(dep_case_table):
    root = TESTS_DIR / "dep_cases"
    module_map = projdeps.build_module_map(root)
    for name, _text, _tree, cursor in dep_case_table:
        projdeps.facts_of.cache_clear()
        extract_context(root, name, 0, module_map=module_map)  # the facts are built here
        reused = extract_context(root, name, cursor, module_map=module_map)
        assert projdeps.facts_of.cache_info().hits > 0
        projdeps.facts_of.cache_clear()
        fresh = extract_context(root, name, cursor, module_map=module_map)
        assert reused == fresh, name
        # SymbolRecord.refs is left out of record equality, so compare it on its own
        assert [r and r.refs for r in _records(reused)] == [r and r.refs for r in _records(fresh)], name


def test_prompt_and_diagnostics_same_with_cold_and_warm_caches(tmp_path):
    main = MAIN_PY.replace(
        "from data_processor import process_data, parse_code\n",
        "from data_processor import process_data, parse_code, missing\nimport broken\n",
    )
    files = {"main.py": main, "data_processor.py": PROCESSOR_PY, "lib/text_utils.py": UTILS_PY}
    # a module and a package that map to the same dotted name
    files |= {"pkg.py": "x = 1\n", "pkg/__init__.py": "y = 2\n"}
    write_repo(tmp_path, files)
    (tmp_path / "broken.py").write_bytes(b"\xff not utf8")
    task = make_task(tmp_path, line=CURSOR + 1)
    projdeps.facts_of.cache_clear()

    cold = complete_task(task)
    warm = complete_task(task)
    codes = sorted(d.code for d in cold.bundle.diagnostics)
    assert codes == ["module_collision", "resolution_error", "resolution_error", "unreadable_file"]
    assert warm.bundle.diagnostics == cold.bundle.diagnostics
    assert warm.prompt == cold.prompt
    assert warm.graph.edges == cold.graph.edges
