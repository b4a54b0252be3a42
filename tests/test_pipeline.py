"""Single-task orchestration: extraction, selection, retrieval, rendering.

The fixture repository mirrors the one used by the prompt tests, so the
expected dependency sets are known by hand: inside ``target`` the explicit
file-level names are combine and BASE_DIR, the potential ones scale, Widget
and FancyWidget, and the imports split into one external and two cross-file
entities.
"""

from __future__ import annotations

import pytest

from repolens import funcflow, pipeline, retrieval
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
    save_index,
    semantic_candidates,
)
from tests.conftest import write_repo

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
    real = funcflow.enclosing_function_node

    def counted(tree, line):
        calls.append(line)
        return real(tree, line)

    for module in (funcflow, pipeline):
        monkeypatch.setattr(module, "enclosing_function_node", counted, raising=False)
    bundle = extract_context(repo, "main.py", CURSOR)
    assert calls == [CURSOR]
    assert bundle.slice_.owner_node is not None
    assert bundle.slice_.owner_node.span == bundle.slice_.owner.def_span


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


def write_cache(repo):
    path = index_path(repo)
    path.parent.mkdir(exist_ok=True)
    save_index(build_index(repo), path)


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
    write_cache(repo)
    parses.clear()
    cached = complete_task(make_task(repo))
    assert parses == []
    assert cached.prompt.text == uncached.prompt.text


def test_in_place_edit_reaches_exemplars_through_cache(repo):
    write_cache(repo)
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
