"""Prompt rendering, section layout and budget truncation."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repolens.errors import BudgetTooSmallError
from repolens.filedeps import code_preview, explicit_deps, potential_deps
from repolens.funcflow import build_cfg, local_slice, render_cfg
from repolens.projdeps import build_module_map, cross_module_deps
from repolens.prompting import (
    SECTION_HEADERS,
    PromptDocument,
    _render_exemplar,
    _render_node,
    estimate_tokens,
    render,
)
from repolens.ranking import RankedContext, build_graph, personalized_pagerank, select_topk
from repolens.retrieval import (
    ExemplarSet,
    ast_paths_of,
    build_index,
    rerank,
    semantic_candidates,
)
from repolens.syntax import definitions_before, file_facts, load_source, parse
from tests.conftest import write_repo

PROMPT_MAIN = """\
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

PROMPT_PROCESSOR = """\
def process_data(row):
    return row.strip()


def parse_code(text):
    return text.split()
"""

PROMPT_UTILS = """\
def shorten(path):
    trimmed = os.path.basename(path)
    return trimmed


def merge(path, value):
    full = os.path.join(path, str(value))
    return full
"""

CURSOR = 25


class Bundle:
    def __init__(self, file, line, slice_, file_deps, project_deps):
        self.file = file
        self.line = line
        self.slice_ = slice_
        self.file_deps = file_deps
        self.project_deps = project_deps


def prompt_inputs(tmp_path):
    write_repo(
        tmp_path,
        {
            "main.py": PROMPT_MAIN,
            "data_processor.py": PROMPT_PROCESSOR,
            "lib/text_utils.py": PROMPT_UTILS,
        },
    )
    file = load_source(tmp_path, "main.py")
    facts = file_facts(parse(file))
    slice_ = local_slice(facts, CURSOR)
    owner = slice_.owner
    defs = definitions_before(facts, CURSOR)
    uses = set(owner.refs.used)
    bundle = Bundle(
        file=file,
        line=CURSOR,
        slice_=slice_,
        file_deps=explicit_deps(defs, uses, owner) + potential_deps(defs, uses),
        project_deps=cross_module_deps(facts.imports, uses, build_module_map(tmp_path)),
    )
    graph = build_graph(bundle)
    ranked = select_topk(graph, personalized_pagerank(graph).scores)
    cfg_text = render_cfg(build_cfg(slice_))
    index = build_index(tmp_path, exclude="main.py")
    pool = semantic_candidates(index, slice_.code)
    exemplars = rerank(pool, ast_paths_of(slice_.code))
    target_code = slice_.code + "    result = process_"
    return ranked, cfg_text, exemplars, target_code


def empty_ranked() -> RankedContext:
    return RankedContext(scores={}, file_topk=[], project_topk=[])


def test_optional_sections_omitted_when_empty(tmp_path):
    ranked, cfg_text, exemplars, target_code = prompt_inputs(tmp_path)
    doc = render(empty_ranked(), "", exemplars, target_code)
    kinds = [kind for kind, _ in doc.sections]
    assert kinds == ["exemplars", "target"]
    assert SECTION_HEADERS["file_ctx"] not in doc.text


def test_full_bundle_renders_five_sections_in_order(tmp_path):
    ranked, cfg_text, exemplars, target_code = prompt_inputs(tmp_path)
    doc = render(ranked, cfg_text, exemplars, target_code, target_path="main.py")
    assert [kind for kind, _ in doc.sections] == [
        "function_ctx",
        "file_ctx",
        "project_ctx",
        "exemplars",
        "target",
    ]
    assert doc.truncations == []
    assert doc.token_count <= 4000
    # headers appear in canonical order in the assembled text
    positions = [doc.text.index(SECTION_HEADERS[k]) for k, _ in doc.sections]
    assert positions == sorted(positions)


def test_dependency_lines_carry_kind_and_location(tmp_path):
    ranked, cfg_text, exemplars, target_code = prompt_inputs(tmp_path)
    doc = render(ranked, cfg_text, exemplars, target_code, target_path="main.py")
    assert "- combine (call, defined at main.py:11):" in doc.text
    assert "- process_data (cross_file_entity, defined at data_processor.py:1):" in doc.text
    assert "- os (import, defined at main.py:1):" in doc.text


def test_target_is_verbatim_and_last(tmp_path):
    ranked, cfg_text, exemplars, target_code = prompt_inputs(tmp_path)
    doc = render(ranked, cfg_text, exemplars, target_code, target_path="main.py")
    body = doc.sections[-1][1]
    assert body == target_code.rstrip("\n")
    assert doc.text.endswith(body)


def test_form_feed_stays_inside_its_line(tmp_path):
    """Lines end at "\n" only, as the index cuts them: a window line holding
    a form feed (a page break) renders as that one line, indented, and so do
    a CFG line and a preview line."""
    text = "def first(a):\n    return a\n\x0c\ndef second(b):\n    b = 1\x0cb\n    return b\n"
    write_repo(tmp_path, {"m.py": text})
    (window,) = build_index(tmp_path).snippets
    doc = render(empty_ranked(), "x = 1\x0cy\nz = 2", rerank([(window, 1.0)], frozenset()), "target()\n")
    sections = dict(doc.sections)
    head, *body = sections["exemplars"].split("\n")
    assert head == "- example from m.py:0 (score 0.70):"
    assert body == [f"  {line}" if line else "" for line in text.removesuffix("\n").split("\n")]
    assert sections["function_ctx"] == "x = 1\x0cy\nz = 2"
    preview = code_preview("def second(b):\n    b = 1\x0cb\n    return b", 1)
    assert preview == "def second(b):\n    b = 1\x0cb\n    ..."


def test_budget_too_small_for_target_raises(tmp_path):
    ranked, cfg_text, exemplars, target_code = prompt_inputs(tmp_path)
    with pytest.raises(BudgetTooSmallError):
        render(ranked, cfg_text, exemplars, target_code, budget=5)


def test_budget_forces_exemplar_drop_first(tmp_path):
    ranked, cfg_text, exemplars, target_code = prompt_inputs(tmp_path)
    full = render(ranked, cfg_text, exemplars, target_code, target_path="main.py")
    trimmed = render(
        ranked, cfg_text, exemplars, target_code, budget=full.token_count - 1, target_path="main.py"
    )
    assert trimmed.truncations
    assert trimmed.truncations[0][0] == "exemplars"
    assert trimmed.truncations[0][1] == exemplars.entries[-1].snippet.snippet_id
    assert trimmed.token_count <= full.token_count - 1


def test_drop_cascade_order(tmp_path):
    ranked, cfg_text, exemplars, target_code = prompt_inputs(tmp_path)
    target_tokens = estimate_tokens(
        SECTION_HEADERS["target"] + "\n" + target_code.rstrip("\n")
    )
    doc = render(
        ranked, cfg_text, exemplars, target_code, budget=target_tokens + 3, target_path="main.py"
    )
    kinds = [kind for kind, _ in doc.truncations]
    boundary = [kinds.index(k) for k in ("exemplars", "project_ctx", "file_ctx") if k in kinds]
    assert boundary == sorted(boundary)
    # no interleaving: once a later section starts dropping, earlier ones are done
    order = {"exemplars": 0, "project_ctx": 1, "file_ctx": 2, "function_ctx": 3}
    ranks = [order[k] for k in kinds]
    assert ranks == sorted(ranks)
    assert doc.token_count <= target_tokens + 3


def test_drops_respect_score_order_within_section(tmp_path):
    ranked, cfg_text, exemplars, target_code = prompt_inputs(tmp_path)
    full = render(ranked, cfg_text, exemplars, target_code, target_path="main.py")
    doc = render(
        ranked, cfg_text, exemplars, target_code, budget=full.token_count - 40, target_path="main.py"
    )
    dropped_files = {label for kind, label in doc.truncations if kind == "file_ctx"}
    if dropped_files:
        surviving = [n for n in ranked.file_topk if n.label not in dropped_files]
        dropped = [n for n in ranked.file_topk if n.label in dropped_files]
        worst_kept = min(ranked.scores[n.node_id] for n in surviving) if surviving else 1.0
        best_dropped = max(ranked.scores[n.node_id] for n in dropped)
        assert worst_kept >= best_dropped


def test_token_count_within_budget_across_budgets(tmp_path):
    ranked, cfg_text, exemplars, target_code = prompt_inputs(tmp_path)
    for budget in (500, 1000, 4000):
        doc = render(ranked, cfg_text, exemplars, target_code, budget=budget, target_path="main.py")
        assert doc.token_count <= budget
        assert target_code.rstrip("\n") in doc.text


def test_rendering_is_deterministic(tmp_path):
    ranked, cfg_text, exemplars, target_code = prompt_inputs(tmp_path)
    a = render(ranked, cfg_text, exemplars, target_code, target_path="main.py")
    b = render(ranked, cfg_text, exemplars, target_code, target_path="main.py")
    assert a.text == b.text
    assert a.token_count == b.token_count


def test_estimate_tokens_counts_words_and_punctuation():
    assert estimate_tokens("x = f(1)") == 6
    assert estimate_tokens("") == 0
    assert estimate_tokens("alpha beta") == 2


def test_full_prompt_matches_golden(tmp_path):
    golden = (Path(__file__).parent / "golden" / "prompt_full.txt").read_text(encoding="utf-8")
    ranked, cfg_text, exemplars, target_code = prompt_inputs(tmp_path)
    doc = render(ranked, cfg_text, exemplars, target_code, target_path="main.py")
    assert doc.text == golden


def oracle_render(ranked, cfg_text, exemplars, target_code, budget, target_path=""):
    """Reference implementation: drop one item, then re-assemble and
    re-count the whole prompt, until it fits the budget."""
    order = ("function_ctx", "file_ctx", "project_ctx", "exemplars")
    target_text = target_code.rstrip("\n")
    if estimate_tokens(f"{SECTION_HEADERS['target']}\n{target_text}") > budget:
        raise BudgetTooSmallError("target section alone exceeds the budget")
    cfg_lines = [line for line in cfg_text.split("\n") if line.strip()]
    parts = {
        "function_ctx": list(cfg_lines),
        "file_ctx": [_render_node(n, target_path) for n in ranked.file_topk],
        "project_ctx": [_render_node(n, target_path) for n in ranked.project_topk],
        "exemplars": [_render_exemplar(e) for e in exemplars.entries],
    }
    labels = {
        "function_ctx": list(cfg_lines),
        "file_ctx": [n.label for n in ranked.file_topk],
        "project_ctx": [n.label for n in ranked.project_topk],
        "exemplars": [e.snippet.snippet_id for e in exemplars.entries],
    }

    def assemble():
        blocks = [SECTION_HEADERS[kind] + "\n" + "\n".join(parts[kind]) for kind in order if parts[kind]]
        return "\n\n".join(blocks + [f"{SECTION_HEADERS['target']}\n{target_text}"])

    truncations = []
    text = assemble()
    while estimate_tokens(text) > budget:
        kind = next(k for k in ("exemplars", "project_ctx", "file_ctx", "function_ctx") if parts[k])
        idx = 0 if kind == "function_ctx" else -1
        parts[kind].pop(idx)
        truncations.append((kind, labels[kind].pop(idx)))
        text = assemble()
    sections = [(kind, "\n".join(parts[kind])) for kind in order if parts[kind]]
    return PromptDocument(
        sections=sections + [("target", target_text)],
        token_count=estimate_tokens(text),
        truncations=truncations,
        text=text,
    )


@pytest.fixture(scope="module")
def shared_inputs(tmp_path_factory):
    return prompt_inputs(tmp_path_factory.mktemp("prompt"))


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_render_matches_drop_loop_oracle_at_random_budgets(shared_inputs, data):
    ranked, cfg_text, exemplars, target_code = shared_inputs
    # random subsets of every section, and random text in the CFG and target
    ranked = RankedContext(
        scores=ranked.scores,
        file_topk=ranked.file_topk[: data.draw(st.integers(0, len(ranked.file_topk)))],
        project_topk=ranked.project_topk[: data.draw(st.integers(0, len(ranked.project_topk)))],
    )
    exemplars = ExemplarSet(
        entries=exemplars.entries[: data.draw(st.integers(0, len(exemplars.entries)))],
        weights=exemplars.weights,
    )
    cfg_text = data.draw(st.one_of(st.just(cfg_text), st.text(max_size=200)))
    target_code += data.draw(st.text(max_size=40))

    full = oracle_render(ranked, cfg_text, exemplars, target_code, budget=10**9)
    budget = data.draw(st.integers(1, full.token_count + 5))
    try:
        expected = oracle_render(ranked, cfg_text, exemplars, target_code, budget, "main.py")
    except BudgetTooSmallError:
        with pytest.raises(BudgetTooSmallError):
            render(ranked, cfg_text, exemplars, target_code, budget, target_path="main.py")
        return
    doc = render(ranked, cfg_text, exemplars, target_code, budget, target_path="main.py")
    assert doc.token_count == estimate_tokens(doc.text)
    assert doc == expected
