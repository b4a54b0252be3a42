"""Self-tests of the benchmark's own logic; not part of the project's tests.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import cursors  # noqa: E402
import prompts  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from repolens import pipeline, projdeps, retrieval, syntax  # noqa: E402

EMAIL = BENCH / "corpora" / "stdlib_email"
REPOLENS = BENCH / "corpora" / "repolens_7369f41"


def test_same_seed_gives_same_tasks():
    for corpus in (EMAIL, REPOLENS):
        assert cursors.generate(corpus, 7, 30) == cursors.generate(corpus, 7, 30)
        assert cursors.generate(corpus, 7, 30) != cursors.generate(corpus, 8, 30)


def test_cursors_cut_before_a_cross_file_name():
    tasks = cursors.generate(REPOLENS, 3, 40)
    assert len({t.task_id for t in tasks}) == len(tasks) == 40
    for task in tasks:
        line = (REPOLENS / task.file).read_text(encoding="utf-8").split("\n")[task.line]
        assert line == task.prefix + task.text[task.cut:]
        assert task.truth[:1].isidentifier()
        assert cursors.corpus_modules(REPOLENS)[task.source_module] != task.file


def test_recall_on_a_hand_worked_prompt():
    prompt = "\n".join([
        "### File-level context",
        "- helper (function, defined at a.py:3):",
        "  def helper(value): return fmt(value)",
        "",
        "### Complete the following code",
        "def run(items):",
        "    return helper(items, Missing)",
    ])
    # truth identifiers: helper, items, Missing; only helper is in context
    # ("items" appears only in the target section).
    assert prompts.context_id_recall("helper(items, Missing)", prompt) == 1 / 3
    assert prompts.context_id_recall("fmt(value)", prompt) == 1.0


def test_stale_exemplar_is_reported(tmp_path):
    (tmp_path / "m.py").write_text("a = 1\nb = 2\nc = 3\n", encoding="utf-8")
    prompt = "\n".join([
        "### Similar code examples",
        "- example from m.py:1 (score 0.50):",
        "  b = 2",
        "  c = 3",
        "",
        "### Complete the following code",
        "x = ",
    ])
    assert prompts.stale_exemplars(prompt, tmp_path, window=2) == []
    (tmp_path / "m.py").write_text("a = 1\nb = 20\nc = 3\n", encoding="utf-8")
    assert prompts.stale_exemplars(prompt, tmp_path, window=2) == ["m.py:1"]


def test_self_time_is_span_minus_children():
    parent = spans.Span(0, "p", 0.0, 1.0, None)
    children = [
        spans.Span(1, "a", 0.1, 0.3, 0),
        spans.Span(2, "b", 0.2, 0.4, 0),  # overlaps a: covered once
        spans.Span(3, "c", 0.9, 1.2, 0),  # runs past the parent's end
    ]
    assert abs(spans.self_ms(parent, children) - 600.0) < 1e-9
    assert spans.self_ms(parent, []) == 1000.0


def test_group_values_count_parses_under_each_layer():
    rows = [
        spans.Span(0, "ranking.build_graph", 0.0, 1.0, None, {"nodes": 4}),
        spans.Span(1, "syntax.parse", 0.1, 0.2, 0, {"lines": 500}),
        spans.Span(2, "syntax.parse", 0.3, 0.5, 0, {"lines": 1500}),
        spans.Span(3, "syntax.parse", 2.0, 2.5, None, {"lines": 10}),
    ]
    values = spans.group_values(rows)
    assert values["syntax.parse.calls"] == 3
    assert values["ranking.build_graph.parses"] == 2
    assert values["ranking.graph_nodes"] == 4
    assert abs(values["syntax.parse.kloc"] - 2.01) < 1e-9
    assert abs(values["ranking.build_graph.ms"] - 700.0) < 1e-6
    assert abs(values["syntax.parse.self_ms"] - 800.0) < 1e-6


def test_wrappers_record_and_restore_the_originals():
    originals = {
        (module, attr): getattr(module, attr)
        for module, attr in [
            (syntax, "parse"), (retrieval, "parse"), (projdeps, "parse"),
            (pipeline, "complete_task"), (retrieval, "build_index"),
        ]
    }
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        for (module, attr), original in originals.items():
            assert getattr(module, attr) is not original
        retrieval.ast_paths_of("x = 1\n")
    finally:
        spans.uninstall(tracer)
    for (module, attr), original in originals.items():
        assert getattr(module, attr) is original
    assert [s.name for s in tracer.spans] == ["syntax.parse"]


def test_tail_has_ten_samples_beyond_it():
    value, pct = run.tail([float(i) for i in range(1, 41)])
    assert (value, pct) == (30.0, 75.0)
    assert run.tail([1.0, 2.0, 3.0]) == (2.0, 50.0)
