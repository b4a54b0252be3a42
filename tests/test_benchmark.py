"""Batch benchmark runs over a JSONL task file.

The three fixture tasks are designed for hand scoring against the echo
backend, which always returns the unfinished line verbatim (leading
indentation included):

* a1: echo "    result = process_data(frame)" vs truth
  "result = process_data(frame)". Normalized strings match (EM 1); the raw
  strings differ by the four leading spaces, so Levenshtein is 4 over a
  longest length of 32 (ES 0.875); identifiers agree (ID.EM 1, F1 1).
* b2: echo "    result = parse_" vs truth "result = parse_code(path)".
  Levenshtein: delete 4 spaces, insert "code(path)" after the matched
  "result = parse_" block, 14 edits over length 25 (ES 0.44). Identifier
  sequences [result, parse_] vs [result, parse_code, path] share one name:
  precision 1/2, recall 1/3, F1 0.4.
* c3: echo "    text = shorten(name)" vs truth "text = shorten(name)".
  Four deletions over length 24 (ES 5/6); everything else matches.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from repolens import evaluation, projdeps
from repolens.config import PipelineConfig
from repolens.errors import ConfigError, EmptyBenchmarkError
from repolens.evaluation import format_csv, format_text, report_json, run_benchmark
from repolens.retrieval import build_index
from tests.conftest import count_parses, count_posting_builds, http_stub, index_repo, write_repo

MAIN_PY = """\
import os
from data_processor import process_data

FRAME_DIR = "/data"


def load_frame(path):
    return open(path).read()


def run(path):
    frame = load_frame(path)
    result = process_data(frame)
"""

ANALYSIS_PY = """\
from data_processor import parse_code


def tally(path):
    text = open(path).read()
    result = parse_
"""

REPORT_PY = """\
from lib.text_utils import shorten


def caption(name):
    text = shorten(name)
"""

PROCESSOR_PY = """\
def process_data(row):
    return row.strip()


def parse_code(text):
    return text.split()
"""

UTILS_PY = """\
def shorten(path):
    return path[:10]
"""

TRUTHS = {
    "a1": "result = process_data(frame)",
    "b2": "result = parse_code(path)",
    "c3": "text = shorten(name)",
}

TASK_ROWS = [
    {"task_id": "a1", "repo": "bench", "file": "main.py", "line": 13, "ground_truth": TRUTHS["a1"]},
    {"task_id": "b2", "repo": "bench", "file": "analysis.py", "line": 6, "ground_truth": TRUTHS["b2"]},
    {"task_id": "c3", "repo": "bench", "file": "report.py", "line": 5, "ground_truth": TRUTHS["c3"]},
]


def write_bench(tmp_path, rows=TASK_ROWS):
    write_repo(
        tmp_path / "bench",
        {
            "main.py": MAIN_PY,
            "analysis.py": ANALYSIS_PY,
            "report.py": REPORT_PY,
            "data_processor.py": PROCESSOR_PY,
            "lib/text_utils.py": UTILS_PY,
        },
    )
    tasks = tmp_path / "tasks.jsonl"
    tasks.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    return tasks


def test_fixture_backend_scores_perfect(tmp_path):
    tasks = write_bench(tmp_path)
    cfg = PipelineConfig(backend="mock_fixture")
    report = run_benchmark(tasks, cfg, fixture_table=dict(TRUTHS))
    assert (report.em, report.es, report.id_em, report.f1) == (100.0, 100.0, 100.0, 100.0)
    assert [row.task_id for row in report.per_task] == ["a1", "b2", "c3"]
    assert all(row.error == "" for row in report.per_task)


def test_fixture_file_is_read_once_before_any_task(tmp_path, monkeypatch):
    tasks = write_bench(tmp_path)
    fixture = tmp_path / "answers.json"
    cfg = PipelineConfig(backend="mock_fixture", fixture_path=str(fixture))
    extracted, reads = [], []
    real_complete, real_read = evaluation.complete_task, Path.read_text

    def counted_complete(task, *args, **kwargs):
        extracted.append(task.task_id)
        return real_complete(task, *args, **kwargs)

    def counted_read(path, *args, **kwargs):
        if path == fixture:
            reads.append(path)
        return real_read(path, *args, **kwargs)

    monkeypatch.setattr(evaluation, "complete_task", counted_complete)
    monkeypatch.setattr(Path, "read_text", counted_read)
    fixture.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="is not JSON"):
        run_benchmark(tasks, cfg)
    assert extracted == [] and len(reads) == 1

    fixture.write_text(json.dumps(TRUTHS), encoding="utf-8")
    reads.clear()
    report = run_benchmark(tasks, cfg)
    assert report.em == 100.0 and len(extracted) == 3 and len(reads) == 1


def test_echo_backend_matches_hand_scores(tmp_path):
    tasks = write_bench(tmp_path)
    report = run_benchmark(tasks, PipelineConfig(backend="mock_echo"))
    by_id = {row.task_id: row for row in report.per_task}

    assert (by_id["a1"].em, by_id["a1"].id_em, by_id["a1"].f1) == (100.0, 100.0, 100.0)
    assert by_id["a1"].es == pytest.approx(100 * (1 - 4 / 32))
    assert by_id["a1"].generated == "    result = process_data(frame)"

    assert (by_id["b2"].em, by_id["b2"].id_em) == (0.0, 0.0)
    assert by_id["b2"].es == pytest.approx(100 * (1 - 14 / 25))
    assert by_id["b2"].f1 == pytest.approx(40.0)

    assert (by_id["c3"].em, by_id["c3"].id_em, by_id["c3"].f1) == (100.0, 100.0, 100.0)
    assert by_id["c3"].es == pytest.approx(100 * (1 - 4 / 24))

    assert report.em == pytest.approx(200 / 3)
    assert report.es == pytest.approx((87.5 + 44.0 + 100 * 5 / 6) / 3)
    assert report.f1 == pytest.approx((100 + 40 + 100) / 3)


def test_second_run_parses_only_slices_and_queries(tmp_path, monkeypatch):
    tasks = write_bench(tmp_path)
    repo = tmp_path / "bench"
    index_repo(repo)
    projdeps.facts_of.cache_clear()
    first = run_benchmark(tasks, no_timing=True)

    parses = count_parses(monkeypatch)
    projdeps.facts_of.cache_clear()
    second = run_benchmark(tasks, no_timing=True)
    assert sorted(parses) == sorted([("funcflow", "<slice>"), ("retrieval", "snippet.py")] * len(TASK_ROWS))
    assert report_json(second) == report_json(first)


def test_empty_tasks_file_rejected(tmp_path):
    tasks = tmp_path / "tasks.jsonl"
    tasks.write_text("\n\n", encoding="utf-8")
    with pytest.raises(EmptyBenchmarkError):
        run_benchmark(tasks, PipelineConfig())


def test_per_task_failure_recorded_batch_completes(tmp_path):
    rows = TASK_ROWS + [
        {"task_id": "d4", "repo": "bench", "file": "missing.py", "line": 1, "ground_truth": "x"}
    ]
    tasks = write_bench(tmp_path, rows)
    report = run_benchmark(tasks, PipelineConfig(backend="mock_fixture"), fixture_table=dict(TRUTHS))
    by_id = {row.task_id: row for row in report.per_task}
    assert by_id["d4"].error != ""
    assert (by_id["d4"].em, by_id["d4"].es, by_id["d4"].id_em, by_id["d4"].f1) == (0, 0, 0, 0)
    assert by_id["a1"].em == 100.0
    assert report.em == pytest.approx(300 / 4)


def test_posting_lists_built_once_per_repository(tmp_path, monkeypatch):
    rows = TASK_ROWS + [{"task_id": "e5", "repo": "other", "file": "main.py", "line": 13, "ground_truth": "x"}]
    tasks = write_bench(tmp_path, rows)
    write_repo(tmp_path / "other", {"main.py": MAIN_PY, "helpers.py": UTILS_PY})
    built = count_posting_builds(monkeypatch)
    report = run_benchmark(tasks, PipelineConfig(backend="mock_fixture"), fixture_table=dict(TRUTHS, e5="x"))
    assert [row.error for row in report.per_task] == [""] * 4
    assert built == [len(build_index(tmp_path / repo).snippets) for repo in ("bench", "other")]


def test_backend_failure_recorded_batch_completes(tmp_path):
    tasks = write_bench(tmp_path)
    table = {"a1": TRUTHS["a1"], "c3": TRUTHS["c3"]}
    report = run_benchmark(tasks, PipelineConfig(backend="mock_fixture"), fixture_table=table)
    by_id = {row.task_id: row for row in report.per_task}
    assert by_id["b2"].error.startswith("BackendError:")
    assert (by_id["b2"].em, by_id["b2"].es, by_id["b2"].id_em, by_id["b2"].f1) == (0, 0, 0, 0)
    for task_id in ("a1", "c3"):
        row = by_id[task_id]
        assert row.error == ""
        assert (row.em, row.es, row.id_em, row.f1) == (100.0, 100.0, 100.0, 100.0)


def test_concurrent_http_generation_keeps_replies_per_task(tmp_path):
    # each task's unfinished line names its own marker; the stub echoes it back
    rows = [
        dict(TASK_ROWS[0], task_id=f"t{i}", prefix_override=f"    marker_{i} = ",
             ground_truth=f"reply_{i}")
        for i in range(8)
    ]
    tasks = write_bench(tmp_path, rows)

    def handler(path, payload, headers):
        marker = payload["messages"][0]["content"].splitlines()[-1].split()[0]
        return 200, {"choices": [{"message": {"content": marker.replace("marker", "reply")}}]}

    with http_stub(handler) as url:
        cfg = PipelineConfig(backend="http_chat", endpoint=url, max_concurrency=4)
        report = run_benchmark(tasks, cfg)
    assert [row.task_id for row in report.per_task] == [f"t{i}" for i in range(8)]
    for i, row in enumerate(report.per_task):
        assert row.error == ""
        assert row.generated == f"reply_{i}"
        assert row.em == 100.0


def test_dense_scorer_shared_across_tasks_embeds_each_text_once(tmp_path):
    tasks = write_bench(tmp_path)
    posted = []

    def handler(path, payload, headers):
        posted.extend(payload["texts"])
        return 200, {"vectors": [[float(len(t)), 1.0] for t in payload["texts"]]}

    with http_stub(handler) as url:
        run_benchmark(tasks, PipelineConfig(backend="mock_echo", embedding_endpoint=url))
    snippet_texts = {s.text for s in build_index(tmp_path / "bench").snippets}
    counts = Counter(posted)
    assert {text: counts[text] for text in snippet_texts} == dict.fromkeys(snippet_texts, 1)
    # the rest are the three queries, one per task
    assert len(posted) == len(snippet_texts) + len(TASK_ROWS)


def test_report_bytes_identical_without_timing(tmp_path):
    tasks = write_bench(tmp_path)
    cfg = PipelineConfig(backend="mock_echo")
    first = run_benchmark(tasks, cfg, no_timing=True)
    second = run_benchmark(tasks, cfg, no_timing=True)

    def dumps(report):
        return json.dumps(report_json(report), indent=2, sort_keys=True)

    assert dumps(first) == dumps(second)
    assert first.pipeline_overhead_ms == 0.0
    assert all(row.latency_ms == 0.0 for row in first.per_task)


def test_rows_sorted_even_when_input_is_not(tmp_path):
    rows = [TASK_ROWS[2], TASK_ROWS[0], TASK_ROWS[1]]
    tasks = write_bench(tmp_path, rows)
    report = run_benchmark(tasks, PipelineConfig())
    assert [row.task_id for row in report.per_task] == ["a1", "b2", "c3"]


def test_timing_fields_populated(tmp_path):
    tasks = write_bench(tmp_path)
    report = run_benchmark(tasks, PipelineConfig())
    assert report.pipeline_overhead_ms > 0.0
    assert report.generation_ms >= 0.0
    assert all(row.latency_ms > 0.0 for row in report.per_task)


def test_malformed_task_lines_rejected(tmp_path):
    tasks = write_bench(tmp_path)
    tasks.write_text("not json\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        run_benchmark(tasks, PipelineConfig())

    dupe = TASK_ROWS[0]
    tasks.write_text(json.dumps(dupe) + "\n" + json.dumps(dupe) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate"):
        run_benchmark(tasks, PipelineConfig())

    bad = dict(TASK_ROWS[0], line=0)
    tasks.write_text(json.dumps(bad) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="1-based"):
        run_benchmark(tasks, PipelineConfig())

    odd = dict(TASK_ROWS[0], surprise=True)
    tasks.write_text(json.dumps(odd) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="surprise"):
        run_benchmark(tasks, PipelineConfig())


def test_text_and_csv_renderings(tmp_path):
    tasks = write_bench(tmp_path)
    report = run_benchmark(tasks, PipelineConfig(), no_timing=True)
    text = format_text(report)
    assert "mean" in text
    assert "a1" in text
    csv_text = format_csv(report)
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("task_id,")
    assert len(lines) == 4
