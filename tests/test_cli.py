"""Command-line behavior: exit codes, caching, output formats."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from repolens import cli, retrieval
from repolens.cli import main
from repolens.prompting import SECTION_HEADERS
from repolens.retrieval import build_index, load_index, window_cache
from tests.conftest import write_repo
from tests.test_benchmark import TASK_ROWS, TRUTHS, write_bench
from tests.test_pipeline import CURSOR, MAIN_PY, PROCESSOR_PY, UTILS_PY


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def repo(tmp_path):
    return write_repo(
        tmp_path / "repo",
        {
            "main.py": MAIN_PY,
            "data_processor.py": PROCESSOR_PY,
            "lib/text_utils.py": UTILS_PY,
        },
    )


def complete_args(repo, *extra):
    return ["complete", "--repo", str(repo), "--file", "main.py", "--line", str(CURSOR + 1), *extra]


def test_index_builds_then_hits_cache(runner, repo):
    first = runner.invoke(main, ["index", "--repo", str(repo)])
    assert first.exit_code == 0, first.output
    assert "indexed" in first.output
    assert [p.name for p in (repo / ".repolens").iterdir()] == ["snippets.json"]

    second = runner.invoke(main, ["index", "--repo", str(repo)])
    assert second.exit_code == 0
    assert "up to date" in second.output

    forced = runner.invoke(main, ["index", "--repo", str(repo), "--force"])
    assert forced.exit_code == 0
    assert "indexed" in forced.output


def test_index_rebuilds_after_in_place_edit(runner, repo):
    assert "indexed" in runner.invoke(main, ["index", "--repo", str(repo)]).output
    edited = PROCESSOR_PY.replace("row.strip()", "row.strip().lower()")
    (repo / "data_processor.py").write_text(edited)

    again = runner.invoke(main, ["index", "--repo", str(repo)])
    assert again.exit_code == 0, again.output
    assert "indexed" in again.output
    cached = load_index(repo / ".repolens" / "snippets.json")
    assert cached == window_cache(build_index(repo))
    assert any("lower" in tokens for tokens, _ in cached.values())
    assert "up to date" in runner.invoke(main, ["index", "--repo", str(repo)]).output


def test_index_after_rename_parses_and_writes_nothing(runner, repo, monkeypatch):
    assert "indexed" in runner.invoke(main, ["index", "--repo", str(repo)]).output
    (repo / "lib" / "text_utils.py").rename(repo / "lib" / "path_utils.py")
    parsed, saved = [], []
    monkeypatch.setattr(retrieval, "ast_paths_of", parsed.append)
    monkeypatch.setattr(cli, "save_index", lambda *args: saved.append(args))
    again = runner.invoke(main, ["index", "--repo", str(repo)])
    assert again.exit_code == 0, again.output
    assert "index up to date" in again.output
    assert parsed == [] and saved == []


def test_index_rebuilds_when_window_changes(runner, repo, tmp_path):
    assert "indexed" in runner.invoke(main, ["index", "--repo", str(repo)]).output
    config_path = tmp_path / "cfg.yaml"
    config_path.write_text("window: 5\nstride: 5\n", encoding="utf-8")
    again = runner.invoke(main, ["index", "--repo", str(repo), "--config", str(config_path)])
    assert "indexed" in again.output
    cached = load_index(repo / ".repolens" / "snippets.json")
    assert cached == window_cache(build_index(repo, window=5, stride=5))
    assert cached.keys() != window_cache(build_index(repo)).keys()


def test_index_missing_repo_exits_2(runner, tmp_path):
    result = runner.invoke(main, ["index", "--repo", str(tmp_path / "nowhere")])
    assert result.exit_code == 2


def test_complete_dry_run_prints_prompt_only(runner, repo):
    result = runner.invoke(main, complete_args(repo, "--dry-run"))
    assert result.exit_code == 0, result.output
    assert SECTION_HEADERS["target"] in result.output
    assert result.output.rstrip("\n").endswith("    result = process_")
    assert "--- completion" not in result.output


def test_complete_output_same_with_and_without_cache(runner, repo):
    args = complete_args(repo, "--dry-run", "--explain", "--no-timing")
    uncached = runner.invoke(main, args)
    assert uncached.exit_code == 0, uncached.output
    assert runner.invoke(main, ["index", "--repo", str(repo)]).exit_code == 0
    cached = runner.invoke(main, args)
    assert cached.exit_code == 0, cached.output
    assert cached.output == uncached.output


def test_complete_prints_echo_completion(runner, repo):
    result = runner.invoke(main, complete_args(repo))
    assert result.exit_code == 0, result.output
    assert "--- completion [mock_echo] ---" in result.output
    assert result.output.rstrip("\n").endswith("    result = process_")


def test_complete_explain_emits_graph_json(runner, repo):
    result = runner.invoke(main, complete_args(repo, "--dry-run", "--explain", "--no-timing"))
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output.split("--- explain ---\n", 1)[1])
    assert {node["label"] for node in payload["graph"]["nodes"]} >= {"target", "combine"}
    assert payload["graph"]["selections"]["file"]
    assert payload["timings_ms"]["total"] == 0.0
    assert payload["token_count"] > 0


def test_complete_explain_matches_golden(runner, repo):
    golden = (Path(__file__).parent / "golden" / "explain_fixture.json").read_text(encoding="utf-8")
    result = runner.invoke(main, complete_args(repo, "--dry-run", "--explain", "--no-timing"))
    assert result.exit_code == 0, result.output
    emitted = result.output.split("--- explain ---\n", 1)[1]
    assert emitted == golden


def test_complete_missing_file_exits_2(runner, repo):
    result = runner.invoke(
        main, ["complete", "--repo", str(repo), "--file", "ghost.py", "--line", "3"]
    )
    assert result.exit_code == 2


def test_complete_rejects_line_zero(runner, repo):
    result = runner.invoke(
        main, ["complete", "--repo", str(repo), "--file", "main.py", "--line", "0"]
    )
    assert result.exit_code == 2


def test_complete_ablate_no_cc_drops_context_sections(runner, repo):
    result = runner.invoke(main, complete_args(repo, "--dry-run", "--ablate", "no-cc"))
    assert result.exit_code == 0, result.output
    assert SECTION_HEADERS["function_ctx"] not in result.output
    assert SECTION_HEADERS["file_ctx"] not in result.output
    assert SECTION_HEADERS["project_ctx"] not in result.output
    assert SECTION_HEADERS["exemplars"] in result.output


def test_evaluate_text_json_csv(runner, tmp_path):
    tasks = write_bench(tmp_path)
    result = runner.invoke(main, ["evaluate", "--tasks", str(tasks)])
    assert result.exit_code == 0, result.output
    assert "mean" in result.output

    as_json = runner.invoke(main, ["evaluate", "--tasks", str(tasks), "--format", "json"])
    assert as_json.exit_code == 0
    payload = json.loads(as_json.output)
    assert payload["task_count"] == 3
    assert set(payload["aggregates"]) == {"em", "es", "id_em", "f1"}

    as_csv = runner.invoke(main, ["evaluate", "--tasks", str(tasks), "--format", "csv"])
    assert as_csv.exit_code == 0
    assert as_csv.output.splitlines()[0].startswith("task_id,")


def test_evaluate_writes_byte_identical_reports(runner, tmp_path):
    tasks = write_bench(tmp_path)
    out_a = tmp_path / "report_a.json"
    out_b = tmp_path / "report_b.json"
    for out in (out_a, out_b):
        result = runner.invoke(
            main, ["evaluate", "--tasks", str(tasks), "--out", str(out), "--no-timing"]
        )
        assert result.exit_code == 0, result.output
    assert out_a.read_bytes() == out_b.read_bytes()


def test_evaluate_task_failure_exits_1(runner, tmp_path):
    rows = TASK_ROWS + [
        {"task_id": "d4", "repo": "bench", "file": "missing.py", "line": 1, "ground_truth": "x"}
    ]
    tasks = write_bench(tmp_path, rows)
    result = runner.invoke(main, ["evaluate", "--tasks", str(tasks)])
    assert result.exit_code == 1
    assert "d4" in result.output


def test_evaluate_empty_tasks_exits_2(runner, tmp_path):
    tasks = tmp_path / "tasks.jsonl"
    tasks.write_text("\n", encoding="utf-8")
    result = runner.invoke(main, ["evaluate", "--tasks", str(tasks)])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "field, value",
    [
        ("repo", 7),
        ("file", ["main.py"]),
        ("prefix_override", 5),
        ("ground_truth", None),
        ("ground_truth", ["x = 1"]),
        ("task_id", None),
        ("task_id", True),
    ],
)
def test_evaluate_wrongly_typed_task_field_exits_2(runner, tmp_path, field, value):
    rows = [TASK_ROWS[0], {**TASK_ROWS[1], field: value}]
    tasks = write_bench(tmp_path, rows)
    result = runner.invoke(main, ["evaluate", "--tasks", str(tasks)])
    assert result.exit_code == 2, result.output
    expected = "a string or an integer" if field == "task_id" else "a string"
    assert f"tasks file line 2: {field} must be {expected}" in result.output


def test_evaluate_unknown_ablation_exits_2(runner, tmp_path):
    tasks = write_bench(tmp_path)
    result = runner.invoke(main, ["evaluate", "--tasks", str(tasks), "--ablate", "telepathy"])
    assert result.exit_code == 2


def test_evaluate_with_fixture_backend_config(runner, tmp_path):
    tasks = write_bench(tmp_path)
    fixture_path = tmp_path / "answers.json"
    fixture_path.write_text(json.dumps(TRUTHS), encoding="utf-8")
    config_path = tmp_path / "cfg.yaml"
    config_path.write_text(
        f"backend: mock_fixture\nfixture_path: {json.dumps(str(fixture_path))}\n",
        encoding="utf-8",
    )
    result = runner.invoke(
        main,
        ["evaluate", "--tasks", str(tasks), "--config", str(config_path), "--format", "json"],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["aggregates"] == {"em": 100.0, "es": 100.0, "id_em": 100.0, "f1": 100.0}


@pytest.mark.parametrize(
    "text,fault",
    [
        (None, "cannot read fixture file"),
        ("{not json", "is not JSON"),
        ('{"cli": 5, "a1": 5}', "must hold a JSON object of strings"),
    ],
)
@pytest.mark.parametrize("command", ["complete", "evaluate"])
def test_fixture_file_fault_exits_2(runner, repo, tmp_path, command, text, fault):
    fixture_path = tmp_path / "answers.json"
    if text is not None:
        fixture_path.write_text(text, encoding="utf-8")
    config_path = tmp_path / "cfg.yaml"
    config_path.write_text(
        f"backend: mock_fixture\nfixture_path: {json.dumps(str(fixture_path))}\n",
        encoding="utf-8",
    )
    if command == "complete":
        args = complete_args(repo, "--config", str(config_path))
    else:
        args = ["evaluate", "--tasks", str(write_bench(tmp_path)), "--config", str(config_path)]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    errors = [line for line in result.output.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and fault in errors[0] and str(fixture_path) in errors[0]


def test_module_entry_point_prints_usage():
    src = Path(__file__).resolve().parent.parent / "src"
    paths = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run(
        [sys.executable, "-m", "repolens.cli", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "Usage:" in done.stdout
    assert "evaluate" in done.stdout
