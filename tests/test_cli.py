"""Command-line behavior: exit codes, caching, output formats."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from repolens import cli, projdeps, retrieval
from repolens.cli import main
from repolens.prompting import SECTION_HEADERS
from repolens.pipeline import CompletionTask, complete_task
from repolens.retrieval import build_index, index_path, load_index
from tests.conftest import count_parses, read_store, write_repo, write_store
from tests.test_benchmark import TASK_ROWS, TRUTHS, write_bench
from tests.test_pipeline import CURSOR, MAIN_PY, PROCESSOR_PY, UTILS_PY, stored_facts, stored_paths


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


def stored_index(repo, window=20, stride=10):
    """The index the repository's store serves, which must need no parse."""
    store = load_index(index_path(repo))
    index = build_index(repo, window, stride, reuse=store)
    assert not store.changed
    return index


def test_index_rebuilds_after_in_place_edit(runner, repo):
    assert "indexed" in runner.invoke(main, ["index", "--repo", str(repo)]).output
    edited = PROCESSOR_PY.replace("row.strip()", "row.strip().lower()")
    (repo / "data_processor.py").write_text(edited)

    again = runner.invoke(main, ["index", "--repo", str(repo)])
    assert again.exit_code == 0, again.output
    assert "indexed" in again.output
    cached = stored_index(repo)
    assert cached == build_index(repo)
    assert any("lower" in s.tokens for s in cached.snippets)
    assert "up to date" in runner.invoke(main, ["index", "--repo", str(repo)]).output


def test_index_after_rename_windows_the_new_path_and_drops_the_old(runner, repo, monkeypatch):
    assert "indexed" in runner.invoke(main, ["index", "--repo", str(repo)]).output
    (repo / "lib" / "text_utils.py").rename(repo / "lib" / "path_utils.py")
    parses = count_parses(monkeypatch)
    again = runner.invoke(main, ["index", "--repo", str(repo)])
    assert again.exit_code == 0, again.output
    assert "indexed" in again.output
    monkeypatch.undo()
    assert parses == [("retrieval", "lib/path_utils.py")]
    assert sorted(read_store(index_path(repo))) == ["data_processor.py", "lib/path_utils.py", "main.py"]
    assert stored_index(repo) == build_index(repo)
    assert "up to date" in runner.invoke(main, ["index", "--repo", str(repo)]).output


def test_index_rebuilds_when_window_changes(runner, repo, tmp_path):
    assert "indexed" in runner.invoke(main, ["index", "--repo", str(repo)]).output
    config_path = tmp_path / "cfg.yaml"
    config_path.write_text("window: 5\nstride: 5\n", encoding="utf-8")
    again = runner.invoke(main, ["index", "--repo", str(repo), "--config", str(config_path)])
    assert "indexed" in again.output
    assert stored_index(repo, 5, 5) == build_index(repo, window=5, stride=5)
    assert {tuple(entry["windows"]["geometry"]) for entry in read_store(index_path(repo)).values()} == {(5, 5)}


def test_index_keeps_stored_facts_and_force_drops_them(runner, repo):
    assert "indexed" in runner.invoke(main, ["index", "--repo", str(repo)]).output
    assert stored_facts(repo) == {}
    projdeps.facts_of.cache_clear()
    assert runner.invoke(main, complete_args(repo, "--dry-run")).exit_code == 0
    facts = stored_facts(repo)
    assert sorted(facts) == ["data_processor.py", "main.py"]

    (repo / "lib" / "text_utils.py").write_text(UTILS_PY + "\nextra = 1\n")
    assert "indexed" in runner.invoke(main, ["index", "--repo", str(repo)]).output
    assert stored_facts(repo) == facts
    assert "indexed" in runner.invoke(main, ["index", "--repo", str(repo), "--force"]).output
    assert stored_facts(repo) == {}


@pytest.mark.parametrize("edit", [False, True], ids=["same-text", "edited"])
def test_index_drops_the_facts_of_a_renamed_file(runner, repo, edit):
    assert "indexed" in runner.invoke(main, ["index", "--repo", str(repo)]).output
    projdeps.facts_of.cache_clear()
    assert runner.invoke(main, complete_args(repo, "--dry-run")).exit_code == 0
    assert stored_paths(repo) == ["data_processor.py", "main.py"]

    (repo / "data_processor.py").rename(repo / "processor.py")
    if edit:
        (repo / "processor.py").write_text(PROCESSOR_PY + "\nextra = 1\n")
    again = runner.invoke(main, ["index", "--repo", str(repo)])
    assert again.exit_code == 0, again.output
    assert "indexed" in again.output
    assert stored_paths(repo) == ["main.py"]
    assert "data_processor.py" not in read_store(index_path(repo))
    assert "up to date" in runner.invoke(main, ["index", "--repo", str(repo)]).output


def test_complete_write_back_keeps_the_indexed_windows(runner, repo):
    def windows():
        return {path: entry["windows"] for path, entry in read_store(index_path(repo)).items()}

    assert "indexed" in runner.invoke(main, ["index", "--repo", str(repo)]).output
    indexed = windows()
    projdeps.facts_of.cache_clear()
    assert runner.invoke(main, complete_args(repo, "--dry-run")).exit_code == 0
    assert stored_paths(repo) == ["data_processor.py", "main.py"]
    assert windows() == indexed


def test_complete_writes_back_the_windows_of_an_edited_file(runner, repo, monkeypatch):
    assert "indexed" in runner.invoke(main, ["index", "--repo", str(repo)]).output
    (repo / "lib" / "text_utils.py").write_text(UTILS_PY + "\nextra = 1\n")
    parses = count_parses(monkeypatch)
    args = complete_args(repo, "--dry-run", "--explain", "--no-timing")
    first = runner.invoke(main, args)
    assert first.exit_code == 0, first.output
    # the edited file is parsed once for its windows, then the query for its paths
    retrieval_parses = [p for p in parses if p[0] == "retrieval"]
    assert retrieval_parses == [("retrieval", "lib/text_utils.py"), ("retrieval", "snippet.py")]
    parses.clear()
    second = runner.invoke(main, args)
    assert [p for p in parses if p[0] == "retrieval"] == [("retrieval", "snippet.py")]
    assert second.output == first.output
    assert "up to date" in runner.invoke(main, ["index", "--repo", str(repo)]).output


@pytest.mark.parametrize("fault", ["missing", "cut-short", "not-json", "not-object"])
def test_store_with_a_bad_second_line_is_ignored_and_rebuilt(runner, repo, fault):
    """A store in the version-6 layout, a window line and then a file-facts
    line, is ignored whatever its second line holds, and ``index`` replaces it."""
    assert "indexed" in runner.invoke(main, ["index", "--repo", str(repo)]).output
    projdeps.facts_of.cache_clear()
    assert runner.invoke(main, complete_args(repo, "--dry-run")).exit_code == 0
    first = json.dumps({"version": 6, "ast_paths": [], "windows": {}})
    files = json.dumps(stored_facts(repo))
    second = {"missing": "", "cut-short": files[: len(files) // 2], "not-json": "{not json", "not-object": "[]"}[fault]
    broken = first + ("\n" + second if second else "")
    index_path(repo).write_text(broken)
    assert load_index(index_path(repo)) is None

    projdeps.facts_of.cache_clear()
    assert runner.invoke(main, complete_args(repo, "--dry-run")).exit_code == 0
    assert index_path(repo).read_text() == broken
    assert "indexed" in runner.invoke(main, ["index", "--repo", str(repo)]).output
    assert stored_paths(repo) == []
    assert stored_index(repo) == build_index(repo)


def test_a_version_7_store_is_ignored_and_rebuilt(runner, tmp_path):
    """Version 7 stored each window's paths from a parse of the window alone,
    so ``complete`` and ``evaluate`` ignore such a store, writing nothing
    back to it, and ``index`` replaces it."""
    tasks = write_bench(tmp_path)
    repo = tmp_path / "bench"
    args = ["complete", "--repo", str(repo), "--file", "main.py", "--line", "14"]
    args += ["--dry-run", "--explain", "--no-timing"]
    evaluate = ["evaluate", "--tasks", str(tasks), "--format", "json", "--no-timing"]
    assert "indexed" in runner.invoke(main, ["index", "--repo", str(repo)]).output
    completed = runner.invoke(main, args).output
    explain = json.loads(completed.split("--- explain ---\n", 1)[1])
    assert any(entry["structure"] > 0 for entry in explain["exemplars"])
    evaluated = runner.invoke(main, evaluate).output

    # well-formed entries, but with paths no parse gives: served, they would
    # zero every structure score
    files = read_store(index_path(repo))
    for entry in files.values():
        entry["windows"]["ast_paths"] = [f"v7/{path}" for path in entry["windows"]["ast_paths"]]
    write_store(index_path(repo), files, version=7)
    v7 = index_path(repo).read_bytes()
    projdeps.facts_of.cache_clear()
    assert runner.invoke(main, args).output == completed
    assert runner.invoke(main, evaluate).output == evaluated
    assert index_path(repo).read_bytes() == v7

    assert "indexed" in runner.invoke(main, ["index", "--repo", str(repo)]).output
    assert json.loads(index_path(repo).read_text())["version"] == 8
    assert "v7/" not in index_path(repo).read_text()
    assert stored_index(repo) == build_index(repo)


def run_fresh(*runs: list[str]) -> tuple[list[int], set[str]]:
    """Run ``main`` on each argument list in one fresh interpreter; return how
    often parso generated a grammar after each run, and the modules loaded at
    the end."""
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import json, sys\n"
        "import parso\n"
        "real, loads = parso.load_grammar, []\n"
        "parso.load_grammar = lambda *a, **k: loads.append(1) or real(*a, **k)\n"
        "from repolens.cli import main\n"
        "counts = []\n"
        f"for args in {[list(args) for args in runs]!r}:\n"
        "    main(args, standalone_mode=False)\n"
        "    counts.append(len(loads))\n"
        "print(json.dumps([counts, sorted(sys.modules)]))\n"
    )
    paths = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    counts, modules = json.loads(done.stdout.splitlines()[-1])
    return counts, set(modules)


def test_index_and_dry_run_load_neither_http_nor_evaluation(repo):
    _, modules = run_fresh(["index", "--repo", str(repo)], complete_args(repo, "--dry-run"))
    unused = {
        "http.client", "urllib.request", "ssl", "email.parser", "concurrent.futures", "multiprocessing", "csv",
        "repolens.evaluation",
    }
    assert "repolens.pipeline" in modules
    assert not unused & modules


def test_index_of_the_corpus_cases_starts_no_process_pool(tmp_path):
    corpus = tmp_path / "corpus_cases"
    shutil.copytree(Path(__file__).resolve().parent / "corpus_cases", corpus)
    _, modules = run_fresh(["index", "--repo", str(corpus)])
    assert "repolens.retrieval" in modules
    assert not {"multiprocessing", "concurrent.futures.process"} & modules


def test_grammar_is_generated_on_the_first_parse(runner, repo):
    assert "indexed" in runner.invoke(main, ["index", "--repo", str(repo)]).output
    counts, _ = run_fresh(["index", "--repo", str(repo)], complete_args(repo, "--dry-run"))
    assert counts == [0, 1]


def test_deeply_nested_expression_indexes_and_completes(runner, tmp_path):
    # CPython compiles 2,000 nested ``not``s and parso parses them, so every
    # walk over the tree must keep its own stack
    deep = "def f(c):\n    return " + "not " * 2000 + "c\n"
    repo = write_repo(tmp_path / "deep", {"deep.py": deep, "main.py": "from deep import f\n\nflag = f(1)\nvalue = f(\n"})
    compile(deep, "deep.py", "exec")
    indexed = runner.invoke(main, ["index", "--repo", str(repo)])
    assert indexed.exit_code == 0, indexed.output
    completed = runner.invoke(main, ["complete", "--repo", str(repo), "--file", "main.py", "--line", "4", "--dry-run"])
    assert completed.exit_code == 0, completed.output
    assert "return not not" in completed.output


def test_syntax_error_after_a_deep_expression_fails_only_as_the_target(runner, tmp_path):
    # parso's error recovery recurses once per nesting level
    deep = "def f(c):\n    return " + "not " * 2000 + "c )\n"
    repo = write_repo(tmp_path / "deep", {"deep.py": deep, "main.py": "from deep import f\n\nflag = f(1)\nvalue = f(\n"})
    indexed = runner.invoke(main, ["index", "--repo", str(repo)])
    assert indexed.exit_code == 0, indexed.output
    assert stored_index(repo) == build_index(repo)

    args = ["complete", "--repo", str(repo), "--file", "main.py", "--line", "4", "--dry-run"]
    importer = runner.invoke(main, args)
    assert importer.exit_code == 0, importer.output
    result = complete_task(CompletionTask("t", repo, "main.py", 3))
    errors = [d for d in result.bundle.diagnostics if d.code == "resolution_error"]
    assert [d.context["path"] for d in errors] == ["deep.py"]

    target = runner.invoke(main, ["complete", "--repo", str(repo), "--file", "deep.py", "--line", "2", "--dry-run"])
    assert target.exit_code == 2
    assert target.output.startswith("error: ")


def test_index_exits_2_when_the_store_cannot_be_written(runner, repo, monkeypatch):
    def refuse(*args):
        raise PermissionError(13, "Read-only file system")

    monkeypatch.setattr(retrieval.os, "replace", refuse)
    result = runner.invoke(main, ["index", "--repo", str(repo)])
    assert result.exit_code == 2
    assert result.output.startswith("error: cannot write index")
    assert list((repo / ".repolens").iterdir()) == []


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
