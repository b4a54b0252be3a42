"""Command-line front door: index, complete, evaluate.

Exit codes: 0 on success, 1 when individual tasks failed during a run,
2 on usage or IO problems. Cursor lines are 1-based on this boundary and
everywhere inside task files; the analysis layers count from 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .config import PipelineConfig, load_config
from .errors import BackendError, ConfigError, EmptyBenchmarkError, RepoLensError
from .evaluation import format_csv, format_text, report_json, run_benchmark
from .gateway import generate
from .pipeline import ABLATION_VARIANTS, CompletionTask, TaskResult, complete_task
from .ranking import explain_graph
from .retrieval import build_index, index_path, load_index, save_index, window_cache


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _load_cfg(config_path: str | None) -> PipelineConfig:
    try:
        return load_config(config_path)
    except ConfigError as exc:
        _fail(str(exc))


def _dump_json(payload: object) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


@click.group()
def main() -> None:
    """Multi-granularity context extraction and code completion."""


@main.command("index")
@click.option("--repo", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--force", is_flag=True, help="Rebuild every file, ignoring the cached index.")
def cmd_index(repo: str, config_path: str | None, force: bool) -> None:
    """Build and persist the snippet index in ``<repo>/.repolens``, where
    ``complete`` and ``evaluate`` read it.

    The cache is keyed on window text, so only windows whose text is not
    in it are parsed again.
    """

    cfg = _load_cfg(config_path)
    root = Path(repo).resolve()
    snippets_path = index_path(root)
    out_dir = snippets_path.parent

    cached = None if force else load_index(snippets_path)
    index = build_index(root, cfg.window, cfg.stride, reuse=cached)
    if cached is not None and cached == window_cache(index):
        click.echo(f"index up to date at {out_dir}")
        return

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        save_index(index, snippets_path)
    except OSError as exc:
        _fail(f"cannot write index to {out_dir}: {exc}")
    click.echo(f"indexed {len(index.snippets)} snippets into {out_dir}")


def _explain_payload(result: TaskResult, no_timing: bool) -> dict:
    graph = None
    if result.graph is not None:
        graph = explain_graph(result.graph, result.ranked)
    timings = dict.fromkeys(result.timings_ms, 0.0) if no_timing else dict(result.timings_ms)
    return {
        "graph": graph,
        "exemplars": [
            {
                "id": entry.snippet.snippet_id,
                "semantic": entry.sem_score,
                "structure": entry.structure_score,
                "final": entry.final_score,
            }
            for entry in result.exemplars.entries
        ],
        "token_count": result.prompt.token_count,
        "truncations": [list(pair) for pair in result.prompt.truncations],
        "timings_ms": timings,
    }


@main.command("complete")
@click.option("--repo", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--file", "rel_file", required=True)
@click.option("--line", required=True, type=click.IntRange(min=1), help="1-based cursor line.")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--dry-run", is_flag=True, help="Render the prompt but skip generation.")
@click.option("--explain", is_flag=True, help="Emit graph, scores and timings as JSON.")
@click.option("--ablate", type=click.Choice(ABLATION_VARIANTS), default=None)
@click.option("--no-timing", is_flag=True, help="Zero timing fields for reproducible output.")
def cmd_complete(
    repo: str,
    rel_file: str,
    line: int,
    config_path: str | None,
    dry_run: bool,
    explain: bool,
    ablate: str | None,
    no_timing: bool,
) -> None:
    """Run the pipeline for one cursor position and print the prompt."""

    cfg = _load_cfg(config_path)
    task = CompletionTask(task_id="cli", repo=Path(repo).resolve(), file=rel_file, line=line - 1)
    try:
        result = complete_task(task, cfg, ablate=ablate)
    except (RepoLensError, OSError, ValueError) as exc:
        _fail(str(exc))

    click.echo(result.prompt.text)
    if explain:
        click.echo("--- explain ---")
        click.echo(_dump_json(_explain_payload(result, no_timing)))
    if dry_run:
        return
    try:
        outcome = generate(result.prompt, cfg, task_id=task.task_id)
    except ConfigError as exc:
        _fail(str(exc))
    except BackendError as exc:
        click.echo(f"generation failed: {exc}", err=True)
        sys.exit(1)
    click.echo(f"--- completion [{outcome.backend}] ---")
    click.echo(outcome.text)


@main.command("evaluate")
@click.option("--tasks", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write the JSON report here.")
@click.option("--format", "fmt", type=click.Choice(("text", "json", "csv")), default="text")
@click.option("--ablate", type=click.Choice(ABLATION_VARIANTS), default=None)
@click.option("--no-timing", is_flag=True, help="Zero timing fields for reproducible reports.")
def cmd_evaluate(
    tasks: str,
    config_path: str | None,
    out: str | None,
    fmt: str,
    ablate: str | None,
    no_timing: bool,
) -> None:
    """Score every task in a JSONL file and print a report."""

    cfg = _load_cfg(config_path)
    try:
        report = run_benchmark(tasks, cfg, ablate=ablate, no_timing=no_timing)
    except (EmptyBenchmarkError, ConfigError, OSError, ValueError) as exc:
        _fail(str(exc))

    if fmt == "json":
        click.echo(_dump_json(report_json(report)))
    elif fmt == "csv":
        click.echo(format_csv(report), nl=False)
    else:
        click.echo(format_text(report), nl=False)

    if out is not None:
        try:
            Path(out).write_text(_dump_json(report_json(report)) + "\n", encoding="utf-8")
        except OSError as exc:
            _fail(f"cannot write report to {out}: {exc}")

    if any(row.error for row in report.per_task):
        sys.exit(1)


if __name__ == "__main__":
    main()
