"""Scoring for generated completions and batch benchmark runs.

Four line-level metrics: exact match after light whitespace normalization,
Levenshtein edit similarity on the raw strings, identifier exact match, and
identifier F1. The benchmark runner drives the full pipeline over a JSONL
task file and aggregates per-task scores into a report.
"""

from __future__ import annotations

import csv
import json
import keyword
import re
import time
import tokenize
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from io import StringIO
from pathlib import Path

from .config import PipelineConfig
from .errors import BackendError, EmptyBenchmarkError, RepoLensError
from .gateway import generate, read_fixture_table
from .pipeline import CompletionTask, TaskResult, complete_task
from .projdeps import ModuleMap, build_module_map
from .retrieval import DenseScorer, SnippetIndex, Store, build_index, index_path, load_index

_WS_RUN = re.compile(r"[ \t]+")
_IDENT = re.compile(r"[A-Za-z_]\w*")
_TASK_FIELDS = {"task_id", "repo", "file", "line", "prefix_override", "ground_truth"}
_REQUIRED_FIELDS = _TASK_FIELDS - {"prefix_override"}


def _normalize(text: str) -> str:
    return _WS_RUN.sub(" ", text.strip())


def exact_match(candidate: str, reference: str) -> int:
    """1 iff the two strings are equal after stripping the ends and
    collapsing internal space/tab runs to a single space."""
    return int(_normalize(candidate) == _normalize(reference))


def _levenshtein(a: str, b: str) -> int:
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ch_a in enumerate(a, start=1):
        current = [i]
        for j, ch_b in enumerate(b, start=1):
            cost = 0 if ch_a == ch_b else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


def edit_similarity(candidate: str, reference: str) -> float:
    """1 - Levenshtein distance over the longer raw length; 1.0 when both
    strings are empty."""
    longest = max(len(candidate), len(reference))
    if longest == 0:
        return 1.0
    return 1.0 - _levenshtein(candidate, reference) / longest


def identifier_sequence(code: str) -> list[str]:
    """Identifiers in source order, keywords excluded.

    Runs the Python lexer so identifiers inside string literals and comments
    do not count; falls back to a plain regex scan when the lexer rejects
    the fragment (unterminated strings, unbalanced brackets).
    """
    try:
        return [
            tok.string
            for tok in tokenize.generate_tokens(StringIO(code).readline)
            if tok.type == tokenize.NAME and not keyword.iskeyword(tok.string)
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return [m.group() for m in _IDENT.finditer(code) if not keyword.iskeyword(m.group())]


def identifier_em(candidate: str, reference: str, *, ordered: bool = True) -> int:
    """1 iff both fragments use the same identifiers.

    Compares ordered sequences by default; ``ordered=False`` compares
    multisets instead.
    """
    left = identifier_sequence(candidate)
    right = identifier_sequence(reference)
    if not ordered:
        return int(Counter(left) == Counter(right))
    return int(left == right)


def identifier_f1(candidate: str, reference: str) -> float:
    """Harmonic mean of precision and recall over identifier multisets.

    Both fragments empty scores 1.0; exactly one empty scores 0.0.
    """
    left = identifier_sequence(candidate)
    right = identifier_sequence(reference)
    if not left and not right:
        return 1.0
    overlap = sum((Counter(left) & Counter(right)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(left)
    recall = overlap / len(right)
    return 2 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class TaskOutcome:
    """Scores for one task; metric values are percentages."""

    task_id: str
    em: float
    es: float
    id_em: float
    f1: float
    latency_ms: float
    generated: str = ""
    error: str = ""


@dataclass(frozen=True)
class MetricReport:
    """Batch aggregates (the mean of the per-task percentages) plus the
    per-task rows and a context-extraction vs. generation time split."""

    em: float
    es: float
    id_em: float
    f1: float
    per_task: list[TaskOutcome]
    pipeline_overhead_ms: float
    generation_ms: float


def load_tasks(tasks_path: Path | str) -> list[CompletionTask]:
    """Parse a JSONL task file; one object per line.

    Lines carry 1-based cursor lines and repository paths resolved against
    the task file's directory. Structural problems are hard errors; an
    empty file raises EmptyBenchmarkError.
    """

    path = Path(tasks_path)
    tasks: list[CompletionTask] = []
    seen: set[str] = set()
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except ValueError as exc:
            raise ValueError(f"tasks file line {lineno}: not valid JSON ({exc})") from exc
        if not isinstance(row, dict):
            raise ValueError(f"tasks file line {lineno}: expected an object")
        missing = _REQUIRED_FIELDS - row.keys()
        if missing:
            raise ValueError(f"tasks file line {lineno}: missing fields {sorted(missing)}")
        unknown = row.keys() - _TASK_FIELDS
        if unknown:
            raise ValueError(f"tasks file line {lineno}: unknown fields {sorted(unknown)}")
        if not isinstance(row["line"], int) or isinstance(row["line"], bool) or row["line"] < 1:
            raise ValueError(f"tasks file line {lineno}: line must be a 1-based integer")
        for key in ("repo", "file", "ground_truth", "prefix_override"):
            value = row.get(key)  # a null prefix_override counts as absent
            if not isinstance(value, str) and (value is not None or key != "prefix_override"):
                raise ValueError(f"tasks file line {lineno}: {key} must be a string")
        task_id = row["task_id"]
        if not isinstance(task_id, (str, int)) or isinstance(task_id, bool):
            raise ValueError(f"tasks file line {lineno}: task_id must be a string or an integer")
        task_id = str(task_id)
        if task_id in seen:
            raise ValueError(f"tasks file line {lineno}: duplicate task id {task_id!r}")
        seen.add(task_id)
        repo = Path(row["repo"])
        if not repo.is_absolute():
            repo = (path.parent / repo).resolve()
        tasks.append(
            CompletionTask(
                task_id=task_id,
                repo=repo,
                file=row["file"],
                line=row["line"] - 1,
                prefix_override=row.get("prefix_override"),
                ground_truth=row["ground_truth"],
            )
        )
    if not tasks:
        raise EmptyBenchmarkError(f"no tasks found in {path}")
    return tasks


def _zero_outcome(task_id: str, latency_ms: float, error: str) -> TaskOutcome:
    return TaskOutcome(task_id, 0.0, 0.0, 0.0, 0.0, latency_ms, error=error)


def run_benchmark(
    tasks_path: Path | str,
    cfg: PipelineConfig | None = None,
    *,
    ablate: str | None = None,
    fixture_table: dict[str, str] | None = None,
    no_timing: bool = False,
) -> MetricReport:
    """Full pipeline plus generation and scoring for every task.

    Context extraction runs sequentially (module maps and snippet indexes
    are shared per repository; the repository's ``.repolens/snippets.json``
    store is read once, for the windows and file facts it holds, and the
    windows and facts that had to be computed are written back to it once,
    a failed write being ignored; one dense scorer serves every task);
    generation fans out over a worker pool.
    A failing task scores zero and carries its error message; the rest of
    the batch still completes. A faulty ``fixture_path`` file fails the run
    with ``ConfigError`` before any task; rows come back sorted by task id.
    """

    cfg = cfg or PipelineConfig()
    tasks = load_tasks(tasks_path)
    if fixture_table is None and cfg.backend == "mock_fixture" and cfg.fixture_path:
        fixture_table = read_fixture_table(cfg.fixture_path)

    module_maps: dict[Path, ModuleMap] = {}
    stores: dict[Path, Store | None] = {}
    indexes: dict[Path, SnippetIndex] = {}
    results: dict[str, TaskResult] = {}
    failures: dict[str, str] = {}
    scorer = None
    if cfg.embedding_endpoint:
        scorer = DenseScorer(cfg.embedding_endpoint, timeout=cfg.timeout)
    for task in tasks:
        root = Path(task.repo)
        try:
            if root not in indexes:
                module_maps[root] = build_module_map(root)
                stores[root] = load_index(index_path(root))
                indexes[root] = build_index(root, cfg.window, cfg.stride, reuse=stores[root])
            results[task.task_id] = complete_task(
                task,
                cfg,
                ablate=ablate,
                index=indexes[root],
                module_map=module_maps[root],
                scorer=scorer,
                store=stores[root],
            )
        except (RepoLensError, OSError, ValueError) as exc:
            failures[task.task_id] = f"{type(exc).__name__}: {exc}"
    for store in stores.values():
        if store is not None:
            store.flush()

    def run_one(task: CompletionTask) -> tuple[str, str, float, str]:
        tick = time.perf_counter()
        try:
            prompt = results[task.task_id].prompt
            outcome = generate(prompt, cfg, task_id=task.task_id, fixture_table=fixture_table)
            return task.task_id, outcome.text, (time.perf_counter() - tick) * 1000, ""
        except BackendError as exc:
            elapsed = (time.perf_counter() - tick) * 1000
            return task.task_id, "", elapsed, f"{type(exc).__name__}: {exc}"

    pending = [task for task in tasks if task.task_id in results]
    with ThreadPoolExecutor(max_workers=cfg.max_concurrency) as pool:
        generations = {row[0]: row[1:] for row in pool.map(run_one, pending)}

    outcomes: list[TaskOutcome] = []
    pipeline_total = 0.0
    generation_total = 0.0
    for task in sorted(tasks, key=lambda t: t.task_id):
        if task.task_id in failures:
            outcomes.append(_zero_outcome(task.task_id, 0.0, failures[task.task_id]))
            continue
        text, gen_ms, gen_error = generations[task.task_id]
        pipeline_ms = results[task.task_id].timings_ms["total"]
        pipeline_total += pipeline_ms
        generation_total += gen_ms
        latency = pipeline_ms + gen_ms
        if gen_error:
            outcomes.append(_zero_outcome(task.task_id, latency, gen_error))
            continue
        truth = task.ground_truth or ""
        outcomes.append(
            TaskOutcome(
                task_id=task.task_id,
                em=100.0 * exact_match(text, truth),
                es=100.0 * edit_similarity(text, truth),
                id_em=100.0 * identifier_em(text, truth, ordered=not cfg.idem_unordered),
                f1=100.0 * identifier_f1(text, truth),
                latency_ms=latency,
                generated=text,
            )
        )

    if no_timing:
        outcomes = [replace(row, latency_ms=0.0) for row in outcomes]
        pipeline_total = 0.0
        generation_total = 0.0

    count = len(outcomes)
    return MetricReport(
        em=sum(row.em for row in outcomes) / count,
        es=sum(row.es for row in outcomes) / count,
        id_em=sum(row.id_em for row in outcomes) / count,
        f1=sum(row.f1 for row in outcomes) / count,
        per_task=outcomes,
        pipeline_overhead_ms=pipeline_total,
        generation_ms=generation_total,
    )


def report_json(report: MetricReport) -> dict:
    """JSON-ready dump: aggregates, timing split, per-task rows."""

    return {
        "aggregates": {
            "em": report.em,
            "es": report.es,
            "id_em": report.id_em,
            "f1": report.f1,
        },
        "task_count": len(report.per_task),
        "pipeline_overhead_ms": report.pipeline_overhead_ms,
        "generation_ms": report.generation_ms,
        "per_task": [
            {
                "task_id": row.task_id,
                "em": row.em,
                "es": row.es,
                "id_em": row.id_em,
                "f1": row.f1,
                "latency_ms": row.latency_ms,
                "generated": row.generated,
                "error": row.error,
            }
            for row in report.per_task
        ],
    }


def format_text(report: MetricReport) -> str:
    """Fixed-width summary table with one row per task and a mean row."""

    lines = [f"{'task_id':<12} {'em':>7} {'es':>7} {'id_em':>7} {'f1':>7} {'latency_ms':>11}"]
    for row in report.per_task:
        flag = f"  error: {row.error}" if row.error else ""
        lines.append(
            f"{row.task_id:<12} {row.em:>7.2f} {row.es:>7.2f} {row.id_em:>7.2f}"
            f" {row.f1:>7.2f} {row.latency_ms:>11.1f}{flag}"
        )
    lines.append(
        f"{'mean':<12} {report.em:>7.2f} {report.es:>7.2f} {report.id_em:>7.2f}"
        f" {report.f1:>7.2f}"
    )
    lines.append(
        f"tasks: {len(report.per_task)}"
        f"  pipeline: {report.pipeline_overhead_ms:.1f} ms"
        f"  generation: {report.generation_ms:.1f} ms"
    )
    return "\n".join(lines) + "\n"


def format_csv(report: MetricReport) -> str:
    """Per-task rows as CSV, aggregates omitted."""

    buffer = StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["task_id", "em", "es", "id_em", "f1", "latency_ms", "error"])
    for row in report.per_task:
        writer.writerow(
            [row.task_id, row.em, row.es, row.id_em, row.f1, row.latency_ms, row.error]
        )
    return buffer.getvalue()
