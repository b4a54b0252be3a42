"""One-task orchestration across analysis, ranking, retrieval and prompting.

``extract_context`` gathers the raw multi-granularity findings around a
cursor; ``complete_task`` turns them into a rendered prompt, optionally
under one of the ablation variants that switch whole stages off.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from .config import PipelineConfig
from .errors import ConfigError, Diagnostic
from .filedeps import FileDependency, explicit_deps, potential_deps
from .funcflow import LocalSlice, build_cfg, local_slice, render_cfg
from .projdeps import (
    CrossModuleDependency,
    ModuleMap,
    build_module_map,
    cross_module_deps,
)
from .prompting import PromptDocument, render
from .ranking import (
    RankedContext,
    SemanticGraph,
    build_graph,
    personalized_pagerank,
    select_topk,
)
from .retrieval import (
    ExemplarSet,
    SnippetIndex,
    ast_paths_of,
    build_index,
    index_path,
    load_index,
    rerank,
    semantic_candidates,
)
from .syntax import SourceFile, definitions_before, load_source

ABLATION_VARIANTS = ("no-cc", "no-sm", "func-only", "file-only", "proj-only", "all-raw")


@dataclass(frozen=True)
class CompletionTask:
    """One work item: complete the line at ``line`` (0-based) of ``file``
    inside the repository at ``repo``.

    ``prefix_override`` replaces the unfinished line text read from the
    file; ``ground_truth`` is the reference completion for scoring.
    """

    task_id: str
    repo: Path | str
    file: str
    line: int
    prefix_override: str | None = None
    ground_truth: str | None = None


@dataclass
class ContextBundle:
    """Raw multi-granularity findings around one cursor position."""

    file: SourceFile
    line: int
    slice_: LocalSlice
    cfg_text: str
    file_deps: list[FileDependency]
    project_deps: list[CrossModuleDependency]
    diagnostics: list[Diagnostic] = field(default_factory=list)


@dataclass
class TaskResult:
    """Everything one pipeline pass produced, plus per-stage timings."""

    task: CompletionTask
    bundle: ContextBundle
    graph: SemanticGraph | None
    ranked: RankedContext
    exemplars: ExemplarSet
    prompt: PromptDocument
    target_code: str
    timings_ms: dict[str, float]


def extract_context(
    repo_root: Path | str,
    rel_file: str,
    line: int,
    cfg: PipelineConfig | None = None,
    *,
    module_map: ModuleMap | None = None,
) -> ContextBundle:
    """Run the three static-analysis levels for one cursor position.

    Every file is read through the facts of ``module_map`` (a new map, with
    no store, when none is passed), so a caller that holds the map parses an
    unchanged file once. The diagnostics start with the map's own."""

    cfg = cfg or PipelineConfig()
    if module_map is None:
        module_map = build_module_map(repo_root)
    diagnostics = list(module_map.diagnostics)
    file = load_source(repo_root, rel_file)
    facts = module_map.facts(file.path, file.text)
    slice_ = local_slice(facts, line)
    uses = set(slice_.owner.refs.used) if slice_.owner is not None else set()
    defs = definitions_before(facts, line)
    file_deps = explicit_deps(defs, uses, slice_.owner, body_preview_lines=cfg.body_preview_lines)
    file_deps += potential_deps(defs, uses, body_preview_lines=cfg.body_preview_lines)
    project_deps = cross_module_deps(facts.imports, uses, module_map, diagnostics)
    return ContextBundle(
        file=file,
        line=line,
        slice_=slice_,
        cfg_text=render_cfg(build_cfg(slice_)),
        file_deps=file_deps,
        project_deps=project_deps,
        diagnostics=diagnostics,
    )


def _select_nodes(
    graph: SemanticGraph | None,
    cfg: PipelineConfig,
    ablate: str | None,
) -> RankedContext:
    empty = RankedContext(scores={}, file_topk=[], project_topk=[])
    if ablate in (None, "no-sm"):
        ppr = personalized_pagerank(graph, cfg.alpha, cfg.tol, cfg.max_iter)
        return select_topk(graph, ppr.scores, cfg.top_k)
    if ablate in ("file-only", "all-raw", "proj-only"):
        file_nodes = [n for n in graph.nodes if n.level == "file"]
        project_nodes = [n for n in graph.nodes if n.level == "project"]
        return replace(
            empty,
            file_topk=file_nodes if ablate != "proj-only" else [],
            project_topk=project_nodes if ablate != "file-only" else [],
        )
    return empty


def complete_task(
    task: CompletionTask,
    cfg: PipelineConfig | None = None,
    *,
    ablate: str | None = None,
    index: SnippetIndex | None = None,
    module_map: ModuleMap | None = None,
) -> TaskResult:
    """Build the prompt for one task; generation is the caller's business.

    A caller that completes many tasks holds one ``module_map`` and one
    ``index`` and passes both to every task. Without an index, the task
    builds its map over the repository's store
    (``<repo>/.repolens/snippets.json``) unless a map is passed, indexes
    every file from the map's store, and writes back what it had to
    compute, a failed write being ignored. Either way retrieval skips the
    target file's windows, and the index's read faults are reported, the
    target's left out.
    """

    cfg = cfg or PipelineConfig()
    if ablate is not None and ablate not in ABLATION_VARIANTS:
        raise ConfigError(f"unknown ablation variant {ablate!r}; pick one of {ABLATION_VARIANTS}")

    started = time.perf_counter()
    if module_map is None:
        store = load_index(index_path(task.repo)) if index is None else None
        module_map = build_module_map(task.repo, store=store)
    bundle = extract_context(task.repo, task.file, task.line, cfg, module_map=module_map)
    context_ms = (time.perf_counter() - started) * 1000

    if task.prefix_override is not None:
        partial = task.prefix_override
    elif task.line < bundle.file.line_count:
        partial = bundle.file.line_text(task.line)
    else:
        partial = ""
    target_code = bundle.slice_.code + partial

    tick = time.perf_counter()
    graph = None
    if ablate != "no-cc":
        graph = build_graph(bundle, body_preview_lines=cfg.body_preview_lines)
    ranked = _select_nodes(graph, cfg, ablate)
    cfg_text = bundle.cfg_text if ablate in (None, "no-sm", "func-only", "all-raw") else ""
    rank_ms = (time.perf_counter() - tick) * 1000

    tick = time.perf_counter()
    if index is None:
        index = build_index(task.repo, cfg.window, cfg.stride, reuse=module_map.store)
        if module_map.store is not None:
            module_map.store.flush()
    bundle.diagnostics.extend(d for d in index.diagnostics if d.context["path"] != task.file)
    pool = semantic_candidates(
        index,
        target_code,
        cfg.pool_size,
        bundle.diagnostics,
        task.file,
        endpoint=cfg.embedding_endpoint,
        timeout=cfg.timeout,
    )
    weights = (1.0, 0.0) if ablate == "no-sm" else cfg.weights
    exemplars = rerank(pool, ast_paths_of(target_code), weights, cfg.k_final)
    retrieve_ms = (time.perf_counter() - tick) * 1000

    tick = time.perf_counter()
    prompt = render(
        ranked, cfg_text, exemplars, target_code, cfg.token_budget, target_path=task.file
    )
    render_ms = (time.perf_counter() - tick) * 1000

    timings = {
        "context": context_ms,
        "rank": rank_ms,
        "retrieve": retrieve_ms,
        "render": render_ms,
        "total": context_ms + rank_ms + retrieve_ms + render_ms,
    }
    return TaskResult(
        task=task,
        bundle=bundle,
        graph=graph,
        ranked=ranked,
        exemplars=exemplars,
        prompt=prompt,
        target_code=target_code,
        timings_ms=timings,
    )
