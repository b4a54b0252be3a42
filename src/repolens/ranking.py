"""Heterogeneous semantic graph over extracted context plus ranking.

The target function becomes the central node with a center_link edge to
every other node, so random-walk restarts concentrate on it and importance
decays with structural distance. Semantic edges (invocation, usage,
inheritance) are added only where one node's code actually references
another node's label; the reference sets come with each dependency's
record, read off its already-parsed definition, so nothing is re-parsed
here. Scores come from personalized pagerank by power
iteration; dangling mass teleports back to the central node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .config import PipelineConfig
from .filedeps import code_preview
from .syntax import References, SourceFile

if TYPE_CHECKING:
    from .pipeline import ContextBundle

_KIND_PRIORITY = {
    "cross_file_entity": 0,
    "import": 1,
    "function": 2,
    "type_def": 3,
    "call": 4,
    "symbol": 5,
}


@dataclass(frozen=True, slots=True)
class GraphNode:
    node_id: int
    label: str
    node_kind: str  # function | symbol | type_def | call | import | cross_file_entity
    level: str  # central | file | project
    code: str
    preview: str
    origin_ref: tuple[int, int]
    payload: object


@dataclass(frozen=True, slots=True)
class GraphEdge:
    src: int
    dst: int
    relation: str


@dataclass(frozen=True, slots=True)
class SemanticGraph:
    nodes: list[GraphNode]
    edges: list[GraphEdge]
    central_id: int


@dataclass(frozen=True, slots=True)
class PprResult:
    scores: dict[int, float]
    converged: bool
    iterations: int


@dataclass(frozen=True, slots=True)
class RankedContext:
    scores: dict[int, float]
    file_topk: list[GraphNode]
    project_topk: list[GraphNode]


def _file_node_kind(dep) -> str:
    sym_kind = dep.symbol.sym_kind
    if sym_kind == "function":
        return "call" if dep.dep_kind == "explicit" else "function"
    if sym_kind == "class":
        return "type_def"
    return "symbol"


def _project_preview(dep, file: SourceFile, body_lines: int) -> str:
    if dep.resolved is None:
        return file.span_text(dep.import_rec.import_span)
    if dep.resolved.sym_kind == "variable":
        return dep.resolved.code
    return code_preview(dep.resolved.code, body_lines)


def build_graph(
    bundle: "ContextBundle", *, body_preview_lines: int = PipelineConfig.body_preview_lines
) -> SemanticGraph:
    """One node per dependency record around a single central node."""

    owner = bundle.slice_.owner
    # what each non-central node's code references; the central node never links out
    references: list[References] = []
    nodes = [
        GraphNode(
            node_id=0,
            label=owner.name if owner is not None else "<script>",
            node_kind="function",
            level="central",
            code=bundle.slice_.code,
            preview="",
            origin_ref=(bundle.slice_.span.start_line, bundle.slice_.span.start_col),
            payload=owner,
        )
    ]
    for dep in bundle.file_deps:
        span = dep.symbol.def_span
        nodes.append(
            GraphNode(
                node_id=len(nodes),
                label=dep.symbol.name,
                node_kind=_file_node_kind(dep),
                level="file",
                code=dep.symbol.code,
                preview=dep.preview,
                origin_ref=(span.start_line, span.start_col),
                payload=dep,
            )
        )
        references.append(dep.symbol.refs)
    for dep in bundle.project_deps:
        span = dep.import_rec.import_span
        nodes.append(
            GraphNode(
                node_id=len(nodes),
                label=dep.symbol if dep.alias == "*" else dep.alias,
                node_kind="cross_file_entity" if dep.origin == "cross_file" else "import",
                level="project",
                code=dep.resolved.code if dep.resolved is not None else "",
                preview=_project_preview(dep, bundle.file, body_preview_lines),
                origin_ref=(span.start_line, span.start_col),
                payload=dep,
            )
        )
        references.append(dep.resolved.refs if dep.resolved is not None else References())

    edges = [GraphEdge(src=0, dst=n.node_id, relation="center_link") for n in nodes[1:]]
    for node, refs in zip(nodes[1:], references):
        for other in nodes:
            if other.node_id == node.node_id:
                continue
            if other.label in refs.bases:
                relation = "inheritance"
            elif other.label in refs.called:
                relation = "invocation"
            elif other.label in refs.used:
                relation = "usage"
            else:
                continue
            edges.append(GraphEdge(src=node.node_id, dst=other.node_id, relation=relation))
    return SemanticGraph(nodes=nodes, edges=edges, central_id=0)


def personalized_pagerank(
    graph: SemanticGraph,
    alpha: float = PipelineConfig.alpha,
    tol: float = PipelineConfig.tol,
    max_iter: int = PipelineConfig.max_iter,
) -> PprResult:
    """Power iteration on Score(v) = a*sum_in Score(u)/deg(u) + (1-a)*p(v)
    with all restart mass on the central node and dangling mass routed to
    the personalization vector."""

    ids = [n.node_id for n in graph.nodes]
    index = {nid: i for i, nid in enumerate(ids)}
    n = len(ids)
    out_counts = [0] * n
    targets: list[list[int]] = [[] for _ in range(n)]
    for edge in graph.edges:
        src = index[edge.src]
        out_counts[src] += 1
        targets[src].append(index[edge.dst])

    personalization = [0.0] * n
    personalization[index[graph.central_id]] = 1.0
    scores = personalization[:]

    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        incoming = [0.0] * n
        dangling_mass = 0.0
        for i in range(n):
            if out_counts[i] == 0:
                dangling_mass += scores[i]
                continue
            share = scores[i] / out_counts[i]
            for j in targets[i]:
                incoming[j] += share
        fresh = [
            alpha * (incoming[i] + dangling_mass * personalization[i])
            + (1 - alpha) * personalization[i]
            for i in range(n)
        ]
        delta = sum(abs(a - b) for a, b in zip(fresh, scores))
        scores = fresh
        if delta < tol:
            converged = True
            break
    return PprResult(
        scores={ids[i]: scores[i] for i in range(n)},
        converged=converged,
        iterations=iterations,
    )


def _rank_key(scores: dict[int, float]):
    def key(node: GraphNode):
        return (-scores[node.node_id], _KIND_PRIORITY[node.node_kind], node.origin_ref, node.node_id)

    return key


def select_topk(
    graph: SemanticGraph,
    scores: dict[int, float],
    k: int = PipelineConfig.top_k,
) -> RankedContext:
    """Rank file-level and project-level nodes separately, keep k of each.

    Ties break by node kind (cross-file entities first, plain symbols
    last), then source position, then node id.
    """

    key = _rank_key(scores)
    file_nodes = sorted((n for n in graph.nodes if n.level == "file"), key=key)
    project_nodes = sorted((n for n in graph.nodes if n.level == "project"), key=key)
    return RankedContext(
        scores=scores,
        file_topk=file_nodes[:k],
        project_topk=project_nodes[:k],
    )


def explain_graph(graph: SemanticGraph, ranked: RankedContext) -> dict:
    """JSON-ready dump of nodes, edges, scores and per-level selections."""

    return {
        "nodes": [
            {
                "id": n.node_id,
                "label": n.label,
                "kind": n.node_kind,
                "level": n.level,
                "preview": n.preview,
            }
            for n in graph.nodes
        ],
        "edges": [{"src": e.src, "dst": e.dst, "relation": e.relation} for e in graph.edges],
        "scores": {str(node_id): score for node_id, score in ranked.scores.items()},
        "selections": {
            "file": [n.node_id for n in ranked.file_topk],
            "project": [n.node_id for n in ranked.project_topk],
        },
    }
