"""Semantic graph construction, personalized pagerank, top-k selection.

The pagerank oracle solves the score equation directly as a dense linear
system with numpy: (I - a*P^T - a*p*d^T) s = (1-a)*p, where P is the
row-stochastic transition matrix, d the dangling indicator and p the
personalization vector. Power iteration must agree with the solve.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repolens import projdeps
from repolens.config import PipelineConfig
from repolens.filedeps import explicit_deps, potential_deps
from repolens.funcflow import local_slice
from repolens.projdeps import build_module_map, cross_module_deps
from repolens.ranking import (
    GraphEdge,
    GraphNode,
    SemanticGraph,
    build_graph,
    explain_graph,
    personalized_pagerank,
    select_topk,
)
from repolens.syntax import (
    SourceFile,
    Span,
    SymbolRecord,
    children,
    definitions_before,
    file_facts,
    kind_of,
    load_source,
    parse,
    reference_sets,
    span,
)
from tests.conftest import walk, write_repo

TESTS_DIR = Path(__file__).parent
SOURCE_DIRS = (
    TESTS_DIR / "corpus_cases",
    TESTS_DIR / "dep_cases",
    TESTS_DIR.parent / "src" / "repolens",
)


def dense_ppr(n: int, edges: list[tuple[int, int]], central: int, alpha: float) -> np.ndarray:
    out = np.zeros(n)
    for u, _ in edges:
        out[u] += 1.0
    P = np.zeros((n, n))
    for u, v in edges:
        P[u, v] += 1.0 / out[u]
    dangling = (out == 0).astype(float)
    p = np.zeros(n)
    p[central] = 1.0
    A = np.eye(n) - alpha * P.T - alpha * np.outer(p, dangling)
    return np.linalg.solve(A, (1 - alpha) * p)


def plain_graph(n: int, edges: list[tuple[int, int]], central: int = 0) -> SemanticGraph:
    nodes = [
        GraphNode(
            node_id=i,
            label=f"n{i}",
            node_kind="symbol",
            level="central" if i == central else "file",
            code="",
            preview="",
            origin_ref=(i, 0),
            payload=None,
        )
        for i in range(n)
    ]
    graph_edges = [GraphEdge(src=u, dst=v, relation="usage") for u, v in edges]
    return SemanticGraph(nodes=nodes, edges=graph_edges, central_id=central)


def random_graphs(count: int, seed: int = 2024):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 20)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        edges = rng.sample(pairs, rng.randint(0, len(pairs)))
        yield n, edges


def test_single_node_graph_scores_one():
    result = personalized_pagerank(plain_graph(1, []))
    assert result.scores == {0: pytest.approx(1.0, abs=1e-12)}
    assert result.converged


def test_star_graph_matches_closed_form_and_dense_solve():
    graph = plain_graph(3, [(0, 1), (0, 2)])
    # the geometric tail after stopping is ~tol*a/(1-a), so checking the
    # fixed point at 1e-9 needs a tighter stop than the 1e-8 default (and
    # enough iterations to actually get there)
    result = personalized_pagerank(graph, tol=1e-12, max_iter=300)
    assert result.scores[0] == pytest.approx(0.5405405405405405, abs=1e-9)
    assert result.scores[1] == pytest.approx(0.22972972972972971, abs=1e-9)
    assert result.scores[2] == pytest.approx(0.22972972972972971, abs=1e-9)
    oracle = dense_ppr(3, [(0, 1), (0, 2)], 0, PipelineConfig.alpha)
    for i in range(3):
        assert result.scores[i] == pytest.approx(oracle[i], abs=1e-9)


def test_power_iteration_matches_dense_solve_on_random_graphs():
    for n, edges in random_graphs(25):
        result = personalized_pagerank(plain_graph(n, edges))
        oracle = dense_ppr(n, edges, 0, PipelineConfig.alpha)
        worst = max(abs(result.scores[i] - oracle[i]) for i in range(n))
        assert worst < 1e-6, (n, len(edges), worst)
        assert sum(result.scores.values()) == pytest.approx(1.0, abs=1e-9)


def test_scores_satisfy_fixed_point_residual():
    for n, edges in random_graphs(8, seed=7):
        graph = plain_graph(n, edges)
        result = personalized_pagerank(graph, tol=1e-10, max_iter=500)
        assert result.converged
        out = [0] * n
        for u, v in edges:
            out[u] += 1
        dangling_mass = sum(result.scores[i] for i in range(n) if out[i] == 0)
        for i in range(n):
            inbound = sum(result.scores[u] / out[u] for u, v in edges if v == i)
            personal = 1.0 if i == 0 else 0.0
            alpha = PipelineConfig.alpha
            expected = alpha * (inbound + dangling_mass * personal) + (1 - alpha) * personal
            assert abs(result.scores[i] - expected) < 1e-9


def test_non_convergence_is_flagged_not_fatal():
    graph = plain_graph(6, [(u, v) for u in range(6) for v in range(6) if u != v])
    result = personalized_pagerank(graph, tol=1e-15, max_iter=3)
    assert not result.converged
    assert result.iterations == 3
    assert sum(result.scores.values()) == pytest.approx(1.0, abs=1e-9)


def _dep_bundle(tmp_path, main_text: str, extra_files: dict[str, str] | None = None, cursor: int | None = None):
    files = {"main.py": main_text}
    files.update(extra_files or {})
    write_repo(tmp_path, files)
    file = load_source(tmp_path, "main.py")
    facts = file_facts(parse(file))
    line = cursor if cursor is not None else file.line_count - 1
    slice_ = local_slice(facts, line)
    owner = slice_.owner
    defs = definitions_before(facts, line)
    uses = set(owner.refs.used) if owner is not None else set()
    file_deps = explicit_deps(defs, uses, owner) + potential_deps(defs, uses)
    project_deps = cross_module_deps(facts.imports, uses, build_module_map(tmp_path))
    return SimpleNamespace(
        file=file, line=line, slice_=slice_, file_deps=file_deps, project_deps=project_deps
    )


GRAPH_MAIN = """\
import os
from data_processor import process_data

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

GRAPH_PROCESSOR = """\
def process_data(row):
    return row.strip()
"""


def graph_bundle(tmp_path):
    return _dep_bundle(
        tmp_path, GRAPH_MAIN, {"data_processor.py": GRAPH_PROCESSOR}, cursor=24
    )


def test_build_graph_counts_nodes_and_center_links(tmp_path):
    bundle = graph_bundle(tmp_path)
    graph = build_graph(bundle)
    assert len(graph.nodes) == 1 + len(bundle.file_deps) + len(bundle.project_deps)
    centers = [e for e in graph.edges if e.relation == "center_link"]
    assert len(centers) == len(graph.nodes) - 1
    assert {e.src for e in centers} == {graph.central_id}
    assert {e.dst for e in centers} == {n.node_id for n in graph.nodes if n.node_id != graph.central_id}
    central = next(n for n in graph.nodes if n.node_id == graph.central_id)
    assert central.level == "central"
    assert central.label == "target"


def test_build_graph_empty_bundle_is_single_node():
    file = SourceFile.from_text("m.py", "x = 1\n")
    bundle = SimpleNamespace(
        file=file, line=1, slice_=local_slice(file_facts(parse(file)), 1), file_deps=[], project_deps=[]
    )
    graph = build_graph(bundle)
    assert len(graph.nodes) == 1
    assert graph.edges == []


def test_build_graph_semantic_edges_from_reference_scan(tmp_path):
    bundle = graph_bundle(tmp_path)
    graph = build_graph(bundle)
    by_label = {n.label: n for n in graph.nodes if n.level != "central"}
    semantic = {(e.src, e.dst): e.relation for e in graph.edges if e.relation != "center_link"}

    # combine's body calls scale
    assert semantic[(by_label["combine"].node_id, by_label["scale"].node_id)] == "invocation"
    # FancyWidget inherits Widget
    assert semantic[(by_label["FancyWidget"].node_id, by_label["Widget"].node_id)] == "inheritance"
    # every semantic edge corresponds to an actual reference in the source code
    labels = {n.node_id: n.label for n in graph.nodes}
    for (src, dst), relation in semantic.items():
        src_node = next(n for n in graph.nodes if n.node_id == src)
        assert labels[dst] in src_node.code, (labels[src], labels[dst], relation)


def test_build_graph_node_kinds(tmp_path):
    bundle = graph_bundle(tmp_path)
    graph = build_graph(bundle)
    kinds = {n.label: n.node_kind for n in graph.nodes}
    assert kinds["os"] == "import"
    assert kinds["process_data"] == "cross_file_entity"
    assert kinds["Widget"] == "type_def"
    assert kinds["BASE_DIR"] == "symbol"
    # invoked function dep reads as a call site, unused one stays a function
    assert kinds["combine"] == "call"
    assert kinds["scale"] == "function"
    levels = {n.label: n.level for n in graph.nodes if n.level != "central"}
    assert levels["os"] == "project"
    assert levels["combine"] == "file"


def test_central_score_is_strict_maximum(tmp_path):
    bundle = graph_bundle(tmp_path)
    graph = build_graph(bundle)
    result = personalized_pagerank(graph)
    central_score = result.scores[graph.central_id]
    for node in graph.nodes:
        if node.node_id != graph.central_id:
            assert central_score > result.scores[node.node_id]


def test_adding_center_only_node_never_raises_other_scores(tmp_path):
    bundle = graph_bundle(tmp_path)
    graph = build_graph(bundle)
    before = personalized_pagerank(graph).scores

    new_id = max(n.node_id for n in graph.nodes) + 1
    extra = GraphNode(
        node_id=new_id,
        label="late_arrival",
        node_kind="symbol",
        level="file",
        code="",
        preview="late_arrival = 1",
        origin_ref=(999, 0),
        payload=None,
    )
    bigger = SemanticGraph(
        nodes=graph.nodes + [extra],
        edges=graph.edges + [GraphEdge(src=graph.central_id, dst=new_id, relation="center_link")],
        central_id=graph.central_id,
    )
    after = personalized_pagerank(bigger).scores
    for node in graph.nodes:
        if node.node_id != graph.central_id:
            assert after[node.node_id] <= before[node.node_id] + 1e-12


def test_select_topk_keeps_everything_when_under_k(tmp_path):
    bundle = graph_bundle(tmp_path)
    graph = build_graph(bundle)
    result = personalized_pagerank(graph)
    ranked = select_topk(graph, result.scores, k=5)
    assert len(ranked.file_topk) == min(5, len(bundle.file_deps))
    assert len(ranked.project_topk) == min(5, len(bundle.project_deps))
    assert all(n.level == "file" for n in ranked.file_topk)
    assert all(n.level == "project" for n in ranked.project_topk)
    file_scores = [result.scores[n.node_id] for n in ranked.file_topk]
    assert file_scores == sorted(file_scores, reverse=True)


def test_select_topk_takes_k_highest():
    nodes = [
        GraphNode(0, "f", "function", "central", "", "", (0, 0), None)
    ] + [
        GraphNode(i, f"p{i}", "import", "project", "", "", (i, 0), None) for i in range(1, 9)
    ]
    graph = SemanticGraph(nodes=nodes, edges=[], central_id=0)
    scores = {0: 0.5} | {i: 0.05 * i for i in range(1, 9)}
    ranked = select_topk(graph, scores, k=3)
    assert [n.node_id for n in ranked.project_topk] == [8, 7, 6]
    assert ranked.file_topk == []
    assert len(ranked.file_topk) <= 3


def test_select_topk_tie_breaks():
    nodes = [
        GraphNode(0, "f", "function", "central", "", "", (0, 0), None),
        GraphNode(1, "sym_late", "symbol", "file", "", "", (30, 0), None),
        GraphNode(2, "sym_early", "symbol", "file", "", "", (10, 0), None),
        GraphNode(3, "ext", "import", "project", "", "", (5, 0), None),
        GraphNode(4, "ent", "cross_file_entity", "project", "", "", (9, 0), None),
    ]
    graph = SemanticGraph(nodes=nodes, edges=[], central_id=0)
    scores = {0: 0.6, 1: 0.1, 2: 0.1, 3: 0.1, 4: 0.1}
    ranked = select_topk(graph, scores, k=5)
    # equal scores: earlier definition first
    assert [n.label for n in ranked.file_topk] == ["sym_early", "sym_late"]
    # equal scores: cross-file entity outranks plain import despite later span
    assert [n.label for n in ranked.project_topk] == ["ent", "ext"]


def test_select_topk_invariant_under_score_scaling(tmp_path):
    bundle = graph_bundle(tmp_path)
    graph = build_graph(bundle)
    scores = personalized_pagerank(graph).scores
    scaled = {k: v * 37.5 for k, v in scores.items()}
    a = select_topk(graph, scores, k=3)
    b = select_topk(graph, scaled, k=3)
    assert [n.node_id for n in a.file_topk] == [n.node_id for n in b.file_topk]
    assert [n.node_id for n in a.project_topk] == [n.node_id for n in b.project_topk]


def test_explain_graph_is_json_ready(tmp_path):
    bundle = graph_bundle(tmp_path)
    graph = build_graph(bundle)
    result = personalized_pagerank(graph)
    ranked = select_topk(graph, result.scores)
    doc = explain_graph(graph, ranked)
    parsed = json.loads(json.dumps(doc))
    assert set(parsed) == {"nodes", "edges", "scores", "selections"}
    assert len(parsed["nodes"]) == len(graph.nodes)
    assert parsed["selections"]["file"] == [n.node_id for n in ranked.file_topk]


def _oracle_base_names(class_node) -> set[str]:
    kids = children(class_node)
    open_idx = close_idx = None
    for i, child in enumerate(kids):
        if kind_of(child) == "operator" and child.value == "(":
            open_idx = i
        elif kind_of(child) == "operator" and child.value == ")":
            close_idx = i
            break
    if open_idx is None or close_idx is None:
        return set()
    names: set[str] = set()
    for child in kids[open_idx + 1 : close_idx]:
        names |= set(reference_sets(child).used)
    return names


def _oracle_reference_sets(code: str) -> tuple[set[str], set[str], set[str]]:
    """Oracle: how ``build_graph`` once found a node's references, by
    parsing the node's code string on its own."""
    if not code.strip():
        return set(), set(), set()
    tree = parse(SourceFile.from_text("node.py", code))
    used = set(reference_sets(tree.root).used)
    called: set[str] = set()
    bases: set[str] = set()
    for node in walk(tree.root):
        if kind_of(node) == "classdef":
            bases |= _oracle_base_names(node)
            continue
        kids = children(node)
        if kind_of(node) not in ("atom_expr", "power") or len(kids) < 2:
            continue
        head, trailer = kids[0], kids[1]
        if (
            kind_of(head) == "name"
            and not head.is_definition()
            and kind_of(trailer) == "trailer"
            and children(trailer)
            and children(trailer)[0].value == "("
        ):
            called.add(head.value or "")
    return used, called, bases


def _as_sets(refs) -> tuple[set[str], set[str], set[str]]:
    return set(refs.used), set(refs.called), set(refs.bases)


def test_node_reference_sets_match_reparse_oracle():
    """Every module-level definition (shadowed ones too) and every module
    root: the sets read off the parsed node, and the file facts that both
    file-level and project-level nodes read, equal the sets from re-parsing
    the code alone."""
    checked = 0
    for directory in SOURCE_DIRS:
        paths = sorted(directory.glob("*.py"))
        assert paths, directory
        for path in paths:
            text = path.read_text(encoding="utf-8")
            tree = parse(SourceFile.from_text(path.name, text))
            where = path.name
            for stmt in children(tree.root):
                inner = children(stmt) if kind_of(stmt) == "decorated" else (stmt,)
                for node in inner:
                    if kind_of(node) in ("funcdef", "classdef", "expr_stmt"):
                        code = tree.file.span_text(span(node))
                        assert _as_sets(reference_sets(node)) == _oracle_reference_sets(code), (where, code)
                        checked += 1
            facts = projdeps.facts_of(path.name, text)
            assert _as_sets(facts.refs) == _oracle_reference_sets(text), where
            for record in facts.definitions:
                assert _as_sets(record.refs) == _oracle_reference_sets(record.code), (where, record.name)
            checked += 1
    assert checked > 200


def test_default_stopping_rule_converges_on_every_random_graph():
    # The L1 step starts at most 2 and shrinks by about alpha per iteration,
    # so tol=1e-8 needs up to 118 iterations at alpha 0.85 and 182 at 0.9.
    cfg = PipelineConfig()
    for alpha in (cfg.alpha, 0.9):
        for n, edges in random_graphs(25, seed=710):
            result = personalized_pagerank(plain_graph(n, edges), alpha, cfg.tol, cfg.max_iter)
            assert result.converged, (alpha, n, len(edges), result.iterations)
