"""Spans around the program's public functions, installed from outside.

``install`` replaces each function in ``TARGETS`` with a recording
wrapper, in its defining module and in every ``repolens`` module that
imported it by name (``parse`` inside ``retrieval``, ``complete_task``
inside ``cli`` and so on). ``uninstall`` puts the originals back. Spans
stay in memory until the benchmark reads or writes them.

One tracer serves one thread: the parent of a span is whatever span was
open on the tracer when it started.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _resolution(args, kwargs, deps):
    cross = [d for d in deps if d.origin == "cross_file"]
    return {"attempted": len(cross), "resolved": sum(d.resolved is not None for d in cross)}


# (module, function, span name, probe reading counts off the call)
TARGETS = [
    ("syntax", "parse", "syntax.parse",
     lambda a, k, r: {"lines": _arg(a, k, 0, "file").line_count}),
    ("funcflow", "local_slice", "funcflow.local_slice", None),
    ("funcflow", "build_cfg", "funcflow.build_cfg", None),
    ("filedeps", "explicit_deps", "filedeps.deps", None),
    ("filedeps", "potential_deps", "filedeps.deps", None),
    ("projdeps", "build_module_map", "projdeps.build_module_map", None),
    ("projdeps", "cross_module_deps", "projdeps.cross_module_deps", _resolution),
    ("ranking", "build_graph", "ranking.build_graph", lambda a, k, r: {"nodes": len(r.nodes)}),
    ("ranking", "personalized_pagerank", "ranking.pagerank",
     lambda a, k, r: {"iterations": r.iterations, "converged": int(r.converged)}),
    ("retrieval", "build_index", "retrieval.build_index",
     lambda a, k, r: {"snippets": len(r.snippets)}),
    ("retrieval", "semantic_candidates", "retrieval.semantic_candidates",
     lambda a, k, r: {"scored": len(_arg(a, k, 0, "index").snippets)}),
    ("retrieval", "rerank", "retrieval.rerank", None),
    ("prompting", "render", "prompting.render",
     lambda a, k, r: {"truncations": len(r.truncations), "tokens": r.token_count}),
    ("gateway", "generate", "gateway.generate", lambda a, k, r: {"attempts": r.attempts}),
    ("pipeline", "extract_context", "pipeline.extract_context", None),
    ("pipeline", "complete_task", "pipeline.complete_task", None),
    ("evaluation", "exact_match", "evaluation.score", None),
    ("evaluation", "edit_similarity", "evaluation.score", None),
    ("evaluation", "identifier_em", "evaluation.score", None),
    ("evaluation", "identifier_f1", "evaluation.score", None),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self._next_id = 0

    def _start(self, name: str) -> Span:
        parent = self._open[-1].span_id if self._open else None
        span = Span(self._next_id, name, time.perf_counter(), 0.0, parent)
        self._next_id += 1
        self.spans.append(span)
        self._open.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        span = self._start(name)
        try:
            yield span
        finally:
            self._finish(span)

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span measured by the caller."""
        parent = self._open[-1].span_id if self._open else None
        self.spans.append(Span(self._next_id, name, start, end, parent))
        self._next_id += 1

    def wrap(self, name: str, fn, probe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._start(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.attrs["error"] = 1
                raise
            finally:
                self._finish(span)
            if probe is not None:
                span.attrs.update(probe(args, kwargs, result))
            return result

        return traced

    def adopt(self, rows: list[dict]) -> None:
        """Append spans written by another process under the open span."""
        parent = self._open[-1].span_id if self._open else None
        ids = {}
        for row in rows:
            ids[row["span_id"]] = self._next_id
            self._next_id += 1
        for row in rows:
            own = row["parent"]
            self.spans.append(
                Span(ids[row["span_id"]], row["name"], row["start"], row["end"],
                     ids[own] if own is not None else parent, dict(row["attrs"]))
            )

    def drain(self) -> list[Span]:
        taken, self.spans = self.spans, []
        return taken

    def write(self, path: Path | str) -> None:
        Path(path).write_text(json.dumps([asdict(s) for s in self.spans]), encoding="utf-8")


def install(tracer: Tracer) -> None:
    """Wrap every target wherever a ``repolens`` module holds it."""
    if tracer._patched:
        raise RuntimeError("tracer already installed")
    for module_name, func_name, span_name, probe in TARGETS:
        module = importlib.import_module(f"repolens.{module_name}")
        original = getattr(module, func_name)
        wrapper = tracer.wrap(span_name, original, probe)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repolens" or name.startswith("repolens.")):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    tracer._patched.append((loaded, attr, original))
                    setattr(loaded, attr, wrapper)


def uninstall(tracer: Tracer) -> None:
    while tracer._patched:
        module, attr, original = tracer._patched.pop()
        setattr(module, attr, original)


def self_ms(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that child spans cover, in ms."""
    covered = 0.0
    reach = span.start
    for child in sorted(children, key=lambda c: c.start):
        start, end = max(child.start, reach), min(child.end, span.end)
        if end > start:
            covered += end - start
            reach = end
    return (span.end - span.start - covered) * 1000


# metric -> span name whose self time it sums per unit
_SELF_MS = {
    "syntax.parse.self_ms": "syntax.parse",
    "retrieval.build_index.ms": "retrieval.build_index",
    "retrieval.semantic_candidates.ms": "retrieval.semantic_candidates",
    "retrieval.rerank.ms": "retrieval.rerank",
    "projdeps.cross_module_deps.ms": "projdeps.cross_module_deps",
    "projdeps.build_module_map.ms": "projdeps.build_module_map",
    "ranking.build_graph.ms": "ranking.build_graph",
    "ranking.pagerank.ms": "ranking.pagerank",
    "funcflow.local_slice.ms": "funcflow.local_slice",
    "funcflow.build_cfg.ms": "funcflow.build_cfg",
    "filedeps.deps.ms": "filedeps.deps",
    "pipeline.extract_context.ms": "pipeline.extract_context",
    "pipeline.complete_task.ms": "pipeline.complete_task",
    "prompting.render.ms": "prompting.render",
    "gateway.generate.ms": "gateway.generate",
    "evaluation.score.ms": "evaluation.score",
    "cli.import_ms": "cli.import",
    "cli.main_ms": "cli.main",
}
# metric -> layer span under which it counts nested syntax.parse calls
_PARSES = {
    "retrieval.build_index.parses": "retrieval.build_index",
    "projdeps.cross_module_deps.parses": "projdeps.cross_module_deps",
    "ranking.build_graph.parses": "ranking.build_graph",
}
# metric -> (span name, attribute the probe recorded, scale) summed per unit
_ATTR_SUMS = {
    "retrieval.snippets": ("retrieval.build_index", "snippets", 1),
    "retrieval.snippets_scored": ("retrieval.semantic_candidates", "scored", 1),
    "ranking.graph_nodes": ("ranking.build_graph", "nodes", 1),
    "ranking.pagerank.iterations": ("ranking.pagerank", "iterations", 1),
    "prompting.truncations": ("prompting.render", "truncations", 1),
    "prompting.tokens": ("prompting.render", "tokens", 1),
    "gateway.attempts": ("gateway.generate", "attempts", 1),
    "gateway.failed": ("gateway.generate", "error", 1),
    "syntax.parse.kloc": ("syntax.parse", "lines", 0.001),
}
# pooled over the run: metric -> (span name, numerator attr, denominator attr or None = calls)
_RATIOS = {
    "projdeps.resolved_ratio": ("projdeps.cross_module_deps", "resolved", "attempted"),
    "ranking.pagerank.converged_ratio": ("ranking.pagerank", "converged", None),
}
LAYER_METRICS = (
    ["syntax.parse.calls"] + list(_SELF_MS) + list(_PARSES) + list(_ATTR_SUMS) + list(_RATIOS)
)
LAYER_UNITS = {
    name: "ms" if name in _SELF_MS else "kloc" if name.endswith("kloc")
    else "ratio" if name in _RATIOS else "count"
    for name in LAYER_METRICS
}
LAYER_UNITS["trace.task_ms_p50"] = "ms"  # unit wall time with every span recording


def _source(metric: str) -> str:
    if metric == "syntax.parse.calls":
        return "syntax.parse"
    for table in (_SELF_MS, _PARSES):
        if metric in table:
            return table[metric]
    return (_ATTR_SUMS.get(metric) or _RATIOS[metric])[0]


def group_values(spans: list[Span]) -> dict[str, float | tuple[float, float]]:
    """Per-layer sums over the spans of one unit (or one set-up); a ratio
    stays a (numerator, denominator) pair so the run can pool it."""
    by_id = {s.span_id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent in by_id:
            children.setdefault(s.parent, []).append(s)
    values = dict.fromkeys(LAYER_METRICS, 0.0)
    for s in spans:
        mine = self_ms(s, children.get(s.span_id, []))
        for metric, name in _SELF_MS.items():
            if s.name == name:
                values[metric] += mine
        for metric, (name, attr, scale) in _ATTR_SUMS.items():
            if s.name == name:
                values[metric] += s.attrs.get(attr, 0) * scale
        if s.name != "syntax.parse":
            continue
        values["syntax.parse.calls"] += 1
        seen, cursor = set(), by_id.get(s.parent)
        while cursor is not None:
            seen.add(cursor.name)
            cursor = by_id.get(cursor.parent)
        for metric, name in _PARSES.items():
            if name in seen:
                values[metric] += 1
    for metric, (name, num, den) in _RATIOS.items():
        hits = [s for s in spans if s.name == name]
        values[metric] = (
            sum(s.attrs.get(num, 0) for s in hits),
            sum(s.attrs.get(den, 0) if den else 1 for s in hits),
        )
    return values


def layer_metrics(units: list[list[Span]], setups: list[list[Span]]) -> dict[str, float]:
    """Median over units of each per-unit value; ratios pooled over units.

    A layer that never runs inside a unit but runs during set-up (the
    shared index build of a long-lived process) reports its set-up
    median instead. A layer that runs in neither reports 0.
    """
    unit_values = [group_values(g) for g in units]
    setup_values = [group_values(g) for g in setups]
    unit_names = {s.name for g in units for s in g}
    setup_names = {s.name for g in setups for s in g}
    out = {}
    for metric in LAYER_METRICS:
        source = _source(metric)
        rows = unit_values if source in unit_names else setup_values if source in setup_names else []
        if not rows:
            out[metric] = 0.0
        elif metric in _RATIOS:
            num = sum(r[metric][0] for r in rows)
            den = sum(r[metric][1] for r in rows)
            out[metric] = num / den if den else 0.0
        else:
            out[metric] = statistics.median(r[metric] for r in rows)
    return out
