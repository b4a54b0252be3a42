"""Function-level context: the pre-cursor slice and its control flow graph.

The CFG is statement-level and deliberately shallow. It is built from the
slice's ``ast`` tree, parsed through the bounded repair of
``syntax._parsed``; a statement the repair appended is never a node.
Branching constructs are expanded only down to ``_MAX_DEPTH`` nesting
levels; anything deeper is grouped into a single region node so the rendered
path summary stays readable inside a prompt. try/except gets no exceptional
edges: the try, else and finally suites are inlined in sequential order, and
the handlers are left out; a with suite is inlined after its header. Loop
and branch bodies hang off their header node with ``true`` edges, loop exits
use ``loop_exit`` and back edges ``loop_back``; every other edge is ``seq``.
A return ends its path at ``exit``; ``pass``, ``break`` and ``continue`` are
plain statements.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .syntax import FileFacts, Span, SymbolRecord, _parsed

_MAX_DEPTH = 2

_LOOPS = (ast.For, ast.AsyncFor, ast.While)
_TRIES = (ast.Try, getattr(ast, "TryStar", ast.Try))  # TryStar is new in Python 3.11
_WITHS = (ast.With, ast.AsyncWith)


@dataclass(frozen=True, slots=True)
class LocalSlice:
    """Verbatim code from the slice origin up to (excluding) the cursor line.

    ``origin`` is ``function`` when the cursor sits inside a function (the
    slice starts at its def line) and ``script`` otherwise (slice starts at
    the top of the file). ``span`` ends at the cursor position. ``owner``
    is the enclosing function's symbol record, None at script origin.
    """

    code: str
    span: Span
    origin: str
    owner: SymbolRecord | None = None


def local_slice(facts: FileFacts, line: int) -> LocalSlice:
    """The slice ending at ``line``, owned by the innermost function whose
    span contains the line (the one that starts last)."""
    file = facts.file
    if not 0 <= line <= file.line_count:
        raise ValueError(f"cursor line {line} outside file with {file.line_count} lines")
    enclosing = [record for record in facts.functions if record.def_span.contains_line(line)]
    owner = max(enclosing, key=lambda record: record.def_span.start_line, default=None)
    start = owner.def_span.start_line if owner is not None else 0
    code = file.text[file.offset(start, 0) : file.offset(line, 0)] if line > start else ""
    return LocalSlice(
        code=code,
        span=Span(start, 0, line, 0),
        origin="function" if owner is not None else "script",
        owner=owner,
    )


@dataclass(slots=True)
class CfgNode:
    node_id: int
    kind: str
    text: str
    line: int | None = None  # 0-based line in the original file


@dataclass(frozen=True, slots=True)
class CfgEdge:
    src: int
    dst: int
    label: str


@dataclass(slots=True)
class ControlFlowGraph:
    nodes: list[CfgNode]
    edges: list[CfgEdge]
    entry: int
    exit: int


_Tail = tuple[int, str]


class _Builder:
    """Nodes and edges over the statements of one slice's ``ast`` tree.
    ``lines`` are the slice's lines, ending at "\\n" alone, ``rows`` maps
    the tree's lines to them (see ``syntax._parsed``) and ``line_offset`` is
    the slice's first line in its file."""

    def __init__(self, lines: list[str], rows: list[int], line_offset: int) -> None:
        self.lines = lines
        self.rows = rows
        self.line_offset = line_offset
        self.nodes: list[CfgNode] = []
        self.edges: list[CfgEdge] = []
        self.entry = self.add("entry", "entry", None)
        self.exit = self.add("exit", "exit", None)

    def add(self, kind: str, text: str, line: int | None) -> int:
        node_id = len(self.nodes)
        self.nodes.append(CfgNode(node_id=node_id, kind=kind, text=text, line=line))
        return node_id

    def connect(self, src: int, dst: int, label: str) -> None:
        self.edges.append(CfgEdge(src=src, dst=dst, label=label))

    def stmt_node(self, stmt: ast.stmt, kind: str = "statement", header: bool = False) -> int:
        """A node for ``stmt`` labelled with its first line (a decorated
        definition's first decorator), plus `` ...`` when the statement runs
        on and its later lines are not nodes of their own, as they are for a
        ``header``. A lone "\\r" in the label is written as the two
        characters ``\\r``, so every label stays on its line."""
        decorators = getattr(stmt, "decorator_list", None)
        line = self.rows[(decorators[0] if decorators else stmt).lineno - 1]
        text = self.lines[line].strip().replace("\r", "\\r")
        if not header and self.rows[min(stmt.end_lineno, len(self.rows)) - 1] > line:
            text = f"{text} ..."
        return self.add(kind, text, line + self.line_offset)

    # --- statement dispatch -------------------------------------------------

    def build_block(self, stmts: list[ast.stmt], depth: int) -> tuple[int | None, list[_Tail]]:
        head: int | None = None
        tails: list[_Tail] = []
        for stmt in stmts:
            if stmt.lineno > len(self.rows):
                break  # the repair's, as is every statement after it
            entry, exits = self.build_stmt(stmt, depth)
            if head is None:
                head = entry
            else:
                for tail, label in tails:
                    self.connect(tail, entry, label)
            tails = exits
            if not exits:
                # every path returned; the rest of the block is unreachable
                break
        return head, tails

    def build_stmt(self, stmt: ast.stmt, depth: int) -> tuple[int, list[_Tail]]:
        if isinstance(stmt, ast.Return):
            node = self.stmt_node(stmt, "return")
            self.connect(node, self.exit, "seq")
            return node, []
        if isinstance(stmt, ast.If) and depth < _MAX_DEPTH:
            return self.build_if(stmt, depth)
        if isinstance(stmt, _LOOPS) and depth < _MAX_DEPTH:
            return self.build_loop(stmt, depth)
        if isinstance(stmt, _TRIES):
            return self.build_try(stmt, depth)
        if isinstance(stmt, _WITHS):
            return self.build_with(stmt, depth)
        node = self.stmt_node(stmt)
        return node, [(node, "seq")]

    def build_if(self, stmt: ast.If, depth: int) -> tuple[int, list[_Tail]]:
        # an elif is the lone If of its parent's orelse, at the parent's
        # column; the chain is walked in a loop, not by recursion, so a chain
        # of any length builds, each test hanging off the false edge of the
        # one before it
        tails: list[_Tail] = []
        first = previous = None
        while True:
            node = self.stmt_node(stmt, "if", header=True)
            if previous is None:
                first = node
            else:
                self.connect(previous, node, "false")
            self.branch(node, "true", stmt.body, depth + 1, tails)
            orelse = stmt.orelse
            if len(orelse) == 1 and isinstance(orelse[0], ast.If) and orelse[0].col_offset == stmt.col_offset:
                previous, stmt = node, orelse[0]
                continue
            self.branch(node, "false", orelse, depth + 1, tails)
            return first, tails

    def branch(self, node: int, label: str, stmts: list[ast.stmt], depth: int, tails: list[_Tail]) -> None:
        """Hang the block ``stmts`` off ``node``'s ``label`` edge, adding its
        tails to ``tails``; an empty block leaves that edge itself a tail."""
        head, block_tails = self.build_block(stmts, depth)
        if head is None:
            tails.append((node, label))
        else:
            self.connect(node, head, label)
            tails.extend(block_tails)

    def build_loop(self, stmt: ast.For | ast.AsyncFor | ast.While, depth: int) -> tuple[int, list[_Tail]]:
        node = self.stmt_node(stmt, "while" if isinstance(stmt, ast.While) else "for", header=True)
        head, body_tails = self.build_block(stmt.body, depth + 1)
        if head is not None:
            self.connect(node, head, "true")
            for tail, _label in body_tails:
                self.connect(tail, node, "loop_back")
        head, else_tails = self.build_block(stmt.orelse, depth)
        if head is None:
            return node, [(node, "loop_exit")]
        self.connect(node, head, "loop_exit")
        return node, else_tails

    def build_try(self, stmt: ast.Try, depth: int) -> tuple[int, list[_Tail]]:
        head, tails = self.build_block(stmt.body + stmt.orelse + stmt.finalbody, depth)
        if head is None:
            node = self.stmt_node(stmt)
            return node, [(node, "seq")]
        return head, tails

    def build_with(self, stmt: ast.With | ast.AsyncWith, depth: int) -> tuple[int, list[_Tail]]:
        node = self.stmt_node(stmt, header=True)
        head, tails = self.build_block(stmt.body, depth)
        if head is None:
            return node, [(node, "seq")]
        self.connect(node, head, "seq")
        return node, tails


def build_cfg(slice_: LocalSlice) -> ControlFlowGraph:
    """Statement-level CFG over the pre-cursor slice; empty slices, and
    slices ``ast`` cannot parse even with the repair, produce the trivial
    entry -> exit graph."""
    tree, rows, _ = _parsed("<slice>", slice_.code)
    builder = _Builder(slice_.code.split("\n"), rows, slice_.span.start_line)
    stmts = tree.body if tree is not None else []
    if slice_.origin == "function" and stmts and isinstance(stmts[0], (ast.FunctionDef, ast.AsyncFunctionDef)):
        stmts = stmts[0].body
    head, tails = builder.build_block(stmts, 0)
    if head is None:
        builder.connect(builder.entry, builder.exit, "seq")
    else:
        builder.connect(builder.entry, head, "seq")
        for tail, label in tails:
            builder.connect(tail, builder.exit, label)
    return ControlFlowGraph(nodes=builder.nodes, edges=builder.edges, entry=builder.entry, exit=builder.exit)


def render_cfg(cfg: ControlFlowGraph) -> str:
    """Each statement once, in source order, as ``L<n>: <text>``. A
    statement that does more than fall through (go to the next statement,
    or to ``exit`` for a return or the last statement) ends with its edges,
    ``  [label Lm, ...]``, each (label, target) pair once, in the order they
    were added. An empty slice renders nothing."""
    stmts = [node for node in cfg.nodes if node.node_id not in (cfg.entry, cfg.exit)]
    names = {node.node_id: f"L{node.line + 1}" for node in stmts}
    names[cfg.exit] = "exit"
    out: dict[int, list[tuple[str, int]]] = {}
    for edge in cfg.edges:
        pairs = out.setdefault(edge.src, [])
        if (edge.label, edge.dst) not in pairs:
            pairs.append((edge.label, edge.dst))
    lines = []
    for i, node in enumerate(stmts):
        line = f"{names[node.node_id]}: {node.text}"
        last = node.kind == "return" or i + 1 == len(stmts)
        pairs = out.get(node.node_id, [])
        if pairs != [("seq", cfg.exit if last else stmts[i + 1].node_id)]:
            line += "  [" + ", ".join(f"{label} {names[dst]}" for label, dst in pairs) + "]"
        lines.append(line)
    return "\n".join(lines)
