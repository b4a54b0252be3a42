"""Function-level context: the pre-cursor slice and its control flow graph.

The CFG is statement-level and deliberately shallow: branching constructs
are expanded only down to ``max_depth`` nesting levels; anything deeper is
grouped into a single region node so the rendered path summary stays
readable inside a prompt. try/except gets no exceptional edges; the try and
finally suites are inlined in sequential order. Loop and branch bodies hang
off their header node with ``true`` edges, loop exits use ``loop_exit`` and
back edges ``loop_back``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .syntax import (
    SourceFile,
    Span,
    SymbolRecord,
    SyntaxNode,
    SyntaxTree,
    enclosing_function_node,
    parse,
    symbol_from_definition,
)

_NODE_KINDS = ("entry", "statement", "if", "for", "while", "return", "exit")
_EDGE_LABELS = ("seq", "true", "false", "loop_back", "loop_exit")

_LABEL_RANK = {label: i for i, label in enumerate(_EDGE_LABELS)}

DEFAULT_MAX_DEPTH = 2


@dataclass(frozen=True, slots=True)
class LocalSlice:
    """Verbatim code from the slice origin up to (excluding) the cursor line.

    ``origin`` is ``function`` when the cursor sits inside a function (the
    slice starts at its def line) and ``script`` otherwise (slice starts at
    the top of the file). ``span`` ends at the cursor position. ``owner``
    is the enclosing function's symbol record and ``owner_node`` its
    definition node, both None at script origin.
    """

    code: str
    span: Span
    origin: str
    owner: SymbolRecord | None = None
    owner_node: SyntaxNode | None = field(default=None, compare=False, repr=False)


def local_slice(tree: SyntaxTree, line: int) -> LocalSlice:
    file = tree.file
    if not 0 <= line <= file.line_count:
        raise ValueError(f"cursor line {line} outside file with {file.line_count} lines")
    owner_node = enclosing_function_node(tree, line)
    if owner_node is not None:
        start = owner_node.span.start_line
        origin = "function"
        owner = symbol_from_definition(file, owner_node, "function")
    else:
        start = 0
        origin = "script"
        owner = None
    code = file.text[file.offset(start, 0) : file.offset(line, 0)] if line > start else ""
    return LocalSlice(
        code=code,
        span=Span(start, 0, line, 0),
        origin=origin,
        owner=owner,
        owner_node=owner_node,
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
    def __init__(self, slice_file: SourceFile, line_offset: int, max_depth: int) -> None:
        self.file = slice_file
        self.line_offset = line_offset
        self.max_depth = max_depth
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

    def header_text(self, node: SyntaxNode, collapsed: bool = False) -> str:
        first = self.file.line_text(node.span.start_line).strip()
        if collapsed or node.span.end_line > node.span.start_line:
            return f"{first} ..."
        return first

    def stmt_node(self, node: SyntaxNode, kind: str = "statement", collapsed: bool = False) -> int:
        return self.add(kind, self.header_text(node, collapsed), node.span.start_line + self.line_offset)

    # --- statement dispatch -------------------------------------------------

    def build_block(self, stmts: list[SyntaxNode], depth: int) -> tuple[int | None, list[_Tail]]:
        head: int | None = None
        tails: list[_Tail] = []
        started = False
        for stmt in stmts:
            entry, exits = self.build_stmt(stmt, depth)
            if entry is None:
                continue
            if not started:
                head = entry
                started = True
            else:
                for tail, label in tails:
                    self.connect(tail, entry, label)
            tails = exits
            if not exits:
                # every path returned; the rest of the block is unreachable
                break
        return head, tails

    def build_stmt(self, stmt: SyntaxNode, depth: int) -> tuple[int | None, list[_Tail]]:
        kind = stmt.kind
        if kind in ("operator", "keyword", "error_leaf"):
            return None, []
        if kind == "return_statement":
            node = self.stmt_node(stmt, "return")
            self.connect(node, self.exit, "seq")
            return node, []
        if kind == "if_statement":
            if depth < self.max_depth:
                return self.build_if(stmt, depth)
            node = self.stmt_node(stmt, collapsed=True)
            return node, [(node, "seq")]
        if kind in ("for_statement", "while_statement"):
            if depth < self.max_depth:
                return self.build_loop(stmt, depth)
            node = self.stmt_node(stmt, collapsed=True)
            return node, [(node, "seq")]
        if kind == "try_stmt":
            return self.build_try(stmt, depth)
        if kind == "with_stmt":
            return self.build_with(stmt, depth)
        node = self.stmt_node(stmt)
        return node, [(node, "seq")]

    def build_if(self, stmt: SyntaxNode, depth: int) -> tuple[int | None, list[_Tail]]:
        clauses = _split_clauses(stmt.children, ("if", "elif", "else"))
        if not clauses:
            node = self.stmt_node(stmt)
            return node, [(node, "seq")]
        return self._chain_if(stmt, clauses, depth)

    def _chain_if(
        self, stmt: SyntaxNode, clauses: list[tuple[SyntaxNode, list[SyntaxNode]]], depth: int
    ) -> tuple[int, list[_Tail]]:
        kw, body = clauses[0]
        line = kw.span.start_line
        node = self.add("if", self.file.line_text(line).strip(), line + self.line_offset)
        tails: list[_Tail] = []

        head, branch_tails = self.build_block(body, depth + 1)
        if head is None:
            tails.append((node, "true"))
        else:
            self.connect(node, head, "true")
            tails.extend(branch_tails)

        rest = clauses[1:]
        if not rest:
            tails.append((node, "false"))
        elif rest[0][0].value == "else":
            head, branch_tails = self.build_block(rest[0][1], depth + 1)
            if head is None:
                tails.append((node, "false"))
            else:
                self.connect(node, head, "false")
                tails.extend(branch_tails)
        else:
            # elif: desugar into a nested if hanging off the false edge
            nested, nested_tails = self._chain_if(stmt, rest, depth)
            self.connect(node, nested, "false")
            tails.extend(nested_tails)
        return node, tails

    def build_loop(self, stmt: SyntaxNode, depth: int) -> tuple[int, list[_Tail]]:
        keyword = "while" if stmt.kind == "while_statement" else "for"
        clauses = _split_clauses(stmt.children, (keyword, "else"))
        node = self.add(keyword, self.header_text(stmt, collapsed=False), stmt.span.start_line + self.line_offset)
        body = clauses[0][1] if clauses else []
        head, body_tails = self.build_block(body, depth + 1)
        if head is not None:
            self.connect(node, head, "true")
            for tail, _label in body_tails:
                self.connect(tail, node, "loop_back")
        tails: list[_Tail] = [(node, "loop_exit")]
        for kw, else_body in clauses[1:]:
            if kw.value != "else":
                continue
            head, else_tails = self.build_block(else_body, depth)
            if head is not None:
                for tail, label in tails:
                    self.connect(tail, head, label)
                tails = else_tails
        return node, tails

    def build_try(self, stmt: SyntaxNode, depth: int) -> tuple[int | None, list[_Tail]]:
        stmts: list[SyntaxNode] = []
        take = False
        for child in stmt.children:
            if child.kind == "keyword" and child.value in ("try", "finally"):
                take = True
                continue
            if child.kind == "keyword" and child.value == "else":
                take = True
                continue
            if child.kind == "except_clause" or (child.kind == "keyword" and child.value == "except"):
                take = False
                continue
            if child.kind == "block" and take:
                stmts.extend(child.children)
                take = False
            elif child.kind == "block":
                continue
        head, tails = self.build_block(stmts, depth)
        if head is None:
            node = self.stmt_node(stmt, collapsed=True)
            return node, [(node, "seq")]
        return head, tails

    def build_with(self, stmt: SyntaxNode, depth: int) -> tuple[int, list[_Tail]]:
        header = self.file.line_text(stmt.span.start_line).strip()
        node = self.add("statement", header, stmt.span.start_line + self.line_offset)
        body: list[SyntaxNode] = []
        for child in stmt.children:
            if child.kind == "block":
                body.extend(child.children)
        seen_colon = False
        if not body:
            # single-line with: statements follow the ':' operator directly
            for child in stmt.children:
                if child.kind == "operator" and child.value == ":":
                    seen_colon = True
                    continue
                if seen_colon and not child.is_leaf:
                    body.append(child)
        head, tails = self.build_block(body, depth)
        if head is None:
            return node, [(node, "seq")]
        self.connect(node, head, "seq")
        return node, tails


def _split_clauses(
    children: tuple[SyntaxNode, ...], keywords: tuple[str, ...]
) -> list[tuple[SyntaxNode, list[SyntaxNode]]]:
    """Group a compound statement's children into (clause keyword, body
    statements) pairs; bodies come from an indented block or, for one-line
    suites, from the statements after the ':'."""
    clauses: list[tuple[SyntaxNode, list[SyntaxNode]]] = []
    i = 0
    n = len(children)
    while i < n:
        child = children[i]
        if not (child.kind == "keyword" and child.value in keywords):
            i += 1
            continue
        kw = child
        i += 1
        while i < n and not (children[i].kind == "operator" and children[i].value == ":"):
            i += 1
        i += 1  # past ':'
        body: list[SyntaxNode] = []
        if i < n and children[i].kind == "block":
            body = list(children[i].children)
            i += 1
        else:
            while i < n and not (children[i].kind == "keyword" and children[i].value in keywords):
                if not children[i].is_leaf or children[i].kind not in ("operator", "keyword"):
                    body.append(children[i])
                i += 1
        clauses.append((kw, body))
    return clauses


def _slice_statements(root: SyntaxNode, origin: str) -> list[SyntaxNode]:
    if origin == "function" and root.children and root.children[0].kind == "function_definition":
        for child in root.children[0].children:
            if child.kind == "block":
                return list(child.children)
        return []
    return list(root.children)


def build_cfg(slice_: LocalSlice, max_depth: int = DEFAULT_MAX_DEPTH) -> ControlFlowGraph:
    """Statement-level CFG over the pre-cursor slice; empty slices produce
    the trivial entry -> exit graph."""
    slice_file = SourceFile.from_text("<slice>", slice_.code)
    tree = parse(slice_file)
    builder = _Builder(slice_file, slice_.span.start_line, max_depth)
    stmts = _slice_statements(tree.root, slice_.origin)
    head, tails = builder.build_block(stmts, 0)
    if head is None:
        builder.connect(builder.entry, builder.exit, "seq")
    else:
        builder.connect(builder.entry, head, "seq")
        for tail, label in tails:
            builder.connect(tail, builder.exit, label)
    return ControlFlowGraph(nodes=builder.nodes, edges=builder.edges, entry=builder.entry, exit=builder.exit)


def _node_label(node: CfgNode) -> str:
    if node.kind in ("entry", "exit"):
        return node.kind
    return f"L{(node.line or 0) + 1}: {node.text}"


def render_cfg(cfg: ControlFlowGraph) -> str:
    """One line per edge, nodes in construction (source) order; seq edges
    render as plain arrows, labeled edges carry their label."""
    by_src: dict[int, list[CfgEdge]] = {}
    for edge in cfg.edges:
        by_src.setdefault(edge.src, []).append(edge)
    labels = {node.node_id: _node_label(node) for node in cfg.nodes}
    lines: list[str] = []
    for node in cfg.nodes:
        for edge in sorted(by_src.get(node.node_id, ()), key=lambda e: (_LABEL_RANK[e.label], e.dst)):
            if edge.label == "seq":
                lines.append(f"{labels[edge.src]} -> {labels[edge.dst]}")
            else:
                lines.append(f"{labels[edge.src]} -[{edge.label}]-> {labels[edge.dst]}")
    return "\n".join(lines)
