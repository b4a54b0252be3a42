"""Function-level context: the pre-cursor slice and its control flow graph.

The CFG is statement-level and deliberately shallow: branching constructs
are expanded only down to ``_MAX_DEPTH`` nesting levels; anything deeper is
grouped into a single region node so the rendered path summary stays
readable inside a prompt. try/except gets no exceptional edges; the try and
finally suites are inlined in sequential order. Loop and branch bodies hang
off their header node with ``true`` edges, loop exits use ``loop_exit`` and
back edges ``loop_back``.
"""

from __future__ import annotations

from dataclasses import dataclass

from parso.tree import NodeOrLeaf

from .syntax import FileFacts, SourceFile, Span, SymbolRecord, children, kind_of, parse, span

_EDGE_LABELS = ("seq", "true", "false", "loop_back", "loop_exit")

_LABEL_RANK = {label: i for i, label in enumerate(_EDGE_LABELS)}

_MAX_DEPTH = 2


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
    def __init__(self, slice_file: SourceFile, line_offset: int) -> None:
        self.file = slice_file
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

    def stmt_node(self, node: NodeOrLeaf, kind: str = "statement", collapsed: bool = False) -> int:
        """A node for ``node`` labelled with its first line, plus `` ...``
        when it is collapsed or spans more lines."""
        where = span(node)
        text = self.file.line_text(where.start_line).strip()
        if collapsed or where.end_line > where.start_line:
            text = f"{text} ..."
        return self.add(kind, text, where.start_line + self.line_offset)

    # --- statement dispatch -------------------------------------------------

    def build_block(self, stmts: list[NodeOrLeaf], depth: int) -> tuple[int | None, list[_Tail]]:
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

    def build_stmt(self, stmt: NodeOrLeaf, depth: int) -> tuple[int | None, list[_Tail]]:
        kind = kind_of(stmt)
        if kind in ("operator", "keyword", "error_leaf"):
            return None, []
        if kind == "return_stmt":
            node = self.stmt_node(stmt, "return")
            self.connect(node, self.exit, "seq")
            return node, []
        if kind == "if_stmt":
            if depth < _MAX_DEPTH:
                return self.build_if(_split_clauses(children(stmt), ("if", "elif", "else")), depth)
            node = self.stmt_node(stmt, collapsed=True)
            return node, [(node, "seq")]
        if kind in ("for_stmt", "while_stmt"):
            if depth < _MAX_DEPTH:
                return self.build_loop(stmt, depth)
            node = self.stmt_node(stmt, collapsed=True)
            return node, [(node, "seq")]
        if kind == "try_stmt":
            return self.build_try(stmt, depth)
        if kind == "with_stmt":
            return self.build_with(stmt, depth)
        node = self.stmt_node(stmt)
        return node, [(node, "seq")]

    def build_if(
        self, clauses: list[tuple[NodeOrLeaf, list[NodeOrLeaf]]], depth: int
    ) -> tuple[int, list[_Tail]]:
        # clauses[0] is the 'if' clause: parso opens every if_stmt with its
        # keyword. Each elif is a nested if hanging off the false edge of the
        # clause before it; those edges are added innermost first.
        tails: list[_Tail] = []
        nodes: list[int] = []
        for kw, body in clauses:
            if nodes and kw.value == "else":
                head, branch_tails = self.build_block(body, depth + 1)
                if head is None:
                    tails.append((nodes[-1], "false"))
                else:
                    self.connect(nodes[-1], head, "false")
                    tails.extend(branch_tails)
                break
            line = span(kw).start_line
            nodes.append(self.add("if", self.file.line_text(line).strip(), line + self.line_offset))
            head, branch_tails = self.build_block(body, depth + 1)
            if head is None:
                tails.append((nodes[-1], "true"))
            else:
                self.connect(nodes[-1], head, "true")
                tails.extend(branch_tails)
        else:
            tails.append((nodes[-1], "false"))
        for outer, nested in reversed(list(zip(nodes, nodes[1:]))):
            self.connect(outer, nested, "false")
        return nodes[0], tails

    def build_loop(self, stmt: NodeOrLeaf, depth: int) -> tuple[int, list[_Tail]]:
        keyword = "while" if kind_of(stmt) == "while_stmt" else "for"
        clauses = _split_clauses(children(stmt), (keyword, "else"))
        node = self.stmt_node(stmt, keyword)
        head, body_tails = self.build_block(clauses[0][1], depth + 1)
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

    def build_try(self, stmt: NodeOrLeaf, depth: int) -> tuple[int | None, list[_Tail]]:
        stmts: list[NodeOrLeaf] = []
        take = False
        for child in children(stmt):
            kind = kind_of(child)
            if kind == "keyword" and child.value in ("try", "finally", "else"):
                take = True
                continue
            if kind == "except_clause" or (kind == "keyword" and child.value == "except"):
                take = False
                continue
            if kind == "suite" and take:
                stmts.extend(children(child))
                take = False
        head, tails = self.build_block(stmts, depth)
        if head is None:
            node = self.stmt_node(stmt, collapsed=True)
            return node, [(node, "seq")]
        return head, tails

    def build_with(self, stmt: NodeOrLeaf, depth: int) -> tuple[int, list[_Tail]]:
        line = span(stmt).start_line
        node = self.add("statement", self.file.line_text(line).strip(), line + self.line_offset)
        kids = children(stmt)
        body: list[NodeOrLeaf] = []
        for child in kids:
            if kind_of(child) == "suite":
                body.extend(children(child))
        seen_colon = False
        if not body:
            # single-line with: statements follow the ':' operator directly
            for child in kids:
                if kind_of(child) == "operator" and child.value == ":":
                    seen_colon = True
                    continue
                if seen_colon and hasattr(child, "children"):
                    body.append(child)
        head, tails = self.build_block(body, depth)
        if head is None:
            return node, [(node, "seq")]
        self.connect(node, head, "seq")
        return node, tails


def _split_clauses(
    kids: list[NodeOrLeaf], keywords: tuple[str, ...]
) -> list[tuple[NodeOrLeaf, list[NodeOrLeaf]]]:
    """Group a compound statement's retained children into (clause keyword,
    body statements) pairs; bodies come from an indented block or, for
    one-line suites, from the statements after the ':'."""
    kinds = [kind_of(child) for child in kids]
    clauses: list[tuple[NodeOrLeaf, list[NodeOrLeaf]]] = []
    i = 0
    n = len(kids)
    while i < n:
        if not (kinds[i] == "keyword" and kids[i].value in keywords):
            i += 1
            continue
        kw = kids[i]
        i += 1
        while i < n and not (kinds[i] == "operator" and kids[i].value == ":"):
            i += 1
        i += 1  # past ':'
        body: list[NodeOrLeaf] = []
        if i < n and kinds[i] == "suite":
            body = children(kids[i])
            i += 1
        else:
            while i < n and not (kinds[i] == "keyword" and kids[i].value in keywords):
                if kinds[i] not in ("operator", "keyword"):
                    body.append(kids[i])
                i += 1
        clauses.append((kw, body))
    return clauses


def _slice_statements(root: NodeOrLeaf, origin: str) -> list[NodeOrLeaf]:
    stmts = children(root)
    if origin == "function" and stmts and kind_of(stmts[0]) == "funcdef":
        return next((children(child) for child in children(stmts[0]) if kind_of(child) == "suite"), [])
    return stmts


def build_cfg(slice_: LocalSlice) -> ControlFlowGraph:
    """Statement-level CFG over the pre-cursor slice; empty slices produce
    the trivial entry -> exit graph."""
    slice_file = SourceFile.from_text("<slice>", slice_.code)
    tree = parse(slice_file)
    builder = _Builder(slice_file, slice_.span.start_line)
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
