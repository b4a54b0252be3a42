"""Error-tolerant Python parsing and symbol-level queries.

:func:`parse` runs parso and converts its tree into a concrete syntax tree
(:class:`SyntaxNode`) with a fixed kind vocabulary, so analyzers never touch
parso objects directly. parso keeps parsing through syntax errors and
surfaces the broken region as ``error_node`` -- exactly what an unfinished
file with a cursor in the middle looks like.

Conventions:
  * lines and columns are 0-based internally (the CLI converts at the edge)
  * node spans cover the first through last retained token; layout trivia
    (newlines, the end marker, ``;`` separators) is dropped during
    conversion, as are ``simple_stmt`` wrappers
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Iterator

import parso

from .errors import UnsupportedGrammarError

_PYTHON_GRAMMAR_VERSION = "3.10"

# Nonterminals of the published grammar the parser targets. Anything
# outside this set (plus the canonical and leaf names below) is rejected at
# parse time so analyzers can rely on a closed vocabulary.
_PARSO_NONTERMINALS = frozenset(
    """
    and_expr and_test annassign arglist argument arith_expr assert_stmt async_funcdef async_stmt
    atom atom_expr augassign break_stmt classdef comp_for comp_if comp_iter comp_op comparison
    compound_stmt continue_stmt decorated decorator decorators del_stmt dictorsetmaker
    dotted_as_name dotted_as_names dotted_name encoding_decl eval_input except_clause expr expr_stmt
    exprlist factor file_input flow_stmt for_stmt fstring fstring_content fstring_conversion
    fstring_expr fstring_format_spec funcdef global_stmt if_stmt import_as_name import_as_names
    import_from import_name import_stmt lambdef namedexpr_test nonlocal_stmt not_test or_test
    parameters pass_stmt power raise_stmt return_stmt shift_expr simple_stmt single_input sliceop
    small_stmt star_expr stmt strings subscript subscriptlist suite sync_comp_for term test testlist
    testlist_comp testlist_star_expr tfpdef trailer try_stmt typedargslist varargslist vfpdef
    while_stmt with_item with_stmt xor_expr yield_arg yield_expr yield_stmt error_node param
    """.split()
)

_LEAF_KINDS = frozenset(
    {
        "name",
        "number",
        "string",
        "operator",
        "keyword",
        "fstring_start",
        "fstring_string",
        "fstring_end",
        "error_leaf",
    }
)

_KIND_MAP = {
    "file_input": "module",
    "funcdef": "function_definition",
    "async_funcdef": "function_definition",
    "classdef": "class_definition",
    "if_stmt": "if_statement",
    "for_stmt": "for_statement",
    "while_stmt": "while_statement",
    "return_stmt": "return_statement",
    "import_name": "import_statement",
    "import_from": "import_from_statement",
    "expr_stmt": "expression_statement",
    "suite": "block",
    "decorated": "decorated_definition",
}

_DROPPED_LEAVES = frozenset({"newline", "endmarker"})

VOCABULARY = frozenset(_KIND_MAP.values()) | _PARSO_NONTERMINALS | _LEAF_KINDS


@dataclass(frozen=True, slots=True)
class Span:
    """Half-open-by-column region of source text, 0-based lines."""

    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def contains_line(self, line: int) -> bool:
        return self.start_line <= line <= self.end_line


@dataclass(frozen=True, slots=True)
class SourceFile:
    """A file's text plus a line-start offset index.

    ``path`` should be repository-relative (posix separators) when the file
    belongs to a repo; relative-import resolution depends on it.
    """

    path: str
    text: str
    line_index: tuple[int, ...]

    @classmethod
    def from_text(cls, path: str, text: str) -> "SourceFile":
        idx = [0]
        for i, ch in enumerate(text):
            if ch == "\n":
                idx.append(i + 1)
        return cls(path=path, text=text, line_index=tuple(idx))

    @property
    def line_count(self) -> int:
        return len(self.line_index)

    def line_text(self, line: int) -> str:
        start = self.line_index[line]
        if line + 1 < len(self.line_index):
            return self.text[start : self.line_index[line + 1] - 1]
        return self.text[start:]

    def offset(self, line: int, col: int) -> int:
        if line >= len(self.line_index):
            return len(self.text)
        return self.line_index[line] + col

    def span_text(self, span: Span) -> str:
        return self.text[self.offset(span.start_line, span.start_col) : self.offset(span.end_line, span.end_col)]


def load_source(root: Path | str, rel_path: str) -> SourceFile:
    text = (Path(root) / rel_path).read_text(encoding="utf-8")
    return SourceFile.from_text(PurePosixPath(rel_path).as_posix(), text)


@dataclass(slots=True, eq=False)
class SyntaxNode:
    """One node of the normalized concrete syntax tree.

    ``value`` is set for leaves (the token text); ``is_def`` marks name
    leaves that bind a definition (function/class names, parameters,
    assignment targets) rather than reference one.
    """

    kind: str
    span: Span
    children: tuple["SyntaxNode", ...] = ()
    value: str | None = None
    is_def: bool = False
    parent: "SyntaxNode | None" = field(default=None, repr=False)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def walk(self) -> Iterator["SyntaxNode"]:
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def leaves(self) -> Iterator["SyntaxNode"]:
        for node in self.walk():
            if node.is_leaf:
                yield node


@dataclass(slots=True, eq=False)
class SyntaxTree:
    root: SyntaxNode
    file: SourceFile
    # parso's own tree, read by imports_of
    parso_module: object = field(repr=False)


@dataclass(frozen=True, slots=True)
class SymbolRecord:
    """A named definition: where it lives and its verbatim code."""

    name: str
    sym_kind: str  # function | class | variable | import_alias
    def_span: Span
    code: str


@dataclass(slots=True)
class ImportRecord:
    """One imported module and the names it binds locally.

    ``bound_names`` pairs (imported symbol, local alias); for plain module
    imports it holds a single entry binding the module itself. Wildcard
    imports bind ``("*", "*")``. ``classification`` is filled in by the
    project-level analysis (cross_file or external).
    """

    module_path: str
    bound_names: tuple[tuple[str, str], ...]
    import_span: Span
    classification: str | None = None


_GRAMMAR = parso.load_grammar(version=_PYTHON_GRAMMAR_VERSION)


def parse(file: SourceFile) -> SyntaxTree:
    """Parse ``file`` into a normalized tree, recovering from syntax errors."""
    module = _GRAMMAR.parse(file.text, error_recovery=True)
    converted = _convert(module)
    if not converted:
        root = SyntaxNode(kind="module", span=Span(0, 0, 0, 0))
    else:
        root = converted[0]
    _assign_parents(root)
    return SyntaxTree(root=root, file=file, parso_module=module)


def _leaf_span(pnode) -> Span:
    (sl, sc) = pnode.start_pos
    (el, ec) = pnode.end_pos
    return Span(sl - 1, sc, el - 1, ec)


def _union_span(children: list[SyntaxNode]) -> Span:
    first = children[0].span
    last = children[-1].span
    return Span(first.start_line, first.start_col, last.end_line, last.end_col)


def _convert(pnode) -> list[SyntaxNode]:
    children = getattr(pnode, "children", None)
    if children is None:
        kind = pnode.type
        if kind in _DROPPED_LEAVES:
            return []
        if kind not in _LEAF_KINDS:
            raise UnsupportedGrammarError(f"unknown token kind {kind!r}")
        is_def = False
        if kind == "name":
            is_def = bool(pnode.is_definition())
        return [SyntaxNode(kind=kind, span=_leaf_span(pnode), value=pnode.value, is_def=is_def)]

    if pnode.type == "simple_stmt":
        out: list[SyntaxNode] = []
        for child in children:
            if child.type == "operator" and child.value == ";":
                continue
            out.extend(_convert(child))
        return out

    kids: list[SyntaxNode] = []
    for child in children:
        kids.extend(_convert(child))

    if pnode.type in ("async_funcdef", "async_stmt"):
        # flatten the async wrapper into the inner statement so analyzers
        # see a plain function_definition / for_statement / with_stmt
        inner = next((k for k in kids if not k.is_leaf), None)
        if inner is not None:
            merged = tuple(k for k in kids if k is not inner) + inner.children
            return [SyntaxNode(kind=inner.kind, span=_union_span(kids), children=merged)]

    kind = _KIND_MAP.get(pnode.type, pnode.type)
    if kind not in VOCABULARY:
        raise UnsupportedGrammarError(f"unknown node kind {kind!r}")
    if not kids:
        if pnode.type == "file_input":
            return [SyntaxNode(kind="module", span=Span(0, 0, 0, 0))]
        return []
    return [SyntaxNode(kind=kind, span=_union_span(kids), children=tuple(kids))]


def _assign_parents(root: SyntaxNode) -> None:
    stack = [root]
    while stack:
        node = stack.pop()
        for child in node.children:
            child.parent = node
            stack.append(child)


def declared_name(node: SyntaxNode) -> SyntaxNode | None:
    """The name leaf a function/class definition binds, if any."""
    for child in node.children:
        if child.kind == "name":
            return child
    return None


def symbol_from_definition(file: SourceFile, node: SyntaxNode, sym_kind: str) -> SymbolRecord | None:
    """Record of a function or class definition node; None if it has no name."""
    name = declared_name(node)
    if name is None:
        return None
    return SymbolRecord(name=name.value or "", sym_kind=sym_kind, def_span=node.span, code=file.span_text(node.span))


def enclosing_function_node(tree: SyntaxTree, line: int) -> SyntaxNode | None:
    """Innermost function_definition whose span contains ``line``."""
    best: SyntaxNode | None = None
    for node in tree.root.walk():
        if node.kind != "function_definition" or not node.span.contains_line(line):
            continue
        if best is None or node.span.start_line > best.span.start_line:
            best = node
    return best


def _module_statements(root: SyntaxNode) -> Iterator[SyntaxNode]:
    for child in root.children:
        if child.kind == "decorated_definition":
            for inner in child.children:
                if inner.kind in ("function_definition", "class_definition"):
                    yield inner
        else:
            yield child


def _attribute_position(leaf: SyntaxNode) -> bool:
    parent = leaf.parent
    return (
        parent is not None
        and parent.kind == "trailer"
        and bool(parent.children)
        and parent.children[0].value == "."
    )


def _keyword_argument_position(leaf: SyntaxNode) -> bool:
    parent = leaf.parent
    return (
        parent is not None
        and parent.kind == "argument"
        and len(parent.children) >= 2
        and parent.children[0] is leaf
        and parent.children[1].value == "="
    )


def definitions_before(tree: SyntaxTree, line: int) -> list[SymbolRecord]:
    """Module-scope functions, classes and assigned variables whose
    definition ends strictly before ``line``; redefinitions keep the latest
    occurrence, output in source order."""
    latest: dict[str, SymbolRecord] = {}
    for stmt in _module_statements(tree.root):
        if stmt.span.end_line >= line:
            continue
        if stmt.kind == "function_definition":
            record = symbol_from_definition(tree.file, stmt, "function")
            if record:
                latest[record.name] = record
        elif stmt.kind == "class_definition":
            record = symbol_from_definition(tree.file, stmt, "class")
            if record:
                latest[record.name] = record
        elif stmt.kind == "expression_statement":
            code = tree.file.span_text(stmt.span)
            for leaf in stmt.leaves():
                if leaf.kind == "name" and leaf.is_def and not _attribute_position(leaf):
                    latest[leaf.value or ""] = SymbolRecord(
                        name=leaf.value or "", sym_kind="variable", def_span=stmt.span, code=code
                    )
    return sorted(latest.values(), key=lambda r: (r.def_span.start_line, r.def_span.start_col))


def identifiers_used(node: SyntaxNode) -> set[str]:
    """Names in reference position under ``node``: definitions, attribute
    names after a dot, keyword-argument names and import paths are excluded,
    so the base of ``pd.read_csv`` counts while ``read_csv`` does not."""
    used: set[str] = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if current.kind in ("import_statement", "import_from_statement"):
            continue
        if current.children:
            stack.extend(current.children)
            continue
        leaf = current
        if leaf.kind != "name" or leaf.is_def:
            continue
        if leaf.parent is not None and leaf.parent.kind == "fstring_conversion":
            continue
        if _attribute_position(leaf) or _keyword_argument_position(leaf):
            continue
        if leaf.value:
            used.add(leaf.value)
    return used


def _file_package_parts(path: str) -> list[str] | None:
    parts = list(PurePosixPath(path).with_suffix("").parts)
    if not parts:
        return None
    if parts[-1] == "__init__":
        return parts[:-1]
    return parts[:-1]


def _resolve_relative(path: str, level: int, tail: str) -> str | None:
    package = _file_package_parts(path)
    if package is None or level - 1 > len(package):
        return None
    base = package[: len(package) - (level - 1)]
    joined = ".".join(base)
    if tail:
        return f"{joined}.{tail}" if joined else tail
    return joined or None


def imports_of(tree: SyntaxTree) -> list[ImportRecord]:
    """All import statements in the file, one record per imported module.

    Relative imports are resolved against the file's package path (the
    ``SourceFile.path`` is assumed repository-relative); unresolvable levels
    keep their leading dots and will classify as external.
    """
    module = tree.parso_module
    records: list[ImportRecord] = []
    stack = [module]
    nodes = []
    while stack:
        pnode = stack.pop()
        if pnode.type in ("import_name", "import_from"):
            nodes.append(pnode)
            continue
        for child in reversed(getattr(pnode, "children", ()) or ()):
            stack.append(child)

    for pnode in nodes:
        span = Span(
            pnode.start_pos[0] - 1, pnode.start_pos[1], pnode.end_pos[0] - 1, pnode.end_pos[1]
        )
        if pnode.type == "import_name":
            for path, defined in zip(pnode.get_paths(), pnode.get_defined_names()):
                dotted = ".".join(p.value for p in path)
                records.append(
                    ImportRecord(module_path=dotted, bound_names=((dotted, defined.value),), import_span=span)
                )
            continue

        level = pnode.level or 0
        tail = ".".join(n.value for n in pnode.get_from_names())
        if level:
            resolved = _resolve_relative(tree.file.path, level, tail)
            module_path = resolved if resolved is not None else "." * level + tail
        else:
            module_path = tail

        if pnode.is_star_import():
            bound: tuple[tuple[str, str], ...] = (("*", "*"),)
        else:
            pairs = []
            for path, defined in zip(pnode.get_paths(), pnode.get_defined_names()):
                pairs.append((path[-1].value, defined.value))
            bound = tuple(pairs)
        records.append(ImportRecord(module_path=module_path, bound_names=bound, import_span=span))

    records.sort(key=lambda r: (r.import_span.start_line, r.import_span.start_col))
    return records
