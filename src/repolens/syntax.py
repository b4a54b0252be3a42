"""Error-tolerant Python parsing and symbol-level queries.

:func:`parse` runs parso and converts its tree into a concrete syntax tree
(:class:`SyntaxNode`), so analyzers never touch parso objects directly. A
node's kind is parso's own type name (``file_input``, ``funcdef``,
``suite``, ``expr_stmt``, ``name``, ...). parso keeps parsing through syntax
errors and surfaces the broken region as ``error_node`` -- exactly what an
unfinished file with a cursor in the middle looks like. The grammar is
generated on the first parse, not at import, so a run that parses nothing
(an up-to-date ``repolens index``, ``--help``) never pays for it.

:func:`file_facts` reads what the analyses need off one tree and drops the
tree; :func:`definitions_before` and ``funcflow.local_slice`` answer each
cursor from those records, so one parse serves every cursor in a file.
:func:`facts_to_json` and :func:`facts_from_json` carry the facts across
processes without the text: each record's code is cut from the file by its
span when it is read back.

Conventions:
  * lines and columns are 0-based internally (the CLI converts at the edge)
  * node spans cover the first through last retained token; layout trivia
    (newlines, the end marker, ``;`` separators) is dropped during
    conversion, ``simple_stmt`` wrappers are spliced into their parent, and
    ``async_funcdef``/``async_stmt`` are flattened into the inner
    statement, which keeps its kind and gains the ``async`` keyword
  * nodes carry no parent pointer, so trees are acyclic; :func:`reference_sets`
    judges each name's position from its parent on the way down
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate
from pathlib import Path, PurePosixPath
from typing import Iterator

import parso

_PYTHON_GRAMMAR_VERSION = "3.10"

_DROPPED_LEAVES = frozenset({"newline", "endmarker"})


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
        lines = text.split("\n")
        starts = accumulate((len(line) + 1 for line in lines[:-1]), initial=0)
        return cls(path=path, text=text, line_index=tuple(starts))

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

    ``kind`` is parso's type name for the node or token (see the module
    docstring for what conversion normalises). ``value`` is set for leaves
    (the token text); ``is_def`` marks name leaves that bind a definition
    (function/class names, parameters, assignment targets) rather than
    reference one.
    """

    kind: str
    span: Span
    children: tuple["SyntaxNode", ...] = ()
    value: str | None = None
    is_def: bool = False

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
class References:
    """Names a piece of code reads, calls directly, inherits from, and binds.

    ``used``: names in reference position. Definitions, attribute names
    after a dot, keyword-argument names and import paths are excluded, so
    the base of ``pd.read_csv`` counts while ``read_csv`` does not.
    ``called``: names called directly (``f(...)``, not ``a.f(...)``).
    ``bases``: names read in the base lists of the classes it defines.
    ``bound``: names it binds -- parameters; assignment, loop, ``with``,
    ``except`` and comprehension targets; nested definition names; import
    aliases -- in source order, each once. An attribute target
    (``self.x = ...``) binds nothing.
    """

    used: frozenset[str] = frozenset()
    called: frozenset[str] = frozenset()
    bases: frozenset[str] = frozenset()
    bound: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class SymbolRecord:
    """A named definition: where it lives, its verbatim code, and the
    names that code references (read off the definition's own node)."""

    name: str
    sym_kind: str  # function | class | variable | import_alias | module
    def_span: Span
    code: str
    refs: References = field(compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class ImportRecord:
    """One imported module and the names it binds locally.

    ``bound_names`` pairs (imported symbol, local alias); for plain module
    imports it holds a single entry binding the module itself. Wildcard
    imports bind ``("*", "*")``.
    """

    module_path: str
    bound_names: tuple[tuple[str, str], ...]
    import_span: Span


@dataclass(frozen=True, slots=True)
class FileFacts:
    """What the analyses read off one file's tree (see :func:`file_facts`):
    every module-scope definition in source order, redefinitions included;
    every named function, nested ones too, in walk order; the imports; and
    the whole file's span and the module root's reference sets."""

    file: SourceFile
    definitions: tuple[SymbolRecord, ...]
    functions: tuple[SymbolRecord, ...]
    imports: tuple[ImportRecord, ...]
    span: Span
    refs: References


@cache
def _grammar():
    return parso.load_grammar(version=_PYTHON_GRAMMAR_VERSION)


def parse(file: SourceFile) -> SyntaxTree:
    """Parse ``file`` into a normalized tree, recovering from syntax errors."""
    module = _grammar().parse(file.text, error_recovery=True)
    (root,) = _convert(module)
    return SyntaxTree(root=root, file=file, parso_module=module)


def _parso_span(pnode) -> Span:
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
        is_def = False
        if kind == "name":
            is_def = bool(pnode.is_definition())
        return [SyntaxNode(kind=kind, span=_parso_span(pnode), value=pnode.value, is_def=is_def)]

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
        # see a plain funcdef / for_stmt / with_stmt
        inner = next((k for k in kids if not k.is_leaf), None)
        if inner is not None:
            merged = tuple(k for k in kids if k is not inner) + inner.children
            return [SyntaxNode(kind=inner.kind, span=_union_span(kids), children=merged)]

    if not kids:
        if pnode.type == "file_input":
            return [SyntaxNode(kind="file_input", span=Span(0, 0, 0, 0))]
        return []
    return [SyntaxNode(kind=pnode.type, span=_union_span(kids), children=tuple(kids))]


def symbol_from_definition(file: SourceFile, node: SyntaxNode) -> SymbolRecord | None:
    """Record of a function or class definition node; None if it has no name."""
    name = next((child for child in node.children if child.kind == "name"), None)
    if name is None:
        return None
    return SymbolRecord(
        name=name.value or "",
        sym_kind="function" if node.kind == "funcdef" else "class",
        def_span=node.span,
        code=file.span_text(node.span),
        refs=reference_sets(node),
    )


# The only nodes that can hold a statement: parso's grammar puts them in
# these, and error recovery in ``error_node``. (``simple_stmt`` and the async
# wrappers exist in parso's tree only.)
_STATEMENT_CONTAINERS = frozenset({
    "file_input", "suite", "simple_stmt", "if_stmt", "while_stmt", "for_stmt", "try_stmt", "with_stmt",
    "funcdef", "classdef", "decorated", "async_stmt", "async_funcdef", "error_node",
})


def _statement_nodes(root, kind_attr: str, kinds: set[str]) -> Iterator:
    """The nodes of ``kinds`` under ``root`` in walk order, visiting only
    statement containers; ``kind_attr`` names the node's kind in its tree
    (``kind`` here, ``type`` in parso's)."""
    stack = [root]
    while stack:
        node = stack.pop()
        kind = getattr(node, kind_attr)
        if kind in kinds:
            yield node
        if kind in _STATEMENT_CONTAINERS:
            stack.extend(reversed(node.children))


# Comprehension variables and lambda parameters bind in a scope of their own.
_NESTED_SCOPES = frozenset({"sync_comp_for", "comp_for", "lambdef"})


def _module_targets(stmt: SyntaxNode) -> Iterator[str]:
    """Names a module-level assignment binds in the module's scope, in
    source order: ``reference_sets(stmt).bound`` without the variables of
    comprehensions and lambdas."""
    stack = [stmt]
    while stack:
        node = stack.pop()
        if node.kind == "name":
            if node.is_def and node.value:
                yield node.value
        elif node.kind in _NESTED_SCOPES or (node.kind == "trailer" and node.children[0].value == "."):
            continue  # a nested scope, or ``.name`` (an attribute target binds nothing)
        else:
            stack.extend(reversed(node.children))


def _module_definitions(tree: SyntaxTree) -> Iterator[SymbolRecord]:
    """Module-scope functions, classes and assigned variables, in source
    order, redefinitions included."""
    for child in tree.root.children:
        for stmt in child.children if child.kind == "decorated" else (child,):
            if stmt.kind in ("funcdef", "classdef"):
                record = symbol_from_definition(tree.file, stmt)
                if record:
                    yield record
            elif stmt.kind == "expr_stmt":
                code = tree.file.span_text(stmt.span)
                refs = reference_sets(stmt)
                for name in _module_targets(stmt):
                    yield SymbolRecord(name=name, sym_kind="variable", def_span=stmt.span, code=code, refs=refs)


def file_facts(tree: SyntaxTree) -> FileFacts:
    """Read the facts of ``tree``'s file; the tree itself is not kept."""
    file = tree.file
    definitions = tuple(_module_definitions(tree))
    # a module-level function is one record in both tuples
    top = {record.def_span: record for record in definitions if record.sym_kind == "function"}
    functions = (
        top.get(node.span) or symbol_from_definition(file, node)
        for node in _statement_nodes(tree.root, "kind", {"funcdef"})
    )
    return FileFacts(
        file=file,
        definitions=definitions,
        functions=tuple(record for record in functions if record),
        imports=tuple(imports_of(tree)),
        span=_file_span(file),
        refs=reference_sets(tree.root),
    )


def _file_span(file: SourceFile) -> Span:
    last = file.line_count - 1
    return Span(0, 0, last, len(file.text) - file.line_index[last])


def _span_to_json(span: Span) -> list[int]:
    return [span.start_line, span.start_col, span.end_line, span.end_col]


def _refs_to_json(refs: References) -> list[list[str]]:
    return [sorted(refs.used), sorted(refs.called), sorted(refs.bases), list(refs.bound)]


def facts_to_json(facts: FileFacts) -> dict:
    """``facts`` as JSON values, without the text: each record is its name,
    kind, span and four reference lists, and the records shared by
    ``definitions`` and ``functions`` (module-level functions) are stored once."""
    slots: dict[int, int] = {}
    records: list[list] = []

    def slot(record: SymbolRecord) -> int:
        if id(record) not in slots:
            slots[id(record)] = len(records)
            span = _span_to_json(record.def_span)
            records.append([record.name, record.sym_kind, span, *_refs_to_json(record.refs)])
        return slots[id(record)]

    return {
        "path": facts.file.path,
        "definitions": [slot(record) for record in facts.definitions],
        "functions": [slot(record) for record in facts.functions],
        "records": records,
        "imports": [
            [rec.module_path, [list(pair) for pair in rec.bound_names], _span_to_json(rec.import_span)]
            for rec in facts.imports
        ],
        "refs": _refs_to_json(facts.refs),
    }


def _strings(value) -> list[str]:
    if type(value) is not list or not {str}.issuperset(map(type, value)):
        raise ValueError("not a list of strings")
    return value


def _span_from_json(value) -> Span:
    if type(value) is not list or len(value) != 4 or not {int}.issuperset(map(type, value)):
        raise ValueError("not a span")
    return Span(*value)


def _refs_from_json(value) -> References:
    used, called, bases, bound = map(_strings, value)
    return References(frozenset(used), frozenset(called), frozenset(bases), tuple(bound))


def _record_from_json(row, file: SourceFile) -> SymbolRecord:
    name, kind, span, *refs = row
    _strings([name, kind])
    span = _span_from_json(span)
    return SymbolRecord(name, kind, span, file.span_text(span), _refs_from_json(refs))


def _import_from_json(row) -> ImportRecord:
    module_path, names, span = row
    _strings([module_path])
    bound_names = tuple((symbol, alias) for symbol, alias in map(_strings, names))
    return ImportRecord(module_path, bound_names, _span_from_json(span))


def facts_from_json(entry, file: SourceFile) -> FileFacts | None:
    """The facts ``facts_to_json`` wrote for ``file``, each record's code cut
    from ``file``'s text by its span; None when ``entry`` is malformed."""
    try:
        if entry["path"] != file.path:
            return None
        records = dict(enumerate(_record_from_json(row, file) for row in entry["records"]))
        return FileFacts(
            file=file,
            definitions=tuple(records[i] for i in entry["definitions"]),
            functions=tuple(records[i] for i in entry["functions"]),
            imports=tuple(map(_import_from_json, entry["imports"])),
            span=_file_span(file),
            refs=_refs_from_json(entry["refs"]),
        )
    except (KeyError, TypeError, ValueError):
        return None


def definitions_before(facts: FileFacts, line: int) -> list[SymbolRecord]:
    """Module-scope functions, classes and assigned variables whose
    definition ends strictly before ``line``; redefinitions keep the latest
    occurrence, output in source order."""
    latest: dict[str, SymbolRecord] = {}
    for record in facts.definitions:
        if record.def_span.end_line < line:
            latest[record.name] = record
    return sorted(latest.values(), key=lambda r: (r.def_span.start_line, r.def_span.start_col))


def reference_sets(node: SyntaxNode) -> References:
    """What ``node``'s code references and binds, in one pass over the subtree.

    Each name's position is judged from its parent while walking down: the
    walk does not enter attribute trailers (``.name``) or f-string
    conversions, skips the name of a keyword argument, and marks the
    parenthesised children of a class definition as its base list.
    """
    used: set[str] = set()
    called: set[str] = set()
    bases: set[str] = set()
    bound: dict[str, None] = {}
    in_bases = False
    stack: list[SyntaxNode | None] = [node]
    while stack:
        current = stack.pop()
        if current is None:  # a class base list starts or ends here
            in_bases = not in_bases
            continue
        kind = current.kind
        children = current.children
        if not children:
            if kind == "name" and current.value:
                if current.is_def:
                    bound.setdefault(current.value)
                else:
                    used.add(current.value)
                    if in_bases:
                        bases.add(current.value)
            continue
        if kind in ("import_name", "import_from"):
            for leaf in current.leaves():
                if leaf.kind == "name" and leaf.is_def and leaf.value:
                    bound.setdefault(leaf.value)
            continue
        if kind == "fstring_conversion" or (kind == "trailer" and children[0].value == "."):
            continue
        if kind == "classdef":
            values = [child.value for child in children]
            if "(" in values and ")" in values:
                # 'class' NAME '(' bases ')' ':' block, pushed in reverse
                lo, hi = values.index("(") + 1, values.index(")")
                stack.extend(reversed(children[hi:]))
                stack.append(None)
                stack.extend(reversed(children[lo:hi]))
                stack.append(None)
                children = children[:lo]
        elif kind == "argument" and len(children) >= 2 and children[1].value == "=" and children[0].is_leaf:
            children = children[1:]
        elif kind in ("atom_expr", "power") and len(children) >= 2:
            head, trailer = children[0], children[1]
            if (
                head.kind == "name"
                and not head.is_def
                and trailer.kind == "trailer"
                and trailer.children[0].value == "("
            ):
                called.add(head.value or "")
        stack.extend(reversed(children))
    return References(frozenset(used), frozenset(called), frozenset(bases), tuple(bound))


def _resolve_relative(path: str, level: int, tail: str) -> str | None:
    # level 1 is the file's own package: its path minus the file name
    parts = PurePosixPath(path).with_suffix("").parts
    if level > len(parts):
        return None
    joined = ".".join(parts[: len(parts) - level])
    if tail:
        return f"{joined}.{tail}" if joined else tail
    return joined or None


def imports_of(tree: SyntaxTree) -> list[ImportRecord]:
    """All import statements in the file, one record per imported module, in
    source order.

    Relative imports are resolved against the file's package path (the
    ``SourceFile.path`` is assumed repository-relative); unresolvable levels
    keep their leading dots and will classify as external.
    """
    records: list[ImportRecord] = []
    for pnode in _statement_nodes(tree.parso_module, "type", {"import_name", "import_from"}):
        span = _parso_span(pnode)
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
    return records
