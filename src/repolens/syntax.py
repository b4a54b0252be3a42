"""Error-tolerant Python parsing and symbol-level queries.

This module holds both parse rules of the package.

:func:`parse` runs parso and keeps its tree as it is: ``SyntaxTree.root`` is
parso's module node. parso keeps parsing through syntax errors and surfaces
the broken region as ``error_node`` -- exactly what an unfinished file with
a cursor in the middle looks like. These trees serve the file facts alone.
parso is imported and its grammar generated on the first parse, not at
import, so a run that parses no file facts (``repolens index``, ``--help``,
a ``complete`` whose facts are stored) loads neither.

:func:`_parsed` runs the standard library's ``ast`` through a bounded repair
(``_closing``) that completes a fragment cut at a cursor. Its trees serve
the index's AST paths (``retrieval.line_ast_paths``), the query's, and the
control-flow sketch (``funcflow.build_cfg``).

Analyzers read parso's nodes through three helpers, which hide its layout:
  * :func:`children` is a node's retained children: ``newline`` and
    ``endmarker`` leaves and a ``simple_stmt``'s ``;`` are dropped,
    ``simple_stmt`` is spliced into its parent, and an
    ``async_funcdef``/``async_stmt`` stands for its inner statement, whose
    children it takes after the ``async`` keyword; a leaf has none
  * :func:`kind_of` is parso's type name (``file_input``, ``funcdef``,
    ``suite``, ``expr_stmt``, ``name``, ...), the inner statement's for an
    async wrapper
  * :func:`span` runs from the first retained leaf's start to the last
    retained leaf's end; lines and columns are 0-based internally (the CLI
    converts at the edge)

The walks over a tree keep their own stacks, so a deeply nested expression
(thousands of levels, which CPython compiles) cannot exhaust Python's
recursion limit.

:func:`file_facts` reads what the analyses need off one tree and drops the
tree; :func:`definitions_before` and ``funcflow.local_slice`` answer each
cursor from those records, so one parse serves every cursor in a file.
:func:`facts_to_json` and :func:`facts_from_json` carry the facts across
processes without the text: each record's code is cut from the file by its
span when it is read back.
"""

from __future__ import annotations

import ast
import io
import keyword
import re
import tokenize
import warnings
from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate
from pathlib import Path, PurePosixPath
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from parso.tree import NodeOrLeaf

_PYTHON_GRAMMAR_VERSION = "3.10"

_DROPPED_LEAVES = frozenset({"newline", "endmarker"})
_ASYNC_WRAPPERS = frozenset({"async_funcdef", "async_stmt"})


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
class SyntaxTree:
    root: NodeOrLeaf  # parso's module node
    file: SourceFile


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
    import parso  # imported on the first parse, so a run that parses nothing never loads it

    return parso.load_grammar(version=_PYTHON_GRAMMAR_VERSION)


def parse(file: SourceFile) -> SyntaxTree:
    """Parse ``file`` with parso, recovering from syntax errors.

    Raises ``ValueError`` for text nested too deeply for parso's error
    recovery, which recurses one frame per nesting level.
    """
    try:
        try:
            module = _grammar().parse(file.text, error_recovery=True)
        except RecursionError:
            # parso accepts a last line without its newline through error
            # recovery; a last line nested too deeply for that is parsed
            # with its newline
            if file.text.endswith("\n"):
                raise
            module = _grammar().parse(file.text + "\n", error_recovery=True)
    except RecursionError as err:
        raise ValueError(f"{file.path} is nested too deeply to parse") from err
    return SyntaxTree(root=module, file=file)


def children(node: NodeOrLeaf) -> list[NodeOrLeaf]:
    """``node``'s retained children, in source order (see the module docstring)."""
    kids = getattr(node, "children", None)
    if kids is None:
        return []
    out = []
    for child in kids:
        kind = child.type
        if kind == "simple_stmt":
            # its statements, without the ';' separators and the newline
            out.extend(c for c in child.children if c.type not in _DROPPED_LEAVES and not _is_semicolon(c))
        elif kind not in _DROPPED_LEAVES:
            out.append(child)
    if node.type in _ASYNC_WRAPPERS:
        inner = _async_inner(node)
        if inner is not None:
            return [child for child in out if child is not inner] + children(inner)
    return out


def kind_of(node: NodeOrLeaf) -> str:
    """parso's type name of ``node``; an async wrapper takes its inner statement's."""
    if node.type in _ASYNC_WRAPPERS:
        inner = _async_inner(node)
        if inner is not None:
            return inner.type
    return node.type


def span(node: NodeOrLeaf) -> Span:
    """From the first retained leaf's start to the last one's end;
    ``Span(0, 0, 0, 0)`` for a node with no retained leaf (an empty file's root)."""
    first = last = node
    while kids := children(first):
        first = kids[0]
    while kids := children(last):
        last = kids[-1]
    if hasattr(first, "children"):
        return Span(0, 0, 0, 0)
    (sl, sc), (el, ec) = first.start_pos, last.end_pos
    return Span(sl - 1, sc, el - 1, ec)


def _is_semicolon(leaf: NodeOrLeaf) -> bool:
    return leaf.type == "operator" and leaf.value == ";"


def _async_inner(node: NodeOrLeaf) -> NodeOrLeaf | None:
    return next((child for child in node.children if hasattr(child, "children")), None)


class _Defines(dict):
    """Name leaf -> its ``is_definition()``, asked of parso once per leaf:
    parso climbs the tree for each answer, and one ``file_facts`` walks
    most names several times (the module's reference sets, each enclosing
    definition's, each module-level statement's targets)."""

    def __missing__(self, name: NodeOrLeaf) -> bool:
        self[name] = answer = name.is_definition()
        return answer


def _symbol_from_definition(file: SourceFile, node: NodeOrLeaf, defines: _Defines) -> SymbolRecord | None:
    """Record of a function or class definition node; None if it has no name."""
    name = next((child for child in children(node) if child.type == "name"), None)
    if name is None:
        return None
    def_span = span(node)
    return SymbolRecord(
        name=name.value,
        sym_kind="function" if kind_of(node) == "funcdef" else "class",
        def_span=def_span,
        code=file.span_text(def_span),
        refs=reference_sets(node, defines),
    )


# The only nodes that can hold a retained statement: parso's grammar puts
# them in these, and error recovery in ``error_node``.
_STATEMENT_CONTAINERS = frozenset({
    "file_input", "suite", "if_stmt", "while_stmt", "for_stmt", "try_stmt", "with_stmt",
    "funcdef", "classdef", "decorated", "error_node",
})


def _statement_nodes(root: NodeOrLeaf, kinds: set[str]) -> Iterator[NodeOrLeaf]:
    """The nodes of ``kinds`` under ``root`` in walk order, visiting only
    statement containers."""
    stack = [root]
    while stack:
        node = stack.pop()
        kind = kind_of(node)
        if kind in kinds:
            yield node
        if kind in _STATEMENT_CONTAINERS:
            stack.extend(reversed(children(node)))


# Comprehension variables and lambda parameters bind in a scope of their own.
_NESTED_SCOPES = frozenset({"sync_comp_for", "comp_for", "lambdef"})


def _module_targets(stmt: NodeOrLeaf, defines: _Defines) -> Iterator[str]:
    """Names a module-level assignment binds in the module's scope, in
    source order: ``reference_sets(stmt).bound`` without the variables of
    comprehensions and lambdas."""
    stack = [stmt]
    while stack:
        node = stack.pop()
        if node.type == "name":
            if node.value and defines[node]:
                yield node.value
        elif node.type in _NESTED_SCOPES or (node.type == "trailer" and node.children[0].value == "."):
            continue  # a nested scope, or ``.name`` (an attribute target binds nothing)
        else:
            stack.extend(reversed(getattr(node, "children", ())))


def _module_definitions(tree: SyntaxTree, defines: _Defines) -> Iterator[SymbolRecord]:
    """Module-scope functions, classes and assigned variables, in source
    order, redefinitions included."""
    for child in children(tree.root):
        for stmt in children(child) if kind_of(child) == "decorated" else (child,):
            kind = kind_of(stmt)
            if kind in ("funcdef", "classdef"):
                record = _symbol_from_definition(tree.file, stmt, defines)
                if record:
                    yield record
            elif kind == "expr_stmt":
                stmt_span = span(stmt)
                code = tree.file.span_text(stmt_span)
                refs = reference_sets(stmt, defines)
                for name in _module_targets(stmt, defines):
                    yield SymbolRecord(name=name, sym_kind="variable", def_span=stmt_span, code=code, refs=refs)


def file_facts(tree: SyntaxTree) -> FileFacts:
    """Read the facts of ``tree``'s file; the tree itself is not kept."""
    file = tree.file
    defines = _Defines()
    definitions = tuple(_module_definitions(tree, defines))
    # a module-level function is one record in both tuples
    top = {record.def_span: record for record in definitions if record.sym_kind == "function"}
    functions = (
        top.get(span(node)) or _symbol_from_definition(file, node, defines)
        for node in _statement_nodes(tree.root, {"funcdef"})
    )
    return FileFacts(
        file=file,
        definitions=definitions,
        functions=tuple(record for record in functions if record),
        imports=tuple(imports_of(tree)),
        span=_file_span(file),
        refs=reference_sets(tree.root, defines),
    )


def _file_span(file: SourceFile) -> Span:
    last = file.line_count - 1
    return Span(0, 0, last, len(file.text) - file.line_index[last])


def _span_to_json(value: Span) -> list[int]:
    return [value.start_line, value.start_col, value.end_line, value.end_col]


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
            records.append([record.name, record.sym_kind, _span_to_json(record.def_span), *_refs_to_json(record.refs)])
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
    name, kind, value, *refs = row
    _strings([name, kind])
    def_span = _span_from_json(value)
    return SymbolRecord(name, kind, def_span, file.span_text(def_span), _refs_from_json(refs))


def _import_from_json(row) -> ImportRecord:
    module_path, names, where = row
    _strings([module_path])
    bound_names = tuple((symbol, alias) for symbol, alias in map(_strings, names))
    return ImportRecord(module_path, bound_names, _span_from_json(where))


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


def reference_sets(node: NodeOrLeaf, defines: _Defines | None = None) -> References:
    """What ``node``'s code references and binds, in one pass over the subtree.

    Each name's position is judged from its parent while walking down: the
    walk does not enter attribute trailers (``.name``) or f-string
    conversions, skips the name of a keyword argument, and marks the
    parenthesised children of a class definition as its base list. Layout
    leaves hold no names and the async wrappers play no part here, so the
    walk reads parso's children as they are. ``defines`` keeps each name's
    ``is_definition()`` across the calls of one ``file_facts``.
    """
    if defines is None:
        defines = _Defines()
    used: set[str] = set()
    called: set[str] = set()
    bases: set[str] = set()
    bound: dict[str, None] = {}
    in_bases = False
    stack: list[NodeOrLeaf | None] = [node]
    while stack:
        current = stack.pop()
        if current is None:  # a class base list starts or ends here
            in_bases = not in_bases
            continue
        kind = current.type
        kids = getattr(current, "children", None)
        if kids is None:
            if kind == "name" and current.value:
                if defines[current]:
                    bound.setdefault(current.value)
                else:
                    used.add(current.value)
                    if in_bases:
                        bases.add(current.value)
            continue
        if kind in ("import_name", "import_from"):
            for name in current.get_defined_names():
                bound.setdefault(name.value)
            continue
        if kind == "fstring_conversion" or (kind == "trailer" and kids[0].value == "."):
            continue
        if kind == "classdef":
            values = [getattr(child, "value", None) for child in kids]
            if "(" in values and ")" in values:
                # 'class' NAME '(' bases ')' ':' block, pushed in reverse
                lo, hi = values.index("(") + 1, values.index(")")
                stack.extend(reversed(kids[hi:]))
                stack.append(None)
                stack.extend(reversed(kids[lo:hi]))
                stack.append(None)
                kids = kids[:lo]
        elif kind == "argument" and len(kids) >= 2 and getattr(kids[1], "value", None) == "=":
            if kids[0].type == "name":
                kids = kids[1:]
        elif kind in ("atom_expr", "power") and len(kids) >= 2:
            head, trailer = kids[0], kids[1]
            if (
                head.type == "name"
                and trailer.type == "trailer"
                and trailer.children[0].value == "("
                and not defines[head]
            ):
                called.add(head.value)
        stack.extend(reversed(kids))
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
    for pnode in _statement_nodes(tree.root, {"import_name", "import_from"}):
        import_span = span(pnode)
        if pnode.type == "import_name":
            for path, defined in zip(pnode.get_paths(), pnode.get_defined_names()):
                dotted = ".".join(p.value for p in path)
                records.append(
                    ImportRecord(module_path=dotted, bound_names=((dotted, defined.value),), import_span=import_span)
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
        records.append(ImportRecord(module_path=module_path, bound_names=bound, import_span=import_span))
    return records


def _ast_parse(text: str, filename: str) -> ast.Module:
    """``ast.parse``, its warnings (an invalid escape such as "\\d") silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ast.parse(text, filename)


def _parsed(path: str, text: str) -> tuple[ast.Module | None, list[int]]:
    """The ``ast`` tree of ``text``, the file at ``path``, from at most three
    ``ast.parse`` calls, and the rows of the lines the tree holds: ``rows[n]``
    is the 0-based line, lines ending at "\\n" alone, that holds ``ast``'s
    line ``n + 1``. ``ast`` also ends a line at a lone "\\r", so a text
    holding one is parsed with every "\\r" line end made a "\\n". A line
    past ``len(rows)`` is one the repair below appended.

    The lines are first dedented by the indentation of the first line that
    holds code, a function's def line in a query. A text ``ast`` rejects is
    then completed (``_closing``): a placeholder name and the closers of
    open brackets finish its last line, and a dangling block header or
    ``try`` is closed. If that text is rejected too, the lines from the
    error line on are cut once and the rest is completed the same way. A
    text nothing of which parses, or that ``ast`` cannot take at all (a NUL
    byte, a nesting too deep for its parser), gives ``(None, [])``.
    """

    ends = re.findall(r"\r\n?|\n", text)
    rows = list(accumulate((end != "\r" for end in ends), initial=0))
    if len(ends) > rows[-1]:
        text = re.sub(r"\r\n?", "\n", text)
    lines = text.split("\n")
    code = next((line for line in lines if line.strip() and not line.lstrip().startswith("#")), "")
    indent = code[: len(code) - len(code.lstrip())]
    if indent:
        lines = [line.removeprefix(indent) for line in lines]
        text = "\n".join(lines)
    try:
        try:
            return _ast_parse(text, path), rows
        except SyntaxError as err:
            error = err.lineno
        closing = _closing(lines)
        if closing:
            try:
                return _ast_parse(text + closing, path), rows
            except SyntaxError as err:
                error = err.lineno
        if not error or error < 2:
            return None, []
        lines = lines[: min(error, len(lines)) - 1]
        return _ast_parse("\n".join(lines) + _closing(lines), path), rows[: len(lines)]
    except (SyntaxError, ValueError, RecursionError, MemoryError):
        return None, []


_CLOSERS = {"(": ")", "[": "]", "{": "}"}
_LAYOUT_TOKENS = frozenset(
    {tokenize.NEWLINE, tokenize.NL, tokenize.COMMENT, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
)
# keywords after which an expression or a simple statement can end
_FINAL_KEYWORDS = frozenset({"True", "False", "None", "pass", "break", "continue", "return", "yield", "raise"})
# keywords that open a compound statement's header, which ends at a ":"
_HEADER_KEYWORDS = frozenset(
    {"if", "elif", "else", "while", "for", "try", "except", "finally", "with", "def", "class", "async"}
)


def _closing(lines: list[str]) -> str:
    """What completes ``"\\n".join(lines)``: a placeholder name when its
    last token wants an operand, the closers of the brackets still open
    (read with ``tokenize``, so a bracket in a string or comment does not
    count), the ``:`` a block header lacks, a newline, a ``pass`` body for a
    dangling block header, and a ``finally: pass`` for each ``try`` that has
    no handler yet. Empty when the text ends complete."""

    stack: list[str] = []
    tries: list[str] = []  # indentation of each open ``try`` without a handler
    last = None
    indent = ""  # indentation of the current logical line
    header = False  # whether the current logical line opens a block
    body = False  # whether that header's ":" came
    starting = True
    try:
        for tok in tokenize.generate_tokens(io.StringIO("\n".join(lines) + "\n").readline):
            kind, string = tok.type, tok.string
            if kind == tokenize.NEWLINE:
                starting = True
            if kind in _LAYOUT_TOKENS:
                continue
            if starting:
                starting = False
                row, col = tok.start
                indent = lines[row - 1][:col]
                header, body = kind == tokenize.NAME and string in _HEADER_KEYWORDS, False
                while tries and len(tries[-1]) >= len(indent):
                    if tries.pop() == indent and string in ("except", "finally"):
                        break
                if string == "try":
                    tries.append(indent)
            elif kind == tokenize.OP and string == ":" and header and not stack:
                body = True
            if kind == tokenize.OP and string in _CLOSERS:
                stack.append(_CLOSERS[string])
            elif kind == tokenize.OP and string in ")]}" and stack:
                stack.pop()
            last = tok
    except (tokenize.TokenError, SyntaxError):
        pass
    if last is None:
        return ""
    ends_header = body and last.string == ":" and not stack  # it wants a body, not an operand
    if last.type == tokenize.OP:
        # a trailing "," is valid
        wants_operand = last.string not in (")", "]", "}", "...", ",") and not ends_header
    else:
        wants_operand = (
            last.type == tokenize.NAME
            and keyword.iskeyword(last.string)
            and last.string not in _FINAL_KEYWORDS
            and not (header and last.string in ("else", "try", "finally") and last.start[1] == len(indent))
        )
    tail = ("_" if wants_operand else "") + "".join(reversed(stack))
    if header and not body:
        tail += ":"
    dangling = header and (not body or ends_header)
    if not tail and not dangling and not tries:
        return ""
    tail += "\n"
    if dangling:
        tail += f"{indent} pass\n"
    return tail + "".join(f"{at}finally: pass\n" for at in reversed(tries))
