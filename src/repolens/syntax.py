"""Error-tolerant Python parsing and symbol-level queries.

Every tree of the package comes from the standard library's ``ast``, through
:func:`_parsed`: a bounded repair (``_closing``) completes a text ``ast``
rejects, such as a fragment cut at a cursor, and failing that the text is cut
before its error line. A query's and a slice's trees come from it directly
(``retrieval.ast_paths_of``, ``funcflow.build_cfg``); a whole file's come
from :func:`parse`, and serve both its index windows
(``retrieval.line_ast_paths``) and its facts (:func:`file_facts`).

Lines and columns are 0-based internally (the CLI converts at the edge).
Lines end at "\\n" alone, columns count characters: ``ast``'s own lines
(which also end at a lone "\\r") are mapped through ``SyntaxTree.rows``, and
its columns, which count UTF-8 bytes, are counted again in characters.

The walks over a tree keep their own stacks, so a deeply nested expression
(thousands of levels, which CPython compiles) cannot exhaust Python's
recursion limit.

:func:`file_facts` reads what the analyses need off one tree, every
reference set in one walk over its nodes, and drops the tree;
:func:`definitions_before` and ``funcflow.local_slice`` answer each cursor
from those records, so one parse serves every cursor in a file.
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
from itertools import accumulate
from pathlib import Path, PurePosixPath
from typing import Iterable, Iterator


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
    """A file's ``ast`` tree as :func:`_parsed` gives it: ``root`` is None
    when nothing of the file parses, ``rows[n]`` is the file's line that
    holds ``ast``'s line ``n + 1``, and ``error`` is the first line ``ast``
    rejected, None when the text parsed as it is."""

    root: ast.Module | None
    rows: list[int]
    error: int | None
    file: SourceFile


@dataclass(frozen=True, slots=True)
class References:
    """Names a piece of code reads, calls directly, inherits from, and binds.

    ``used``: names in reference position, and the names of ``global`` and
    ``nonlocal`` statements. Definitions, attribute names after a dot,
    keyword-argument names and import paths are excluded, so the base of
    ``pd.read_csv`` counts while ``read_csv`` does not.
    ``called``: names called directly (``f(...)`` and ``await f(...)``, not
    ``a.f(...)``).
    ``bases``: names read in the base lists of the classes it defines.
    ``bound``: names it binds -- parameters; assignment, loop, ``with``,
    ``except``, ``del`` and comprehension targets; nested definition names;
    import aliases -- in source order, each once. An attribute target
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
    every named function, nested ones too, in source order; the imports; and
    the whole file's span and the module root's reference sets. ``error`` is
    the first line ``ast`` rejected, None when the file parsed as it is; the
    facts then come from what :func:`_parsed` kept of it."""

    file: SourceFile
    definitions: tuple[SymbolRecord, ...]
    functions: tuple[SymbolRecord, ...]
    imports: tuple[ImportRecord, ...]
    span: Span
    refs: References
    error: int | None = None


def parse(file: SourceFile) -> SyntaxTree:
    """The ``ast`` tree of the whole ``file`` (see :func:`_parsed`)."""
    return SyntaxTree(*_parsed(file.path, file.text), file)


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
_ASSIGNS = (ast.Assign, ast.AugAssign, ast.AnnAssign)


class _Refs:
    """Reference sets being collected; ``bound`` maps each name to the
    position of its first binding."""

    __slots__ = ("used", "called", "bases", "bound")

    def __init__(self) -> None:
        self.used: set[str] = set()
        self.called: set[str] = set()
        self.bases: set[str] = set()
        self.bound: dict[str, tuple[int, int]] = {}

    def frozen(self) -> References:
        bound = tuple(sorted(self.bound, key=self.bound.get))
        return References(frozenset(self.used), frozenset(self.called), frozenset(self.bases), bound)


def _bind(sinks: tuple[_Refs, ...], name: str, node: ast.AST) -> None:
    where = (node.lineno, node.col_offset)
    for sink in sinks:
        first = sink.bound.get(name)
        if first is None or where < first:
            sink.bound[name] = where


# the fields of ``ast`` nodes that hold no node, and ``ctx``, whose
# ``expr_context`` no walk reads
_LEAF_FIELDS = frozenset(
    "id attr arg name module level kind type_comment conversion is_async simple rest kwd_attrs ctx".split()
)


class _Fields(dict):
    """Each ``ast`` node kind's other fields, the ones a walk reads."""

    def __missing__(self, kind: type) -> tuple[str, ...]:
        self[kind] = fields = tuple(name for name in kind._fields if name not in _LEAF_FIELDS)
        return fields


_FIELDS = _Fields({ast.Constant: ()})
# the kinds ``_collect`` reads more of than their child nodes
_NAMING = frozenset(
    {ast.Call, *_DEFS, ast.ClassDef, *_ASSIGNS, ast.arg, ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal}
    | {ast.ExceptHandler, ast.MatchAs, ast.MatchStar, ast.MatchMapping}
)


def _collect(
    start: ast.AST, sinks: tuple[_Refs, ...], owners: dict[int, _Refs], repair: tuple[int, int] | None = None
) -> None:
    """Add the names of ``start``'s subtree to ``sinks``, and those under a
    node of ``owners`` (a definition or an assignment) to its own sink too.
    A definition's decorators are read around it, not as part of it. A name
    at or after ``repair``, where ``_parsed``'s repair starts, is its
    placeholder and is left out."""
    stack = [(start, sinks, False)]
    pop, push = stack.pop, stack.append
    repair_line = repair[0] if repair else float("inf")
    while stack:
        node, sinks, in_bases = pop()
        kind = type(node)
        if kind is ast.Name:
            if node.lineno >= repair_line and (node.lineno, node.col_offset) >= repair:
                continue
            name = node.id
            if type(node.ctx) is ast.Load:
                for sink in sinks:
                    sink.used.add(name)
                    if in_bases:
                        sink.bases.add(name)
            else:  # a Store or a Del target
                _bind(sinks, name, node)
            continue
        if kind in _NAMING:
            if kind is ast.Call:
                if type(node.func) is ast.Name:
                    for sink in sinks:
                        sink.called.add(node.func.id)
            elif kind in _DEFS or kind is ast.ClassDef:
                for decorator in node.decorator_list:
                    push((decorator, sinks, False))
                own = owners.get(id(node))
                if own is not None:
                    sinks = (*sinks, own)
                _bind(sinks, node.name, node)
                for child in reversed(node.body):
                    push((child, sinks, False))
                if kind is ast.ClassDef:
                    for base in reversed(node.bases + node.keywords):
                        push((base, sinks, True))
                else:
                    if node.returns is not None:
                        push((node.returns, sinks, False))
                    push((node.args, sinks, False))
                continue
            elif kind in _ASSIGNS:
                own = owners.get(id(node))
                if own is not None:
                    sinks = (*sinks, own)
            elif kind is ast.arg:
                _bind(sinks, node.arg, node)
            elif kind is ast.Import or kind is ast.ImportFrom:
                for alias in node.names:
                    if alias.name != "*":
                        local = alias.asname or (alias.name.split(".")[0] if kind is ast.Import else alias.name)
                        _bind(sinks, local, alias)
                continue
            elif kind is ast.Global or kind is ast.Nonlocal:
                for sink in sinks:
                    sink.used.update(node.names)
                continue
            elif kind is ast.ExceptHandler or kind is ast.MatchAs or kind is ast.MatchStar:
                if node.name:
                    _bind(sinks, node.name, node)
            elif kind is ast.MatchMapping and node.rest:
                _bind(sinks, node.rest, node)
        for name in _FIELDS[kind]:
            value = getattr(node, name)
            if type(value) is list:
                for child in reversed(value):
                    if isinstance(child, ast.AST):
                        push((child, sinks, in_bases))
            elif isinstance(value, ast.AST):
                push((value, sinks, in_bases))


def reference_sets(node: ast.AST) -> References:
    """What the code of ``node``'s subtree references and binds, in one walk
    over it. Each name's role is read off its node: a ``Name``'s context, or
    the field (a definition's, a parameter's, an alias's, a handler's) that
    holds it. Attribute names, keyword-argument names, import paths and
    f-string conversions are strings, not names, so none is counted."""
    refs = _Refs()
    _collect(node, (refs,), {})
    return refs.frozen()


def _inner(stmt: ast.stmt) -> list[ast.stmt]:
    """The statements of ``stmt``'s blocks, in source order."""
    kids: list[ast.stmt] = []
    for name in ("body", "handlers", "orelse", "finalbody", "cases"):
        for child in getattr(stmt, name, ()):
            kids.extend(child.body if isinstance(child, (ast.excepthandler, ast.match_case)) else (child,))
    return kids


def _statements(root: ast.Module | None) -> Iterator[ast.stmt]:
    """Every statement under ``root``, in source order, parents first."""
    stack = list(reversed(root.body)) if root is not None else []
    while stack:
        stmt = stack.pop()
        yield stmt
        stack.extend(reversed(_inner(stmt)))


def _module_targets(stmt: ast.stmt) -> list[str]:
    """Names a module-level assignment binds in the module's scope, in
    source order, each occurrence: its ``Store`` names but those of
    comprehensions and lambdas, which bind in scopes of their own."""
    found = []
    stack: list[ast.AST] = [stmt]
    while stack:
        node = stack.pop()
        if type(node) is ast.Name and type(node.ctx) is ast.Store:
            found.append((node.lineno, node.col_offset, node.id))
        elif type(node) is not ast.Lambda:
            for name, value in ast.iter_fields(node):
                if name != "generators":
                    children = value if type(value) is list else [value]
                    stack += [child for child in children if isinstance(child, ast.AST)]
    return [name for *_, name in sorted(found)]


class _Places:
    """Turns ``ast`` positions in ``tree`` into ``Span`` coordinates of its
    file: a position on a line the repair appended becomes the end of the
    last line kept. ``origins[n]``, when there are any, is the column of
    ``rows[n]`` at which ``ast``'s line ``n + 1`` starts: past a lone "\\r"
    or past the indentation ``_parsed`` removed."""

    def __init__(self, tree: SyntaxTree) -> None:
        self.file, self.rows, self.origins = tree.file, tree.rows, None
        text = tree.file.text
        lines = (re.sub(r"\r\n?", "\n", text) if "\r" in text else text).split("\n")
        indent = _indentation(lines)
        if "\r" in text or indent:
            starts = [0, *(match.end() for match in re.finditer(r"\r\n?|\n", text))]
            self.origins = [
                starts[n] - tree.file.line_index[row] + (len(indent) if lines[n].startswith(indent) else 0)
                for n, row in enumerate(tree.rows)
            ]

    def point(self, lineno: int, col: int) -> tuple[int, int]:
        if lineno > len(self.rows):
            line = self.rows[-1]
            return line, len(self.file.line_text(line))
        line = self.rows[lineno - 1]
        text = self.file.line_text(line)
        origin = self.origins[lineno - 1] if self.origins else 0
        if not text.isascii():  # ast's column counts UTF-8 bytes
            col = len(text[origin:].encode("utf-8")[:col].decode("utf-8", "ignore"))
        return line, min(origin + col, len(text))

    def span(self, node: ast.stmt) -> Span:
        """From ``node``'s start to the end of its last simple statement,
        before any ";" after it."""
        last = node
        while kids := _inner(last):
            last = kids[-1]
        return Span(*self.point(node.lineno, node.col_offset), *self.point(last.end_lineno, last.end_col_offset))

    def repair(self) -> tuple[int, int]:
        """The ``ast`` position at which the repair's text starts: the end
        of the last line kept."""
        text = self.file.line_text(self.rows[-1])
        origin = self.origins[-1] if self.origins else 0
        return len(self.rows), len(text[origin:].encode("utf-8"))


def _imports(statements: Iterable[ast.stmt], path: str, places: _Places) -> Iterator[ImportRecord]:
    for stmt in statements:
        if type(stmt) is ast.Import:
            import_span = places.span(stmt)
            for alias in stmt.names:
                bound = ((alias.name, alias.asname or alias.name.split(".")[0]),)
                yield ImportRecord(module_path=alias.name, bound_names=bound, import_span=import_span)
        elif type(stmt) is ast.ImportFrom:
            tail = stmt.module or ""
            module_path = _resolve_relative(path, stmt.level, tail) if stmt.level else tail
            if stmt.names[0].name == "*":
                bound = (("*", "*"),)
            else:
                bound = tuple((alias.name, alias.asname or alias.name) for alias in stmt.names)
            yield ImportRecord(module_path=module_path, bound_names=bound, import_span=places.span(stmt))


def imports_of(tree: SyntaxTree) -> list[ImportRecord]:
    """All import statements in the file, one record per imported module, in
    source order.

    Relative imports are resolved against the file's package path (the
    ``SourceFile.path`` is assumed repository-relative); unresolvable levels
    keep their leading dots and will classify as external.
    """
    return list(file_facts(tree).imports)


def file_facts(tree: SyntaxTree) -> FileFacts:
    """Read the facts of ``tree``'s file; the tree itself is not kept. The
    reference sets of the module and of every record come from one walk."""
    file = tree.file
    statements = list(_statements(tree.root))
    body = tree.root.body if tree.root is not None else []
    owners = {id(stmt): _Refs() for stmt in statements if type(stmt) in _DEFS}
    owners.update((id(stmt), _Refs()) for stmt in body if type(stmt) is ast.ClassDef or type(stmt) in _ASSIGNS)
    places = _Places(tree)
    refs = _Refs()
    if tree.root is not None:
        _collect(tree.root, (refs,), owners, places.repair() if tree.error is not None else None)

    def records(node: ast.stmt, kind: str, names: list[str]) -> list[SymbolRecord]:
        def_span = places.span(node)
        code, node_refs = file.span_text(def_span), owners[id(node)].frozen()
        return [SymbolRecord(name, kind, def_span, code, node_refs) for name in names]

    # a module-level function is one record in both tuples
    functions = {id(stmt): records(stmt, "function", [stmt.name])[0] for stmt in statements if type(stmt) in _DEFS}
    definitions: list[SymbolRecord] = []
    for stmt in body:
        if type(stmt) in _DEFS:
            definitions.append(functions[id(stmt)])
        elif type(stmt) is ast.ClassDef:
            definitions += records(stmt, "class", [stmt.name])
        elif type(stmt) in _ASSIGNS:
            definitions += records(stmt, "variable", _module_targets(stmt))
    return FileFacts(
        file=file,
        definitions=tuple(definitions),
        functions=tuple(functions.values()),
        imports=tuple(_imports(statements, file.path, places)),
        span=_file_span(file),
        refs=refs.frozen(),
        error=tree.error,
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
    ``definitions`` and ``functions`` (module-level functions) are stored
    once. ``error`` is written only when there is one."""
    slots: dict[int, int] = {}
    records: list[list] = []

    def slot(record: SymbolRecord) -> int:
        if id(record) not in slots:
            slots[id(record)] = len(records)
            records.append([record.name, record.sym_kind, _span_to_json(record.def_span), *_refs_to_json(record.refs)])
        return slots[id(record)]

    doc = {
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
    if facts.error is not None:
        doc["error"] = facts.error
    return doc


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
        if entry["path"] != file.path or type(entry.get("error", 0)) is not int:
            return None
        records = dict(enumerate(_record_from_json(row, file) for row in entry["records"]))
        return FileFacts(
            file=file,
            definitions=tuple(records[i] for i in entry["definitions"]),
            functions=tuple(records[i] for i in entry["functions"]),
            imports=tuple(map(_import_from_json, entry["imports"])),
            span=_file_span(file),
            refs=_refs_from_json(entry["refs"]),
            error=entry.get("error"),
        )
    except (KeyError, TypeError, ValueError, AttributeError):
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


def _resolve_relative(path: str, level: int, tail: str) -> str:
    """The module ``level`` dots and ``tail`` name from the file at ``path``;
    level 1 is the file's own package, its path minus the file name. Past
    the root, the name keeps its dots."""
    parts = PurePosixPath(path).with_suffix("").parts
    if level > len(parts):
        return "." * level + tail
    joined = ".".join(parts[: len(parts) - level])
    if tail:
        return f"{joined}.{tail}" if joined else tail
    return joined or "." * level


def _ast_parse(text: str, filename: str) -> ast.Module:
    """``ast.parse``, its warnings (an invalid escape such as "\\d") silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ast.parse(text, filename)


def _indentation(lines: list[str]) -> str:
    """The indentation of the first of ``lines`` that holds code."""
    code = next((line for line in lines if line.strip() and not line.lstrip().startswith("#")), "")
    return code[: len(code) - len(code.lstrip())]


def _parsed(path: str, text: str) -> tuple[ast.Module | None, list[int], int | None]:
    """The ``ast`` tree of ``text``, the file at ``path``, from at most three
    ``ast.parse`` calls; the rows of the lines the tree holds: ``rows[n]``
    is the 0-based line, lines ending at "\\n" alone, that holds ``ast``'s
    line ``n + 1``; and the row of the first line ``ast`` rejected, None
    when it took the text as it is. ``ast`` also ends a line at a lone
    "\\r", so a text holding one is parsed with every "\\r" line end made a
    "\\n". A line past ``len(rows)`` is one the repair below appended.

    The lines are first dedented by the indentation of the first line that
    holds code, a function's def line in a query. A text ``ast`` rejects is
    then completed (``_closing``): a placeholder name and the closers of
    open brackets finish its last line, and a dangling block header or
    ``try`` is closed. If that text is rejected too, the lines from the
    error line on are cut once and the rest is completed the same way. A
    text nothing of which parses, or that ``ast`` cannot take at all (a NUL
    byte, a nesting too deep for its parser), gives no tree and no rows; its
    error is on its first line when ``ast`` names none.
    """

    ends = re.findall(r"\r\n?|\n", text)
    rows = list(accumulate((end != "\r" for end in ends), initial=0))
    if len(ends) > rows[-1]:
        text = re.sub(r"\r\n?", "\n", text)
    lines = text.split("\n")
    indent = _indentation(lines)
    if indent:
        lines = [line.removeprefix(indent) for line in lines]
        text = "\n".join(lines)
    rejected = 0
    try:
        try:
            return _ast_parse(text, path), rows, None
        except SyntaxError as err:
            error = err.lineno
        rejected = rows[min(max(error or 1, 1), len(rows)) - 1]
        closing = _closing(lines)
        if closing:
            try:
                return _ast_parse(text + closing, path), rows, rejected
            except SyntaxError as err:
                error = err.lineno
        if not error or error < 2:
            return None, [], rejected
        lines = lines[: min(error, len(lines)) - 1]
        return _ast_parse("\n".join(lines) + _closing(lines), path), rows[: len(lines)], rejected
    except (SyntaxError, ValueError, RecursionError, MemoryError):
        return None, [], rejected


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
