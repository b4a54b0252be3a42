"""Syntax layer: parsing, spans, symbol and import queries.

Oracles here are independent of the implementation: expected spans are
hand-counted from fixture text, reference sets come from plain reads of
every ``ast`` node, and the facts are checked against parso (a different
parser entirely, kept as a test dependency) wherever the two must agree.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import parso
from hypothesis import example, given
from hypothesis import strategies as st

from repolens.funcflow import local_slice
from repolens.syntax import (
    References,
    SourceFile,
    Span,
    SyntaxTree,
    definitions_before,
    file_facts,
    imports_of,
    parse,
    reference_sets,
)

TESTS_DIR = Path(__file__).parent
CORPORA = TESTS_DIR.parent / "perfbench" / "corpora"

THREE_FUNCS = """\
def alpha():
    return 1


def beta(x):
    y = x + 1
    return y


def gamma():
    pass
"""

DEMO = """\
import os
import pandas as pd
from utils.helpers import process_data as pd_

MAX = 10
MAX = 20

def string_compare(a, b):
    return a == b

class Shape:
    kind = "square"

def top(path):
    local = os.path.join(path, "x")
    frame = pd.read_csv(local)
    out = process_data(frame, key=MAX)
"""

NESTED = """\
def outer(a):
    def inner(b):
        def innermost(c):
            return c + 1
        return innermost(b)
    return inner(a)

def plain():
    return 0
"""


def _tree(text, path="mod.py"):
    return parse(SourceFile.from_text(path, text))


def _facts(text, path="mod.py"):
    return file_facts(_tree(text, path))


def _owner(tree, line):
    """The owner record ``local_slice`` reports for ``line``."""
    return local_slice(file_facts(tree), line).owner


def test_parse_empty_file_has_empty_module_root():
    tree = _tree("")
    assert (tree.root.body, tree.rows, tree.error) == ([], [0], None)
    facts = file_facts(tree)
    assert (facts.definitions, facts.functions, facts.imports) == ((), (), ())
    assert facts.span == Span(0, 0, 0, 0)


def test_parse_single_assignment_spans_line_zero():
    tree = _tree("x = 1\n")
    assert [type(stmt) for stmt in tree.root.body] == [ast.Assign]
    assert [r.def_span for r in file_facts(tree).definitions] == [Span(0, 0, 0, 5)]


def test_parse_three_functions_hand_counted_spans():
    spans = [r.def_span for r in _facts(THREE_FUNCS).functions]
    got = [(s.start_line, s.end_line) for s in spans]
    assert got == [(0, 1), (4, 6), (9, 10)]


def test_parse_is_deterministic():
    a = _tree(DEMO)
    b = _tree(DEMO)
    assert ast.dump(a.root, include_attributes=True) == ast.dump(b.root, include_attributes=True)
    assert file_facts(a) == file_facts(b)
    assert [r.refs for r in file_facts(a).definitions] == [r.refs for r in file_facts(b).definitions]


def test_parse_survives_unfinished_assignment():
    # the text ends with the line ast rejects: the facts keep the lines before it
    facts = _facts("def f():\n    x = 1\n    result =\n")
    assert [(r.name, r.def_span) for r in facts.functions] == [("f", Span(0, 0, 1, 9))]
    assert facts.error == 2
    # the text ends inside that line: the repair completes it with a
    # placeholder name, which no reference set holds
    (owner,) = _facts("def f():\n    x = 1\n    result = ").functions
    assert owner.def_span == Span(0, 0, 2, 13)
    assert owner.refs.bound == ("f", "x", "result")
    assert "_" not in owner.refs.used


def test_line_index_is_strictly_increasing():
    src = SourceFile.from_text("m.py", DEMO)
    assert src.line_index[0] == 0
    assert list(src.line_index) == sorted(set(src.line_index))


def _scanned_line_index(text: str) -> tuple[int, ...]:
    """Oracle: the per-character scan ``SourceFile.from_text`` used to run."""
    idx = [0]
    for i, ch in enumerate(text):
        if ch == "\n":
            idx.append(i + 1)
    return tuple(idx)


@given(st.text(alphabet=st.sampled_from(["a", "é", " ", "\t", "\n", "\r"])))
@example("")
@example("no trailing newline")
@example("a\r\nb\r\n")
@example("\n\n")
def test_line_index_matches_character_scan(text):
    assert SourceFile.from_text("m.py", text).line_index == _scanned_line_index(text)


def _spans(facts):
    return [r.def_span for r in facts.definitions + facts.functions] + [r.import_span for r in facts.imports]


def test_every_span_within_text_bounds():
    for text in (DEMO, NESTED, "  x = 1\n  def f():\n    return 'é'\n", "a = 1\rdef f():\r\n    return 2\r"):
        src = SourceFile.from_text("m.py", text)
        for where in _spans(file_facts(parse(src))):
            start = src.offset(where.start_line, where.start_col)
            end = src.offset(where.end_line, where.end_col)
            assert 0 <= start <= end <= len(src.text)


def test_spans_count_characters_on_lines_ending_at_newline():
    """ast counts columns in UTF-8 bytes and ends a line at a lone "\\r"
    too; spans count characters on lines ending at "\\n" alone, so each
    record's code is its own text."""
    cases = {
        "é = 'ü'; import os\ndef f(): return 'ß'; x = 1;\n": ["é = 'ü'", *["def f(): return 'ß'; x = 1"] * 2],
        "a = 1\rdef f(x):\r\n    return 'é'\r\nb = 2\n": ["a = 1", "def f(x):\r\n    return 'é'", "b = 2", "def f(x):\r\n    return 'é'"],
        # ast reads an indented file dedented
        "  v = 'é'\n  def g():\n    pass\n": ["v = 'é'", "def g():\n    pass", "def g():\n    pass"],
    }
    for text, codes in cases.items():
        facts = _facts(text)
        assert [r.code for r in facts.definitions + facts.functions] == codes, text
    (imported,) = _facts("é = 'ü'; import os\n").imports
    assert imported.import_span == Span(0, 9, 0, 18)


def test_enclosing_function_simple_cases():
    tree = _tree(DEMO)
    assert _owner(tree, 0) is None
    owner = _owner(tree, 15)
    assert owner is not None and owner.name == "top"
    # the def line itself counts as inside
    assert _owner(tree, 13).name == "top"


def test_enclosing_function_on_def_line_of_body_start():
    tree = _tree("def f():\n    pass\n")
    assert _owner(tree, 0).name == "f"
    assert _owner(tree, 1).name == "f"


def test_enclosing_function_picks_innermost():
    tree = _tree(NESTED)
    assert _owner(tree, 3).name == "innermost"
    assert _owner(tree, 4).name == "inner"
    assert _owner(tree, 5).name == "outer"
    assert _owner(tree, 8).name == "plain"


def _ast_innermost(text: str, line: int) -> str | None:
    """Brute-force oracle: innermost def containing a 0-based line, via ast."""
    best = None
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lo, hi = node.lineno - 1, node.end_lineno - 1
            if lo <= line <= hi and (best is None or lo > best[0]):
                best = (lo, node.name)
    return best[1] if best else None


def test_enclosing_function_agrees_with_ast_oracle_on_every_line():
    for text in (THREE_FUNCS, DEMO, NESTED):
        tree = _tree(text)
        for line in range(len(text.splitlines())):
            expected = _ast_innermost(text, line)
            got = _owner(tree, line)
            assert (got.name if got else None) == expected, f"line {line}"


def _parts(value):
    """``value`` and everything its dataclass fields and containers hold."""
    yield value
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _parts(getattr(value, field.name))
    elif isinstance(value, (tuple, list, frozenset)):
        for item in value:
            yield from _parts(item)


def test_file_facts_hold_every_definition_and_function_but_no_tree():
    text = NESTED + "\nclass K:\n    def m(self):\n        pass\n\nplain = 1\nplain = 2\n"
    facts = _facts(text)
    assert [r.name for r in facts.functions] == ["outer", "inner", "innermost", "plain", "m"]
    assert [(r.name, r.sym_kind, r.def_span.start_line) for r in facts.definitions] == [
        ("outer", "function", 0),
        ("plain", "function", 7),
        ("K", "class", 10),
        ("plain", "variable", 14),
        ("plain", "variable", 15),
    ]
    assert facts.span == Span(0, 0, 16, 0)
    assert facts.refs == reference_sets(_tree(text).root)
    assert not [part for part in _parts(facts) if isinstance(part, (ast.AST, SyntaxTree))]


def _walked(tree, kinds) -> list[tuple[int, int]]:
    """Reference: the (row, column) of each node of ``kinds`` a walk over
    every ``ast`` node finds, in source order."""
    found = [(tree.rows[node.lineno - 1], node.col_offset) for node in ast.walk(tree.root) if isinstance(node, kinds)]
    return sorted(found)


NESTING = """\
import os
try:
    import json
except ImportError:
    json = None
if os:
    from a import b
    def in_if(): pass
with open(os.devnull) as f:
    import sys
    def in_with(): pass
for x in (): import re
while False:
    def in_while(): pass
async def coro():
    import asyncio
    async def inner(): pass
@decor
async def decorated_coro():
    import heapq
class K:
    if True:
        def method(self): import math
"""

# ast rejects the misspelt ``except``; the lines before it are kept
BROKEN_TAIL = "try:\n    import abc\n    def in_error(): pass\nexcep:\n    pass\n"


def test_facts_find_every_function_and_import_in_unfinished_files():
    """The facts visit statements only; on whole files and on files cut
    short, with and without a broken last statement, they must find what a
    walk over every node finds."""
    paths = sorted(TESTS_DIR.glob("corpus_cases/*.py")) + sorted(TESTS_DIR.glob("dep_cases/*.py"))
    paths += [TESTS_DIR.parent / "src" / "repolens" / name for name in ("funcflow.py", "projdeps.py")]
    texts = [("nesting", NESTING)] + [(path.name, path.read_text(encoding="utf-8")) for path in paths]
    checked = 0
    for name, text in texts:
        lines = text.split("\n")
        for cut in (len(lines) // 2, len(lines)):
            for tail in ("", BROKEN_TAIL):
                tree = _tree("\n".join(lines[:cut]) + "\n" + tail, name)
                facts = file_facts(tree)
                functions = [(r.def_span.start_line, r.def_span.start_col) for r in facts.functions]
                assert functions == _walked(tree, (ast.FunctionDef, ast.AsyncFunctionDef)), (name, cut, tail)
                statements = dict.fromkeys((r.import_span.start_line, r.import_span.start_col) for r in facts.imports)
                assert list(statements) == _walked(tree, (ast.Import, ast.ImportFrom)), (name, cut, tail)
                checked += len(facts.functions) + len(facts.imports)
    assert checked > 200


def test_definitions_before_orders_and_dedupes():
    records = definitions_before(_facts(DEMO), 13)
    assert [(r.name, r.sym_kind) for r in records] == [
        ("MAX", "variable"),
        ("string_compare", "function"),
        ("Shape", "class"),
    ]
    # latest assignment wins
    max_rec = records[0]
    assert max_rec.def_span.start_line == 5
    assert max_rec.code == "MAX = 20"


def test_definitions_before_line_zero_is_empty():
    assert definitions_before(_facts(DEMO), 0) == []


def test_definitions_before_is_monotone_in_line():
    facts = _facts(DEMO)
    seen = -1
    for line in range(len(DEMO.splitlines()) + 1):
        count = len(definitions_before(facts, line))
        assert count >= seen or count >= 0
        # names only ever accumulate or get re-pointed, never vanish
        names = {r.name for r in definitions_before(facts, line)}
        if line > 0:
            prev = {r.name for r in definitions_before(facts, line - 1)}
            assert prev <= names
        seen = count


def test_definitions_before_excludes_current_line():
    assert [r.name for r in definitions_before(_facts("a = 1\nb = 2\n"), 1)] == ["a"]


def test_identifiers_used_reads_off_references():
    used = set(_owner(_tree(DEMO), 15).refs.used)
    assert used == {"os", "path", "pd", "local", "process_data", "frame", "MAX"}


def test_identifiers_used_excludes_attribute_and_kwarg_names():
    tree = _tree("def f(frame):\n    out = pd.read_csv(frame, sep=',')\n")
    used = set(_owner(tree, 1).refs.used)
    assert "read_csv" not in used
    assert "sep" not in used
    assert used == {"pd", "frame"}


def test_identifiers_used_empty_body():
    tree = _tree("def f():\n    pass\n")
    assert set(_owner(tree, 1).refs.used) == set()


def _ast_loads(text: str) -> set[str]:
    """Oracle: identifiers in reference position are exactly ast Name nodes
    with Load context."""
    return {
        n.id
        for n in ast.walk(ast.parse(text))
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def test_identifiers_used_matches_ast_load_oracle_on_fixtures():
    for text in (THREE_FUNCS, DEMO, NESTED):
        tree = _tree(text)
        assert set(reference_sets(tree.root).used) == _ast_loads(text)


def test_identifiers_used_matches_ast_load_oracle_on_real_corpus():
    corpus = sorted(Path(__file__).parent.glob("corpus_cases/*.py"))
    assert corpus, "corpus fixtures missing"
    for path in corpus:
        text = path.read_text()
        tree = _tree(text, path.name)
        assert set(reference_sets(tree.root).used) == _ast_loads(text), path.name


def test_reference_sets_read_each_name_by_its_role():
    """Hand-counted: ``del`` and a walrus in a call bind, ``global`` names
    are read, ``await f()`` calls ``f``, and ``bound`` is in source order even
    where ``ast`` keeps a default after the parameters."""
    text = (
        "def f(a=lambda b: b, c=1):\n"
        "    global G\n"
        "    del h, d[0]\n"
        "    len(n := c)\n"
        "    try:\n"
        "        return await g(e)\n"
        "    except E as err:\n"
        "        pass\n"
    )
    refs = reference_sets(ast.parse(text).body[0])
    assert refs.used == {"G", "d", "c", "len", "g", "e", "E", "b"}
    assert refs.called == {"len", "g"}
    assert refs.bound == ("f", "a", "b", "c", "h", "n", "err")


def test_imports_of_plain_and_aliased():
    tree = _tree(DEMO)
    records = imports_of(tree)
    assert [(r.module_path, r.bound_names) for r in records] == [
        ("os", (("os", "os"),)),
        ("pandas", (("pandas", "pd"),)),
        ("utils.helpers", (("process_data", "pd_"),)),
    ]


def test_imports_of_no_imports():
    assert imports_of(_tree("x = 1\n")) == []


def test_imports_of_multi_module_statement_splits_records():
    records = imports_of(_tree("import os, sys as system\n"))
    assert [(r.module_path, r.bound_names) for r in records] == [
        ("os", (("os", "os"),)),
        ("sys", (("sys", "system"),)),
    ]


def test_imports_of_relative_resolves_against_package():
    tree = _tree("from . import sibling\nfrom ..core import engine\n", path="pkg/sub/mod.py")
    records = imports_of(tree)
    assert records[0].module_path == "pkg.sub"
    assert records[0].bound_names == (("sibling", "sibling"),)
    assert records[1].module_path == "pkg.core"
    assert records[1].bound_names == (("engine", "engine"),)


def test_imports_of_wildcard():
    (rec,) = imports_of(_tree("from os.path import *\n"))
    assert rec.module_path == "os.path"
    assert rec.bound_names == (("*", "*"),)


def test_imports_of_function_level_imports_are_collected():
    tree = _tree("def f():\n    import json\n    return json\n")
    assert [r.module_path for r in imports_of(tree)] == ["json"]


# --- parso as the oracle ------------------------------------------------------
#
# parso reads the same files with a parser of its own. Where its reading and
# the documented rules differ, the oracle follows the rules: ``await f()``
# calls ``f``, and a walrus in a call's arguments binds its name. Files that
# parso cannot read as they are (a ``match`` statement) are not compared.

_GRAMMAR = parso.load_grammar(version="3.10")


def _parso_span(node) -> Span:
    """From ``node``'s first leaf to its last, past any newline or ";"."""
    last = node.get_last_leaf()
    while last.type in ("newline", "endmarker") or (last.type == "operator" and last.value == ";"):
        last = last.get_previous_leaf()
    (sl, sc), (el, ec) = node.get_first_leaf().start_pos, last.end_pos
    return Span(sl - 1, sc, el - 1, ec)


def _binds(name) -> bool:
    parent = name.parent
    walrus = parent.type == "argument" and parent.children[0] is name and getattr(parent.children[1], "value", "") == ":="
    return walrus or name.is_definition()


def _parso_refs(node) -> References:
    """The reference sets of ``node``'s subtree, judged from parso's nodes."""
    used, called, bases, bound = set(), set(), set(), {}
    in_bases = False
    stack = [node]
    while stack:
        current = stack.pop()
        if current is None:  # a class base list starts or ends here
            in_bases = not in_bases
            continue
        kids = getattr(current, "children", None)
        if kids is None:
            if current.type == "name":
                if _binds(current):
                    bound.setdefault(current.value)
                else:
                    used.add(current.value)
                    if in_bases:
                        bases.add(current.value)
            continue
        kind = current.type
        if kind in ("import_name", "import_from"):
            bound.update((name.value, None) for name in current.get_defined_names() if name.value not in bound)
            continue
        if kind == "fstring_conversion" or (kind == "trailer" and kids[0].value == "."):
            continue
        if kind == "classdef":
            values = [getattr(child, "value", None) for child in kids]
            if "(" in values and ")" in values:
                lo, hi = values.index("(") + 1, values.index(")")
                stack += [*reversed(kids[hi:]), None, *reversed(kids[lo:hi]), None]
                kids = kids[:lo]
        elif kind == "argument" and getattr(kids[1], "value", None) == "=" and kids[0].type == "name":
            kids = kids[1:]
        elif kind in ("atom_expr", "power"):
            head, trailer, *_ = kids[1:] if kids[0].type == "keyword" else kids  # past an ``await``
            if head.type == "name" and trailer.type == "trailer" and trailer.children[0].value == "(":
                called.add(head.value)
        stack.extend(reversed(kids))
    return References(frozenset(used), frozenset(called), frozenset(bases), tuple(bound))


def _parso_walk(node):
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(getattr(current, "children", ())))


def _async_wrapped(node):
    """``node``, or the ``async`` statement that holds it."""
    return node.parent if node.parent.type in ("async_funcdef", "async_stmt") else node


def _parso_record(node, kind: str, name: str) -> tuple:
    return (name, kind, _parso_span(node), _parso_refs(node))


def _parso_definitions(module) -> list:
    records = []
    for child in module.children:
        if child.type == "simple_stmt":
            stmts = [c for c in child.children if c.type == "expr_stmt"]
        elif child.type == "decorated":
            stmts = [child.children[-1]]
        else:
            stmts = [child]
        for stmt in stmts:
            inner = stmt.children[-1] if stmt.type in ("async_funcdef", "async_stmt") else stmt
            if inner.type in ("funcdef", "classdef"):
                kind = "function" if inner.type == "funcdef" else "class"
                records.append(_parso_record(stmt, kind, inner.name.value))
            elif stmt.type == "expr_stmt":
                targets = [leaf.value for leaf in _module_leaves(stmt) if leaf.type == "name" and _binds(leaf)]
                records += [_parso_record(stmt, "variable", name) for name in targets]
    return records


def _module_leaves(stmt):
    """The leaves of ``stmt`` outside comprehensions, lambdas and ``.name``."""
    stack = [stmt]
    while stack:
        node = stack.pop()
        if node.type in ("sync_comp_for", "comp_for", "lambdef") or (node.type == "trailer" and node.children[0] == "."):
            continue
        kids = getattr(node, "children", None)
        if kids is None:
            yield node
        else:
            stack.extend(reversed(kids))


def _parso_imports(module, path: str) -> list[tuple]:
    records = []
    for node in _parso_walk(module):
        if node.type == "import_name":
            for dotted, name in zip(node.get_paths(), node.get_defined_names()):
                module_path = ".".join(part.value for part in dotted)
                records.append((module_path, ((module_path, name.value),), _parso_span(node)))
        elif node.type == "import_from":
            tail = ".".join(name.value for name in node.get_from_names())
            parts = Path(path).with_suffix("").parts
            if node.level:
                prefix = ".".join(parts[: len(parts) - node.level])
                tail = f"{prefix}.{tail}" if prefix and tail else prefix or tail
            names = (("*", "*"),) if node.is_star_import() else tuple(
                (dotted[-1].value, name.value) for dotted, name in zip(node.get_paths(), node.get_defined_names())
            )
            records.append((tail, names, _parso_span(node)))
    return records


def _oracle_files():
    paths = sorted(TESTS_DIR.glob("corpus_cases/*.py")) + sorted(TESTS_DIR.glob("dep_cases/*.py"))
    files = [(path.relative_to(TESTS_DIR).as_posix(), path.read_text(encoding="utf-8")) for path in paths]
    for corpus in sorted(CORPORA.iterdir()):
        files += [(path.relative_to(corpus).as_posix(), path.read_text(encoding="utf-8")) for path in sorted(corpus.rglob("*.py"))]
    return files


def _facts_view(facts) -> dict:
    def record(r):
        return (r.name, r.sym_kind, r.def_span, r.refs)

    return {
        "definitions": [record(r) for r in facts.definitions],
        "functions": [record(r) for r in facts.functions],
        "imports": [(r.module_path, r.bound_names, r.import_span) for r in facts.imports],
        "refs": facts.refs,
    }


def test_facts_agree_with_the_parso_oracle_on_every_corpus_file():
    """Every definition, function, import and reference set that
    ``file_facts`` reads off ``ast`` equals the one read off parso's tree, on
    the fixtures and both benchmark corpora."""
    files = _oracle_files()
    assert len(files) == 56
    for path, text in files:
        module = _GRAMMAR.parse(text)
        assert not [node for node in _parso_walk(module) if node.type == "error_node"], path
        functions = [n for n in _parso_walk(module) if n.type == "funcdef"]
        expected = {
            "definitions": _parso_definitions(module),
            "functions": [_parso_record(_async_wrapped(n), "function", n.name.value) for n in functions],
            "imports": _parso_imports(module, path),
            "refs": _parso_refs(module),
        }
        got = _facts_view(file_facts(parse(SourceFile.from_text(path, text))))
        for key, value in expected.items():
            assert got[key] == value, (path, key)
