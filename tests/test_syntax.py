"""Syntax layer: parsing, spans, symbol and import queries.

Oracles here are independent of the implementation: expected spans are
hand-counted from fixture text, and reference sets come from the stdlib
``ast`` module (a different parser entirely).
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

from hypothesis import example, given
from hypothesis import strategies as st
from parso.tree import NodeOrLeaf

from repolens.funcflow import local_slice
from repolens.syntax import (
    SourceFile,
    Span,
    SyntaxTree,
    children,
    definitions_before,
    file_facts,
    imports_of,
    kind_of,
    parse,
    reference_sets,
    span,
)
from tests.conftest import walk

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


def _shape(node):
    is_def = node.type == "name" and node.is_definition()
    value = getattr(node, "value", None)
    return (kind_of(node), span(node), value, is_def, tuple(_shape(c) for c in children(node)))


def _owner(tree, line):
    """The owner record ``local_slice`` reports for ``line``."""
    return local_slice(file_facts(tree), line).owner


def test_parse_empty_file_has_empty_module_root():
    tree = _tree("")
    assert kind_of(tree.root) == "file_input"
    assert children(tree.root) == []
    assert span(tree.root) == Span(0, 0, 0, 0)


def test_parse_single_assignment_spans_line_zero():
    tree = _tree("x = 1\n")
    kinds = [kind_of(c) for c in children(tree.root)]
    assert kinds == ["expr_stmt"]
    assert span(children(tree.root)[0]) == Span(0, 0, 0, 5)


def test_parse_three_functions_hand_counted_spans():
    tree = _tree(THREE_FUNCS)
    spans = [span(c) for c in children(tree.root) if kind_of(c) == "funcdef"]
    got = [(s.start_line, s.end_line) for s in spans]
    assert got == [(0, 1), (4, 6), (9, 10)]


def test_parse_is_deterministic():
    a = _tree(DEMO)
    b = _tree(DEMO)
    assert _shape(a.root) == _shape(b.root)


def test_parse_survives_unfinished_assignment():
    tree = _tree("def f():\n    x = 1\n    result =\n")
    names = [c for c in walk(tree.root) if kind_of(c) == "funcdef"]
    assert len(names) == 1
    # identifier queries still work on the recovered tree
    assert "result" in {leaf.value for leaf in walk(tree.root) if kind_of(leaf) == "name"}


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


def test_every_span_within_text_bounds():
    src = SourceFile.from_text("m.py", DEMO)
    tree = parse(src)
    for node in walk(tree.root):
        where = span(node)
        start = src.offset(where.start_line, where.start_col)
        end = src.offset(where.end_line, where.end_col)
        assert 0 <= start <= end <= len(src.text)


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
    assert not [part for part in _parts(facts) if isinstance(part, (NodeOrLeaf, SyntaxTree))]


def _walked_functions(tree):
    """Reference: the named functions a walk over every node finds."""
    return [
        span(node)
        for node in walk(tree.root)
        if kind_of(node) == "funcdef" and any(kind_of(child) == "name" for child in children(node))
    ]


def _walked_import_spans(tree):
    """Reference: the import statements a walk over every parso node finds,
    in source order."""
    spans, stack = [], [tree.root]
    while stack:
        pnode = stack.pop()
        if pnode.type in ("import_name", "import_from"):
            (sl, sc), (el, ec) = pnode.start_pos, pnode.end_pos
            spans.append(Span(sl - 1, sc, el - 1, ec))
        stack.extend(getattr(pnode, "children", ()))
    return sorted(spans, key=lambda span: (span.start_line, span.start_col))


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

# parso recovers from the misspelt ``except`` by wrapping the try statement,
# suite and all, in an error node
BROKEN_TAIL = "try:\n    import abc\n    def in_error(): pass\nexcep:\n    pass\n"


def test_facts_find_every_function_and_import_in_unfinished_files():
    """The facts visit statements only; on whole files and on files cut
    short, with and without a broken last statement, they must find what a
    walk over every node finds."""
    root = Path(__file__).parent
    paths = sorted(root.glob("corpus_cases/*.py")) + sorted(root.glob("dep_cases/*.py"))
    paths += [root.parent / "src" / "repolens" / name for name in ("funcflow.py", "projdeps.py")]
    texts = [("nesting", NESTING)] + [(path.name, path.read_text(encoding="utf-8")) for path in paths]
    checked = 0
    for name, text in texts:
        lines = text.split("\n")
        for cut in (len(lines) // 2, len(lines)):
            for tail in ("", BROKEN_TAIL):
                tree = _tree("\n".join(lines[:cut]) + "\n" + tail, name)
                facts = file_facts(tree)
                assert [r.def_span for r in facts.functions] == _walked_functions(tree), (name, cut, tail)
                statements = list(dict.fromkeys(r.import_span for r in facts.imports))
                assert statements == _walked_import_spans(tree), (name, cut, tail)
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
