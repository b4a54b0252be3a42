"""Syntax layer: parsing, spans, symbol and import queries.

Oracles here are independent of the implementation: expected spans are
hand-counted from fixture text, and reference sets come from the stdlib
``ast`` module (a different parser entirely).
"""

from __future__ import annotations

import ast
from pathlib import Path

from repolens.funcflow import local_slice
from repolens.syntax import (
    SourceFile,
    Span,
    definitions_before,
    enclosing_function_node,
    identifiers_used,
    imports_of,
    parse,
)

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


def _shape(node):
    return (node.kind, node.span, node.value, node.is_def, tuple(_shape(c) for c in node.children))


def _owner(tree, line):
    """The owner record ``local_slice`` reports for ``line``."""
    return local_slice(tree, line).owner


def test_parse_empty_file_has_empty_module_root():
    tree = _tree("")
    assert tree.root.kind == "module"
    assert tree.root.children == ()


def test_parse_single_assignment_spans_line_zero():
    tree = _tree("x = 1\n")
    kinds = [c.kind for c in tree.root.children]
    assert kinds == ["expression_statement"]
    assert tree.root.children[0].span == Span(0, 0, 0, 5)


def test_parse_three_functions_hand_counted_spans():
    tree = _tree(THREE_FUNCS)
    defs = [c for c in tree.root.children if c.kind == "function_definition"]
    got = [(d.span.start_line, d.span.end_line) for d in defs]
    assert got == [(0, 1), (4, 6), (9, 10)]


def test_parse_is_deterministic():
    a = _tree(DEMO)
    b = _tree(DEMO)
    assert _shape(a.root) == _shape(b.root)


def test_parse_survives_unfinished_assignment():
    tree = _tree("def f():\n    x = 1\n    result =\n")
    names = [c for c in tree.root.walk() if c.kind == "function_definition"]
    assert len(names) == 1
    # identifier queries still work on the recovered tree
    assert "result" in {leaf.value for leaf in tree.root.leaves() if leaf.kind == "name"}


def test_line_index_is_strictly_increasing():
    src = SourceFile.from_text("m.py", DEMO)
    assert src.line_index[0] == 0
    assert list(src.line_index) == sorted(set(src.line_index))


def test_every_span_within_text_bounds():
    src = SourceFile.from_text("m.py", DEMO)
    tree = parse(src)
    for node in tree.root.walk():
        start = src.offset(node.span.start_line, node.span.start_col)
        end = src.offset(node.span.end_line, node.span.end_col)
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


def test_definitions_before_orders_and_dedupes():
    tree = _tree(DEMO)
    records = definitions_before(tree, 13)
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
    assert definitions_before(_tree(DEMO), 0) == []


def test_definitions_before_is_monotone_in_line():
    tree = _tree(DEMO)
    seen = -1
    for line in range(len(DEMO.splitlines()) + 1):
        count = len(definitions_before(tree, line))
        assert count >= seen or count >= 0
        # names only ever accumulate or get re-pointed, never vanish
        names = {r.name for r in definitions_before(tree, line)}
        if line > 0:
            prev = {r.name for r in definitions_before(tree, line - 1)}
            assert prev <= names
        seen = count


def test_definitions_before_excludes_current_line():
    tree = _tree("a = 1\nb = 2\n")
    assert [r.name for r in definitions_before(tree, 1)] == ["a"]


def test_identifiers_used_reads_off_references():
    tree = _tree(DEMO)
    node = enclosing_function_node(tree, 15)
    used = identifiers_used(node)
    assert used == {"os", "path", "pd", "local", "process_data", "frame", "MAX"}


def test_identifiers_used_excludes_attribute_and_kwarg_names():
    tree = _tree("def f(frame):\n    out = pd.read_csv(frame, sep=',')\n")
    used = identifiers_used(enclosing_function_node(tree, 1))
    assert "read_csv" not in used
    assert "sep" not in used
    assert used == {"pd", "frame"}


def test_identifiers_used_empty_body():
    tree = _tree("def f():\n    pass\n")
    assert identifiers_used(enclosing_function_node(tree, 1)) == set()


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
        assert identifiers_used(tree.root) == _ast_loads(text)


def test_identifiers_used_matches_ast_load_oracle_on_real_corpus():
    corpus = sorted(Path(__file__).parent.glob("corpus_cases/*.py"))
    assert corpus, "corpus fixtures missing"
    for path in corpus:
        text = path.read_text()
        tree = _tree(text, path.name)
        assert identifiers_used(tree.root) == _ast_loads(text), path.name


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
