"""File-level dependency partition.

The oracle below re-derives the partition from scratch with the stdlib
``ast`` module: usage and binding sets come from Name contexts, module
definitions from top-level statement types. The implementation must agree
on every fixture in dep_cases/.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repolens.filedeps import explicit_deps, potential_deps
from repolens.funcflow import local_slice
from repolens.syntax import (
    SourceFile,
    definitions_before,
    file_facts,
    kind_of,
    parse,
    reference_sets,
    span,
)
from tests.conftest import walk

ROOT = Path(__file__).parent.parent
BINDING_DIRS = (
    ROOT / "tests" / "dep_cases",
    ROOT / "tests" / "corpus_cases",
    ROOT / "src" / "repolens",
    ROOT / "perfbench" / "corpora" / "repolens_7369f41" / "repolens",
    ROOT / "perfbench" / "corpora" / "stdlib_email" / "email",
)


def _ast_owner(text: str, line: int):
    best = None
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lo, hi = node.lineno - 1, node.end_lineno - 1
            if lo <= line <= hi and (best is None or lo > best[0]):
                best = (lo, node)
    return best[1] if best else None


def _ast_bindings(fn) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node is not fn:
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
    return names


def _ast_uses(fn) -> set[str]:
    return {
        n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def _ast_module_defs(text: str, line: int) -> list[str]:
    latest: dict[str, int] = {}
    order: dict[str, int] = {}
    for node in ast.parse(text).body:
        if node.end_lineno - 1 >= line:
            continue
        names: list[str] = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                        names.append(n.id)
        for name in names:
            latest[name] = node.lineno - 1
            order[name] = node.lineno - 1
    return [name for name, _ in sorted(order.items(), key=lambda kv: kv[1])]


def _inputs(tree, line):
    facts = file_facts(tree)
    owner = local_slice(facts, line).owner
    defs = definitions_before(facts, line)
    uses = set(owner.refs.used) if owner is not None else set()
    return owner, defs, uses


def test_partition_matches_ast_oracle_on_all_cases(dep_case_table):
    for name, text, tree, cursor in dep_case_table:
        owner, defs, uses = _inputs(tree, cursor)
        exp = explicit_deps(defs, uses, owner)
        pot = potential_deps(defs, uses)

        ast_fn = _ast_owner(text, cursor)
        assert (ast_fn is None) == (owner is None), name
        oracle_defs = _ast_module_defs(text, cursor)
        assert [d.name for d in defs] == oracle_defs, name

        if ast_fn is None:
            oracle_uses: set[str] = set()
            oracle_bind: set[str] = set()
            owner_name = None
        else:
            oracle_uses = _ast_uses(ast_fn)
            oracle_bind = _ast_bindings(ast_fn)
            owner_name = ast_fn.name

        oracle_explicit = [
            n for n in oracle_defs if n in oracle_uses and n not in oracle_bind and n != owner_name
        ] if ast_fn is not None else []
        oracle_potential = [n for n in oracle_defs if n not in oracle_uses]
        oracle_selfref = {
            n for n in oracle_defs if n in oracle_uses and (n in oracle_bind or n == owner_name)
        } if ast_fn is not None else set()

        assert [d.symbol.name for d in exp] == oracle_explicit, name
        assert [d.symbol.name for d in pot] == oracle_potential, name
        # partition: explicit and potential cover defs minus self-references
        got = {d.symbol.name for d in exp} | {d.symbol.name for d in pot}
        assert got == set(oracle_defs) - oracle_selfref, name
        assert not ({d.symbol.name for d in exp} & {d.symbol.name for d in pot}), name


def test_case01_intersection_and_difference(dep_case_table):
    _, text, tree, cursor = dep_case_table[0]
    owner, defs, uses = _inputs(tree, cursor)
    assert [d.symbol.name for d in explicit_deps(defs, uses, owner)] == ["clamp"]
    assert [d.symbol.name for d in potential_deps(defs, uses)] == ["LIMIT", "scale"]


def test_case02_recursive_call_is_not_a_dependency(dep_case_table):
    _, text, tree, cursor = dep_case_table[1]
    owner, defs, uses = _inputs(tree, cursor)
    assert "target" in uses  # used, but self-reference
    names = [d.symbol.name for d in explicit_deps(defs, uses, owner)]
    assert names == ["SEED", "helper"]
    assert potential_deps(defs, uses) == []


def test_case03_shadowed_module_name_classified_as_local(dep_case_table):
    _, text, tree, cursor = dep_case_table[2]
    owner, defs, uses = _inputs(tree, cursor)
    exp = [d.symbol.name for d in explicit_deps(defs, uses, owner)]
    pot = [d.symbol.name for d in potential_deps(defs, uses)]
    assert exp == ["offset"]
    assert pot == ["lookup"]
    assert "table" not in exp + pot


def test_case04_script_scope_has_no_explicit_deps(dep_case_table):
    _, text, tree, cursor = dep_case_table[3]
    owner, defs, uses = _inputs(tree, cursor)
    assert owner is None
    assert explicit_deps(defs, uses, owner) == []
    assert [d.symbol.name for d in potential_deps(defs, uses)] == ["WIDTH", "fmt", "emit", "rows"]


def test_case09_everything_used_leaves_no_potential(dep_case_table):
    _, text, tree, cursor = dep_case_table[8]
    owner, defs, uses = _inputs(tree, cursor)
    assert [d.symbol.name for d in explicit_deps(defs, uses, owner)] == ["FACTOR", "double"]
    assert potential_deps(defs, uses) == []


def test_results_are_deterministic(dep_case_table):
    for name, text, tree, cursor in dep_case_table:
        owner, defs, uses = _inputs(tree, cursor)
        first = [(d.symbol.name, d.dep_kind) for d in explicit_deps(defs, uses, owner)]
        second = [(d.symbol.name, d.dep_kind) for d in explicit_deps(defs, uses, owner)]
        assert first == second


def test_local_bindings_cover_params_and_targets():
    tree = parse(
        SourceFile.from_text(
            "m.py",
            "def f(a, b=1):\n    c = a\n    for d in b:\n        pass\n    def g():\n        pass\n",
        )
    )
    owner = local_slice(file_facts(tree), 1).owner
    assert set(owner.refs.bound) >= {"a", "b", "c", "d", "g"}


def test_bindings_match_ast_oracle_on_every_function():
    checked = 0
    for directory in BINDING_DIRS:
        paths = sorted(directory.rglob("*.py"))
        assert paths, directory
        for path in paths:
            text = path.read_text(encoding="utf-8")
            ast_fns = {
                node.lineno - 1: node
                for node in ast.walk(ast.parse(text))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            tree = parse(SourceFile.from_text(path.name, text))
            for node in walk(tree.root):
                if kind_of(node) != "funcdef":
                    continue
                fn = ast_fns[span(node).start_line]
                assert set(reference_sets(node).bound) == _ast_bindings(fn) | {fn.name}, (path.name, fn.name)
                checked += 1
    assert checked > 800


def test_module_definitions_match_ast_oracle_on_every_file():
    checked = 0
    for directory in BINDING_DIRS:
        for path in sorted(directory.rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            tree = parse(SourceFile.from_text(path.name, text))
            end = tree.file.line_count + 1
            got = [d.name for d in definitions_before(file_facts(tree), end)]
            assert got == _ast_module_defs(text, end), path
            checked += len(got)
    assert checked > 500


def test_attribute_target_is_not_a_local_binding():
    text = (
        "cache = {}\n\n\n"
        "class Store:\n    def fill(self):\n        self.cache = cache\n        return self.cache\n"
    )
    tree = parse(SourceFile.from_text("m.py", text))
    owner, defs, uses = _inputs(tree, 6)
    assert "cache" not in owner.refs.bound
    assert [d.symbol.name for d in explicit_deps(defs, uses, owner)] == ["cache"]
    assert potential_deps(defs, uses) == []


def test_function_preview_truncates_to_signature_plus_body_lines():
    lines = "\n".join(f"    x{i} = {i}" for i in range(12))
    text = f"def big(n):\n{lines}\n\n\ndef target(q):\n    w = big(q)  # cursor\n"
    tree = parse(SourceFile.from_text("m.py", text))
    owner, defs, uses = _inputs(tree, 16)
    (dep,) = explicit_deps(defs, uses, owner, body_preview_lines=8)
    preview_lines = dep.preview.splitlines()
    assert preview_lines[0] == "def big(n):"
    assert len(preview_lines) == 1 + 8 + 1  # header + body + ellipsis marker
    assert preview_lines[-1].strip() == "..."
    # full code preserved on the record itself
    assert len(dep.symbol.code.splitlines()) == 13
