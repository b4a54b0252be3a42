"""Module map construction, import classification, cross-module deps."""

from __future__ import annotations

import ast
import os

import pytest

from repolens import projdeps
from repolens.funcflow import local_slice
from repolens.projdeps import (
    CROSS_FILE,
    EXTERNAL,
    build_module_map,
    cross_module_deps,
)
from repolens.retrieval import Store
from repolens.syntax import (
    ImportRecord,
    SourceFile,
    Span,
    file_facts,
    imports_of,
    load_source,
    parse,
)
from tests.conftest import write_repo

MAIN_PY = """\
import os
import pandas as pd
from data_processor import process_data, parse_code


def transform(path):
    frame = pd.read_csv(path)
    root = os.getcwd()
    rows = process_data(frame)
    result = parse_
"""

DATA_PROCESSOR_PY = """\
def process_data(frame):
    cleaned = frame.dropna()
    return cleaned


def parse_code(text):
    tokens = text.split()
    return tokens
"""


def write_pipeline_repo(root):
    return write_repo(root, {"main.py": MAIN_PY, "data_processor.py": DATA_PROCESSOR_PY})


def _record(module_path: str, *bound: tuple[str, str]) -> ImportRecord:
    names = bound or ((module_path, module_path.split(".")[0]),)
    return ImportRecord(module_path=module_path, bound_names=names, import_span=Span(0, 0, 0, 1))


def _classification(rec, module_map, diagnostics=None):
    """The origin ``cross_module_deps`` gives the import's one binding."""
    (dep,) = cross_module_deps([rec], set(), module_map, diagnostics)
    return dep.origin


def test_module_map_registers_every_source_file(tmp_path):
    write_repo(
        tmp_path,
        {
            "main.py": "x = 1\n",
            "utils/__init__.py": "",
            "utils/helpers.py": "def helper():\n    return 1\n",
            "a/b/c.py": "VALUE = 3\n",
            "scripts/run_tool.py": "print('hi')\n",
            ".hidden/secret.py": "s = 1\n",
            "__pycache__/junk.py": "j = 1\n",
            "__init__.py": "",
            "README.md": "docs\n",
        },
    )
    mmap = build_module_map(tmp_path)
    assert mmap.entries == {
        "main": "main.py",
        "utils": "utils/__init__.py",
        "utils.helpers": "utils/helpers.py",
        "a.b.c": "a/b/c.py",
        "scripts.run_tool": "scripts/run_tool.py",
    }


def test_module_map_empty_repo(tmp_path):
    assert build_module_map(tmp_path).entries == {}


def test_module_map_package_wins_collision(tmp_path):
    write_repo(tmp_path, {"pkg.py": "x = 1\n", "pkg/__init__.py": "y = 2\n"})
    mmap = build_module_map(tmp_path)
    assert mmap.entries["pkg"] == "pkg/__init__.py"
    assert [d.code for d in mmap.diagnostics] == ["module_collision"]
    with pytest.raises(TypeError):  # the store is keyword-only: a stray positional list is refused
        build_module_map(tmp_path, [])


def test_module_map_sees_module_added_after_first_build(tmp_path):
    write_repo(tmp_path, {"one.py": "a = 1\n"})
    assert list(build_module_map(tmp_path).entries) == ["one"]
    write_repo(tmp_path, {"two.py": "b = 2\n"})
    assert "two" in build_module_map(tmp_path).entries


def test_module_map_sees_module_added_without_directory_mtime_change(tmp_path):
    write_repo(tmp_path, {"one.py": "a = 1\n"})
    before = os.stat(tmp_path)
    assert list(build_module_map(tmp_path).entries) == ["one"]
    write_repo(tmp_path, {"two.py": "b = 2\n"})
    os.utime(tmp_path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert "two" in build_module_map(tmp_path).entries


def test_module_map_keeps_facts_by_path_and_content(tmp_path, monkeypatch):
    parsed = []
    real_parse = projdeps.parse

    def counted_parse(file):
        parsed.append(file.text)
        return real_parse(file)

    monkeypatch.setattr(projdeps, "parse", counted_parse)
    one, two = "def f():\n    return 1\n", "def f():\n    return 2\n"
    deep = "x = 1\ny = " + "not " * 2000 + "c )\n"  # ast rejects line 2
    write_repo(tmp_path, {"m.py": one, "deep.py": deep})
    mmap = build_module_map(tmp_path)
    imports = [_record("m", ("f", "f")), _record("deep", ("x", "x"))]
    for _ in range(2):
        diagnostics = []
        dep, kept = cross_module_deps(imports, {"f"}, mmap, diagnostics)
        assert dep.resolved.code == "def f():\n    return 1"
        # a file ast rejects keeps the facts of the lines before its error,
        # and reports the error on every pass
        assert kept.resolved.code == "x = 1"
        assert [(d.code, d.context["path"], d.context["line"]) for d in diagnostics] == [("syntax_error", "deep.py", 2)]
    assert parsed == [one, deep]  # an unchanged file is parsed once per map

    parsed.clear()
    first = mmap.facts("m.py", one)
    assert mmap.facts("m.py", two).definitions[0].code == "def f():\n    return 2"
    again = mmap.facts("m.py", one)  # the edit replaced the path's one entry
    assert again is not first and again == first
    assert parsed == [two, one]
    assert build_module_map(tmp_path).facts("m.py", one) is not first  # a new map keeps nothing

    parsed.clear()
    store = Store(tmp_path / "store.json", {})
    kept = build_module_map(tmp_path, store=store).facts("m.py", one)
    assert parsed == [one] and store.changed
    assert build_module_map(tmp_path, store=store).facts("m.py", one) == kept  # decoded from the store
    assert parsed == [one]


def test_same_text_at_two_paths_resolves_relative_imports_per_path(tmp_path):
    mod = "from . import x\n\n\ndef f():\n    return x\n"
    write_repo(
        tmp_path,
        {"a/__init__.py": "x = 'from a'\n", "a/mod.py": mod, "b/__init__.py": "x = 'from b'\n", "b/mod.py": mod},
    )
    mmap = build_module_map(tmp_path)
    kept = {}
    for package in ("a", "b"):
        facts = kept[package] = mmap.facts(f"{package}/mod.py", mod)
        (dep,) = cross_module_deps(facts.imports, {"x"}, mmap)
        assert (dep.resolved_path, dep.resolved.code) == (f"{package}/__init__.py", f"x = 'from {package}'")
    assert mmap.facts("a/mod.py", mod) is kept["a"]  # one entry per path


def test_classify_full_name_suffix_and_external(tmp_path):
    write_repo(
        tmp_path,
        {
            "utils/__init__.py": "",
            "utils/helpers.py": "def helper():\n    return 1\n",
            "a/b/c.py": "VALUE = 3\n",
        },
    )
    mmap = build_module_map(tmp_path)
    assert _classification(_record("utils.helpers"), mmap) == CROSS_FILE
    assert _classification(_record("helpers"), mmap) == CROSS_FILE
    assert _classification(_record("b.c"), mmap) == CROSS_FILE
    assert _classification(_record("os"), mmap) == EXTERNAL
    assert _classification(_record("pandas"), mmap) == EXTERNAL


def test_ambiguous_suffix_resolves_deterministically(tmp_path):
    write_repo(
        tmp_path,
        {
            "x/common.py": 'def shared():\n    return "x"\n',
            "y/common.py": 'def shared():\n    return "y"\n',
            "main.py": "from common import shared\n",
        },
    )
    diagnostics = []
    mmap = build_module_map(tmp_path)
    rec = _record("common", ("shared", "shared"))
    (dep,) = cross_module_deps([rec], {"shared"}, mmap, diagnostics)
    assert dep.origin == CROSS_FILE
    assert [d.code for d in diagnostics] == ["ambiguous_suffix"]
    assert '"x"' in dep.resolved.code


def test_pipeline_scenario_partition(tmp_path):
    write_pipeline_repo(tmp_path)
    file = load_source(tmp_path, "main.py")
    tree = parse(file)
    uses = set(local_slice(file_facts(tree), 9).owner.refs.used)
    mmap = build_module_map(tmp_path)
    deps = cross_module_deps(imports_of(tree), uses, mmap)

    table = {(d.symbol, d.dep_kind, d.origin) for d in deps}
    assert table == {
        ("os", "explicit", EXTERNAL),
        ("pandas", "explicit", EXTERNAL),
        ("process_data", "explicit", CROSS_FILE),
        ("parse_code", "potential", CROSS_FILE),
    }
    by_symbol = {d.symbol: d for d in deps}
    assert by_symbol["os"].resolved is None
    assert by_symbol["pandas"].resolved is None
    assert by_symbol["pandas"].alias == "pd"
    assert by_symbol["process_data"].resolved.sym_kind == "function"
    assert by_symbol["parse_code"].resolved.sym_kind == "function"
    assert "def parse_code(text):" in by_symbol["parse_code"].resolved.code


def test_cross_file_resolved_code_reparses_to_named_def(tmp_path):
    write_pipeline_repo(tmp_path)
    file = load_source(tmp_path, "main.py")
    tree = parse(file)
    mmap = build_module_map(tmp_path)
    deps = cross_module_deps(imports_of(tree), {"process_data"}, mmap)
    dep = next(d for d in deps if d.symbol == "process_data")
    (func,) = parse(SourceFile.from_text("x.py", dep.resolved.code)).root.body
    assert isinstance(func, ast.FunctionDef)
    assert func.name == "process_data"


def test_script_scope_marks_everything_potential(tmp_path):
    write_pipeline_repo(tmp_path)
    tree = parse(load_source(tmp_path, "main.py"))
    deps = cross_module_deps(imports_of(tree), set(), build_module_map(tmp_path))
    assert [d.dep_kind for d in deps] == ["potential"] * 4
    assert {d.symbol for d in deps if d.resolved is not None} == {"process_data", "parse_code"}


def test_every_bound_alias_classified_exactly_once(tmp_path):
    write_pipeline_repo(tmp_path)
    file = load_source(tmp_path, "main.py")
    tree = parse(file)
    uses = set(local_slice(file_facts(tree), 9).owner.refs.used)
    imports = imports_of(tree)
    deps = cross_module_deps(imports, uses, build_module_map(tmp_path))

    expected = [
        (rec.module_path, alias) for rec in imports for (_, alias) in rec.bound_names
    ]
    got = [(d.import_rec.module_path, d.alias) for d in deps]
    assert got == expected
    for d in deps:
        assert d.dep_kind == ("explicit" if d.alias in uses else "potential")
    for d in deps:
        assert d.origin in (CROSS_FILE, EXTERNAL)


def test_relative_import_resolves_through_package(tmp_path):
    write_repo(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/base.py": "class Shape:\n    kind = 'none'\n",
            "pkg/sub/__init__.py": "",
            "pkg/sub/mod.py": "from ..base import Shape\n\n\ndef area(s):\n    return isinstance(s, Shape)\n",
        },
    )
    tree = parse(load_source(tmp_path, "pkg/sub/mod.py"))
    deps = cross_module_deps(
        imports_of(tree), {"isinstance", "s", "Shape"}, build_module_map(tmp_path)
    )
    (dep,) = deps
    assert dep.origin == CROSS_FILE
    assert dep.dep_kind == "explicit"
    assert dep.resolved.sym_kind == "class"
    assert dep.resolved.code.startswith("class Shape:")


def test_wildcard_import_is_one_potential_module_dep(tmp_path):
    helpers = "LIMIT = 3\n\n\ndef helper():\n    return LIMIT\n"
    write_repo(
        tmp_path,
        {
            "utils/__init__.py": "",
            "utils/helpers.py": helpers,
            "main.py": "from utils.helpers import *\n\nvalue = helper()\n",
        },
    )
    tree = parse(load_source(tmp_path, "main.py"))
    deps = cross_module_deps(imports_of(tree), set(), build_module_map(tmp_path))
    (dep,) = deps
    assert (dep.symbol, dep.alias, dep.dep_kind, dep.origin) == (
        "utils.helpers",
        "*",
        "potential",
        CROSS_FILE,
    )
    assert dep.resolved.sym_kind == "module"
    assert dep.resolved.code == helpers


def test_from_package_import_submodule_resolves_to_module(tmp_path):
    write_repo(
        tmp_path,
        {
            "utils/__init__.py": "",
            "utils/helpers.py": "def helper():\n    return 1\n",
            "main.py": "from utils import helpers\n",
        },
    )
    tree = parse(load_source(tmp_path, "main.py"))
    (dep,) = cross_module_deps(imports_of(tree), set(), build_module_map(tmp_path))
    assert dep.resolved.sym_kind == "module"
    assert dep.resolved.name == "utils.helpers"


def test_missing_symbol_degrades_to_name_only(tmp_path):
    write_repo(
        tmp_path,
        {
            "utils/__init__.py": "",
            "utils/helpers.py": "def helper():\n    return 1\n",
            "main.py": "from utils.helpers import missing_thing\n",
        },
    )
    tree = parse(load_source(tmp_path, "main.py"))
    diagnostics = []
    (dep,) = cross_module_deps(
        imports_of(tree), set(), build_module_map(tmp_path), diagnostics
    )
    assert dep.resolved is None
    assert dep.origin == CROSS_FILE
    assert dep.symbol == "missing_thing"
    assert any(d.code == "resolution_error" for d in diagnostics)


def test_undecodable_mapped_file_degrades_with_diagnostic(tmp_path):
    write_repo(tmp_path, {"main.py": "from utils.broken import thing\n", "utils/__init__.py": ""})
    (tmp_path / "utils" / "broken.py").write_bytes(b"\xff\xfe not utf8")
    tree = parse(load_source(tmp_path, "main.py"))
    diagnostics = []
    (dep,) = cross_module_deps(
        imports_of(tree), set(), build_module_map(tmp_path), diagnostics
    )
    assert dep.origin == CROSS_FILE
    assert dep.resolved is None
    assert any(d.code == "resolution_error" for d in diagnostics)


def test_no_imports_yield_no_deps(tmp_path):
    write_repo(tmp_path, {"main.py": "x = 1\n"})
    tree = parse(load_source(tmp_path, "main.py"))
    assert cross_module_deps(imports_of(tree), {"x"}, build_module_map(tmp_path)) == []


def test_map_entries_stable_across_copies(tmp_path):
    files = {"utils/helpers.py": "A = 1\n", "utils/__init__.py": "", "core.py": "B = 2\n"}
    left = build_module_map(write_repo(tmp_path / "left", files))
    right = build_module_map(write_repo(tmp_path / "right", files))
    assert left.entries == right.entries
