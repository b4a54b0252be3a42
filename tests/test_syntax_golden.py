"""Pinned syntax-layer output: the AST paths of every 20-line window and the
file facts of every file in ``corpus_cases`` and ``dep_cases``, plus a few
edge texts, against ``syntax_golden.json``.

A change to parsing that claims unchanged output must pass this unchanged.
The golden is only regenerated for an intended change, with

    PYTHONPATH=src python tests/test_syntax_golden.py > tests/syntax_golden.json
"""

from __future__ import annotations

import json
from pathlib import Path

from repolens.retrieval import ast_paths_of
from repolens.syntax import SourceFile, facts_to_json, file_facts, parse

TESTS_DIR = Path(__file__).parent
GOLDEN = TESTS_DIR / "syntax_golden.json"
WINDOW = 20

EDGE_TEXTS = {
    "trailing_semicolon": "def f(a):\n    y = a\n    x = 1;\n\nz = f(1); w = 2;\n",
    "async": (
        "import asyncio\n\n\n"
        "@decor\n"
        "async def outer(a):\n"
        "    async with a as b, lock:\n"
        "        async for c in b:\n"
        "            await asyncio.sleep(c)\n"
        "        else:\n"
        "            pass\n"
        "    @decor(1)\n"
        "    async def inner(d):\n"
        "        async with d: return d\n"
        "    async for e in a: pass\n"
        "    return inner\n\n\n"
        "class K:\n"
        "    @property\n"
        "    async def m(self):\n"
        "        return [x async for x in self]\n"
    ),
    "unfinished_paren": "import os\n\nx = (\n\ndef g():\n    return os\n",
    "unfinished_class": "class A(:\n    def m(self):\n        return 1\n\ny = A\n",
    "empty": "",
}


def texts():
    """``(path, text)`` of every pinned text, in a fixed order."""
    for directory in ("corpus_cases", "dep_cases"):
        for path in sorted((TESTS_DIR / directory).glob("*.py")):
            yield f"{directory}/{path.name}", path.read_text(encoding="utf-8")
    for name, text in EDGE_TEXTS.items():
        yield f"edge/{name}.py", text


def recompute() -> dict:
    """The golden's content: one table of distinct paths, each window's
    path indices keyed ``path:start`` (every start, stride 1), and each
    text's ``facts_to_json``."""
    table: dict[str, int] = {}
    windows: dict[str, list[int]] = {}
    facts: dict[str, dict] = {}
    for path, text in texts():
        facts[path] = facts_to_json(file_facts(parse(SourceFile.from_text(path, text))))
        lines = text.removesuffix("\n").split("\n") if text else []
        for start in range(max(len(lines) - WINDOW, 0) + 1):
            chunk = "\n".join(lines[start : start + WINDOW])
            windows[f"{path}:{start}"] = [table.setdefault(p, len(table)) for p in sorted(ast_paths_of(chunk))]
    return {"paths": list(table), "windows": windows, "facts": facts}


def _window_paths(doc: dict) -> dict[str, list[str]]:
    return {key: sorted(doc["paths"][i] for i in indices) for key, indices in doc["windows"].items()}


def test_window_paths_and_file_facts_match_the_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = recompute()
    expected_paths, got_paths = _window_paths(golden), _window_paths(got)
    assert list(got_paths) == list(expected_paths)
    for key, paths in expected_paths.items():
        assert got_paths[key] == paths, key
    assert list(got["facts"]) == list(golden["facts"])
    for path, facts in golden["facts"].items():
        assert got["facts"][path] == facts, path


if __name__ == "__main__":
    print(json.dumps(recompute(), separators=(",", ":")))
