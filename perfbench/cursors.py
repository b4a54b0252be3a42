"""Seeded completion cursors on lines that use a cross-file name.

A cursor sits on a line inside a function body that reads a name the
file imported from another module of the same corpus, the situation in
which project-level context matters (CrossCodeEval, Ding et al., 2023).
The line is cut just before that name: the text before the cut is the
prefix the completer sees, the rest of the line is the ground truth.

The generator reads the corpus with the standard library's ``ast`` so it
depends on nothing in the program under test.
"""

from __future__ import annotations

import ast
import random
from dataclasses import dataclass
from pathlib import Path, PurePosixPath


@dataclass(frozen=True)
class Cursor:
    file: str  # corpus-relative posix path
    line: int  # 0-based
    text: str  # the whole line
    cut: int  # characters of ``text`` before the cross-file name
    source_module: str  # dotted corpus module the name comes from
    symbol: str | None  # the name as defined there; None for a module

    @property
    def prefix(self) -> str:
        return self.text[: self.cut]

    @property
    def truth(self) -> str:
        return self.text[self.cut :].rstrip()

    @property
    def task_id(self) -> str:
        return f"{self.file}:{self.line + 1}"


def _dotted(rel: PurePosixPath) -> str:
    parts = list(rel.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def corpus_modules(root: Path) -> dict[str, str]:
    """Dotted module name -> corpus-relative path for every .py file."""
    modules = {}
    for path in sorted(root.rglob("*.py")):
        rel = PurePosixPath(path.relative_to(root).as_posix())
        if any(part.startswith(".") or part == "__pycache__" for part in rel.parts):
            continue
        modules[_dotted(rel)] = str(rel)
    return modules


def _package_of(rel: str) -> list[str]:
    parts = list(PurePosixPath(rel).with_suffix("").parts)
    return parts[:-1]


def _imported_names(
    tree: ast.Module, rel: str, modules: dict[str, str]
) -> dict[str, tuple[str, str | None]]:
    """Local alias -> (corpus module, symbol) for cross-file imports."""
    bound: dict[str, tuple[str, str | None]] = {}
    package = _package_of(rel)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                if node.level - 1 > len(package):
                    continue
                base = package[: len(package) - (node.level - 1)]
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                sub = f"{module}.{alias.name}"
                if sub in modules and modules[sub] != rel:
                    bound[alias.asname or alias.name] = (sub, None)
                elif module in modules and modules[module] != rel:
                    bound[alias.asname or alias.name] = (module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in modules and modules[alias.name] != rel:
                    bound[alias.asname or alias.name.split(".")[0]] = (alias.name, None)
    return bound


def file_cursors(root: Path, rel: str, modules: dict[str, str]) -> list[Cursor]:
    """Every eligible cursor of one file, one per line, in line order."""
    text = (root / rel).read_text(encoding="utf-8")
    tree = ast.parse(text)
    bound = _imported_names(tree, rel, modules)
    if not bound:
        return []
    lines = text.split("\n")
    found: dict[int, Cursor] = {}
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body_start = func.body[0].lineno
        for node in ast.walk(func):
            if not (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)):
                continue
            if node.id not in bound or node.lineno < body_start:
                continue
            line = node.lineno - 1
            cut = len(lines[line].encode("utf-8")[: node.col_offset].decode("utf-8"))
            previous = found.get(line)
            if previous is None or cut < previous.cut:
                found[line] = Cursor(rel, line, lines[line], cut, *bound[node.id])
    return [found[line] for line in sorted(found)]


def generate(root: Path, seed: int, count: int) -> list[Cursor]:
    """``count`` distinct cursors drawn with ``seed``.

    Files take turns in a seeded order, and each file yields its cursors in
    a seeded order, so every run sees a similar mix of small and large
    files however many cursors it draws.
    """
    modules = corpus_modules(root)
    rng = random.Random(seed)
    per_file = []
    for rel in sorted(modules.values()):
        cursors = file_cursors(root, rel, modules)
        if cursors:
            rng.shuffle(cursors)
            per_file.append(cursors)
    if not per_file:
        raise ValueError(f"no cross-file cursor in {root}")
    rng.shuffle(per_file)
    picked: list[Cursor] = []
    depth = 0
    while len(picked) < count and any(depth < len(c) for c in per_file):
        picked.extend(c[depth] for c in per_file if depth < len(c))
        depth += 1
    return picked[:count]
