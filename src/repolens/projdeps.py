"""Project-level import resolution.

Builds a dotted-name → file map for the repository, classifies each import
as cross-file or external, and partitions imported entities into explicit
(alias referenced by the target function) and potential (imported but not
yet used) dependencies. Cross-file entries carry the resolved definition
parsed out of the mapped source file.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path, PurePosixPath

from .errors import Diagnostic
from .syntax import (
    ImportRecord,
    SourceFile,
    Span,
    SymbolRecord,
    SyntaxTree,
    definitions_before,
    load_source,
    parse,
)

CROSS_FILE = "cross_file"
EXTERNAL = "external"

_SKIP_DIRS = {"__pycache__"}


@dataclass(frozen=True, slots=True)
class ModuleMap:
    """Dotted module name → repository-relative posix path."""

    root: str
    entries: dict[str, str]
    digest: str

    def __contains__(self, dotted: str) -> bool:
        return dotted in self.entries

    def path_of(self, dotted: str) -> str | None:
        return self.entries.get(dotted)


@dataclass(frozen=True, slots=True)
class CrossModuleDependency:
    """One imported entity with its usage and origin classification.

    ``symbol`` is the name as imported (the dotted module path for plain
    module imports and wildcards); ``alias`` is what the import binds
    locally. ``resolved`` holds the definition extracted from the mapped
    source file for cross-file origins, or ``None`` for external ones and
    for entities whose definition could not be located; ``resolved_path``
    is the repository-relative file it came from.
    """

    import_rec: ImportRecord
    symbol: str
    alias: str
    dep_kind: str  # explicit | potential
    origin: str  # cross_file | external
    resolved: SymbolRecord | None
    resolved_path: str | None = None


def _iter_source_files(root: Path, diagnostics: list[Diagnostic] | None):
    def on_error(err: OSError) -> None:
        if diagnostics is not None:
            diagnostics.append(
                Diagnostic(
                    code="unreadable_subtree",
                    message=f"skipped unreadable directory: {err.filename}",
                    context={"path": str(err.filename)},
                )
            )

    for dirpath, dirnames, filenames in os.walk(root, onerror=on_error):
        dirnames[:] = sorted(
            d for d in dirnames if not d.startswith(".") and d not in _SKIP_DIRS
        )
        for name in sorted(filenames):
            if name.endswith(".py") and not name.startswith("."):
                yield Path(dirpath) / name


def _dotted_name(rel: PurePosixPath) -> str | None:
    parts = list(rel.parts)
    parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts.pop()
    if not parts:
        return None
    return ".".join(parts)


_MAP_CACHE: dict[str, ModuleMap] = {}


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, _ in os.walk(root):
        dirnames[:] = sorted(
            d for d in dirnames if not d.startswith(".") and d not in _SKIP_DIRS
        )
        h.update(dirpath.encode())
        try:
            h.update(str(os.stat(dirpath).st_mtime_ns).encode())
        except OSError:
            continue
    return h.hexdigest()


def build_module_map(
    repo_root: Path | str, diagnostics: list[Diagnostic] | None = None
) -> ModuleMap:
    """Recursively scan ``repo_root`` and register every Python file.

    ``a/b/c.py`` maps from ``a.b.c``; a package's ``__init__.py`` maps from
    the package name itself. A root-level ``__init__.py`` has no dotted
    name and is skipped. When a module file and a package collide on the
    same dotted name the package wins and the collision is recorded.
    """

    root = Path(repo_root).resolve()
    digest = _tree_digest(root)
    cached = _MAP_CACHE.get(str(root))
    if cached is not None and cached.digest == digest:
        return cached

    entries: dict[str, str] = {}
    for path in _iter_source_files(root, diagnostics):
        rel = PurePosixPath(path.relative_to(root).as_posix())
        dotted = _dotted_name(rel)
        if dotted is None:
            continue
        if dotted in entries:
            is_package = rel.name == "__init__.py"
            if diagnostics is not None:
                diagnostics.append(
                    Diagnostic(
                        code="module_collision",
                        message=f"both {entries[dotted]} and {rel} map to {dotted}",
                        context={"dotted": dotted, "kept": str(rel if is_package else entries[dotted])},
                    )
                )
            if not is_package:
                continue
        entries[dotted] = str(rel)

    built = ModuleMap(root=str(root), entries=entries, digest=digest)
    _MAP_CACHE[str(root)] = built
    return built


def _resolve_module(
    module_path: str, module_map: ModuleMap, diagnostics: list[Diagnostic] | None
) -> tuple[str, str | None]:
    """Return (origin, matched dotted key or None) for an import path."""

    if module_path in module_map.entries:
        return CROSS_FILE, module_path
    suffix = "." + module_path
    candidates = [k for k in module_map.entries if k.endswith(suffix)]
    if not candidates:
        return EXTERNAL, None
    if len(candidates) > 1:
        candidates.sort(key=lambda k: (k.count("."), k))
        if diagnostics is not None:
            diagnostics.append(
                Diagnostic(
                    code="ambiguous_suffix",
                    message=f"{module_path} matches {len(candidates)} modules; picked {candidates[0]}",
                    context={"module_path": module_path, "candidates": tuple(candidates)},
                )
            )
    return CROSS_FILE, candidates[0]


def _module_record(dotted: str, file: SourceFile) -> SymbolRecord:
    last = len(file.line_index) - 1
    span = Span(0, 0, last, len(file.text) - file.line_index[last])
    return SymbolRecord(name=dotted, sym_kind="module", def_span=span, code=file.text)


class _SourceCache:
    """Parse each mapped file at most once per dependency pass."""

    def __init__(self, module_map: ModuleMap, diagnostics: list[Diagnostic] | None):
        self._map = module_map
        self._diagnostics = diagnostics
        self._loaded: dict[str, tuple[SourceFile, SyntaxTree] | None] = {}

    def get(self, dotted: str) -> tuple[SourceFile, SyntaxTree] | None:
        if dotted not in self._loaded:
            rel = self._map.path_of(dotted)
            try:
                file = load_source(self._map.root, rel)
                self._loaded[dotted] = (file, parse(file))
            except (OSError, UnicodeDecodeError, ValueError) as err:
                self._loaded[dotted] = None
                if self._diagnostics is not None:
                    self._diagnostics.append(
                        Diagnostic(
                            code="resolution_error",
                            message=f"could not parse {rel}: {err}",
                            context={"module": dotted, "path": str(rel)},
                        )
                    )
        return self._loaded[dotted]


def _definition_in(tree: SyntaxTree, name: str) -> SymbolRecord | None:
    for record in definitions_before(tree, tree.root.span.end_line + 1):
        if record.name == name:
            return record
    return None


def _resolve_symbol(
    key: str,
    symbol: str,
    module_map: ModuleMap,
    cache: _SourceCache,
    diagnostics: list[Diagnostic] | None,
) -> tuple[SymbolRecord | None, str | None]:
    loaded = cache.get(key)
    if loaded is not None:
        file, tree = loaded
        found = _definition_in(tree, symbol)
        if found is not None:
            return found, module_map.path_of(key)
    sub = f"{key}.{symbol}"
    if sub in module_map.entries:
        sub_loaded = cache.get(sub)
        if sub_loaded is not None:
            return _module_record(sub, sub_loaded[0]), module_map.path_of(sub)
    if loaded is not None and diagnostics is not None:
        diagnostics.append(
            Diagnostic(
                code="resolution_error",
                message=f"no definition of {symbol} in {key}",
                context={"module": key, "symbol": symbol},
            )
        )
    return None, None


def cross_module_deps(
    imports: list[ImportRecord],
    uses: set[str],
    module_map: ModuleMap,
    diagnostics: list[Diagnostic] | None = None,
) -> list[CrossModuleDependency]:
    """Partition imported entities into explicit and potential dependencies.

    An entity is explicit when its locally bound alias appears in ``uses``
    (the target function's identifier set; pass an empty set at script
    scope, where only definitions are extracted). Everything else imported
    is potential. Cross-file entities resolve their definition from the
    mapped source file; wildcard imports register the module itself as a
    single potential dependency.
    """

    cache = _SourceCache(module_map, diagnostics)
    deps: list[CrossModuleDependency] = []
    for rec in imports:
        origin, key = _resolve_module(rec.module_path, module_map, diagnostics)
        rec.classification = origin
        for symbol, alias in rec.bound_names:
            if symbol == "*":
                resolved = None
                if key is not None:
                    loaded = cache.get(key)
                    if loaded is not None:
                        resolved = _module_record(key, loaded[0])
                deps.append(
                    CrossModuleDependency(
                        import_rec=rec,
                        symbol=rec.module_path,
                        alias="*",
                        dep_kind="potential",
                        origin=origin,
                        resolved=resolved,
                        resolved_path=module_map.path_of(key) if resolved is not None else None,
                    )
                )
                continue
            dep_kind = "explicit" if alias in uses else "potential"
            resolved = None
            resolved_path = None
            if key is not None:
                if symbol == rec.module_path:
                    loaded = cache.get(key)
                    if loaded is not None:
                        resolved = _module_record(key, loaded[0])
                        resolved_path = module_map.path_of(key)
                else:
                    resolved, resolved_path = _resolve_symbol(
                        key, symbol, module_map, cache, diagnostics
                    )
            deps.append(
                CrossModuleDependency(
                    import_rec=rec,
                    symbol=symbol,
                    alias=alias,
                    dep_kind=dep_kind,
                    origin=origin,
                    resolved=resolved,
                    resolved_path=resolved_path,
                )
            )
    return deps
