"""Project-level import resolution.

Builds a dotted-name → file map for the repository, classifies each import
as cross-file or external, and partitions imported entities into explicit
(alias referenced by the target function) and potential (imported but not
yet used) dependencies. Cross-file entries carry the resolved definition
parsed out of the mapped source file.

The module map is rebuilt on every call, so it always reflects the tree
and always reports its diagnostics. :func:`facts_of` is the one process-wide
cache over file text: the ``syntax.FileFacts`` of every file a task reads,
the target file and each imported module alike, keyed by repository-relative
path and text (relative imports resolve against the path) and holding the
256 most recently used entries. Every lookup reads the file, so an in-place
edit is never served stale; no syntax tree is kept. A caller that loaded the
repository's ``.repolens`` store passes it along: a cache miss then decodes
the stored facts of that path and text before it parses, and keeps what it
parsed in the store. Files that cannot be read or parsed are never cached
and report on every call.
"""

from __future__ import annotations

import os
from collections import OrderedDict, namedtuple
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from typing import TYPE_CHECKING

from .errors import Diagnostic
from .syntax import FileFacts, ImportRecord, SourceFile, SymbolRecord, file_facts, parse

if TYPE_CHECKING:
    from .retrieval import Store

CROSS_FILE = "cross_file"
EXTERNAL = "external"

_SKIP_DIRS = {"__pycache__"}

@dataclass(frozen=True, slots=True)
class ModuleMap:
    """Dotted module name → repository-relative posix path."""

    root: str
    entries: dict[str, str]

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

    return ModuleMap(root=str(root), entries=entries)


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


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _FactsCache:
    """A least-recently-used cache of ``FileFacts`` by (path, text), with the
    ``.repolens`` store underneath: a miss is looked up in the caller's store
    before the text is parsed, and what had to be parsed is kept there."""

    def __init__(self, maxsize: int) -> None:
        self._entries: OrderedDict[tuple[str, str], FileFacts] = OrderedDict()
        self._maxsize = maxsize
        self._hits = self._misses = 0

    def __call__(self, path: str, text: str, store: Store | None = None) -> FileFacts:
        """The facts of ``text`` read as the file at the repository-relative
        ``path``, which relative imports resolve against."""
        key = (path, text)
        facts = self._entries.get(key)
        if facts is not None:
            self._hits += 1
            self._entries.move_to_end(key)
            return facts
        self._misses += 1
        facts = store.facts(path, text) if store is not None else None
        if facts is None:
            facts = file_facts(parse(SourceFile.from_text(path, text)))
            if store is not None:
                store.keep(facts)
        self._entries[key] = facts
        if len(self._entries) > self._maxsize:
            self._entries.popitem(last=False)
        return facts

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self._hits, self._misses, self._maxsize, len(self._entries))

    def cache_clear(self) -> None:
        self._entries.clear()
        self._hits = self._misses = 0


facts_of = _FactsCache(maxsize=256)


class _ModuleReader:
    """Reads each mapped module at most once per dependency pass and
    reports each one that cannot be read or parsed once per pass."""

    def __init__(self, module_map: ModuleMap, diagnostics: list[Diagnostic] | None, store: Store | None):
        self._map = module_map
        self._diagnostics = diagnostics
        self._store = store
        self._loaded: dict[str, FileFacts | None] = {}

    def get(self, dotted: str) -> FileFacts | None:
        if dotted not in self._loaded:
            rel = self._map.path_of(dotted)
            try:
                text = (Path(self._map.root) / rel).read_text(encoding="utf-8")
                self._loaded[dotted] = facts_of(rel, text, self._store)
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

    def module_record(self, dotted: str) -> SymbolRecord | None:
        """The whole module as one record named ``dotted``."""
        facts = self.get(dotted)
        if facts is None:
            return None
        text = facts.file.text
        return SymbolRecord(name=dotted, sym_kind="module", def_span=facts.span, code=text, refs=facts.refs)


def _resolve_symbol(
    key: str,
    symbol: str,
    module_map: ModuleMap,
    reader: _ModuleReader,
    diagnostics: list[Diagnostic] | None,
) -> tuple[SymbolRecord | None, str | None]:
    facts = reader.get(key)
    if facts is not None:
        # the latest definition of the name wins
        found = next((r for r in reversed(facts.definitions) if r.name == symbol), None)
        if found is not None:
            return found, module_map.path_of(key)
    sub = f"{key}.{symbol}"
    if sub in module_map.entries:
        sub_record = reader.module_record(sub)
        if sub_record is not None:
            return sub_record, module_map.path_of(sub)
    if facts is not None and diagnostics is not None:
        diagnostics.append(
            Diagnostic(
                code="resolution_error",
                message=f"no definition of {symbol} in {key}",
                context={"module": key, "symbol": symbol},
            )
        )
    return None, None


def cross_module_deps(
    imports: Iterable[ImportRecord],
    uses: set[str],
    module_map: ModuleMap,
    diagnostics: list[Diagnostic] | None = None,
    store: Store | None = None,
) -> list[CrossModuleDependency]:
    """Partition imported entities into explicit and potential dependencies.

    An entity is explicit when its locally bound alias appears in ``uses``
    (the target function's identifier set; pass an empty set at script
    scope, where only definitions are extracted). Everything else imported
    is potential. Cross-file entities resolve their definition from the
    mapped source file; wildcard imports register the module itself as a
    single potential dependency. Modules are read through :func:`facts_of`
    over ``store``.
    """

    reader = _ModuleReader(module_map, diagnostics, store)
    deps: list[CrossModuleDependency] = []
    for rec in imports:
        origin, key = _resolve_module(rec.module_path, module_map, diagnostics)
        for symbol, alias in rec.bound_names:
            if symbol == "*":
                resolved = reader.module_record(key) if key is not None else None
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
                    resolved = reader.module_record(key)
                    if resolved is not None:
                        resolved_path = module_map.path_of(key)
                else:
                    resolved, resolved_path = _resolve_symbol(
                        key, symbol, module_map, reader, diagnostics
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
