"""Shared fixtures: dependency-case corpus loading, tiny repo builders and
a local HTTP stub for backend tests."""

from __future__ import annotations

import json
import sys
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from repolens import retrieval, syntax
from repolens.syntax import SourceFile, children, parse

TESTS_DIR = Path(__file__).parent
DEP_CASES = sorted((TESTS_DIR / "dep_cases").glob("case*.py"))


def load_cursor_case(path: Path):
    """Parse a fixture whose completion point is the line marked # CURSOR."""
    text = path.read_text()
    cursor = next(i for i, line in enumerate(text.splitlines()) if "# CURSOR" in line)
    tree = parse(SourceFile.from_text(path.name, text))
    return text, tree, cursor


@pytest.fixture(scope="session")
def dep_case_table():
    assert len(DEP_CASES) == 10
    return [(p.name, *load_cursor_case(p)) for p in DEP_CASES]


def count_parses(monkeypatch) -> list[tuple[str, str]]:
    """Wrap ``syntax.parse`` in every ``repolens`` module that imported it;
    each call appends (module, file path) to the list returned."""
    parses: list[tuple[str, str]] = []
    real_parse = syntax.parse

    def wrap(module_name: str):
        def counted_parse(file):
            parses.append((module_name, file.path))
            return real_parse(file)

        return counted_parse

    for name, module in list(sys.modules.items()):
        if name.startswith("repolens") and getattr(module, "parse", None) is real_parse:
            monkeypatch.setattr(module, "parse", wrap(name.removeprefix("repolens.")))
    return parses


def count_posting_builds(monkeypatch) -> list[int]:
    """Wrap ``retrieval._posting_lists``; each build appends the number of
    windows it covered to the list returned."""
    built: list[int] = []
    real_build = retrieval._posting_lists

    def counted_build(snippets):
        built.append(len(snippets))
        return real_build(snippets)

    monkeypatch.setattr(retrieval, "_posting_lists", counted_build)
    return built


def walk(node):
    """``node`` and every retained node under it, in source order."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(children(current)))


def write_repo(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    return root


def read_store(path: Path) -> dict:
    """A ``.repolens/snippets.json``'s entries, by repository-relative path."""
    return json.loads(path.read_text(encoding="utf-8"))["files"]


def write_store(path: Path, files: object, version: int = retrieval._INDEX_VERSION) -> None:
    path.write_text(json.dumps({"version": version, "files": files}), encoding="utf-8")


def index_repo(root: Path, cache: Path | None = None, window: int = 20, stride: int = 10) -> Path:
    """Window ``root`` into a new store at ``cache`` (the repository's own
    store by default), as ``repolens index --force`` does; the store's path."""
    store = retrieval.Store(cache or retrieval.index_path(root), {})
    retrieval.build_index(root, window, stride, reuse=store)
    store.write()
    return store.path


@contextmanager
def http_stub(handler):
    """Serve JSON POSTs on an ephemeral local port.

    ``handler(path, payload, headers) -> (status, reply_dict)`` runs per
    request; yields the base URL.
    """

    class _Stub(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length) or b"{}")
            status, reply = handler(self.path, payload, self.headers)
            data = json.dumps(reply).encode()
            try:
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)
            except (BrokenPipeError, ConnectionResetError):
                pass  # the client gave up waiting (a timeout test)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), _Stub)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
