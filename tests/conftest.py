"""Shared fixtures: dependency-case corpus loading, tiny repo builders and
a local HTTP stub for backend tests."""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from repolens.syntax import SourceFile, parse

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


def write_repo(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    return root


@contextmanager
def http_stub(handler):
    """Serve JSON POSTs on an ephemeral local port.

    ``handler(path, payload) -> (status, reply_dict)`` runs per request;
    yields the base URL.
    """

    class _Stub(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length) or b"{}")
            status, reply = handler(self.path, payload)
            data = json.dumps(reply).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

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
