"""Loopback chat-completions stub for the warm workload.

One server thread answers one request at a time on 127.0.0.1. The reply
is derived from the last line of the prompt, which is the cursor prefix
of the task, so the benchmark knows in advance what every completion
must be.
"""

from __future__ import annotations

import hashlib
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer


def reply_for(prompt_text: str) -> str:
    last_line = prompt_text.rsplit("\n", 1)[-1]
    return f"stub_{hashlib.sha256(last_line.encode('utf-8')).hexdigest()[:12]}()"


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        prompt = json.loads(body)["messages"][-1]["content"]
        payload = json.dumps(
            {"choices": [{"message": {"role": "assistant", "content": reply_for(prompt)}}]}
        ).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format, *args) -> None:  # noqa: A002 - keep stderr quiet
        pass


class ChatStub:
    """Serve until ``close``; usable as a context manager."""

    def __init__(self) -> None:
        self._server = HTTPServer(("127.0.0.1", 0), _Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    @property
    def url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}/v1/chat/completions"

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)

    def __enter__(self) -> "ChatStub":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
