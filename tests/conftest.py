from __future__ import annotations

import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from graphsynth import remote
from graphsynth.corpus import Chunk, ChunkStore
from graphsynth.extraction import EntityRecord


class FakeEmbedder:
    """Embedding backend with hand-set vectors, keyed by text."""

    def __init__(self, vectors: dict[str, tuple[float, ...]], dim: int | None = None):
        self.vectors = {k: tuple(float(x) for x in v) for k, v in vectors.items()}
        self.dim = dim or (len(next(iter(vectors.values()))) if vectors else 0)
        self.backend_id = "fake"

    def embed(self, text: str) -> tuple[float, ...]:
        return self.vectors[text]


def make_store(chunk_texts: dict[str, str], docs: dict[str, str] | None = None) -> ChunkStore:
    """chunk_id -> text; doc id inferred from the part before '#'."""
    chunks = []
    ordinals: dict[str, int] = {}
    for chunk_id, text in chunk_texts.items():
        doc_id = chunk_id.split("#")[0]
        ordinal = ordinals.get(doc_id, 0)
        ordinals[doc_id] = ordinal + 1
        chunks.append(Chunk(chunk_id=chunk_id, doc_id=doc_id, ordinal=ordinal, text=text))
    return ChunkStore(chunks, docs or {})


def make_entity_map(spec: dict[str, list[str]]) -> list[EntityRecord]:
    """entity_id -> chunk ids; canonical name equals the id."""
    return [
        EntityRecord(entity_id=e, canonical_name=e, aliases={e}, chunk_ids=list(chunks))
        for e, chunks in spec.items()
    ]


@pytest.fixture
def fake_embedder_factory():
    return FakeEmbedder


@pytest.fixture
def store_factory():
    return make_store


@pytest.fixture
def entity_map_factory():
    return make_entity_map


class JsonServer:
    """In-process HTTP/1.1 keep-alive server on 127.0.0.1 for transport tests.

    ``respond(n, payload)`` answers the n-th POST (1-based) with
    ``(status, body)``: a bytes body is sent as is, anything else as JSON.
    ``None`` drops the connection without a status line. With
    ``close_each`` every reply carries ``Connection: close``. The server
    counts POSTs (``calls``), accepted connections (``accepted``),
    connections still open (``open``) and the most POSTs it was answering
    at once (``peak_in_flight``), and keeps the last request's payload and
    headers.
    """

    def __init__(self, respond, close_each: bool = False):
        self.respond = respond
        self.calls = self.accepted = self.open = 0
        self.in_flight = self.peak_in_flight = 0
        self.last_payload = self.last_headers = None
        self._lock = threading.Lock()
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True  # else each reply waits ~40 ms for a delayed ACK

            def log_message(self, format, *args):  # noqa: A002 - stdlib signature
                pass

            def setup(self):
                super().setup()
                with server._lock:
                    server.accepted += 1
                    server.open += 1

            def finish(self):
                with server._lock:
                    server.open -= 1
                super().finish()

            def do_POST(self):
                payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                with server._lock:
                    server.calls += 1
                    n = server.calls
                    server.last_payload, server.last_headers = payload, dict(self.headers)
                    server.in_flight += 1
                    server.peak_in_flight = max(server.peak_in_flight, server.in_flight)
                try:
                    self._reply(n, payload)
                finally:
                    with server._lock:
                        server.in_flight -= 1

            def _reply(self, n, payload):
                reply = server.respond(n, payload)
                if reply is None:
                    self.close_connection = True
                    return
                status, body = reply
                if not isinstance(body, bytes):
                    body = json.dumps(body).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                if close_each:
                    self.send_header("Connection", "close")
                self.end_headers()
                self.wfile.write(body)

        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()
        self.url = f"http://127.0.0.1:{self._httpd.server_address[1]}/v1/endpoint"

    def wait_closed(self, timeout: float = 5.0) -> int:
        """Open connections once they drop to 0, or when ``timeout`` passes."""
        deadline = time.monotonic() + timeout
        while self.open and time.monotonic() < deadline:
            time.sleep(0.01)
        return self.open

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)


@pytest.fixture
def no_proxy_env(monkeypatch):
    """No proxy variables in the environment."""
    for key in list(os.environ):
        if "proxy" in key.lower():
            monkeypatch.delenv(key)


@pytest.fixture
def json_server(no_proxy_env):
    """Factory for ``JsonServer``s, reached without a proxy and stopped when the test ends."""
    servers: list[JsonServer] = []

    def start(respond, close_each: bool = False) -> JsonServer:
        servers.append(JsonServer(respond, close_each))
        return servers[-1]

    yield start
    for server in servers:
        server.stop()


@pytest.fixture
def retries(monkeypatch):
    """``retries(n)`` lets the HTTP client retry a request ``n`` times for the
    test, and ``retries(n, backoff_seconds)`` also sets its first back-off."""

    def apply(max_retries: int, backoff_seconds: float | None = None) -> None:
        monkeypatch.setattr(remote, "MAX_RETRIES", max_retries)
        if backoff_seconds is not None:
            monkeypatch.setattr(remote, "BACKOFF_SECONDS", backoff_seconds)

    return apply
