"""JSON-over-HTTP client shared by the remote embedding and chat backends.

Standard library only. Everything that does not change between calls is
worked out once, when the client is built: the parsed endpoint, the
headers, the proxy (from ``https_proxy``/``http_proxy`` and ``no_proxy``,
reached through a CONNECT tunnel) and the TLS context (the default
``ssl`` context: certificates verified against the system CA store,
which ``SSL_CERT_FILE`` can point elsewhere). The client keeps a pool of
at most ``connections`` keep-alive connections, opened as they are first
needed, and ``close()`` closes every connection the pool opened. A request
holds a connection only while it is sent and answered, so the pool size
bounds the requests in flight, whatever the number of calling threads.

``post`` is the one retry loop: server errors (5xx), connection errors and
bodies that are not JSON are retried with exponential back-off; client
errors (4xx) never heal on retry and fail at once. A request waiting out
its back-off holds no connection.
"""

from __future__ import annotations

import base64
import http.client
import json
import queue
import ssl
import threading
import time
import urllib.parse
import urllib.request

from .errors import BackendError, ConfigurationError


class JsonClient:
    """POSTs JSON payloads to one endpoint and returns the decoded replies."""

    def __init__(
        self,
        endpoint: str,
        *,
        name: str,
        api_key: str | None = None,
        max_retries: int = 3,
        backoff_seconds: float = 0.5,
        timeout: float = 30.0,
        connections: int = 1,
    ):
        if connections < 1:
            raise ConfigurationError(f"{name} client needs at least 1 connection")
        url = urllib.parse.urlsplit(endpoint)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ConfigurationError(f"{name} endpoint must be an http(s) URL, got {endpoint!r}")
        self.name = name
        self.max_retries = max_retries
        self.backoff_seconds = backoff_seconds
        self.timeout = timeout
        self._path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self._headers = {"Content-Type": "application/json"}
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"
        https = url.scheme == "https"
        self._context = ssl.create_default_context() if https else None
        target = (url.hostname, url.port or (443 if https else 80))
        proxy = urllib.request.getproxies().get(url.scheme)
        self._tunnel: dict | None = None
        if proxy and not urllib.request.proxy_bypass(url.hostname):
            proxy_url = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            headers = {}
            if proxy_url.username:
                user = urllib.parse.unquote(proxy_url.username)
                password = urllib.parse.unquote(proxy_url.password or "")
                credentials = f"{user}:{password}".encode("utf-8")
                headers["Proxy-Authorization"] = "Basic " + base64.b64encode(credentials).decode()
            self._tunnel = {"host": target[0], "port": target[1], "headers": headers}
            target = (proxy_url.hostname, proxy_url.port or 80)
        self._address = target
        # a None slot stands for a connection not opened yet; LIFO hands out
        # the most recently used connection first, so a slot is opened only
        # when every open connection is busy
        self._pool: queue.LifoQueue[http.client.HTTPConnection | None] = queue.LifoQueue()
        for _ in range(connections):
            self._pool.put(None)
        self._lock = threading.Lock()
        self._connections: list[http.client.HTTPConnection] = []

    def _new_connection(self) -> http.client.HTTPConnection:
        host, port = self._address
        if self._context:
            conn = http.client.HTTPSConnection(
                host, port, timeout=self.timeout, context=self._context
            )
        else:
            conn = http.client.HTTPConnection(host, port, timeout=self.timeout)
        if self._tunnel:
            conn.set_tunnel(**self._tunnel)
        with self._lock:
            self._connections.append(conn)
        return conn

    def _send(self, body: bytes) -> tuple[int, bytes]:
        """One request on a pooled connection: (status, body).

        Blocks until a connection is free, and gives it back when the
        exchange ends.
        """
        conn = self._pool.get()
        if conn is None:
            conn = self._new_connection()
        reused = conn.sock is not None
        try:
            try:
                conn.request("POST", self._path, body, self._headers)
                resp = conn.getresponse()
            except ConnectionError:
                if not reused:
                    raise
                # the server closed the idle keep-alive connection before
                # answering: resend once on a fresh one
                conn.close()
                conn.request("POST", self._path, body, self._headers)
                resp = conn.getresponse()
            return resp.status, resp.read()
        except BaseException:
            # a half-finished exchange leaves the connection unusable; closed,
            # it reconnects on its next request
            conn.close()
            raise
        finally:
            self._pool.put(conn)

    def post(self, payload: dict) -> dict:
        """The decoded JSON reply; ``BackendError`` once retries run out."""
        body = json.dumps(payload).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            if attempt and self.backoff_seconds:
                time.sleep(self.backoff_seconds * (2 ** (attempt - 1)))
            try:
                status, data = self._send(body)
            except (OSError, http.client.HTTPException) as e:
                last_error = e
                continue
            if status >= 500:
                last_error = BackendError(f"{self.name} service returned {status}", retryable=True)
                continue
            if status >= 400:
                raise BackendError(f"{self.name} service returned {status}")
            try:
                return json.loads(data)
            except ValueError as e:  # not JSON, or not UTF-8
                last_error = e
        raise BackendError(
            f"{self.name} backend failed after retries: {last_error}"
        ) from last_error

    def close(self) -> None:
        """Close every connection this client opened; a later request reconnects."""
        with self._lock:
            connections = list(self._connections)
        for conn in connections:
            conn.close()
