"""JSON-over-HTTP client shared by the remote embedding and chat backends.

Standard library only. Everything that does not change between calls is
worked out once, when the client is built: the parsed endpoint, the
request head, the proxy (from ``https_proxy``/``http_proxy`` and ``no_proxy``,
reached through a CONNECT tunnel) and the TLS context (the default
``ssl`` context: certificates verified against the system CA store,
which ``SSL_CERT_FILE`` can point elsewhere), and the pool of
``connections`` keep-alive connections. A connection opens its socket on
its first request, and the most recently used one is handed out first, so
a socket opens only when every open one is busy; ``close()`` closes them
all. A request holds a connection only while it is sent and answered, so
the pool size bounds the requests in flight, however many threads call.

``http.client`` only connects (socket, TLS, proxy tunnel); the HTTP/1.1
exchange is the client's own: one ``sendall`` per request, and a small reply
parser that keeps ``http.client``'s bounds and raises its exceptions.

``post`` is the one retry loop: server errors (5xx), connection errors and
bodies that are not JSON are retried with exponential back-off; any other
status outside 200-299 (4xx, or 3xx: redirects are not followed) never
heals on retry and fails at once. A request waiting out its back-off holds
no connection. ``field`` reads a value out of a reply and fails, without a
retry, on a reply of the wrong shape.
"""

from __future__ import annotations

import base64
import http.client
import json
import queue
import ssl
import time
import urllib.parse
import urllib.request

from .errors import BackendError, ConfigurationError

_MAX_LINE, _MAX_HEADERS = 65536, 100  # the bounds http.client keeps
MAX_RETRIES, BACKOFF_SECONDS = 3, 0.5  # ``post``'s retries and first back-off, read per call


def _line(reader) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise http.client.LineTooLong("a line")
    return line


def _headers(reader) -> dict[bytes, bytes]:
    """The header lines up to the blank one, by lower-case name."""
    headers = {}
    for _ in range(_MAX_HEADERS + 1):
        line = _line(reader)
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, _, value = line.partition(b":")
        headers[name.strip().lower()] = value.strip()
    raise http.client.HTTPException(f"got more than {_MAX_HEADERS} headers")


def _reply(reader) -> tuple[int, dict[bytes, bytes], bytes, bool]:
    """One reply: (status, headers, body, whether the connection stays open).
    A number in it that does not parse raises ``ValueError``."""
    status = 100
    while status < 200:  # interim replies, such as 100 Continue, come first
        line = _line(reader)
        if not line:
            raise http.client.RemoteDisconnected("Remote end closed connection without response")
        version, _, rest = line.partition(b" ")
        if not version.startswith(b"HTTP/") or not 100 <= (status := int(rest[:3])) <= 999:
            raise http.client.BadStatusLine(repr(line))
        headers = _headers(reader)
    keep = version == b"HTTP/1.1" and b"close" not in headers.get(b"connection", b"").lower()
    if status in (204, 304):
        return status, headers, b"", keep
    if headers.get(b"transfer-encoding", b"").lower() == b"chunked":
        chunks = []  # a short chunk leaves the next size line empty: a ValueError
        while size := int(_line(reader).split(b";")[0], 16):
            chunks.append(reader.read(size + 2)[:-2])  # a chunk ends in CRLF
        _headers(reader)  # the trailer
        return status, headers, b"".join(chunks), keep
    if b"content-length" not in headers:  # the body ends with the connection
        return status, headers, reader.read(), False
    body = reader.read(size := int(headers[b"content-length"]))
    if len(body) < size:
        raise http.client.IncompleteRead(body, size - len(body))
    return status, headers, body, keep


class JsonClient:
    """POSTs JSON payloads to one endpoint and returns the decoded replies."""

    def __init__(
        self,
        endpoint: str,
        *,
        name: str,
        api_key: str | None = None,
        timeout: float = 30.0,
        connections: int = 1,
    ):
        if connections < 1:
            raise ConfigurationError(f"{name} client needs at least 1 connection")
        try:
            url = urllib.parse.urlsplit(endpoint)
            port = url.port
            authority = url.netloc.rpartition("@")[2]
            host = authority.encode("idna").decode()
        except ValueError as e:  # an unclosed "[", a port outside 0-65535, an empty label
            raise ConfigurationError(f"{name} endpoint is not a valid URL: {e}") from None
        # the endpoint without user info or query, either of which may hold
        # a credential: what a file or a message may show of the service
        endpoint = urllib.parse.urlunsplit((url.scheme, authority, url.path, "", ""))
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ConfigurationError(f"{name} endpoint must be an http(s) URL, got {endpoint!r}")
        # a bearer token is printable ASCII, and a line break would end its header
        if api_key and not (api_key.isascii() and api_key.isprintable()):
            raise ConfigurationError(f"{name} API key must be printable ASCII")
        self.name, self.endpoint = name, endpoint
        self.timeout = timeout
        path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        # a space, a control character or a character outside ASCII, percent-encoded
        path = urllib.parse.quote(path, safe=bytes(range(33, 127)))
        self._head = (  # every request's head, up to the value of its Content-Length
            f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
            "Accept-Encoding: identity\r\nContent-Type: application/json\r\n"
            + (f"Authorization: Bearer {api_key}\r\n" if api_key else "")
            + "Content-Length: "
        ).encode("ascii")
        https = url.scheme == "https"
        self._context = ssl.create_default_context() if https else None
        target = (url.hostname, port or (443 if https else 80))
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
        self._connections = [self._new_connection() for _ in range(connections)]
        self._pool: queue.LifoQueue[http.client.HTTPConnection] = queue.LifoQueue()
        for conn in self._connections:
            self._pool.put(conn)

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
        return conn

    def _exchange(self, conn: http.client.HTTPConnection, request: bytes):
        """Send ``request`` on ``conn``, connecting it if closed: (status, headers, body)."""
        if conn.sock is None:
            conn.connect()
        conn.sock.sendall(request)
        # one reader per reply, as http.client makes, so conn.close() closes the socket
        with conn.sock.makefile("rb") as reader:
            try:
                status, headers, body, keep = _reply(reader)
            except ValueError as e:
                raise http.client.HTTPException(f"malformed reply: {e}") from e
        if not keep:
            conn.close()
        return status, headers, body

    def _send(self, body: bytes) -> tuple[int, dict[bytes, bytes], bytes]:
        """One request on a pooled connection: (status, headers, body).

        Blocks until a connection is free, and gives it back when the
        exchange ends.
        """
        conn = self._pool.get()
        reused = conn.sock is not None
        request = b"%s%d\r\n\r\n%s" % (self._head, len(body), body)
        try:
            try:
                return self._exchange(conn, request)
            except ConnectionError:
                if not reused:
                    raise
                # the server closed the idle keep-alive connection before
                # answering: resend once on a fresh one
                conn.close()
                return self._exchange(conn, request)
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
        for attempt in range(MAX_RETRIES + 1):
            if attempt:
                time.sleep(BACKOFF_SECONDS * (2 ** (attempt - 1)))
            try:
                status, headers, data = self._send(body)
            except (OSError, http.client.HTTPException) as e:
                last_error = e
                continue
            if status >= 500:
                last_error = BackendError(f"{self.name} service returned {status}", retryable=True)
                continue
            if status >= 300:
                location = headers.get(b"location", b"").decode("latin-1")
                where = f" (Location: {location})" if location else ""
                raise BackendError(f"{self.name} service returned {status}{where}")
            try:
                return json.loads(data)
            except ValueError as e:  # not JSON, or not UTF-8
                last_error = e
        raise BackendError(
            f"{self.name} backend failed after retries: {last_error}"
        ) from last_error

    def field(self, reply, *path, kind: type = object):
        """``reply[path[0]][path[1]]…`` when it is a ``kind``; otherwise a
        non-retryable ``BackendError`` naming the first step of ``path`` that
        the reply lacks (or the whole path, for a value of another type) and
        quoting the reply."""
        value, depth = reply, 0
        try:
            for depth, key in enumerate(path, start=1):
                value = value[key]
        except (KeyError, IndexError, TypeError):  # a key or index missing, or no container
            pass
        else:
            if isinstance(value, kind):
                return value
        where = "".join(f"[{key!r}]" for key in path[:depth])
        raise BackendError(f"{self.name} service reply has no usable {where}: {reply!r:.80}")

    def close(self) -> None:
        """Close every connection of the pool; a later request reconnects."""
        for conn in self._connections:
            conn.close()
