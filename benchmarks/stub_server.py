"""Stub chat-completion server for the remote-generate workload.

Standard library only, run as its own process:

    python3 benchmarks/stub_server.py

It prints ``PORT <n>`` on its first stdout line once it accepts
connections on 127.0.0.1, then serves until terminated.

* ``POST /v1/chat/completions`` answers with the payload that
  ``MockLlmBackend`` gives for the prompt, after ``SERVICE_S``.
* Faults depend only on the prompt (with the repair suffix removed) and
  on how many times that prompt was already seen since the last reset.
  ``MALFORMED_SHARE`` of prompts, picked by a hash of the prompt, always
  get malformed JSON. A 503 on the first attempt goes to a fixed number
  of prompts, ``TRANSIENT_PROMPTS``, so that every corpus pays the same
  number of client back-offs: ``POST /fix-transients`` picks the prompts
  seen so far with the lowest hash (the benchmark calls it after the
  priming run, which therefore sees no 503).
* ``POST /reset`` clears the attempt counters and the call count; the
  benchmark calls it before every op.
* ``GET /stats`` returns ``{"calls": n}``, every chat request since the
  last reset, 503s included.

The server answers over HTTP/1.1 keep-alive with Nagle's algorithm off: a
response written in two segments otherwise waits for the client's delayed
ACK, about 40 ms per call.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from graphsynth.synthesis import REPAIR_INSTRUCTION, MockLlmBackend

SERVICE_S = 0.005
MALFORMED_SHARE = 0.02
TRANSIENT_PROMPTS = 5
MALFORMED_BODY = "this is not json {"
_REPAIR_SUFFIX = "\n\n" + REPAIR_INSTRUCTION


def base_prompt(prompt: str) -> str:
    """The prompt without the repair instruction the client may append."""
    return prompt[: -len(_REPAIR_SUFFIX)] if prompt.endswith(_REPAIR_SUFFIX) else prompt


def roll(prompt: str) -> float:
    digest = hashlib.sha256(base_prompt(prompt).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class FaultSchedule:
    """Per-op attempt counters and call count, safe across handler threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self._attempts: dict[str, int] = {}
        self._seen: dict[str, float] = {}
        self.transient: frozenset[str] = frozenset()
        self.calls = 0

    def reset(self) -> None:
        with self._lock:
            self._attempts.clear()
            self.calls = 0

    def fix_transients(self, count: int = TRANSIENT_PROMPTS) -> int:
        """The ``count`` well-formed prompts seen so far with the lowest roll
        get a 503 on their first attempt from now on."""
        with self._lock:
            healthy = sorted((r, key) for key, r in self._seen.items() if r >= MALFORMED_SHARE)
            self.transient = frozenset(key for _, key in healthy[:count])
            return len(self.transient)

    def fault(self, prompt: str, attempt: int) -> str | None:
        """``"malformed"``, ``"transient"`` or ``None`` for this prompt and attempt."""
        key = base_prompt(prompt)
        if roll(key) < MALFORMED_SHARE:
            return "malformed"
        if attempt == 0 and key in self.transient:
            return "transient"
        return None

    def next_fault(self, prompt: str) -> str | None:
        key = base_prompt(prompt)
        with self._lock:
            self.calls += 1
            attempt = self._attempts.get(key, 0)
            self._attempts[key] = attempt + 1
            self._seen.setdefault(key, roll(key))
        return self.fault(key, attempt)


def make_handler(schedule: FaultSchedule):
    mock = MockLlmBackend()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass

        def _reply(self, status: int, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path == "/stats":
                self._reply(200, {"calls": schedule.calls})
            else:
                self._reply(404, {"error": "not found"})

        def do_POST(self):
            length = int(self.headers.get("Content-Length", "0"))
            raw = self.rfile.read(length)
            if self.path == "/reset":
                schedule.reset()
                self._reply(200, {"calls": 0})
                return
            if self.path == "/fix-transients":
                self._reply(200, {"transient": schedule.fix_transients(),
                                  "wanted": TRANSIENT_PROMPTS})
                return
            if self.path != "/v1/chat/completions":
                self._reply(404, {"error": "not found"})
                return
            body = json.loads(raw)
            prompt = body["messages"][0]["content"]
            fault = schedule.next_fault(prompt)
            time.sleep(SERVICE_S)
            if fault == "transient":
                self._reply(503, {"error": "overloaded"})
                return
            if fault == "malformed":
                content = MALFORMED_BODY
            else:
                content = mock.complete(
                    prompt, temperature=body.get("temperature", 0.0),
                    max_tokens=body.get("max_tokens", 0),
                )
            self._reply(200, {"choices": [{"message": {"role": "assistant", "content": content}}]})

    return Handler


def main() -> int:
    schedule = FaultSchedule()
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(schedule))
    server.daemon_threads = True
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
