"""Chat backends that only tests use: scripted replies and fault injection."""

from __future__ import annotations

import random
import threading
from typing import Mapping

from graphsynth.errors import BackendError
from graphsynth.extraction import ChatBackend
from graphsynth.synthesis import MockLlmBackend


class ScriptedBackend(MockLlmBackend):
    """The mock backend, except that a request id in ``replies`` gets the
    given text, which is how tests drive invalid and edge payloads."""

    def __init__(self, replies: Mapping[str, str]):
        self.replies = dict(replies)

    def complete(self, prompt, *, temperature, max_tokens, request_id=None):
        if request_id in self.replies:
            return self.replies[request_id]
        return super().complete(
            prompt, temperature=temperature, max_tokens=max_tokens, request_id=request_id
        )


class FaultInjectingBackend:
    """Wraps a backend with deterministic, per-request fault injection.

    A request id rolls once: below ``invalid_rate`` it permanently returns
    an unparseable payload; in the next ``transient_rate`` band the first
    call raises a retryable error and later calls pass through.
    """

    def __init__(self, inner: ChatBackend, invalid_rate: float = 0.2,
                 transient_rate: float = 0.1, seed: int = 0):
        self.inner = inner
        self.invalid_rate = invalid_rate
        self.transient_rate = transient_rate
        self.seed = seed
        self._attempts: dict[str, int] = {}
        self._lock = threading.Lock()

    def roll(self, request_id: str) -> float:
        return random.Random(f"{self.seed}:{request_id}").random()

    def complete(self, prompt, *, temperature, max_tokens, request_id=None):
        rid = request_id or ""
        with self._lock:
            attempt = self._attempts.get(rid, 0)
            self._attempts[rid] = attempt + 1
        roll = self.roll(rid)
        if roll < self.invalid_rate:
            return "this is not json {"
        if roll < self.invalid_rate + self.transient_rate and attempt == 0:
            raise BackendError(f"injected transient failure for {rid}", retryable=True)
        return self.inner.complete(
            prompt, temperature=temperature, max_tokens=max_tokens, request_id=request_id
        )
