"""Text embeddings with caching, and the ranking similarity function.

Similarity is the raw dot product of embeddings; candidate paragraph
ranking during traversal depends on nothing else. The hash backend gives
deterministic unit-norm vectors so the whole pipeline can run offline; the
remote backend posts to an HTTP embedding service through the shared
keep-alive ``remote.JsonClient``, which owns retries and connections.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .errors import IntegrityError

Vector = tuple[float, ...]

DEFAULT_HASH_DIM = 64


def similarity(q: Sequence[float], c: Sequence[float], cosine: bool = False) -> float:
    """Dot product by default; ``cosine`` normalizes both sides first."""
    if len(q) != len(c):
        raise ValueError(f"dimension mismatch: {len(q)} vs {len(c)}")
    dot = float(sum(a * b for a, b in zip(q, c)))
    if not cosine:
        return dot
    nq = math.sqrt(sum(a * a for a in q))
    nc = math.sqrt(sum(b * b for b in c))
    if nq == 0.0 or nc == 0.0:
        return 0.0
    return dot / (nq * nc)


def content_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class EmbeddingBackend(Protocol):
    backend_id: str

    def embed(self, text: str) -> Vector: ...


class HashEmbeddingBackend:
    """Unit-norm pseudo-random vectors seeded by the content hash."""

    def __init__(self, dim: int = DEFAULT_HASH_DIM):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self.backend_id = f"hash{dim}"

    def embed(self, text: str) -> Vector:
        seed = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(self.dim)
        v = v / np.linalg.norm(v)
        return tuple(float(x) for x in v)


class RemoteEmbeddingBackend:
    """Thin client for an HTTP embedding service (OpenAI-style contract)."""

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str | None = None,
        max_retries: int = 3,
        backoff_seconds: float = 0.5,
        timeout: float = 30.0,
    ):
        self.model = model
        self.backend_id = f"remote:{model}"
        # imported here so that runs with the offline backends never load
        # http.client and ssl
        from .remote import JsonClient

        self.client = JsonClient(
            endpoint, name="embedding", api_key=api_key, max_retries=max_retries,
            backoff_seconds=backoff_seconds, timeout=timeout,
        )

    def embed(self, text: str) -> Vector:
        reply = self.client.post({"model": self.model, "input": [text]})
        return tuple(float(x) for x in reply["data"][0]["embedding"])

    def close(self) -> None:
        self.client.close()


class EmbeddingCache:
    """(backend id, content hash) -> vector, persisted as a single JSON file.

    Reads are lock-free on the snapshot dict; writes are serialized.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path else None
        self._entries: dict[tuple[str, str], Vector] = {}
        self._dims: dict[str, int] = {}
        self._lock = threading.Lock()
        if self.path and self.path.exists():
            self.load(self.path)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, backend_id: str, key: str) -> Vector | None:
        return self._entries.get((backend_id, key))

    def put(self, backend_id: str, key: str, vector: Vector) -> None:
        with self._lock:
            dim = self._dims.get(backend_id)
            if dim is not None and dim != len(vector):
                raise IntegrityError(
                    f"backend '{backend_id}' returned dim {len(vector)}, cache holds dim {dim}"
                )
            self._dims[backend_id] = len(vector)
            self._entries[(backend_id, key)] = tuple(vector)

    def load(self, path: str | Path) -> None:
        with open(path, "r", encoding="utf-8") as f:
            payload = json.load(f)
        for rec in payload.get("entries", []):
            self.put(rec["backend"], rec["hash"], tuple(float(x) for x in rec["values"]))

    def save(self, path: str | Path | None = None) -> None:
        target = Path(path) if path else self.path
        if target is None:
            raise ValueError("no cache path configured")
        entries = [
            {"backend": backend, "hash": key, "values": list(vec)}
            for (backend, key), vec in sorted(self._entries.items())
        ]
        with open(target, "w", encoding="utf-8") as f:
            json.dump({"entries": entries}, f, sort_keys=True)


def embed_text(text: str, backend: EmbeddingBackend, cache: EmbeddingCache | None = None) -> Vector:
    """Embed with cache-first lookup; identical text yields identical vectors."""
    if not text:
        raise ValueError("cannot embed empty text")
    if cache is None:
        return tuple(backend.embed(text))
    key = content_hash(text)
    hit = cache.get(backend.backend_id, key)
    if hit is not None:
        return hit
    vector = tuple(backend.embed(text))
    cache.put(backend.backend_id, key, vector)
    return vector


def embed_texts(
    texts: Sequence[str],
    backend: EmbeddingBackend,
    cache: EmbeddingCache | None = None,
    concurrency: int = 1,
) -> list[Vector]:
    """Embed many texts, issuing backend calls with a bounded in-flight count.

    Results come back in input order regardless of completion order.
    """
    if concurrency <= 1 or len(texts) <= 1:
        return [embed_text(t, backend, cache) for t in texts]
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        return list(pool.map(lambda t: embed_text(t, backend, cache), texts))
