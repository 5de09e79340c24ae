"""Text embeddings with caching, and the ranking similarity function.

Similarity is the raw dot product of embeddings; candidate paragraph
ranking during traversal depends on nothing else. The hash backend gives
deterministic unit-norm vectors so the whole pipeline can run offline; the
remote backend posts to an HTTP embedding service through the shared
keep-alive ``remote.JsonClient``, which owns retries and connections.
Vectors are 1-d float64 arrays; the cache hands out read-only ones.
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .errors import BackendError, IntegrityError
from .jsonl import write_json

Vector = np.ndarray

DEFAULT_HASH_DIM = 64


def similarity(q: Sequence[float], c: Sequence[float]) -> float:
    """Dot product, summed left to right from 0.0.

    An explicit loop, not ``sum()``: from Python 3.12 on, ``sum()`` of
    floats is compensated, so its result would depend on the Python version.
    """
    if len(q) != len(c):
        raise ValueError(f"dimension mismatch: {len(q)} vs {len(c)}")
    total = 0.0
    for a, b in zip(q, c):
        total += a * b
    return float(total)


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
        return v / np.linalg.norm(v)


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
        values = reply["data"][0]["embedding"]
        try:
            vector = np.array(values, dtype=np.float64)
            if vector.ndim == 1 and vector.size:
                return vector
        except (TypeError, ValueError):  # a ragged list, or an element no number
            pass
        raise BackendError(f"embedding service returned no flat list of numbers: {values!r:.80}")

    def close(self) -> None:
        self.client.close()


class EmbeddingCache:
    """(backend id, content hash) -> vector, persisted as a single JSON file.

    The file at ``path``, if there is one, is loaded when the cache is made.
    ``save`` writes back only the entries this cache looked up or added
    since, so entries loaded for texts a run no longer has are dropped.
    Reads are lock-free on the snapshot dict; writes are serialized.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path else None
        self._entries: dict[tuple[str, str], Vector] = {}
        self._dims: dict[str, int] = {}
        self._used: set[tuple[str, str]] = set()
        self._lock = threading.Lock()
        if self.path and self.path.exists():
            with open(self.path, "r", encoding="utf-8") as f:
                payload = json.load(f)
            for rec in payload.get("entries", []):
                self._store(rec["backend"], rec["hash"], rec["values"])

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, backend_id: str, key: str) -> Vector | None:
        hit = self._entries.get((backend_id, key))
        if hit is not None:
            self._used.add((backend_id, key))
        return hit

    def put(self, backend_id: str, key: str, vector: Vector) -> None:
        self._store(backend_id, key, vector)
        self._used.add((backend_id, key))

    def _store(self, backend_id: str, key: str, values) -> None:
        vector = np.array(values, dtype=np.float64)
        vector.flags.writeable = False
        with self._lock:
            dim = self._dims.get(backend_id)
            if dim is not None and dim != len(vector):
                raise IntegrityError(
                    f"backend '{backend_id}' returned dim {len(vector)}, cache holds dim {dim}"
                )
            self._dims[backend_id] = len(vector)
            self._entries[(backend_id, key)] = vector

    def save(self) -> None:
        if self.path is None:
            raise ValueError("no cache path configured")
        entries = [
            {"backend": backend, "hash": key, "values": self._entries[backend, key].tolist()}
            for backend, key in sorted(self._used)
        ]
        write_json(self.path, {"entries": entries})


def embed_text(text: str, backend: EmbeddingBackend, cache: EmbeddingCache | None = None) -> Vector:
    """Embed with cache-first lookup; identical text yields identical vectors.

    An empty vector from the backend is an ``IntegrityError``.
    """
    if not text:
        raise ValueError("cannot embed empty text")
    key = content_hash(text)
    hit = cache.get(backend.backend_id, key) if cache is not None else None
    if hit is not None:
        return hit
    vector = backend.embed(text)
    if len(vector) == 0:
        raise IntegrityError(f"backend '{backend.backend_id}' returned an empty vector")
    if cache is not None:
        cache.put(backend.backend_id, key, vector)
    return vector
