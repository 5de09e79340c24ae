"""Text embeddings with caching, and the ranking similarity function.

Similarity is the raw dot product of embeddings; candidate paragraph
ranking during traversal depends on nothing else. The hash backend gives
deterministic unit-norm vectors so the whole pipeline can run offline; the
remote one adapts a ``remote.JsonClient`` to an HTTP embedding service.
``cli.embedding_backend`` builds that client (30 s timeout, retries as
``remote.MAX_RETRIES`` and ``remote.BACKOFF_SECONDS`` say) and closes it.
Vectors are 1-d float64 arrays; the cache hands out read-only ones. The
stages bind a cache to a file for the remote backend only: a hash vector
costs less to make than to save and load.
The cache is JSON Lines (``embeddings.jsonl`` in a workdir), loaded and saved
a line at a time like every artifact; ``with EmbeddingCache(path) as cache:``
saves it when the block ends.
"""

from __future__ import annotations

import hashlib
import logging
import threading
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .errors import BackendError, IntegrityError
from .jsonl import checked, iter_jsonl, write_jsonl

log = logging.getLogger(__name__)

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
    """An HTTP embedding service (OpenAI-style contract) through a ``JsonClient``.

    The id names the model and the client's endpoint, so vectors cached from
    one service are never handed out for another.
    """

    def __init__(self, client, model: str):
        self.client = client
        self.model = model
        self.backend_id = f"remote:{model}@{client.endpoint}"

    def embed(self, text: str) -> Vector:
        reply = self.client.post({"model": self.model, "input": [text]})
        values = self.client.field(reply, "data", 0, "embedding")
        try:
            vector = np.array(values, dtype=np.float64)
            if vector.ndim == 1 and vector.size:
                return vector
        except (TypeError, ValueError):  # a ragged list, or an element no number
            pass
        raise BackendError(f"embedding service returned no flat list of numbers: {values!r:.80}")


class EmbeddingCache:
    """(backend id, content hash) -> vector, persisted as JSON Lines, one
    ``{"backend": …, "hash": …, "values": […]}`` entry per line.

    The file at ``path``, if there is one, is loaded when the cache is made,
    a line at a time; a line that is no such entry is a ``FormatError``
    naming the file and the line. ``save`` writes back only the entries this
    cache looked up or added since, so entries loaded for texts a run no
    longer has are dropped. Used as a context manager, the cache saves itself
    to ``path`` (if bound) when the block ends; a block that raises saves
    every entry, so vectors already paid for outlast the failure, and a
    failed save is then only logged, so the block's own error is the one
    raised. Reads are lock-free on the snapshot dict; writes are serialized.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path else None
        self._entries: dict[tuple[str, str], Vector] = {}
        self._dims: dict[str, int] = {}
        self._used: set[tuple[str, str]] = set()
        self._lock = threading.Lock()
        if self.path and self.path.exists():
            for _ in iter_jsonl(self.path, "backend", "hash", "values", build=self._load_entry):
                pass

    def _load_entry(self, rec: dict) -> None:
        """Store one line's entry; its values must be a non-empty flat list of
        numbers, as many as the backend's earlier entries hold."""
        backend_id, key, values = checked(rec, "backend"), checked(rec, "hash"), rec["values"]
        if type(values) is not list or not values or set(map(type, values)) - {int, float}:
            raise ValueError(f"values {values!r:.80} are no non-empty flat list of numbers")
        try:
            self._store(backend_id, key, values)
        except IntegrityError as e:
            raise ValueError(str(e)) from e

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

    def __enter__(self) -> EmbeddingCache:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.path is None:
            return
        if exc_type is None:
            self.save()
            return
        self._used.update(self._entries)
        try:
            self.save()
        except OSError:
            log.warning("could not save the embedding cache %s", self.path, exc_info=True)

    def save(self) -> None:
        """Write the used entries to ``path``, a line each in key order, atomically."""
        if self.path is None:
            raise ValueError("no cache path configured")
        write_jsonl(
            self.path,
            (
                {"backend": b, "hash": k, "values": self._entries[b, k].tolist()}
                for b, k in sorted(self._used)
            ),
        )


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
