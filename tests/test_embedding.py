from __future__ import annotations

import math
import random

import pytest

from graphsynth.embedding import (
    EmbeddingCache,
    HashEmbeddingBackend,
    RemoteEmbeddingBackend,
    embed_text,
    embed_texts,
    similarity,
)
from graphsynth.errors import BackendError, IntegrityError


def test_similarity_examples():
    assert similarity((1.0, 0.0), (1.0, 0.0)) == 1.0
    assert similarity((1.0, 0.0), (0.0, 1.0)) == 0.0
    assert similarity((2.0, 3.0), (4.0, 5.0)) == 23.0


def test_similarity_dimension_mismatch():
    with pytest.raises(ValueError):
        similarity((1.0,), (1.0, 2.0))


def test_similarity_symmetry_and_bilinearity():
    rng = random.Random(3)
    for _ in range(25):
        q = tuple(rng.uniform(-1, 1) for _ in range(8))
        c = tuple(rng.uniform(-1, 1) for _ in range(8))
        alpha = rng.uniform(-2, 2)
        assert similarity(q, c) == pytest.approx(similarity(c, q), abs=1e-12)
        scaled = tuple(alpha * x for x in q)
        assert similarity(scaled, c) == pytest.approx(alpha * similarity(q, c), abs=1e-9)


def test_hash_backend_unit_norm_and_deterministic():
    backend = HashEmbeddingBackend(dim=48)
    v1 = backend.embed("some text")
    v2 = backend.embed("some text")
    assert v1 == v2
    assert len(v1) == 48
    assert math.sqrt(sum(x * x for x in v1)) == pytest.approx(1.0, abs=1e-6)
    assert backend.embed("other text") != v1


def test_cache_hit_returns_identical_vector():
    backend = HashEmbeddingBackend(dim=16)
    cache = EmbeddingCache()
    v1 = embed_text("hello there", backend, cache)
    v2 = embed_text("hello there", backend, cache)
    assert v1 == v2
    assert len(cache) == 1


def test_cache_dimension_integrity_error():
    cache = EmbeddingCache()
    cache.put("b", "k1", (1.0, 2.0, 3.0))
    with pytest.raises(IntegrityError):
        cache.put("b", "k2", (1.0, 2.0))


def test_cache_persists_bit_identical(tmp_path):
    backend = HashEmbeddingBackend(dim=32)
    path = tmp_path / "cache.json"
    cache = EmbeddingCache(path)
    v = embed_text("persist me", backend, cache)
    cache.save()
    reloaded = EmbeddingCache(path)
    assert reloaded.get(backend.backend_id, _key("persist me")) == v


def _key(text):
    from graphsynth.embedding import content_hash

    return content_hash(text)


def test_cache_transparency_for_ranking():
    backend = HashEmbeddingBackend(dim=24)
    texts = [f"candidate {i}" for i in range(12)]
    query = backend.embed("the query")

    def rank(cache):
        scored = [(similarity(query, embed_text(t, backend, cache)), t) for t in texts]
        return [t for _, t in sorted(scored, key=lambda x: (-x[0], x[1]))]

    assert rank(None) == rank(EmbeddingCache())


def test_empty_text_rejected():
    with pytest.raises(ValueError):
        embed_text("", HashEmbeddingBackend(dim=4), EmbeddingCache())


def test_cosine_flag_normalizes():
    assert similarity((2.0, 0.0), (4.0, 0.0)) == 8.0
    assert similarity((2.0, 0.0), (4.0, 0.0), cosine=True) == pytest.approx(1.0, abs=1e-12)
    assert similarity((0.0, 0.0), (1.0, 0.0), cosine=True) == 0.0


def test_embed_texts_concurrent_order_and_cache():
    backend = HashEmbeddingBackend(dim=8)
    texts = [f"text {i}" for i in range(9)]
    cache = EmbeddingCache()
    vectors = embed_texts(texts, backend, cache, concurrency=4)
    assert vectors == [embed_text(t, backend, cache) for t in texts]
    assert len(cache) == 9


def test_remote_backend_posts_text_and_returns_floats(json_server):
    server = json_server(lambda n, payload: (200, {"data": [{"embedding": [0.5, 1]}]}))
    backend = RemoteEmbeddingBackend(server.url, model="m")
    assert backend.embed("text") == (0.5, 1.0)
    backend.close()
    assert server.last_payload == {"model": "m", "input": ["text"]}
    assert backend.backend_id == "remote:m"


def test_remote_backend_error_after_bounded_retries(json_server):
    server = json_server(lambda n, payload: None)  # drops every connection unanswered
    backend = RemoteEmbeddingBackend(server.url, model="m", max_retries=2, backoff_seconds=0.0)
    with pytest.raises(BackendError):
        backend.embed("text")
    backend.close()
    assert server.calls == 3


def test_remote_backend_client_errors_are_not_retried(json_server):
    server = json_server(lambda n, payload: (401, {"error": "unauthorized"}))
    backend = RemoteEmbeddingBackend(server.url, model="m", max_retries=3, backoff_seconds=0.0)
    with pytest.raises(BackendError, match="401"):
        backend.embed("text")
    backend.close()
    assert server.calls == 1


def test_remote_backend_server_errors_are_retried(json_server):
    server = json_server(lambda n, payload: (503, {"error": "overloaded"}))
    backend = RemoteEmbeddingBackend(server.url, model="m", max_retries=2, backoff_seconds=0.0)
    with pytest.raises(BackendError, match="503"):
        backend.embed("text")
    backend.close()
    assert server.calls == 3
