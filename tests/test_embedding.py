from __future__ import annotations

import math
import random

import numpy as np
import pytest

from graphsynth.embedding import (
    EmbeddingCache,
    HashEmbeddingBackend,
    RemoteEmbeddingBackend,
    embed_text,
    similarity,
)
from graphsynth.errors import BackendError, IntegrityError


def test_similarity_examples():
    assert similarity((1.0, 0.0), (1.0, 0.0)) == 1.0
    assert similarity((1.0, 0.0), (0.0, 1.0)) == 0.0
    assert similarity((2.0, 3.0), (4.0, 5.0)) == 23.0


def test_similarity_sums_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16, so the ordered sum is 0.0; a
    # compensated sum (the built-in sum() from Python 3.12 on) gives 1.0.
    assert similarity((1e16, 1.0, -1e16), (1.0, 1.0, 1.0)) == 0.0
    assert math.copysign(1.0, similarity((-1.0,), (0.0,))) == 1.0  # 0.0 + -0.0 is 0.0


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
    assert np.array_equal(v1, v2)
    assert v1.shape == (48,) and v1.dtype == np.float64
    assert math.sqrt(sum(x * x for x in v1)) == pytest.approx(1.0, abs=1e-6)
    assert not np.array_equal(backend.embed("other text"), v1)


def test_cache_hit_returns_identical_vector():
    backend = HashEmbeddingBackend(dim=16)
    cache = EmbeddingCache()
    v1 = embed_text("hello there", backend, cache)
    v2 = embed_text("hello there", backend, cache)
    assert np.array_equal(v1, v2)
    assert len(cache) == 1
    # the cached copy is read-only, so no caller can change what later ones get
    with pytest.raises(ValueError):
        v2[0] = 0.0


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
    assert np.array_equal(reloaded.get(backend.backend_id, _key("persist me")), v)


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


def test_remote_backend_posts_text_and_returns_floats(json_server):
    server = json_server(lambda n, payload: (200, {"data": [{"embedding": [0.5, 1]}]}))
    backend = RemoteEmbeddingBackend(server.url, model="m")
    vector = backend.embed("text")
    assert vector.tolist() == [0.5, 1.0] and vector.dtype == np.float64
    backend.close()
    assert server.last_payload == {"model": "m", "input": ["text"]}
    assert backend.backend_id == "remote:m"


@pytest.mark.parametrize("embedding", [[[0.5, 1.0]], [], "0.5", None, [[0.5], [1.0, 2.0]], ["x"]])
def test_remote_backend_rejects_a_reply_that_is_no_flat_list_of_numbers(json_server, embedding):
    server = json_server(lambda n, payload: (200, {"data": [{"embedding": embedding}]}))
    backend = RemoteEmbeddingBackend(server.url, model="m", max_retries=0)
    with pytest.raises(BackendError, match="no flat list of numbers"):
        backend.embed("text")
    backend.close()


def test_embed_text_rejects_an_empty_vector():
    class Empty:
        backend_id = "empty"

        def embed(self, text):
            return np.zeros(0)

    for cache in (None, EmbeddingCache()):
        with pytest.raises(IntegrityError, match="empty vector"):
            embed_text("some text", Empty(), cache)


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
