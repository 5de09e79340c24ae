from __future__ import annotations

import random

import pytest

from graphsynth.embedding import EmbeddingCache, similarity
from graphsynth.graph import build_graph
from graphsynth.traversal import (
    PathSampler,
    TraversalConfig,
    load_paths,
    sample_paths,
    save_paths,
    select_start_paragraphs,
)
from oracles import enumerate_paths

from conftest import FakeEmbedder, make_entity_map, make_store


def _uniform_embedder(chunk_ids, vec=(1.0, 0.0)):
    return FakeEmbedder({c: vec for c in chunk_ids})


def _toy_sampler(spec, vectors, cfg):
    """spec: entity -> chunk ids. Chunk text equals its id; doc id is the
    part before '#', or the whole id when there is no '#'."""
    entity_map = make_entity_map(spec)
    chunk_ids = sorted({c for chunks in spec.values() for c in chunks})
    store = make_store({c: c for c in chunk_ids})
    graph = build_graph(entity_map)
    backend = FakeEmbedder(vectors) if isinstance(vectors, dict) else vectors
    return PathSampler(graph, entity_map, store, cfg, backend, EmbeddingCache())


# --- select_start_paragraphs ----------------------------------------------------


def test_start_paragraphs_below_cap_keeps_stored_order():
    rec = make_entity_map({"e": ["c2", "c1", "c3"]})[0]
    cfg = TraversalConfig(max_start_paragraphs=5)
    assert select_start_paragraphs(rec, cfg, random.Random(0)) == ["c2", "c1", "c3"]


def test_start_paragraphs_caps_at_s():
    rec = make_entity_map({"e": [f"c{i}" for i in range(100)]})[0]
    cfg = TraversalConfig(max_start_paragraphs=5)
    picked = select_start_paragraphs(rec, cfg, random.Random(1))
    assert len(picked) == len(set(picked)) == 5
    assert set(picked) <= set(rec.chunk_ids)


def test_start_paragraphs_deterministic_for_seed():
    rec = make_entity_map({"e": [f"c{i}" for i in range(50)]})[0]
    cfg = TraversalConfig(max_start_paragraphs=7)
    a = select_start_paragraphs(rec, cfg, random.Random(42))
    b = select_start_paragraphs(rec, cfg, random.Random(42))
    assert a == b


# --- expand_step -----------------------------------------------------------------


def test_expand_single_candidate_pool_smaller_than_w():
    spec = {"a": ["qa"], "b": ["qa", "cb"]}
    sampler = _toy_sampler(spec, _uniform_embedder(["qa", "cb"]), TraversalConfig(beam_width=3))
    cands = sampler.expand_step(("a", "qa"), (1.0, 0.0), {"a"}, {"qa"})
    assert cands == [("b", "cb", 1.0)]


def test_expand_argmax_by_score():
    spec = {"a": ["qa"], "b": ["qa", "hi", "lo"]}
    vectors = {"qa": (1.0, 0.0), "hi": (0.9, 0.0), "lo": (0.2, 0.0)}
    sampler = _toy_sampler(spec, vectors, TraversalConfig(beam_width=1))
    cands = sampler.expand_step(("a", "qa"), vectors["qa"], {"a"}, {"qa"})
    assert [(c[0], c[1]) for c in cands] == [("b", "hi")]


def test_expand_tie_breaks_on_entity_then_chunk():
    spec = {"a": ["qa"], "b": ["qa", "z"], "c": ["qa", "y"]}
    sampler = _toy_sampler(
        spec, _uniform_embedder(["qa", "z", "y"]), TraversalConfig(beam_width=1)
    )
    cands = sampler.expand_step(("a", "qa"), (1.0, 0.0), {"a"}, {"qa"})
    assert [(c[0], c[1]) for c in cands] == [("b", "z")]

    spec2 = {"a": ["qa"], "b": ["qa", "z", "y"]}
    sampler2 = _toy_sampler(
        spec2, _uniform_embedder(["qa", "z", "y"]), TraversalConfig(beam_width=1)
    )
    cands2 = sampler2.expand_step(("a", "qa"), (1.0, 0.0), {"a"}, {"qa"})
    assert [(c[0], c[1]) for c in cands2] == [("b", "y")]


def test_expand_empty_pool():
    spec = {"a": ["qa"], "b": ["qa"]}
    sampler = _toy_sampler(spec, _uniform_embedder(["qa"]), TraversalConfig())
    assert sampler.expand_step(("a", "qa"), (1.0, 0.0), {"a"}, {"qa"}) == []


def test_expand_filters_other_documents_when_pinned():
    spec = {"a": ["d1#0"], "b": ["d1#0", "d1#1", "d2#0"]}
    sampler = _toy_sampler(
        spec, _uniform_embedder(["d1#0", "d1#1", "d2#0"]), TraversalConfig(beam_width=5)
    )
    unrestricted = sampler.expand_step(("a", "d1#0"), (1.0, 0.0), {"a"}, {"d1#0"})
    assert {(c[0], c[1]) for c in unrestricted} == {("b", "d1#1"), ("b", "d2#0")}
    pinned = sampler.expand_step(("a", "d1#0"), (1.0, 0.0), {"a"}, {"d1#0"}, doc_id="d1")
    assert [(c[0], c[1]) for c in pinned] == [("b", "d1#1")]


@pytest.mark.parametrize("dim", [1, 4, 64])
def test_expand_scores_equal_scalar_similarity(dim):
    rng = random.Random(dim)
    chunks = [f"c{i:02d}" for i in range(40)]
    spec = {"a": ["qa"], "b": ["qa"] + chunks[:25], "c": ["qa"] + chunks[15:]}
    vectors = {
        c: tuple(rng.gauss(0.0, 1.0) for _ in range(dim)) for c in ["qa"] + chunks
    }
    sampler = _toy_sampler(spec, vectors, TraversalConfig(beam_width=100))
    q = vectors["qa"]
    cands = sampler.expand_step(("a", "qa"), q, {"a"}, {"qa"})
    expected = sorted(
        ((e, c, similarity(q, vectors[c])) for e in ("b", "c") for c in spec[e][1:]),
        key=lambda cand: (-cand[2], cand[0], cand[1]),
    )
    assert cands == expected


@pytest.mark.parametrize(
    "width, expected",
    [
        (1, [("b", "s")]),
        (2, [("b", "s"), ("c", "s")]),
        (3, [("b", "s"), ("c", "s"), ("c", "t")]),
    ],
)
def test_expand_ties_on_a_chunk_shared_by_two_neighbors(width, expected):
    spec = {"a": ["qa"], "c": ["qa", "t", "s"], "b": ["qa", "s"]}
    sampler = _toy_sampler(
        spec, _uniform_embedder(["qa", "s", "t"]), TraversalConfig(beam_width=width)
    )
    cands = sampler.expand_step(("a", "qa"), (1.0, 0.0), {"a"}, {"qa"})
    assert cands == [(e, c, 1.0) for e, c in expected]


def test_expand_ties_between_distinct_chunks_with_equal_scores():
    # Different vectors, one score: the tie-break alone orders them.
    spec = {"a": ["qa"], "c": ["qa", "k"], "b": ["qa", "n", "m"]}
    vectors = {"qa": (1.0, 0.0), "m": (1.0, 0.5), "n": (1.0, -0.5), "k": (1.0, 0.0)}
    sampler = _toy_sampler(spec, vectors, TraversalConfig(beam_width=3))
    cands = sampler.expand_step(("a", "qa"), vectors["qa"], {"a"}, {"qa"})
    assert cands == [("b", "m", 1.0), ("b", "n", 1.0), ("c", "k", 1.0)]


class CountingEmbedder(FakeEmbedder):
    def __init__(self, vectors):
        super().__init__(vectors)
        self.calls: list[str] = []

    def embed(self, text):
        self.calls.append(text)
        return super().embed(text)


def test_expand_embeds_only_unmasked_candidates():
    # d1#1 is held only by a visited neighbor, d1#3 is on the path and
    # d2#0 lies in another document: none of them is ever embedded.
    spec = {
        "a": ["d1#0"],
        "b": ["d1#0", "d1#1"],
        "c": ["d1#0", "d1#2", "d1#3", "d2#0"],
    }
    backend = CountingEmbedder({c: (1.0, 0.0) for c in ["d1#0", "d1#1", "d1#2", "d1#3", "d2#0"]})
    sampler = _toy_sampler(spec, backend, TraversalConfig(beam_width=5))
    cands = sampler.expand_step(
        ("a", "d1#0"), (1.0, 0.0), {"a", "b"}, {"d1#0", "d1#3"}, doc_id="d1"
    )
    assert cands == [("c", "d1#2", 1.0)]
    assert backend.calls == ["d1#2"]
    # A second step over the same pool reuses the embedded chunk.
    sampler.expand_step(("a", "d1#0"), (1.0, 0.0), {"a"}, {"d1#0"}, doc_id="d1")
    assert sorted(backend.calls) == ["d1#1", "d1#2", "d1#3"]


# --- sample_paths ----------------------------------------------------------------


def test_unique_two_hop_expansion():
    spec = {"a": ["qa"], "b": ["qa", "cb"], "c": ["cb", "cc"]}
    cfg = TraversalConfig(depth=2, beam_width=1, hop_policy="two_hop", max_start_paragraphs=3)
    sampler = _toy_sampler(spec, _uniform_embedder(["qa", "cb", "cc"]), cfg)
    by_root = sampler.sample().by_root()
    assert [p.steps for p in by_root["a"]] == [[("a", "qa"), ("b", "cb"), ("c", "cc")]]
    assert by_root["a"][0].hop_count == 2


def test_isolated_root_emits_nothing():
    spec = {"a": ["qa"], "z": ["cz"]}
    cfg = TraversalConfig(hop_policy="one_hop")
    sampler = _toy_sampler(spec, _uniform_embedder(["qa", "cz"]), cfg)
    assert sampler.sample().by_root() == {}


def test_one_hop_policy_limits_depth():
    spec = {"a": ["qa"], "b": ["qa", "cb"], "c": ["cb", "cc"]}
    cfg = TraversalConfig(depth=2, beam_width=2, hop_policy="one_hop")
    sampler = _toy_sampler(spec, _uniform_embedder(["qa", "cb", "cc"]), cfg)
    assert all(p.hop_count == 1 for p in sampler.sample().paths)


def test_mixed_policy_emits_prefixes_too():
    spec = {"a": ["qa"], "b": ["qa", "cb"], "c": ["cb", "cc"]}
    cfg = TraversalConfig(depth=2, beam_width=1, hop_policy="mixed", mixed_ratio=0.5)
    sampler = _toy_sampler(spec, _uniform_embedder(["qa", "cb", "cc"]), cfg)
    hops = sorted(p.hop_count for p in sampler.sample().by_root().get("a", []))
    assert hops == [1, 2]


def _random_instance(rng, n_entities, n_chunks, dim=4):
    entities = [f"e{i}" for i in range(n_entities)]
    chunk_ids = [f"c{i:02d}" for i in range(n_chunks)]
    chunk_entities = {}
    for c in chunk_ids:
        chunk_entities[c] = set(rng.sample(entities, rng.randint(1, min(3, n_entities))))
    entity_chunks: dict[str, list[str]] = {}
    for c in sorted(chunk_entities):
        for e in chunk_entities[c]:
            entity_chunks.setdefault(e, []).append(c)
    vectors = {
        c: tuple(round(rng.uniform(-1, 1), 3) for _ in range(dim)) for c in chunk_ids
    }
    return chunk_entities, entity_chunks, vectors


def _paths_via_oracle(chunk_entities, entity_chunks, vectors, cfg):
    expected = []
    for root in sorted(entity_chunks):
        for start in sorted(entity_chunks[root]):
            expected.extend(
                enumerate_paths(
                    chunk_entities,
                    entity_chunks,
                    vectors,
                    root,
                    start,
                    depth=cfg.depth,
                    width=cfg.beam_width,
                    hop_policy=cfg.hop_policy,
                )
            )
    return sorted(expected)


def test_five_entity_toy_matches_exhaustive_enumeration():
    # Derived example: the expected path set comes from the brute-force
    # enumerator, run over all (entity, chunk) sequences with the same
    # scoring and tie-breaks.
    rng = random.Random(7)
    chunk_entities, entity_chunks, vectors = _random_instance(rng, 5, 8)
    cfg = TraversalConfig(depth=2, beam_width=2, hop_policy="two_hop", max_start_paragraphs=99)
    sampler = _toy_sampler(entity_chunks, vectors, cfg)
    got = sorted(tuple(p.steps) for p in sampler.sample().paths)
    assert got == _paths_via_oracle(chunk_entities, entity_chunks, vectors, cfg)


def test_path_invariants_on_random_graphs():
    for seed in range(8):
        rng = random.Random(seed)
        chunk_entities, entity_chunks, vectors = _random_instance(rng, 6, 10)
        cfg = TraversalConfig(
            depth=2, beam_width=2, hop_policy="two_hop", max_start_paragraphs=2, rng_seed=seed
        )
        sampler = _toy_sampler(entity_chunks, vectors, cfg)
        path_set = sampler.sample()
        edges = sampler.graph.edges
        for p in path_set.paths:
            assert p.steps[0][1] == p.root_chunk
            assert 1 <= p.hop_count <= cfg.depth
            ents = p.entities()
            assert len(ents) == len(set(ents))
            chunks = p.chunks()
            assert len(chunks) == len(set(chunks))
            for (e, c) in p.steps:
                assert c in entity_chunks[e]
            for (ea, _), (eb, _) in zip(p.steps, p.steps[1:]):
                assert (min(ea, eb), max(ea, eb)) in edges


def test_beam_bound_per_root_and_start():
    for seed in range(5):
        rng = random.Random(100 + seed)
        chunk_entities, entity_chunks, vectors = _random_instance(rng, 6, 12)
        cfg = TraversalConfig(
            depth=2, beam_width=2, hop_policy="two_hop", max_start_paragraphs=99
        )
        sampler = _toy_sampler(entity_chunks, vectors, cfg)
        per_start = {}
        for p in sampler.sample().paths:
            key = (p.root_entity, p.root_chunk)
            per_start[key] = per_start.get(key, 0) + 1
        assert all(n <= cfg.beam_width**cfg.depth for n in per_start.values())


def test_sampling_is_byte_deterministic(tmp_path):
    rng = random.Random(5)
    chunk_entities, entity_chunks, vectors = _random_instance(rng, 8, 14)
    cfg = TraversalConfig(
        depth=2, beam_width=2, hop_policy="two_hop", max_start_paragraphs=2, rng_seed=77
    )
    out = []
    for name in ("a.jsonl", "b.jsonl"):
        sampler = _toy_sampler(entity_chunks, vectors, cfg)
        save_paths(tmp_path / name, sampler.sample())
        out.append((tmp_path / name).read_bytes())
    assert out[0] == out[1]


def test_cross_document_reach():
    # Roots connect only to other-document entities, so every multi-hop
    # path must span >= 2 doc ids.
    spec = {"a": ["d1#0"], "b": ["d1#0", "d2#0"], "c": ["d2#0", "d3#0"]}
    cfg = TraversalConfig(depth=2, beam_width=2, hop_policy="mixed", mixed_ratio=0.5)
    sampler = _toy_sampler(spec, _uniform_embedder(["d1#0", "d2#0", "d3#0"]), cfg)
    paths = sampler.sample().paths
    assert paths
    store = sampler.chunk_store
    for p in paths:
        docs = {store.get(c).doc_id for c in p.chunks()}
        assert len(docs) >= 2


def test_same_document_only_restricts_candidates():
    spec = {"a": ["d1#0"], "b": ["d1#0", "d2#0", "d1#1"], "c": ["d1#1", "d1#2"]}
    cfg = TraversalConfig(
        depth=2, beam_width=3, hop_policy="two_hop", same_document_only=True
    )
    sampler = _toy_sampler(
        spec, _uniform_embedder(["d1#0", "d1#1", "d1#2", "d2#0"]), cfg
    )
    paths = sampler.sample().paths
    assert paths
    store = sampler.chunk_store
    for p in paths:
        assert len({store.get(c).doc_id for c in p.chunks()}) == 1


def test_config_validation():
    assert TraversalConfig(beam_width=0).validate()
    assert TraversalConfig(hop_policy="two_hop", depth=1).validate()
    assert TraversalConfig(hop_policy="mixed", mixed_ratio=1.5).validate()
    assert TraversalConfig().validate() == []


def test_backend_errors_identify_the_root():
    from graphsynth.errors import BackendError

    class Exploding:
        backend_id = "boom"

        def embed(self, text):
            raise BackendError("remote down", retryable=True)

    spec = {"a": ["qa"], "b": ["qa", "cb"]}
    entity_map = make_entity_map(spec)
    store = make_store({"qa": "qa", "cb": "cb"})
    graph = build_graph(entity_map)
    sampler = PathSampler(graph, entity_map, store, TraversalConfig(), Exploding())
    with pytest.raises(BackendError, match="root a") as err:
        sampler.sample()
    assert err.value.retryable


def test_paths_file_roundtrip(tmp_path):
    spec = {"a": ["qa"], "b": ["qa", "cb"]}
    cfg = TraversalConfig(hop_policy="one_hop")
    sampler = _toy_sampler(spec, _uniform_embedder(["qa", "cb"]), cfg)
    path_set = sampler.sample()
    save_paths(tmp_path / "p.jsonl", path_set)
    loaded = load_paths(tmp_path / "p.jsonl")
    assert [(p.path_id, p.steps, p.hop_count) for p in loaded.paths] == [
        (p.path_id, p.steps, p.hop_count) for p in path_set.paths
    ]
