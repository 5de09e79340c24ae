from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest

from graphsynth import traversal
from graphsynth.embedding import EmbeddingCache, embed_text, similarity
from graphsynth.errors import IntegrityError
from graphsynth.graph import build_graph
from graphsynth.traversal import (
    Path,
    PathSampler,
    TraversalConfig,
    load_paths,
    save_paths,
    select_start_paragraphs,
)
from oracles import enumerate_paths

from conftest import FakeEmbedder, make_entity_map, make_store


def _uniform_embedder(chunk_ids, vec=(1.0, 0.0)):
    return FakeEmbedder({c: vec for c in chunk_ids})


def _toy_sampler(spec, vectors, cfg, sampler_class=PathSampler, seed=0):
    """spec: entity -> chunk ids. Chunk text equals its id; doc id is the
    part before '#', or the whole id when there is no '#'."""
    entity_map = make_entity_map(spec)
    chunk_ids = sorted({c for chunks in spec.values() for c in chunks})
    store = make_store({c: c for c in chunk_ids})
    graph = build_graph(entity_map)
    backend = FakeEmbedder(vectors) if isinstance(vectors, dict) else vectors
    return sampler_class(graph, entity_map, store, cfg, backend, EmbeddingCache(), seed=seed)


# --- select_start_paragraphs ----------------------------------------------------


def test_start_paragraphs_below_cap_keeps_stored_order(monkeypatch):
    rec = make_entity_map({"e": ["c2", "c1", "c3"]})[0]
    cfg = TraversalConfig(max_start_paragraphs=5)
    monkeypatch.setattr(random, "Random", None)  # a root that does not draw seeds no rng
    assert select_start_paragraphs(rec, cfg, 0) == ["c2", "c1", "c3"]


def test_start_paragraphs_caps_at_s():
    rec = make_entity_map({"e": [f"c{i}" for i in range(100)]})[0]
    cfg = TraversalConfig(max_start_paragraphs=5)
    picked = select_start_paragraphs(rec, cfg, 1)
    assert len(picked) == len(set(picked)) == 5
    assert set(picked) <= set(rec.chunk_ids)


def test_start_paragraphs_deterministic_for_seed():
    rec = make_entity_map({"e": [f"c{i}" for i in range(50)]})[0]
    cfg = TraversalConfig(max_start_paragraphs=7)
    a = select_start_paragraphs(rec, cfg, 42)
    b = select_start_paragraphs(rec, cfg, 42)
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


@pytest.mark.parametrize("doc_id", [None, "qa"])
def test_a_root_vector_of_another_dimension_is_a_value_error(doc_id):
    spec = {"a": ["qa"], "b": ["qa", "cb"]}
    sampler = _toy_sampler(spec, _uniform_embedder(["qa", "cb"]), TraversalConfig())
    with pytest.raises(ValueError, match="^dimension mismatch: 3 vs 2$"):
        sampler.expand_step(("a", "qa"), (1.0, 0.0, 0.0), {"a"}, set(), doc_id)


def test_expand_filters_other_documents_when_pinned():
    spec = {"a": ["d1#0"], "b": ["d1#0", "d1#1", "d2#0"]}
    sampler = _toy_sampler(
        spec, _uniform_embedder(["d1#0", "d1#1", "d2#0"]), TraversalConfig(beam_width=5)
    )
    unrestricted = sampler.expand_step(("a", "d1#0"), (1.0, 0.0), {"a"}, {"d1#0"})
    assert {(c[0], c[1]) for c in unrestricted} == {("b", "d1#1"), ("b", "d2#0")}
    pinned = sampler.expand_step(("a", "d1#0"), (1.0, 0.0), {"a"}, {"d1#0"}, doc_id="d1")
    assert [(c[0], c[1]) for c in pinned] == [("b", "d1#1")]


@pytest.mark.parametrize("dim", [1, 4, 64, 768])
def test_expand_scores_equal_scalar_similarity(dim):
    rng = random.Random(dim)
    chunks = [f"c{i:02d}" for i in range(40)]
    spec = {"a": ["qa"], "b": ["qa"] + chunks[:25], "c": ["qa"] + chunks[15:]}
    vectors = {
        c: tuple(rng.gauss(0.0, 1.0) for _ in range(dim)) for c in ["qa"] + chunks
    }
    q = vectors["qa"]
    expected = sorted(
        ((e, c, similarity(q, vectors[c])) for e in ("b", "c") for c in spec[e][1:]),
        key=lambda cand: (-cand[2], cand[0], cand[1]),
    )
    sampler = _toy_sampler(spec, vectors, TraversalConfig(beam_width=100))
    assert sampler.expand_step(("a", "qa"), q, {"a"}, {"qa"}) == expected


@pytest.mark.parametrize("dim", [4, 64, 768])
@pytest.mark.parametrize("width", [1, 3, 100])
def test_expand_scores_equal_scalar_similarity_under_cancellation(dim, width):
    # Components of +-1e8 cancel in the sum and leave an O(1) score, so a
    # BLAS product and the ordered sum differ far above the last bit.
    rng = random.Random(dim + width)
    chunks = [f"c{i:02d}" for i in range(40)]
    spec = {"a": ["qa"], "b": ["qa"] + chunks[:25], "c": ["qa"] + chunks[15:]}
    big = rng.sample(range(dim), 2)
    q = [rng.gauss(0.0, 1.0) for _ in range(dim)]
    q[big[0]], q[big[1]] = 1e8, 1e8
    vectors = {"qa": tuple(q)}
    for c in chunks:
        v = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        sign = rng.choice((1.0, -1.0))
        v[big[0]], v[big[1]] = sign * (1.0 + rng.random()), -sign * (1.0 + rng.random())
        vectors[c] = tuple(v)
    vectors[chunks[3]] = vectors[chunks[20]]  # an exact tie
    expected = sorted(
        ((e, c, similarity(vectors["qa"], vectors[c])) for e in ("b", "c") for c in spec[e][1:]),
        key=lambda cand: (-cand[2], cand[0], cand[1]),
    )[:width]
    sampler = _toy_sampler(spec, vectors, TraversalConfig(beam_width=width))
    cands = sampler.expand_step(("a", "qa"), vectors["qa"], {"a"}, {"qa"})
    assert json.dumps(cands) == json.dumps(expected)


def test_expand_scores_a_sum_of_negative_zeros_as_zero():
    # similarity() adds to 0, so a sum of -0.0 products is 0.0, as paths.jsonl writes it.
    spec = {"a": ["qa"], "b": ["qa", "z", "y", "x"]}
    vectors = {"qa": (-1.0, -2.0), "z": (0.0, 0.0), "y": (0.0, 0.0), "x": (-1.0, 0.0)}
    expected = [["b", "x", 1.0], ["b", "y", 0.0], ["b", "z", 0.0]]
    for width in (2, 3):
        sampler = _toy_sampler(spec, vectors, TraversalConfig(beam_width=width))
        cands = sampler.expand_step(("a", "qa"), vectors["qa"], {"a"}, {"qa"})
        assert json.dumps(cands) == json.dumps(expected[:width]), width


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("query", ["qa", "h", "n", "t", (math.nan, 1.0), (1e300, -1e300)])
@pytest.mark.parametrize("extra", [[], ["h", "o"], ["n", "n2"], ["t"]])
def test_expand_ranks_huge_and_nan_scores_like_the_exact_sort(width, query, extra):
    # Norms past the range the error bound covers, or a nan, in a chunk or
    # in the query make the step score every candidate exactly; nan scores
    # sort last, in pool order. A tiny chunk norm beside larger ones keeps
    # the bound.
    spec = {"a": ["qa"], "b": ["qa", "f1", "f2", *extra], "c": ["qa", "f3"]}
    vectors = {
        "qa": (1.0, 1.0), "f1": (0.5, 0.25), "f2": (-1.0, 2.0), "f3": (0.75, 0.0),
        "h": (1e300, 1e300), "o": (1e308, 1e308), "n": (math.nan, 0.0), "n2": (0.0, math.nan),
        "t": (1e-160, -1e-170),
    }
    q = vectors[query] if isinstance(query, str) else query
    scored = [(e, c, similarity(q, vectors[c])) for e in ("b", "c") for c in spec[e][1:]]
    ranked = sorted((t for t in scored if not math.isnan(t[2])), key=lambda t: (-t[2], t[0], t[1]))
    expected = (ranked + [t for t in scored if math.isnan(t[2])])[:width]
    with np.errstate(over="ignore", invalid="ignore"):
        sampler = _toy_sampler(spec, vectors, TraversalConfig(beam_width=width))
        cands = sampler.expand_step(("a", "qa"), q, {"a"}, {"qa"})
    assert json.dumps(cands) == json.dumps(expected)
    if not (query == "qa" and extra in ([], ["t"])):
        assert sampler.rescored == sampler.candidates


@pytest.mark.parametrize("width", [1, 2, 4])
@pytest.mark.parametrize("query", ["d#qa", "d#h", "d#n", (math.nan, 1.0), (1e300, -1e300)])
def test_a_pinned_step_ranks_huge_nan_and_tied_scores_like_the_exact_sort(width, query):
    # A step pinned to a document takes every candidate in it, with no
    # approximate score and no walk, and scores each exactly: huge and nan
    # scores rank as in the exact sort, nan last in pool order, and equal
    # scores by (entity_id, chunk_id). x#0 lies in another document.
    spec = {
        "a": ["d#qa"],
        "b": ["d#qa", "d#f1", "d#f2", "d#h", "d#n", "x#0"],
        "c": ["d#qa", "d#f1", "d#t", "d#n2"],
    }
    vectors = {
        "d#qa": (1.0, 1.0), "d#f1": (0.5, 0.25), "d#f2": (-1.0, 2.0), "d#t": (0.25, 0.5),
        "d#h": (1e300, 1e300), "d#n": (math.nan, 0.0), "d#n2": (0.0, math.nan), "x#0": (9.0, 9.0),
    }
    q = vectors[query] if isinstance(query, str) else query
    with np.errstate(over="ignore", invalid="ignore"):
        scored = [
            (e, c, similarity(q, vectors[c]))
            for e in ("b", "c") for c in sorted(spec[e][1:]) if c.startswith("d#")
        ]
    ranked = sorted((t for t in scored if not math.isnan(t[2])), key=lambda t: (-t[2], t[0], t[1]))
    expected = (ranked + [t for t in scored if math.isnan(t[2])])[:width]
    with np.errstate(over="ignore", invalid="ignore"):
        sampler = _toy_sampler(spec, vectors, TraversalConfig(beam_width=width))
        cands = sampler.expand_step(("a", "d#qa"), q, {"a"}, {"d#qa"}, doc_id="d")
    assert json.dumps(cands) == json.dumps(expected)
    assert sampler.rescored == sampler.candidates == len(scored)
    assert sampler.scanned == 0


def _allowed_error(q, c):
    """The gap the traversal module allows between a BLAS score and the ordered sum."""
    dim = len(q)
    return (4 * dim + 16) * 2.0**-53 * math.hypot(*q) * math.hypot(*c)


class AdversarialSampler(PathSampler):
    """Approximate scores off by 3/4 of the allowed error, for a block of
    queries at a time. With ``winners`` set, the expected top W are pushed
    down and every other candidate up, so near ties flip; without, each
    (query, column) is pushed by a sign fixed by its hash."""

    winners: set[str] | None = None
    most_queries = 0  # the most queries scored in one call

    def _approximate(self, queries, columns):
        self.most_queries = max(self.most_queries, len(queries))
        columns = np.arange(self._matrix_t.shape[1])[columns].tolist()
        out = np.empty((len(queries), len(columns)), dtype=np.float64)
        for i, q in enumerate(map(tuple, queries.tolist())):
            for k, j in enumerate(columns):
                c = tuple(self._matrix_t[:, j].tolist())
                push = 0.75 * _allowed_error(q, c)
                if self.winners is None:
                    down = hash((q, j)) % 2 == 0
                else:
                    down = self._chunk_ids[j] in self.winners
                out[i, k] = similarity(q, c) + (-push if down else push)
        return out


@pytest.mark.parametrize("width", [1, 2, 3, 5])
def test_expand_is_exact_under_an_approximate_scorer_that_errs_by_the_bound(width):
    # Signed permutations of one vector share its norm and tie often; copies
    # one ulp away make near ties. A bound too small to cover the scorer's
    # error drops a true top-W candidate. Scaling a query by 2**-570 keeps
    # its ties, but its squares underflow.
    rng = random.Random(width)
    base = [3.0, -1.0, 2.0, 0.5, 0.0, -2.5, 1.0, 4.0]

    def signed_permutation():
        v = base[:]
        rng.shuffle(v)
        return tuple(x * rng.choice((1.0, -1.0)) for x in v)

    chunks = [f"c{i:02d}" for i in range(40)]
    vectors = {c: signed_permutation() for c in ["qa"] + chunks}
    for near, original in zip(chunks[1::4], chunks[0::4]):
        vectors[near] = tuple(np.nextafter(vectors[original], math.inf).tolist())
    spec = {"a": ["qa"], "b": ["qa"] + chunks[:25], "c": ["qa"] + chunks[15:]}
    cfg = TraversalConfig(beam_width=width)
    sampler = _toy_sampler(spec, vectors, cfg, AdversarialSampler)
    for query in ["qa"] + chunks[:8]:
        for scale in (1.0, 2.0**-570):
            q = tuple(x * scale for x in vectors[query])
            expected = sorted(
                ((e, c, similarity(q, vectors[c])) for e in ("b", "c") for c in spec[e][1:]),
                key=lambda cand: (-cand[2], cand[0], cand[1]),
            )[:width]
            sampler.winners = {c for _, c, _ in expected}
            candidates, rescored = sampler.candidates, sampler.rescored
            cands = sampler.expand_step(("a", "qa"), q, {"a"}, {"qa"})
            assert cands == expected, (query, scale)
            if scale < 1.0:
                # The query's squares underflow: no bound, so no candidate is pruned.
                assert sampler.rescored - rescored == sampler.candidates - candidates


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


def test_expand_masks_visited_on_path_and_other_document_candidates():
    # d1#1 is held only by a visited neighbor, d1#3 is on the path and
    # d2#0 lies in another document: none of them is a candidate.
    spec = {
        "a": ["d1#0"],
        "b": ["d1#0", "d1#1"],
        "c": ["d1#0", "d1#2", "d1#3", "d2#0"],
    }
    sampler = _toy_sampler(
        spec, _uniform_embedder(["d1#0", "d1#1", "d1#2", "d1#3", "d2#0"]),
        TraversalConfig(beam_width=5),
    )
    cands = sampler.expand_step(
        ("a", "d1#0"), (1.0, 0.0), {"a", "b"}, {"d1#0", "d1#3"}, doc_id="d1"
    )
    assert cands == [("c", "d1#2", 1.0)]
    cands = sampler.expand_step(("a", "d1#0"), (1.0, 0.0), {"a"}, {"d1#0"}, doc_id="d1")
    assert cands == [("b", "d1#1", 1.0), ("c", "d1#2", 1.0), ("c", "d1#3", 1.0)]


def test_a_step_skips_chunks_of_entities_that_are_no_neighbors():
    # w scores highest but is no neighbor's chunk, so z, the best of the
    # neighbors' chunks, is the step's pick, now and when the step repeats.
    spec = {"a": ["qa"], "b": ["qa", "x", "y"], "c": ["qa", "z"], "d": ["w"]}
    vectors = {
        "qa": (1.0, 0.0), "x": (0.5, 0.0), "y": (0.25, 0.0), "z": (0.75, 0.0), "w": (2.0, 0.0),
    }
    sampler = _toy_sampler(spec, vectors, TraversalConfig(beam_width=1))
    cands = sampler.expand_step(("a", "qa"), vectors["qa"], {"a"}, {"qa"})
    assert cands == [("c", "z", 0.75)]
    assert sampler.expand_step(("a", "qa"), vectors["qa"], {"a"}, {"qa"}) == cands


def test_an_entity_chunk_missing_from_the_store_is_an_integrity_error():
    entity_map = make_entity_map({"a": ["d1#0000"], "b": ["d1#0000", "d1#0009"]})
    store = make_store({"d1#0000": "d1#0000"})
    backend = FakeEmbedder({"d1#0000": (1.0, 0.0)})
    with pytest.raises(IntegrityError, match="^entity b references unknown chunk 'd1#0009'$"):
        PathSampler(build_graph(entity_map), entity_map, store, TraversalConfig(), backend)


def test_a_step_pinned_to_an_unknown_document_finds_nothing():
    spec = {"a": ["d1#0"], "b": ["d1#0", "d1#1"], "c": ["d1#0", "d2#0"]}
    sampler = _toy_sampler(
        spec, _uniform_embedder(["d1#0", "d1#1", "d2#0"]), TraversalConfig(beam_width=5)
    )
    assert sampler.expand_step(("a", "d1#0"), (1.0, 0.0), {"a"}, {"d1#0"}, doc_id="d9") == []
    assert sampler.candidates == 0


# --- sample_paths ----------------------------------------------------------------


def test_unique_two_hop_expansion():
    spec = {"a": ["qa"], "b": ["qa", "cb"], "c": ["cb", "cc"]}
    cfg = TraversalConfig(depth=2, beam_width=1, hop_policy="two_hop", max_start_paragraphs=3)
    sampler = _toy_sampler(spec, _uniform_embedder(["qa", "cb", "cc"]), cfg)
    from_a = [p for p in sampler.sample().paths if p.root_entity == "a"]
    assert [p.steps for p in from_a] == [[("a", "qa"), ("b", "cb"), ("c", "cc")]]
    assert from_a[0].hop_count == 2


def test_isolated_root_emits_nothing():
    spec = {"a": ["qa"], "z": ["cz"]}
    cfg = TraversalConfig(hop_policy="one_hop")
    sampler = _toy_sampler(spec, _uniform_embedder(["qa", "cz"]), cfg)
    assert sampler.sample().paths == []


def test_one_hop_policy_limits_depth():
    spec = {"a": ["qa"], "b": ["qa", "cb"], "c": ["cb", "cc"]}
    cfg = TraversalConfig(depth=2, beam_width=2, hop_policy="one_hop")
    sampler = _toy_sampler(spec, _uniform_embedder(["qa", "cb", "cc"]), cfg)
    assert all(p.hop_count == 1 for p in sampler.sample().paths)


def test_mixed_policy_emits_prefixes_too():
    spec = {"a": ["qa"], "b": ["qa", "cb"], "c": ["cb", "cc"]}
    cfg = TraversalConfig(depth=2, beam_width=1, hop_policy="mixed")
    sampler = _toy_sampler(spec, _uniform_embedder(["qa", "cb", "cc"]), cfg)
    hops = sorted(p.hop_count for p in sampler.sample().paths if p.root_entity == "a")
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
                    chunk_doc={c: c.split("#")[0] for c in chunk_entities},
                    same_document_only=cfg.same_document_only,
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


@pytest.mark.parametrize(
    "depth, width, policy", [(1, 1, "one_hop"), (2, 2, "two_hop"), (3, 2, "mixed")]
)
def test_sample_paths_with_tied_scores_match_the_scalar_ranking(depth, width, policy, monkeypatch):
    # Vectors from a five-value grid tie often, so the tie-break decides
    # many beams; paths and scores must follow similarity() exactly, also
    # when the blocks of start paragraphs are scored with errors up to the
    # bound. Blocks of four queries make several blocks per sample.
    monkeypatch.setattr(traversal, "_BLOCK_QUERIES", 4)
    for seed in range(10):
        rng = random.Random(900 + seed)
        chunk_entities, entity_chunks, _ = _random_instance(rng, 7, 16)
        vectors = {
            c: tuple(rng.choice((-1.0, -0.5, 0.0, 0.5, 1.0)) for _ in range(3))
            for c in sorted(chunk_entities)
        }
        cfg = TraversalConfig(
            depth=depth, beam_width=width, hop_policy=policy, max_start_paragraphs=99
        )
        entity_map = make_entity_map(entity_chunks)
        store = make_store({c: c for c in vectors})
        graph = build_graph(entity_map)
        expected = _paths_via_oracle(chunk_entities, entity_chunks, vectors, cfg)
        for sampler_class in (PathSampler, AdversarialSampler):
            sampler = sampler_class(graph, entity_map, store, cfg, FakeEmbedder(vectors))
            paths = sampler.sample().paths
            where = (seed, sampler_class.__name__)
            assert sorted(tuple(p.steps) for p in paths) == expected, where
            for p in paths:
                q = vectors[p.root_chunk]
                assert p.scores == [similarity(q, vectors[c]) for c in p.chunks()[1:]], where
            if sampler_class is AdversarialSampler:
                assert sampler.most_queries > 1, where  # a block scored together


def test_a_block_scores_each_distinct_start_paragraph_once(monkeypatch):
    # Blocks of two roots: a and b, whose start paragraphs both include x,
    # then c. A block's first scores are those of its distinct start
    # paragraphs, each once, in order of first start.
    monkeypatch.setattr(traversal, "_BLOCK_QUERIES", 6)
    spec = {"a": ["x", "y"], "b": ["x", "z"], "c": ["w", "y"]}
    vectors = {"x": (1.0, 0.0), "y": (0.0, 1.0), "z": (0.6, 0.8), "w": (0.8, -0.6)}
    sampler = _toy_sampler(spec, vectors, TraversalConfig(max_start_paragraphs=3))
    first_scored = []  # per block, the queries of its first scoring
    begin_block, approximate = sampler._begin_block, sampler._approximate

    def recording_begin_block(queries):
        first_scored.append(None)
        return begin_block(queries)

    def recording_approximate(queries, columns):
        if first_scored[-1] is None:
            first_scored[-1] = [tuple(q) for q in queries.tolist()]
        return approximate(queries, columns)

    sampler._begin_block, sampler._approximate = recording_begin_block, recording_approximate
    assert sampler.sample().paths
    assert first_scored == [[vectors[c] for c in "xyz"], [vectors[c] for c in "wy"]]


def test_path_invariants_on_random_graphs():
    for seed in range(8):
        rng = random.Random(seed)
        chunk_entities, entity_chunks, vectors = _random_instance(rng, 6, 10)
        cfg = TraversalConfig(
            depth=2, beam_width=2, hop_policy="two_hop", max_start_paragraphs=2
        )
        sampler = _toy_sampler(entity_chunks, vectors, cfg, seed=seed)
        path_set = sampler.sample()
        edges = set(sampler.graph.provenance)
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


@pytest.mark.parametrize("policy, depth", [("one_hop", 1), ("two_hop", 2)])
def test_sampler_holds_the_masks_of_one_root_entity_at_most(policy, depth):
    # Several starts per root, so a root's later starts reuse its masks.
    rng = random.Random(11)
    _, entity_chunks, vectors = _random_instance(rng, 8, 16)
    cfg = TraversalConfig(
        depth=depth, beam_width=2, hop_policy=policy, max_start_paragraphs=3
    )
    sampler = _toy_sampler(entity_chunks, vectors, cfg, seed=4)
    built: dict[str, set[int]] = {}  # root entity -> the masks its expansions built
    current = []
    neighbor_mask, expand_root = sampler._neighbor_mask, sampler._expand_root

    def recording_mask(entity):
        if entity not in sampler._masks:
            built.setdefault(current[-1], set()).add(entity)
        return neighbor_mask(entity)

    def checked_expand_root(root, start_chunk):
        current.append(root.entity_id)
        paths = expand_root(root, start_chunk)
        assert set(sampler._masks) <= built.get(root.entity_id, set())
        return paths

    sampler._neighbor_mask, sampler._expand_root = recording_mask, checked_expand_root
    assert sampler.sample().paths
    assert len(set(current)) > 1 and len(current) > len(set(current))
    assert len(built) > 1


def test_sampling_is_byte_deterministic(tmp_path):
    rng = random.Random(5)
    chunk_entities, entity_chunks, vectors = _random_instance(rng, 8, 14)
    cfg = TraversalConfig(
        depth=2, beam_width=2, hop_policy="two_hop", max_start_paragraphs=2
    )
    out = []
    for name in ("a.jsonl", "b.jsonl"):
        sampler = _toy_sampler(entity_chunks, vectors, cfg, seed=77)
        save_paths(tmp_path / name, sampler.sample())
        out.append((tmp_path / name).read_bytes())
    assert out[0] == out[1]


def test_cross_document_reach():
    # Roots connect only to other-document entities, so every multi-hop
    # path must span >= 2 doc ids.
    spec = {"a": ["d1#0"], "b": ["d1#0", "d2#0"], "c": ["d2#0", "d3#0"]}
    cfg = TraversalConfig(depth=2, beam_width=2, hop_policy="mixed")
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


@pytest.mark.parametrize("policy, depth", [("one_hop", 1), ("two_hop", 2), ("mixed", 3)])
def test_same_document_sampling_matches_the_oracle_without_scoring_a_query_block(
    policy, depth, monkeypatch
):
    # Every step is pinned to its root's document, so none needs the
    # approximate scores of a block of queries.
    def refuse(self, queries, columns):
        raise AssertionError("a pinned step scored a block of queries")

    monkeypatch.setattr(PathSampler, "_approximate", refuse)
    for seed in range(6):
        rng = random.Random(700 + seed)
        chunk_entities, entity_chunks, vectors = _random_instance(rng, 7, 16)
        name = {c: f"d{i % 3}#{c}" for i, c in enumerate(sorted(chunk_entities))}
        chunk_entities = {name[c]: ents for c, ents in chunk_entities.items()}
        entity_chunks = {e: [name[c] for c in chunks] for e, chunks in entity_chunks.items()}
        vectors = {name[c]: v for c, v in vectors.items()}
        cfg = TraversalConfig(
            depth=depth, beam_width=2, hop_policy=policy, max_start_paragraphs=99,
            same_document_only=True,
        )
        expected = _paths_via_oracle(chunk_entities, entity_chunks, vectors, cfg)
        path_set = _toy_sampler(entity_chunks, vectors, cfg).sample()
        assert sorted(tuple(p.steps) for p in path_set.paths) == expected, seed
        assert path_set.counts["scanned"] == 0
        assert path_set.counts["rescored"] == path_set.counts["candidates"]


def test_the_sampler_counts_each_distinct_text_as_embedded_or_found_cached():
    # a#0 and b#0 share a text, and the cache already holds c#0's
    entity_map = make_entity_map({"e1": ["a#0", "c#0"], "e2": ["b#0", "c#0"]})
    store = make_store({"a#0": "same", "b#0": "same", "c#0": "held"})
    calls: list[str] = []

    class Recording(FakeEmbedder):
        def embed(self, text):
            calls.append(text)
            return super().embed(text)

    backend = Recording({"same": (1.0, 0.0), "held": (0.0, 1.0)})
    cache = EmbeddingCache()
    embed_text("held", backend, cache)
    calls.clear()
    sampler = PathSampler(
        build_graph(entity_map), entity_map, store, TraversalConfig(), backend, cache
    )
    assert calls == ["same"]
    counts = sampler.sample().counts
    assert (counts["embedded"], counts["cache_hits"]) == (1, 1)


def test_config_validation():
    from graphsynth.errors import ConfigurationError

    for kwargs, problem in [
        ({"beam_width": 0}, "beam_width must be >= 1"),
        ({"hop_policy": "two_hop", "depth": 1}, "hop_policy two_hop requires depth >= 2"),
    ]:
        with pytest.raises(ConfigurationError, match=problem):
            TraversalConfig(**kwargs)
    TraversalConfig()


@pytest.mark.parametrize(
    "cfg, problem",
    [
        ({"hop_policy": "one-hop"}, "hop_policy must be one of"),
        ({"hop_policy": "auto", "depth": 3}, "hop_policy must be one of"),
        ({"beam_width": 0}, "beam_width must be >= 1"),
    ],
)
def test_sampler_rejects_an_invalid_config(cfg, problem):
    # an invalid config cannot be built; a valid one with an unresolved auto is
    # rejected by the sampler
    from graphsynth.errors import ConfigurationError

    embedder = _uniform_embedder(["qa", "cb"])
    with pytest.raises(ConfigurationError, match=problem):
        _toy_sampler({"a": ["qa"], "b": ["qa", "cb"]}, embedder, TraversalConfig(**cfg))


def test_sample_paths_takes_no_unresolved_auto():
    from graphsynth.errors import ConfigurationError

    spec = {"a": ["qa"], "b": ["qa", "cb"]}
    entity_map = make_entity_map(spec)
    store = make_store({"qa": "qa", "cb": "cb"})
    cfg = TraversalConfig(hop_policy="auto")  # a valid section: the run's default
    with pytest.raises(ConfigurationError, match="not 'auto'"):
        traversal.sample_paths(
            build_graph(entity_map), entity_map, store, cfg, _uniform_embedder(["qa", "cb"])
        )


def test_backend_errors_identify_the_chunk():
    from graphsynth.errors import BackendError

    class Exploding:
        backend_id = "boom"

        def embed(self, text):
            raise BackendError("remote down", retryable=True)

    spec = {"a": ["qa"], "b": ["qa", "cb"]}
    entity_map = make_entity_map(spec)
    store = make_store({"qa": "qa", "cb": "cb"})
    graph = build_graph(entity_map)
    # Chunks are embedded in chunk-id order, when the sampler is built.
    with pytest.raises(BackendError, match="^while embedding chunk cb: remote down$") as err:
        PathSampler(graph, entity_map, store, TraversalConfig(), Exploding())
    assert err.value.retryable


def test_an_empty_embedding_is_rejected():
    from graphsynth.errors import IntegrityError

    spec = {"a": ["qa"], "b": ["qa", "cb"]}
    with pytest.raises(IntegrityError, match="empty vector"):
        _toy_sampler(spec, {"qa": (), "cb": ()}, TraversalConfig())


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


def test_a_nan_score_survives_the_paths_file(tmp_path):
    path = Path(steps=[("a", "qa"), ("b", "cb")], scores=[math.nan, 1], path_id="p1")
    save_paths(tmp_path / "p.jsonl", [path])
    (loaded,) = load_paths(tmp_path / "p.jsonl").paths
    assert math.isnan(loaded.scores[0]) and loaded.scores[1:] == [1.0]
