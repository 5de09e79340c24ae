"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

from __future__ import annotations

import math
import random
import time
from pathlib import Path as FsPath

import pytest
import yaml

from graphsynth.analysis import counts_from_chunks, counts_from_subsets, gini
from graphsynth.balance import BalanceConfig, SubsetAllocation, secondary_sampling
from graphsynth.cli import load_config, run_pipeline
from graphsynth.embedding import EmbeddingCache, HashEmbeddingBackend
from graphsynth.extraction import (
    RuleBasedExtractor,
    build_entity_map,
    canonical_names,
    entity_chunk_index,
)
from graphsynth.graph import build_graph
from graphsynth.synthesis import (
    MockLlmBackend,
    build_requests,
    generate,
)
from graphsynth.traversal import TraversalConfig, sample_paths
from backends import FaultInjectingBackend
from oracles import brute_force_graph, enumerate_paths, secondary_sampling_oracle

from conftest import FakeEmbedder, make_entity_map, make_store
from fixture_corpus import build_longtail_chunks, longtail_corpus_jsonl, two_document_corpus
from test_balance import impl_transcript, random_balance_instance

SEED = 7


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _longtail_pipeline_state():
    store, _ = build_longtail_chunks()
    reports = [RuleBasedExtractor().extract(c) for c in store.chunks()]
    entity_map = build_entity_map(reports)
    graph = build_graph(entity_map)
    cfg = TraversalConfig(
        max_start_paragraphs=4, depth=2, beam_width=2, hop_policy="one_hop"
    )
    path_set = sample_paths(graph, entity_map, store, cfg, HashEmbeddingBackend(dim=32),
                            EmbeddingCache(), seed=SEED)
    return store, entity_map, path_set


def test_criterion_1_graph_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for seed in range(25):
        rng = random.Random(seed)
        n_chunks = rng.randint(1, 50)
        n_entities = rng.randint(1, 30)
        chunk_ids = [f"c{i:03d}" for i in range(n_chunks)]
        spec = {}
        for e in range(n_entities):
            k = rng.randint(0, min(6, n_chunks))
            if k:
                spec[f"e{e:03d}"] = sorted(rng.sample(chunk_ids, k))
        g = build_graph(make_entity_map(spec))
        chunk_entities: dict[str, set[str]] = {}
        for e, chunks in spec.items():
            for c in chunks:
                chunk_entities.setdefault(c, set()).add(e)
        nodes, edges = brute_force_graph(chunk_entities, set(spec))
        assert g.nodes == nodes
        assert {k: list(v) for k, v in g.provenance.items()} == edges
        checked += 1
    elapsed = time.perf_counter() - start
    _report(1, checked == 25 and elapsed < 5.0,
            f"{checked} randomized corpora match brute force in {elapsed:.2f}s")


def _traversal_instance(rng: random.Random):
    n_entities = rng.randint(4, 8)
    entities = [f"e{i}" for i in range(n_entities)]
    chunk_ids = [f"c{i:02d}" for i in range(rng.randint(n_entities, 2 * n_entities))]
    entity_chunks = {
        e: sorted(rng.sample(chunk_ids, rng.randint(1, 3))) for e in entities
    }
    chunk_entities: dict[str, set[str]] = {}
    for e, chunks in entity_chunks.items():
        for c in chunks:
            chunk_entities.setdefault(c, set()).add(e)
    vectors = {
        c: tuple(round(rng.uniform(-1, 1), 3) for _ in range(4)) for c in chunk_ids
    }
    return chunk_entities, entity_chunks, vectors


def test_criterion_2_traversal_oracle_equivalence():
    start = time.perf_counter()
    configs = [(1, 1, "one_hop"), (2, 2, "two_hop"), (2, 3, "two_hop")]
    checked = 0
    for seed in range(10):
        rng = random.Random(200 + seed)
        chunk_entities, entity_chunks, vectors = _traversal_instance(rng)
        entity_map = make_entity_map(entity_chunks)
        store = make_store({c: c for c in vectors})
        graph = build_graph(entity_map)
        backend = FakeEmbedder(vectors)
        for depth, width, policy in configs:
            cfg = TraversalConfig(
                max_start_paragraphs=99, depth=depth, beam_width=width, hop_policy=policy
            )
            got = sorted(
                tuple(p.steps)
                for p in sample_paths(graph, entity_map, store, cfg, backend).paths
            )
            expected = []
            for root in sorted(entity_chunks):
                for s in sorted(entity_chunks[root]):
                    expected.extend(
                        enumerate_paths(
                            chunk_entities, entity_chunks, vectors, root, s,
                            depth=depth, width=width, hop_policy=policy,
                        )
                    )
            assert got == sorted(expected), f"seed {seed} config {(depth, width)}"
            checked += 1
    elapsed = time.perf_counter() - start
    _report(2, checked == 30 and elapsed < 10.0,
            f"10 graphs x 3 (D,W) configs match exhaustive enumeration in {elapsed:.2f}s")


def test_criterion_3_balance_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for seed in range(50):
        rng = random.Random(3000 + seed)
        plain, e2c, total, r, l = random_balance_instance(rng)
        got, _ = impl_transcript(plain, e2c, total, r, l, seed=seed)
        want = secondary_sampling_oracle(plain, e2c, total, r, l, seed=seed)
        assert got == want, f"transcript divergence at seed {seed}"
        checked += 1
    elapsed = time.perf_counter() - start
    _report(3, checked == 50 and elapsed < 30.0,
            f"50 seeded instances match the naive reference run in {elapsed:.2f}s")


def test_criterion_4_coverage_guarantee():
    store, entity_map, path_set = _longtail_pipeline_state()
    union = set()
    for p in path_set.paths:
        union.update(p.chunks())
    supply = len(union) / len(store)
    assert supply >= 0.9, f"fixture path supply only covers {supply:.3f}"
    subsets = secondary_sampling(
        path_set,
        BalanceConfig(target_coverage=0.9, standard_length=len(path_set.paths)),
        entity_to_chunks=entity_chunk_index(entity_map),
        total_chunks=len(store),
        seed=SEED,
    )
    # independent recount, not the ledger's number
    covered = {c for p in subsets[0].cot_paths for c in p.chunks()}
    covered |= {c for pair in subsets[0].cc_pairs for _, c in pair.steps()}
    recount = len(covered) / len(store)
    assert recount == subsets[0].achieved_coverage
    _report(4, recount >= 0.9,
            f"subset 0 covers {recount:.3f} of {len(store)} chunks (supply {supply:.3f})")


def test_criterion_5_longtail_mitigation():
    start = time.perf_counter()
    store, entity_map, path_set = _longtail_pipeline_state()
    subsets = secondary_sampling(
        path_set,
        BalanceConfig(target_coverage=1.0, standard_length="auto"),
        entity_to_chunks=entity_chunk_index(entity_map),
        total_chunks=len(store),
        seed=SEED,
    )
    records = generate(
        build_requests(subsets, store, canonical_names(entity_map)),
        MockLlmBackend(),
        max_retries=1,
        concurrency=4,
    )
    assert all(r.status == "ok" for r in records)
    raw = counts_from_chunks(entity_map)
    cot_only = counts_from_subsets(subsets, entity_map, include_cc=False)
    cot_cc = counts_from_subsets(subsets, entity_map, include_cc=True)
    g_raw = gini(list(raw.values()))
    g_cot = gini(list(cot_only.values()))
    g_cc = gini(list(cot_cc.values()))
    zeros = [e for e, n in cot_cc.items() if n == 0]
    elapsed = time.perf_counter() - start
    ok = (
        g_raw > g_cot > g_cc
        and g_raw - g_cot >= 0.02
        and g_cot - g_cc >= 0.02
        and not zeros
        and elapsed < 60.0
    )
    _report(
        5, ok,
        f"gini raw={g_raw:.4f} > cot={g_cot:.4f} > cot+cc={g_cc:.4f}, "
        f"{len(zeros)} uncovered entities, {elapsed:.1f}s",
    )


def test_criterion_6_pipeline_determinism(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(longtail_corpus_jsonl()) + "\n", encoding="utf-8")
    digests = []
    for run in ("run_a", "run_b"):
        config_file = tmp_path / f"{run}.yaml"
        config_file.write_text(
            yaml.safe_dump(
                {
                    "input": str(corpus),
                    "workdir": str(tmp_path / run),
                    "seed": SEED,
                    "chunking": {"policy": "fixed", "max_chars": 150},
                    "traversal": {
                        "max_start_paragraphs": 4, "depth": 2, "beam_width": 2,
                        "hop_policy": "auto",
                    },
                    "balance": {"target_coverage": 0.9, "standard_length": "auto"},
                    "generation": {"backend": "mock", "concurrency": 3},
                }
            ),
            encoding="utf-8",
        )
        manifest = run_pipeline(load_config(config_file))
        digests.append(
            [
                (s["name"], sorted((FsPath(p).name, h) for p, h in s["outputs"].items()))
                for s in manifest["stages"]
            ]
        )
    _report(6, digests[0] == digests[1],
            f"{len(digests[0])} stages byte-identical across two runs")


def test_criterion_7_formula_spot_checks():
    # (r, r_prime, l, expected_delta_r, expected_k, expected_cut); dyadic
    # fractions keep the floor arithmetic float-exact.
    cases = [
        (1.0, 0.5, 10, 0.5, 5, 5),
        (1.0, 0.25, 8, 0.75, 6, 2),
        (1.0, 0.75, 8, 0.25, 2, 6),
        (1.0, 0.0, 6, 1.0, 6, 0),
        (1.0, 0.875, 16, 0.125, 2, 14),
        (0.5, 0.25, 10, 0.5, 5, 5),
        (0.5, 0.125, 16, 0.75, 12, 4),
        (1.0, 0.25, 12, 0.75, 9, 3),
        (0.75, 0.1875, 16, 0.75, 12, 4),
        (1.0, 0.75, 20, 0.25, 5, 15),
        (0.75, 0.375, 12, 0.5, 6, 6),
        (0.25, 0.125, 8, 0.5, 4, 4),
        (1.0, 0.5, 7, 0.5, 3, 3),
        (1.0, 0.5, 3, 0.5, 1, 1),
        (0.5, 0.375, 8, 0.25, 2, 6),
        (1.0, 0.9375, 32, 0.0625, 2, 30),
    ]
    for r, r_prime, l, want_dr, want_k, want_cut in cases:
        dr = (r - r_prime) / r
        assert dr == want_dr, (r, r_prime)
        assert math.floor(dr * l) == want_k
        assert math.floor((1 - dr) * l) == want_cut
    # (total_chunks, hop, expected auto length)
    auto_cases = [(200, 1, 100), (200, 2, 66), (150, 2, 50), (7, 1, 3)]
    from graphsynth.balance import auto_standard_length

    for total, hop, want in auto_cases:
        assert auto_standard_length(total, hop) == want
    n = len(cases) + len(auto_cases)
    _report(7, n == 20, f"{n} hand-computed formula cases exact")


def test_criterion_8_generation_robustness():
    store, entity_map, path_set = _longtail_pipeline_state()
    subsets = secondary_sampling(
        path_set,
        BalanceConfig(target_coverage=1.0, standard_length="auto"),
        entity_to_chunks=entity_chunk_index(entity_map),
        total_chunks=len(store),
        seed=SEED,
    )
    requests = build_requests(subsets[:1], store, canonical_names(entity_map))
    backend = FaultInjectingBackend(
        MockLlmBackend(), invalid_rate=0.2, transient_rate=0.1, seed=SEED
    )
    records = generate(requests, backend, max_retries=2, concurrency=4)
    expected_rejected = {
        r.request_id for r in requests if backend.roll(r.request_id) < backend.invalid_rate
    }
    got_rejected = {r.request_id for r in records if r.status == "rejected"}
    order_ok = [r.request_id for r in records] == [q.request_id for q in requests]
    ok = got_rejected == expected_rejected and order_ok and len(expected_rejected) > 0
    _report(
        8, ok,
        f"{len(records)} records, {len(got_rejected)} rejected == injected permanent faults, "
        f"order preserved",
    )


def test_criterion_9_same_document_mode(tmp_path):
    from graphsynth.corpus import ChunkingConfig, chunk_document, ingest_corpus, ChunkStore

    lines, max_chars = two_document_corpus()
    docs = ingest_corpus(lines)
    chunks, titles = [], {}
    for doc in docs:
        chunks.extend(chunk_document(doc, ChunkingConfig(max_chars=max_chars)))
        titles[doc.doc_id] = doc.title
    store = ChunkStore(chunks, titles)
    reports = [RuleBasedExtractor().extract(c) for c in store.chunks()]
    entity_map = build_entity_map(reports)
    graph = build_graph(entity_map)
    cfg = TraversalConfig(
        max_start_paragraphs=3, depth=2, beam_width=2, hop_policy="mixed",
        same_document_only=True,
    )
    path_set = sample_paths(graph, entity_map, store, cfg, HashEmbeddingBackend(dim=32),
                            EmbeddingCache(), seed=SEED)
    assert len(path_set) > 0
    single_doc = all(
        len({store.get(c).doc_id for c in p.chunks()}) == 1 for p in path_set.paths
    )
    names = canonical_names(entity_map)
    requests = build_requests(
        [SubsetAllocation(0, path_set.paths, [], 1.0)], store, names, same_document=True
    )
    titled = all(
        store.title_for(p.root_chunk) in req.prompt_text
        for p, req in zip(path_set.paths, requests, strict=True)
    )
    _report(
        9, single_doc and titled,
        f"{len(path_set)} paths all single-document, article titles present in every prompt",
    )
