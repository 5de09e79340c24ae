from __future__ import annotations

import random

from graphsynth.graph import build_graph, graph_stats, load_graph, save_graph
from oracles import brute_force_graph

from conftest import make_entity_map


def test_pairwise_closure_within_chunk():
    g = build_graph(make_entity_map({"X": ["c1"], "Y": ["c1"], "Z": ["c1"]}))
    assert set(g.provenance) == {("X", "Y"), ("X", "Z"), ("Y", "Z")}
    assert g.degree("X") == 2


def test_no_edge_without_cooccurrence():
    g = build_graph(make_entity_map({"X": ["c1"], "Y": ["c2"]}))
    assert set(g.provenance) == set()
    assert g.nodes == {"X", "Y"}


def test_repeated_cooccurrence_dedups_edge_keeps_provenance():
    g = build_graph(make_entity_map({"X": ["c1", "c4"], "Y": ["c1", "c4"]}))
    assert set(g.provenance) == {("X", "Y")}
    assert g.provenance[("X", "Y")] == ["c1", "c4"]


def test_neighbors_sorted_and_symmetric():
    g = build_graph(make_entity_map({"h": ["c1", "c2", "c3"], "a": ["c1"], "b": ["c2"], "c": ["c3"]}))
    assert g.adjacency["h"] == ["a", "b", "c"]
    for leaf in ("a", "b", "c"):
        assert g.adjacency[leaf] == ["h"]


def test_neighbors_isolated_and_unknown():
    g = build_graph(make_entity_map({"x": ["c1"]}))
    assert "x" in g.nodes and g.adjacency.get("x", []) == []
    assert "nope" not in g.nodes


def test_stats_triangle():
    g = build_graph(make_entity_map({"a": ["c"], "b": ["c"], "d": ["c"]}))
    stats = graph_stats(g)
    assert stats.node_count == 3
    assert stats.edge_count == 3
    assert stats.component_sizes == [3]


def test_stats_two_disjoint_edges():
    g = build_graph(make_entity_map({"a": ["c1"], "b": ["c1"], "x": ["c2"], "y": ["c2"]}))
    assert graph_stats(g).component_sizes == [2, 2]


def test_stats_empty_graph():
    stats = graph_stats(build_graph([]))
    assert stats.node_count == 0
    assert stats.edge_count == 0
    assert stats.component_sizes == []


def test_witnessed_edges_contain_both_endpoints():
    spec = {"a": ["c1", "c2"], "b": ["c1"], "c": ["c2", "c3"], "d": ["c3"]}
    g = build_graph(make_entity_map(spec))
    for (x, y), chunks in g.provenance.items():
        for chunk in chunks:
            assert chunk in spec[x] and chunk in spec[y]


def _random_entity_map(rng, max_chunks=50, max_entities=30):
    n_chunks = rng.randint(1, max_chunks)
    n_entities = rng.randint(1, max_entities)
    chunk_ids = [f"c{i:03d}" for i in range(n_chunks)]
    spec = {}
    for e in range(n_entities):
        k = rng.randint(0, min(6, n_chunks))
        spec[f"e{e:03d}"] = sorted(rng.sample(chunk_ids, k)) if k else []
    spec = {e: chunks for e, chunks in spec.items() if chunks}
    return spec


def test_brute_force_equivalence_randomized():
    for seed in range(10):
        rng = random.Random(seed)
        spec = _random_entity_map(rng)
        g = build_graph(make_entity_map(spec))
        chunk_entities = {}
        for e, chunks in spec.items():
            for c in chunks:
                chunk_entities.setdefault(c, set()).add(e)
        nodes, edges = brute_force_graph(chunk_entities, set(spec))
        assert g.nodes == nodes
        assert {k: list(v) for k, v in g.provenance.items()} == edges


def test_oversized_chunk_skipped_for_edges(caplog):
    import logging

    from graphsynth.graph import MAX_COOCCURRENCE_ENTITIES

    spec = {f"e{i:03d}": ["huge"] for i in range(MAX_COOCCURRENCE_ENTITIES + 1)}
    spec["x"] = ["huge", "ok"]
    spec["y"] = ["ok"]
    with caplog.at_level(logging.WARNING):
        g = build_graph(make_entity_map(spec))
    # the noisy chunk induces no edges, the normal one still does
    assert set(g.provenance) == {("x", "y")}
    assert any("huge" in rec.message for rec in caplog.records)


def test_degree_histogram_values():
    g = build_graph(make_entity_map({"h": ["c1", "c2"], "a": ["c1"], "b": ["c2"]}))
    stats = graph_stats(g)
    assert stats.degree_histogram == {2: 1, 1: 2}


def test_graph_file_roundtrip(tmp_path):
    g = build_graph(make_entity_map({"a": ["c1", "c2"], "b": ["c1"], "c": ["c2"]}))
    path = tmp_path / "graph.jsonl"
    save_graph(path, g)
    loaded = load_graph(path)
    assert loaded.nodes == g.nodes
    assert loaded.adjacency == g.adjacency
    assert loaded.provenance == g.provenance
