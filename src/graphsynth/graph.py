"""The undirected entity co-occurrence context graph.

Two entities share an edge whenever they are reported in the same chunk;
each edge keeps the witnessing chunk ids as provenance.
"""

from __future__ import annotations

import logging
from collections import defaultdict, deque
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

from .extraction import EntityRecord
from .jsonl import checked, iter_jsonl, write_jsonl

log = logging.getLogger(__name__)

# Chunks with more entities than this are extraction noise; inducing their
# quadratic edge closure would swamp the graph.
MAX_COOCCURRENCE_ENTITIES = 64


def edge_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


@dataclass
class ContextGraph:
    nodes: set[str] = field(default_factory=set)
    adjacency: dict[str, list[str]] = field(default_factory=dict)
    provenance: dict[tuple[str, str], list[str]] = field(default_factory=dict)

    def degree(self, entity_id: str) -> int:
        return len(self.adjacency.get(entity_id, []))


@dataclass(frozen=True)
class GraphStats:
    node_count: int
    edge_count: int
    degree_histogram: dict[int, int]
    component_sizes: list[int]


def build_graph(entity_map: Iterable[EntityRecord]) -> ContextGraph:
    """Induce one edge per co-occurring entity pair, per chunk."""
    chunk_entities: dict[str, list[str]] = defaultdict(list)
    nodes: set[str] = set()
    for rec in entity_map:
        nodes.add(rec.entity_id)
        for chunk_id in rec.chunk_ids:
            chunk_entities[chunk_id].append(rec.entity_id)

    provenance: dict[tuple[str, str], list[str]] = {}
    for chunk_id in sorted(chunk_entities):
        ents = sorted(set(chunk_entities[chunk_id]))
        if len(ents) > MAX_COOCCURRENCE_ENTITIES:
            log.warning(
                "skipping edge induction for chunk %s with %d entities", chunk_id, len(ents)
            )
            continue
        for a, b in combinations(ents, 2):
            provenance.setdefault((a, b), []).append(chunk_id)

    return _graph(nodes, provenance)


def _graph(nodes: set[str], provenance: dict[tuple[str, str], list[str]]) -> ContextGraph:
    """The graph of these edges, each entity's neighbors in id order."""
    neighbor_sets: dict[str, set[str]] = defaultdict(set)
    for a, b in provenance:
        neighbor_sets[a].add(b)
        neighbor_sets[b].add(a)
    adjacency = {e: sorted(nbs) for e, nbs in neighbor_sets.items()}
    return ContextGraph(nodes=nodes, adjacency=adjacency, provenance=provenance)


def graph_stats(g: ContextGraph) -> GraphStats:
    histogram: dict[int, int] = defaultdict(int)
    for e in g.nodes:
        histogram[g.degree(e)] += 1

    seen: set[str] = set()
    sizes: list[int] = []
    for start in sorted(g.nodes):
        if start in seen:
            continue
        size = 0
        queue = deque([start])
        seen.add(start)
        while queue:
            cur = queue.popleft()
            size += 1
            for nb in g.adjacency.get(cur, []):
                if nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
        sizes.append(size)
    return GraphStats(
        node_count=len(g.nodes),
        edge_count=len(g.provenance),
        degree_histogram=dict(histogram),
        component_sizes=sorted(sizes, reverse=True),
    )


def save_graph(path, g: ContextGraph) -> int:
    def records():
        for e in sorted(g.nodes):
            yield {"kind": "node", "entity_id": e}
        for (a, b), chunks in sorted(g.provenance.items()):
            yield {"kind": "edge", "source": a, "target": b, "provenance": sorted(chunks)}

    return write_jsonl(path, records())


def load_graph(path) -> ContextGraph:
    nodes: set[str] = set()
    provenance: dict[tuple[str, str], list[str]] = {}

    def add(rec: dict) -> None:
        if rec["kind"] == "node":
            nodes.add(checked(rec, "entity_id"))
        elif rec["kind"] == "edge":
            key = edge_key(checked(rec, "source"), checked(rec, "target"))
            provenance[key] = checked(rec, "provenance", "chunk ids")
        else:
            raise ValueError(f"kind {rec['kind']!r} is neither 'node' nor 'edge'")

    for _ in iter_jsonl(path, "kind", build=add):
        pass
    return _graph(nodes, provenance)
