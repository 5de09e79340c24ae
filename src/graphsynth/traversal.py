"""Cross-document path sampling over the context graph.

Every entity serves as a root. For each root we pick up to S starting
paragraphs, embed each as the fixed query, and expand breadth-first: at
each step the candidate pool is every (neighbor entity, paragraph) pair
not yet on the path, scored by dot-product similarity against the root
paragraph, and the top W candidates are kept. Leaves of the retained beam
become paths.

The sampler holds chunk embeddings as the columns of one matrix, filled
the first time a candidate needs them, and each entity's candidate pool
as arrays of (neighbor, chunk) pairs in (entity_id, chunk_id) order. A
step masks the pool, scores what is left with the exact left-to-right
summation of ``similarity()``, and keeps the head of a stable sort, so
the ranking, tie-breaks and scores equal those of the scalar definition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .corpus import ChunkStore
from .embedding import EmbeddingBackend, EmbeddingCache, Vector, embed_text
from .errors import BackendError
from .extraction import EntityRecord
from .graph import ContextGraph
from .jsonl import iter_jsonl, write_jsonl

HOP_POLICIES = ("one_hop", "two_hop", "mixed")


@dataclass
class Path:
    steps: list[tuple[str, str]]
    scores: list[float] = field(default_factory=list)
    path_id: str | None = None

    @property
    def root_entity(self) -> str:
        return self.steps[0][0]

    @property
    def root_chunk(self) -> str:
        return self.steps[0][1]

    @property
    def hop_count(self) -> int:
        return len(self.steps) - 1

    def entities(self) -> list[str]:
        return [e for e, _ in self.steps]

    def chunks(self) -> list[str]:
        return [c for _, c in self.steps]


@dataclass
class PathSet:
    paths: list[Path] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.paths)

    def by_root(self) -> dict[str, list[Path]]:
        grouped: dict[str, list[Path]] = {}
        for p in self.paths:
            grouped.setdefault(p.root_entity, []).append(p)
        return grouped


@dataclass(frozen=True)
class TraversalConfig:
    max_start_paragraphs: int = 3
    depth: int = 2
    beam_width: int = 2
    hop_policy: str = "one_hop"
    mixed_ratio: float = 0.5
    same_document_only: bool = False
    rng_seed: int = 0

    def validate(self) -> list[str]:
        problems = []
        if self.max_start_paragraphs < 1:
            problems.append("max_start_paragraphs must be >= 1")
        if self.depth < 1:
            problems.append("depth must be >= 1")
        if self.beam_width < 1:
            problems.append("beam_width must be >= 1")
        if self.hop_policy not in HOP_POLICIES:
            problems.append(f"hop_policy must be one of {HOP_POLICIES}")
        if self.hop_policy in ("two_hop", "mixed") and self.depth < 2:
            problems.append(f"hop_policy {self.hop_policy} requires depth >= 2")
        if self.hop_policy == "mixed" and not (0.0 < self.mixed_ratio < 1.0):
            problems.append("mixed_ratio must be in (0, 1)")
        return problems

    def expansion_depth(self) -> int:
        if self.hop_policy == "one_hop":
            return 1
        if self.hop_policy == "two_hop":
            return 2
        return self.depth


def select_start_paragraphs(
    root: EntityRecord, cfg: TraversalConfig, rng: random.Random
) -> list[str]:
    """All of the root's chunks if few, else a uniform sample of S."""
    if len(root.chunk_ids) <= cfg.max_start_paragraphs:
        return list(root.chunk_ids)
    return rng.sample(root.chunk_ids, cfg.max_start_paragraphs)


@dataclass
class _BeamNode:
    steps: list[tuple[str, str]]
    scores: list[float]
    visited: set[str]
    chunks_on_path: set[str]


@dataclass(frozen=True)
class _CandidatePool:
    """One entity's (neighbor, chunk) candidates, sorted by (entity_id, chunk_id).

    Candidates ``bounds[i]:bounds[i + 1]`` are the chunks of ``neighbors[i]``
    (``position[nb]`` is its ``i``); ``rows`` holds their matrix rows.
    """

    neighbors: list[str]
    position: dict[str, int]
    bounds: np.ndarray
    rows: np.ndarray

    def neighbor_of(self, candidate: int) -> str:
        # The last neighbor starting at or before the candidate; a neighbor
        # without chunks starts where the next one does, so it never is.
        return self.neighbors[int(np.searchsorted(self.bounds, candidate, side="right")) - 1]


class PathSampler:
    def __init__(
        self,
        graph: ContextGraph,
        entity_map: Sequence[EntityRecord],
        chunk_store: ChunkStore,
        cfg: TraversalConfig,
        backend: EmbeddingBackend,
        cache: EmbeddingCache | None = None,
    ):
        self.graph = graph
        self.entity_map = list(entity_map)
        self.entity_chunks = {rec.entity_id: list(rec.chunk_ids) for rec in entity_map}
        self.chunk_store = chunk_store
        self.cfg = cfg
        self.backend = backend
        self.cache = cache if cache is not None else EmbeddingCache()
        # One matrix row per chunk of the entity map; column j of the
        # transposed matrix is row j's embedding once _filled[j] is set.
        self._chunk_ids = sorted({c for chunks in self.entity_chunks.values() for c in chunks})
        self._row = {c: i for i, c in enumerate(self._chunk_ids)}
        self._doc_codes: dict[str, int] = {}
        self._row_doc = np.array(
            [
                self._doc_codes.setdefault(chunk_store.get(c).doc_id, len(self._doc_codes))
                for c in self._chunk_ids
            ],
            dtype=np.int64,
        )
        self._matrix_t: np.ndarray | None = None
        self._filled = np.zeros(len(self._chunk_ids), dtype=bool)
        self._pools: dict[str, _CandidatePool] = {}

    def _fill(self, row: int) -> None:
        vector = embed_text(
            self.chunk_store.get(self._chunk_ids[row]).text, self.backend, self.cache
        )
        if self._matrix_t is None:
            # The cache rejects a vector whose dimension differs from earlier ones.
            self._matrix_t = np.empty((len(vector), len(self._chunk_ids)), dtype=np.float64)
        self._matrix_t[:, row] = vector
        self._filled[row] = True

    def _embed_chunk(self, chunk_id: str) -> np.ndarray:
        row = self._row[chunk_id]
        if not self._filled[row]:
            self._fill(row)
        return self._matrix_t[:, row]

    def _pool(self, entity: str) -> _CandidatePool:
        pool = self._pools.get(entity)
        if pool is None:
            neighbors = sorted(self.graph.adjacency.get(entity, []))
            rows: list[int] = []
            bounds = [0]
            for nb in neighbors:
                rows.extend(self._row[c] for c in sorted(self.entity_chunks.get(nb, [])))
                bounds.append(len(rows))
            pool = _CandidatePool(
                neighbors,
                {nb: i for i, nb in enumerate(neighbors)},
                np.array(bounds, dtype=np.int64),
                np.array(rows, dtype=np.int32),
            )
            self._pools[entity] = pool
        return pool

    def expand_step(
        self,
        current: tuple[str, str],
        root_vec: Vector,
        visited: set[str],
        chunks_on_path: set[str],
        doc_id: str | None = None,
    ) -> list[tuple[str, str, float]]:
        """Top-W (entity, chunk, score) candidates for one beam node.

        The pool spans all unvisited neighbors' paragraphs that are not on
        the path (and, with ``doc_id``, lie in that document); ties are
        broken by (entity_id, chunk_id) ascending. Only those candidates'
        chunks are embedded. Each score equals ``similarity(root_vec, v)``
        bit for bit: it is summed over dimensions in the same order.
        """
        pool = self._pool(current[0])
        keep = np.ones(len(pool.rows), dtype=bool)
        for nb in visited:
            i = pool.position.get(nb)
            if i is not None:
                keep[pool.bounds[i] : pool.bounds[i + 1]] = False
        for chunk_id in chunks_on_path:
            row = self._row.get(chunk_id)
            if row is not None:
                keep &= pool.rows != row
        if doc_id is not None:
            keep &= self._row_doc[pool.rows] == self._doc_codes.get(doc_id, -1)
        idx = np.flatnonzero(keep)
        if idx.size == 0:
            return []
        rows = pool.rows[idx]
        for row in rows[~self._filled[rows]].tolist():
            if not self._filled[row]:  # a chunk of two neighbors is listed twice
                self._fill(row)

        q = np.asarray(root_vec, dtype=np.float64)
        products = self._matrix_t[:, rows]
        if q.shape != (products.shape[0],):
            raise ValueError(f"dimension mismatch: {len(q)} vs {products.shape[0]}")
        products *= q[:, None]
        # Dimension by dimension from 0.0, as ``similarity()`` sums; a matrix
        # product or np.sum would reassociate the sum and change the last bits.
        scores = np.zeros(len(rows), dtype=np.float64)
        for row in products:
            scores += row
        top = np.argsort(-scores, kind="stable")[: self.cfg.beam_width]
        return [
            (pool.neighbor_of(idx[k]), self._chunk_ids[rows[k]], float(scores[k]))
            for k in top.tolist()
        ]

    def _expand_root(self, root: EntityRecord, start_chunk: str) -> list[Path]:
        cfg = self.cfg
        root_vec = self._embed_chunk(start_chunk)
        doc_id = self.chunk_store.get(start_chunk).doc_id if cfg.same_document_only else None
        depth = cfg.expansion_depth()
        emit_prefixes = cfg.hop_policy == "mixed"

        emitted: list[Path] = []
        frontier = [
            _BeamNode(
                steps=[(root.entity_id, start_chunk)],
                scores=[],
                visited={root.entity_id},
                chunks_on_path={start_chunk},
            )
        ]
        for level in range(1, depth + 1):
            next_frontier: list[_BeamNode] = []
            for node in frontier:
                candidates = self.expand_step(
                    node.steps[-1], root_vec, node.visited, node.chunks_on_path, doc_id
                )
                if not candidates:
                    # Dead end: the node is a leaf of the retained beam.
                    if len(node.steps) > 1:
                        emitted.append(Path(steps=list(node.steps), scores=list(node.scores)))
                    continue
                if emit_prefixes and len(node.steps) > 1:
                    emitted.append(Path(steps=list(node.steps), scores=list(node.scores)))
                for ent, chunk, score in candidates:
                    next_frontier.append(
                        _BeamNode(
                            steps=node.steps + [(ent, chunk)],
                            scores=node.scores + [score],
                            visited=node.visited | {ent},
                            chunks_on_path=node.chunks_on_path | {chunk},
                        )
                    )
            frontier = next_frontier
        for node in frontier:
            if len(node.steps) > 1:
                emitted.append(Path(steps=list(node.steps), scores=list(node.scores)))
        emitted.sort(key=lambda p: tuple(p.steps))
        return emitted

    def sample(self) -> PathSet:
        paths: list[Path] = []
        for root in sorted(self.entity_map, key=lambda r: r.entity_id):
            if not root.chunk_ids:
                continue
            # Per-root rng keeps results independent of root scheduling.
            rng = random.Random(f"{self.cfg.rng_seed}:{root.entity_id}")
            try:
                for start_chunk in sorted(select_start_paragraphs(root, self.cfg, rng)):
                    paths.extend(self._expand_root(root, start_chunk))
            except BackendError as e:
                raise BackendError(
                    f"while sampling root {root.entity_id}: {e}", retryable=e.retryable
                ) from e
        for i, p in enumerate(paths):
            p.path_id = f"p{i:06d}"
        return PathSet(paths=paths)


def sample_paths(
    graph: ContextGraph,
    entity_map: Sequence[EntityRecord],
    chunk_store: ChunkStore,
    cfg: TraversalConfig,
    backend: EmbeddingBackend,
    cache: EmbeddingCache | None = None,
) -> PathSet:
    return PathSampler(graph, entity_map, chunk_store, cfg, backend, cache).sample()


def save_paths(path, path_set: PathSet | Iterable[Path]) -> int:
    paths = path_set.paths if isinstance(path_set, PathSet) else list(path_set)
    return write_jsonl(
        path,
        (
            {
                "path_id": p.path_id,
                "root_entity": p.root_entity,
                "root_chunk": p.root_chunk,
                "steps": [list(s) for s in p.steps],
                "scores": p.scores,
                "hop_count": p.hop_count,
            }
            for p in paths
        ),
    )


def load_paths(path) -> PathSet:
    paths = [
        Path(
            steps=[tuple(s) for s in rec["steps"]],
            scores=[float(x) for x in rec.get("scores", [])],
            path_id=rec.get("path_id"),
        )
        for rec in iter_jsonl(path)
    ]
    return PathSet(paths=paths)
