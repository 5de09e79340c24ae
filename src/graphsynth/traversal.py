"""Cross-document path sampling over the context graph.

Every entity serves as a root. For each root we pick up to S starting
paragraphs, embed each as the fixed query, and expand breadth-first: at
each step the candidate pool is every (neighbor entity, paragraph) pair
not yet on the path, scored by dot-product similarity against the root
paragraph, and the top W candidates are kept. Leaves of the retained beam
become paths.

The sampler holds chunk embeddings as the columns of one matrix, filled
the first time a candidate needs them, and every entity's chunk rows in
one CSR array; an entity's candidate pool is the concatenation of its
neighbors' slices, in (entity_id, chunk_id) order, built with a few array
operations when a root's expansion first needs it and dropped when the
next root entity starts, so that memory does not grow with the number of
roots. A step ranks the
unmasked pool in two passes. A BLAS product of the root query with the
matrix gives each candidate an approximate score and a proven bound on
its distance from the exact one (Higham, *Accuracy and Stability of
Numerical Algorithms*, 2nd ed., section 3.1). Only the candidates whose
upper bound reaches the W-th largest lower bound can be in the top W, and
only they are scored exactly, with the left-to-right summation of
``similarity()``; the head of a stable sort over them is kept. So the
ranking, tie-breaks and scores equal those of the scalar definition.
"""

from __future__ import annotations

import bisect
import logging
import math
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

log = logging.getLogger(__name__)

HOP_POLICIES = ("one_hop", "two_hop", "mixed")

# Any summation order of a d-term dot product q.c lies within
# gamma_d |q|.|c| <= gamma_d ||q|| ||c|| of the real value, gamma_d =
# d u / (1 - d u) with unit roundoff u (Higham, section 3.1), so a BLAS score
# and the ordered sum differ by at most about 2 d u ||q|| ||c||. The bound
# takes (4 d + 16) u ||q|| ||c||: the rest covers rounding in the norms, in
# the bound and in the pruning threshold. Pruning runs only while ||q|| and
# the largest ||c|| lie in [2**-500, 2**500]: then no partial sum overflows,
# no norm loses accuracy to underflow, and the bound exceeds the error of
# products that underflow. Otherwise every candidate is scored exactly.
_UNIT_ROUNDOFF = 2.0**-53
_NORM_MIN, _NORM_MAX = 2.0**-500, 2.0**500


def _error_bound(dim: int, q_norm: float, c_norm: float) -> float:
    """Largest gap between a BLAS score ``q . c`` and the ordered sum, for ||c|| <= c_norm."""
    return (4 * dim + 16) * _UNIT_ROUNDOFF * q_norm * c_norm


def _bounded(norm: float) -> bool:
    return _NORM_MIN <= norm <= _NORM_MAX  # false for nan


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
    # What the sampler did: candidates left after masking, and how many of
    # them it scored exactly.
    counts: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.paths)


@dataclass(frozen=True)
class TraversalConfig:
    max_start_paragraphs: int = 3
    depth: int = 2
    beam_width: int = 2
    hop_policy: str = "one_hop"
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

    ``neighbors`` lists the neighbors' entity indices, ascending; candidates
    ``bounds[i]:bounds[i + 1]`` are the chunks of ``neighbors[i]``, and
    ``rows`` holds their matrix rows.
    """

    neighbors: list[int]
    bounds: np.ndarray
    rows: np.ndarray

    def span(self, entity: int) -> tuple[int, int]:
        """The candidates of the entity with index ``entity``: empty if it is no neighbor."""
        i = bisect.bisect_left(self.neighbors, entity)
        if i < len(self.neighbors) and self.neighbors[i] == entity:
            return self.bounds[i], self.bounds[i + 1]
        return 0, 0

    def neighbor_of(self, candidate: int) -> int:
        # The last neighbor starting at or before the candidate; a neighbor
        # without chunks starts where the next one does, so it never is.
        return self.neighbors[int(self.bounds.searchsorted(candidate, side="right")) - 1]


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
        self.chunk_store = chunk_store
        self.cfg = cfg
        self.backend = backend
        self.cache = cache if cache is not None else EmbeddingCache()
        entity_chunks = {rec.entity_id: rec.chunk_ids for rec in entity_map}
        # One matrix row per chunk of the entity map; column j of the
        # transposed matrix is row j's embedding once _filled[j] is set.
        self._chunk_ids = sorted({c for chunks in entity_chunks.values() for c in chunks})
        self._row = {c: i for i, c in enumerate(self._chunk_ids)}
        self._doc_codes: dict[str, int] = {}
        self._row_doc = np.array(
            [
                self._doc_codes.setdefault(chunk_store.get(c).doc_id, len(self._doc_codes))
                for c in self._chunk_ids
            ],
            dtype=np.int64,
        )
        # Entities in id order, so that sorting indices sorts ids; the graph
        # may name entities without chunks.
        self._entities = sorted(
            set(entity_chunks).union(graph.adjacency, *graph.adjacency.values())
        )
        self._index = {e: i for i, e in enumerate(self._entities)}
        # Entity i's rows, ascending, are the next sizes[i] entries of
        # _entity_rows; _holders[row] lists the indices of the entities that
        # hold that chunk.
        sizes = np.zeros(len(self._entities), dtype=np.int64)
        owners = []
        self._holders: dict[int, list[int]] = {}
        for e, chunks in entity_chunks.items():
            i = self._index[e]
            sizes[i] = len(chunks)
            owners += [i] * len(chunks)
            for c in chunks:
                self._holders.setdefault(self._row[c], []).append(i)
        rows = np.array(
            [self._row[c] for chunks in entity_chunks.values() for c in chunks], dtype=np.int32
        )
        self._entity_rows = rows[np.lexsort((rows, np.array(owners, dtype=np.int64)))]
        # CSR over the graph: entity i's neighbors, ascending, fill the slots
        # _adjacent_starts[i] to _adjacent_starts[i + 1] of _adjacent. With
        # every pool laid end to end, slot k's candidates take the positions
        # _slot_starts[k] to _slot_starts[k + 1], and position p holds entity
        # row p + _slot_shift[k].
        adjacency = [
            sorted(self._index[nb] for nb in graph.adjacency.get(e, ())) for e in self._entities
        ]
        self._adjacent = np.array([i for nbs in adjacency for i in nbs], dtype=np.int64)
        self._adjacent_starts = np.cumsum([0] + [len(nbs) for nbs in adjacency]).tolist()
        self._slot_sizes = sizes[self._adjacent]
        self._slot_starts = np.zeros(len(self._adjacent) + 1, dtype=np.int64)
        np.cumsum(self._slot_sizes, out=self._slot_starts[1:])
        self._slot_shift = (np.cumsum(sizes) - sizes)[self._adjacent] - self._slot_starts[:-1]
        self._matrix_t: np.ndarray | None = None
        self._filled = np.zeros(len(self._chunk_ids), dtype=bool)
        self._fill_log: list[int] = []  # rows in the order they were filled
        # The pools of the current root entity's expansion, dropped when the
        # next root entity starts: one_hop uses a pool only for one root's S
        # starts, back to back, and keeping every pool costs memory that
        # grows with the corpus.
        self._pools: dict[str, _CandidatePool] = {}
        self._pools_root: str | None = None
        self._max_norm = 0.0
        # _query's result for the query with these bytes, current up to
        # _fill_log[:_query_seen].
        self._query_key: bytes | None = None
        self._query_norm = 0.0
        self._query_scores = np.zeros(0, dtype=np.float64)
        self._query_seen = 0
        self.candidates = 0  # candidates left after masking, over all steps
        self.rescored = 0  # candidates scored exactly

    def _fill(self, row: int) -> None:
        vector = embed_text(
            self.chunk_store.get(self._chunk_ids[row]).text, self.backend, self.cache
        )
        if self._matrix_t is None:
            # The cache rejects a vector whose dimension differs from earlier ones.
            # Zeros, not np.empty: _approximate multiplies unfilled columns too.
            self._matrix_t = np.zeros((len(vector), len(self._chunk_ids)), dtype=np.float64)
        column = self._matrix_t[:, row]
        column[:] = vector
        norm = math.sqrt(float(column @ column))
        # max() would drop a nan; as inf it keeps _bounded false
        self._max_norm = max(self._max_norm, norm if norm < math.inf else math.inf)
        self._filled[row] = True
        self._fill_log.append(row)

    def _embed_chunk(self, chunk_id: str) -> np.ndarray:
        row = self._row[chunk_id]
        if not self._filled[row]:
            self._fill(row)
        return self._matrix_t[:, row]

    def _pool(self, entity: str) -> _CandidatePool:
        pool = self._pools.get(entity)
        if pool is None:
            i = self._index[entity]
            first, last = self._adjacent_starts[i], self._adjacent_starts[i + 1]
            bounds = self._slot_starts[first : last + 1]
            rows = np.repeat(self._slot_shift[first:last], self._slot_sizes[first:last])
            rows += np.arange(bounds[0], bounds[-1])
            pool = _CandidatePool(
                self._adjacent[first:last].tolist(), bounds - bounds[0], self._entity_rows[rows]
            )
            self._pools[entity] = pool
        return pool

    def _approximate(self, q: np.ndarray, columns) -> np.ndarray:
        """BLAS scores ``q . c`` of the matrix columns ``columns``.

        Each may differ from the ordered sum by up to ``_error_bound``; a
        test swaps in a scorer that errs by nearly that much.
        """
        return q @ self._matrix_t[:, columns]

    def _query(self, q: np.ndarray) -> tuple[float, np.ndarray]:
        """``q``'s norm and ``_approximate`` over every column.

        Kept for the query with ``q``'s bytes (tests pass tuples that are
        not matrix columns); a later call for it multiplies only the
        columns filled since.
        """
        key = q.tobytes()
        if key != self._query_key:
            self._query_key = key
            self._query_norm = math.sqrt(float(q @ q))
            self._query_scores = self._approximate(q, slice(None))
        elif self._query_seen < len(self._fill_log):
            new = self._fill_log[self._query_seen :]
            self._query_scores[new] = self._approximate(q, new)
        self._query_seen = len(self._fill_log)
        return self._query_norm, self._query_scores

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
        chunks are embedded. A BLAS score with a proven error bound rules
        most of the pool out of the top W; only the rest are scored, by the
        left-to-right sum of ``similarity()``, so each returned score
        equals ``similarity(root_vec, v)`` bit for bit.
        """
        pool = self._pool(current[0])
        keep = np.ones(len(pool.rows), dtype=bool)
        for nb in visited:
            start, end = pool.span(self._index.get(nb, -1))
            keep[start:end] = False
        for chunk_id in chunks_on_path:
            row = self._row.get(chunk_id)
            if row is None:
                continue
            for holder in self._holders[row]:
                start, end = pool.span(holder)
                if start < end:
                    first, stop = start + pool.rows[start:end].searchsorted((row, row + 1))
                    keep[first:stop] = False
        if doc_id is not None:
            keep &= self._row_doc[pool.rows] == self._doc_codes.get(doc_id, -1)
        idx = np.flatnonzero(keep)
        if idx.size == 0:
            return []
        rows = pool.rows[idx]
        if len(self._fill_log) < len(self._chunk_ids):
            for row in rows[~self._filled[rows]].tolist():
                if not self._filled[row]:  # a chunk of two neighbors is listed twice
                    self._fill(row)

        q = np.asarray(root_vec, dtype=np.float64)
        if q.shape != (self._matrix_t.shape[0],):
            raise ValueError(f"dimension mismatch: {len(q)} vs {self._matrix_t.shape[0]}")
        self.candidates += len(rows)
        if len(rows) > self.cfg.beam_width:
            q_norm, approx_all = self._query(q)
            if _bounded(q_norm) and _bounded(self._max_norm):
                # Each exact score is within err of its approx, so the W-th
                # largest exact score is at least the W-th largest approx
                # minus err, and a candidate whose approx falls below that by
                # more than err cannot be in the top W. The rest keep their
                # pool order.
                approx = approx_all[rows]
                kth = len(rows) - self.cfg.beam_width
                err = _error_bound(len(q), q_norm, self._max_norm)
                contenders = np.flatnonzero(approx >= np.partition(approx, kth)[kth] - 2 * err)
                idx, rows = idx[contenders], rows[contenders]
        self.rescored += len(rows)
        # Row by row from the first, as ``similarity()`` sums; a matrix product
        # or np.sum would reassociate the sum and change the last bits. Adding
        # 0.0 turns the -0.0 of an all-(-0.0) column into similarity()'s 0.0.
        scores = np.cumsum(self._matrix_t[:, rows] * q[:, None], axis=0)[-1] + 0.0
        top = np.argsort(-scores, kind="stable")[: self.cfg.beam_width]
        return [
            (self._entities[pool.neighbor_of(idx[k])], self._chunk_ids[rows[k]], float(scores[k]))
            for k in top.tolist()
        ]

    def _expand_root(self, root: EntityRecord, start_chunk: str) -> list[Path]:
        cfg = self.cfg
        if root.entity_id != self._pools_root:
            self._pools.clear()
            self._pools_root = root.entity_id
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
        roots = sorted(self.entity_map, key=lambda r: r.entity_id)
        every = -(-len(roots) // 10)  # about every tenth of the roots
        for done, root in enumerate(roots, 1):
            if root.chunk_ids:
                # Per-root rng keeps results independent of root scheduling.
                rng = random.Random(f"{self.cfg.rng_seed}:{root.entity_id}")
                try:
                    for start_chunk in sorted(select_start_paragraphs(root, self.cfg, rng)):
                        paths.extend(self._expand_root(root, start_chunk))
                except BackendError as e:
                    raise BackendError(
                        f"while sampling root {root.entity_id}: {e}", retryable=e.retryable
                    ) from e
            if done % every == 0 or done == len(roots):
                log.info("sample: %d/%d roots done, %d paths", done, len(roots), len(paths))
        for i, p in enumerate(paths):
            p.path_id = f"p{i:06d}"
        return PathSet(paths, {"candidates": self.candidates, "rescored": self.rescored})


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
