"""Cross-document path sampling over the context graph.

Every entity serves as a root. For each root we pick up to S starting
paragraphs, embed each as the fixed query, and expand breadth-first: at
each step the candidate pool is every (neighbor entity, paragraph) pair
not yet on the path, scored by dot-product similarity against the root
paragraph, and the top W candidates are kept. Leaves of the retained beam
become paths.

The sampler holds chunk embeddings as the columns of one matrix, filled
the first time a candidate needs them, and every entity's chunk rows and
neighbors in CSR arrays. Each root query gets an approximate BLAS score
for every column, with a proven bound on its distance from the exact one
(Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
section 3.1); the start paragraphs of a block of roots are scored
together, in one tiled matrix product. A step ranks its pool in two
passes. The first finds the contenders: the candidates whose upper bound
reaches the W-th largest lower bound, since no other can be in the top W.
It takes them from a scan of the columns in descending approximate score,
keeping each column that an unvisited neighbor holds and that is not on
the path, and stopping once W candidates are held and the next score lies
below the W-th one by more than twice the bound: the threshold algorithm
of Fagin, Lotem and Naor ("Optimal aggregation algorithms for middleware",
PODS 2001), with the query's scores as the sorted list. Where the scan
cannot stand in for the pool (a neighbor's chunks are not all embedded
yet, a norm lies outside the range the bound covers, or the step is pinned
to one document), the step materializes the pool instead: its neighbors'
slices in (entity_id, chunk_id) order, built when a root's expansion first
needs it and dropped when the next root entity starts, masked, and pruned
by the same rule. The second pass scores the contenders exactly, with the
left-to-right summation of ``similarity()``, and keeps the head of a
stable sort over them in pool order. So the ranking, tie-breaks and scores
equal those of the scalar definition, and the chunks embedded are those
the pools would embed.
"""

from __future__ import annotations

import bisect
import logging
import math
import random
from contextlib import contextmanager
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
    # What the sampler did: candidates left after masking, columns its
    # scans walked, and how many candidates it scored exactly.
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

    def holders(self, candidates: np.ndarray) -> list[int]:
        """The neighbor index of each candidate."""
        # The last neighbor starting at or before the candidate; a neighbor
        # without chunks starts where the next one does, so it never is.
        at = self.bounds.searchsorted(candidates, side="right") - 1
        return [self.neighbors[i] for i in at.tolist()]


@dataclass
class _Query:
    """A root query's norm and ``_approximate`` score of every column.

    ``scores`` is the query's row of its block's score matrix. ``order``
    lists columns in descending score, and ``order_scores`` their scores,
    as far as a scan has needed them.
    """

    norm: float
    scores: np.ndarray | None = None
    first_floor: float = math.inf
    order: list[int] = field(default_factory=list)
    order_scores: list[float] = field(default_factory=list)


@dataclass
class _Block:
    """Root queries scored together, each by its bytes, with the rows of
    ``vectors``; ``scores``, once a scan needs them, is current up to
    ``_fill_log[:seen]``."""

    vectors: np.ndarray
    queries: dict[bytes, _Query]
    scores: np.ndarray | None = None
    seen: int = 0


# The most queries a block scores together; about the columns a query's
# first run in descending score sorts, and the columns its floor is read
# from. A scan that needs more columns doubles the run.
_BLOCK_QUERIES = 256
_FIRST_RUN = 32
_RUN_SAMPLE = 256
# Score products are tiled to at most 32 queries and 2**18 multiply-adds:
# OpenBLAS runs a product that small on the calling thread, while a larger
# one wakes its threads, which then spin for about 0.1 s of CPU each time.
_TILE_QUERIES = 32
_TILE_PRODUCTS = 2**18


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
        self._holders: list[list[int]] = [[] for _ in self._chunk_ids]
        for e, chunks in entity_chunks.items():
            i = self._index[e]
            sizes[i] = len(chunks)
            owners += [i] * len(chunks)
            for c in chunks:
                self._holders[self._row[c]].append(i)
        rows = np.array(
            [self._row[c] for chunks in entity_chunks.values() for c in chunks], dtype=np.int32
        )
        self._entity_rows = rows[np.lexsort((rows, np.array(owners, dtype=np.int64)))]
        self._sizes = sizes.tolist()
        # CSR over the graph: entity i's neighbors, ascending, fill the slots
        # _adjacent_starts[i] to _adjacent_starts[i + 1] of _adjacent. With
        # every pool laid end to end, slot k's candidates take the positions
        # _slot_starts[k] to _slot_starts[k + 1], and position p holds entity
        # row p + _slot_shift[k]; entity i's pool holds _pool_sizes[i].
        adjacency = [
            sorted(self._index[nb] for nb in graph.adjacency.get(e, ())) for e in self._entities
        ]
        self._adjacent = np.array([i for nbs in adjacency for i in nbs], dtype=np.int64)
        self._adjacent_starts = np.cumsum([0] + [len(nbs) for nbs in adjacency]).tolist()
        self._slot_sizes = sizes[self._adjacent]
        self._slot_starts = np.zeros(len(self._adjacent) + 1, dtype=np.int64)
        np.cumsum(self._slot_sizes, out=self._slot_starts[1:])
        self._slot_shift = (np.cumsum(sizes) - sizes)[self._adjacent] - self._slot_starts[:-1]
        self._pool_sizes = np.diff(self._slot_starts[self._adjacent_starts]).tolist()
        self._matrix_t: np.ndarray | None = None
        self._filled = np.zeros(len(self._chunk_ids), dtype=bool)
        self._fill_log: list[int] = []  # rows in the order they were filled
        # Per entity, how many of its rows are not filled yet; the entities
        # whose neighbors' rows are all filled.
        self._unfilled = sizes.copy()
        self._filled_around: set[int] = set()
        # The pools of the current root entity's expansion, dropped when the
        # next root entity starts: one_hop uses a pool only for one root's S
        # starts, back to back, and keeping every pool costs memory that
        # grows with the corpus.
        self._pools: dict[str, _CandidatePool] = {}
        self._masks: dict[int, bytes] = {}  # by entity index, see _neighbor_mask
        self._pools_root: str | None = None
        self._max_norm = 0.0
        self._block: _Block | None = None  # the queries being expanded
        self.candidates = 0  # candidates left after masking, over all steps
        self.scanned = 0  # columns the scans walked
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
        self._unfilled[self._holders[row]] -= 1

    def _embed_chunk(self, chunk_id: str) -> np.ndarray:
        row = self._row[chunk_id]
        if not self._filled[row]:
            self._fill(row)
        return self._matrix_t[:, row]

    def _vector(self, chunk_id: str) -> np.ndarray:
        """The chunk's embedding, leaving its column as it is: the columns
        fill in the order the expansions need them."""
        row = self._row[chunk_id]
        if self._filled[row]:
            return self._matrix_t[:, row]
        return embed_text(self.chunk_store.get(chunk_id).text, self.backend, self.cache)

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

    def _neighbor_mask(self, entity: int) -> bytes:
        """Byte i is 1 where the entity with index i neighbors ``entity``."""
        mask = self._masks.get(entity)
        if mask is None:
            first, last = self._adjacent_starts[entity], self._adjacent_starts[entity + 1]
            flags = np.zeros(len(self._entities), dtype=np.uint8)
            flags[self._adjacent[first:last]] = 1
            mask = self._masks[entity] = flags.tobytes()
        return mask

    def _neighbors_filled(self, entity: int, adjacent: bytes, visited: set[int]) -> bool:
        """Whether every row of the entity's unvisited neighbors is filled."""
        if entity in self._filled_around:
            return True
        first, last = self._adjacent_starts[entity], self._adjacent_starts[entity + 1]
        unfilled = int(self._unfilled[self._adjacent[first:last]].sum())
        if unfilled == 0:
            self._filled_around.add(entity)  # rows never unfill
            return True
        return unfilled == sum(int(self._unfilled[v]) for v in visited if adjacent[v])

    def _approximate(self, queries: np.ndarray, columns) -> np.ndarray:
        """BLAS scores ``q . c`` of each query row and each matrix column in ``columns``.

        Each may differ from the ordered sum by up to ``_error_bound``; a
        test swaps in a scorer that errs by nearly that much.
        """
        matrix = self._matrix_t[:, columns]
        if len(queries) * matrix.size <= _TILE_PRODUCTS:
            return queries @ matrix
        out = np.empty((len(queries), matrix.shape[1]), dtype=np.float64)
        rows = min(len(queries), _TILE_QUERIES)
        width = max(1, _TILE_PRODUCTS // (rows * matrix.shape[0]))
        for i in range(0, len(queries), rows):
            for j in range(0, matrix.shape[1], width):
                tile = out[i : i + rows, j : j + width]
                np.matmul(queries[i : i + rows], matrix[:, j : j + width], out=tile)
        return out

    def _begin_block(self, vectors: list[np.ndarray]) -> None:
        """Make the queries with these vectors the block; the first scan scores them all."""
        unique = {}
        for v in vectors:
            v = np.asarray(v, dtype=np.float64)
            unique.setdefault(v.tobytes(), v)
        self._block = _Block(
            np.array(list(unique.values()), dtype=np.float64),
            {key: _Query(math.sqrt(float(v @ v))) for key, v in unique.items()},
        )

    def _query(self, q: np.ndarray) -> _Query:
        """``q``'s scores, current with every filled column.

        A query outside the block makes a block of its own.
        """
        key = q.tobytes()
        if self._block is None or key not in self._block.queries:
            self._begin_block([q])
        block = self._block
        if block.scores is None or block.seen < len(self._fill_log):
            self._score_block(block)
        return block.queries[key]

    def _score_block(self, block: _Block) -> None:
        """Score every column for the block's queries, or only the columns
        filled since, and start each query's order afresh.

        A query's first run takes the columns scoring at least its first
        floor, near the ``_FIRST_RUN``-th largest score: read off every
        stride-th column, it is selected from a few hundred columns.
        """
        if block.scores is None:
            block.scores = self._approximate(block.vectors, slice(None))
            for query, scores in zip(block.queries.values(), block.scores):
                query.scores = scores
        else:
            new = self._fill_log[block.seen :]
            block.scores[:, new] = self._approximate(block.vectors, new)
        block.seen = len(self._fill_log)
        stride = max(1, block.scores.shape[1] // _RUN_SAMPLE)
        sample = block.scores[:, ::stride]
        k = min(-(-_FIRST_RUN // stride), sample.shape[1])
        floors = np.partition(sample, sample.shape[1] - k, axis=1)[:, -k].tolist()
        for query, floor in zip(block.queries.values(), floors):
            query.first_floor, query.order, query.order_scores = floor, [], []

    def _extend_order(self, query: _Query) -> None:
        """Append the next run of columns in descending score to the query's order.

        The first run takes every column scoring at least the query's first
        floor; a later one every column below the last score ordered so far
        and at least the k-th largest score, k twice the columns ordered so
        far. So runs never split a tie, and a later run is never empty.
        """
        scores = query.scores
        if query.order:
            n = len(scores)
            k = min(2 * len(query.order), n)
            run = scores >= np.partition(scores, n - k)[n - k]
            run &= scores < query.order_scores[-1]
        else:
            run = scores >= query.first_floor
        run = np.flatnonzero(run)
        run = run[np.argsort(-scores[run], kind="stable")]
        query.order += run.tolist()
        query.order_scores += scores[run].tolist()

    def _check_dimension(self, q: np.ndarray) -> None:
        if q.shape != (self._matrix_t.shape[0],):
            raise ValueError(f"dimension mismatch: {len(q)} vs {self._matrix_t.shape[0]}")

    def _scan(
        self, entity: int, adjacent: bytes, q: np.ndarray, visited: set[int], on_path: set[int]
    ) -> tuple[list[int], list[int]] | None:
        """The contenders of a step whose neighbors' rows are all filled, as
        (holder indices, rows) in pool order; None where no bound holds."""
        holders = self._holders
        candidates = self._pool_sizes[entity]
        for v in visited:
            if adjacent[v]:
                candidates -= self._sizes[v]
        for row in on_path:
            for h in holders[row]:
                if adjacent[h] and h not in visited:
                    candidates -= 1
        if candidates == 0:
            return [], []
        self._check_dimension(q)
        if not _bounded(self._max_norm):
            return None
        query = self._query(q)
        if not _bounded(query.norm):
            return None
        self.candidates += candidates
        width = self.cfg.beam_width
        margin = 2 * _error_bound(len(q), query.norm, self._max_norm)
        # A column's candidates share its score, and columns come in
        # descending score, so the score at which W are first held is the
        # W-th largest of the pool; a later column that falls below it by
        # more than the margin, and every column after it, is out.
        found: list[tuple[int, int]] = []
        floor = -math.inf
        walked = 0
        order, order_scores = query.order, query.order_scores  # extended in place
        ordered = len(order)
        while len(found) < candidates:
            if walked == ordered:
                self._extend_order(query)
                ordered = len(order)
            score = order_scores[walked]
            if score < floor:
                break
            row = order[walked]
            walked += 1
            if row in on_path:
                continue
            for h in holders[row]:
                if adjacent[h] and h not in visited:
                    found.append((h, row))
            if floor == -math.inf and len(found) >= width:
                floor = score - margin
        self.scanned += walked
        found.sort()
        return [h for h, _ in found], [row for _, row in found]

    def _prune_pool(
        self,
        current: str,
        q: np.ndarray,
        visited: set[str],
        chunks_on_path: set[str],
        doc_id: str | None,
    ) -> tuple[list[int], np.ndarray]:
        """The contenders of a step from its materialized pool, as (holder indices, rows)."""
        pool = self._pool(current)
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
            return [], idx
        rows = pool.rows[idx]
        if len(self._fill_log) < len(self._chunk_ids):
            for row in rows[~self._filled[rows]].tolist():
                if not self._filled[row]:  # a chunk of two neighbors is listed twice
                    self._fill(row)
        self._check_dimension(q)
        self.candidates += len(rows)
        if len(rows) > self.cfg.beam_width:
            q_norm = math.sqrt(float(q @ q))
            if _bounded(q_norm) and _bounded(self._max_norm):
                # Each exact score is within err of its approx, so the W-th
                # largest exact score is at least the W-th largest approx
                # minus err, and a candidate whose approx falls below that by
                # more than err cannot be in the top W. The rest keep their
                # pool order.
                approx = self._approximate(q[None, :], rows)[0]
                kth = len(rows) - self.cfg.beam_width
                err = _error_bound(len(q), q_norm, self._max_norm)
                contenders = np.flatnonzero(approx >= np.partition(approx, kth)[kth] - 2 * err)
                idx, rows = idx[contenders], rows[contenders]
        return pool.holders(idx), rows

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
        chunks are embedded. Where every such chunk is embedded already and
        the norms allow a bound, a scan of the columns in descending
        approximate score finds the contenders without building the pool;
        otherwise the pool is built, masked and pruned by the same bound.
        Only the contenders are scored, by the left-to-right sum of
        ``similarity()``, so each returned score equals
        ``similarity(root_vec, v)`` bit for bit.
        """
        entity = self._index[current[0]]
        q = np.asarray(root_vec, dtype=np.float64)
        visited_at = {self._index[v] for v in visited if v in self._index}
        found = None
        if doc_id is None:
            adjacent = self._neighbor_mask(entity)
            if self._neighbors_filled(entity, adjacent, visited_at):
                on_path = {self._row[c] for c in chunks_on_path if c in self._row}
                found = self._scan(entity, adjacent, q, visited_at, on_path)
        if found is None:
            found = self._prune_pool(current[0], q, visited, chunks_on_path, doc_id)
        holders, rows = found
        if len(rows) == 0:
            return []
        self.rescored += len(rows)
        # Row by row from the first, as ``similarity()`` sums; a matrix product
        # or np.sum would reassociate the sum and change the last bits. Adding
        # 0.0 turns the -0.0 of an all-(-0.0) column into similarity()'s 0.0.
        products = self._matrix_t[:, rows]  # a copy: rows index the columns
        products *= q[:, None]
        scores = products.cumsum(axis=0)[-1] + 0.0
        top = np.argsort(-scores, kind="stable")[: self.cfg.beam_width].tolist()
        scores = scores.tolist()
        return [(self._entities[holders[k]], self._chunk_ids[rows[k]], scores[k]) for k in top]

    def _expand_root(self, root: EntityRecord, start_chunk: str) -> list[Path]:
        cfg = self.cfg
        if root.entity_id != self._pools_root:
            self._pools.clear()
            self._masks.clear()
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
        per_block = max(1, _BLOCK_QUERIES // self.cfg.max_start_paragraphs)
        scans = not self.cfg.same_document_only  # a step pinned to one document takes the pool
        for first in range(0, len(roots), per_block):
            block, vectors = [], []
            for root in roots[first : first + per_block]:
                # Per-root rng keeps results independent of root scheduling.
                rng = random.Random(f"{self.cfg.rng_seed}:{root.entity_id}")
                starts = sorted(select_start_paragraphs(root, self.cfg, rng))
                if scans:
                    with _naming(root):
                        vectors += [self._vector(c) for c in starts]
                block.append((root, starts))
            if scans:
                self._begin_block(vectors)
            for done, (root, starts) in enumerate(block, first + 1):
                with _naming(root):
                    for start_chunk in starts:
                        paths.extend(self._expand_root(root, start_chunk))
                if done % every == 0 or done == len(roots):
                    log.info("sample: %d/%d roots done, %d paths", done, len(roots), len(paths))
        for i, p in enumerate(paths):
            p.path_id = f"p{i:06d}"
        return PathSet(
            paths,
            {"candidates": self.candidates, "scanned": self.scanned, "rescored": self.rescored},
        )


@contextmanager
def _naming(root: EntityRecord):
    """Name the root in a backend error raised while sampling it."""
    try:
        yield
    except BackendError as e:
        raise BackendError(
            f"while sampling root {root.entity_id}: {e}", retryable=e.retryable
        ) from e


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
