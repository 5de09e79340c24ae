"""Cross-document path sampling over the context graph.

Every entity serves as a root. For each root we pick up to S starting
paragraphs, embed each as the fixed query, and expand breadth-first: at
each step the candidate pool is every (neighbor entity, paragraph) pair
not yet on the path, scored by dot-product similarity against the root
paragraph, and the top W candidates are kept. Leaves of the retained beam
become paths. The beam runs on entity indices and chunk rows: a node is its
(entity index, row) steps and their scores, and its visited entities and
on-path rows are read off those steps. Ids appear only in the returned
paths and in ``expand_step``.

The sampler embeds every chunk of the entity map once, when it is built,
in chunk-id order, into the columns of one matrix; it holds each
entity's chunk rows and neighbors as one ascending sequence apiece. Each
root query gets an approximate BLAS score for every column, with a
proven bound on its distance from the exact one (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., section 3.1); the start
paragraphs of a block of roots are scored together, in one tiled matrix
product, when a step first needs them. A step never builds its pool: it
ranks the pool in two passes. The first finds the contenders: the
candidates whose upper bound reaches the W-th largest lower bound, since
no other can be in the top W. It walks the query's columns in descending
approximate score, keeping each column that an unvisited neighbor holds
and that is not on the path, and stopping once W candidates are held and
the next score lies below the W-th one by more than twice the bound: the
threshold algorithm of Fagin, Lotem and Naor ("Optimal aggregation
algorithms for middleware", PODS 2001), with the query's scores as the
sorted list. A step pinned to a document, whose few rows leave a walk
almost nothing to prune, and a step where a norm lies outside the range
the bound covers take every candidate as a contender, and score nothing
approximately. The second pass scores the contenders exactly, with the
left-to-right summation of ``similarity()``, and keeps the head of a
stable sort over them in (entity_id, chunk_id) order. So the ranking,
tie-breaks and scores equal those of the scalar definition.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .corpus import ChunkStore
from .embedding import EmbeddingBackend, EmbeddingCache, Vector, embed_text
from .errors import BackendError, ConfigSection, ConfigurationError, IntegrityError
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
    # walks took, how many candidates it scored exactly, and how many
    # distinct chunk texts it embedded or found in the cache.
    counts: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.paths)


@dataclass(frozen=True)
class TraversalConfig(ConfigSection):
    """S, D, W and the hop policy; the ``sample`` stage resolves ``auto`` first."""

    max_start_paragraphs: int = 3
    depth: int = 2
    beam_width: int = 2
    hop_policy: str = "one_hop"
    same_document_only: bool = False

    def _problems(self) -> list[str]:
        problems = []
        if self.max_start_paragraphs < 1:
            problems.append("max_start_paragraphs must be >= 1")
        if self.depth < 1:
            problems.append("depth must be >= 1")
        if self.beam_width < 1:
            problems.append("beam_width must be >= 1")
        if self.hop_policy not in ("auto", *HOP_POLICIES):
            problems.append(f"hop_policy must be one of {('auto', *HOP_POLICIES)}")
        if self.hop_policy in ("two_hop", "mixed") and self.depth < 2:
            problems.append(f"hop_policy {self.hop_policy} requires depth >= 2")
        if self.hop_policy == "auto" and self.depth < 2:
            problems.append("depth must be >= 2 for the auto hop schedule")
        return problems

    def expansion_depth(self) -> int:
        if self.hop_policy == "one_hop":
            return 1
        if self.hop_policy == "two_hop":
            return 2
        return self.depth


def select_start_paragraphs(root: EntityRecord, cfg: TraversalConfig, seed: int | str) -> list[str]:
    """All of the root's chunks if few, else a uniform sample of S by ``random.Random(seed)``."""
    if len(root.chunk_ids) <= cfg.max_start_paragraphs:
        return list(root.chunk_ids)
    return random.Random(seed).sample(root.chunk_ids, cfg.max_start_paragraphs)


@dataclass
class _Query:
    """A root query's vector, its norm and its ``_approximate`` score of every column.

    ``scores`` is the query's row of its block's score matrix, set when the
    block is scored; the query holds no reference to its block. ``order``
    lists columns in descending score, and ``order_scores`` their scores,
    as far as a scan has needed them.
    """

    vector: np.ndarray
    norm: float
    scores: np.ndarray | None = None
    first_floor: float = math.inf
    order: list[int] = field(default_factory=list)
    order_scores: list[float] = field(default_factory=list)


@dataclass
class _Block:
    """Root queries scored together, query i with row i of ``vectors``;
    ``scores`` is set once a scan needs them."""

    vectors: np.ndarray
    queries: list[_Query]
    scores: np.ndarray | None = None


# The most queries a block scores together (its score matrix holds a float64
# per query and chunk: 3.3 MB at 6,400 chunks); about the columns a query's
# first run in descending score sorts; and the columns its floor is read
# from. A scan that needs more columns doubles the run.
_BLOCK_QUERIES = 64
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
        *,
        seed: int = 0,
    ):
        if cfg.hop_policy == "auto":  # the sample stage resolves it first
            raise ConfigurationError(f"hop_policy must be one of {HOP_POLICIES}, not 'auto'")
        self.graph = graph
        self.entity_map = list(entity_map)
        self.chunk_store = chunk_store
        self.cfg = cfg
        self.seed = seed
        entity_chunks = {rec.entity_id: rec.chunk_ids for rec in entity_map}
        # One matrix row per chunk of the entity map; column j of the
        # transposed matrix is row j's embedding.
        self._chunk_ids = sorted({c for chunks in entity_chunks.values() for c in chunks})
        self._row = {c: i for i, c in enumerate(self._chunk_ids)}
        # Entities in id order, so that sorting indices sorts ids; the graph
        # may name entities without chunks.
        self._entities = sorted(
            set(entity_chunks).union(graph.adjacency, *graph.adjacency.values())
        )
        self._index = {e: i for i, e in enumerate(self._entities)}
        # Entity i's rows (a list) and neighbors' indices (an array, which sets
        # a mask in one step), both ascending; _holders[row] lists the entities
        # that hold that chunk, and entity i's pool holds _pool_sizes[i] candidates.
        self._rows_of: list[list[int]] = [[] for _ in self._entities]
        self._holders: list[list[int]] = [[] for _ in self._chunk_ids]
        for e, chunks in entity_chunks.items():
            i = self._index[e]
            self._rows_of[i] = sorted(self._row[c] for c in chunks)
            for c in chunks:
                if c not in chunk_store:
                    raise IntegrityError(f"entity {e} references unknown chunk '{c}'")
                self._holders[self._row[c]].append(i)
        self._doc_rows: dict[str, list[int]] = {}  # each document's rows, ascending
        for row, c in enumerate(self._chunk_ids):
            self._doc_rows.setdefault(chunk_store.get(c).doc_id, []).append(row)
        self._neighbors = [
            np.array(sorted(self._index[nb] for nb in graph.adjacency.get(e, ())), dtype=np.intp)
            for e in self._entities
        ]
        self._pool_sizes = [
            sum(len(self._rows_of[v]) for v in nbs.tolist()) for nbs in self._neighbors
        ]
        self._matrix_t: np.ndarray | None = None  # None when there are no chunks
        self._max_norm = 0.0
        cache = cache if cache is not None else EmbeddingCache()
        held, texts = len(cache), set()
        for row, c in enumerate(self._chunk_ids):
            text = chunk_store.get(c).text
            texts.add(text)
            try:
                vector = embed_text(text, backend, cache)
            except BackendError as e:
                raise BackendError(f"while embedding chunk {c}: {e}", retryable=e.retryable) from e
            if self._matrix_t is None:
                # The cache rejects a vector whose dimension differs from earlier ones.
                self._matrix_t = np.empty((len(vector), len(self._chunk_ids)), dtype=np.float64)
            column = self._matrix_t[:, row]
            column[:] = vector
            norm = math.sqrt(float(column @ column))
            # max() would drop a nan; as inf it keeps _bounded false
            self._max_norm = max(self._max_norm, norm if norm < math.inf else math.inf)
        # Each backend call adds a cache entry; every other distinct text was held.
        self.embedded = len(cache) - held
        self.cache_hits = len(texts) - self.embedded
        # The neighbor masks of the current root entity's expansion, dropped
        # when the next root entity starts: each costs a byte per entity.
        self._masks: dict[int, bytes] = {}  # by entity index, see _neighbor_mask
        self._block: _Block | None = None  # the queries being expanded
        self._queries: dict[int, _Query] = {}  # the block's, by start row, in sample()
        self.candidates = 0  # candidates left after masking, over all steps
        self.scanned = 0  # columns the walks took
        self.rescored = 0  # candidates scored exactly

    def _neighbor_mask(self, entity: int) -> bytes:
        """Byte i is 1 where the entity with index i neighbors ``entity``."""
        mask = self._masks.get(entity)
        if mask is None:
            flags = np.zeros(len(self._entities), dtype=np.uint8)
            flags[self._neighbors[entity]] = 1
            mask = self._masks[entity] = flags.tobytes()
        return mask

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

    def _begin_block(self, vectors: list[np.ndarray]) -> list[_Query]:
        """Make the queries with these vectors the block, and return them."""
        queries = [_Query(v, math.sqrt(float(v @ v))) for v in vectors]
        self._block = _Block(np.array(vectors, dtype=np.float64), queries)
        return queries

    def _score_block(self, block: _Block) -> None:
        """Unless the block is scored, score every column for its queries and
        set each query's first floor.

        A query's first run takes the columns scoring at least its first
        floor, near the ``_FIRST_RUN``-th largest score: read off every
        stride-th column, it is selected from a few hundred columns.
        """
        if block.scores is not None:
            return
        block.scores = self._approximate(block.vectors, slice(None))
        for query, scores in zip(block.queries, block.scores):
            query.scores = scores
        stride = max(1, block.scores.shape[1] // _RUN_SAMPLE)
        sample = block.scores[:, ::stride]
        k = min(-(-_FIRST_RUN // stride), sample.shape[1])
        floors = np.partition(sample, sample.shape[1] - k, axis=1)[:, -k].tolist()
        for query, floor in zip(block.queries, floors):
            query.first_floor = floor

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

    def _contenders(
        self,
        entity: int,
        adjacent: bytes,
        query: _Query,
        visited: set[int],
        on_path: set[int],
        doc: str | None,
    ) -> tuple[list[int], list[int]]:
        """The contenders of a step, as (holder indices, rows) in pool order.

        A step pinned to ``doc`` takes every candidate: the document's rows
        in ascending order, each with its unvisited neighbor holders. Any
        other step walks the query's columns in descending score; where no
        bound holds, it takes every candidate too.
        """
        holders = self._holders

        def held(rows) -> list[tuple[int, int]]:
            """The candidates in ``rows``, in that order."""
            return [(h, row) for row in rows if row not in on_path
                    for h in holders[row] if adjacent[h] and h not in visited]

        found = None
        if doc is None:
            candidates = self._pool_sizes[entity]
            for v in visited:
                if adjacent[v]:
                    candidates -= len(self._rows_of[v])
            for row in on_path:
                for h in holders[row]:
                    if adjacent[h] and h not in visited:
                        candidates -= 1
        else:
            found = held(self._doc_rows.get(doc, ()))
            candidates = len(found)
        if candidates == 0:
            return [], []
        dim = self._matrix_t.shape[0]
        if query.vector.shape != (dim,):
            raise ValueError(f"dimension mismatch: {len(query.vector)} vs {dim}")
        self.candidates += candidates
        if found is None and _bounded(self._max_norm) and _bounded(query.norm):
            self._score_block(self._block)  # the query's block
            margin = 2 * _error_bound(dim, query.norm, self._max_norm)
            order, order_scores = query.order, query.order_scores  # extended in place
            width = self.cfg.beam_width
            # A column's candidates share its score, and columns come in
            # descending score, so the score at which W are first held is the
            # W-th largest of the pool; a later column that falls below it by
            # more than the margin, and every column after it, is out.
            found = []
            floor = -math.inf
            walked = 0
            ordered = len(order)
            while len(found) < candidates:
                if walked == ordered:  # the order is extended as the walk needs it
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
        elif found is None:
            found = held(range(len(self._chunk_ids)))
        found.sort()
        return [h for h, _ in found], [row for _, row in found]

    def _step(
        self, entity: int, query: _Query, visited: set[int], on_path: set[int], doc: str | None
    ) -> list[tuple[int, int, float]]:
        """Top-W (holder index, row, score) candidates of a step from ``entity``."""
        holders, rows = self._contenders(
            entity, self._neighbor_mask(entity), query, visited, on_path, doc
        )
        if not rows:
            return []
        self.rescored += len(rows)
        # Row by row from the first, as ``similarity()`` sums; a matrix product
        # or np.sum would reassociate the sum and change the last bits. Adding
        # 0.0 turns the -0.0 of an all-(-0.0) column into similarity()'s 0.0.
        products = self._matrix_t[:, rows]  # a copy: rows index the columns
        products *= query.vector[:, None]
        scores = products.cumsum(axis=0)[-1] + 0.0
        top = np.argsort(-scores, kind="stable")[: self.cfg.beam_width].tolist()
        scores = scores.tolist()
        return [(holders[k], rows[k], scores[k]) for k in top]

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
        broken by (entity_id, chunk_id) ascending. Without ``doc_id``, a
        walk of the columns in descending approximate score finds the
        contenders without building the pool; they are scored by the
        left-to-right sum of ``similarity()``, so each returned score equals
        ``similarity(root_vec, v)`` bit for bit. ``root_vec`` makes a block
        of one query, in place of the block ``sample`` was expanding.
        """
        found = self._step(
            self._index[current[0]],
            self._begin_block([np.asarray(root_vec, dtype=np.float64)])[0],
            {self._index[v] for v in visited if v in self._index},
            {self._row[c] for c in chunks_on_path if c in self._row},
            doc_id,
        )
        return [(self._entities[h], self._chunk_ids[row], s) for h, row, s in found]

    def _expand_root(self, root: EntityRecord, start_chunk: str) -> list[Path]:
        cfg = self.cfg
        row = self._row[start_chunk]
        query = self._queries[row]
        doc_id = self.chunk_store.get(start_chunk).doc_id if cfg.same_document_only else None
        emit_prefixes = cfg.hop_policy == "mixed"
        # A node is its (entity index, row) steps and their scores; the
        # nodes that become paths are the leaves of the retained beam and,
        # under mixed, every prefix that was expanded.
        leaves: list[tuple[list[tuple[int, int]], list[float]]] = []
        frontier = [([(self._index[root.entity_id], row)], [])]
        for _ in range(cfg.expansion_depth()):
            next_frontier = []
            for steps, scores in frontier:
                found = self._step(
                    steps[-1][0], query, {h for h, _ in steps}, {r for _, r in steps}, doc_id
                )
                if len(steps) > 1 and (emit_prefixes or not found):
                    leaves.append((steps, scores))
                next_frontier += [(steps + [(h, r)], scores + [s]) for h, r, s in found]
            frontier = next_frontier
        leaves += frontier
        leaves.sort(key=lambda leaf: leaf[0])  # the id order: ids and rows sort alike
        # To ids in place, one tuple per distinct step, shared by every path through it.
        names: dict[tuple[int, int], tuple[str, str]] = {}
        for steps, _ in leaves:
            for k, step in enumerate(steps):
                name = names.get(step)
                if name is None:
                    name = names[step] = (self._entities[step[0]], self._chunk_ids[step[1]])
                steps[k] = name
        return [Path(steps, scores) for steps, scores in leaves]

    def sample(self) -> PathSet:
        paths: list[Path] = []
        roots = sorted(self.entity_map, key=lambda r: r.entity_id)
        every = -(-len(roots) // 10)  # about every tenth of the roots
        per_block = max(1, _BLOCK_QUERIES // self.cfg.max_start_paragraphs)
        for first in range(0, len(roots), per_block):
            block = []
            for root in roots[first : first + per_block]:
                # A per-root seed keeps results independent of root scheduling.
                starts = select_start_paragraphs(root, self.cfg, f"{self.seed}:{root.entity_id}")
                block.append((root, sorted(starts)))
            # one query per distinct start row, however many roots start there
            rows = list(dict.fromkeys(self._row[c] for _, starts in block for c in starts))
            self._queries = dict(zip(rows, self._begin_block([self._matrix_t[:, r] for r in rows])))
            for done, (root, starts) in enumerate(block, first + 1):
                self._masks.clear()
                for start_chunk in starts:
                    paths.extend(self._expand_root(root, start_chunk))
                if done % every == 0 or done == len(roots):
                    log.info("sample: %d/%d roots done, %d paths", done, len(roots), len(paths))
        for i, p in enumerate(paths):
            p.path_id = f"p{i:06d}"
        return PathSet(
            paths,
            {
                "candidates": self.candidates, "scanned": self.scanned, "rescored": self.rescored,
                "embedded": self.embedded, "cache_hits": self.cache_hits,
            },
        )


def sample_paths(
    graph: ContextGraph,
    entity_map: Sequence[EntityRecord],
    chunk_store: ChunkStore,
    cfg: TraversalConfig,
    backend: EmbeddingBackend,
    cache: EmbeddingCache | None = None,
    *,
    seed: int = 0,
) -> PathSet:
    return PathSampler(graph, entity_map, chunk_store, cfg, backend, cache, seed=seed).sample()


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


def as_step(value) -> tuple[str, str]:
    """A JSON ``[entity_id, chunk_id]`` pair as a step; any other value is a ValueError."""
    if type(value) is list and len(value) == 2 and type(value[0]) is type(value[1]) is str:
        return tuple(value)
    raise ValueError(f"{value!r} is not an [entity_id, chunk_id] pair")


def load_paths(path) -> PathSet:
    def build(rec: dict) -> Path:
        path_id = rec.get("path_id")  # null, as save_paths writes an unnamed path's
        if path_id is not None and type(path_id) is not str:
            raise ValueError(f"path_id {path_id!r} is not a string")
        scores = rec.get("scores", [])  # json reads the NaN save_paths writes as a float
        if type(scores) is not list or not all(type(x) in (int, float) for x in scores):
            raise ValueError(f"scores {scores!r} is not a list of numbers")
        return Path(
            steps=[as_step(s) for s in rec["steps"]],
            scores=[float(x) for x in scores],
            path_id=path_id,
        )

    return PathSet(paths=list(iter_jsonl(path, "steps", build=build)))
