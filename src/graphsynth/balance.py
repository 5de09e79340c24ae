"""Secondary sampling with utilization-aware ordering and CC pairing.

The path set is partitioned into subsets. Within a subset, paths are
selected least-utilized-first (sum of the use counts of the entities on
the path) until chunk coverage reaches the target r or the subset hits the
standard length l. On an l-length stop with coverage short of r, the
relative shortfall dr = (r - r') / r sizes both the cut (paths beyond
floor((1 - dr) * l) return to the pool and their entity uses are
subtracted) and the sparse-entity draw k = floor(dr * l), whose members are
randomly paired without replacement for contrastive generation, each side
carrying one randomly sampled chunk.

Entity use counts, one Counter, carry across subsets. Chunk coverage is
the share of the corpus's chunks in the subset's set of covered chunks,
which starts empty in each subset and is rebuilt from the retained paths
after a cut. The selection loop keeps the utilization of every remaining
path in an integer vector in rank order, so a pick is an argmin whose ties
go to the lowest rank. Each entity of the pick then raises the paths that
hold it with one vector add: at their positions for an entity on fewer
than n/8 of the n paths, and as one dense add over all paths, cheaper than
a scatter, for a hub on at least n/8. A path of depth d holds at most
d + 1 entities, so at most 8 (d + 1) are dense, in at most 64 (d + 1) n
bytes. The output is pinned, transcript-for-transcript, to a naive
sort-and-pop reference implementation in the test suite.
"""

from __future__ import annotations

import logging
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigSection, ConfigurationError, IntegrityError
from .jsonl import checked, iter_jsonl, write_jsonl
from .traversal import Path, PathSet, as_step

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BalanceConfig(ConfigSection):
    target_coverage: float = 1.0
    standard_length: int | str = "auto"

    def _problems(self) -> list[str]:
        problems = []
        if not (0.0 < self.target_coverage <= 1.0):
            problems.append("target_coverage must be in (0, 1]")
        if self.standard_length != "auto":
            if not isinstance(self.standard_length, int) or self.standard_length < 1:
                problems.append("standard_length must be a positive integer or 'auto'")
        return problems


def auto_standard_length(total_chunks: int, hop: float) -> int:
    """floor(total_chunks / (hop + 1)); the default subset budget."""
    return math.floor(total_chunks / (hop + 1))


def resolve_standard_length(cfg: BalanceConfig, total_chunks: int, hop: float) -> int:
    if cfg.standard_length == "auto":
        return max(1, auto_standard_length(total_chunks, hop))
    return int(cfg.standard_length)


@dataclass
class CCPair:
    pair_id: str
    left: tuple[str, str]
    right: tuple[str, str]

    def steps(self) -> list[tuple[str, str]]:
        return [self.left, self.right]


@dataclass
class BalanceTrace:
    selection_order: list[str] = field(default_factory=list)
    returned: list[str] = field(default_factory=list)
    delta_r: float | None = None
    k: int | None = None
    cut: int | None = None
    sparse_entities: list[str] = field(default_factory=list)


@dataclass
class SubsetAllocation:
    subset_index: int
    cot_paths: list[Path]
    cc_pairs: list[CCPair]
    achieved_coverage: float
    trace: BalanceTrace | None = None


# Utilization of a path already taken: far above any reachable sum, far
# below the int64 limit, so the increments it keeps receiving never wrap.
_TAKEN = 1 << 62
# Entities on at least 1/_DENSE_SHARE of the paths get dense raises (1/16, 1/32 timed alike).
_DENSE_SHARE = 8


class _RankedPaths:
    """Paths in rank order, with one raise per entity.

    A pick raises the paths holding each of its steps' entities by their steps
    on it, ``utilization[positions] += weights``, with ``slice(None)`` for a hub.
    """

    def __init__(self, ranked: Sequence[Path]):
        self.paths = list(ranked)
        n = len(self.paths)
        codes: dict[str, int] = {}
        step_path: list[int] = []
        step_entity: list[int] = []
        for i, p in enumerate(self.paths):
            for entity, _ in p.steps:
                step_path.append(i)
                step_entity.append(codes.setdefault(entity, len(codes)))
        self._step_path = np.array(step_path, dtype=np.int64)
        self._step_entity = np.array(step_entity, dtype=np.int64)
        # One (entity, path) pair per distinct key, sorted by entity, with
        # the number of the path's steps on that entity as its weight.
        pairs, weights = np.unique(self._step_entity * n + self._step_path, return_counts=True)
        positions = pairs % n
        bounds = np.searchsorted(pairs // n, np.arange(len(codes) + 1)).tolist()
        self.raises: dict[str, tuple[np.ndarray | slice, np.ndarray]] = {}  # in code order
        for entity, lo, hi in zip(codes, bounds, bounds[1:]):
            at, by = positions[lo:hi], weights[lo:hi]
            if (hi - lo) * _DENSE_SHARE >= n:
                at, by = slice(None), np.zeros(n, dtype=np.int64)
                by[positions[lo:hi]] = weights[lo:hi]
            self.raises[entity] = (at, by)

    def utilization(self, counts: Mapping[str, int]) -> np.ndarray:
        """Every path's utilization, the sum of its steps' entity counts, as int64."""
        per_entity = np.array([counts[e] for e in self.raises], dtype=np.int64)
        out = np.zeros(len(self.paths), dtype=np.int64)
        np.add.at(out, self._step_path, per_entity[self._step_entity])
        return out

    def raise_sharing(self, utilization: np.ndarray, picked: Path) -> None:
        """Apply the count increments of ``picked``'s entities to ``utilization``."""
        for entity, _ in picked.steps:
            positions, weights = self.raises[entity]
            utilization[positions] += weights


def _build_subset(
    ranked: _RankedPaths,
    available: np.ndarray,
    length: int,
    target: float,
    counts: Counter[str],
    total_chunks: int,
    rng: random.Random,
    entity_to_chunks: Mapping[str, Sequence[str]],
    subset_index: int,
) -> SubsetAllocation:
    """One subset from the paths flagged in ``available``, which loses the retained ones.

    ``counts`` carries across subsets; the chunks the subset covers start empty.
    """
    covered: set[str] = set()

    def coverage() -> float:
        return len(covered) / total_chunks if total_chunks else 0.0

    trace = BalanceTrace()
    picked: list[int] = []
    cc_pairs: list[CCPair] = []

    utilization = ranked.utilization(counts)
    utilization[~available] = _TAKEN
    for _ in range(int(available.sum())):
        # argmin takes the first of equal values: the lowest rank.
        pos = int(utilization.argmin())
        candidate = ranked.paths[pos]
        utilization[pos] = _TAKEN
        ranked.raise_sharing(utilization, candidate)
        picked.append(pos)
        trace.selection_order.append(candidate.path_id)
        for entity, chunk in candidate.steps:
            counts[entity] += 1
            covered.add(chunk)
        if coverage() >= target:
            break
        if len(picked) >= length:
            if length < 2:
                raise ConfigurationError(
                    "balance.standard_length must be >= 2 when the CC branch triggers"
                )
            delta_r = (target - coverage()) / target
            # The sparse-entity ranking snapshot precedes the cut reversal.
            ranking = sorted(entity_to_chunks, key=lambda e: (counts[e], e))
            k = math.floor(delta_r * length)
            cut = math.floor((1.0 - delta_r) * length)
            # cut == 0 would return every selected path and stall the outer
            # loop; keep at least one.
            cut = max(cut, 1)
            returned = [ranked.paths[i] for i in picked[cut:]]
            del picked[cut:]
            for p in returned:
                counts.subtract(p.entities())
            covered = {c for i in picked for c in ranked.paths[i].chunks()}
            trace.returned = [p.path_id for p in returned]
            trace.delta_r = delta_r
            trace.k = k
            trace.cut = cut
            trace.sparse_entities = ranking[:k]

            shuffled = list(trace.sparse_entities)
            rng.shuffle(shuffled)
            for i in range(0, len(shuffled) - 1, 2):
                ex, ey = shuffled[i], shuffled[i + 1]
                cx = rng.choice(list(entity_to_chunks[ex]))
                cy = rng.choice(list(entity_to_chunks[ey]))
                cc_pairs.append(
                    CCPair(
                        pair_id=f"cc-{subset_index}-{len(cc_pairs)}",
                        left=(ex, cx),
                        right=(ey, cy),
                    )
                )
                counts.update((ex, ey))
                covered.update((cx, cy))
            break

    available[picked] = False
    return SubsetAllocation(
        subset_index=subset_index,
        cot_paths=[ranked.paths[i] for i in picked],
        cc_pairs=cc_pairs,
        achieved_coverage=coverage(),
        trace=trace,
    )


def secondary_sampling(
    path_set: PathSet | Sequence[Path],
    cfg: BalanceConfig,
    *,
    entity_to_chunks: Mapping[str, Sequence[str]],
    total_chunks: int,
    seed: int = 0,
    stats: dict[str, int] | None = None,
) -> list[SubsetAllocation]:
    """Partition the whole path set into subsets, carrying entity use counts across them.

    A path's rank, which breaks utilization ties, is its position in
    ``path_set``; a path without an id is given ``p`` and its six-digit
    position. The CC draws use ``random.Random(seed)``. A given ``stats`` gets
    the counts of picks, picks returned, cut subsets and dense raises.
    """
    paths = list(path_set.paths if isinstance(path_set, PathSet) else path_set)
    if not paths:
        raise ValueError("path set is empty")
    for i, p in enumerate(paths):
        if p.path_id is None:
            p.path_id = f"p{i:06d}"
    repeated = [pid for pid, n in Counter(p.path_id for p in paths).items() if n > 1]
    if repeated:
        raise ValueError(f"duplicate path_id '{repeated[0]}'")
    hop = max(p.hop_count for p in paths)
    length = resolve_standard_length(cfg, total_chunks, hop)
    if total_chunks < 0:
        raise ValueError("total_chunks must be >= 0")
    rng = random.Random(seed)
    counts: Counter[str] = Counter()

    ranked = _RankedPaths(paths)
    n, retained = len(paths), 0
    available = np.ones(n, dtype=bool)
    subsets: list[SubsetAllocation] = []
    while retained < n:
        try:
            subsets.append(_build_subset(
                ranked, available, length, cfg.target_coverage, counts, total_chunks,
                rng, entity_to_chunks, len(subsets),
            ))
        except ConfigurationError as e:
            if cfg.standard_length != "auto":
                raise
            raise ConfigurationError(
                f"{e}; 'auto' resolved it to {length} from {total_chunks} chunks at hop {hop}"
            ) from None
        before, retained = retained, retained + len(subsets[-1].cot_paths)
        if retained * 10 // n > before * 10 // n:  # at each tenth of the paths
            log.info("balance: %d/%d paths retained, %d subsets", retained, n, len(subsets))
    if stats is not None:
        stats["picks"] = sum(len(s.trace.selection_order) for s in subsets)
        stats["returned"] = sum(len(s.trace.returned) for s in subsets)
        stats["cut_subsets"] = sum(s.trace.cut is not None for s in subsets)
        stats["dense_entities"] = sum(type(at) is slice for at, _ in ranked.raises.values())
    return subsets


def save_subsets(path, subsets: Iterable[SubsetAllocation]) -> int:
    return write_jsonl(
        path,
        (
            {
                "subset_index": s.subset_index,
                "cot_path_ids": [p.path_id for p in s.cot_paths],
                "cc_pairs": [
                    {"pair_id": pair.pair_id, "left": list(pair.left), "right": list(pair.right)}
                    for pair in s.cc_pairs
                ],
                "achieved_coverage": s.achieved_coverage,
            }
            for s in subsets
        ),
    )


def load_subsets(path, path_set: PathSet) -> list[SubsetAllocation]:
    by_id = {p.path_id: p for p in path_set.paths}

    def cc_pair(item) -> CCPair:
        if type(item) is not dict or not item.keys() >= {"pair_id", "left", "right"}:
            raise ValueError("a cc_pairs item is not an object with pair_id, left and right")
        return CCPair(checked(item, "pair_id"), as_step(item["left"]), as_step(item["right"]))

    def build(rec: dict) -> SubsetAllocation:
        subset_index, coverage = checked(rec, "subset_index", int), rec["achieved_coverage"]
        if type(coverage) not in (int, float) or not 0 <= coverage <= 1:
            raise ValueError(f"achieved_coverage {coverage!r} is not a number in [0, 1]")
        path_ids = checked(rec, "cot_path_ids", "path ids")
        unknown = [pid for pid in path_ids if pid not in by_id]
        if unknown:
            raise IntegrityError(
                f"subset {subset_index} references unknown path id '{unknown[0]}'"
            )
        return SubsetAllocation(
            subset_index=subset_index,
            cot_paths=[by_id[pid] for pid in path_ids],
            cc_pairs=[cc_pair(p) for p in rec["cc_pairs"]],
            achieved_coverage=float(coverage),
        )

    keys = ("subset_index", "cot_path_ids", "cc_pairs", "achieved_coverage")
    return list(iter_jsonl(path, *keys, build=build))
