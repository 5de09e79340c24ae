"""Independent reference implementations the optimized code is checked against.

Everything here works on plain dicts/lists/tuples, derives its state
functionally instead of incrementally, and never imports the modules it
verifies. Written before the implementations they pin down.
"""

from __future__ import annotations

import math
import random
from collections import Counter


# --- co-occurrence graph ------------------------------------------------------


def brute_force_graph(chunk_entities: dict[str, set[str]], all_entities: set[str]):
    """O(chunks x entities^2) pairwise construction.

    Returns (nodes, {edge: sorted witness chunks}) with edges as sorted
    2-tuples.
    """
    entities = sorted(all_entities)
    edges: dict[tuple[str, str], list[str]] = {}
    for i, x in enumerate(entities):
        for y in entities[i + 1 :]:
            witnesses = sorted(
                c for c, ents in chunk_entities.items() if x in ents and y in ents
            )
            if witnesses:
                edges[(x, y)] = witnesses
    return set(entities), edges


# --- traversal ----------------------------------------------------------------


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def enumerate_paths(
    chunk_entities: dict[str, set[str]],
    entity_chunks: dict[str, list[str]],
    chunk_vectors: dict[str, tuple[float, ...]],
    root: str,
    start_chunk: str,
    *,
    depth: int,
    width: int,
    hop_policy: str = "two_hop",
    chunk_doc: dict[str, str] | None = None,
    same_document_only: bool = False,
) -> list[tuple[tuple[str, str], ...]]:
    """All beam-retained paths from (root, start), enumerated exhaustively.

    Candidates are found by scanning every (entity, chunk) pair in the
    corpus and filtering on co-occurrence with the current entity, no
    entity or chunk repetition, and the optional same-document rule; the
    top `width` by (score desc, entity, chunk) extend each prefix.
    """

    def co_occur(x: str, y: str) -> bool:
        return any(x in ents and y in ents and x != y for ents in chunk_entities.values())

    if hop_policy == "one_hop":
        max_depth = 1
    elif hop_policy == "two_hop":
        max_depth = 2
    else:
        max_depth = depth
    root_vec = chunk_vectors[start_chunk]
    root_doc = chunk_doc[start_chunk] if chunk_doc else None

    emitted: list[tuple[tuple[str, str], ...]] = []
    prefixes: list[tuple[tuple[str, str], ...]] = [((root, start_chunk),)]
    for level in range(1, max_depth + 1):
        next_prefixes = []
        for prefix in prefixes:
            used_entities = {e for e, _ in prefix}
            used_chunks = {c for _, c in prefix}
            last_entity = prefix[-1][0]
            pool = []
            for entity in sorted(entity_chunks):
                if entity in used_entities or not co_occur(last_entity, entity):
                    continue
                for chunk in entity_chunks[entity]:
                    if chunk in used_chunks:
                        continue
                    if same_document_only and chunk_doc and chunk_doc[chunk] != root_doc:
                        continue
                    pool.append((entity, chunk, _dot(root_vec, chunk_vectors[chunk])))
            pool.sort(key=lambda t: (-t[2], t[0], t[1]))
            kept = pool[:width]
            if not kept:
                if len(prefix) > 1:
                    emitted.append(prefix)
                continue
            if hop_policy == "mixed" and len(prefix) > 1:
                emitted.append(prefix)
            for entity, chunk, _ in kept:
                next_prefixes.append(prefix + ((entity, chunk),))
        prefixes = next_prefixes
    emitted.extend(p for p in prefixes if len(p) > 1)
    return sorted(emitted)


# --- secondary sampling (direct transcription) ----------------------------------


def _recount(retained_paths, cc_pairs) -> Counter:
    counts: Counter = Counter()
    for _, steps in retained_paths:
        for entity, _ in steps:
            counts[entity] += 1
    for (ex, _), (ey, _) in cc_pairs:
        counts[ex] += 1
        counts[ey] += 1
    return counts


def _subset_coverage(subset_paths, subset_cc, total_chunks) -> float:
    covered = set()
    for _, steps in subset_paths:
        covered.update(c for _, c in steps)
    for (_, cx), (_, cy) in subset_cc:
        covered.add(cx)
        covered.add(cy)
    if total_chunks == 0:
        return 0.0
    return len(covered) / total_chunks


def secondary_sampling_oracle(
    paths: list[tuple[str, list[tuple[str, str]]]],
    entity_to_chunks: dict[str, list[str]],
    total_chunks: int,
    r: float,
    l: int,
    seed: int,
) -> dict:
    """Naive sort-and-pop run of the secondary sampling procedure.

    `paths` are (path_id, [(entity, chunk), ...]) tuples in original order.
    Counts and coverage are recomputed from the retained sets at every step
    rather than maintained incrementally. Returns a full transcript.
    """
    rng = random.Random(seed)
    index = {pid: i for i, (pid, _) in enumerate(paths)}
    remaining = list(paths)
    done_paths: list[tuple[str, list[tuple[str, str]]]] = []  # across subsets
    done_cc: list = []
    transcript: dict = {"subsets": []}

    while remaining:
        subset_cot: list[tuple[str, list[tuple[str, str]]]] = []
        subset_cc: list = []
        entry: dict = {
            "selection_order": [],
            "returned": [],
            "delta_r": None,
            "k": None,
            "cut": None,
            "sparse": [],
            "cc": [],
        }
        while remaining:
            counts = _recount(done_paths + subset_cot, done_cc)
            remaining.sort(
                key=lambda item: (
                    sum(counts[e] for e, _ in item[1]),
                    index[item[0]],
                ),
                reverse=True,
            )
            picked = remaining.pop()
            subset_cot.append(picked)
            entry["selection_order"].append(picked[0])
            coverage = _subset_coverage(subset_cot, subset_cc, total_chunks)
            if coverage >= r:
                break
            if len(subset_cot) >= l:
                if l < 2:
                    raise ValueError("standard length below 2 at CC trigger")
                delta_r = (r - coverage) / r
                counts = _recount(done_paths + subset_cot, done_cc)
                ranking = sorted(entity_to_chunks, key=lambda e: (counts[e], e))
                k = math.floor(delta_r * l)
                cut = max(math.floor((1.0 - delta_r) * l), 1)
                returned = subset_cot[cut:]
                subset_cot = subset_cot[:cut]
                remaining.extend(returned)
                entry["returned"] = [pid for pid, _ in returned]
                entry["delta_r"] = delta_r
                entry["k"] = k
                entry["cut"] = cut
                sparse = ranking[:k]
                entry["sparse"] = list(sparse)
                shuffled = list(sparse)
                rng.shuffle(shuffled)
                for i in range(0, len(shuffled) - 1, 2):
                    ex, ey = shuffled[i], shuffled[i + 1]
                    cx = rng.choice(list(entity_to_chunks[ex]))
                    cy = rng.choice(list(entity_to_chunks[ey]))
                    subset_cc.append(((ex, cx), (ey, cy)))
                entry["cc"] = list(subset_cc)
                break
        entry["cot"] = [pid for pid, _ in subset_cot]
        entry["coverage"] = _subset_coverage(subset_cot, subset_cc, total_chunks)
        entry["remaining_after"] = sorted(pid for pid, _ in remaining)
        transcript["subsets"].append(entry)
        done_paths.extend(subset_cot)
        done_cc.extend(subset_cc)

    transcript["final_counts"] = {
        e: n for e, n in sorted(_recount(done_paths, done_cc).items()) if n
    }
    return transcript


# --- distribution statistics ----------------------------------------------------


def gini_mean_difference(values) -> float:
    """Gini via the mean-absolute-difference definition."""
    n = len(values)
    total = sum(values)
    if n == 0 or total == 0:
        return 0.0
    mad = sum(abs(a - b) for a in values for b in values)
    mean = total / n
    return mad / (2 * n * n * mean)


# --- generation prompts -------------------------------------------------------


def render_prompt(template: str, fragments) -> tuple[str, int]:
    """The prompt for ``fragments``, (entity name, chunk text, document title
    or None) triples in order, by one ``str.format`` of the whole template,
    and its whitespace-token count by splitting the finished prompt."""
    blocks = []
    for i, (name, text, title) in enumerate(fragments, start=1):
        article = f" (article: {title})" if title else ""
        blocks.append(f"Fragment {i} — entity: {name}{article}\n{text}")
    prompt = template.format(fragments="\n\n".join(blocks))
    return prompt, len(prompt.split())
