"""Entity-frequency distribution measurement for raw vs synthetic corpora.

Reports dispersion statistics (gini, coefficient of variation, top-decile
share) and entity coverage so the long-tail effect of balanced sampling is
assertable rather than eyeballed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .balance import SubsetAllocation
from .errors import IntegrityError
from .extraction import EntityRecord
from .jsonl import atomic_write
from .synthesis import SynthRecord

DEFAULT_BUCKETS = 10


def gini(counts: Sequence[float]) -> float:
    """Standard sorted cumulative-share formula; 0 for empty or all-zero."""
    values = sorted(counts)
    n = len(values)
    total = sum(values)
    if n == 0 or total == 0:
        return 0.0
    weighted = sum((2 * (i + 1) - n - 1) * v for i, v in enumerate(values))
    return weighted / (n * total)


def coefficient_of_variation(counts: Sequence[float]) -> float:
    if not counts:
        return 0.0
    mean = sum(counts) / len(counts)
    if mean == 0:
        return 0.0
    variance = sum((v - mean) ** 2 for v in counts) / len(counts)
    return math.sqrt(variance) / mean


def top_decile_share(counts: Sequence[float]) -> float:
    if not counts:
        return 0.0
    total = sum(counts)
    if total == 0:
        return 0.0
    k = max(1, math.ceil(0.1 * len(counts)))
    top = sorted(counts, reverse=True)[:k]
    return sum(top) / total


@dataclass
class DistributionReport:
    counts: dict[str, int]
    histogram: list[int]
    bucket_edges: list[float]
    gini: float
    coefficient_of_variation: float
    coverage: float
    top_decile_share: float

    @property
    def total_occurrences(self) -> int:
        return sum(self.counts.values())


def build_report(counts: Mapping[str, int], buckets: int = DEFAULT_BUCKETS) -> DistributionReport:
    values = list(counts.values())
    if values:
        upper = max(max(values), 1)
        hist, edges = np.histogram(values, bins=buckets, range=(0, upper))
        histogram = [int(x) for x in hist]
        bucket_edges = [float(x) for x in edges]
    else:
        histogram = [0] * buckets
        bucket_edges = [float(i) for i in range(buckets + 1)]
    covered = sum(1 for v in values if v >= 1)
    return DistributionReport(
        counts=dict(counts),
        histogram=histogram,
        bucket_edges=bucket_edges,
        gini=gini(values),
        coefficient_of_variation=coefficient_of_variation(values),
        coverage=covered / len(values) if values else 0.0,
        top_decile_share=top_decile_share(values),
    )


def counts_from_chunks(entity_map: Iterable[EntityRecord]) -> dict[str, int]:
    """Raw mode: chunk-membership occurrences per entity."""
    return {rec.entity_id: len(rec.chunk_ids) for rec in entity_map}


def counts_from_subsets(
    subsets: Iterable[SubsetAllocation],
    entity_map: Iterable[EntityRecord],
    include_cc: bool = True,
) -> dict[str, int]:
    """Manifest mode: path/pair memberships per entity (zeros kept)."""
    counts = {rec.entity_id: 0 for rec in entity_map}
    for subset in subsets:
        for p in subset.cot_paths:
            for entity_id in p.entities():
                counts[entity_id] = counts.get(entity_id, 0) + 1
        if include_cc:
            for pair in subset.cc_pairs:
                for entity_id, _ in pair.steps():
                    counts[entity_id] = counts.get(entity_id, 0) + 1
    return counts


def counts_from_synth(
    records: Iterable[SynthRecord],
    subsets: Iterable[SubsetAllocation],
    entity_map: Iterable[EntityRecord],
) -> dict[str, int]:
    """Synthetic mode: provenance-resolved fragment usage of accepted records."""
    path_entities: dict[str, list[str]] = {}
    pair_entities: dict[str, list[str]] = {}
    for subset in subsets:
        for p in subset.cot_paths:
            path_entities[p.path_id] = p.entities()
        for pair in subset.cc_pairs:
            pair_entities[pair.pair_id] = [e for e, _ in pair.steps()]

    counts = {rec.entity_id: 0 for rec in entity_map}
    unknown: list[str] = []
    for rec in records:
        if rec.status != "ok":
            continue
        source = path_entities.get(rec.source_id) or pair_entities.get(rec.source_id)
        if source is None:
            unknown.append(rec.source_id)
            continue
        for entity_id in source:
            counts[entity_id] = counts.get(entity_id, 0) + 1
    if unknown:
        raise IntegrityError(f"unknown source ids: {sorted(set(unknown))}")
    return counts


def entity_distribution(
    mode: str,
    entity_map: Sequence[EntityRecord],
    *,
    subsets: Sequence[SubsetAllocation] | None = None,
    records: Sequence[SynthRecord] | None = None,
    include_cc: bool = True,
    buckets: int = DEFAULT_BUCKETS,
) -> DistributionReport:
    if mode == "raw":
        counts = counts_from_chunks(entity_map)
    elif mode == "subsets":
        if subsets is None:
            raise ValueError("subset mode needs subsets")
        counts = counts_from_subsets(subsets, entity_map, include_cc=include_cc)
    elif mode == "synth":
        if subsets is None or records is None:
            raise ValueError("synth mode needs subsets and records")
        counts = counts_from_synth(records, subsets, entity_map)
    else:
        raise ValueError(f"unknown distribution mode '{mode}'")
    return build_report(counts, buckets=buckets)


@dataclass(frozen=True)
class ComparisonSummary:
    gini_delta: float
    cv_delta: float
    coverage_delta: float
    top_decile_delta: float


def compare_reports(a: DistributionReport, b: DistributionReport) -> ComparisonSummary:
    """Exact b - a deltas; both reports must share one entity universe."""
    if set(a.counts) != set(b.counts):
        raise ValueError("reports cover different entity universes")
    return ComparisonSummary(
        gini_delta=b.gini - a.gini,
        cv_delta=b.coefficient_of_variation - a.coefficient_of_variation,
        coverage_delta=b.coverage - a.coverage,
        top_decile_delta=b.top_decile_share - a.top_decile_share,
    )


def emit_report_csv(report: DistributionReport, path) -> None:
    with atomic_write(path, newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["entity_id", "count"])
        for entity_id in sorted(report.counts):
            writer.writerow([entity_id, report.counts[entity_id]])


def emit_histogram_svg(report: DistributionReport, path, width: int = 640, height: int = 360) -> None:
    """Standalone SVG bar chart; one <rect class="bar"> per bucket."""
    margin = 40
    buckets = len(report.histogram)
    peak = max(report.histogram) or 1
    bar_span = (width - 2 * margin) / buckets
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
    ]
    for i, value in enumerate(report.histogram):
        bar_h = (height - 2 * margin) * value / peak
        x = margin + i * bar_span
        y = height - margin - bar_h
        lines.append(
            f'<rect class="bar" x="{x:.2f}" y="{y:.2f}" width="{bar_span * 0.9:.2f}" '
            f'height="{bar_h:.2f}" fill="#4477aa"/>'
        )
        lo, hi = report.bucket_edges[i], report.bucket_edges[i + 1]
        lines.append(
            f'<text x="{x + bar_span * 0.45:.2f}" y="{height - margin + 14}" '
            f'font-size="9" text-anchor="middle">{lo:.0f}-{hi:.0f}</text>'
        )
    lines.append("</svg>")
    with atomic_write(path) as f:
        f.write("\n".join(lines) + "\n")
