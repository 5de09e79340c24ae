"""Graph-guided synthetic corpus generation.

Builds an entity co-occurrence context graph over a chunked document
corpus, samples cross-document knowledge paths with coverage-balanced
secondary sampling, and assembles chained-narrative and contrastive
generation requests that produce a synthetic continued-pretraining corpus.
"""

__version__ = "0.1.0"

from .balance import (
    BalanceConfig,
    CCPair,
    SubsetAllocation,
    secondary_sampling,
)
from .corpus import Chunk, ChunkingConfig, ChunkStore, Document, chunk_document, ingest_corpus
from .embedding import EmbeddingCache, HashEmbeddingBackend, embed_text, similarity
from .extraction import (
    EntityRecord,
    ExtractionReport,
    build_entity_map,
    normalize_mention,
)
from .graph import ContextGraph, build_graph, graph_stats
from .traversal import Path, PathSet, TraversalConfig, sample_paths
from .synthesis import generate, write_synthetic_corpus
from .analysis import DistributionReport, compare_reports, entity_distribution

__all__ = [
    "BalanceConfig",
    "CCPair",
    "Chunk",
    "ChunkStore",
    "ChunkingConfig",
    "ContextGraph",
    "DistributionReport",
    "Document",
    "EmbeddingCache",
    "EntityRecord",
    "ExtractionReport",
    "HashEmbeddingBackend",
    "Path",
    "PathSet",
    "SubsetAllocation",
    "TraversalConfig",
    "build_entity_map",
    "build_graph",
    "chunk_document",
    "compare_reports",
    "embed_text",
    "entity_distribution",
    "generate",
    "graph_stats",
    "ingest_corpus",
    "normalize_mention",
    "sample_paths",
    "secondary_sampling",
    "similarity",
    "write_synthetic_corpus",
]
