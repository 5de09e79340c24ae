"""Pipeline entry point: config validation, staged execution, run manifests.

Stages run as ingest -> extract -> graph -> sample -> balance -> generate
-> analyze. Each stage persists its artifacts and is skipped when its own
outputs already exist, so a deleted downstream artifact is reproduced
byte-identically on resume. Within one run, a stage hands what it wrote on
to later stages in memory; an artifact that no stage of the run wrote is
parsed once, on first use, and every artifact is hashed once.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import logging
import os
import random
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import yaml

from . import analysis as analysis_mod
from . import balance as balance_mod
from . import corpus as corpus_mod
from . import embedding as embedding_mod
from . import extraction as extraction_mod
from . import graph as graph_mod
from . import synthesis as synthesis_mod
from . import traversal as traversal_mod
from .errors import ConfigurationError, GraphSynthError
from .jsonl import sha256_file, write_json

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3

# One-hop sampling until accumulated synthetic volume exceeds this multiple
# of the raw corpus size (measured in characters), two-hop beyond.
HOP_SCHEDULE_MULTIPLE = 4.5


class StageError(GraphSynthError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class ChunkingConfig:
    policy: str = "fixed"
    max_chars: int = corpus_mod.DEFAULT_MAX_CHARS
    breakpoint_percentile: float = corpus_mod.DEFAULT_BREAKPOINT_PERCENTILE

    def validate(self) -> list[str]:
        problems = []
        if self.policy not in ("fixed", "semantic"):
            problems.append("chunking.policy must be 'fixed' or 'semantic'")
        if self.max_chars < 1:
            problems.append("chunking.max_chars must be >= 1")
        if not (0.0 <= self.breakpoint_percentile <= 100.0):
            problems.append("chunking.breakpoint_percentile must be in [0, 100]")
        return problems


@dataclass
class ExtractionConfig:
    backend: str = "rule"
    aliases: str | None = None

    def validate(self) -> list[str]:
        if self.backend not in ("rule", "llm"):
            return ["extraction.backend must be 'rule' or 'llm'"]
        return []


@dataclass
class EmbeddingConfig:
    backend: str = "hash"
    dim: int = embedding_mod.DEFAULT_HASH_DIM
    endpoint: str | None = None
    model: str | None = None

    def validate(self) -> list[str]:
        problems = []
        if self.backend not in ("hash", "remote"):
            problems.append("embedding.backend must be 'hash' or 'remote'")
        if self.dim < 1:
            problems.append("embedding.dim must be >= 1")
        return problems


@dataclass
class TraversalSettings:
    max_start_paragraphs: int = 3
    depth: int = 2
    beam_width: int = 2
    hop_policy: str = "auto"
    mixed_ratio: float = 0.5
    same_document_only: bool = False

    def validate(self) -> list[str]:
        resolved = "one_hop" if self.hop_policy == "auto" else self.hop_policy
        cfg = traversal_mod.TraversalConfig(
            max_start_paragraphs=self.max_start_paragraphs,
            depth=self.depth,
            beam_width=self.beam_width,
            hop_policy=resolved,
            mixed_ratio=self.mixed_ratio,
            same_document_only=self.same_document_only,
        )
        problems = [f"traversal.{p}" for p in cfg.validate()]
        if self.hop_policy == "auto" and self.depth < 2:
            # the schedule may resolve to two_hop, which needs depth >= 2
            problems.append("traversal.depth must be >= 2 for the auto hop schedule")
        return problems


@dataclass
class GenerationConfig:
    backend: str = "mock"
    temperature: float = synthesis_mod.DEFAULT_TEMPERATURE
    max_tokens: int = synthesis_mod.DEFAULT_MAX_TOKENS
    max_retries: int = 2
    concurrency: int = 1
    endpoint: str | None = None
    model: str | None = None

    def validate(self) -> list[str]:
        problems = []
        if self.backend not in ("mock", "remote"):
            problems.append("generation.backend must be 'mock' or 'remote'")
        if not (0.0 <= self.temperature <= 2.0):
            problems.append("generation.temperature must be in [0, 2]")
        if self.max_tokens < 1:
            problems.append("generation.max_tokens must be >= 1")
        if self.max_retries < 0:
            problems.append("generation.max_retries must be >= 0")
        if self.concurrency < 1:
            problems.append("generation.concurrency must be >= 1")
        return problems


@dataclass
class AnalysisConfig:
    buckets: int = analysis_mod.DEFAULT_BUCKETS

    def validate(self) -> list[str]:
        if self.buckets < 1:
            return ["analysis.buckets must be >= 1"]
        return []


@dataclass
class RunConfig:
    input: str = "corpus.jsonl"
    workdir: str = "out"
    seed: int = 0
    chunking: ChunkingConfig = field(default_factory=ChunkingConfig)
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)
    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)
    traversal: TraversalSettings = field(default_factory=TraversalSettings)
    balance: balance_mod.BalanceConfig = field(default_factory=balance_mod.BalanceConfig)
    generation: GenerationConfig = field(default_factory=GenerationConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)


_SECTION_TYPES = {
    "chunking": ChunkingConfig,
    "extraction": ExtractionConfig,
    "embedding": EmbeddingConfig,
    "traversal": TraversalSettings,
    "balance": balance_mod.BalanceConfig,
    "generation": GenerationConfig,
    "analysis": AnalysisConfig,
}


def _build_section(name: str, cls, data: dict):
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(f"unknown key(s) in '{name}': {sorted(unknown)}")
    return cls(**data)


def load_config(path: str | Path) -> RunConfig:
    """Parse the YAML config tree; unknown keys are rejected."""
    with open(path, "r", encoding="utf-8") as f:
        data = yaml.safe_load(f) or {}
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be a mapping")
    top_known = {"input", "workdir", "seed"} | set(_SECTION_TYPES)
    unknown = set(data) - top_known
    if unknown:
        raise ConfigurationError(f"unknown top-level key(s): {sorted(unknown)}")
    kwargs: dict = {}
    for key in ("input", "workdir", "seed"):
        if key in data:
            kwargs[key] = data[key]
    for name, cls in _SECTION_TYPES.items():
        section = data.get(name, {})
        if section is None:
            section = {}
        if not isinstance(section, dict):
            raise ConfigurationError(f"section '{name}' must be a mapping")
        kwargs[name] = _build_section(name, cls, section)
    return RunConfig(**kwargs)


def validate_config(config: RunConfig) -> list[str]:
    """Empty list iff every stage precondition holds."""
    problems: list[str] = []
    if not isinstance(config.seed, int):
        problems.append("seed must be an integer")
    problems += config.chunking.validate()
    problems += config.extraction.validate()
    problems += config.embedding.validate()
    problems += config.traversal.validate()
    problems += [f"balance.{p}" for p in config.balance.validate()]
    problems += config.generation.validate()
    problems += config.analysis.validate()
    return problems


def _config_digest(config: RunConfig) -> str:
    payload = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _remote_backend(cls, settings, section: str, env: str, **options):
    """``cls`` from the config section, with the ``{env}_*`` variables as fallback."""
    endpoint = settings.endpoint or os.environ.get(f"{env}_ENDPOINT")
    if not endpoint:
        raise ConfigurationError(
            f"the remote {section} backend needs {section}.endpoint or {env}_ENDPOINT"
        )
    return cls(
        endpoint=endpoint,
        model=settings.model or os.environ.get(f"{env}_MODEL", ""),
        api_key=os.environ.get(f"{env}_API_KEY"),
        **options,
    )


@contextlib.contextmanager
def embedding_backend(settings: EmbeddingConfig):
    """The configured embedding backend; a remote one is closed when the block ends."""
    if settings.backend == "hash":
        yield embedding_mod.HashEmbeddingBackend(dim=settings.dim)
        return
    remote = _remote_backend(
        embedding_mod.RemoteEmbeddingBackend, settings, "embedding", "GRAPHSYNTH_EMBED"
    )
    with contextlib.closing(remote):
        yield remote


@contextlib.contextmanager
def chat_backend(settings: GenerationConfig):
    """The configured chat backend; a remote one is closed when the block ends."""
    if settings.backend == "mock":
        yield synthesis_mod.MockLlmBackend()
        return
    remote = _remote_backend(
        synthesis_mod.RemoteChatBackend, settings, "generation", "GRAPHSYNTH_LLM",
        connections=settings.concurrency,
    )
    with contextlib.closing(remote):
        yield remote


def _synthetic_char_volume(records) -> int:
    total = 0
    for rec in records:
        if rec.status != "ok":
            continue
        total += len(rec.narrative)
        for item in rec.qa or []:
            total += len(item.get("question", "")) + len(item.get("answer", ""))
        total += len(rec.comparison or "")
    return total


def _resolve_hop_policy(
    config: RunConfig, workdir: Path, chunk_store, force: bool, artifacts: _Artifacts
) -> str:
    """Volume schedule: one-hop until accumulated synthetic characters pass
    HOP_SCHEDULE_MULTIPLE x the raw corpus characters, two-hop beyond.

    The decision is snapshotted to hop_decision.json so rebuilding the sample
    stage alone cannot be influenced by downstream artifacts.
    """
    decision_path = workdir / "hop_decision.json"
    if config.traversal.hop_policy != "auto":
        policy = config.traversal.hop_policy
        accumulated = raw_chars = None
    elif decision_path.exists() and not force:
        return json.loads(decision_path.read_text(encoding="utf-8"))["hop_policy"]
    else:
        raw_chars = sum(len(c.text) for c in chunk_store.chunks())
        synth_path = workdir / "synth.jsonl"
        accumulated = 0
        if synth_path.exists():
            records = artifacts.get(synth_path, synthesis_mod.load_synthetic_corpus)
            accumulated = _synthetic_char_volume(records)
        policy = "one_hop" if accumulated <= HOP_SCHEDULE_MULTIPLE * raw_chars else "two_hop"
    write_json(
        decision_path,
        {
            "hop_policy": policy,
            "accumulated_chars": accumulated,
            "raw_chars": raw_chars,
            "schedule_multiple": HOP_SCHEDULE_MULTIPLE,
        },
    )
    return policy


class _Artifacts:
    """One run's artifacts: per path, its parsed value and its sha256.

    The stage that writes an artifact hands its value on with ``put``; one
    that no stage of the run wrote is parsed by ``get`` on first use. Both
    are dropped when a stage that lists the path as an output runs, so a
    value read before a rewrite (the auto hop schedule reads the previous
    run's ``synth.jsonl``) is never handed on after it.
    """

    def __init__(self):
        self._values: dict[Path, object] = {}
        self._digests: dict[Path, str] = {}

    def get(self, path: Path, load):
        if path not in self._values:
            self._values[path] = load(path)
        return self._values[path]

    def put(self, path: Path, value) -> None:
        self._values[path] = value

    def digest(self, path: Path) -> str:
        if path not in self._digests:
            self._digests[path] = sha256_file(path)
        return self._digests[path]

    def forget(self, paths: list[Path]) -> None:
        for p in paths:
            self._values.pop(p, None)
            self._digests.pop(p, None)


class _StageRunner:
    def __init__(self, artifacts: _Artifacts, force: bool):
        self.artifacts = artifacts
        self.force = force
        self.entries: list[dict] = []

    def run(self, name: str, inputs: list[Path], outputs: list[Path], fn) -> None:
        start = time.perf_counter()
        skipped = all(p.exists() for p in outputs) and not self.force and outputs
        counts: dict = {}
        if skipped:
            log.info("stage %s: outputs exist, skipping", name)
        else:
            for p in inputs:
                if not p.exists():
                    raise StageError(name, FileNotFoundError(f"missing input {p}"))
            self.artifacts.forget(outputs)
            try:
                counts = fn() or {}
            except (StageError, ConfigurationError):
                raise
            except Exception as e:
                raise StageError(name, e) from e
        self.entries.append(
            {
                "name": name,
                "inputs": {str(p): self.artifacts.digest(p) for p in inputs if p.exists()},
                "outputs": {str(p): self.artifacts.digest(p) for p in outputs if p.exists()},
                "seconds": round(time.perf_counter() - start, 4),
                "counts": counts,
                "skipped": bool(skipped),
            }
        )


def run_pipeline(config: RunConfig, force: bool = False) -> dict:
    """Execute all stages; returns the run manifest (also written to disk)."""
    problems = validate_config(config)
    if problems:
        raise ConfigurationError("; ".join(problems))
    workdir = Path(config.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    input_path = Path(config.input)
    chunks_path = workdir / "chunks.jsonl"
    entities_path = workdir / "entities.jsonl"
    graph_path = workdir / "graph.jsonl"
    paths_path = workdir / "paths.jsonl"
    cache_path = workdir / "embeddings.json"
    subsets_path = workdir / "subsets.jsonl"
    synth_path = workdir / "synth.jsonl"
    synth_manifest_path = workdir / "synth_manifest.json"
    analysis_outputs = [
        workdir / "report_raw.csv",
        workdir / "report_subsets.csv",
        workdir / "report_synth.csv",
        workdir / "hist_raw.svg",
        workdir / "hist_subsets.svg",
        workdir / "comparison.json",
    ]

    artifacts = _Artifacts()
    runner = _StageRunner(artifacts, force)

    # Each loader is looked up as a module attribute at call time, so a wrapper
    # installed there (the benchmark's tracer) sees the call.
    def chunk_store():
        return artifacts.get(chunks_path, corpus_mod.load_chunks)

    def entity_map():
        return artifacts.get(entities_path, extraction_mod.load_entity_map)

    def path_set():
        return artifacts.get(paths_path, traversal_mod.load_paths)

    def subsets():
        return artifacts.get(subsets_path, lambda p: balance_mod.load_subsets(p, path_set()))

    def stage_ingest():
        with open(input_path, "r", encoding="utf-8") as f:
            docs = corpus_mod.ingest_corpus(f)
        chunks: list[corpus_mod.Chunk] = []
        titles: dict[str, str] = {}
        with contextlib.ExitStack() as stack:
            if config.chunking.policy == "fixed":
                policy: corpus_mod.ChunkPolicy = corpus_mod.FixedChunking(
                    max_chars=config.chunking.max_chars
                )
            else:
                backend = stack.enter_context(embedding_backend(config.embedding))
                cache = embedding_mod.EmbeddingCache()
                policy = corpus_mod.SemanticChunking(
                    embed=lambda text: embedding_mod.embed_text(text, backend, cache),
                    breakpoint_percentile=config.chunking.breakpoint_percentile,
                )
            for doc in docs:
                chunks.extend(corpus_mod.chunk_document(doc, policy))
                titles[doc.doc_id] = doc.title
        corpus_mod.save_chunks(chunks_path, chunks, titles)
        artifacts.put(chunks_path, corpus_mod.ChunkStore(chunks, titles))
        return {"documents": len(docs), "chunks": len(chunks)}

    def stage_extract():
        store = chunk_store()
        aliases = (
            extraction_mod.load_alias_table(config.extraction.aliases)
            if config.extraction.aliases
            else {}
        )
        with contextlib.ExitStack() as stack:
            if config.extraction.backend == "rule":
                extractor = extraction_mod.RuleBasedExtractor()
            else:
                # always remote: the mock chat backend writes narratives, not
                # entity lists; endpoint and model come from the generation section
                remote = replace(config.generation, backend="remote")
                extractor = extraction_mod.LlmEntityExtractor(
                    stack.enter_context(chat_backend(remote))
                )
            reports = [extractor.extract(c) for c in store.chunks()]
        entities = extraction_mod.build_entity_map(reports, aliases)
        extraction_mod.save_entity_map(entities_path, entities)
        artifacts.put(entities_path, entities)
        return {"entities": len(entities)}

    def stage_graph():
        g = graph_mod.build_graph(entity_map())
        graph_mod.save_graph(graph_path, g)
        artifacts.put(graph_path, g)
        return {"nodes": len(g.nodes), "edges": len(g.provenance)}

    def stage_sample():
        store = chunk_store()
        g = artifacts.get(graph_path, graph_mod.load_graph)
        hop_policy = _resolve_hop_policy(config, workdir, store, force, artifacts)
        cfg = traversal_mod.TraversalConfig(
            max_start_paragraphs=config.traversal.max_start_paragraphs,
            depth=config.traversal.depth,
            beam_width=config.traversal.beam_width,
            hop_policy=hop_policy,
            mixed_ratio=config.traversal.mixed_ratio,
            same_document_only=config.traversal.same_document_only,
            rng_seed=config.seed,
        )
        # entries are keyed by backend and text, so an earlier run's are reused
        cache = embedding_mod.EmbeddingCache(cache_path)
        with embedding_backend(config.embedding) as backend:
            paths = traversal_mod.sample_paths(g, entity_map(), store, cfg, backend, cache)
        traversal_mod.save_paths(paths_path, paths)
        artifacts.put(paths_path, paths)
        cache.save(cache_path)
        return {"paths": len(paths), "hop_policy": hop_policy}

    def stage_balance():
        cfg = balance_mod.BalanceConfig(
            target_coverage=config.balance.target_coverage,
            standard_length=config.balance.standard_length,
            rng_seed=config.seed,
        )
        allocations = balance_mod.secondary_sampling(
            path_set(),
            cfg,
            entity_to_chunks=extraction_mod.entity_chunk_index(entity_map()),
            total_chunks=len(chunk_store()),
            rng=random.Random(config.seed),
        )
        balance_mod.save_subsets(subsets_path, allocations)
        artifacts.put(subsets_path, allocations)
        return {
            "subsets": len(allocations),
            "cc_pairs": sum(len(s.cc_pairs) for s in allocations),
        }

    def stage_generate():
        requests = synthesis_mod.build_requests(
            subsets(),
            chunk_store(),
            extraction_mod.canonical_names(entity_map()),
            same_document=config.traversal.same_document_only,
            temperature=config.generation.temperature,
            max_tokens=config.generation.max_tokens,
        )
        with chat_backend(config.generation) as backend:
            records = synthesis_mod.generate(
                requests,
                backend,
                synthesis_mod.RetryPolicy(max_retries=config.generation.max_retries),
                concurrency=config.generation.concurrency,
            )
        manifest = synthesis_mod.write_synthetic_corpus(records, synth_path)
        artifacts.put(synth_path, records)
        write_json(synth_manifest_path, manifest, indent=2)
        return manifest

    def stage_analyze():
        entities = entity_map()
        allocations = subsets()
        records = artifacts.get(synth_path, synthesis_mod.load_synthetic_corpus)
        buckets = config.analysis.buckets
        raw = analysis_mod.entity_distribution("raw", entities, buckets=buckets)
        sub = analysis_mod.entity_distribution(
            "subsets", entities, subsets=allocations, buckets=buckets
        )
        syn = analysis_mod.entity_distribution(
            "synth", entities, subsets=allocations, records=records, buckets=buckets
        )
        analysis_mod.emit_report_csv(raw, analysis_outputs[0])
        analysis_mod.emit_report_csv(sub, analysis_outputs[1])
        analysis_mod.emit_report_csv(syn, analysis_outputs[2])
        analysis_mod.emit_histogram_svg(raw, analysis_outputs[3])
        analysis_mod.emit_histogram_svg(sub, analysis_outputs[4])
        delta = analysis_mod.compare_reports(raw, sub)
        write_json(
            analysis_outputs[5],
            {
                "raw_gini": raw.gini,
                "subsets_gini": sub.gini,
                "synth_gini": syn.gini,
                "gini_delta": delta.gini_delta,
                "cv_delta": delta.cv_delta,
                "coverage_delta": delta.coverage_delta,
                "top_decile_delta": delta.top_decile_delta,
            },
            indent=2,
        )
        return {
            "entities": len(entities),
            "raw_gini": round(raw.gini, 4),
            "subsets_gini": round(sub.gini, 4),
        }

    hop_decision_path = workdir / "hop_decision.json"
    runner.run("ingest", [input_path], [chunks_path], stage_ingest)
    runner.run("extract", [chunks_path], [entities_path], stage_extract)
    runner.run("graph", [entities_path], [graph_path], stage_graph)
    runner.run(
        "sample",
        [chunks_path, entities_path, graph_path],
        [paths_path, cache_path, hop_decision_path],
        stage_sample,
    )
    runner.run("balance", [chunks_path, entities_path, paths_path], [subsets_path], stage_balance)
    runner.run(
        "generate",
        [chunks_path, entities_path, paths_path, subsets_path],
        [synth_path, synth_manifest_path],
        stage_generate,
    )
    runner.run(
        "analyze",
        [entities_path, paths_path, subsets_path, synth_path],
        analysis_outputs,
        stage_analyze,
    )

    manifest = {"config_digest": _config_digest(config), "stages": runner.entries}
    write_json(workdir / "run_manifest.json", manifest, indent=2)
    return manifest


# --- argparse wiring ---------------------------------------------------------


def _add_embedding_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--embedding-backend", choices=["hash", "remote"], default="hash")
    p.add_argument("--dim", type=int, default=embedding_mod.DEFAULT_HASH_DIM)
    p.add_argument("--cache", default=None, help="embedding cache file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphsynth",
        description="Graph-guided synthetic corpus generation pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="split a JSONL corpus into chunks")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--chunk-policy", choices=["fixed", "semantic"], default="fixed")
    p.add_argument("--max-chars", type=int, default=corpus_mod.DEFAULT_MAX_CHARS)
    p.add_argument(
        "--breakpoint-percentile",
        type=float,
        default=corpus_mod.DEFAULT_BREAKPOINT_PERCENTILE,
    )
    _add_embedding_args(p)

    p = sub.add_parser("extract", help="extract entities and build the entity map")
    p.add_argument("--chunks", required=True)
    p.add_argument("--backend", choices=["rule", "llm"], default="rule")
    p.add_argument("--aliases", default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("graph", help="context graph operations")
    gsub = p.add_subparsers(dest="graph_command", required=True)
    gb = gsub.add_parser("build")
    gb.add_argument("--entities", required=True)
    gb.add_argument("--out", required=True)
    gs = gsub.add_parser("stats")
    gs.add_argument("--graph", required=True)

    p = sub.add_parser("sample", help="sample cross-document paths")
    p.add_argument("--graph", required=True)
    p.add_argument("--entities", required=True)
    p.add_argument("--chunks", required=True)
    p.add_argument("-S", "--max-start-paragraphs", type=int, default=3)
    p.add_argument("-D", "--depth", type=int, default=2)
    p.add_argument("-W", "--beam-width", type=int, default=2)
    p.add_argument("--hop-policy", choices=list(traversal_mod.HOP_POLICIES), default="one_hop")
    p.add_argument("--mixed-ratio", type=float, default=0.5)
    p.add_argument("--same-document-only", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_embedding_args(p)

    p = sub.add_parser("balance", help="secondary sampling into subsets")
    p.add_argument("--paths", required=True)
    p.add_argument("--entities", required=True)
    p.add_argument("--chunks", required=True)
    p.add_argument("-r", "--target-coverage", type=float, default=1.0)
    p.add_argument("-l", "--standard-length", default="auto")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("generate", help="run generation over the subsets")
    p.add_argument("--subsets", required=True)
    p.add_argument("--paths", required=True)
    p.add_argument("--chunks", required=True)
    p.add_argument("--entities", required=True)
    p.add_argument("--backend", choices=["mock", "remote"], default="mock")
    p.add_argument("--temperature", type=float, default=synthesis_mod.DEFAULT_TEMPERATURE)
    p.add_argument("--max-tokens", type=int, default=synthesis_mod.DEFAULT_MAX_TOKENS)
    p.add_argument("--retries", type=int, default=2)
    p.add_argument("--concurrency", type=int, default=1)
    p.add_argument("--same-document", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", default=None)

    p = sub.add_parser("analyze", help="entity distribution reports")
    p.add_argument("--source", choices=["raw", "subsets", "synth"], required=True)
    p.add_argument("--entities", required=True)
    p.add_argument("--subsets", default=None)
    p.add_argument("--paths", default=None)
    p.add_argument("--synth", default=None)
    p.add_argument("--buckets", type=int, default=analysis_mod.DEFAULT_BUCKETS)
    p.add_argument("--out", required=True)
    p.add_argument("--plot", default=None)

    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--workdir", default=None, help="override config workdir")
    p.add_argument("--force", action="store_true", help="rebuild existing artifacts")

    p = sub.add_parser("validate", help="validate a config file")
    p.add_argument("--config", required=True)

    return parser


def _make_cache(path: str | None) -> embedding_mod.EmbeddingCache:
    return embedding_mod.EmbeddingCache(path) if path else embedding_mod.EmbeddingCache()


def _embedding_settings(args) -> EmbeddingConfig:
    return EmbeddingConfig(backend=args.embedding_backend, dim=args.dim)


def _cmd_ingest(args) -> int:
    with open(args.input, "r", encoding="utf-8") as f:
        docs = corpus_mod.ingest_corpus(f)
    chunks: list[corpus_mod.Chunk] = []
    titles: dict[str, str] = {}
    with contextlib.ExitStack() as stack:
        if args.chunk_policy == "fixed":
            policy: corpus_mod.ChunkPolicy = corpus_mod.FixedChunking(max_chars=args.max_chars)
        else:
            backend = stack.enter_context(embedding_backend(_embedding_settings(args)))
            cache = _make_cache(args.cache)
            policy = corpus_mod.SemanticChunking(
                embed=lambda text: embedding_mod.embed_text(text, backend, cache),
                breakpoint_percentile=args.breakpoint_percentile,
            )
        for doc in docs:
            chunks.extend(corpus_mod.chunk_document(doc, policy))
            titles[doc.doc_id] = doc.title
    corpus_mod.save_chunks(args.out, chunks, titles)
    print(f"ingested {len(docs)} documents into {len(chunks)} chunks")
    return EXIT_OK


def _cmd_extract(args) -> int:
    store = corpus_mod.load_chunks(args.chunks)
    aliases = extraction_mod.load_alias_table(args.aliases) if args.aliases else {}
    with contextlib.ExitStack() as stack:
        if args.backend == "rule":
            extractor = extraction_mod.RuleBasedExtractor()
        else:
            extractor = extraction_mod.LlmEntityExtractor(
                stack.enter_context(chat_backend(GenerationConfig(backend="remote")))
            )
        reports = [extractor.extract(c) for c in store.chunks()]
    entity_map = extraction_mod.build_entity_map(reports, aliases)
    extraction_mod.save_entity_map(args.out, entity_map)
    print(f"extracted {len(entity_map)} entities from {len(store)} chunks")
    return EXIT_OK


def _cmd_graph(args) -> int:
    if args.graph_command == "build":
        entity_map = extraction_mod.load_entity_map(args.entities)
        g = graph_mod.build_graph(entity_map)
        graph_mod.save_graph(args.out, g)
        print(f"graph: {len(g.nodes)} nodes, {len(g.provenance)} edges")
        return EXIT_OK
    g = graph_mod.load_graph(args.graph)
    stats = graph_mod.graph_stats(g)
    print(json.dumps(asdict(stats), sort_keys=True, indent=2, default=str))
    return EXIT_OK


def _cmd_sample(args) -> int:
    store = corpus_mod.load_chunks(args.chunks)
    entity_map = extraction_mod.load_entity_map(args.entities)
    g = graph_mod.load_graph(args.graph)
    cfg = traversal_mod.TraversalConfig(
        max_start_paragraphs=args.max_start_paragraphs,
        depth=args.depth,
        beam_width=args.beam_width,
        hop_policy=args.hop_policy,
        mixed_ratio=args.mixed_ratio,
        same_document_only=args.same_document_only,
        rng_seed=args.seed,
    )
    problems = cfg.validate()
    if problems:
        raise ConfigurationError("; ".join(problems))
    cache = _make_cache(args.cache)
    with embedding_backend(_embedding_settings(args)) as backend:
        path_set = traversal_mod.sample_paths(g, entity_map, store, cfg, backend, cache)
    traversal_mod.save_paths(args.out, path_set)
    if args.cache:
        cache.save(args.cache)
    print(f"sampled {len(path_set)} paths")
    return EXIT_OK


def _cmd_balance(args) -> int:
    store = corpus_mod.load_chunks(args.chunks)
    entity_map = extraction_mod.load_entity_map(args.entities)
    path_set = traversal_mod.load_paths(args.paths)
    length = args.standard_length
    if length != "auto":
        length = int(length)
    cfg = balance_mod.BalanceConfig(
        target_coverage=args.target_coverage, standard_length=length, rng_seed=args.seed
    )
    problems = cfg.validate()
    if problems:
        raise ConfigurationError("; ".join(problems))
    subsets = balance_mod.secondary_sampling(
        path_set,
        cfg,
        entity_to_chunks=extraction_mod.entity_chunk_index(entity_map),
        total_chunks=len(store),
    )
    balance_mod.save_subsets(args.out, subsets)
    print(f"allocated {len(subsets)} subsets")
    return EXIT_OK


def _cmd_generate(args) -> int:
    store = corpus_mod.load_chunks(args.chunks)
    entity_map = extraction_mod.load_entity_map(args.entities)
    path_set = traversal_mod.load_paths(args.paths)
    subsets = balance_mod.load_subsets(args.subsets, path_set)
    requests = synthesis_mod.build_requests(
        subsets,
        store,
        extraction_mod.canonical_names(entity_map),
        same_document=args.same_document,
        temperature=args.temperature,
        max_tokens=args.max_tokens,
    )
    settings = GenerationConfig(backend=args.backend, concurrency=args.concurrency)
    with chat_backend(settings) as backend:
        records = synthesis_mod.generate(
            requests,
            backend,
            synthesis_mod.RetryPolicy(max_retries=args.retries),
            concurrency=settings.concurrency,
        )
    manifest = synthesis_mod.write_synthetic_corpus(records, args.out)
    if args.manifest:
        write_json(args.manifest, manifest, indent=2)
    print(json.dumps(manifest, sort_keys=True))
    return EXIT_OK


def _cmd_analyze(args) -> int:
    entity_map = extraction_mod.load_entity_map(args.entities)
    subsets = None
    records = None
    if args.source in ("subsets", "synth"):
        if not args.subsets or not args.paths:
            raise ConfigurationError(f"--source {args.source} needs --subsets and --paths")
        path_set = traversal_mod.load_paths(args.paths)
        subsets = balance_mod.load_subsets(args.subsets, path_set)
    if args.source == "synth":
        if not args.synth:
            raise ConfigurationError("--source synth needs --synth")
        records = synthesis_mod.load_synthetic_corpus(args.synth)
    report = analysis_mod.entity_distribution(
        args.source, entity_map, subsets=subsets, records=records, buckets=args.buckets
    )
    analysis_mod.emit_report_csv(report, args.out)
    if args.plot:
        analysis_mod.emit_histogram_svg(report, args.plot)
    print(
        f"gini={report.gini:.4f} cv={report.coefficient_of_variation:.4f} "
        f"coverage={report.coverage:.4f}"
    )
    return EXIT_OK


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.workdir:
        config.workdir = args.workdir
    problems = validate_config(config)
    if problems:
        for p in problems:
            print(f"config error: {p}", file=sys.stderr)
        return EXIT_CONFIG
    manifest = run_pipeline(config, force=args.force)
    for entry in manifest["stages"]:
        flag = "skipped" if entry["skipped"] else f"{entry['seconds']}s"
        print(f"stage {entry['name']}: {flag} {entry['counts']}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    problems = validate_config(config)
    if problems:
        for p in problems:
            print(f"config error: {p}", file=sys.stderr)
        return EXIT_CONFIG
    print("config ok")
    return EXIT_OK


_COMMANDS = {
    "ingest": _cmd_ingest,
    "extract": _cmd_extract,
    "graph": _cmd_graph,
    "sample": _cmd_sample,
    "balance": _cmd_balance,
    "generate": _cmd_generate,
    "analyze": _cmd_analyze,
    "run": _cmd_run,
    "validate": _cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("GRAPHSYNTH_LOG", "WARNING"))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigurationError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except StageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_STAGE
    except GraphSynthError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_STAGE
    except FileNotFoundError as e:
        print(f"error: missing file {e.filename}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
