"""Pipeline entry point: config validation, the stage table, run manifests.

Each stage is declared once in ``STAGES``: the artifact keys it reads and
writes, and a function of a ``StageContext``. ``run_pipeline`` binds every
key to its file in the workdir and runs the table in order, ingest ->
extract -> graph -> sample -> balance -> generate -> analyze; a stage is
skipped when its outputs already exist, so a deleted downstream artifact is
reproduced byte-identically on resume. A stage subcommand binds the files
its flags name, validates the config its flags set as ``run`` does, and runs
the same stage function. An optional output (the embedding caches, the hop
decision, the generation manifest) is written only when its key is bound.
Within one run, a stage hands what it wrote on to later stages in memory; an
artifact that no stage of the run wrote is parsed once, on first use, and
every artifact is hashed once.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

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
    same_document_only: bool = False

    def validate(self) -> list[str]:
        resolved = "one_hop" if self.hop_policy == "auto" else self.hop_policy
        cfg = traversal_mod.TraversalConfig(
            max_start_paragraphs=self.max_start_paragraphs,
            depth=self.depth,
            beam_width=self.beam_width,
            hop_policy=resolved,
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

# Section fields that the stages set from the top-level ``seed``; a config
# file that sets them is rejected.
_SEEDED_FIELDS = {"balance": {"rng_seed"}}


def _build_section(name: str, cls, data: dict):
    known = {f.name for f in fields(cls)} - _SEEDED_FIELDS.get(name, set())
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


def _check_config(config: RunConfig) -> None:
    problems = validate_config(config)
    if problems:
        raise ConfigurationError("; ".join(problems))


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


# Each loader is looked up as a module attribute at call time, so a wrapper
# installed there (the benchmark's tracer) sees the call.
_LOADERS = {
    "chunks": lambda ctx, path: corpus_mod.load_chunks(path),
    "entities": lambda ctx, path: extraction_mod.load_entity_map(path),
    "graph": lambda ctx, path: graph_mod.load_graph(path),
    "paths": lambda ctx, path: traversal_mod.load_paths(path),
    "subsets": lambda ctx, path: balance_mod.load_subsets(path, ctx.load("paths")),
    "synth": lambda ctx, path: synthesis_mod.load_synthetic_corpus(path),
}


@dataclass
class StageContext:
    """What a stage reads: the config, one path per bound artifact key, and
    the run's artifact table. ``force`` rebuilds the hop decision too."""

    config: RunConfig
    paths: dict[str, Path]
    artifacts: _Artifacts = field(default_factory=_Artifacts)
    force: bool = False

    def path(self, key: str) -> Path:
        if key not in self.paths:
            raise ConfigurationError(f"this stage needs the {key} file")
        return self.paths[key]

    def load(self, key: str):
        """The artifact's value, handed on by the stage that wrote it or parsed now."""
        return self.artifacts.get(self.path(key), lambda path: _LOADERS[key](self, path))

    def put(self, key: str, value) -> None:
        self.artifacts.put(self.paths[key], value)


@dataclass(frozen=True)
class Stage:
    """One pipeline step: the artifact keys it reads and writes, and ``fn``,
    which writes the bound outputs and returns the counts for the manifest."""

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    fn: Callable[[StageContext], dict]


def _ingest(ctx: StageContext) -> dict:
    config = ctx.config
    with open(ctx.path("input"), "r", encoding="utf-8") as f:
        docs = corpus_mod.ingest_corpus(f)
    chunks: list[corpus_mod.Chunk] = []
    titles: dict[str, str] = {}
    cache = None
    with contextlib.ExitStack() as stack:
        if config.chunking.policy == "fixed":
            policy: corpus_mod.ChunkPolicy = corpus_mod.FixedChunking(
                max_chars=config.chunking.max_chars
            )
        else:
            backend = stack.enter_context(embedding_backend(config.embedding))
            cache = embedding_mod.EmbeddingCache(ctx.paths.get("ingest_cache"))
            policy = corpus_mod.SemanticChunking(
                embed=lambda text: embedding_mod.embed_text(text, backend, cache),
                breakpoint_percentile=config.chunking.breakpoint_percentile,
            )
        for doc in docs:
            chunks.extend(corpus_mod.chunk_document(doc, policy))
            titles[doc.doc_id] = doc.title
    corpus_mod.save_chunks(ctx.path("chunks"), chunks, titles)
    ctx.put("chunks", corpus_mod.ChunkStore(chunks, titles))
    if cache is not None and cache.path:
        cache.save()
    return {"documents": len(docs), "chunks": len(chunks)}


def _extract(ctx: StageContext) -> dict:
    config = ctx.config
    store = ctx.load("chunks")
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
    extraction_mod.save_entity_map(ctx.path("entities"), entities)
    ctx.put("entities", entities)
    return {"entities": len(entities)}


def _graph(ctx: StageContext) -> dict:
    g = graph_mod.build_graph(ctx.load("entities"))
    graph_mod.save_graph(ctx.path("graph"), g)
    ctx.put("graph", g)
    return {"nodes": len(g.nodes), "edges": len(g.provenance)}


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


def _resolve_hop_policy(ctx: StageContext, chunk_store) -> str:
    """Volume schedule: one-hop until accumulated synthetic characters pass
    HOP_SCHEDULE_MULTIPLE x the raw corpus characters, two-hop beyond.

    The decision is snapshotted to the bound hop_decision file so rebuilding
    the sample stage alone cannot be influenced by downstream artifacts.
    """
    decision_path = ctx.paths.get("hop_decision")
    synth_path = ctx.paths.get("synth")
    if ctx.config.traversal.hop_policy != "auto":
        policy = ctx.config.traversal.hop_policy
        accumulated = raw_chars = None
    elif decision_path and decision_path.exists() and not ctx.force:
        return json.loads(decision_path.read_text(encoding="utf-8"))["hop_policy"]
    else:
        raw_chars = sum(len(c.text) for c in chunk_store.chunks())
        accumulated = 0
        if synth_path and synth_path.exists():
            accumulated = _synthetic_char_volume(ctx.load("synth"))
        policy = "one_hop" if accumulated <= HOP_SCHEDULE_MULTIPLE * raw_chars else "two_hop"
    if decision_path:
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


def _sample(ctx: StageContext) -> dict:
    config = ctx.config
    store = ctx.load("chunks")
    g = ctx.load("graph")
    hop_policy = _resolve_hop_policy(ctx, store)
    cfg = traversal_mod.TraversalConfig(
        max_start_paragraphs=config.traversal.max_start_paragraphs,
        depth=config.traversal.depth,
        beam_width=config.traversal.beam_width,
        hop_policy=hop_policy,
        same_document_only=config.traversal.same_document_only,
        rng_seed=config.seed,
    )
    # entries are keyed by backend and text, so an earlier run's are reused
    cache = embedding_mod.EmbeddingCache(ctx.paths.get("embeddings"))
    with embedding_backend(config.embedding) as backend:
        paths = traversal_mod.sample_paths(g, ctx.load("entities"), store, cfg, backend, cache)
    traversal_mod.save_paths(ctx.path("paths"), paths)
    ctx.put("paths", paths)
    if cache.path:
        cache.save()
    return {"paths": len(paths), "hop_policy": hop_policy}


def _balance(ctx: StageContext) -> dict:
    allocations = balance_mod.secondary_sampling(
        ctx.load("paths"),
        replace(ctx.config.balance, rng_seed=ctx.config.seed),
        entity_to_chunks=extraction_mod.entity_chunk_index(ctx.load("entities")),
        total_chunks=len(ctx.load("chunks")),
    )
    balance_mod.save_subsets(ctx.path("subsets"), allocations)
    ctx.put("subsets", allocations)
    return {
        "subsets": len(allocations),
        "cc_pairs": sum(len(s.cc_pairs) for s in allocations),
    }


def _generate(ctx: StageContext) -> dict:
    config = ctx.config
    requests = synthesis_mod.build_requests(
        ctx.load("subsets"),
        ctx.load("chunks"),
        extraction_mod.canonical_names(ctx.load("entities")),
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
    manifest = synthesis_mod.write_synthetic_corpus(records, ctx.path("synth"))
    ctx.put("synth", records)
    if "synth_manifest" in ctx.paths:
        write_json(ctx.paths["synth_manifest"], manifest, indent=2)
    return manifest


def _analyze(ctx: StageContext) -> dict:
    """The report (``report_<source>``) and histogram (``hist_<source>``) of
    each bound source, and the raw-versus-subsets ``comparison``."""
    entities = ctx.load("entities")
    wanted = {"raw", "subsets", "synth"} if "comparison" in ctx.paths else set()
    reports = {}
    for source in ("raw", "subsets", "synth"):
        report_path = ctx.paths.get(f"report_{source}")
        hist_path = ctx.paths.get(f"hist_{source}")
        if not (report_path or hist_path or source in wanted):
            continue
        report = reports[source] = analysis_mod.entity_distribution(
            source,
            entities,
            subsets=ctx.load("subsets") if source != "raw" else None,
            records=ctx.load("synth") if source == "synth" else None,
            buckets=ctx.config.analysis.buckets,
        )
        if report_path:
            analysis_mod.emit_report_csv(report, report_path)
        if hist_path:
            analysis_mod.emit_histogram_svg(report, hist_path)
    if wanted:
        raw, sub = reports["raw"], reports["subsets"]
        delta = analysis_mod.compare_reports(raw, sub)
        write_json(
            ctx.paths["comparison"],
            {
                "raw_gini": raw.gini,
                "subsets_gini": sub.gini,
                "synth_gini": reports["synth"].gini,
                "gini_delta": delta.gini_delta,
                "cv_delta": delta.cv_delta,
                "coverage_delta": delta.coverage_delta,
                "top_decile_delta": delta.top_decile_delta,
            },
            indent=2,
        )
    counts = {"entities": len(entities)}
    for source, report in reports.items():
        counts[f"{source}_gini"] = round(report.gini, 4)
    return counts


STAGES = (
    Stage("ingest", ("input",), ("chunks", "ingest_cache"), _ingest),
    Stage("extract", ("chunks",), ("entities",), _extract),
    Stage("graph", ("entities",), ("graph",), _graph),
    Stage(
        "sample",
        ("chunks", "entities", "graph"),
        ("paths", "embeddings", "hop_decision"),
        _sample,
    ),
    Stage("balance", ("chunks", "entities", "paths"), ("subsets",), _balance),
    Stage(
        "generate",
        ("chunks", "entities", "paths", "subsets"),
        ("synth", "synth_manifest"),
        _generate,
    ),
    Stage(
        "analyze",
        ("entities", "paths", "subsets", "synth"),
        (
            "report_raw", "report_subsets", "report_synth",
            "hist_raw", "hist_subsets", "hist_synth", "comparison",
        ),
        _analyze,
    ),
)

# The file each artifact key names in a run's workdir; ``run`` binds
# ``input`` to ``config.input`` and leaves ``ingest_cache`` and
# ``hist_synth`` unbound.
WORKDIR_FILES = {
    "chunks": "chunks.jsonl",
    "entities": "entities.jsonl",
    "graph": "graph.jsonl",
    "paths": "paths.jsonl",
    "embeddings": "embeddings.json",
    "hop_decision": "hop_decision.json",
    "subsets": "subsets.jsonl",
    "synth": "synth.jsonl",
    "synth_manifest": "synth_manifest.json",
    "report_raw": "report_raw.csv",
    "report_subsets": "report_subsets.csv",
    "report_synth": "report_synth.csv",
    "hist_raw": "hist_raw.svg",
    "hist_subsets": "hist_subsets.svg",
    "comparison": "comparison.json",
}


def _run_stages(stages, ctx: StageContext) -> list[dict]:
    """Run each stage over its bound keys; one manifest entry per stage.

    A stage whose bound outputs all exist is skipped unless ``ctx.force``.
    """
    entries = []
    for stage in stages:
        start = time.perf_counter()
        inputs = [ctx.paths[k] for k in stage.inputs if k in ctx.paths]
        outputs = [ctx.paths[k] for k in stage.outputs if k in ctx.paths]
        skipped = bool(outputs) and all(p.exists() for p in outputs) and not ctx.force
        counts: dict = {}
        if skipped:
            log.info("stage %s: outputs exist, skipping", stage.name)
        else:
            for p in inputs:
                if not p.exists():
                    raise StageError(stage.name, FileNotFoundError(f"missing input {p}"))
            ctx.artifacts.forget(outputs)
            try:
                counts = stage.fn(ctx)
            except (StageError, ConfigurationError):
                raise
            except Exception as e:
                raise StageError(stage.name, e) from e
        entries.append(
            {
                "name": stage.name,
                "inputs": {str(p): ctx.artifacts.digest(p) for p in inputs if p.exists()},
                "outputs": {str(p): ctx.artifacts.digest(p) for p in outputs if p.exists()},
                "seconds": round(time.perf_counter() - start, 4),
                "counts": counts,
                "skipped": skipped,
            }
        )
    return entries


def run_pipeline(config: RunConfig, force: bool = False) -> dict:
    """Execute all stages; returns the run manifest (also written to disk)."""
    _check_config(config)
    workdir = Path(config.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {key: workdir / name for key, name in WORKDIR_FILES.items()}
    paths["input"] = Path(config.input)
    stages = _run_stages(STAGES, StageContext(config, paths, force=force))
    manifest = {"config_digest": _config_digest(config), "stages": stages}
    write_json(workdir / "run_manifest.json", manifest, indent=2)
    return manifest


# --- argparse wiring ---------------------------------------------------------
#
# A stage subcommand's flags name their targets in ``dest``: ``section.field``
# sets that field of the run config, ``seed`` the seed, and ``@key`` binds an
# artifact key to the file given. Unset flags keep the config defaults.


def _stage_parser(sub, name: str, help: str, stage: str | None = None):
    p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
    p.set_defaults(handler=_cmd_stage, stage=stage or name)
    return p


def _add_embedding_args(p: argparse.ArgumentParser, cache_key: str) -> None:
    p.add_argument("--embedding-backend", dest="embedding.backend", choices=["hash", "remote"])
    p.add_argument("--dim", dest="embedding.dim", type=int)
    p.add_argument("--cache", dest=f"@{cache_key}", help="embedding cache file")


def _standard_length(text: str) -> int | str:
    # anything but a number stays text, for validation to name
    return int(text) if text.isdigit() else text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphsynth",
        description="Graph-guided synthetic corpus generation pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _stage_parser(sub, "ingest", "split a JSONL corpus into chunks")
    p.add_argument("--input", dest="@input", required=True)
    p.add_argument("--out", dest="@chunks", required=True)
    p.add_argument("--chunk-policy", dest="chunking.policy", choices=["fixed", "semantic"])
    p.add_argument("--max-chars", dest="chunking.max_chars", type=int)
    p.add_argument(
        "--breakpoint-percentile", dest="chunking.breakpoint_percentile", type=float
    )
    _add_embedding_args(p, "ingest_cache")

    p = _stage_parser(sub, "extract", "extract entities and build the entity map")
    p.add_argument("--chunks", dest="@chunks", required=True)
    p.add_argument("--backend", dest="extraction.backend", choices=["rule", "llm"])
    p.add_argument("--aliases", dest="extraction.aliases")
    p.add_argument("--out", dest="@entities", required=True)

    p = sub.add_parser("graph", help="context graph operations")
    gsub = p.add_subparsers(dest="graph_command", required=True)
    gb = _stage_parser(gsub, "build", "build the context graph", stage="graph")
    gb.add_argument("--entities", dest="@entities", required=True)
    gb.add_argument("--out", dest="@graph", required=True)
    gs = gsub.add_parser("stats")
    gs.add_argument("--graph", required=True)
    gs.set_defaults(handler=_cmd_graph_stats)

    p = _stage_parser(sub, "sample", "sample cross-document paths")
    p.add_argument("--graph", dest="@graph", required=True)
    p.add_argument("--entities", dest="@entities", required=True)
    p.add_argument("--chunks", dest="@chunks", required=True)
    p.add_argument("-S", "--max-start-paragraphs", dest="traversal.max_start_paragraphs", type=int)
    p.add_argument("-D", "--depth", dest="traversal.depth", type=int)
    p.add_argument("-W", "--beam-width", dest="traversal.beam_width", type=int)
    p.add_argument(
        "--hop-policy",
        dest="traversal.hop_policy",
        choices=list(traversal_mod.HOP_POLICIES),
        default="one_hop",
    )
    p.add_argument(
        "--same-document-only", dest="traversal.same_document_only", action="store_true"
    )
    p.add_argument("--seed", type=int)
    p.add_argument("--out", dest="@paths", required=True)
    _add_embedding_args(p, "embeddings")

    p = _stage_parser(sub, "balance", "secondary sampling into subsets")
    p.add_argument("--paths", dest="@paths", required=True)
    p.add_argument("--entities", dest="@entities", required=True)
    p.add_argument("--chunks", dest="@chunks", required=True)
    p.add_argument("-r", "--target-coverage", dest="balance.target_coverage", type=float)
    p.add_argument(
        "-l", "--standard-length", dest="balance.standard_length", type=_standard_length
    )
    p.add_argument("--seed", type=int)
    p.add_argument("--out", dest="@subsets", required=True)

    p = _stage_parser(sub, "generate", "run generation over the subsets")
    p.add_argument("--subsets", dest="@subsets", required=True)
    p.add_argument("--paths", dest="@paths", required=True)
    p.add_argument("--chunks", dest="@chunks", required=True)
    p.add_argument("--entities", dest="@entities", required=True)
    p.add_argument("--backend", dest="generation.backend", choices=["mock", "remote"])
    p.add_argument("--temperature", dest="generation.temperature", type=float)
    p.add_argument("--max-tokens", dest="generation.max_tokens", type=int)
    p.add_argument("--retries", dest="generation.max_retries", type=int)
    p.add_argument("--concurrency", dest="generation.concurrency", type=int)
    p.add_argument(
        "--same-document", dest="traversal.same_document_only", action="store_true"
    )
    p.add_argument("--out", dest="@synth", required=True)
    p.add_argument("--manifest", dest="@synth_manifest")

    p = _stage_parser(sub, "analyze", "entity distribution reports")
    p.add_argument("--source", choices=["raw", "subsets", "synth"], required=True)
    p.add_argument("--entities", dest="@entities", required=True)
    p.add_argument("--subsets", dest="@subsets")
    p.add_argument("--paths", dest="@paths")
    p.add_argument("--synth", dest="@synth")
    p.add_argument("--buckets", dest="analysis.buckets", type=int)
    # --source picks the report and histogram that --out and --plot name
    p.add_argument("--out", dest="@report_{source}", metavar="OUT", required=True)
    p.add_argument("--plot", dest="@hist_{source}", metavar="PLOT")

    p = sub.add_parser("run", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--workdir", default=None, help="override config workdir")
    p.add_argument("--force", action="store_true", help="rebuild existing artifacts")
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("validate", help="validate a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(handler=_cmd_validate)

    return parser


def _cmd_stage(args) -> int:
    """One stage over the files its flags name, validated as ``run`` validates."""
    config = RunConfig()
    paths: dict[str, Path] = {}
    for dest, value in vars(args).items():
        if dest.startswith("@"):
            paths[dest[1:].format_map(vars(args))] = Path(value)
        elif dest == "seed":
            config.seed = value
        elif "." in dest:
            section, name = dest.split(".")
            setattr(config, section, replace(getattr(config, section), **{name: value}))
    _check_config(config)
    stage = next(s for s in STAGES if s.name == args.stage)
    [entry] = _run_stages([stage], StageContext(config, paths, force=True))
    print(json.dumps(entry["counts"], sort_keys=True))
    return EXIT_OK


def _cmd_graph_stats(args) -> int:
    stats = graph_mod.graph_stats(graph_mod.load_graph(args.graph))
    print(json.dumps(asdict(stats), sort_keys=True, indent=2, default=str))
    return EXIT_OK


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.workdir:
        config.workdir = args.workdir
    manifest = run_pipeline(config, force=args.force)
    for entry in manifest["stages"]:
        flag = "skipped" if entry["skipped"] else f"{entry['seconds']}s"
        print(f"stage {entry['name']}: {flag} {entry['counts']}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    _check_config(load_config(args.config))
    print("config ok")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("GRAPHSYNTH_LOG", "WARNING"))
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigurationError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except GraphSynthError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_STAGE
    except FileNotFoundError as e:
        print(f"error: missing file {e.filename}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
