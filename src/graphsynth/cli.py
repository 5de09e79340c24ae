"""Pipeline entry point: the config builder, the stage table, run manifests.

Each stage is declared once in ``STAGES``: the artifact keys it reads and
writes, and a function of a ``StageContext``. ``run_pipeline`` binds every
key to its file in the workdir and runs the table in order, ingest ->
extract -> graph -> sample -> balance -> generate -> analyze; a stage is
skipped when its outputs already exist, so a deleted downstream artifact is
reproduced byte-identically on resume. A stage subcommand binds the files
its flags name, builds the config its flags set as ``run`` builds a config
file's, and runs the same stage function. An optional output (the hop
decision, the generation manifest) is written only when its key is bound;
an embedding cache, which is no artifact, is kept only for remote backends.
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
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Callable, get_args, get_type_hints

import yaml

from . import analysis as analysis_mod
from . import balance as balance_mod
from . import corpus as corpus_mod
from . import embedding as embedding_mod
from . import extraction as extraction_mod
from . import graph as graph_mod
from . import synthesis as synthesis_mod
from . import traversal as traversal_mod
from .errors import ConfigSection, ConfigurationError, FormatError, GraphSynthError
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


@dataclass(frozen=True)
class ExtractionConfig(ConfigSection):
    backend: str = "rule"
    aliases: str | None = None

    def _problems(self) -> list[str]:
        if self.backend not in ("rule", "llm"):
            return ["backend must be 'rule' or 'llm'"]
        return []


@dataclass(frozen=True)
class EmbeddingConfig(ConfigSection):
    backend: str = "hash"
    dim: int = embedding_mod.DEFAULT_HASH_DIM
    endpoint: str | None = None
    model: str | None = None

    def _problems(self) -> list[str]:
        problems = []
        if self.backend not in ("hash", "remote"):
            problems.append("backend must be 'hash' or 'remote'")
        if self.dim < 1:
            problems.append("dim must be >= 1")
        return problems


@dataclass(frozen=True)
class GenerationConfig(ConfigSection):
    backend: str = "mock"
    temperature: float = synthesis_mod.DEFAULT_TEMPERATURE
    max_tokens: int = synthesis_mod.DEFAULT_MAX_TOKENS
    max_retries: int = 2
    concurrency: int = 1
    endpoint: str | None = None
    model: str | None = None

    def _problems(self) -> list[str]:
        problems = []
        if self.backend not in ("mock", "remote"):
            problems.append("backend must be 'mock' or 'remote'")
        if not (0.0 <= self.temperature <= 2.0):
            problems.append("temperature must be in [0, 2]")
        if self.max_tokens < 1:
            problems.append("max_tokens must be >= 1")
        if self.max_retries < 0:
            problems.append("max_retries must be >= 0")
        if self.concurrency < 1:
            problems.append("concurrency must be >= 1")
        return problems


@dataclass(frozen=True)
class AnalysisConfig(ConfigSection):
    buckets: int = analysis_mod.DEFAULT_BUCKETS

    def _problems(self) -> list[str]:
        if self.buckets < 1:
            return ["buckets must be >= 1"]
        return []


@dataclass
class RunConfig:
    input: str = "corpus.jsonl"
    workdir: str = "out"
    seed: int = 0
    chunking: corpus_mod.ChunkingConfig = field(default_factory=corpus_mod.ChunkingConfig)
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)
    embedding: EmbeddingConfig = field(default_factory=EmbeddingConfig)
    traversal: traversal_mod.TraversalConfig = field(
        default_factory=lambda: traversal_mod.TraversalConfig(hop_policy="auto")
    )
    balance: balance_mod.BalanceConfig = field(default_factory=balance_mod.BalanceConfig)
    generation: GenerationConfig = field(default_factory=GenerationConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)


def _fits(value, types: tuple[type, ...]) -> bool:
    """Whether ``value`` is one of ``types``; a bool is no int, an int is a float."""
    if isinstance(value, bool):
        return bool in types
    return isinstance(value, types) or (isinstance(value, int) and float in types)


def _checked(base, data, prefix: str = "") -> dict:
    """The mapping ``data`` (a config file's tree or a stage subcommand's
    flags) as keyword arguments for ``base``'s fields, a section's as a
    mapping of its own. Unknown keys and values that do not fit their
    field's type are rejected, in the order ``data`` lists them."""
    data = {} if data is None else data
    if not isinstance(data, dict):
        raise ConfigurationError(f"{prefix[:-1] or 'config root'} must be a mapping")
    unknown = set(data) - {f.name for f in fields(base)}
    if unknown:
        where = prefix[:-1] or "the top level"
        raise ConfigurationError(f"unknown key(s) in {where}: {sorted(unknown)}")
    hints = get_type_hints(type(base))
    kwargs = {}
    for key, value in data.items():
        types = get_args(hints[key]) or (hints[key],)
        if is_dataclass(hints[key]):
            value = _checked(getattr(base, key), value, f"{prefix}{key}.")
        elif not _fits(value, types):
            expected = " or ".join("null" if t is type(None) else t.__name__ for t in types)
            raise ConfigurationError(f"{prefix}{key} must be {expected}, not {value!r}")
        kwargs[key] = value
    return kwargs


def _build(data) -> RunConfig:
    """The ``RunConfig`` that ``data`` sets, once ``_checked`` passes it; a key
    that a section leaves out keeps the run's default (``auto`` for ``hop_policy``).
    The problems of every section built, in field order, make one error."""
    base = RunConfig()
    kwargs = _checked(base, data)
    problems: list[str] = []
    for f in fields(base):
        if f.name in kwargs and is_dataclass(section := getattr(base, f.name)):
            try:
                kwargs[f.name] = replace(section, **kwargs[f.name])
            except ConfigurationError as e:
                problems += [f"{f.name}.{p}" for p in e.problems]
    if problems:
        raise ConfigurationError(*problems)
    return replace(base, **kwargs)


def load_config(path: str | Path) -> RunConfig:
    """Parse the YAML config tree into a ``RunConfig``, checked as ``_build`` checks."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return _build(yaml.safe_load(f))
        except UnicodeDecodeError as e:
            raise ConfigurationError(f"{path}: not valid UTF-8 ({e.reason})")
        except yaml.reader.ReaderError as e:  # a character YAML does not allow
            problem = str(e).partition("\n")[0]  # the second line repeats file and position
            raise ConfigurationError(f"{path}, position {e.position}: not valid YAML ({problem})")
        except yaml.YAMLError as e:
            mark = getattr(e, "problem_mark", None)
            where = f"{path}, line {mark.line + 1}" if mark else str(path)
            raise ConfigurationError(f"{where}: not valid YAML ({getattr(e, 'problem', e)})")


def _config_digest(config: RunConfig) -> str:
    payload = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@contextlib.contextmanager
def _remote_backend(adapter, settings, section: str, env: str, **client_options):
    """``adapter(client, model)`` over a ``remote.JsonClient`` configured by the
    section or the ``{env}_*`` variables; the client closes when the block ends."""
    endpoint = settings.endpoint or os.environ.get(f"{env}_ENDPOINT")
    if not endpoint:
        raise ConfigurationError(
            f"the remote {section} backend needs {section}.endpoint or {env}_ENDPOINT"
        )
    from .remote import JsonClient  # here, so offline runs never load http.client or ssl

    client = JsonClient(endpoint, api_key=os.environ.get(f"{env}_API_KEY"), **client_options)
    with contextlib.closing(client):
        yield adapter(client, settings.model or os.environ.get(f"{env}_MODEL", ""))


def embedding_backend(settings: EmbeddingConfig):
    """The configured embedding backend, as a context manager."""
    if settings.backend == "hash":
        return contextlib.nullcontext(embedding_mod.HashEmbeddingBackend(dim=settings.dim))
    return _remote_backend(
        embedding_mod.RemoteEmbeddingBackend, settings, "embedding", "GRAPHSYNTH_EMBED",
        name="embedding",
    )


def chat_backend(settings: GenerationConfig):
    """The configured chat backend, as a context manager."""
    if settings.backend == "mock":
        return contextlib.nullcontext(synthesis_mod.MockLlmBackend())
    return _remote_backend(
        synthesis_mod.RemoteChatBackend, settings, "generation", "GRAPHSYNTH_LLM",
        name="chat", timeout=120.0, connections=settings.concurrency,
    )


# Each loader is looked up as a module attribute at call time, so a wrapper
# installed there (the benchmark's tracer) sees the call.
_LOADERS = {
    "chunks": lambda ctx, path: corpus_mod.load_chunks(path),
    "entities": lambda ctx, path: extraction_mod.load_entity_map(path),
    "graph": lambda ctx, path: graph_mod.load_graph(path),
    "paths": lambda ctx, path: traversal_mod.load_paths(path),
    "subsets": lambda ctx, path: balance_mod.load_subsets(path, ctx.load("paths")),
    "synth": lambda ctx, path: synthesis_mod.load_outcomes(path),
}


@dataclass
class StageContext:
    """What a stage reads: the config, one path per bound artifact key, and
    the run's artifacts: per path, its parsed value and its sha256.

    The stage that writes an artifact hands its value on with ``put``; one
    that no stage of the run wrote is parsed by ``load`` on first use. Both
    are dropped by ``forget`` when a stage that lists the path as an output
    runs, so a value read before a rewrite is never handed on after it.
    ``force`` rebuilds the hop decision too.
    """

    config: RunConfig
    paths: dict[str, Path]
    force: bool = False
    _values: dict[Path, object] = field(default_factory=dict, init=False, repr=False)
    _digests: dict[Path, str] = field(default_factory=dict, init=False, repr=False)

    def path(self, key: str) -> Path:
        if key not in self.paths:
            raise ConfigurationError(f"this stage needs the {key} file")
        return self.paths[key]

    def load(self, key: str):
        """The artifact's value, handed on by the stage that wrote it or parsed now."""
        path = self.path(key)
        if path not in self._values:
            self._values[path] = _LOADERS[key](self, path)
        return self._values[path]

    def put(self, key: str, value) -> None:
        self._values[self.paths[key]] = value

    def digest(self, path: Path) -> str:
        if path not in self._digests:
            self._digests[path] = sha256_file(path)
        return self._digests[path]

    def forget(self, paths: list[Path]) -> None:
        for p in paths:
            self._values.pop(p, None)
            self._digests.pop(p, None)


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
    with open(ctx.path("input"), "rb") as f:
        docs = corpus_mod.ingest_corpus(f)
    chunks: list[corpus_mod.Chunk] = []
    titles: dict[str, str] = {}
    with contextlib.ExitStack() as stack:
        embed = None
        if config.chunking.policy == "semantic":
            backend = stack.enter_context(embedding_backend(config.embedding))
            cache = stack.enter_context(_embedding_cache(ctx, "ingest_cache"))

            def embed(text: str):
                return embedding_mod.embed_text(text, backend, cache)

        for doc in docs:
            chunks.extend(corpus_mod.chunk_document(doc, config.chunking, embed))
            titles[doc.doc_id] = doc.title
    corpus_mod.save_chunks(ctx.path("chunks"), chunks, titles)
    ctx.put("chunks", corpus_mod.ChunkStore(chunks, titles))
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


def _resolve_hop_policy(ctx: StageContext, chunk_store) -> str:
    """Volume schedule: one-hop until the previous run's synth.jsonl holds more
    than HOP_SCHEDULE_MULTIPLE x the raw corpus characters, two-hop beyond.

    The decision is snapshotted to the bound hop_decision file so rebuilding
    the sample stage alone cannot be influenced by downstream artifacts.
    """
    decision_path = ctx.paths.get("hop_decision")
    policy = ctx.config.traversal.hop_policy
    if policy == "auto" and decision_path and decision_path.exists() and not ctx.force:
        try:
            recorded = json.loads(decision_path.read_text(encoding="utf-8"))
        except ValueError as e:  # a JSONDecodeError, or a UnicodeDecodeError
            raise FormatError(f"{decision_path}: not valid JSON ({e})") from e
        recorded = recorded.get("hop_policy") if type(recorded) is dict else None
        if recorded not in ("one_hop", "two_hop"):
            raise FormatError(f"{decision_path}: hop_policy is neither 'one_hop' nor 'two_hop'")
        return recorded
    decision = {"hop_policy": policy, "accumulated_chars": None, "raw_chars": None,
                "schedule_multiple": HOP_SCHEDULE_MULTIPLE}
    if policy == "auto":
        synth = ctx.paths.get("synth")
        raw = sum(len(c.text) for c in chunk_store.chunks())
        accumulated = synthesis_mod.accepted_chars(synth) if synth and synth.exists() else 0
        decision.update(
            hop_policy="one_hop" if accumulated <= HOP_SCHEDULE_MULTIPLE * raw else "two_hop",
            accumulated_chars=accumulated,
            raw_chars=raw,
        )
    if decision_path:
        write_json(decision_path, decision)
    return decision["hop_policy"]


def _embedding_cache(ctx: StageContext, key: str) -> embedding_mod.EmbeddingCache:
    # bound under the remote backend only: a hash vector costs less to make than to load
    remote = ctx.config.embedding.backend == "remote"
    return embedding_mod.EmbeddingCache(ctx.paths.get(key) if remote else None)


def _sample(ctx: StageContext) -> dict:
    config = ctx.config
    store = ctx.load("chunks")
    g = ctx.load("graph")
    hop_policy = _resolve_hop_policy(ctx, store)
    cfg = replace(config.traversal, hop_policy=hop_policy)
    # entries are keyed by backend and text, so an earlier remote run's are reused
    cache = _embedding_cache(ctx, "embeddings")
    with cache, embedding_backend(config.embedding) as backend:
        paths = traversal_mod.sample_paths(
            g, ctx.load("entities"), store, cfg, backend, cache, seed=config.seed
        )
    traversal_mod.save_paths(ctx.path("paths"), paths)
    ctx.put("paths", paths)
    return {"paths": len(paths), "hop_policy": hop_policy, **paths.counts}


def _balance(ctx: StageContext) -> dict:
    stats: dict[str, int] = {}
    allocations = balance_mod.secondary_sampling(
        ctx.load("paths"),
        ctx.config.balance,
        entity_to_chunks=extraction_mod.entity_chunk_index(ctx.load("entities")),
        total_chunks=len(ctx.load("chunks")),
        seed=ctx.config.seed,
        stats=stats,
    )
    balance_mod.save_subsets(ctx.path("subsets"), allocations)
    ctx.put("subsets", allocations)
    return {
        "subsets": len(allocations),
        "cc_pairs": sum(len(s.cc_pairs) for s in allocations),
        **stats,
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
    # each record is written as it is emitted; analyze reads only the outcomes
    # (source id, status, retries), handed on here or read by load_outcomes
    with (
        chat_backend(config.generation) as backend,
        synthesis_mod.corpus_writer(ctx.path("synth")) as writer,
    ):
        outcomes = synthesis_mod.generate(
            requests,
            backend,
            max_retries=config.generation.max_retries,
            concurrency=config.generation.concurrency,
            emit=writer.write,
        )
    manifest = writer.manifest
    ctx.put("synth", outcomes)
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
        write_json(
            ctx.paths["comparison"],
            {
                "raw_gini": raw.gini,
                "subsets_gini": sub.gini,
                "synth_gini": reports["synth"].gini,
                **asdict(analysis_mod.compare_reports(raw, sub)),
            },
            indent=2,
        )
    counts = {"entities": len(entities)}
    for source, report in reports.items():
        counts[f"{source}_gini"] = round(report.gini, 4)
    return counts


STAGES = (
    Stage("ingest", ("input",), ("chunks",), _ingest),
    Stage("extract", ("chunks",), ("entities",), _extract),
    Stage("graph", ("entities",), ("graph",), _graph),
    Stage("sample", ("chunks", "entities", "graph"), ("paths", "hop_decision"), _sample),
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

# The file each artifact key names in a run's workdir, and ``embeddings``
# the remote embedding cache's; ``run`` binds ``input`` to ``config.input``
# and leaves ``ingest_cache`` and ``hist_synth`` unbound.
WORKDIR_FILES = {
    "chunks": "chunks.jsonl",
    "entities": "entities.jsonl",
    "graph": "graph.jsonl",
    "paths": "paths.jsonl",
    "embeddings": "embeddings.jsonl",
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
            ctx.forget(outputs)
            try:
                counts = stage.fn(ctx)
            except (StageError, ConfigurationError):
                raise
            except Exception as e:
                raise StageError(stage.name, e) from e
        entries.append(
            {
                "name": stage.name,
                "inputs": {str(p): ctx.digest(p) for p in inputs if p.exists()},
                "outputs": {str(p): ctx.digest(p) for p in outputs if p.exists()},
                "seconds": round(time.perf_counter() - start, 4),
                "counts": counts,
                "skipped": skipped,
            }
        )
    return entries


def run_pipeline(config: RunConfig, force: bool = False) -> dict:
    """Execute all stages; returns the run manifest (also written to disk)."""
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
# artifact key to the file given. The set fields go through the builder that
# reads a config file; unset flags keep the config defaults.


def _stage_parser(sub, name: str, help: str, stage: str | None = None):
    """The subcommand that runs one stage of ``STAGES``: a required
    ``--<key>`` names the file of each of its inputs, ``--out`` its first
    output."""
    spec = next(s for s in STAGES if s.name == (stage or name))
    p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
    p.set_defaults(handler=_cmd_stage, stage=spec)
    for key in spec.inputs:
        p.add_argument(f"--{key}", dest=f"@{key}", required=True)
    p.add_argument("--out", dest=f"@{spec.outputs[0]}", required=True)
    return p


def _add_embedding_args(p: argparse.ArgumentParser, cache_key: str) -> None:
    p.add_argument("--embedding-backend", dest="embedding.backend", choices=["hash", "remote"])
    p.add_argument("--dim", dest="embedding.dim", type=int)
    p.add_argument("--cache", dest=f"@{cache_key}", help="remote embedding cache file")


def _standard_length(text: str) -> int | str:
    # anything but a number stays text, for BalanceConfig to reject
    return int(text) if text.isdigit() else text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphsynth",
        description="Graph-guided synthetic corpus generation pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _stage_parser(sub, "ingest", "split a JSONL corpus into chunks")
    p.add_argument("--chunk-policy", dest="chunking.policy", choices=["fixed", "semantic"])
    p.add_argument("--max-chars", dest="chunking.max_chars", type=int)
    p.add_argument(
        "--breakpoint-percentile", dest="chunking.breakpoint_percentile", type=float
    )
    _add_embedding_args(p, "ingest_cache")

    p = _stage_parser(sub, "extract", "extract entities and build the entity map")
    p.add_argument("--backend", dest="extraction.backend", choices=["rule", "llm"])
    p.add_argument("--aliases", dest="extraction.aliases")

    p = sub.add_parser("graph", help="context graph operations")
    gsub = p.add_subparsers(dest="graph_command", required=True)
    _stage_parser(gsub, "build", "build the context graph", stage="graph")
    gs = gsub.add_parser("stats")
    gs.add_argument("--graph", required=True)
    gs.set_defaults(handler=_cmd_graph_stats)

    p = _stage_parser(sub, "sample", "sample cross-document paths")
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
    _add_embedding_args(p, "embeddings")

    p = _stage_parser(sub, "balance", "secondary sampling into subsets")
    p.add_argument("-r", "--target-coverage", dest="balance.target_coverage", type=float)
    p.add_argument(
        "-l", "--standard-length", dest="balance.standard_length", type=_standard_length
    )
    p.add_argument("--seed", type=int)

    p = _stage_parser(sub, "generate", "run generation over the subsets")
    p.add_argument("--backend", dest="generation.backend", choices=["mock", "remote"])
    p.add_argument("--temperature", dest="generation.temperature", type=float)
    p.add_argument("--max-tokens", dest="generation.max_tokens", type=int)
    p.add_argument("--retries", dest="generation.max_retries", type=int)
    p.add_argument("--concurrency", dest="generation.concurrency", type=int)
    p.add_argument(
        "--same-document", dest="traversal.same_document_only", action="store_true"
    )
    p.add_argument("--manifest", dest="@synth_manifest")

    # by hand: analyze's inputs are optional, and --out/--plot name report_{source}/hist_{source}
    p = sub.add_parser(
        "analyze", help="entity distribution reports", argument_default=argparse.SUPPRESS
    )
    p.set_defaults(handler=_cmd_stage, stage=next(s for s in STAGES if s.name == "analyze"))
    p.add_argument("--source", choices=["raw", "subsets", "synth"], required=True)
    p.add_argument("--entities", dest="@entities", required=True)
    p.add_argument("--subsets", dest="@subsets")
    p.add_argument("--paths", dest="@paths")
    p.add_argument("--synth", dest="@synth")
    p.add_argument("--buckets", dest="analysis.buckets", type=int)
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
    """One stage over the files its flags name, its config built as ``run`` builds one."""
    data: dict = {}
    paths: dict[str, Path] = {}
    for dest, value in vars(args).items():
        if dest.startswith("@"):
            paths[dest[1:].format_map(vars(args))] = Path(value)
        elif dest == "seed":
            data["seed"] = value
        elif "." in dest:
            section, name = dest.split(".")
            data.setdefault(section, {})[name] = value
    config = _build(data)
    [entry] = _run_stages([args.stage], StageContext(config, paths, force=True))
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
    load_config(args.config)
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
    except OSError as e:  # a directory or an unreadable file, say
        print(f"error: {e}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
