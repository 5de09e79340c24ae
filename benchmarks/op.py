"""One timed op: ``run_pipeline`` on a config, in a process of its own.

    python3 benchmarks/op.py CONFIG.yaml RESULT.json [--trace]

``graphsynth`` must be importable (the benchmark puts the checkout's
``src`` on ``PYTHONPATH``). The op's wall time, CPU time and peak RSS are
those of this process around ``run_pipeline``, so neither set-up nor
earlier ops inflate them. Just before and after ``run_pipeline`` the
process times a fixed piece of reference work (``reference_s``), from
which the benchmark gives the op's CPU seconds at a reference speed.
With ``--trace`` the public functions of every
layer are wrapped (see ``spans.py``) and the per-layer metrics are added
to the result; they are computed after the timed region.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, percentile

G = "graphsynth"

LAYERS = (
    "cli", "corpus", "extraction", "graph", "embedding",
    "traversal", "balance", "synthesis", "analysis", "jsonl",
)

# Where the pipeline looks each public function up. cli calls the stage
# functions through ``<layer>_mod.<fn>``, i.e. the module attribute.
MODULE_FUNCTIONS = {
    "corpus": ("ingest_corpus", "chunk_document", "save_chunks", "load_chunks"),
    "extraction": ("build_entity_map", "save_entity_map", "load_entity_map"),
    "graph": ("build_graph", "save_graph", "load_graph"),
    "traversal": ("sample_paths", "select_start_paragraphs", "save_paths", "load_paths"),
    "balance": ("secondary_sampling", "save_subsets", "load_subsets"),
    "synthesis": ("build_requests", "generate", "write_synthetic_corpus", "load_synthetic_corpus"),
    "analysis": ("entity_distribution", "emit_report_csv", "emit_histogram_svg", "compare_reports"),
}
CLASS_METHODS = (
    ("embedding", "HashEmbeddingBackend", "embed"),
    ("embedding", "EmbeddingCache", "save"),
    ("extraction", "RuleBasedExtractor", "extract"),
    ("synthesis", "RemoteChatBackend", "complete"),
    ("synthesis", "MockLlmBackend", "complete"),
)
# Modules that bind ``write_jsonl`` at import; corpus looks it up in jsonl.
WRITE_JSONL_BINDINGS = ("jsonl", "balance", "extraction", "graph", "synthesis", "traversal")
ANALYSIS_FUNCTIONS = tuple(f"analysis.{fn}" for fn in MODULE_FUNCTIONS["analysis"])


def _len(result, args, kwargs):
    return len(result) if result is not None else 0


def _embed_info(result, args, kwargs):
    text = args[1] if len(args) > 1 else kwargs.get("text")
    return hash(text)


def _bytes_written(result, args, kwargs):
    target = args[0] if args else kwargs.get("path")
    try:
        return Path(target).stat().st_size
    except (TypeError, OSError):
        return 0


def _subset_counts(result, args, kwargs):
    if result is None:
        return None
    retained = sum(len(s.cot_paths) for s in result)
    try:
        returned = sum(len(s.trace.returned) for s in result)
    except AttributeError:
        returned = None
    return {
        "subsets": len(result),
        "retained": retained,
        "returned": returned,
        "cc_pairs": sum(len(s.cc_pairs) for s in result),
    }


def _record_counts(result, args, kwargs):
    if result is None:
        return None
    return {
        "retries": sum(getattr(r, "retries", 0) for r in result),
        "rejected": sum(1 for r in result if getattr(r, "status", "ok") == "rejected"),
    }


def install(tracer: Tracer) -> None:
    info = {
        "traversal.sample_paths": _len,
        "traversal.select_start_paragraphs": _len,
        "balance.secondary_sampling": _subset_counts,
        "synthesis.build_requests": _len,
        "synthesis.generate": _record_counts,
    }
    for layer, names in MODULE_FUNCTIONS.items():
        for fn in names:
            name = f"{layer}.{fn}"
            tracer.wrap(f"{G}.{layer}", fn, name, info.get(name))
    for layer, cls, method in CLASS_METHODS:
        info_fn = _embed_info if method == "embed" else None
        tracer.wrap(f"{G}.{layer}:{cls}", method, f"{layer}.{cls}.{method}", info_fn)
    wrapped = [
        tracer.wrap(f"{G}.{module}", "write_jsonl", "jsonl.write_jsonl", _bytes_written)
        for module in WRITE_JSONL_BINDINGS
    ]
    if any(wrapped):
        # a module that stops binding the name is not a missing layer
        tracer.missing.discard("jsonl.write_jsonl")
    tracer.wrap(f"{G}.cli", "sha256_file", "cli.sha256_file")


def _lines(path: Path) -> int | None:
    if not path.exists():
        return None
    with open(path, "rb") as f:
        return sum(1 for line in f if line.strip())


def _graph_shape(workdir: Path) -> dict:
    """Edges, max degree and candidate-pool size, from the artifacts alone."""
    graph_path, entities_path = workdir / "graph.jsonl", workdir / "entities.jsonl"
    if not (graph_path.exists() and entities_path.exists()):
        return {"edges": None, "max_degree": None, "pool_chunks": None}
    adjacency: dict[str, set[str]] = {}
    edges = 0
    with open(graph_path, encoding="utf-8") as f:
        for line in f:
            rec = json.loads(line)
            if rec.get("kind") == "edge":
                edges += 1
                adjacency.setdefault(rec["source"], set()).add(rec["target"])
                adjacency.setdefault(rec["target"], set()).add(rec["source"])
    chunk_counts: dict[str, int] = {}
    with open(entities_path, encoding="utf-8") as f:
        for line in f:
            rec = json.loads(line)
            chunk_counts[rec["entity_id"]] = len(rec["chunk_ids"])
    pool = sum(chunk_counts.get(nb, 0) for nbs in adjacency.values() for nb in nbs)
    return {
        "edges": edges,
        "max_degree": max((len(n) for n in adjacency.values()), default=0),
        "pool_chunks": pool,
    }


def layer_metrics(tracer: Tracer, workdir: Path, manifest: dict, concurrency: int) -> dict:
    """Every per-layer metric, ``None`` where a patch point it needs is gone."""
    t = tracer
    m: dict[str, float | int | None] = {}

    def put(name, needs, value):
        m[name] = value() if t.has(*needs) else None

    embed = "embedding.HashEmbeddingBackend.embed"
    sample = "traversal.sample_paths"
    put("traversal.sample_s", (sample, embed),
        lambda: t.total(sample) - sum(s.seconds for s in t.within(embed, sample)))
    put("traversal.paths", (sample,), lambda: sum(s.info or 0 for s in t.named(sample)))
    put("traversal.starts", ("traversal.select_start_paragraphs",),
        lambda: sum(s.info or 0 for s in t.named("traversal.select_start_paragraphs")))
    put("traversal.paths_per_s", (sample, embed),
        lambda: m["traversal.paths"] / m["traversal.sample_s"] if m["traversal.sample_s"] else 0.0)
    put("traversal.save_s", ("traversal.save_paths",), lambda: t.total("traversal.save_paths"))

    put("embedding.backend_calls", (embed,), lambda: t.count(embed))
    put("embedding.unique_texts", (embed,), lambda: len({s.info for s in t.named(embed)}))
    put("embedding.backend_s", (embed,), lambda: t.total(embed))
    m["embedding.cache_bytes"] = sum(
        p.stat().st_size for p in workdir.glob("embeddings*") if p.is_file()
    )

    put("graph.build_s", ("graph.build_graph",), lambda: t.total("graph.build_graph"))
    put("graph.load_s", ("graph.load_graph",), lambda: t.total("graph.load_graph"))
    for key, value in _graph_shape(workdir).items():
        m[f"graph.{key}"] = value

    bal = "balance.secondary_sampling"
    put("balance.sampling_s", (bal,), lambda: t.total(bal))
    counts = [s.info for s in t.named(bal) if s.info]

    def bal_sum(key):
        values = [c[key] for c in counts]
        return None if any(v is None for v in values) else sum(values)

    put("balance.subsets", (bal,), lambda: bal_sum("subsets"))
    put("balance.returned", (bal,), lambda: bal_sum("returned"))
    put("balance.cc_pairs", (bal,), lambda: bal_sum("cc_pairs"))
    retained, returned = bal_sum("retained"), m["balance.returned"]
    selected = None if retained is None or returned is None else retained + returned
    m["balance.selected"] = selected
    m["balance.useful_ratio"] = None if selected is None else retained / selected if selected else 0.0

    gen = "synthesis.generate"
    chat = ("synthesis.RemoteChatBackend.complete", "synthesis.MockLlmBackend.complete")
    calls = [s for s in t.spans if s.name in chat]
    call_ms = [s.seconds * 1000.0 for s in calls]
    have_chat = any(t.has(name) for name in chat)
    put("synthesis.generate_s", (gen,), lambda: t.total(gen))
    put("synthesis.build_requests_s", ("synthesis.build_requests",),
        lambda: t.total("synthesis.build_requests"))
    put("synthesis.write_s", ("synthesis.write_synthetic_corpus",),
        lambda: t.total("synthesis.write_synthetic_corpus"))
    put("synthesis.requests", ("synthesis.build_requests",),
        lambda: sum(s.info or 0 for s in t.named("synthesis.build_requests")))
    m["synthesis.backend_calls"] = len(calls) if have_chat else None
    records = [s.info for s in t.named(gen) if s.info]
    put("synthesis.retries", (gen,), lambda: sum(r["retries"] for r in records))
    put("synthesis.rejected", (gen,), lambda: sum(r["rejected"] for r in records))
    m["synthesis.call_ms_p50"] = percentile(call_ms, 50) if have_chat else None
    m["synthesis.call_ms_p99"] = percentile(call_ms, 99) if have_chat else None
    m["synthesis.inflight_util"] = (
        sum(s.seconds for s in calls) / (t.total(gen) * concurrency) if t.total(gen) else 0.0
    ) if have_chat and t.has(gen) else None

    put("cli.hash_s", ("cli.sha256_file",), lambda: t.total("cli.sha256_file"))
    m["cli.stages_run"] = sum(1 for st in manifest.get("stages", []) if not st.get("skipped"))
    for layer in ("corpus", "extraction"):
        loader = "corpus.load_chunks" if layer == "corpus" else "extraction.load_entity_map"
        put(f"{layer}.load_s", (loader,), lambda: t.total(loader))
        put(f"{layer}.load_calls", (loader,), lambda: t.count(loader))
    ingest = ("corpus.ingest_corpus", "corpus.chunk_document", "corpus.save_chunks")
    put("corpus.ingest_s", ingest, lambda: t.total(*ingest))
    m["corpus.chunks"] = _lines(workdir / "chunks.jsonl")
    extract = ("extraction.RuleBasedExtractor.extract", "extraction.build_entity_map")
    put("extraction.extract_s", extract, lambda: t.total(*extract))
    m["extraction.entities"] = _lines(workdir / "entities.jsonl")
    put("jsonl.bytes_written", ("jsonl.write_jsonl",),
        lambda: sum(s.info or 0 for s in t.named("jsonl.write_jsonl")))
    put("jsonl.write_s", ("jsonl.write_jsonl",), lambda: t.total("jsonl.write_jsonl"))

    put("analysis.analyze_s", ANALYSIS_FUNCTIONS, lambda: t.total(*ANALYSIS_FUNCTIONS))
    comparison = workdir / "comparison.json"
    if comparison.exists():
        c = json.loads(comparison.read_text(encoding="utf-8"))
        m["analysis.gini_delta"] = c["subsets_gini"] - c["raw_gini"]
    else:
        m["analysis.gini_delta"] = None

    self_times = t.self_times()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_times.get(layer, 0.0)
    m["trace.spans"] = len(t.spans)
    return m


def reference_s(rounds: int = 8) -> float:
    """Seconds this process takes for a fixed piece of pure-Python work.

    The work is a small mix of what the pipeline spends its time on: string
    formatting, dicts of lists, sorting, JSON and sha256. Timed next to an
    op, it gives the speed the machine ran at during that op.
    """
    t0 = time.perf_counter()
    for _ in range(rounds):
        rows: dict[str, list[int]] = {}
        for i in range(40_000):
            rows.setdefault(f"Amber Arch Analytics {i % 997}", []).append(i)
        text = json.dumps(sorted((k, len(v), sum(v)) for k, v in rows.items()))
        counts: dict[str, int] = {}
        for word in text.split(","):
            counts[word] = counts.get(word, 0) + 1
        json.loads(text)
        hashlib.sha256(text.encode("utf-8")).hexdigest()
    return time.perf_counter() - t0


def run_op(config_path: str, trace: bool) -> dict:
    from graphsynth import cli

    config = cli.load_config(config_path)
    ref_before = reference_s()
    tracer = Tracer() if trace else None
    if tracer:
        install(tracer)
    try:
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        root = tracer.open("cli.run_pipeline") if tracer else None
        try:
            manifest = cli.run_pipeline(config)
        finally:
            if tracer:
                tracer.close(root)
        wall = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
    finally:
        if tracer:
            tracer.uninstall()
    ref_after = reference_s()
    result = {
        "ok": True,
        "ref_s": (ref_before + ref_after) / 2,
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
    }
    if tracer:
        result["layers"] = layer_metrics(
            tracer, Path(config.workdir), manifest, config.generation.concurrency
        )
        result["missing"] = sorted(tracer.missing)
    return result


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3) or (len(argv) == 3 and argv[2] != "--trace"):
        print(__doc__, file=sys.stderr)
        return 2
    try:
        result = run_op(argv[0], trace=len(argv) == 3)
    except Exception:  # reported to the benchmark, which counts the op as failed
        result = {"ok": False, "error": traceback.format_exc()}
    with open(argv[1], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
