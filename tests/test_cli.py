from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

import pytest
import yaml

import graphsynth
from graphsynth.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_STAGE,
    STAGES,
    RunConfig,
    StageError,
    build_parser,
    load_config,
    main,
    run_pipeline,
    validate_config,
)
from graphsynth.corpus import Chunk, load_chunks, save_chunks
from graphsynth.embedding import HashEmbeddingBackend
from graphsynth.errors import BackendError, ConfigurationError
from graphsynth.extraction import (
    EntityRecord,
    RuleBasedExtractor,
    load_entity_map,
    save_entity_map,
)
from graphsynth.graph import build_graph, save_graph
from graphsynth.synthesis import MockLlmBackend
from graphsynth.traversal import TraversalConfig
from graphsynth.jsonl import sha256_file

from fixture_corpus import longtail_corpus_jsonl, two_document_corpus


def _write_corpus(tmp_path: Path) -> Path:
    lines, _ = two_document_corpus()
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return corpus


def _config_dict(tmp_path: Path, workdir: str = "out") -> dict:
    return {
        "input": str(_write_corpus(tmp_path)),
        "workdir": str(tmp_path / workdir),
        "seed": 7,
        "chunking": {"policy": "fixed", "max_chars": 55},
        "traversal": {"depth": 2, "beam_width": 2, "hop_policy": "auto"},
        "balance": {"target_coverage": 1.0, "standard_length": "auto"},
        "generation": {"backend": "mock", "concurrency": 2},
    }


def _write_config(tmp_path: Path, data: dict, name: str = "config.yaml") -> Path:
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return path


# --- validate_config ---------------------------------------------------------------


def test_validate_names_beam_width():
    config = RunConfig(traversal=TraversalConfig(beam_width=0))
    assert any("beam_width" in p for p in validate_config(config))


def test_validate_names_target_coverage():
    from graphsynth.balance import BalanceConfig

    config = RunConfig(balance=BalanceConfig(target_coverage=1.2))
    assert any("target_coverage" in p for p in validate_config(config))


def test_validate_defaults_clean():
    assert validate_config(RunConfig()) == []


@pytest.mark.parametrize(
    "hop_policy, depth, problem",
    [
        (
            "three", 2,
            "traversal.hop_policy must be one of ('auto', 'one_hop', 'two_hop', 'mixed')",
        ),
        ("auto", 1, "traversal.depth must be >= 2 for the auto hop schedule"),
        ("two_hop", 1, "traversal.hop_policy two_hop requires depth >= 2"),
    ],
)
def test_validate_checks_the_hop_policy_with_auto(hop_policy, depth, problem):
    config = RunConfig(traversal=TraversalConfig(hop_policy=hop_policy, depth=depth))
    assert validate_config(config) == [problem]


def test_config_example_is_the_defaults():
    # the run's hop policy is auto while the library's TraversalConfig() says one_hop
    config = load_config(Path(__file__).parent.parent / "config.example.yaml")
    assert validate_config(config) == []
    assert config == RunConfig()
    assert config.traversal.hop_policy == "auto"


def test_a_partial_section_keeps_the_run_defaults(tmp_path):
    data = {"traversal": {"same_document_only": True}, "balance": None}
    config = load_config(_write_config(tmp_path, data))
    assert config.traversal == TraversalConfig(hop_policy="auto", same_document_only=True)
    assert config == RunConfig(traversal=config.traversal)


def test_load_config_rejects_unknown_keys(tmp_path):
    path = _write_config(tmp_path, {"inputt": "x.jsonl"})
    with pytest.raises(ConfigurationError, match="inputt"):
        load_config(path)
    path = _write_config(tmp_path, {"traversal": {"beamwidth": 3}}, name="c2.yaml")
    with pytest.raises(ConfigurationError, match="beamwidth"):
        load_config(path)


@pytest.mark.parametrize(
    "section, key",
    [("balance", "rng_seed"), ("traversal", "mixed_ratio"), ("traversal", "rng_seed")],
)
def test_load_config_rejects_removed_knobs(tmp_path, section, key):
    path = _write_config(tmp_path, {section: {key: 0.5}})
    with pytest.raises(ConfigurationError, match=f"unknown key.*{key}"):
        load_config(path)


def test_sample_subcommand_has_no_mixed_ratio_flag(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(
            [
                "sample", "--graph", "g", "--entities", "e", "--chunks", "c",
                "--mixed-ratio", "0.5", "--out", str(tmp_path / "paths.jsonl"),
            ]
        )
    assert "--mixed-ratio" in capsys.readouterr().err


def _parsers(parser: argparse.ArgumentParser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def test_stage_flags_name_config_fields_and_artifact_keys():
    # A flag's dest is ``section.field`` of RunConfig, ``seed``, or ``@key``
    # of an artifact some stage reads or writes (``{source}`` filled in).
    schema = get_type_hints(RunConfig)
    artifact_keys = {k for stage in STAGES for k in stage.inputs + stage.outputs}
    settable = 0
    for parser in _parsers(build_parser()):
        sources = next((a.choices for a in parser._actions if a.dest == "source"), [None])
        for action in parser._actions:
            dest = action.dest
            if dest.startswith("@"):
                for source in sources:
                    assert dest[1:].format(source=source) in artifact_keys, dest
            elif "." in dest:
                section, name = dest.split(".")
                assert is_dataclass(schema.get(section)), dest
                assert name in {f.name for f in fields(schema[section])}, dest
                settable += 1
    assert settable >= 20


# --- run_pipeline --------------------------------------------------------------------


def test_full_run_produces_all_stages(tmp_path):
    config_path = _write_config(tmp_path, _config_dict(tmp_path))
    config = load_config(config_path)
    manifest = run_pipeline(config)
    names = [s["name"] for s in manifest["stages"]]
    assert names == ["ingest", "extract", "graph", "sample", "balance", "generate", "analyze"]
    counts = {s["name"]: s["counts"] for s in manifest["stages"]}
    assert counts["ingest"]["chunks"] == 8
    assert counts["extract"]["entities"] >= 6
    assert counts["graph"]["edges"] >= 4
    assert counts["sample"]["paths"] > 0
    assert counts["balance"]["subsets"] >= 1
    assert counts["generate"]["records"] > 0
    assert counts["generate"]["rejected"] == 0


def test_sample_counts_candidates_and_exact_rescores(tmp_path):
    # On a Zipf corpus head entities pool most chunks, and the error bound
    # lets only a few candidates per step reach the exact re-score.
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(longtail_corpus_jsonl()) + "\n", encoding="utf-8")
    config = RunConfig(input=str(corpus), workdir=str(tmp_path / "out"))
    manifest = run_pipeline(config)
    counts = next(s["counts"] for s in manifest["stages"] if s["name"] == "sample")
    assert 0 < counts["rescored"] <= counts["candidates"]
    assert counts["rescored"] * 20 < counts["candidates"]
    # The scan walks fewer columns than the pools hold candidates.
    assert 0 < counts["scanned"] < counts["candidates"]


# sha256 of paths.jsonl and embeddings.json on the long-tail corpus, per
# traversal config; a change to how sample ranks or embeds must keep them.
TRAVERSAL_DIGESTS = {
    "one_hop": (
        {"hop_policy": "one_hop"},
        "ec5f074f1464234559cc02e52b59b31e25d9ac2fa233f92c9ef183d6df7c4bd7",
    ),
    "two_hop": (
        {"hop_policy": "two_hop"},
        "56253329e8cb078a2fa6474f8e36c891c564e6d7fdf8f41093f49e349b57a2f0",
    ),
    "mixed_depth_3": (
        {"hop_policy": "mixed", "depth": 3},
        "b436626fd833f83175767bf002c5d94915178974f908826a53134e7a61012cb6",
    ),
    "same_document_only": (
        {"hop_policy": "two_hop", "same_document_only": True},
        "81d83d795a5480a6f2e1ab64418bc4ab91c8fd52b0f7be309361dc8c3a56f72a",
    ),
}
LONGTAIL_EMBEDDINGS_DIGEST = "b38a286fb5a9b1c3da0ee5174262339b890963179545766193d6ee5fa9853dda"


@pytest.mark.parametrize("name", list(TRAVERSAL_DIGESTS))
def test_sample_artifacts_match_their_golden_digests(tmp_path, name):
    traversal, paths_digest = TRAVERSAL_DIGESTS[name]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(longtail_corpus_jsonl()) + "\n", encoding="utf-8")
    config = RunConfig(
        input=str(corpus), workdir=str(tmp_path / "out"), traversal=TraversalConfig(**traversal)
    )
    run_pipeline(config)
    workdir = Path(config.workdir)
    assert sha256_file(workdir / "paths.jsonl") == paths_digest
    assert sha256_file(workdir / "embeddings.json") == LONGTAIL_EMBEDDINGS_DIGEST


@pytest.mark.parametrize("name", list(TRAVERSAL_DIGESTS))
def test_sample_embeds_texts_in_a_fixed_order(tmp_path, monkeypatch, name):
    # The sampler embeds each chunk of the entity map once, in chunk-id
    # order, when it is built: a backend that embeds in batches sees this order.
    texts: list[str] = []
    embed = HashEmbeddingBackend.embed

    def recording_embed(self, text):
        texts.append(text)
        return embed(self, text)

    monkeypatch.setattr(HashEmbeddingBackend, "embed", recording_embed)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(longtail_corpus_jsonl()) + "\n", encoding="utf-8")
    config = RunConfig(
        input=str(corpus),
        workdir=str(tmp_path / "out"),
        traversal=TraversalConfig(**TRAVERSAL_DIGESTS[name][0]),
    )
    run_pipeline(config)
    workdir = Path(config.workdir)
    store = load_chunks(workdir / "chunks.jsonl")
    entity_map = load_entity_map(workdir / "entities.jsonl")
    chunk_ids = sorted({c for rec in entity_map for c in rec.chunk_ids})
    assert len(chunk_ids) == 40
    assert texts == [store.get(c).text for c in chunk_ids]


# sha256 of the balance and generation artifacts on the long-tail corpus at
# seed 7, per traversal setting of the run's default config; a change to how
# requests are rendered, records built or written, or the seed passed down
# must keep them.
GENERATION_DIGESTS = {
    "default": (
        {},
        {
            "subsets.jsonl": "81250ee739adf881a7d4b078cfb44ef6fe846b1fc72cb060266f71ffe1d7fc07",
            "synth.jsonl": "da8580cdded759545cdb8b55d78e7e6562b9801e820dea552963ffd8c7623364",
            "synth_manifest.json": "757d6067c887641f6d9e4a444aa37896f742c0a62213d9583adae884ff536be6",
        },
    ),
    "same_document_only": (
        {"same_document_only": True},
        {
            "subsets.jsonl": "4543d48d0288ad48cb23b5f1a1bdc07974e57a7c8425b285937f3ef7279bd6fd",
            "synth.jsonl": "b96732ab52c72925e31d6154cd5b122c3ae99857da1d8e4ffa52b6f8503db5c5",
            "synth_manifest.json": "49f12bca716487d5ecbb8d9dd5b10e7b5846e22359b17819cea57c90ddd451fd",
        },
    ),
}


@pytest.mark.parametrize("name", list(GENERATION_DIGESTS))
def test_generation_artifacts_match_their_golden_digests(tmp_path, name):
    traversal, digests = GENERATION_DIGESTS[name]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(longtail_corpus_jsonl()) + "\n", encoding="utf-8")
    config = RunConfig(
        input=str(corpus), workdir=str(tmp_path / "out"), seed=7,
        traversal=TraversalConfig(hop_policy="auto", **traversal),
    )
    run_pipeline(config)
    workdir = Path(config.workdir)
    assert {name: sha256_file(workdir / name) for name in digests} == digests


def test_rerun_identical_digests(tmp_path):
    a = load_config(_write_config(tmp_path, _config_dict(tmp_path, "out_a"), "a.yaml"))
    b = load_config(_write_config(tmp_path, _config_dict(tmp_path, "out_b"), "b.yaml"))
    ma = run_pipeline(a)
    mb = run_pipeline(b)
    for sa, sb in zip(ma["stages"], mb["stages"]):
        da = {Path(p).name: h for p, h in sa["outputs"].items()}
        db = {Path(p).name: h for p, h in sb["outputs"].items()}
        assert da == db, f"stage {sa['name']} artifacts differ"


def test_stage_isolation_resume_reproduces_deleted_artifact(tmp_path):
    config = load_config(_write_config(tmp_path, _config_dict(tmp_path)))
    first = run_pipeline(config)
    subsets_path = Path(config.workdir) / "subsets.jsonl"
    original = sha256_file(subsets_path)
    subsets_path.unlink()
    second = run_pipeline(config)
    assert sha256_file(subsets_path) == original
    skipped = {s["name"]: s["skipped"] for s in second["stages"]}
    assert skipped["ingest"] and skipped["sample"]
    assert not skipped["balance"]


def test_stage_isolation_holds_for_sample_under_auto_hop_schedule(tmp_path):
    # The auto hop schedule consults previously generated synthetic volume;
    # the recorded decision must keep a paths.jsonl rebuild byte-identical
    # even though synth.jsonl still exists.
    config = load_config(_write_config(tmp_path, _config_dict(tmp_path)))
    run_pipeline(config)
    paths_path = Path(config.workdir) / "paths.jsonl"
    original = sha256_file(paths_path)
    paths_path.unlink()
    manifest = run_pipeline(config)
    assert sha256_file(paths_path) == original
    sample_entry = next(s for s in manifest["stages"] if s["name"] == "sample")
    assert not sample_entry["skipped"]
    assert sample_entry["counts"]["hop_policy"] == "one_hop"


def _longtail_config(tmp_path: Path, workdir: str, seed: int = 7) -> RunConfig:
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(longtail_corpus_jsonl()) + "\n", encoding="utf-8")
    return RunConfig(input=str(corpus), workdir=str(tmp_path / workdir), seed=seed)


# A rerun skips every stage whose outputs exist, whatever config or file
# contents they were built from. These two tests pass once a rerun checks
# what each artifact was built from.
@pytest.mark.xfail(strict=True, reason="a rerun reuses artifacts built from another seed")
def test_a_rerun_with_another_seed_rebuilds_the_paths(tmp_path):
    run_pipeline(_longtail_config(tmp_path, "out"))
    run_pipeline(_longtail_config(tmp_path, "out", seed=8))
    run_pipeline(_longtail_config(tmp_path, "clean", seed=8))
    paths = "paths.jsonl"
    assert (tmp_path / "out" / paths).read_bytes() == (tmp_path / "clean" / paths).read_bytes()


@pytest.mark.xfail(strict=True, reason="a rerun reuses an artifact that was truncated")
def test_a_rerun_restores_a_truncated_artifact(tmp_path):
    config = _longtail_config(tmp_path, "out")
    run_pipeline(config)
    paths = Path(config.workdir) / "paths.jsonl"
    original = paths.read_bytes()
    paths.write_bytes(original[:100])
    run_pipeline(config)
    assert paths.read_bytes() == original


RESUME_CONFIGS = {
    "default": {},
    "mixed_depth_3": {"traversal": {"hop_policy": "mixed", "depth": 3}},
    "same_document_only": {"traversal": {"same_document_only": True}},
    "target_coverage_0.8": {"balance": {"target_coverage": 0.8}},
}


def _artifact_bytes(workdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in workdir.iterdir() if p.name != "run_manifest.json"}


@pytest.mark.parametrize("name", list(RESUME_CONFIGS))
def test_resume_from_every_stage_reproduces_the_full_run(tmp_path, name):
    data = _config_dict(tmp_path)
    for section, values in RESUME_CONFIGS[name].items():
        data[section].update(values)
    config = load_config(_write_config(tmp_path, data))
    stages = run_pipeline(config)["stages"]
    full = _artifact_bytes(Path(config.workdir))
    for i, stage in enumerate(stages):
        for later in stages[i:]:
            for output in later["outputs"]:
                Path(output).unlink()
        manifest = run_pipeline(config)
        assert [s["skipped"] for s in manifest["stages"]] == [j < i for j in range(len(stages))]
        assert _artifact_bytes(Path(config.workdir)) == full, f"resumed at {stage['name']}"


def test_cold_and_rebuild_runs_parse_and_hash_each_artifact_once(tmp_path, monkeypatch):
    from graphsynth import balance, cli, corpus, extraction, graph, synthesis, traversal

    calls: Counter = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(path, *args, **kwargs):
            calls[name, str(path)] += 1
            return original(path, *args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(corpus, "load_chunks")
    count(extraction, "load_entity_map")
    count(graph, "load_graph")
    count(traversal, "load_paths")
    count(balance, "load_subsets")
    count(synthesis, "load_synthetic_corpus")
    count(cli, "sha256_file")

    def check(manifest):
        loads = Counter(name for name, _ in calls.elements() if name != "sha256_file")
        assert max(loads.values(), default=0) <= 1, loads
        hashed = {path: n for (name, path), n in calls.items() if name == "sha256_file"}
        assert set(hashed.values()) == {1}
        assert set(hashed) == {
            p for s in manifest["stages"] for p in [*s["inputs"], *s["outputs"]]
        }

    config = load_config(_write_config(tmp_path, _config_dict(tmp_path)))
    check(run_pipeline(config))
    assert not [name for name, _ in calls if name != "sha256_file"]  # all handed on

    workdir = Path(config.workdir)
    for name in ("subsets.jsonl", "synth.jsonl", "synth_manifest.json", "comparison.json"):
        (workdir / name).unlink()
    calls.clear()
    check(run_pipeline(config))


def test_forced_rerun_sums_the_previous_corpus_without_parsing_it(tmp_path, monkeypatch):
    from graphsynth import synthesis

    config = load_config(_write_config(tmp_path, _config_dict(tmp_path)))
    run_pipeline(config)
    workdir = Path(config.workdir)
    expected = sum(
        len(r.narrative)
        + sum(len(item["question"]) + len(item["answer"]) for item in r.qa or [])
        + len(r.comparison or "")
        for r in synthesis.load_synthetic_corpus(workdir / "synth.jsonl")
        if r.status == "ok"
    )
    loads = []
    monkeypatch.setattr(synthesis, "load_synthetic_corpus", loads.append)
    run_pipeline(config, force=True)
    assert loads == []
    decision = json.loads((workdir / "hop_decision.json").read_text(encoding="utf-8"))
    assert decision["accumulated_chars"] == expected > 0


def test_an_analyze_only_rebuild_reads_outcomes_not_records(tmp_path, monkeypatch):
    from graphsynth import synthesis

    config = load_config(_write_config(tmp_path, _config_dict(tmp_path)))
    run_pipeline(config)
    workdir = Path(config.workdir)
    reports = sorted(workdir.glob("report_*.csv")) + sorted(workdir.glob("hist_*.svg"))
    full = {p.name: p.read_bytes() for p in [*reports, workdir / "comparison.json"]}
    for name in full:
        (workdir / name).unlink()

    def refuse(path):
        raise AssertionError("an analyze-only rebuild built the synthetic records")

    monkeypatch.setattr(synthesis, "load_synthetic_corpus", refuse)
    manifest = run_pipeline(config)
    assert [s["name"] for s in manifest["stages"] if not s["skipped"]] == ["analyze"]
    assert {name: (workdir / name).read_bytes() for name in full} == full


@pytest.mark.parametrize("concurrency", ["1", "3"])
def test_generate_writes_the_same_corpus_at_any_concurrency(tmp_path, concurrency):
    config = load_config(_write_config(tmp_path, _config_dict(tmp_path)))
    run_pipeline(config)  # generation.concurrency 2
    out = Path(config.workdir)
    synth, manifest = tmp_path / "synth.jsonl", tmp_path / "synth_manifest.json"
    args = _remote_generate_args(out, synth)
    args[args.index("remote")] = "mock"
    assert main(args + ["--concurrency", concurrency, "--manifest", str(manifest)]) == EXIT_OK
    assert synth.read_bytes() == (out / "synth.jsonl").read_bytes()
    assert manifest.read_bytes() == (out / "synth_manifest.json").read_bytes()


def test_forced_rerun_analyzes_the_records_it_generated(tmp_path):
    # The auto hop schedule reads the previous run's synth.jsonl in sample;
    # once generate rewrites the file, analyze must count the new records.
    data = _config_dict(tmp_path)
    run_pipeline(load_config(_write_config(tmp_path, data)))
    workdir = Path(data["workdir"])
    seed_7 = (workdir / "report_synth.csv").read_bytes()
    data["seed"] = 8
    run_pipeline(load_config(_write_config(tmp_path, data)), force=True)
    report = tmp_path / "report_synth.csv"
    assert main(
        [
            "analyze", "--source", "synth", "--entities", str(workdir / "entities.jsonl"),
            "--subsets", str(workdir / "subsets.jsonl"), "--paths", str(workdir / "paths.jsonl"),
            "--synth", str(workdir / "synth.jsonl"), "--out", str(report),
        ]
    ) == EXIT_OK
    assert (workdir / "report_synth.csv").read_bytes() == report.read_bytes() != seed_7


def test_sample_rebuild_reuses_the_embedding_cache(tmp_path, monkeypatch):
    from graphsynth.embedding import HashEmbeddingBackend

    texts: list[str] = []
    embed = HashEmbeddingBackend.embed

    def counted(self, text):
        texts.append(text)
        return embed(self, text)

    monkeypatch.setattr(HashEmbeddingBackend, "embed", counted)
    config = load_config(_write_config(tmp_path, _config_dict(tmp_path)))
    run_pipeline(config)
    assert texts
    paths_path = Path(config.workdir) / "paths.jsonl"
    original = paths_path.read_bytes()
    paths_path.unlink()
    texts.clear()
    manifest = run_pipeline(config)
    assert not next(s for s in manifest["stages"] if s["name"] == "sample")["skipped"]
    assert texts == []
    assert paths_path.read_bytes() == original


def test_a_failed_sample_keeps_the_vectors_it_paid_for(tmp_path, monkeypatch):
    embed = HashEmbeddingBackend.embed
    texts: list[str] = []

    def failing_after_3(self, text):
        if len(texts) == 3:
            raise BackendError("service down")
        texts.append(text)
        return embed(self, text)

    monkeypatch.setattr(HashEmbeddingBackend, "embed", failing_after_3)
    config = load_config(_write_config(tmp_path, _config_dict(tmp_path)))
    with pytest.raises(StageError, match="^stage 'sample' failed: .*service down"):
        run_pipeline(config)
    out = Path(config.workdir)
    assert len(json.loads((out / "embeddings.json").read_text())["entries"]) == 3
    assert not (out / "paths.jsonl").exists()

    def counted(self, text):
        texts.append(text)
        return embed(self, text)

    monkeypatch.setattr(HashEmbeddingBackend, "embed", counted)
    run_pipeline(config)
    rerun = texts[3:]
    assert rerun and not set(rerun) & set(texts[:3])
    texts.clear()
    fresh = load_config(_write_config(tmp_path, _config_dict(tmp_path, "fresh"), "fresh.yaml"))
    run_pipeline(fresh)
    assert len(texts) == 3 + len(rerun)
    for name in ("paths.jsonl", "embeddings.json"):
        assert (out / name).read_bytes() == (Path(fresh.workdir) / name).read_bytes()


def test_a_failed_stage_saves_every_cached_vector_and_raises_its_own_error(
    tmp_path, monkeypatch, caplog
):
    from graphsynth.embedding import EmbeddingCache

    path = tmp_path / "cache.json"
    cache = EmbeddingCache(path)
    cache.put("b", "k1", (1.0,))
    cache.put("b", "k2", (2.0,))
    cache.save()
    with pytest.raises(KeyError, match="stage"):
        with EmbeddingCache(path) as cache:
            cache.get("b", "k1")
            cache.put("b", "k3", (3.0,))
            raise KeyError("stage")
    assert len(EmbeddingCache(path)) == 3  # k2, unused, is kept too

    def full_disk(self):
        raise OSError("No space left on device")

    monkeypatch.setattr(EmbeddingCache, "save", full_disk)
    with pytest.raises(KeyError, match="stage"):
        with EmbeddingCache(path):
            raise KeyError("stage")
    assert "could not save the embedding cache" in caplog.text


def test_remote_embedding_caches_of_two_services_are_kept_apart(
    tmp_path, json_server, monkeypatch
):
    def service(dim: int):
        backend = HashEmbeddingBackend(dim=dim)
        return json_server(
            lambda n, p: (200, {"data": [{"embedding": backend.embed(p["input"][0]).tolist()}]})
        )

    first, second = service(8), service(16)
    config = load_config(_write_config(tmp_path, _config_dict(tmp_path)))
    run_pipeline(config)
    out = Path(config.workdir)

    def sample(endpoint: str, cache: str, paths: str) -> int:
        monkeypatch.setenv("GRAPHSYNTH_EMBED_ENDPOINT", endpoint)
        return main([
            "sample", "--graph", str(out / "graph.jsonl"),
            "--entities", str(out / "entities.jsonl"), "--chunks", str(out / "chunks.jsonl"),
            "--embedding-backend", "remote", "--cache", str(tmp_path / cache),
            "--out", str(tmp_path / paths),
        ])

    assert sample(first.url, "c.json", "first.jsonl") == EXIT_OK
    assert first.calls == 8  # one per chunk
    assert sample(second.url, "c.json", "second.jsonl") == EXIT_OK
    assert second.calls == 8
    assert sample(second.url, "fresh.json", "fresh.jsonl") == EXIT_OK
    assert (tmp_path / "second.jsonl").read_bytes() == (tmp_path / "fresh.jsonl").read_bytes()


def test_forced_rerun_after_a_config_change_writes_a_fresh_embedding_cache(tmp_path):
    data = _config_dict(tmp_path, "out_forced")
    run_pipeline(load_config(_write_config(tmp_path, data, "a.yaml")))
    data["chunking"]["max_chars"] = 120
    run_pipeline(load_config(_write_config(tmp_path, data, "a.yaml")), force=True)
    fresh = _config_dict(tmp_path, "out_fresh")
    fresh["chunking"]["max_chars"] = 120
    run_pipeline(load_config(_write_config(tmp_path, fresh, "b.yaml")))
    cache = "embeddings.json"
    assert (tmp_path / "out_forced" / cache).read_bytes() == (
        tmp_path / "out_fresh" / cache
    ).read_bytes()


def test_sample_and_generate_log_progress(tmp_path, caplog):
    config = load_config(_write_config(tmp_path, _config_dict(tmp_path)))
    with caplog.at_level(logging.INFO, logger="graphsynth"):
        manifest = run_pipeline(config)
    counts = {s["name"]: s["counts"] for s in manifest["stages"]}

    def messages(logger):
        return [r.getMessage() for r in caplog.records if r.name == logger]

    roots = counts["extract"]["entities"]
    sample = messages("graphsynth.traversal")
    assert 1 <= len(sample) <= 10
    assert sample[-1] == f"sample: {roots}/{roots} roots done, {counts['sample']['paths']} paths"
    records, rejected = counts["generate"]["records"], counts["generate"]["rejected"]
    generate = messages("graphsynth.synthesis")
    assert 1 <= len(generate) <= 10
    assert generate[-1] == f"generate: {records}/{records} records done, {rejected} rejected"


def test_semantic_chunking_and_mixed_hops_run_end_to_end(tmp_path):
    data = _config_dict(tmp_path)
    data["chunking"] = {"policy": "semantic", "breakpoint_percentile": 5.0}
    data["traversal"] = {"depth": 2, "beam_width": 2, "hop_policy": "mixed"}
    data["workdir"] = str(tmp_path / "out_semantic")
    config = load_config(_write_config(tmp_path, data, "semantic.yaml"))
    manifest = run_pipeline(config)
    counts = {s["name"]: s["counts"] for s in manifest["stages"]}
    assert counts["ingest"]["chunks"] >= 2
    assert counts["sample"]["paths"] > 0
    assert counts["sample"]["hop_policy"] == "mixed"
    assert counts["generate"]["rejected"] == 0


def test_sample_subcommand_names_an_entity_chunk_missing_from_the_chunks(tmp_path, capsys):
    entities = [
        EntityRecord("e1", "e1", {"e1"}, ["d1#0000"]),
        EntityRecord("e2", "e2", {"e2"}, ["d1#0000", "d1#0009"]),
    ]
    save_chunks(tmp_path / "chunks.jsonl", [Chunk("d1#0000", "d1", 0, "Some text.")], {})
    save_entity_map(tmp_path / "entities.jsonl", entities)
    save_graph(tmp_path / "graph.jsonl", build_graph(entities))
    command = [
        "sample", "--graph", str(tmp_path / "graph.jsonl"),
        "--entities", str(tmp_path / "entities.jsonl"),
        "--chunks", str(tmp_path / "chunks.jsonl"), "--out", str(tmp_path / "paths.jsonl"),
    ]
    assert main(command) == EXIT_STAGE
    assert "entity e2 references unknown chunk 'd1#0009'" in capsys.readouterr().err
    assert not (tmp_path / "paths.jsonl").exists()


def test_missing_input_aborts_at_ingest(tmp_path):
    data = _config_dict(tmp_path)
    data["input"] = str(tmp_path / "nope.jsonl")
    config = load_config(_write_config(tmp_path, data))
    with pytest.raises(StageError) as err:
        run_pipeline(config)
    assert err.value.stage == "ingest"


def _chat_server(json_server):
    """A chat endpoint answering with the mock backend's payloads."""
    mock = MockLlmBackend()

    def respond(n, payload):
        content = mock.complete(
            payload["messages"][0]["content"],
            temperature=payload["temperature"],
            max_tokens=payload["max_tokens"],
        )
        return 200, {"choices": [{"message": {"role": "assistant", "content": content}}]}

    return json_server(respond)


def test_remote_generation_matches_mock_and_closes_its_connections(
    tmp_path, json_server, monkeypatch
):
    server = _chat_server(json_server)
    mock_config = load_config(_write_config(tmp_path, _config_dict(tmp_path, "out_mock"), "m.yaml"))
    run_pipeline(mock_config)
    data = _config_dict(tmp_path, "out_remote")
    data["generation"].update(backend="remote", endpoint=server.url, model="m")
    # the config's endpoint wins over the environment's
    monkeypatch.setenv("GRAPHSYNTH_LLM_ENDPOINT", "http://127.0.0.1:9/unused")
    with warnings.catch_warnings(record=True) as caught:
        # a socket left for the garbage collector to close warns
        warnings.simplefilter("always", ResourceWarning)
        run_pipeline(load_config(_write_config(tmp_path, data, "r.yaml")))
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    for name in ("synth.jsonl", "synth_manifest.json"):
        assert (tmp_path / "out_remote" / name).read_bytes() == (
            tmp_path / "out_mock" / name
        ).read_bytes()
    assert server.calls > 0
    # generation.concurrency 2: two pooled connections, never more in flight
    assert server.accepted == 2 and server.peak_in_flight <= 2
    assert server.wait_closed() == 0


def _remote_generate_args(workdir: Path, out: Path) -> list[str]:
    return [
        "generate", "--subsets", str(workdir / "subsets.jsonl"),
        "--paths", str(workdir / "paths.jsonl"), "--chunks", str(workdir / "chunks.jsonl"),
        "--entities", str(workdir / "entities.jsonl"), "--backend", "remote", "--out", str(out),
    ]


def test_remote_backend_without_endpoint_is_a_config_error(tmp_path, monkeypatch):
    for var in ("GRAPHSYNTH_LLM_ENDPOINT", "GRAPHSYNTH_EMBED_ENDPOINT"):
        monkeypatch.delenv(var, raising=False)
    data = _config_dict(tmp_path)
    data["generation"]["backend"] = "remote"
    config_path = _write_config(tmp_path, data)
    assert main(["run", "--config", str(config_path)]) == EXIT_CONFIG
    out = Path(data["workdir"])
    assert main(_remote_generate_args(out, tmp_path / "synth.jsonl")) == EXIT_CONFIG
    assert main(
        [
            "sample", "--graph", str(out / "graph.jsonl"),
            "--entities", str(out / "entities.jsonl"), "--chunks", str(out / "chunks.jsonl"),
            "--embedding-backend", "remote", "--out", str(tmp_path / "paths.jsonl"),
        ]
    ) == EXIT_CONFIG


def test_generate_subcommand_reads_endpoint_from_environment(tmp_path, json_server, monkeypatch):
    server = _chat_server(json_server)
    config = load_config(_write_config(tmp_path, _config_dict(tmp_path)))
    run_pipeline(config)
    out = Path(config.workdir)
    monkeypatch.setenv("GRAPHSYNTH_LLM_ENDPOINT", server.url)
    synth = tmp_path / "synth.jsonl"
    assert main(_remote_generate_args(out, synth) + ["--concurrency", "2"]) == EXIT_OK
    assert synth.read_bytes() == (out / "synth.jsonl").read_bytes()
    assert server.accepted == 2 and server.peak_in_flight <= 2
    assert server.wait_closed() == 0


def test_llm_extraction_in_run_uses_the_remote_chat_service(tmp_path, json_server):
    # the service answers with the rule-based extractor's mentions, so the
    # run must reproduce the rule-based entity map
    def respond(n, payload):
        passage = payload["messages"][0]["content"].split("Passage:\n", 1)[1]
        chunk = Chunk(chunk_id="c#0000", doc_id="c", ordinal=0, text=passage)
        mentions = RuleBasedExtractor().extract(chunk).raw_mentions
        return 200, {"choices": [{"message": {"content": json.dumps(mentions)}}]}

    server = json_server(respond)
    rule_config = load_config(_write_config(tmp_path, _config_dict(tmp_path, "out_rule"), "a.yaml"))
    run_pipeline(rule_config)
    data = _config_dict(tmp_path, "out_llm")
    data["extraction"] = {"backend": "llm"}
    data["generation"].update(endpoint=server.url, model="m")
    assert main(["run", "--config", str(_write_config(tmp_path, data, "b.yaml"))]) == EXIT_OK
    entities = "entities.jsonl"
    assert (tmp_path / "out_llm" / entities).read_bytes() == (
        tmp_path / "out_rule" / entities
    ).read_bytes()
    assert server.calls == 8  # one per chunk; generation stays on the mock
    assert server.wait_closed() == 0


def test_llm_extraction_without_endpoint_is_a_config_error(tmp_path, monkeypatch):
    monkeypatch.delenv("GRAPHSYNTH_LLM_ENDPOINT", raising=False)
    data = _config_dict(tmp_path)
    data["extraction"] = {"backend": "llm"}
    assert main(["run", "--config", str(_write_config(tmp_path, data))]) == EXIT_CONFIG


def test_sample_with_a_remote_embedding_service_matches_the_hash_run(
    tmp_path, json_server, monkeypatch
):
    # the service answers with the hash backend's vectors, so the sampled
    # paths must be those of the hash run at the same dim
    hash8 = HashEmbeddingBackend(dim=8)
    server = json_server(
        lambda n, p: (200, {"data": [{"embedding": hash8.embed(p["input"][0]).tolist()}]})
    )
    config = load_config(_write_config(tmp_path, _config_dict(tmp_path)))
    run_pipeline(config)
    out = Path(config.workdir)
    monkeypatch.setenv("GRAPHSYNTH_EMBED_ENDPOINT", server.url)

    def sample(paths: Path, *flags: str) -> list[str]:
        return [
            "sample", "--graph", str(out / "graph.jsonl"),
            "--entities", str(out / "entities.jsonl"), "--chunks", str(out / "chunks.jsonl"),
            *flags, "--out", str(paths),
        ]

    assert main(sample(tmp_path / "hash.jsonl", "--dim", "8")) == EXIT_OK
    assert main(sample(tmp_path / "remote.jsonl", "--embedding-backend", "remote")) == EXIT_OK
    assert (tmp_path / "remote.jsonl").read_bytes() == (tmp_path / "hash.jsonl").read_bytes()
    assert server.calls > 0
    assert server.wait_closed() == 0


def test_an_offline_run_never_loads_the_http_client(tmp_path):
    # the remote client, and with it http.client and ssl, is imported only
    # when a remote backend is built
    config_path = _write_config(tmp_path, _config_dict(tmp_path))
    script = (
        "import sys\n"
        "from graphsynth.cli import main\n"
        f"assert main(['run', '--config', {str(config_path)!r}]) == 0\n"
        "print([m for m in ('graphsynth.remote', 'http.client', 'ssl') if m in sys.modules])\n"
    )
    path = [str(Path(graphsynth.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.splitlines()[-1] == "[]"


# --- CLI surface ----------------------------------------------------------------------


def test_cli_run_and_exit_codes(tmp_path, capsys):
    config_path = _write_config(tmp_path, _config_dict(tmp_path))
    assert main(["run", "--config", str(config_path)]) == EXIT_OK

    bad = _config_dict(tmp_path)
    bad["traversal"]["beam_width"] = 0
    bad_path = _write_config(tmp_path, bad, "bad.yaml")
    assert main(["validate", "--config", str(bad_path)]) == EXIT_CONFIG
    assert main(["run", "--config", str(bad_path)]) == EXIT_CONFIG

    missing = _config_dict(tmp_path)
    missing["input"] = str(tmp_path / "absent.jsonl")
    missing["workdir"] = str(tmp_path / "out_missing")
    missing_path = _write_config(tmp_path, missing, "missing.yaml")
    assert main(["run", "--config", str(missing_path)]) == EXIT_STAGE


def test_cli_reports_malformed_yaml_as_a_config_error(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("seed: 1\ninput: [unclosed\n", encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}, line 3: not valid YAML (")
    assert err.count("\n") == 1


def test_cli_reports_a_config_path_that_is_a_directory(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path)]) == EXIT_STAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err
    assert err.count("\n") == 1


def test_graph_stats_reports_a_malformed_graph_file(tmp_path, capsys):
    path = tmp_path / "graph.jsonl"
    path.write_text('{"kind": "node", "entity_id": "e1"}\n{"kind": "node"\n', encoding="utf-8")
    assert main(["graph", "stats", "--graph", str(path)]) == EXIT_STAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}, line 2: not valid JSON (")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "line",
    [
        "[]",
        '{"path_id": "p1"}',
        '{"steps": [["e00001"]]}',
        '{"path_id": 5, "steps": [["e00001", "d1#0000"]]}',
    ],
)
def test_cli_reports_a_paths_record_of_the_wrong_shape(tmp_path, capsys, line):
    config_path = _write_config(tmp_path, _config_dict(tmp_path))
    assert main(["run", "--config", str(config_path)]) == EXIT_OK
    out = tmp_path / "out"
    (out / "paths.jsonl").write_text(line + "\n", encoding="utf-8")
    (out / "subsets.jsonl").unlink()
    capsys.readouterr()
    assert main(["run", "--config", str(config_path)]) == EXIT_STAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: stage 'balance' failed: {out / 'paths.jsonl'}, line 1: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "name, key, value, later, stage, problem",
    [
        (
            "entities.jsonl", "chunk_ids", 5, "graph.jsonl", "graph",
            "chunk_ids 5 is not a list of chunk ids",
        ),
        (
            "entities.jsonl", "chunk_ids", ["c1", 5], "graph.jsonl", "graph",
            "chunk_ids ['c1', 5] is not a list of chunk ids",
        ),
        (
            "chunks.jsonl", "ordinal", "x", "entities.jsonl", "extract",
            "invalid literal for int() with base 10: 'x'",
        ),
        ("chunks.jsonl", "text", 5, "entities.jsonl", "extract", "text 5 is not a string"),
        ("chunks.jsonl", "chunk_id", 7, "entities.jsonl", "extract", "chunk_id 7 is not a string"),
        ("chunks.jsonl", "doc_id", None, "entities.jsonl", "extract", "doc_id None is not a string"),
        (
            "chunks.jsonl", "doc_title", ["t"], "entities.jsonl", "extract",
            "doc_title ['t'] is not a string",
        ),
    ],
)
def test_cli_reports_a_chunk_or_entity_line_of_the_wrong_shape(
    tmp_path, capsys, name, key, value, later, stage, problem
):
    config_path = _write_config(tmp_path, _config_dict(tmp_path))
    assert main(["run", "--config", str(config_path)]) == EXIT_OK
    out = tmp_path / "out"
    lines = (out / name).read_text(encoding="utf-8").splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), key: value})
    (out / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out / later).unlink()
    capsys.readouterr()
    assert main(["run", "--config", str(config_path)]) == EXIT_STAGE
    err = capsys.readouterr().err
    assert err == f"error: stage '{stage}' failed: {out / name}, line 1: {problem}\n"


def test_graph_stats_reports_a_file_that_is_no_graph(tmp_path, capsys):
    corpus = _write_corpus(tmp_path)
    assert main(["graph", "stats", "--graph", str(corpus)]) == EXIT_STAGE
    err = capsys.readouterr().err
    assert err == f"error: {corpus}, line 1: missing key(s) 'kind'\n"


@pytest.mark.parametrize(
    "line, problem",
    [
        ('{"kind": "node"}', "missing key(s) 'entity_id'"),
        ('{"kind": "edge", "source": "a", "target": "b"}', "missing key(s) 'provenance'"),
        ('{"kind": "vertex", "entity_id": "b"}', "kind 'vertex' is neither 'node' nor 'edge'"),
    ],
)
def test_graph_stats_reports_a_line_of_the_wrong_shape(tmp_path, capsys, line, problem):
    graph = tmp_path / "graph.jsonl"
    graph.write_text('{"entity_id": "a", "kind": "node"}\n' + line + "\n", encoding="utf-8")
    assert main(["graph", "stats", "--graph", str(graph)]) == EXIT_STAGE
    assert capsys.readouterr().err == f"error: {graph}, line 2: {problem}\n"


@pytest.mark.parametrize(
    "item, problem",
    [
        (
            {"left": ["e1", "c1"], "right": ["e2", "c2"]},
            "a cc_pairs item is not an object with pair_id, left and right",
        ),
        (
            {"pair_id": "cc-0-0", "left": ["e1"], "right": ["e2", "c2"]},
            "['e1'] is not an [entity_id, chunk_id] pair",
        ),
    ],
)
def test_cli_reports_a_cc_pair_of_the_wrong_shape(tmp_path, capsys, item, problem):
    config_path = _write_config(tmp_path, _config_dict(tmp_path))
    assert main(["run", "--config", str(config_path)]) == EXIT_OK
    out = tmp_path / "out"
    subsets = out / "subsets.jsonl"
    rec = json.loads(subsets.read_text(encoding="utf-8").splitlines()[0])
    subsets.write_text(json.dumps({**rec, "cc_pairs": [item]}) + "\n", encoding="utf-8")
    (out / "synth.jsonl").unlink()
    capsys.readouterr()
    assert main(["run", "--config", str(config_path)]) == EXIT_STAGE
    err = capsys.readouterr().err
    assert err == f"error: stage 'generate' failed: {subsets}, line 1: {problem}\n"


@pytest.mark.parametrize(
    "field, value, problem",
    [
        ("cot_path_ids", "p000000", "cot_path_ids 'p000000' is not a list of path ids"),
        ("cot_path_ids", [0], "cot_path_ids [0] is not a list of path ids"),
        ("subset_index", 0.5, "subset_index 0.5 is not an int"),
        ("subset_index", False, "subset_index False is not an int"),
    ],
)
def test_cli_reports_a_subset_line_of_the_wrong_shape(tmp_path, capsys, field, value, problem):
    config_path = _write_config(tmp_path, _config_dict(tmp_path))
    assert main(["run", "--config", str(config_path)]) == EXIT_OK
    out = tmp_path / "out"
    subsets = out / "subsets.jsonl"
    rec = json.loads(subsets.read_text(encoding="utf-8").splitlines()[0])
    subsets.write_text(json.dumps({**rec, field: value}) + "\n", encoding="utf-8")
    (out / "synth.jsonl").unlink()
    capsys.readouterr()
    assert main(["run", "--config", str(config_path)]) == EXIT_STAGE
    err = capsys.readouterr().err
    assert err == f"error: stage 'generate' failed: {subsets}, line 1: {problem}\n"


@pytest.mark.parametrize(
    "text, problem",
    [
        ("{}", "hop_policy is neither 'one_hop' nor 'two_hop'"),
        ('{"hop_policy": "three_hop"}', "hop_policy is neither 'one_hop' nor 'two_hop'"),
        ("one_hop", "not valid JSON (Expecting value: line 1 column 1 (char 0))"),
    ],
)
def test_cli_reports_a_damaged_hop_decision_by_name(tmp_path, capsys, text, problem):
    config_path = _write_config(tmp_path, _config_dict(tmp_path))
    assert main(["run", "--config", str(config_path)]) == EXIT_OK
    out = tmp_path / "out"
    decision = out / "hop_decision.json"
    decision.write_text(text, encoding="utf-8")
    (out / "paths.jsonl").unlink()
    capsys.readouterr()
    assert main(["run", "--config", str(config_path)]) == EXIT_STAGE
    assert capsys.readouterr().err == f"error: stage 'sample' failed: {decision}: {problem}\n"


def test_cli_names_what_an_auto_standard_length_resolved_to(tmp_path, capsys):
    # three one-sentence chunks and one-hop paths: auto gives floor(3 / 2) = 1
    text = (
        "Amber Holdings paid Basalt Energy. Basalt Energy paid Cobalt Metals. "
        "Cobalt Metals paid Amber Holdings."
    )
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        json.dumps({"doc_id": "d1", "title": "T", "text": text}) + "\n", encoding="utf-8"
    )
    data = {"input": str(corpus), "workdir": str(tmp_path / "out"), "chunking": {"max_chars": 40}}
    assert main(["run", "--config", str(_write_config(tmp_path, data))]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: balance.standard_length must be >= 2 when the CC branch triggers; "
        "'auto' resolved it to 1 from 3 chunks at hop 1\n"
    )


def test_cli_reports_a_damaged_embedding_cache_by_name(tmp_path, capsys):
    config_path = _write_config(tmp_path, _config_dict(tmp_path))
    assert main(["run", "--config", str(config_path)]) == EXIT_OK
    out = tmp_path / "out"
    cache = out / "embeddings.json"
    cache.write_bytes(cache.read_bytes()[:300])
    (out / "paths.jsonl").unlink()
    capsys.readouterr()
    assert main(["run", "--config", str(config_path)]) == EXIT_STAGE
    err = capsys.readouterr().err
    where = f"{cache}, line 1 column 301"
    assert err.startswith(f"error: stage 'sample' failed: {where}: not valid JSON (")
    assert err.count("\n") == 1
    assert len(cache.read_bytes()) == 300  # the failed load wrote nothing over it


@pytest.mark.parametrize("key, value", [("workdir", 5), ("input", ["a"])])
def test_cli_rejects_a_top_level_value_of_the_wrong_type(
    tmp_path, monkeypatch, capsys, key, value
):
    monkeypatch.chdir(tmp_path)
    data = _config_dict(tmp_path)
    data[key] = value
    path = _write_config(tmp_path, data)
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count(f"config error: {key} must be str, not {value!r}") == 2
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "5").exists()


def test_cli_rejects_a_boolean_seed(tmp_path, capsys):
    data = _config_dict(tmp_path)
    data["seed"] = True
    path = _write_config(tmp_path, data)
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    assert "seed must be int, not True" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("chunking", "max_chars", "300"),
        ("traversal", "beam_width", 2.5),
        ("balance", "standard_length", True),
        ("traversal", "same_document_only", "yes"),
        ("generation", "endpoint", 8080),
    ],
)
def test_cli_rejects_a_config_value_of_the_wrong_type(tmp_path, capsys, section, key, value):
    data = _config_dict(tmp_path)
    data.setdefault(section, {})[key] = value
    path = _write_config(tmp_path, data)
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    assert f"{section}.{key} must be " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_types_accept_an_int_for_a_float_and_null_for_an_optional(tmp_path):
    data = _config_dict(tmp_path)
    data["balance"]["target_coverage"] = 1
    data["generation"]["temperature"] = 0
    data["extraction"] = {"aliases": None}
    config = load_config(_write_config(tmp_path, data))
    assert (config.balance.target_coverage, config.generation.temperature) == (1, 0)
    assert validate_config(config) == []


def test_cli_stagewise_chain(tmp_path):
    # the _config_dict run, one subcommand at a time
    config = load_config(_write_config(tmp_path, _config_dict(tmp_path)))
    run_pipeline(config)
    workdir = Path(config.workdir)
    out = tmp_path / "chain"
    out.mkdir()

    def f(name):
        return str(out / name)

    files = ["--chunks", f("chunks.jsonl"), "--entities", f("entities.jsonl")]
    commands = [
        ["ingest", "--input", config.input, "--out", f("chunks.jsonl"), "--max-chars", "55"],
        ["extract", *files[:2], "--backend", "rule", "--out", f("entities.jsonl")],
        ["graph", "build", "--entities", f("entities.jsonl"), "--out", f("graph.jsonl")],
        ["graph", "stats", "--graph", f("graph.jsonl")],
        [
            "sample", "--graph", f("graph.jsonl"), *files, "-S", "3", "-D", "2", "-W", "2",
            "--hop-policy", "one_hop", "--seed", "7", "--cache", f("embeddings.json"),
            "--out", f("paths.jsonl"),
        ],
        [
            "balance", "--paths", f("paths.jsonl"), *files, "-r", "1.0", "-l", "auto",
            "--seed", "7", "--out", f("subsets.jsonl"),
        ],
        [
            "generate", "--subsets", f("subsets.jsonl"), "--paths", f("paths.jsonl"), *files,
            "--backend", "mock", "--temperature", "0.7", "--concurrency", "2",
            "--manifest", f("synth_manifest.json"), "--out", f("synth.jsonl"),
        ],
    ]
    for source in ("raw", "subsets", "synth"):
        command = [
            "analyze", "--source", source, "--entities", f("entities.jsonl"),
            "--subsets", f("subsets.jsonl"), "--paths", f("paths.jsonl"),
            "--synth", f("synth.jsonl"), "--out", f(f"report_{source}.csv"),
        ]
        if source != "synth":
            command += ["--plot", f(f"hist_{source}.svg")]
        commands.append(command)
    for command in commands:
        assert main(command) == EXIT_OK, command

    written = sorted(p.name for p in out.iterdir())
    assert written == sorted(
        [
            "chunks.jsonl", "entities.jsonl", "graph.jsonl", "paths.jsonl", "embeddings.json",
            "subsets.jsonl", "synth.jsonl", "synth_manifest.json", "report_raw.csv",
            "report_subsets.csv", "report_synth.csv", "hist_raw.svg", "hist_subsets.svg",
        ]
    )
    for name in written:
        assert (out / name).read_bytes() == (workdir / name).read_bytes(), name


def test_extract_subcommand_applies_the_alias_table(tmp_path):
    config = load_config(_write_config(tmp_path, _config_dict(tmp_path)))
    run_pipeline(config)
    workdir = Path(config.workdir)
    aliases = tmp_path / "aliases.jsonl"
    aliases.write_text(
        json.dumps({"surface": "LANTERN EXCHANGE", "canonical": "ruben tide"}) + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "entities.jsonl"
    command = [
        "extract", "--chunks", str(workdir / "chunks.jsonl"), "--aliases", str(aliases),
        "--out", str(out),
    ]
    assert main(command) == EXIT_OK
    before = {rec.canonical_name: rec for rec in load_entity_map(workdir / "entities.jsonl")}
    after = {rec.canonical_name: rec for rec in load_entity_map(out)}
    assert set(after) == set(before) - {"lantern exchange"}
    merged, tide = before["lantern exchange"], before["ruben tide"]
    assert after["ruben tide"].aliases == tide.aliases | merged.aliases
    assert after["ruben tide"].chunk_ids == sorted(set(tide.chunk_ids + merged.chunk_ids))


def _stage_command(workdir: Path, out: Path, stage: str) -> list[str]:
    def files(*names):
        return [arg for n in names for arg in (f"--{n}", str(workdir / f"{n}.jsonl"))]

    return {
        "ingest": ["ingest", "--input", str(workdir.parent / "corpus.jsonl")],
        "sample": ["sample", *files("graph", "entities", "chunks")],
        "balance": ["balance", *files("paths", "entities", "chunks")],
        "generate": ["generate", *files("subsets", "paths", "chunks", "entities")],
        "analyze": ["analyze", "--source", "raw", *files("entities")],
    }[stage] + ["--out", str(out)]


@pytest.mark.parametrize(
    "stage, flags, problem",
    [
        ("balance", ["-l", "abc"], "balance.standard_length"),
        ("ingest", ["--max-chars", "0"], "chunking.max_chars"),
        ("sample", ["--dim", "0"], "embedding.dim"),
        ("generate", ["--temperature", "9"], "generation.temperature"),
        ("generate", ["--retries", "-1"], "generation.max_retries"),
        ("generate", ["--concurrency", "0"], "generation.concurrency"),
        ("analyze", ["--buckets", "0"], "analysis.buckets"),
        ("analyze", ["--source", "synth"], "needs the subsets file"),
    ],
)
def test_stage_subcommands_validate_like_run(tmp_path, capsys, stage, flags, problem):
    config = load_config(_write_config(tmp_path, _config_dict(tmp_path)))
    run_pipeline(config)
    capsys.readouterr()
    out = tmp_path / "out.file"
    assert main(_stage_command(Path(config.workdir), out, stage) + flags) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and problem in err
    assert "Traceback" not in err
    assert not out.exists()
