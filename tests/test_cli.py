from __future__ import annotations

import gc
import json
import warnings
from pathlib import Path

import pytest
import yaml

from graphsynth.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_STAGE,
    RunConfig,
    StageError,
    load_config,
    main,
    run_pipeline,
    validate_config,
)
from graphsynth.errors import ConfigurationError
from graphsynth.synthesis import MockLlmBackend
from graphsynth.jsonl import sha256_file

from fixture_corpus import two_document_corpus


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
    config = RunConfig()
    config.traversal.beam_width = 0
    assert any("beam_width" in p for p in validate_config(config))


def test_validate_names_target_coverage():
    from graphsynth.balance import BalanceConfig

    config = RunConfig(balance=BalanceConfig(target_coverage=1.2))
    assert any("target_coverage" in p for p in validate_config(config))


def test_validate_defaults_clean():
    assert validate_config(RunConfig()) == []


def test_load_config_rejects_unknown_keys(tmp_path):
    path = _write_config(tmp_path, {"inputt": "x.jsonl"})
    with pytest.raises(ConfigurationError, match="inputt"):
        load_config(path)
    path = _write_config(tmp_path, {"traversal": {"beamwidth": 3}}, name="c2.yaml")
    with pytest.raises(ConfigurationError, match="beamwidth"):
        load_config(path)


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


def test_semantic_chunking_and_mixed_hops_run_end_to_end(tmp_path):
    data = _config_dict(tmp_path)
    data["chunking"] = {"policy": "semantic", "breakpoint_percentile": 5.0}
    data["traversal"] = {"depth": 2, "beam_width": 2, "hop_policy": "mixed", "mixed_ratio": 0.5}
    data["workdir"] = str(tmp_path / "out_semantic")
    config = load_config(_write_config(tmp_path, data, "semantic.yaml"))
    manifest = run_pipeline(config)
    counts = {s["name"]: s["counts"] for s in manifest["stages"]}
    assert counts["ingest"]["chunks"] >= 2
    assert counts["sample"]["paths"] > 0
    assert counts["sample"]["hop_policy"] == "mixed"
    assert counts["generate"]["rejected"] == 0


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
    synth = "synth.jsonl"
    assert (tmp_path / "out_remote" / synth).read_bytes() == (
        tmp_path / "out_mock" / synth
    ).read_bytes()
    assert server.calls > 0
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
    assert server.wait_closed() == 0


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


def test_cli_stagewise_chain(tmp_path):
    corpus = _write_corpus(tmp_path)
    chunks = tmp_path / "chunks.jsonl"
    entities = tmp_path / "entities.jsonl"
    graph = tmp_path / "graph.jsonl"
    paths = tmp_path / "paths.jsonl"
    subsets = tmp_path / "subsets.jsonl"
    synth = tmp_path / "synth.jsonl"
    report = tmp_path / "report.csv"
    plot = tmp_path / "hist.svg"

    assert main(
        ["ingest", "--input", str(corpus), "--out", str(chunks), "--max-chars", "55"]
    ) == EXIT_OK
    assert main(
        ["extract", "--chunks", str(chunks), "--backend", "rule", "--out", str(entities)]
    ) == EXIT_OK
    assert main(["graph", "build", "--entities", str(entities), "--out", str(graph)]) == EXIT_OK
    assert main(["graph", "stats", "--graph", str(graph)]) == EXIT_OK
    assert main(
        [
            "sample", "--graph", str(graph), "--entities", str(entities),
            "--chunks", str(chunks), "-S", "3", "-D", "2", "-W", "2",
            "--hop-policy", "one_hop", "--seed", "7", "--out", str(paths),
        ]
    ) == EXIT_OK
    assert main(
        [
            "balance", "--paths", str(paths), "--entities", str(entities),
            "--chunks", str(chunks), "-r", "1.0", "-l", "auto",
            "--seed", "7", "--out", str(subsets),
        ]
    ) == EXIT_OK
    assert main(
        [
            "generate", "--subsets", str(subsets), "--paths", str(paths),
            "--chunks", str(chunks), "--entities", str(entities),
            "--backend", "mock", "--temperature", "0.7", "--out", str(synth),
        ]
    ) == EXIT_OK
    assert main(
        [
            "analyze", "--source", "subsets", "--entities", str(entities),
            "--subsets", str(subsets), "--paths", str(paths),
            "--out", str(report), "--plot", str(plot),
        ]
    ) == EXIT_OK
    assert report.exists() and plot.exists()
    assert json.loads(synth.read_text().splitlines()[0])["status"] == "ok"
