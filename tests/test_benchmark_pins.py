"""The pipeline still writes the artifacts ``benchmarks/pins.json`` pins.

The benchmark fails an op whose seed-0 artifacts differ from the pins; this
builds the same corpora and configs with ``benchmarks/run.py``'s own helpers
and mock generation, so a change of output shows here first.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from graphsynth.cli import load_config, run_pipeline

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

# The artifacts made from the chat replies; remote-generate's come from the
# benchmark's stub server, not from the mock backend.
FROM_REPLIES = {"synth.jsonl", "synth_manifest.json", "report_synth.csv", "comparison.json"}


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCHMARKS))  # run.py imports its sibling corpus_gen.py
    spec = importlib.util.spec_from_file_location("benchmark_run", BENCHMARKS / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where its dataclasses look themselves up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCHMARKS))
        del sys.modules[spec.name]
    return module


def test_rebuild_balance_pins_the_cold_zipf_artifacts(bench):
    pins = json.loads(bench.PINS.read_text(encoding="utf-8"))
    assert pins["rebuild-balance"] == pins["cold-zipf"]


@pytest.mark.parametrize("name", ["cold-zipf", "remote-generate"])
def test_seed_0_artifacts_match_the_pins(bench, tmp_path, name):
    workload = bench.WORKLOADS[name]
    corpus = bench.corpus_gen.generate_corpus(
        bench.DEFAULT_SEED, docs=workload.docs, sentences=bench.SENTENCES,
        vocab=workload.vocab, zipf_s=bench.ZIPF_S,
    )
    bench.corpus_gen.write_corpus(tmp_path / "corpus.jsonl", corpus)
    config = tmp_path / "config.yaml"
    bench.write_config(config, tmp_path / "corpus.jsonl", tmp_path / "out", None)
    run_pipeline(load_config(config))
    pins = json.loads(bench.PINS.read_text(encoding="utf-8"))[name]
    expected = set(bench.PINNED) - (FROM_REPLIES if workload.remote else set())
    assert set(pins) >= expected
    found = bench.digests(tmp_path / "out")
    assert {n: found.get(n) for n in sorted(expected)} == {n: pins[n] for n in sorted(expected)}
