"""Tests of the benchmark itself (not part of the repository's test suite).

    python3 -m pytest -q benchmarks/selftest.py
"""

from __future__ import annotations

import http.client
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

import corpus_gen  # noqa: E402
import run  # noqa: E402
import stub_server  # noqa: E402
from graphsynth.synthesis import REPAIR_INSTRUCTION  # noqa: E402

TINY = dict(docs=4, sentences=6, vocab=20, zipf_s=1.1)


def test_generator_is_deterministic_and_seeded():
    a = corpus_gen.generate_corpus(3, **TINY)
    assert a == corpus_gen.generate_corpus(3, **TINY)
    assert a != corpus_gen.generate_corpus(4, **TINY)
    assert len(a) == TINY["docs"]
    text = " ".join(d["text"] for d in a)
    names = corpus_gen.entity_names(TINY["vocab"], random.Random("graphsynth-bench:3"))
    assert all(len(n.split()) == 3 and n.istitle() for n in names)
    # every name of the vocabulary occurs at least once
    assert all(n in text for n in names)


def _prompt(i: int) -> str:
    return f"Fragment {i} — entity: Amber Arch Analytics\nsample text {i}\n\"qa\""


PRIMING = [_prompt(i) for i in range(200)]


def _primed_schedule() -> stub_server.FaultSchedule:
    """A schedule that has seen PRIMING once and fixed its transient prompts."""
    schedule = stub_server.FaultSchedule()
    assert all(schedule.next_fault(p) != "transient" for p in PRIMING)
    assert schedule.fix_transients() == stub_server.TRANSIENT_PROMPTS
    schedule.reset()
    return schedule


def _one_of_each(schedule: stub_server.FaultSchedule) -> list[str]:
    kinds = {schedule.fault(p, 0): p for p in PRIMING}
    return [kinds["transient"], kinds["malformed"], kinds[None]]


def test_fault_schedule_is_a_function_of_prompt_and_attempt():
    schedule = _primed_schedule()
    prompts = _one_of_each(schedule)

    def one_op():
        out = []
        for p in prompts:
            out.append(schedule.next_fault(p))
            out.append(schedule.next_fault(p + "\n\n" + REPAIR_INSTRUCTION))
        return out, schedule.calls

    first = one_op()
    assert first == (["transient", None, "malformed", "malformed", None, None], 6)
    schedule.reset()
    assert schedule.calls == 0
    assert one_op() == first


def _post(port: int, path: str, payload: dict | None) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        body = json.dumps(payload).encode() if payload is not None else b""
        conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def _chat(port: int, prompt: str) -> tuple[int, dict]:
    return _post(port, "/v1/chat/completions", {"messages": [{"role": "user", "content": prompt}]})


def test_stub_server_repeats_and_resets_between_ops():
    stub = run.Stub(run.child_env(SRC))
    try:
        for p in PRIMING:
            _chat(stub.port, p)
        stub.fix_transients()
        prompts = _one_of_each(_primed_schedule())

        def one_op():
            stub.reset()
            replies = [_chat(stub.port, p) for p in prompts + prompts]
            return replies, stub.calls()

        first = one_op()
        assert [status for status, _ in first[0]] == [503, 200, 200, 200, 200, 200]
        assert first[0][1][1]["choices"][0]["message"]["content"] == stub_server.MALFORMED_BODY
        json.loads(first[0][2][1]["choices"][0]["message"]["content"])
        assert first[1] == 6
        assert one_op() == first
    finally:
        stub.stop()
    assert stub.proc.poll() is not None


def _pipeline(tmp: Path, name: str, trace: bool) -> Path:
    d = tmp / name
    d.mkdir()
    corpus_gen.write_corpus(d / "corpus.jsonl", corpus_gen.generate_corpus(5, **TINY))
    run.write_config(d / "config.yaml", d / "corpus.jsonl", d / "out", None)
    cmd = [sys.executable, str(BENCH / "op.py"), str(d / "config.yaml"), str(d / "result.json")]
    subprocess.run(cmd + (["--trace"] if trace else []), env=run.child_env(SRC), check=True,
                   timeout=120)
    result = json.loads((d / "result.json").read_text())
    assert result["ok"]
    assert ("layers" in result) == trace
    return d / "out"


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _pipeline(tmp_path_factory.mktemp("ops"), "plain", trace=False)


def test_digest_gate_catches_one_byte_change(untraced, tmp_path):
    reference = run.digests(untraced)
    assert set(reference) == set(run.PINNED)
    assert run.mismatches(run.digests(untraced), reference) == []
    paths = untraced / "paths.jsonl"
    original = paths.read_bytes()
    try:
        paths.write_bytes(original[:10] + bytes([original[10] ^ 1]) + original[11:])
        assert run.mismatches(run.digests(untraced), reference) == ["paths.jsonl"]
    finally:
        paths.write_bytes(original)


def test_traced_run_leaves_artifacts_identical(untraced, tmp_path):
    traced = _pipeline(tmp_path, "traced", trace=True)
    assert run.digests(traced) == run.digests(untraced)


def test_bare_directory_is_refused(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "cold-zipf", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
