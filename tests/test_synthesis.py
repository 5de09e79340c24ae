from __future__ import annotations

import json
import threading
import time

import pytest

from graphsynth.balance import CCPair
from graphsynth.errors import BackendError, IntegrityError
from graphsynth.synthesis import (
    FaultInjectingBackend,
    GenerationRequest,
    MockLlmBackend,
    RemoteChatBackend,
    RetryPolicy,
    build_requests,
    generate,
    load_synthetic_corpus,
    render_cc_prompt,
    render_cot_prompt,
    write_synthetic_corpus,
)
from graphsynth.traversal import Path

from conftest import make_store

NAMES = {"e1": "amber analytics", "e2": "basalt biologics", "e3": "cobalt cartage"}


def _store():
    return make_store(
        {"d1#0": "Amber text one.", "d2#0": "Basalt text two.", "d3#0": "Cobalt text three."},
        {"d1": "Doc One", "d2": "Doc Two", "d3": "Doc Three"},
    )


def _path(steps, pid="p000001"):
    return Path(steps=steps, path_id=pid)


# --- rendering -------------------------------------------------------------------


def test_cot_prompt_two_fragments_in_order():
    req = render_cot_prompt(_path([("e1", "d1#0"), ("e2", "d2#0")]), _store(), NAMES)
    assert req.strategy == "cot"
    assert len(req.fragments) == 2
    assert req.fragments[0].entity_name == "amber analytics"
    assert req.prompt_text.index("Amber text one.") < req.prompt_text.index("Basalt text two.")


def test_cot_prompt_three_fragments_for_two_hops():
    path = _path([("e1", "d1#0"), ("e2", "d2#0"), ("e3", "d3#0")])
    req = render_cot_prompt(path, _store(), NAMES)
    assert len(req.fragments) == 3


def test_cot_prompt_deterministic():
    path = _path([("e1", "d1#0"), ("e2", "d2#0")])
    a = render_cot_prompt(path, _store(), NAMES)
    b = render_cot_prompt(path, _store(), NAMES)
    assert a.prompt_text == b.prompt_text


def test_cot_prompt_requires_two_steps():
    with pytest.raises(ValueError):
        render_cot_prompt(_path([("e1", "d1#0")]), _store(), NAMES)


def test_cot_prompt_unresolvable_chunk():
    with pytest.raises(IntegrityError):
        render_cot_prompt(_path([("e1", "d1#0"), ("e2", "missing")]), _store(), NAMES)


def test_cot_prompt_same_document_injects_titles():
    path = _path([("e1", "d1#0"), ("e2", "d2#0")])
    req = render_cot_prompt(path, _store(), NAMES, same_document=True)
    assert "Doc One" in req.prompt_text
    assert "Doc Two" in req.prompt_text
    plain = render_cot_prompt(path, _store(), NAMES)
    assert "Doc One" not in plain.prompt_text


def test_cc_prompt_exactly_two_fragments():
    pair = CCPair(pair_id="cc-0-0", left=("e1", "d1#0"), right=("e2", "d2#0"))
    req = render_cc_prompt(pair, _store(), NAMES)
    assert req.strategy == "cc"
    assert len(req.fragments) == 2
    assert "amber analytics" in req.prompt_text
    assert "basalt biologics" in req.prompt_text


def test_cc_prompt_rejects_same_entity():
    pair = CCPair(pair_id="cc-0-0", left=("e1", "d1#0"), right=("e1", "d2#0"))
    with pytest.raises(ValueError):
        render_cc_prompt(pair, _store(), NAMES)


def test_cc_prompt_permits_no_connection_outcome():
    pair = CCPair(pair_id="cc-0-0", left=("e1", "d1#0"), right=("e2", "d2#0"))
    req = render_cc_prompt(pair, _store(), NAMES)
    assert "no direct connection" in req.prompt_text


# --- generate --------------------------------------------------------------------


def _requests(n=3, strategy="cot"):
    reqs = []
    for i in range(n):
        if strategy == "cot":
            path = _path([("e1", "d1#0"), ("e2", "d2#0")], pid=f"p{i:06d}")
            reqs.append(render_cot_prompt(path, _store(), NAMES))
        else:
            pair = CCPair(pair_id=f"cc-0-{i}", left=("e1", "d1#0"), right=("e2", "d2#0"))
            reqs.append(render_cc_prompt(pair, _store(), NAMES))
    return reqs


def test_generate_mock_preserves_order():
    reqs = _requests(4)
    records = generate(reqs, MockLlmBackend(), concurrency=3)
    assert [r.request_id for r in records] == [q.request_id for q in reqs]
    assert all(r.status == "ok" for r in records)
    assert all(r.qa for r in records)


def test_generate_retries_once_with_repair():
    reqs = _requests(1)
    rid = reqs[0].request_id
    good = MockLlmBackend().complete(reqs[0].prompt_text, temperature=0, max_tokens=1, request_id=None)

    class FlakyOnce:
        def __init__(self):
            self.calls = 0

        def complete(self, prompt, *, temperature, max_tokens, request_id=None):
            self.calls += 1
            if self.calls == 1:
                return "garbage"
            assert "required JSON shape" in prompt  # repair instruction appended
            return good

    backend = FlakyOnce()
    records = generate(reqs, backend, RetryPolicy(max_retries=2))
    assert records[0].status == "ok"
    assert records[0].retries == 1
    assert backend.calls == 2
    assert rid == records[0].request_id


def test_generate_rejects_after_exhausted_retries():
    reqs = _requests(2)
    scripted = {reqs[0].request_id: "never valid"}
    backend = MockLlmBackend(scripted=scripted)
    records = generate(reqs, backend, RetryPolicy(max_retries=1))
    assert records[0].status == "rejected"
    assert "schema" in records[0].reject_reason
    assert records[1].status == "ok"


def test_generate_transient_backend_errors_are_retried():
    reqs = _requests(1)

    class TransientOnce:
        def __init__(self):
            self.calls = 0
            self.inner = MockLlmBackend()

        def complete(self, prompt, **kwargs):
            self.calls += 1
            if self.calls == 1:
                raise BackendError("blip", retryable=True)
            return self.inner.complete(prompt, **kwargs)

    records = generate(reqs, TransientOnce(), RetryPolicy(max_retries=2))
    assert records[0].status == "ok"


def test_generate_unreachable_backend_is_run_level():
    reqs = _requests(1)

    class Down:
        def complete(self, prompt, **kwargs):
            raise BackendError("down", retryable=True)

    with pytest.raises(BackendError):
        generate(reqs, Down(), RetryPolicy(max_retries=1))


def test_fault_injection_accounting_is_exact():
    reqs = _requests(40) + _requests(10, strategy="cc")
    for i, r in enumerate(reqs):
        r.request_id = f"req-{i:03d}"
    backend = FaultInjectingBackend(MockLlmBackend(), invalid_rate=0.2, transient_rate=0.1, seed=3)
    records = generate(reqs, backend, RetryPolicy(max_retries=2), concurrency=4)
    expected_rejected = {r.request_id for r in reqs if backend.roll(r.request_id) < 0.2}
    assert {r.request_id for r in records if r.status == "rejected"} == expected_rejected
    assert [r.request_id for r in records] == [q.request_id for q in reqs]


def test_cc_schema_validation():
    reqs = _requests(1, strategy="cc")
    records = generate(reqs, MockLlmBackend())
    assert records[0].comparison
    assert records[0].qa is None

    bad = {reqs[0].request_id: json.dumps({"narrative": "x"})}  # comparison missing
    records = generate(reqs, MockLlmBackend(scripted=bad), RetryPolicy(max_retries=0))
    assert records[0].status == "rejected"


# --- build_requests / corpus writing ------------------------------------------------


def test_build_requests_covers_paths_and_pairs():
    from graphsynth.balance import SubsetAllocation

    subset = SubsetAllocation(
        subset_index=0,
        cot_paths=[_path([("e1", "d1#0"), ("e2", "d2#0")])],
        cc_pairs=[CCPair(pair_id="cc-0-0", left=("e1", "d1#0"), right=("e3", "d3#0"))],
        achieved_coverage=1.0,
    )
    reqs = build_requests([subset], _store(), NAMES)
    assert [r.strategy for r in reqs] == ["cot", "cc"]
    assert reqs[0].source_id == "p000001"
    assert reqs[1].source_id == "cc-0-0"
    # fragment count equals path length for cot, exactly 2 for cc
    assert len(reqs[0].fragments) == len(subset.cot_paths[0].steps)
    assert len(reqs[1].fragments) == 2


def test_output_order_independent_of_concurrency():
    reqs = _requests(8) + _requests(3, strategy="cc")
    for i, r in enumerate(reqs):
        r.request_id = f"req-{i:02d}"
    sequential = generate(reqs, MockLlmBackend(), concurrency=1)
    threaded = generate(reqs, MockLlmBackend(), concurrency=5)
    assert [(r.request_id, r.narrative) for r in sequential] == [
        (r.request_id, r.narrative) for r in threaded
    ]


def _tagged_requests(n):
    """Requests whose prompts end in their index, so that a server can tell them apart."""
    reqs = _requests(n)
    for i, r in enumerate(reqs):
        r.request_id = f"req-{i:02d}"
        r.prompt_text += f"\n\n#{i}"
    return reqs


def _chat_server(json_server, refuse_first):
    """A chat endpoint answering like the mock backend, after 2 ms. The first
    attempt of each request ``i`` with ``refuse_first(i)`` gets a 503. Returns
    the server and the (i, status) of each answer, in order."""
    mock = MockLlmBackend()
    served: list[tuple[int, int]] = []
    lock = threading.Lock()

    def respond(n, payload):
        prompt = payload["messages"][0]["content"]
        i = int(prompt.rsplit("#", 1)[1])
        with lock:
            status = 503 if refuse_first(i) and (i, 503) not in served else 200
            served.append((i, status))
        if status == 503:
            return 503, {"error": "busy"}
        time.sleep(0.002)  # service time, so that requests overlap
        content = mock.complete(prompt, temperature=0.7, max_tokens=1)
        return 200, {"choices": [{"message": {"role": "assistant", "content": content}}]}

    return json_server(respond), served


def _remote_generate(server, reqs, backoff_seconds):
    backend = RemoteChatBackend(
        server.url, model="m", backoff_seconds=backoff_seconds, connections=2
    )
    try:
        return generate(reqs, backend, concurrency=2)
    finally:
        backend.close()


def test_remote_generation_keeps_requests_in_flight_within_concurrency(json_server):
    reqs = _tagged_requests(24)
    server, served = _chat_server(json_server, lambda i: i % 4 == 0)
    assert _remote_generate(server, reqs, 0.05) == generate(reqs, MockLlmBackend())
    assert len(served) == len(reqs) + 6
    assert server.accepted <= 2
    assert server.peak_in_flight <= 2


def test_requests_backing_off_leave_the_connections_to_others(json_server):
    # requests 0 and 1 get a 503 first; at concurrency 2 both wait out their
    # back-off at once, and the other requests must be served meanwhile
    server, served = _chat_server(json_server, lambda i: i < 2)
    records = _remote_generate(server, _tagged_requests(6), 0.5)
    assert all(r.status == "ok" for r in records)
    assert sorted(served[-2:]) == [(0, 200), (1, 200)]


def test_write_corpus_manifest_accounting(tmp_path):
    reqs = _requests(3) + _requests(2, strategy="cc")
    records = generate(reqs, MockLlmBackend())
    out = tmp_path / "synth.jsonl"
    manifest = write_synthetic_corpus(records, out)
    assert manifest["cot"] == 3
    assert manifest["cc"] == 2
    assert manifest["rejected"] == 0
    assert manifest["records"] == 5
    loaded = load_synthetic_corpus(out)
    assert manifest["input_tokens"] == sum(r.input_tokens for r in loaded)
    assert manifest["output_tokens"] == sum(r.output_tokens for r in loaded)


def test_write_corpus_empty(tmp_path):
    out = tmp_path / "synth.jsonl"
    manifest = write_synthetic_corpus([], out)
    assert manifest == {
        "records": 0,
        "cot": 0,
        "cc": 0,
        "rejected": 0,
        "input_tokens": 0,
        "output_tokens": 0,
    }
    assert out.read_text() == ""
