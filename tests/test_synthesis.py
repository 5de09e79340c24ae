from __future__ import annotations

import json
import logging
import re
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsynth.balance import CCPair, SubsetAllocation
from graphsynth.errors import BackendError, IntegrityError
from graphsynth.remote import JsonClient
from graphsynth.synthesis import (
    CC_PROMPT_TEMPLATE,
    COT_PROMPT_TEMPLATE,
    REPAIR_INSTRUCTION,
    FaultInjectingBackend,
    MockLlmBackend,
    RemoteChatBackend,
    RecordOutcome,
    SynthRecord,
    build_requests,
    corpus_writer,
    generate,
    load_synthetic_corpus,
    write_synthetic_corpus,
)
from graphsynth.traversal import Path

from conftest import make_store
from oracles import render_prompt

NAMES = {"e1": "amber analytics", "e2": "basalt biologics", "e3": "cobalt cartage"}


def _store():
    return make_store(
        {"d1#0": "Amber text one.", "d2#0": "Basalt text two.", "d3#0": "Cobalt text three."},
        {"d1": "Doc One", "d2": "Doc Two", "d3": "Doc Three"},
    )


def _path(steps, pid="p000001"):
    return Path(steps=steps, path_id=pid)


def _render(paths=(), pairs=(), store=None, names=NAMES, same_document=False):
    """The requests ``build_requests`` makes from one subset of ``paths`` and ``pairs``."""
    subset = SubsetAllocation(0, list(paths), list(pairs), 1.0)
    store = _store() if store is None else store
    return build_requests([subset], store, names, same_document=same_document)


def _cot(path, **kwargs):
    (request,) = _render(paths=[path], **kwargs)
    return request


def _cc(pair, **kwargs):
    (request,) = _render(pairs=[pair], **kwargs)
    return request


def _quoted(prompt):
    """The (number, entity name) of each fragment block of ``prompt``, in order."""
    return re.findall(r"^Fragment (\d+) — entity: ([^\n]*)$", prompt, flags=re.M)


# --- rendering -------------------------------------------------------------------


def test_cot_prompt_two_fragments_in_order():
    req = _cot(_path([("e1", "d1#0"), ("e2", "d2#0")]))
    assert req.strategy == "cot"
    assert _quoted(req.prompt_text) == [("1", "amber analytics"), ("2", "basalt biologics")]
    assert req.prompt_text.index("Amber text one.") < req.prompt_text.index("Basalt text two.")


def test_cot_prompt_three_fragments_for_two_hops():
    path = _path([("e1", "d1#0"), ("e2", "d2#0"), ("e3", "d3#0")])
    req = _cot(path)
    assert [i for i, _ in _quoted(req.prompt_text)] == ["1", "2", "3"]


def test_cot_prompt_deterministic():
    path = _path([("e1", "d1#0"), ("e2", "d2#0")])
    a = _cot(path)
    b = _cot(path)
    assert a.prompt_text == b.prompt_text


def test_cot_prompt_requires_two_steps():
    with pytest.raises(ValueError):
        _cot(_path([("e1", "d1#0")]))


def test_cot_prompt_unresolvable_chunk():
    with pytest.raises(IntegrityError):
        _cot(_path([("e1", "d1#0"), ("e2", "missing")]))


def test_cot_prompt_same_document_injects_titles():
    path = _path([("e1", "d1#0"), ("e2", "d2#0")])
    req = _cot(path, same_document=True)
    assert "Doc One" in req.prompt_text
    assert "Doc Two" in req.prompt_text
    plain = _cot(path)
    assert "Doc One" not in plain.prompt_text


def test_cc_prompt_exactly_two_fragments():
    pair = CCPair(pair_id="cc-0-0", left=("e1", "d1#0"), right=("e2", "d2#0"))
    req = _cc(pair)
    assert req.strategy == "cc"
    assert [i for i, _ in _quoted(req.prompt_text)] == ["1", "2"]
    assert "amber analytics" in req.prompt_text
    assert "basalt biologics" in req.prompt_text


def test_cc_prompt_rejects_same_entity():
    pair = CCPair(pair_id="cc-0-0", left=("e1", "d1#0"), right=("e1", "d2#0"))
    with pytest.raises(ValueError):
        _cc(pair)


def test_cc_prompt_permits_no_connection_outcome():
    pair = CCPair(pair_id="cc-0-0", left=("e1", "d1#0"), right=("e2", "d2#0"))
    req = _cc(pair)
    assert "no direct connection" in req.prompt_text


# Pieces of names, titles and chunk texts: whitespace that str.split() splits
# on (including \u2003, \x1c, \x85 and \u2028) next to words, format fields and
# the title marker, so that an empty, whitespace-only or space-padded value
# lands next to every junction of the prompt.
_PIECES = st.sampled_from(
    ["Zeta", "é—x", " ", "  ", "\n", "\t", "\u2003", "\x1c", "\x85", "\u2028",
     "{fragments}", "{}", "{{", "}", "(article:", ")", ":"]
)
_TEXT = st.lists(_PIECES, max_size=6).map("".join)


@st.composite
def _rendering_case(draw):
    """Names (some entities unnamed), one chunk per document with a titled
    document, CoT paths of 2-4 steps and CC pairs over them."""
    entities = [f"e{i}" for i in range(4)]
    chunks = [f"d{i}#0" for i in range(4)]
    names = {e: draw(_TEXT) for e in entities if draw(st.booleans())}
    texts = {c: draw(_TEXT) for c in chunks}
    titles = {c.split("#")[0]: draw(_TEXT) for c in chunks}
    step = st.tuples(st.sampled_from(entities), st.sampled_from(chunks))
    paths = [
        Path(steps=steps, path_id=f"p{i:06d}")
        for i, steps in enumerate(draw(st.lists(st.lists(step, min_size=2, max_size=4), max_size=4)))
    ]
    pairs = [
        CCPair(pair_id=f"cc-0-{i}", left=(left, draw(st.sampled_from(chunks))),
               right=(right, draw(st.sampled_from(chunks))))
        for i, (left, right) in enumerate(
            draw(st.lists(st.permutations(entities).map(lambda p: p[:2]), max_size=3))
        )
    ]
    return names, texts, titles, paths, pairs


@settings(max_examples=150, deadline=None)
@given(case=_rendering_case(), same_document=st.booleans())
def test_prompts_and_token_counts_equal_the_format_reference(case, same_document):
    names, texts, titles, paths, pairs = case
    store = make_store(texts, titles)

    def reference(template, steps):
        return render_prompt(
            template,
            [
                (names.get(e, e), texts[c], titles[c.split("#")[0]] if same_document else None)
                for e, c in steps
            ],
        )

    expected = [reference(COT_PROMPT_TEMPLATE, p.steps) for p in paths]
    expected += [reference(CC_PROMPT_TEMPLATE, (pair.left, pair.right)) for pair in pairs]
    subset = SubsetAllocation(0, paths, pairs, 1.0)
    built = build_requests([subset], store, names, same_document=same_document)
    one = dict(store=store, names=names, same_document=same_document)
    single = [_cot(p, **one) for p in paths] + [_cc(pair, **one) for pair in pairs]
    for requests in (built, single):
        assert [(r.prompt_text.encode(), r.prompt_tokens) for r in requests] == [
            (prompt.encode(), tokens) for prompt, tokens in expected
        ]


# --- generate --------------------------------------------------------------------


def _requests(n=3, strategy="cot"):
    reqs = []
    for i in range(n):
        if strategy == "cot":
            path = _path([("e1", "d1#0"), ("e2", "d2#0")], pid=f"p{i:06d}")
            reqs.append(_cot(path))
        else:
            pair = CCPair(pair_id=f"cc-0-{i}", left=("e1", "d1#0"), right=("e2", "d2#0"))
            reqs.append(_cc(pair))
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
    records = generate(reqs, backend, max_retries=2)
    assert records[0].status == "ok"
    assert records[0].retries == 1
    assert backend.calls == 2
    assert rid == records[0].request_id


def test_generate_rejects_after_exhausted_retries():
    reqs = _requests(2)
    scripted = {reqs[0].request_id: "never valid"}
    backend = MockLlmBackend(scripted=scripted)
    records = generate(reqs, backend, max_retries=1)
    assert records[0].status == "rejected"
    assert "schema" in records[0].reject_reason
    assert records[1].status == "ok"


class _Recording:
    """Answers from ``replies`` in turn and keeps every prompt it was sent."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.prompts: list[str] = []

    def complete(self, prompt, *, temperature, max_tokens, request_id=None):
        self.prompts.append(prompt)
        return self.replies[min(len(self.prompts), len(self.replies)) - 1]


@pytest.mark.parametrize(
    "max_retries, valid_reply, status, calls",
    [(2, True, "ok", 2), (0, False, "rejected", 1), (2, False, "rejected", 3)],
)
def test_input_tokens_count_the_last_prompt_sent(max_retries, valid_reply, status, calls):
    req = _requests(1)[0]
    good = MockLlmBackend().complete(req.prompt_text, temperature=0, max_tokens=1)
    backend = _Recording(["garbage", good if valid_reply else "still garbage"])
    (record,) = generate([req], backend, max_retries=max_retries)
    assert (record.status, len(backend.prompts)) == (status, calls)
    assert record.input_tokens == len(backend.prompts[-1].split())
    assert backend.prompts[-1].endswith(REPAIR_INSTRUCTION) == (calls > 1)


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

    records = generate(reqs, TransientOnce(), max_retries=2)
    assert records[0].status == "ok"


def test_generate_unreachable_backend_is_run_level():
    reqs = _requests(1)

    class Down:
        def complete(self, prompt, **kwargs):
            raise BackendError("down", retryable=True)

    with pytest.raises(BackendError):
        generate(reqs, Down(), max_retries=1)


def test_generate_fatal_error_with_concurrency_is_run_level():
    reqs = _requests(30)
    fatal = reqs[0].request_id
    refused = threading.Event()
    calls = []

    class RefusesOne:
        inner = MockLlmBackend()

        def complete(self, prompt, *, temperature, max_tokens, request_id=None):
            calls.append(request_id)
            if request_id == fatal:
                refused.set()
                raise BackendError("refused for good", retryable=False)
            refused.wait(5)  # the others answer only after the refusal
            time.sleep(0.01)
            return self.inner.complete(prompt, temperature=temperature, max_tokens=max_tokens)

    with pytest.raises(BackendError, match="refused for good"):
        generate(reqs, RefusesOne(), concurrency=3)
    assert len(calls) < len(reqs)


def test_progress_is_logged_while_requests_run(caplog):
    caplog.set_level(logging.INFO, logger="graphsynth.synthesis")
    logged_at_call = []

    class Counting:
        inner = MockLlmBackend()

        def complete(self, prompt, **kwargs):
            logged_at_call.append(
                sum(r.getMessage().startswith("generate:") for r in caplog.records)
            )
            return self.inner.complete(prompt, **kwargs)

    generate(_requests(20), Counting(), concurrency=2)
    assert logged_at_call[-1] >= 1


def test_requests_hold_parts_and_generate_only_the_prompts_in_flight():
    # 500 requests quoting the same two ~10 KB chunks: joined, their prompts
    # would take about 20 MB (the block headers make them two bytes a char).
    store = make_store({"d1#0": "amber " * 1700, "d2#0": "basalt " * 1500})
    paths = [_path([("e1", "d1#0"), ("e2", "d2#0")], pid=f"p{i:06d}") for i in range(500)]
    subset = SubsetAllocation(0, paths, [], 1.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        requests = build_requests([subset], store, NAMES)
        held = tracemalloc.get_traced_memory()[0] - before
        prompt_bytes = sys.getsizeof(requests[0].prompt_text)
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        records = generate(requests, MockLlmBackend(), concurrency=1)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert prompt_bytes > 40_000
    assert held < 1_000_000
    # the peak above what the records keep: the prompt in flight and its reply
    assert peak - current < 3 * prompt_bytes
    assert len(records) == 500 and all(r.status == "ok" for r in records)


def test_generate_keeps_no_record_that_emit_has_taken():
    store = make_store({"d1#0": "amber " * 1700, "d2#0": "basalt " * 1500})
    paths = [_path([("e1", "d1#0"), ("e2", "d2#0")], pid=f"p{i:06d}") for i in range(200)]
    requests = build_requests([SubsetAllocation(0, paths, [], 1.0)], store, NAMES)
    prompt_bytes = sys.getsizeof(requests[0].prompt_text)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        results = generate(requests, MockLlmBackend(), concurrency=1, emit=lambda r: None)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert results == [None] * 200
    # what generate keeps is its list of 200 results; the records, about
    # 1 KB each, went to emit one at a time
    assert current - start < 10_000
    assert peak - start < 3 * prompt_bytes


def test_fault_injection_accounting_is_exact():
    reqs = _requests(40) + _requests(10, strategy="cc")
    reqs = [replace(r, request_id=f"req-{i:03d}") for i, r in enumerate(reqs)]
    backend = FaultInjectingBackend(MockLlmBackend(), invalid_rate=0.2, transient_rate=0.1, seed=3)
    records = generate(reqs, backend, max_retries=2, concurrency=4)
    expected_rejected = {r.request_id for r in reqs if backend.roll(r.request_id) < 0.2}
    assert {r.request_id for r in records if r.status == "rejected"} == expected_rejected
    assert [r.request_id for r in records] == [q.request_id for q in reqs]


def test_cc_schema_validation():
    reqs = _requests(1, strategy="cc")
    records = generate(reqs, MockLlmBackend())
    assert records[0].comparison
    assert records[0].qa is None

    bad = {reqs[0].request_id: json.dumps({"narrative": "x"})}  # comparison missing
    records = generate(reqs, MockLlmBackend(scripted=bad), max_retries=0)
    assert records[0].status == "rejected"


@pytest.mark.parametrize(
    "reply, reason",
    [
        ([{"narrative": "x", "qa": []}], "payload is not an object"),
        ({"narrative": " ", "qa": [{"question": "q", "answer": "a"}]},
         "missing or empty narrative"),
        ({"narrative": "x", "qa": []}, "missing or empty qa list"),
        ({"narrative": "x", "qa": [{"question": "q"}]}, "qa item missing question or answer"),
    ],
)
def test_cot_schema_validation_names_what_the_reply_lacks(reply, reason):
    calls = []

    class Recording(MockLlmBackend):
        def complete(self, prompt, *, request_id=None, **kwargs):
            calls.append(request_id)
            return super().complete(prompt, request_id=request_id, **kwargs)

    reqs = _requests(1)
    backend = Recording(scripted={reqs[0].request_id: json.dumps(reply)})
    [record] = generate(reqs, backend, max_retries=0)
    assert (record.status, record.reject_reason) == ("rejected", f"schema: {reason}")
    assert (record.narrative, record.qa) == ("", None)
    assert calls == [reqs[0].request_id]


def test_mock_answers_a_cc_prompt_quoting_qa_with_a_comparison():
    # The mock picks its reply shape by the prompt's template, not by
    # whether the fragments happen to contain the CoT schema's "qa" key.
    store = make_store({"d1#0": 'The "qa" team met.', "d2#0": "Basalt text two."},
                       {"d1": "Doc One", "d2": "Doc Two"})
    pair = CCPair(pair_id="cc-0-0", left=("e1", "d1#0"), right=("e2", "d2#0"))
    (record,) = generate([_cc(pair, store=store)], MockLlmBackend())
    assert (record.status, record.retries, record.qa) == ("ok", 0, None)
    assert record.comparison


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
    assert len(_quoted(reqs[0].prompt_text)) == len(subset.cot_paths[0].steps)
    assert len(_quoted(reqs[1].prompt_text)) == 2


def test_output_order_independent_of_concurrency():
    reqs = _requests(8) + _requests(3, strategy="cc")
    reqs = [replace(r, request_id=f"req-{i:02d}") for i, r in enumerate(reqs)]
    sequential = generate(reqs, MockLlmBackend(), concurrency=1)
    threaded = generate(reqs, MockLlmBackend(), concurrency=5)
    assert [(r.request_id, r.narrative) for r in sequential] == [
        (r.request_id, r.narrative) for r in threaded
    ]


class _EarlyAnswersLast:
    """The mock backend, except that each of the first ``held`` requests
    answers only after the one after it has: they finish in reverse order."""

    def __init__(self, held):
        self.inner = MockLlmBackend()
        self.answered = {i: threading.Event() for i in range(held)}
        self.order: list[str] = []
        self._lock = threading.Lock()

    def complete(self, prompt, *, temperature, max_tokens, request_id=None):
        i = int(request_id.rsplit("-", 1)[1])
        if i + 1 in self.answered:
            assert self.answered[i + 1].wait(5)
        reply = self.inner.complete(prompt, temperature=temperature, max_tokens=max_tokens)
        with self._lock:
            self.order.append(request_id)
        if i in self.answered:
            self.answered[i].set()
        return reply


def test_records_are_emitted_in_request_order_when_early_requests_finish_last(tmp_path):
    reqs = _requests(10) + _requests(4, strategy="cc")
    reqs = [replace(r, request_id=f"req-{i:02d}") for i, r in enumerate(reqs)]
    # concurrency 3 runs six workers, so requests 0-5 are in flight together
    backend = _EarlyAnswersLast(held=6)
    emitted: list[str] = []
    with corpus_writer(tmp_path / "threaded.jsonl") as writer:

        def emit(record):
            emitted.append(record.request_id)
            return writer.write(record)

        outcomes = generate(reqs, backend, concurrency=3, emit=emit)
    held = [f"req-{i:02d}" for i in range(6)]
    assert [rid for rid in backend.order if rid in held] == held[::-1]
    assert emitted == [r.request_id for r in reqs]
    assert outcomes == [RecordOutcome(r.source_id, "ok", 0) for r in reqs]
    assert write_synthetic_corpus(
        generate(reqs, MockLlmBackend(), concurrency=1), tmp_path / "sequential.jsonl"
    ) == writer.manifest
    assert (tmp_path / "threaded.jsonl").read_bytes() == (
        tmp_path / "sequential.jsonl"
    ).read_bytes()


def test_each_record_is_emitted_before_the_next_backend_call():
    events: list[tuple[str, str]] = []

    class Logged:
        inner = MockLlmBackend()

        def complete(self, prompt, *, request_id=None, **kwargs):
            events.append(("call", request_id))
            return self.inner.complete(prompt, request_id=request_id, **kwargs)

    reqs = _requests(4)
    assert generate(
        reqs, Logged(), concurrency=1, emit=lambda r: events.append(("emit", r.request_id))
    ) == [None] * 4
    assert events == [(kind, r.request_id) for r in reqs for kind in ("call", "emit")]


@pytest.mark.parametrize("concurrency", [1, 3])
def test_an_error_mid_run_leaves_no_corpus_file(tmp_path, concurrency):
    reqs = _requests(12)
    fatal = reqs[5].request_id
    emitted = []

    class RefusesOne:
        inner = MockLlmBackend()

        def complete(self, prompt, *, request_id=None, **kwargs):
            if request_id == fatal:
                raise BackendError("refused for good", retryable=False)
            return self.inner.complete(prompt, request_id=request_id, **kwargs)

    with pytest.raises(BackendError, match="refused for good"):
        with corpus_writer(tmp_path / "synth.jsonl") as writer:
            generate(
                reqs, RefusesOne(), concurrency=concurrency,
                emit=lambda r: emitted.append(writer.write(r)),
            )
    assert len(emitted) <= 5  # nothing after the refused request
    assert list(tmp_path.iterdir()) == []


def _tagged_requests(n):
    """Requests whose prompts end in their index, so that a server can tell them apart."""
    tagged = []
    for i, r in enumerate(_requests(n)):
        prompt = r.prompt_text + f"\n\n#{i}"
        tagged.append(
            replace(r, request_id=f"req-{i:02d}", parts=(prompt,), prompt_tokens=len(prompt.split()))
        )
    return tagged


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
        JsonClient(server.url, name="chat", backoff_seconds=backoff_seconds, connections=2), "m"
    )
    try:
        return generate(reqs, backend, concurrency=2)
    finally:
        backend.client.close()


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


def test_synthetic_corpus_round_trips_every_kind_of_record(tmp_path):
    records = [
        SynthRecord(
            "cot:p000001", "cot", "p000001", "A narrative.",
            [{"question": "Why?", "answer": "Step 1: because."}], None, 120, 9,
        ),
        SynthRecord("cc:cc-0-0", "cc", "cc-0-0", "Two sides.", None, "They differ.", 80, 6,
                    retries=1),
        SynthRecord("cot:p000002", "cot", "p000002", "", None, None, 140, 4, status="rejected",
                    reject_reason="schema: not valid JSON", retries=2),
    ]
    out = tmp_path / "synth.jsonl"
    write_synthetic_corpus(records, out)
    assert load_synthetic_corpus(out) == records


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
