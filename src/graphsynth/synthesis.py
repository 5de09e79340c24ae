"""Generation requests, LLM backends, output validation, and corpus writing.

Two strategies: a chained narrative with chain-of-thought QA over a path's
fragments, and a contrastive comparison over a sparse-entity pair. Prompt
text renders deterministically from (strategy, fragments); backend output
must match the strategy schema or the record is rejected after retries.
``RemoteChatBackend`` posts to a chat-completion service through the shared
keep-alive ``remote.JsonClient``, which retries transport faults and 5xx
replies; schema retries and repair prompts stay here. With concurrency N
the client pools N connections, which bound the requests in flight, and
``generate`` runs 2N workers so that requests waiting out a back-off leave
the connections to the others.
"""

from __future__ import annotations

import json
import logging
import random
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Mapping, Protocol, Sequence

from .balance import CCPair, SubsetAllocation
from .corpus import ChunkStore
from .errors import BackendError, IntegrityError
from .jsonl import write_jsonl
from .traversal import Path

log = logging.getLogger(__name__)

DEFAULT_TEMPERATURE = 0.7
DEFAULT_MAX_TOKENS = 2048

COT_PROMPT_TEMPLATE = """You are writing new reference text from a chain of source fragments.

Source fragments, in chain order:

{fragments}

Write a single step-by-step narrative that uses the key information from every
fragment so that each fragment logically leads to the next in a clear flow of
cause and effect. Structure the narrative through distinct phases: initiation,
development, turning points, and conclusion, with natural transitions that
preserve the causal chain. Do not contradict the fragments or invent facts
they rule out.

Then write one or more questions that can only be answered by understanding
the entire information chain. Answer each question in a chain-of-thought
style, breaking the reasoning down step by step before stating the final
conclusion.

Respond with JSON only, exactly in this shape:
{{"narrative": "...", "qa": [{{"question": "...", "answer": "..."}}]}}"""

CC_PROMPT_TEMPLATE = """You are writing a comparative analysis of two source fragments.

{fragments}

First examine each entity and its fragment individually. Then write a
contrastive narrative that compares and contrasts the two fragments,
highlighting implicit nuances, differences, and any genuine similarities in
their attributes and background. Keep an objective, analytical tone. Do not
force a connection: if the fragments have no direct connection, state that
explicitly and instead bring out the distinct contribution each entity makes
in its own context. Finish with a concluding comparative summary.

Respond with JSON only, exactly in this shape:
{{"narrative": "...", "comparison": "..."}}"""

REPAIR_INSTRUCTION = (
    "The previous reply did not match the required JSON shape. "
    "Respond again with valid JSON of exactly the required shape and nothing else."
)


@dataclass(frozen=True)
class Fragment:
    entity_name: str
    chunk_text: str
    doc_title: str | None = None


@dataclass
class GenerationRequest:
    request_id: str
    strategy: str  # "cot" | "cc"
    source_id: str
    fragments: list[Fragment]
    prompt_text: str
    temperature: float = DEFAULT_TEMPERATURE
    max_tokens: int = DEFAULT_MAX_TOKENS


@dataclass
class SynthRecord:
    request_id: str
    strategy: str
    source_id: str
    narrative: str
    qa: list[dict] | None
    comparison: str | None
    input_tokens: int
    output_tokens: int
    status: str = "ok"  # "ok" | "rejected"
    reject_reason: str | None = None
    retries: int = 0


@dataclass(frozen=True)
class RetryPolicy:
    max_retries: int = 2


def _render_fragments(fragments: Sequence[Fragment]) -> str:
    blocks = []
    for i, frag in enumerate(fragments, start=1):
        title = f" (article: {frag.doc_title})" if frag.doc_title else ""
        blocks.append(f"Fragment {i} — entity: {frag.entity_name}{title}\n{frag.chunk_text}")
    return "\n\n".join(blocks)


def render_cot_prompt(
    path: Path,
    chunk_store: ChunkStore,
    entity_names: Mapping[str, str],
    *,
    same_document: bool = False,
    temperature: float = DEFAULT_TEMPERATURE,
    max_tokens: int = DEFAULT_MAX_TOKENS,
) -> GenerationRequest:
    """One chained-narrative request per path, fragments in path order."""
    if len(path.steps) < 2:
        raise ValueError("a chained-narrative request needs a path with >= 2 steps")
    fragments = []
    for entity_id, chunk_id in path.steps:
        if chunk_id not in chunk_store:
            raise IntegrityError(f"path {path.path_id} references unknown chunk '{chunk_id}'")
        fragments.append(
            Fragment(
                entity_name=entity_names.get(entity_id, entity_id),
                chunk_text=chunk_store.get(chunk_id).text,
                doc_title=chunk_store.title_for(chunk_id) if same_document else None,
            )
        )
    prompt = COT_PROMPT_TEMPLATE.format(fragments=_render_fragments(fragments))
    return GenerationRequest(
        request_id=f"cot:{path.path_id}",
        strategy="cot",
        source_id=path.path_id or "",
        fragments=fragments,
        prompt_text=prompt,
        temperature=temperature,
        max_tokens=max_tokens,
    )


def render_cc_prompt(
    pair: CCPair,
    chunk_store: ChunkStore,
    entity_names: Mapping[str, str],
    *,
    same_document: bool = False,
    temperature: float = DEFAULT_TEMPERATURE,
    max_tokens: int = DEFAULT_MAX_TOKENS,
) -> GenerationRequest:
    """One contrastive request per sparse-entity pair."""
    (ex, cx), (ey, cy) = pair.left, pair.right
    if ex == ey:
        raise ValueError("a contrastive pair needs two distinct entities")
    fragments = []
    for entity_id, chunk_id in (pair.left, pair.right):
        if chunk_id not in chunk_store:
            raise IntegrityError(f"pair {pair.pair_id} references unknown chunk '{chunk_id}'")
        fragments.append(
            Fragment(
                entity_name=entity_names.get(entity_id, entity_id),
                chunk_text=chunk_store.get(chunk_id).text,
                doc_title=chunk_store.title_for(chunk_id) if same_document else None,
            )
        )
    prompt = CC_PROMPT_TEMPLATE.format(fragments=_render_fragments(fragments))
    return GenerationRequest(
        request_id=f"cc:{pair.pair_id}",
        strategy="cc",
        source_id=pair.pair_id,
        fragments=fragments,
        prompt_text=prompt,
        temperature=temperature,
        max_tokens=max_tokens,
    )


def build_requests(
    subsets: Iterable[SubsetAllocation],
    chunk_store: ChunkStore,
    entity_names: Mapping[str, str],
    *,
    same_document: bool = False,
    temperature: float = DEFAULT_TEMPERATURE,
    max_tokens: int = DEFAULT_MAX_TOKENS,
) -> list[GenerationRequest]:
    requests: list[GenerationRequest] = []
    for subset in subsets:
        for p in subset.cot_paths:
            requests.append(
                render_cot_prompt(
                    p, chunk_store, entity_names,
                    same_document=same_document, temperature=temperature, max_tokens=max_tokens,
                )
            )
        for pair in subset.cc_pairs:
            requests.append(
                render_cc_prompt(
                    pair, chunk_store, entity_names,
                    same_document=same_document, temperature=temperature, max_tokens=max_tokens,
                )
            )
    return requests


def _validate_payload(strategy: str, raw: str) -> tuple[dict | None, str | None]:
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError:
        return None, "not valid JSON"
    if not isinstance(payload, dict):
        return None, "payload is not an object"
    narrative = payload.get("narrative")
    if not isinstance(narrative, str) or not narrative.strip():
        return None, "missing or empty narrative"
    if strategy == "cot":
        qa = payload.get("qa")
        if not isinstance(qa, list) or not qa:
            return None, "missing or empty qa list"
        for item in qa:
            if (
                not isinstance(item, dict)
                or not isinstance(item.get("question"), str)
                or not item["question"].strip()
                or not isinstance(item.get("answer"), str)
                or not item["answer"].strip()
            ):
                return None, "qa item missing question or answer"
        return {"narrative": narrative, "qa": qa}, None
    comparison = payload.get("comparison")
    if not isinstance(comparison, str) or not comparison.strip():
        return None, "missing or empty comparison"
    return {"narrative": narrative, "comparison": comparison}, None


class LlmBackend(Protocol):
    def complete(
        self,
        prompt: str,
        *,
        temperature: float,
        max_tokens: int,
        request_id: str | None = None,
    ) -> str: ...


_ENTITY_LINE = re.compile(r"entity:\s*([^\n(]+?)(?:\s*\(article:[^)]*\))?\n")


class MockLlmBackend:
    """Deterministic offline backend producing schema-valid payloads.

    ``scripted`` overrides the response for specific request ids, which is
    how tests drive invalid/edge payloads.
    """

    def __init__(self, scripted: Mapping[str, str] | None = None):
        self.scripted = dict(scripted or {})
        self.calls: list[str] = []

    def complete(self, prompt, *, temperature, max_tokens, request_id=None):
        self.calls.append(request_id or "")
        if request_id is not None and request_id in self.scripted:
            return self.scripted[request_id]
        names = [m.strip() for m in _ENTITY_LINE.findall(prompt)] or ["the subject"]
        if '"qa"' in prompt:
            chain = " which in turn involves ".join(names)
            payload = {
                "narrative": (
                    f"The account begins with {names[0]}, develops through every fragment, "
                    f"reaches its turning point, and concludes: {chain}."
                ),
                "qa": [
                    {
                        "question": f"How does {names[0]} ultimately relate to {names[-1]}?",
                        "answer": (
                            "Step 1: start from "
                            + names[0]
                            + ". Step 2: follow each fragment in order. Final conclusion: "
                            + f"the chain links it to {names[-1]}."
                        ),
                    }
                ],
            }
        else:
            left = names[0]
            right = names[-1] if len(names) > 1 else names[0]
            payload = {
                "narrative": (
                    f"Considered individually, {left} and {right} come from different "
                    f"contexts; examined together, their similarities and differences "
                    f"become explicit."
                ),
                "comparison": f"In summary, {left} and {right} differ in scope and background.",
            }
        return json.dumps(payload, sort_keys=True)


class FaultInjectingBackend:
    """Wraps a backend with deterministic, per-request fault injection.

    A request id rolls once: below ``invalid_rate`` it permanently returns
    an unparseable payload; in the next ``transient_rate`` band the first
    call raises a retryable error and later calls pass through.
    """

    def __init__(self, inner: LlmBackend, invalid_rate: float = 0.2,
                 transient_rate: float = 0.1, seed: int = 0):
        self.inner = inner
        self.invalid_rate = invalid_rate
        self.transient_rate = transient_rate
        self.seed = seed
        self._attempts: dict[str, int] = {}
        self._lock = threading.Lock()

    def roll(self, request_id: str) -> float:
        return random.Random(f"{self.seed}:{request_id}").random()

    def complete(self, prompt, *, temperature, max_tokens, request_id=None):
        rid = request_id or ""
        with self._lock:
            attempt = self._attempts.get(rid, 0)
            self._attempts[rid] = attempt + 1
        roll = self.roll(rid)
        if roll < self.invalid_rate:
            return "this is not json {"
        if roll < self.invalid_rate + self.transient_rate and attempt == 0:
            raise BackendError(f"injected transient failure for {rid}", retryable=True)
        return self.inner.complete(
            prompt, temperature=temperature, max_tokens=max_tokens, request_id=request_id
        )


class RemoteChatBackend:
    """Chat-completion HTTP client (model, temperature, max_tokens)."""

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str | None = None,
        max_retries: int = 3,
        backoff_seconds: float = 0.5,
        timeout: float = 120.0,
        connections: int = 1,
    ):
        self.model = model
        # imported here so that runs with the offline backends never load
        # http.client and ssl
        from .remote import JsonClient

        self.client = JsonClient(
            endpoint, name="chat", api_key=api_key, max_retries=max_retries,
            backoff_seconds=backoff_seconds, timeout=timeout, connections=connections,
        )

    def complete(self, prompt, *, temperature, max_tokens, request_id=None):
        reply = self.client.post({
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
            "max_tokens": max_tokens,
        })
        return reply["choices"][0]["message"]["content"]

    def close(self) -> None:
        self.client.close()


def _token_count(text: str) -> int:
    return len(text.split())


def _generate_one(
    request: GenerationRequest, backend: LlmBackend, policy: RetryPolicy
) -> SynthRecord:
    prompt = request.prompt_text
    repaired = False
    attempts = 0
    while True:
        try:
            raw = backend.complete(
                prompt,
                temperature=request.temperature,
                max_tokens=request.max_tokens,
                request_id=request.request_id,
            )
        except BackendError as e:
            if not e.retryable:
                raise
            attempts += 1
            if attempts > policy.max_retries:
                raise BackendError(
                    f"backend unreachable for {request.request_id} after "
                    f"{policy.max_retries} retries: {e}"
                ) from e
            continue
        payload, problem = _validate_payload(request.strategy, raw)
        if payload is not None:
            return SynthRecord(
                request_id=request.request_id,
                strategy=request.strategy,
                source_id=request.source_id,
                narrative=payload["narrative"],
                qa=payload.get("qa"),
                comparison=payload.get("comparison"),
                input_tokens=_token_count(prompt),
                output_tokens=_token_count(raw),
                retries=attempts,
            )
        attempts += 1
        if attempts > policy.max_retries:
            return SynthRecord(
                request_id=request.request_id,
                strategy=request.strategy,
                source_id=request.source_id,
                narrative="",
                qa=None,
                comparison=None,
                input_tokens=_token_count(prompt),
                output_tokens=_token_count(raw),
                status="rejected",
                reject_reason=f"schema: {problem}",
                retries=attempts,
            )
        if not repaired:
            prompt = prompt + "\n\n" + REPAIR_INSTRUCTION
            repaired = True


def generate(
    requests: Sequence[GenerationRequest],
    backend: LlmBackend,
    policy: RetryPolicy = RetryPolicy(),
    *,
    concurrency: int = 1,
) -> list[SynthRecord]:
    """Run all requests; output order always equals request order.

    ``concurrency`` bounds the requests in flight, which the backend
    enforces (a remote backend pools that many connections). Twice as many
    workers run, so up to ``concurrency`` of them can wait out a retry
    back-off while every slot stays busy.
    """
    if not requests:
        return []
    if concurrency <= 1:
        return _collect((_generate_one(r, backend, policy) for r in requests), len(requests))
    with ThreadPoolExecutor(max_workers=2 * concurrency) as pool:
        return _collect(pool.map(lambda r: _generate_one(r, backend, policy), requests),
                        len(requests))


def _collect(results: Iterable[SynthRecord], total: int) -> list[SynthRecord]:
    """The records in request order, logging progress about every tenth of them."""
    every = -(-total // 10)
    records: list[SynthRecord] = []
    rejected = 0
    for rec in results:
        records.append(rec)
        rejected += rec.status == "rejected"
        if len(records) % every == 0 or len(records) == total:
            log.info("generate: %d/%d records done, %d rejected", len(records), total, rejected)
    return records


def record_to_dict(rec: SynthRecord) -> dict:
    return {
        "request_id": rec.request_id,
        "strategy": rec.strategy,
        "source_id": rec.source_id,
        "narrative": rec.narrative,
        "qa": rec.qa,
        "comparison": rec.comparison,
        "input_tokens": rec.input_tokens,
        "output_tokens": rec.output_tokens,
        "status": rec.status,
        "reject_reason": rec.reject_reason,
        "retries": rec.retries,
    }


def write_synthetic_corpus(records: Sequence[SynthRecord], sink) -> dict:
    """Write records as JSONL; returns the accounting manifest."""
    write_jsonl(sink, (record_to_dict(r) for r in records))
    manifest = {
        "records": len(records),
        "cot": sum(1 for r in records if r.strategy == "cot" and r.status == "ok"),
        "cc": sum(1 for r in records if r.strategy == "cc" and r.status == "ok"),
        "rejected": sum(1 for r in records if r.status == "rejected"),
        "input_tokens": sum(r.input_tokens for r in records),
        "output_tokens": sum(r.output_tokens for r in records),
    }
    return manifest


def load_synthetic_corpus(path) -> list[SynthRecord]:
    from .jsonl import iter_jsonl

    return [
        SynthRecord(
            request_id=rec["request_id"],
            strategy=rec["strategy"],
            source_id=rec["source_id"],
            narrative=rec["narrative"],
            qa=rec.get("qa"),
            comparison=rec.get("comparison"),
            input_tokens=int(rec["input_tokens"]),
            output_tokens=int(rec["output_tokens"]),
            status=rec.get("status", "ok"),
            reject_reason=rec.get("reject_reason"),
            retries=int(rec.get("retries", 0)),
        )
        for rec in iter_jsonl(path)
    ]
