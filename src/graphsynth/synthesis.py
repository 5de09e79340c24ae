"""Generation requests, LLM backends, output validation, and corpus writing.

``build_requests`` makes a chained-narrative request with chain-of-thought
QA (CoT) from each path of a subset and a contrastive request (CC) from each
sparse-entity pair. A prompt quotes one fragment per (entity, chunk) step:
the entity's name, its document's title under ``same_document``, and the
chunk text. ``generate`` keeps a reply that matches its strategy's schema;
otherwise it asks again, appending a repair instruction once, and after
``max_retries`` the record is ``rejected``. ``synth.jsonl`` holds one
``SynthRecord`` per line, keyed by its field names.
Records go to ``synth.jsonl`` in request order as they finish: ``generate``
hands each record to its ``emit`` callback once every earlier one is done,
and the ``CorpusWriter`` of ``corpus_writer`` encodes it into the file and
counts it for the manifest. The file appears atomically when the writer closes, and the stage
holds only the records that wait on an earlier one.
A request keeps its prompt as parts (the template's head and tail, and the
shared block prefixes, fragment labels and chunk texts) and joins them only
when it is sent, so the prompts held at once are those of the requests in
flight.
``RemoteChatBackend`` adapts a ``remote.JsonClient``, which retries transport
faults and 5xx replies, to a chat-completion service; ``cli.chat_backend``
builds the client (120 s timeout; ``remote.MAX_RETRIES`` retries at
``remote.BACKOFF_SECONDS`` back-off) and closes it. Schema retries and
repair prompts stay here. With concurrency N the client pools N
connections, which bound the requests in flight, and ``generate`` runs 2N
workers, each pulling the next request when it is free, so that requests
waiting out a back-off leave the connections to the others.
"""

from __future__ import annotations

import contextlib
import json
import logging
import re
import threading
from dataclasses import MISSING, dataclass, fields
from functools import cache
from typing import IO, Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .balance import SubsetAllocation
from .corpus import ChunkStore
from .errors import BackendError, IntegrityError
from .extraction import ChatBackend
from .jsonl import atomic_write, checked, dumps, dumps_ascii, iter_jsonl, loads

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
class GenerationRequest:
    """A prompt to send, kept as the parts that ``prompt_text`` joins.

    Requests share their parts: a chunk's text is the chunk store's string
    and each fragment's label one string, however many requests quote them.
    Joined, a prompt would be a string of its own, at two bytes a
    character, since the ``—`` of its block headers is outside Latin-1.
    """

    request_id: str
    strategy: str  # "cot" | "cc"
    source_id: str
    parts: tuple[str, ...]
    prompt_tokens: int  # len(prompt_text.split())
    temperature: float = DEFAULT_TEMPERATURE
    max_tokens: int = DEFAULT_MAX_TOKENS

    @property
    def prompt_text(self) -> str:
        return "".join(self.parts)


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


# the keys ``SynthRecord(**rec)`` needs: its fields without a default
_RECORD_KEYS = tuple(f.name for f in fields(SynthRecord) if f.default is MISSING)


# Each template splits at ``{fragments}`` into a head and a tail. A prompt is
# the head, one block per fragment, blocks separated by a blank line, and the
# tail. Block i reads ``"Fragment i — entity: "`` followed by the fragment's
# label (its entity name, the optional ``" (article: …)"`` and a newline) and
# the chunk text. Every junction between those parts has whitespace on at
# least one side (the head ends and the tail starts with a blank line, the
# block prefix ends in a space, the label in a newline), so no ``str.split``
# token spans two parts and a prompt's token count is the sum of its parts'
# counts.
_BLOCK_TOKENS = len("Fragment 1 — entity: ".split())


@cache
def _block_prefix(i: int) -> str:
    return f"Fragment {i} — entity: "


def _split_template(template: str) -> tuple[str, str, int]:
    """The head and tail of ``template`` and their token count."""
    head, tail = template.format(fragments="\0").split("\0")
    if not (head[-1:].isspace() and tail[:1].isspace()):  # what str.split splits on
        raise ValueError("a prompt template needs whitespace on both sides of {fragments}")
    return head, tail, len(head.split()) + len(tail.split())


_TEMPLATES = {"cot": _split_template(COT_PROMPT_TEMPLATE), "cc": _split_template(CC_PROMPT_TEMPLATE)}
_REPAIR_TOKENS = len(REPAIR_INSTRUCTION.split())


def build_requests(
    subsets: Iterable[SubsetAllocation],
    chunk_store: ChunkStore,
    entity_names: Mapping[str, str],
    *,
    same_document: bool = False,
    temperature: float = DEFAULT_TEMPERATURE,
    max_tokens: int = DEFAULT_MAX_TOKENS,
) -> list[GenerationRequest]:
    """The requests of every subset: its paths' CoT requests, then its pairs' CC requests.

    A request's parts are the template's head, then per fragment a block
    prefix, the fragment's label, the chunk text and a blank line, and the
    template's tail in place of the last blank line. Each distinct (entity,
    chunk) fragment is looked up, labelled and counted once per call, then
    quoted by every request that cites it, and each request's
    ``prompt_tokens`` is summed from its fragments' counts; it equals
    ``len(prompt_text.split())`` exactly. No prompt is joined here.
    """
    # (entity_id, chunk_id) -> (label, chunk text, their token count)
    fragments: dict[tuple[str, str], tuple[str, str, int]] = {}

    def render(
        strategy: str, source_id: str, request_id: str,
        steps: Sequence[tuple[str, str]], owner: str,
    ) -> GenerationRequest:
        head, tail, tokens = _TEMPLATES[strategy]
        parts = [head]
        for i, (entity_id, chunk_id) in enumerate(steps, start=1):
            fragment = fragments.get((entity_id, chunk_id))
            if fragment is None:
                if chunk_id not in chunk_store:
                    raise IntegrityError(f"{owner} references unknown chunk '{chunk_id}'")
                title = chunk_store.title_for(chunk_id) if same_document else None
                article = f" (article: {title})" if title else ""
                label = f"{entity_names.get(entity_id, entity_id)}{article}\n"
                text = chunk_store.get(chunk_id).text
                fragment = fragments[entity_id, chunk_id] = (
                    label, text, len(label.split()) + len(text.split())
                )
            label, text, count = fragment
            parts += (_block_prefix(i), label, text, "\n\n")
            tokens += _BLOCK_TOKENS + count
        parts[-1] = tail  # in place of the blank line after the last block
        return GenerationRequest(
            request_id, strategy, source_id, tuple(parts), tokens, temperature, max_tokens
        )

    requests: list[GenerationRequest] = []
    for subset in subsets:
        for path in subset.cot_paths:
            if len(path.steps) < 2:
                raise ValueError("a chained-narrative request needs a path with >= 2 steps")
            requests.append(render(
                "cot", path.path_id or "", f"cot:{path.path_id}", path.steps,
                f"path {path.path_id}",
            ))
        for pair in subset.cc_pairs:
            if pair.left[0] == pair.right[0]:
                raise ValueError("a contrastive pair needs two distinct entities")
            requests.append(render(
                "cc", pair.pair_id, f"cc:{pair.pair_id}", (pair.left, pair.right),
                f"pair {pair.pair_id}",
            ))
    return requests


def _validate_payload(strategy: str, raw: str) -> tuple[dict | None, str | None]:
    try:
        payload = loads(raw)
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


_ENTITY_LINE = re.compile(r"entity:\s*([^\n(]+?)(?:\s*\(article:[^)]*\))?\n")


class MockLlmBackend:
    """Deterministic offline backend producing schema-valid payloads: a CoT
    payload for a prompt that starts with the CoT template's head, a CC
    payload for any other.
    """

    def complete(self, prompt, *, temperature, max_tokens, request_id=None):
        names = [m.strip() for m in _ENTITY_LINE.findall(prompt)] or ["the subject"]
        if prompt.startswith(_TEMPLATES["cot"][0]):
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
        return dumps_ascii(payload)


class RemoteChatBackend:
    """A chat-completion service through a ``JsonClient`` (model, temperature, max_tokens)."""

    def __init__(self, client, model: str):
        self.client = client
        self.model = model

    def complete(self, prompt, *, temperature, max_tokens, request_id=None):
        reply = self.client.post({
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
            "max_tokens": max_tokens,
        })
        return self.client.field(reply, "choices", 0, "message", "content", kind=str)


def _generate_one(
    request: GenerationRequest, backend: ChatBackend, max_retries: int
) -> SynthRecord:
    prompt = request.prompt_text
    input_tokens = request.prompt_tokens
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
            if attempts > max_retries:
                raise BackendError(
                    f"backend unreachable for {request.request_id} after "
                    f"{max_retries} retries: {e}"
                ) from e
            continue
        payload, problem = _validate_payload(request.strategy, raw)
        if problem is None:
            break
        attempts += 1
        if attempts > max_retries:
            payload = {"narrative": ""}  # rejected: the record keeps no reply
            break
        if not repaired:
            prompt = prompt + "\n\n" + REPAIR_INSTRUCTION
            input_tokens += _REPAIR_TOKENS
            repaired = True
    return SynthRecord(
        request_id=request.request_id,
        strategy=request.strategy,
        source_id=request.source_id,
        narrative=payload["narrative"],
        qa=payload.get("qa"),
        comparison=payload.get("comparison"),
        input_tokens=input_tokens,
        output_tokens=len(raw.split()),
        status="ok" if problem is None else "rejected",
        reject_reason=None if problem is None else f"schema: {problem}",
        retries=attempts,
    )


def generate(
    requests: Sequence[GenerationRequest],
    backend: ChatBackend,
    *,
    max_retries: int = 2,
    concurrency: int = 1,
    emit: Callable[[SynthRecord], Any] | None = None,
) -> list:
    """Run all requests; output order always equals request order.

    ``max_retries`` bounds, per request, both the schema retries (the first
    of them appends the repair instruction) and the retries after a
    retryable backend error. ``concurrency`` bounds the requests in flight,
    which the backend enforces (a remote backend pools that many
    connections). Above 1, twice as many workers run, so up to
    ``concurrency`` of them can wait out a retry back-off while every slot
    stays busy. A free worker takes the next request in order and joins
    its prompt only to send it, so only the prompts in flight are held. The
    first error a request raises stops the workers from taking another,
    and ``generate`` raises it. Progress is logged about every tenth of the
    records, as they finish.

    ``emit`` is called with each record in request order, as soon as it and
    every earlier record are done: the worker that finishes the lowest
    missing record passes on the run of records ready after it, under the
    lock that orders them. Only the records waiting on an earlier one are
    held. The list returned holds what ``emit`` returned, or the records
    themselves without ``emit``. Once a request or ``emit`` raises, no
    further record is emitted.
    """
    total = len(requests)
    results: list = []  # in request order: its length is the emitted prefix
    waiting: dict[int, SynthRecord] = {}  # done, but an earlier record is not
    every = -(-total // 10)
    lock = threading.Lock()
    taken = done = rejected = 0
    error: BaseException | None = None

    def work() -> None:
        nonlocal taken, done, rejected, error
        while True:
            with lock:
                if error is not None or taken == total:
                    return
                i = taken
                taken += 1
            try:
                record = _generate_one(requests[i], backend, max_retries)
            except BaseException as e:
                with lock:
                    if error is None:
                        error = e
                return
            with lock:
                if error is not None:
                    return
                done += 1
                rejected += record.status == "rejected"
                if done % every == 0 or done == total:
                    log.info("generate: %d/%d records done, %d rejected", done, total, rejected)
                waiting[i] = record
                try:
                    while len(results) in waiting:
                        record = waiting.pop(len(results))
                        results.append(record if emit is None else emit(record))
                except BaseException as e:
                    error = e
                    return

    if concurrency <= 1:
        work()
    else:
        workers = [threading.Thread(target=work) for _ in range(min(2 * concurrency, total))]
        for w in workers:
            w.start()
        try:
            for w in workers:
                w.join()
        except BaseException as e:  # interrupted: the workers end with their current request
            with lock:
                if error is None:
                    error = e
            raise
    if error is not None:
        raise error
    return results


class RecordOutcome(NamedTuple):
    """What the pipeline keeps of a written record: its source, status and retries."""

    source_id: str
    status: str
    retries: int


# builds a RecordOutcome in C, where the NamedTuple's __new__ is Python code
_new_tuple = tuple.__new__
_COUNTS = ("records", "cot", "cc", "rejected", "input_tokens", "output_tokens")


class CorpusWriter:
    """Writes records to an open text sink as JSONL and counts them.

    ``write`` encodes a record as one line, counts it for ``manifest`` (the
    ``synth_manifest.json`` accounting) and returns its ``RecordOutcome``.
    """

    # the counts are the manifest's fields; slots, a plain method and no
    # dict keep the per-record cost down to that of summing a list of records
    __slots__ = (*_COUNTS, "_write")

    def __init__(self, sink: IO[str]):
        self._write = sink.write
        self.records = self.cot = self.cc = self.rejected = 0
        self.input_tokens = self.output_tokens = 0

    def write(self, record: SynthRecord) -> RecordOutcome:
        # the fields are read before vars(): on CPython 3.11 that call gives
        # the record a dict of its own, and each later lookup goes through it
        self.records += 1
        if record.status != "ok":
            self.rejected += 1
        elif record.strategy == "cot":
            self.cot += 1
        else:
            self.cc += 1
        self.input_tokens += record.input_tokens
        self.output_tokens += record.output_tokens
        outcome = _new_tuple(RecordOutcome, (record.source_id, record.status, record.retries))
        self._write(dumps(vars(record)) + "\n")  # not asdict, which deep-copies each qa list
        return outcome

    @property
    def manifest(self) -> dict:
        return {name: getattr(self, name) for name in _COUNTS}


@contextlib.contextmanager
def corpus_writer(path) -> Iterator[CorpusWriter]:
    """A ``CorpusWriter`` into a file that replaces ``path`` when the block ends;
    if the block raises, ``path`` is left as it was."""
    with atomic_write(path) as sink:
        yield CorpusWriter(sink)


def write_synthetic_corpus(records: Iterable[SynthRecord], sink) -> dict:
    """Write records as JSONL to the file ``sink``; returns the accounting manifest."""
    with corpus_writer(sink) as writer:
        for record in records:
            writer.write(record)
    return writer.manifest


def load_synthetic_corpus(path) -> list[SynthRecord]:
    return list(iter_jsonl(path, *_RECORD_KEYS, build=lambda rec: SynthRecord(**rec)))


def load_outcomes(path) -> list[RecordOutcome]:
    """Each record's outcome in the synth.jsonl at ``path``, read without building the record."""

    def build(rec: dict) -> RecordOutcome:
        source_id = checked(rec, "source_id")
        status, retries = rec.get("status", "ok"), rec.get("retries", 0)
        if status not in ("ok", "rejected"):
            raise ValueError(f"status {status!r} is neither 'ok' nor 'rejected'")
        if type(retries) is not int or retries < 0:
            raise ValueError(f"retries {retries!r} is not an int of at least 0")
        return RecordOutcome(source_id, status, retries)

    return list(iter_jsonl(path, *_RECORD_KEYS, build=build))


def accepted_chars(path) -> int:
    """The characters of the accepted records' text in the synth.jsonl at
    ``path``, summed line by line without keeping the records."""
    total = 0
    for rec in iter_jsonl(path, "status", "narrative", "qa", "comparison"):
        if rec["status"] != "ok":
            continue
        total += len(rec["narrative"])
        for item in rec["qa"] or []:
            total += len(item.get("question", "")) + len(item.get("answer", ""))
        total += len(rec["comparison"] or "")
    return total
