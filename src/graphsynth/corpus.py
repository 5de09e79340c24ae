"""Corpus ingestion and chunking.

Documents come in as JSON Lines records and are split into chunks, the
atomic text units that every later stage (extraction, co-occurrence,
retrieval, coverage accounting) operates on.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path as FsPath
from typing import Callable, Iterable, Sequence, TextIO

from .errors import DuplicateIdError, IngestError

# Terminal punctuation followed by whitespace and an uppercase letter or digit.
_SENTENCE_BREAK = re.compile(r"(?<=[.!?])\s+(?=[A-Z0-9“\"(])")

DEFAULT_MAX_CHARS = 1200
DEFAULT_BREAKPOINT_PERCENTILE = 5.0


@dataclass(frozen=True)
class Document:
    doc_id: str
    title: str
    text: str


@dataclass(frozen=True)
class Chunk:
    chunk_id: str
    doc_id: str
    ordinal: int
    text: str


def chunk_id_for(doc_id: str, ordinal: int) -> str:
    return f"{doc_id}#{ordinal:04d}"


def ingest_corpus(source: Iterable[str] | TextIO) -> list[Document]:
    """Parse a stream of JSONL document records, preserving stream order.

    Raises IngestError naming the line number for malformed records and
    DuplicateIdError for repeated doc_ids.
    """
    docs: list[Document] = []
    seen: set[str] = set()
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise IngestError(f"line {lineno}: invalid JSON ({e.msg})") from e
        if not isinstance(rec, dict):
            raise IngestError(f"line {lineno}: expected an object record")
        doc_id = rec.get("doc_id")
        text = rec.get("text")
        if not isinstance(doc_id, str) or not doc_id:
            raise IngestError(f"line {lineno}: missing or empty doc_id")
        if not isinstance(text, str) or not text.strip():
            raise IngestError(f"line {lineno}: missing or empty text")
        if doc_id in seen:
            raise DuplicateIdError(f"line {lineno}: duplicate doc_id '{doc_id}'")
        seen.add(doc_id)
        docs.append(Document(doc_id=doc_id, title=str(rec.get("title") or ""), text=text))
    return docs


def split_sentences(text: str) -> list[str]:
    """Deterministic sentence segmentation on terminal punctuation."""
    pieces = [p.strip() for p in _SENTENCE_BREAK.split(text.strip())]
    return [p for p in pieces if p]


@dataclass(frozen=True)
class FixedChunking:
    """Greedy sentence packing capped at max_chars per chunk."""

    max_chars: int = DEFAULT_MAX_CHARS


@dataclass(frozen=True)
class SemanticChunking:
    """Boundary wherever adjacent-sentence similarity drops below the
    breakpoint percentile of the document's own similarity distribution."""

    embed: Callable[[str], Sequence[float]]
    breakpoint_percentile: float = DEFAULT_BREAKPOINT_PERCENTILE


ChunkPolicy = FixedChunking | SemanticChunking


def _wrap_long_sentence(sentence: str, max_chars: int) -> list[str]:
    # Splitting only at whitespace keeps whitespace-normalized reconstruction exact.
    words = sentence.split()
    lines: list[str] = []
    current: list[str] = []
    length = 0
    for w in words:
        extra = len(w) + (1 if current else 0)
        if current and length + extra > max_chars:
            lines.append(" ".join(current))
            current, length = [], 0
            extra = len(w)
        current.append(w)
        length += extra
    if current:
        lines.append(" ".join(current))
    return lines


def _pack_fixed(sentences: list[str], max_chars: int) -> list[str]:
    texts: list[str] = []
    current: list[str] = []
    length = 0

    def flush() -> None:
        nonlocal current, length
        if current:
            texts.append(" ".join(current))
            current, length = [], 0

    for s in sentences:
        if len(s) > max_chars:
            flush()
            texts.extend(_wrap_long_sentence(s, max_chars))
            continue
        extra = len(s) + (1 if current else 0)
        if current and length + extra > max_chars:
            flush()
            extra = len(s)
        current.append(s)
        length += extra
    flush()
    return texts


def _split_semantic(sentences: list[str], policy: SemanticChunking) -> list[str]:
    import numpy as np

    from .embedding import similarity

    if len(sentences) < 2:
        return [" ".join(sentences)]
    vectors = [policy.embed(s) for s in sentences]
    sims = [similarity(vectors[i], vectors[i + 1]) for i in range(len(vectors) - 1)]
    threshold = float(np.percentile(sims, policy.breakpoint_percentile))
    texts: list[str] = []
    current = [sentences[0]]
    for i, sim in enumerate(sims):
        if sim < threshold:
            texts.append(" ".join(current))
            current = []
        current.append(sentences[i + 1])
    texts.append(" ".join(current))
    return texts


def chunk_document(doc: Document, policy: ChunkPolicy) -> list[Chunk]:
    """Split one document into >= 1 chunks under the given policy."""
    if not doc.text.strip():
        raise ValueError("document text is empty")
    sentences = split_sentences(doc.text)
    if isinstance(policy, FixedChunking):
        if policy.max_chars < 1:
            raise ValueError("max_chars must be >= 1")
        texts = _pack_fixed(sentences, policy.max_chars)
    elif isinstance(policy, SemanticChunking):
        texts = _split_semantic(sentences, policy)
    else:
        raise ValueError(f"unknown chunk policy: {policy!r}")
    return [
        Chunk(chunk_id=chunk_id_for(doc.doc_id, i), doc_id=doc.doc_id, ordinal=i, text=t)
        for i, t in enumerate(texts)
    ]


class ChunkStore:
    """Chunk lookup by id, plus the document titles prompts may need."""

    def __init__(self, chunks: Iterable[Chunk], titles: dict[str, str] | None = None):
        self._chunks: dict[str, Chunk] = {}
        for c in chunks:
            if c.chunk_id in self._chunks:
                raise DuplicateIdError(f"duplicate chunk_id '{c.chunk_id}'")
            self._chunks[c.chunk_id] = c
        self._titles = dict(titles or {})

    def __len__(self) -> int:
        return len(self._chunks)

    def __contains__(self, chunk_id: str) -> bool:
        return chunk_id in self._chunks

    def get(self, chunk_id: str) -> Chunk:
        return self._chunks[chunk_id]

    def title_for(self, chunk_id: str) -> str:
        return self._titles.get(self._chunks[chunk_id].doc_id, "")

    def chunks(self) -> list[Chunk]:
        return sorted(self._chunks.values(), key=lambda c: c.chunk_id)


def save_chunks(path: str | FsPath, chunks: Iterable[Chunk], titles: dict[str, str]) -> int:
    from .jsonl import write_jsonl

    return write_jsonl(
        path,
        (
            {
                "chunk_id": c.chunk_id,
                "doc_id": c.doc_id,
                "ordinal": c.ordinal,
                "text": c.text,
                "doc_title": titles.get(c.doc_id, ""),
            }
            for c in chunks
        ),
    )


def load_chunks(path: str | FsPath) -> ChunkStore:
    from .jsonl import iter_jsonl

    chunks: list[Chunk] = []
    titles: dict[str, str] = {}
    for rec in iter_jsonl(path):
        chunks.append(
            Chunk(
                chunk_id=rec["chunk_id"],
                doc_id=rec["doc_id"],
                ordinal=int(rec["ordinal"]),
                text=rec["text"],
            )
        )
        titles[rec["doc_id"]] = rec.get("doc_title", "")
    return ChunkStore(chunks, titles)
