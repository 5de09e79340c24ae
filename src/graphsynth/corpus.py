"""Corpus ingestion and chunking.

Documents come in as JSON Lines records and are split into chunks, the
atomic text units that every later stage (extraction, co-occurrence,
retrieval, coverage accounting) operates on.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path as FsPath
from typing import Callable, Iterable, Sequence, TextIO

from .errors import ConfigurationError, DuplicateIdError, IngestError

# Terminal punctuation followed by whitespace and an uppercase letter or digit.
_SENTENCE_BREAK = re.compile(r"(?<=[.!?])\s+(?=[A-Z0-9“\"(])")


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
class ChunkingConfig:
    """How ``chunk_document`` splits a document: ``fixed`` packs whole
    sentences greedily into chunks of at most ``max_chars``; ``semantic``
    places a boundary wherever adjacent-sentence similarity drops below the
    ``breakpoint_percentile`` of the document's own similarity distribution."""

    policy: str = "fixed"
    max_chars: int = 1200
    breakpoint_percentile: float = 5.0

    def validate(self) -> list[str]:
        problems = []
        if self.policy not in ("fixed", "semantic"):
            problems.append("policy must be 'fixed' or 'semantic'")
        if self.max_chars < 1:
            problems.append("max_chars must be >= 1")
        if not (0.0 <= self.breakpoint_percentile <= 100.0):
            problems.append("breakpoint_percentile must be in [0, 100]")
        return problems


def _pack(pieces: Iterable[str], max_chars: int) -> list[str]:
    """Join consecutive pieces with single spaces, greedily, into texts of at
    most ``max_chars``; a piece longer than that is a text of its own."""
    texts: list[str] = []
    current: list[str] = []
    length = 0
    for piece in pieces:
        if current and length + 1 + len(piece) > max_chars:
            texts.append(" ".join(current))
            current = []
        length = length + 1 + len(piece) if current else len(piece)
        current.append(piece)
    if current:
        texts.append(" ".join(current))
    return texts


def _split_fixed(sentences: list[str], max_chars: int) -> list[str]:
    texts: list[str] = []
    for oversized, run in groupby(sentences, key=lambda s: len(s) > max_chars):
        if oversized:
            # Splitting only at whitespace keeps whitespace-normalized reconstruction exact.
            for sentence in run:
                texts += _pack(sentence.split(), max_chars)
        else:
            texts += _pack(run, max_chars)
    return texts


def _split_semantic(
    sentences: list[str], embed: Callable[[str], Sequence[float]], percentile: float
) -> list[str]:
    import numpy as np

    from .embedding import similarity

    if len(sentences) < 2:
        return [" ".join(sentences)]
    vectors = [embed(s) for s in sentences]
    sims = [similarity(vectors[i], vectors[i + 1]) for i in range(len(vectors) - 1)]
    threshold = float(np.percentile(sims, percentile))
    texts: list[str] = []
    current = [sentences[0]]
    for i, sim in enumerate(sims):
        if sim < threshold:
            texts.append(" ".join(current))
            current = []
        current.append(sentences[i + 1])
    texts.append(" ".join(current))
    return texts


def chunk_document(
    doc: Document,
    cfg: ChunkingConfig,
    embed: Callable[[str], Sequence[float]] | None = None,
) -> list[Chunk]:
    """Split one document into >= 1 chunks; the ``semantic`` policy embeds
    each sentence with ``embed``."""
    problems = cfg.validate()
    if cfg.policy == "semantic" and embed is None:
        problems.append("policy 'semantic' needs an embed function")
    if problems:
        raise ConfigurationError("; ".join(problems))
    if not doc.text.strip():
        raise ValueError("document text is empty")
    sentences = split_sentences(doc.text)
    if cfg.policy == "fixed":
        texts = _split_fixed(sentences, cfg.max_chars)
    else:
        texts = _split_semantic(sentences, embed, cfg.breakpoint_percentile)
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

    titles: dict[str, str] = {}

    def build(rec: dict) -> Chunk:
        for key in ("chunk_id", "doc_id", "text", "doc_title"):
            value = rec.get(key, "")
            if type(value) is not str:
                raise ValueError(f"{key} {value!r} is not a string")
        titles[rec["doc_id"]] = rec.get("doc_title", "")
        return Chunk(rec["chunk_id"], rec["doc_id"], int(rec["ordinal"]), rec["text"])

    chunks = list(iter_jsonl(path, "chunk_id", "doc_id", "ordinal", "text", build=build))
    return ChunkStore(chunks, titles)
