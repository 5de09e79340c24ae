"""Entity extraction, mention normalization, and the entity-to-chunk map.

Two extractor backends: a deterministic rule-based one (capitalized spans
plus determiner-introduced noun phrases) so the pipeline runs offline, and
an LLM-backed one whose output is validated as a flat list of strings.
"""

from __future__ import annotations

import json
import re
import string
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Protocol

from .corpus import Chunk
from .errors import FormatError
from .jsonl import checked, iter_jsonl, loads, write_jsonl

MAX_MENTIONS_PER_CHUNK = 16

# Maximal runs of capitalized tokens ("Company X", "Accounts Receivable Dept").
# A run stops before a token's closing "." ("Smith. The" gives "Smith"), so no
# span holds a break of ``corpus.split_sentences`` or ends in its period.
_CAP_SPAN = re.compile(r"\b[A-Z][\w&.'-]*(?:(?<!\.)\s+[A-Z][\w&.'-]*)*(?<!\.)")
# Determiner-introduced lowercase noun phrases of 2-3 words.
_NOUN_PHRASE = re.compile(r"\b(?:the|a|an)\s+([a-z][a-z-]*(?:\s+[a-z][a-z-]*){1,2})\b")

_LEADING_STOPWORDS = {
    "a", "an", "and", "at", "but", "by", "for", "from", "he", "her", "his",
    "i", "if", "in", "it", "its", "of", "on", "or", "our", "she", "so",
    "that", "the", "their", "these", "they", "this", "those", "to", "we",
    "when", "while", "with", "you",
}

_STRIP_CHARS = string.punctuation + string.whitespace + "“”‘’"


@dataclass
class EntityRecord:
    entity_id: str
    canonical_name: str
    aliases: set[str] = field(default_factory=set)
    chunk_ids: list[str] = field(default_factory=list)


@dataclass
class ExtractionReport:
    chunk_id: str
    raw_mentions: list[str]


class ChatBackend(Protocol):
    def complete(
        self,
        prompt: str,
        *,
        temperature: float,
        max_tokens: int,
        request_id: str | None = None,
    ) -> str: ...


def _drop_leading_stopwords(span: str) -> str:
    words = span.split()
    while words and words[0].lower() in _LEADING_STOPWORDS:
        words = words[1:]
    return " ".join(words)


class RuleBasedExtractor:
    """Offline extractor: capitalized spans plus determiner noun phrases.

    Mentions are capped at MAX_MENTIONS_PER_CHUNK, keeping the longest
    spans, then reported in order of first appearance.
    """

    def extract(self, chunk: Chunk) -> ExtractionReport:
        found: list[tuple[int, str]] = []
        for m in _CAP_SPAN.finditer(chunk.text):
            span = _drop_leading_stopwords(m.group(0))
            if span:
                found.append((m.start(), span))
        for m in _NOUN_PHRASE.finditer(chunk.text):
            found.append((m.start(1), m.group(1)))

        seen: set[str] = set()
        unique: list[tuple[int, str]] = []
        for pos, span in sorted(found):
            if span not in seen:
                seen.add(span)
                unique.append((pos, span))
        if len(unique) > MAX_MENTIONS_PER_CHUNK:
            keep = sorted(unique, key=lambda it: (-len(it[1]), it[0]))[:MAX_MENTIONS_PER_CHUNK]
            unique = sorted(keep)
        return ExtractionReport(chunk_id=chunk.chunk_id, raw_mentions=[s for _, s in unique])


DEFAULT_ENTITY_PROMPT = """Identify the key entities and concepts mentioned in the passage below.
Include named entities (people, organizations, places, products) and salient
domain concepts. Respond with a JSON array of strings and nothing else.

Passage:
{passage}"""
_ENTITY_MAX_TOKENS = 512


class LlmEntityExtractor:
    """Extractor that asks a chat backend for a JSON list of entity strings."""

    def __init__(self, backend: ChatBackend):
        self.backend = backend

    def extract(self, chunk: Chunk) -> ExtractionReport:
        raw = self.backend.complete(
            DEFAULT_ENTITY_PROMPT.format(passage=chunk.text),
            temperature=0.0,
            max_tokens=_ENTITY_MAX_TOKENS,
            request_id=chunk.chunk_id,
        )
        try:
            payload = loads(raw)
        except json.JSONDecodeError:
            raise FormatError(f"entity list for {chunk.chunk_id} is not valid JSON", raw=raw)
        if not isinstance(payload, list) or not all(
            isinstance(x, str) and x.strip() for x in payload
        ):
            raise FormatError(
                f"entity list for {chunk.chunk_id} must be a JSON array of non-empty strings",
                raw=raw,
            )
        mentions: list[str] = []
        for x in payload:
            x = x.strip()
            if x not in mentions:
                mentions.append(x)
        return ExtractionReport(chunk_id=chunk.chunk_id, raw_mentions=mentions)


def normalize_mention(mention: str, alias_table: Mapping[str, str] | None = None) -> str:
    """Lowercase, strip outer punctuation, singularize trailing plural
    suffixes, then apply the alias table (alias mappings win).

    Stripping and the suffix rules run to a fixpoint so the function is
    idempotent: dropping a suffix can expose punctuation ("00:s" -> "00:").
    """
    m = mention.lower()
    while True:
        m = m.strip(_STRIP_CHARS)
        if m.endswith("ies") and len(m) > 3:
            m = m[:-3] + "y"
        elif m.endswith("ses") and len(m) > 3:
            m = m[:-3] + "s"
        elif m.endswith("s") and not m.endswith("ss") and len(m) > 3:
            m = m[:-1]
        else:
            break
    if alias_table and m in alias_table:
        return alias_table[m]
    return m


def build_entity_map(
    reports: Iterable[ExtractionReport],
    alias_table: Mapping[str, str] | None = None,
) -> list[EntityRecord]:
    """Merge mentions with the same canonical form into EntityRecords.

    Entity ids are assigned in order of first appearance.
    """
    by_canonical: dict[str, EntityRecord] = {}
    listed: set[tuple[str, str]] = set()  # (canonical, chunk_id) pairs already recorded
    for report in reports:
        for mention in report.raw_mentions:
            canonical = normalize_mention(mention, alias_table)
            if not canonical:
                continue
            rec = by_canonical.get(canonical)
            if rec is None:
                rec = by_canonical[canonical] = EntityRecord(
                    entity_id=f"e{len(by_canonical) + 1:05d}", canonical_name=canonical
                )
            rec.aliases.add(mention)
            if (canonical, report.chunk_id) not in listed:
                listed.add((canonical, report.chunk_id))
                rec.chunk_ids.append(report.chunk_id)
    return list(by_canonical.values())


def entity_chunk_index(entity_map: Iterable[EntityRecord]) -> dict[str, list[str]]:
    return {rec.entity_id: list(rec.chunk_ids) for rec in entity_map}


def canonical_names(entity_map: Iterable[EntityRecord]) -> dict[str, str]:
    return {rec.entity_id: rec.canonical_name for rec in entity_map}


def load_alias_table(path) -> dict[str, str]:
    """Alias table file: JSONL of {surface, canonical}, both strings.

    Each surface is keyed as ``normalize_mention`` leaves a mention, so a
    plural or punctuated surface matches; two lines whose surfaces normalize
    alike but name different canonicals are a ``FormatError``.
    """
    table: dict[str, str] = {}

    def build(rec: dict) -> None:
        raw, canonical = checked(rec, "surface"), checked(rec, "canonical")
        surface = normalize_mention(raw)
        known = table.setdefault(surface, canonical)
        if known != canonical:
            raise ValueError(
                f"surface {raw!r} normalizes to {surface!r}, "
                f"which an earlier line maps to {known!r}, not {canonical!r}"
            )

    for _ in iter_jsonl(path, "surface", "canonical", build=build):
        pass
    return table


def save_entity_map(path, entity_map: Iterable[EntityRecord]) -> int:
    return write_jsonl(
        path,
        (
            {
                "entity_id": rec.entity_id,
                "canonical_name": rec.canonical_name,
                "aliases": sorted(rec.aliases),
                "chunk_ids": rec.chunk_ids,
            }
            for rec in entity_map
        ),
    )


def load_entity_map(path) -> list[EntityRecord]:
    def build(rec: dict) -> EntityRecord:
        return EntityRecord(
            entity_id=checked(rec, "entity_id"),
            canonical_name=checked(rec, "canonical_name"),
            chunk_ids=checked(rec, "chunk_ids", "chunk ids"),
            aliases=set(checked(rec, "aliases", "strings", [])),
        )

    return list(iter_jsonl(path, "entity_id", "canonical_name", "chunk_ids", build=build))
