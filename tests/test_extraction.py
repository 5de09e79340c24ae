from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphsynth.corpus import Chunk
from graphsynth.errors import FormatError
from graphsynth.extraction import (
    LlmEntityExtractor,
    MAX_MENTIONS_PER_CHUNK,
    RuleBasedExtractor,
    build_entity_map,
    ExtractionReport,
    load_entity_map,
    normalize_mention,
    save_entity_map,
)


def _chunk(text, chunk_id="d#0000"):
    return Chunk(chunk_id=chunk_id, doc_id=chunk_id.split("#")[0], ordinal=0, text=text)


class ScriptedChat:
    def __init__(self, responses):
        self.responses = responses

    def complete(self, prompt, *, temperature, max_tokens, request_id=None):
        return self.responses[request_id]


# --- extractors -------------------------------------------------------------


def test_rule_based_finds_capitalized_span():
    report = RuleBasedExtractor().extract(_chunk("Company X reported growth."))
    assert "Company X" in report.raw_mentions


def test_rule_based_mentions_are_substrings():
    text = "Company X reported growth while Supplier Y struggled."
    report = RuleBasedExtractor().extract(_chunk(text))
    assert report.raw_mentions
    for m in report.raw_mentions:
        assert m in text


def test_rule_based_empty_when_nothing_matches():
    report = RuleBasedExtractor().extract(_chunk("nothing of note happened today."))
    assert report.raw_mentions == []


def test_rule_based_noun_phrase_after_determiner():
    report = RuleBasedExtractor().extract(
        _chunk("Growth in the accounts receivable balance was sharp.")
    )
    assert any("accounts receivable" in m for m in report.raw_mentions)


def test_rule_based_caps_mentions_keeping_longest():
    names = " ".join(f"Entity Number{i:02d} arrived." for i in range(30))
    report = RuleBasedExtractor().extract(_chunk(names))
    assert len(report.raw_mentions) == MAX_MENTIONS_PER_CHUNK


def test_llm_extractor_passthrough():
    chat = ScriptedChat({"d#0000": json.dumps(["Company X", "accounts receivable"])})
    report = LlmEntityExtractor(chat).extract(_chunk("whatever text"))
    assert report.raw_mentions == ["Company X", "accounts receivable"]


def test_llm_extractor_rejects_non_list():
    chat = ScriptedChat({"d#0000": json.dumps({"entities": []})})
    with pytest.raises(FormatError) as err:
        LlmEntityExtractor(chat).extract(_chunk("text"))
    assert err.value.raw is not None


def test_llm_extractor_rejects_unparseable():
    chat = ScriptedChat({"d#0000": "not json at all"})
    with pytest.raises(FormatError):
        LlmEntityExtractor(chat).extract(_chunk("text"))


# --- normalize_mention ---------------------------------------------------------


def test_normalize_plural_ies():
    assert normalize_mention("Companies") == "company"


def test_normalize_alias_lookup_wins():
    assert normalize_mention("USA", {"usa": "united states"}) == "united states"


def test_normalize_lowercases():
    assert normalize_mention("Accounts Receivable") == "accounts receivable"


def test_normalize_strips_outer_punctuation():
    assert normalize_mention('"Company X."') == "company x"


def test_normalize_ses_suffix():
    assert normalize_mention("buses") == "bus"
    assert normalize_mention("classes") == "class"


def test_normalize_short_words_keep_trailing_s():
    assert normalize_mention("USA") == "usa"
    assert normalize_mention("gas") == "gas"


def test_normalize_double_s_untouched():
    assert normalize_mention("class") == "class"
    assert normalize_mention("boss") == "boss"


@settings(max_examples=200, deadline=None)
@given(st.text(min_size=1, max_size=40))
@example("00:S")  # dropping the "s" exposes punctuation
def test_normalize_idempotent(mention):
    once = normalize_mention(mention)
    assert normalize_mention(once) == once if once else True


# --- build_entity_map -----------------------------------------------------------


def test_map_collects_chunks_per_entity():
    reports = [
        ExtractionReport(chunk_id="c1", raw_mentions=["Company X"]),
        ExtractionReport(chunk_id="c2", raw_mentions=["Other Thing"]),
        ExtractionReport(chunk_id="c3", raw_mentions=["Company X"]),
    ]
    records = build_entity_map(reports)
    by_name = {r.canonical_name: r for r in records}
    assert by_name["company x"].chunk_ids == ["c1", "c3"]


def test_map_merges_normalized_variants():
    reports = [
        ExtractionReport(chunk_id="c1", raw_mentions=["companies"]),
        ExtractionReport(chunk_id="c2", raw_mentions=["Company"]),
    ]
    records = build_entity_map(reports)
    assert len(records) == 1
    assert records[0].canonical_name == "company"
    assert records[0].chunk_ids == ["c1", "c2"]
    assert records[0].aliases == {"companies", "Company"}


def test_map_disjoint_mentions_stay_separate():
    reports = [ExtractionReport(chunk_id="c1", raw_mentions=["alpha", "beta"])]
    records = build_entity_map(reports)
    assert len(records) == 2


def test_map_ids_ordered_by_first_appearance():
    reports = [
        ExtractionReport(chunk_id="c1", raw_mentions=["Zeta", "Alpha"]),
        ExtractionReport(chunk_id="c2", raw_mentions=["Alpha"]),
    ]
    records = build_entity_map(reports)
    assert [r.canonical_name for r in records] == ["zeta", "alpha"]
    assert [r.entity_id for r in records] == ["e00001", "e00002"]


def test_map_fills_resolved_ids_round_trip():
    reports = [
        ExtractionReport(chunk_id="c1", raw_mentions=["Alpha", "Beta"]),
        ExtractionReport(chunk_id="c2", raw_mentions=["beta"]),
    ]
    records = build_entity_map(reports)
    by_id = {r.entity_id: r for r in records}
    for report in reports:
        assert len(report.resolved_entity_ids) == len(set(report.resolved_entity_ids))
        for entity_id in report.resolved_entity_ids:
            assert report.chunk_id in by_id[entity_id].chunk_ids
    # and the reverse direction: every chunk listed on a record was reported
    for record in records:
        for chunk_id in record.chunk_ids:
            report = next(r for r in reports if r.chunk_id == chunk_id)
            assert record.entity_id in report.resolved_entity_ids


def test_map_idempotent_on_rebuild():
    reports = [
        ExtractionReport(chunk_id="c1", raw_mentions=["Alpha Co", "Beta Inc"]),
        ExtractionReport(chunk_id="c2", raw_mentions=["alpha co"]),
    ]
    first = build_entity_map(reports)
    rereported = [
        ExtractionReport(chunk_id=c, raw_mentions=[r.canonical_name])
        for r in first
        for c in r.chunk_ids
    ]
    second = build_entity_map(rereported)
    assert {(r.canonical_name, frozenset(r.chunk_ids)) for r in first} == {
        (r.canonical_name, frozenset(r.chunk_ids)) for r in second
    }


def test_no_two_records_share_canonical_or_alias():
    reports = [
        ExtractionReport(chunk_id="c1", raw_mentions=["Metals", "metal"]),
        ExtractionReport(chunk_id="c2", raw_mentions=["Metal"]),
    ]
    records = build_entity_map(reports)
    canonicals = [r.canonical_name for r in records]
    assert len(canonicals) == len(set(canonicals)) == 1


def test_entity_map_file_roundtrip(tmp_path):
    reports = [ExtractionReport(chunk_id="c1", raw_mentions=["Alpha", "Beta"])]
    records = build_entity_map(reports)
    path = tmp_path / "entities.jsonl"
    save_entity_map(path, records)
    loaded = load_entity_map(path)
    assert [(r.entity_id, r.canonical_name, r.chunk_ids) for r in loaded] == [
        (r.entity_id, r.canonical_name, r.chunk_ids) for r in records
    ]
