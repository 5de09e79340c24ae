from __future__ import annotations

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsynth.corpus import (
    Chunk,
    ChunkStore,
    ChunkingConfig,
    Document,
    chunk_document,
    ingest_corpus,
    load_chunks,
    save_chunks,
    split_sentences,
)
from graphsynth.errors import ConfigurationError, DuplicateIdError, IngestError


def _lines(*records):
    return [json.dumps(r) for r in records]


def test_ingest_passes_through_in_order():
    docs = ingest_corpus(
        _lines(
            {"doc_id": "d1", "title": "One", "text": "First text."},
            {"doc_id": "d2", "title": "Two", "text": "Second text."},
        )
    )
    assert [d.doc_id for d in docs] == ["d1", "d2"]
    assert docs[0].title == "One"


def test_ingest_rejects_duplicate_doc_id():
    with pytest.raises(DuplicateIdError, match="d1"):
        ingest_corpus(
            _lines(
                {"doc_id": "d1", "title": "", "text": "a."},
                {"doc_id": "d1", "title": "", "text": "b."},
            )
        )


def test_ingest_empty_stream():
    assert ingest_corpus([]) == []


def test_ingest_malformed_record_names_line():
    with pytest.raises(IngestError, match="line 2"):
        ingest_corpus([json.dumps({"doc_id": "d1", "text": "ok."}), "{broken"])


def test_ingest_missing_text_names_line():
    with pytest.raises(IngestError, match="line 1"):
        ingest_corpus(_lines({"doc_id": "d1", "title": "t", "text": "   "}))


def test_ingest_accepts_file_object():
    payload = "\n".join(_lines({"doc_id": "d", "title": "", "text": "x."}))
    assert len(ingest_corpus(io.StringIO(payload))) == 1


def test_ingest_of_a_binary_file_names_the_file_and_an_undecodable_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    first = json.dumps({"doc_id": "d", "title": "", "text": "caf\u00e9."}, ensure_ascii=False)
    path.write_bytes(first.encode("utf-8") + b"\r\n\xff\n")
    with open(path, "rb") as f, pytest.raises(IngestError) as e:
        ingest_corpus(f)
    assert str(e.value).startswith(f"{path}, line 2: not valid UTF-8 (")
    path.write_bytes(first.encode("utf-8") + b"\r\n")
    with open(path, "rb") as f:
        assert [d.text for d in ingest_corpus(f)] == ["caf\u00e9."]


def test_split_sentences_terminal_punctuation():
    text = "One thing happened. Then another! Did it matter? 42 said so."
    assert split_sentences(text) == [
        "One thing happened.",
        "Then another!",
        "Did it matter?",
        "42 said so.",
    ]


def test_split_sentences_does_not_break_before_lowercase():
    assert split_sentences("He said approx. nothing more.") == ["He said approx. nothing more."]


def test_fixed_single_sentence_single_chunk():
    doc = Document(doc_id="d", title="", text="Just one sentence here.")
    chunks = chunk_document(doc, ChunkingConfig(max_chars=4096))
    assert len(chunks) == 1
    assert chunks[0].text == "Just one sentence here."
    assert chunks[0].ordinal == 0


def test_fixed_never_splits_inside_sentence():
    doc = Document(doc_id="d", title="", text="Alpha beta gamma. Delta epsilon zeta.")
    chunks = chunk_document(doc, ChunkingConfig(max_chars=20))
    assert [c.text for c in chunks] == ["Alpha beta gamma.", "Delta epsilon zeta."]


def test_fixed_oversized_sentence_splits_at_whitespace():
    words = " ".join(f"W{i}" for i in range(50))
    doc = Document(doc_id="d", title="", text=f"Aa. Bb. {words}. Cc. Dd.")
    chunks = chunk_document(doc, ChunkingConfig(max_chars=40))
    texts = [c.text for c in chunks]
    assert len(texts) > 3
    rebuilt = " ".join(" ".join(texts).split())
    assert rebuilt == " ".join(doc.text.split())
    # the short sentences on either side keep to chunks of their own
    assert texts[0] == "Aa. Bb."
    assert texts[-1] == "Cc. Dd."
    assert all(len(t) <= 40 and t.startswith("W") for t in texts[1:-1])


def test_empty_document_rejected():
    with pytest.raises(ValueError):
        chunk_document(Document(doc_id="d", title="", text="   "), ChunkingConfig())


@pytest.mark.parametrize(
    "cfg, problem",
    [
        ({"max_chars": 0}, "max_chars must be >= 1"),
        ({"policy": "sentences"}, "policy must be 'fixed' or 'semantic'"),
        ({"breakpoint_percentile": 101.0}, "breakpoint_percentile"),
        ({"policy": "semantic"}, "needs an embed function"),
    ],
)
def test_chunk_document_rejects_an_invalid_config(cfg, problem):
    # the config's own problems stop its construction; chunk_document checks the embed function
    doc = Document(doc_id="d", title="", text="One. Two.")
    with pytest.raises(ConfigurationError, match=problem):
        chunk_document(doc, ChunkingConfig(**cfg))


def test_semantic_split_at_derived_boundary(fake_embedder_factory):
    # Three sentences with adjacent similarities (0.9, 0.1). The threshold at
    # the 25th percentile of [0.1, 0.9] is 0.1 + 0.25*(0.9-0.1) = 0.3 by the
    # linear-interpolation rule, so only the second gap (0.1 < 0.3) splits.
    s1, s2, s3 = "First point here.", "Second point here.", "Third point here."
    vecs = {
        s1: (1.0, 0.0),
        s2: (0.9, 0.1),  # dot(s1, s2) = 0.9
        s3: (0.0, 1.0),  # dot(s2, s3) = 0.1
    }
    embedder = fake_embedder_factory(vecs)
    doc = Document(doc_id="d", title="", text=f"{s1} {s2} {s3}")
    cfg = ChunkingConfig(policy="semantic", breakpoint_percentile=25.0)
    chunks = chunk_document(doc, cfg, embed=embedder.embed)
    assert [c.text for c in chunks] == [f"{s1} {s2}", s3]


def test_semantic_no_boundary_when_similarity_uniform(fake_embedder_factory):
    s1, s2 = "Alpha beta.", "Gamma delta."
    embedder = fake_embedder_factory({s1: (1.0, 0.0), s2: (1.0, 0.0)})
    doc = Document(doc_id="d", title="", text=f"{s1} {s2}")
    cfg = ChunkingConfig(policy="semantic", breakpoint_percentile=25.0)
    assert len(chunk_document(doc, cfg, embed=embedder.embed)) == 1


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.text(
            alphabet=st.sampled_from("abcdefgh XYZ"),
            min_size=1,
            max_size=30,
        ).map(lambda s: s.strip() or "x"),
        min_size=1,
        max_size=8,
    ),
    st.integers(min_value=5, max_value=200),
)
def test_reconstruction_property(fragments, max_chars):
    text = ". ".join(fragments) + "."
    doc = Document(doc_id="d", title="", text=text)
    chunks = chunk_document(doc, ChunkingConfig(max_chars=max_chars))
    assert len(chunks) >= 1
    rebuilt = " ".join(" ".join(c.text for c in chunks).split())
    assert rebuilt == " ".join(text.split())
    assert [c.ordinal for c in chunks] == list(range(len(chunks)))
    # the packer's cap: only a single word may exceed max_chars
    assert all(len(c.text) <= max_chars or len(c.text.split()) == 1 for c in chunks)


def test_chunking_deterministic():
    doc = Document(doc_id="d", title="", text="A first one. B second one. C third one.")
    a = chunk_document(doc, ChunkingConfig(max_chars=25))
    b = chunk_document(doc, ChunkingConfig(max_chars=25))
    assert a == b


def test_chunk_store_roundtrip(tmp_path):
    chunks = [
        Chunk(chunk_id="d#0000", doc_id="d", ordinal=0, text="First."),
        Chunk(chunk_id="d#0001", doc_id="d", ordinal=1, text="Second."),
    ]
    path = tmp_path / "chunks.jsonl"
    save_chunks(path, chunks, {"d": "A Title"})
    store = load_chunks(path)
    assert len(store) == 2
    assert store.get("d#0001").text == "Second."
    assert store.title_for("d#0000") == "A Title"


def test_chunk_store_rejects_duplicates():
    c = Chunk(chunk_id="x", doc_id="d", ordinal=0, text="t")
    with pytest.raises(DuplicateIdError):
        ChunkStore([c, c])
