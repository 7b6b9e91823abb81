"""The columnar front stages (derive -> extract -> tokenize) against their
per-row references: ``make_html`` / ``link_targets`` for the pages,
``extract_text_from_html``'s inverse property for extraction,
``sentence_token_stream`` and ``_doc_id_from_url`` for the tokenizer."""

from __future__ import annotations

import pyarrow as pa
import pytest

from autoner_ray.sources.pages import (
    URL_PREFIX,
    _TS_BASE_US,
    derive_pages_batch,
    make_html,
)
from autoner_ray.stages.extract import extract_text_batch
from autoner_ray.stages.tokenize import (
    _doc_id_from_url,
    sentence_token_stream,
    split_sentences,
    tokenize_pages_batch,
)

# the largest doc_id whose warc_ts still fits int64
_MAX_ID = (2**63 - 1 - _TS_BASE_US) // 1_000_000
_IDS = [*range(-12, 13), 10**12, -(10**12), _MAX_ID]
_TEXTS = [
    "&", "<", ">", "&amp;", "<p>", "a <b>bold</b> & <i>it</i></p> x",
    "&lt;p&gt; &#38; &", "naïve — 日本語 ☃ Ünïcödé", "", None,
]


def _docs(ids, texts) -> pa.Table:
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * len(ids), pa.string()),
        }
    )


def _adversarial() -> pa.Table:
    """Every id of ``_IDS`` with every text of ``_TEXTS``."""
    rows = [(i, t) for i in _IDS for t in _TEXTS]
    return _docs([i for i, _ in rows], [t for _, t in rows])


def _kg_corpus(seed: int) -> pa.Table:
    from kgbench.corpus import CorpusSpec, generate
    from kgbench.workloads import KG_SPEC

    docs = generate(seed, CorpusSpec(n_docs=6000, **KG_SPEC))
    return docs.select(["doc_id", "text", "lang"])


def _reference_pages(docs: pa.Table) -> pa.Table:
    ids, texts = docs["doc_id"].to_pylist(), docs["text"].to_pylist()
    return pa.table(
        {
            "url": pa.array([f"{URL_PREFIX}{i}" for i in ids], pa.string()),
            "warc_ts": pa.array(
                [_TS_BASE_US + i * 1_000_000 for i in ids],
                pa.timestamp("us"),
            ),
            "html": pa.array(
                [make_html(i, t or "") for i, t in zip(ids, texts)],
                pa.binary(),
            ),
            "text": pa.array(
                [None if i % 2 == 0 else t for i, t in zip(ids, texts)],
                pa.string(),
            ),
            "lang": docs["lang"],
        }
    )


_INPUTS = {
    "adversarial": _adversarial,
    "kg_seed1": lambda: _kg_corpus(1),
    "kg_seed2": lambda: _kg_corpus(2),
}


@pytest.mark.parametrize("name", list(_INPUTS))
def test_derive_pages_matches_per_row_reference(name):
    docs = _INPUTS[name]()
    assert derive_pages_batch(docs).equals(_reference_pages(docs))


@pytest.mark.parametrize("name", list(_INPUTS))
def test_extract_recovers_document_text(name):
    docs = _INPUTS[name]()
    got = extract_text_batch(derive_pages_batch(docs))["text"]
    assert got.to_pylist() == [t or "" for t in docs["text"].to_pylist()]


def test_null_text_derives_like_empty_and_tokenizes_to_nothing():
    pages = derive_pages_batch(_docs([1, 2], [None, None]))
    assert pages["html"].to_pylist() == [make_html(1, ""), make_html(2, "")]
    assert pages["text"].null_count == 2
    text = extract_text_batch(pages)
    assert text["text"].to_pylist() == ["", ""]
    assert tokenize_pages_batch(text).num_rows == 0


@pytest.mark.parametrize("doc_id", [_MAX_ID + 1, 2**62, -(2**62)])
def test_warc_ts_overflow_raises(doc_id):
    with pytest.raises(pa.ArrowInvalid):
        derive_pages_batch(_docs([3, doc_id], ["a", "b"]))


def _tokenize_texts(texts, urls=None) -> pa.Table:
    urls = urls or [f"{URL_PREFIX}{i}" for i in range(len(texts))]
    return tokenize_pages_batch(
        pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "text": pa.array(texts, pa.string()),
            }
        )
    )


def test_whitespace_split_matches_sentence_token_stream():
    ws = ["\t", "\v", "\f", "\r", " \t\v\f\r "]
    odd = ["\x1c", "\x1d", "\x1e", "\x1f", "\xa0", "\x85", "　"]
    texts = [
        f"{w}a{w}b,c{w}" for w in ws
    ] + [
        f"x{o}y {o} z{o}\n{o}w" for o in odd
    ] + [
        "  lead and trail  ", "\t\tone\v\vtwo\f\fthree\r\r",
        "\x1c\x1d\x1e\x1f", "\xa0\x85　 mixed　runs\xa0(x)\x85",
        " \n\t\n x \n", "",
    ]
    got = _tokenize_texts(texts)
    want = [
        (doc, sid, toks)
        for doc, text in enumerate(texts)
        for sid, sent in enumerate(split_sentences(text))
        if (toks := sentence_token_stream(sent))
    ]
    assert list(
        zip(
            got["doc_id"].to_pylist(), got["sent_id"].to_pylist(),
            got["tokens"].to_pylist(),
        )
    ) == want
    assert got["n_tokens"].to_pylist() == [len(t) for _, _, t in want]


def test_url_doc_id_matches_reference_parse():
    suffixes = [
        "+5", " 5", "5_0", "٥", "-0", "007", "1234567890123456789",
        "", "42", "-7", "999999999999999999", "5x", "-",
    ]
    urls = [URL_PREFIX + s for s in suffixes] + [
        "https://example.org/other/5", "5",
    ]
    got = _tokenize_texts(["t"] * len(urls), urls)
    assert got["url"].to_pylist() == urls
    assert got["doc_id"].to_pylist() == [_doc_id_from_url(u) for u in urls]


def _two_chunks(t: pa.Table) -> pa.Table:
    k = t.num_rows // 3
    out = pa.concat_tables([t.slice(0, k), t.slice(k)])
    assert out.column(0).num_chunks == 2
    return out


def test_multi_chunk_input_matches_single_chunk():
    docs = pa.concat_tables(
        [_adversarial(), _kg_corpus(1).slice(0, 300)]
    ).combine_chunks()
    pages = derive_pages_batch(docs)
    text = extract_text_batch(pages)
    sents = tokenize_pages_batch(text)
    assert derive_pages_batch(_two_chunks(docs)).equals(pages)
    assert extract_text_batch(_two_chunks(pages)).equals(text)
    assert tokenize_pages_batch(_two_chunks(text)).equals(sents)
