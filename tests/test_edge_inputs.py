"""Degenerate-input robustness: empty batches, empty texts, null rows."""

from __future__ import annotations

import pyarrow as pa
import pytest


def _empty_sentences_table():
    return pa.table(
        {
            "url": pa.array([], pa.string()),
            "doc_id": pa.array([], pa.int64()),
            "sent_id": pa.array([], pa.int32()),
            "tokens": pa.array([], pa.list_(pa.string())),
        }
    )


def test_dict_matcher_empty_batch_all_outputs():
    from autoner_ray.dicts import CORE_DICT, FULL_DICT, STOPWORDS
    from autoner_ray.stages.dict_match import DictMatcher

    for output in ("sentences", "mentions", "annotations", "pairs",
                   "typed_pairs", "pairs_ev"):
        dm = DictMatcher(CORE_DICT, FULL_DICT, STOPWORDS, output=output)
        out = dm(_empty_sentences_table())
        assert out.num_rows == 0


@pytest.mark.parametrize(
    "texts",
    [[], [None, None], ["\n\n \t\n\xa0\n", "   "], ["-- ()\n.,[]"]],
    ids=["zero_rows", "null_text", "newlines_whitespace", "separators"],
)
def test_degenerate_batches_keep_schema(texts):
    """Degenerate pages give schema'd tokenizer output and schema'd
    matcher outputs, never zero-column tables."""
    from autoner_ray.dicts import CORE_DICT, FULL_DICT, STOPWORDS
    from autoner_ray.schemas import SENTENCES
    from autoner_ray.stages.dict_match import DictMatcher
    from autoner_ray.stages.tokenize import tokenize_pages_batch

    def tokenize(texts):
        return tokenize_pages_batch(
            pa.table(
                {
                    "url": pa.array(
                        [f"https://example.org/doc/{i}" for i in range(
                            len(texts))],
                        pa.string(),
                    ),
                    "text": pa.array(texts, pa.string()),
                }
            )
        )

    sents = tokenize(texts)
    assert sents.schema == SENTENCES
    if texts == ["-- ()\n.,[]"]:
        assert sents["tokens"].to_pylist() == [
            ["-", "-", "(", ")"], [".", ",", "[", "]"]
        ]
    else:
        assert sents.num_rows == 0
    ordinary = tokenize(["hash join on a big data row"])
    for output in ("sentences", "mentions", "annotations", "pairs",
                   "typed_pairs", "pairs_ev"):
        dm = DictMatcher(CORE_DICT, FULL_DICT, STOPWORDS, output=output)
        out = dm(sents)
        assert out.num_columns > 0
        assert out.schema == dm(ordinary).schema, output


def test_tokenize_empty_and_null_text():
    from autoner_ray.stages.extract import extract_text_batch
    from autoner_ray.stages.tokenize import tokenize_pages_batch

    pages = pa.table(
        {
            "url": ["https://example.org/doc/1", "https://example.org/doc/2"],
            "warc_ts": pa.array([0, 0], pa.timestamp("us")),
            "html": pa.array([b"<html></html>", b"<p>hi</p>"], pa.binary()),
            "text": pa.array([None, None], pa.string()),
            "lang": ["en", "en"],
        }
    )
    ex = extract_text_batch(pages)
    assert ex["text"].to_pylist() == ["", "hi"]
    sents = tokenize_pages_batch(ex)
    # empty text yields no sentence rows; "hi" yields one
    assert sents.num_rows == 1


def test_pair_counts_empty_entities():
    from autoner_ray.stages.triples import pair_counts_batch

    batch = pa.table(
        {"entities": pa.array([[], ["solo"]], pa.list_(pa.string()))}
    )
    out = pair_counts_batch(batch)
    assert out.num_rows == 0  # no pair from empty or singleton sets


def test_tagger_empty_sentence_list():
    from autoner_ray.state.tagger import Tagger

    with open("/root/repo/autoner_ray/artifacts/tagger_demo.npz", "rb") as f:
        tg = Tagger.from_bytes(f.read())
    assert tg.predict_batch([]) == []
    # single one-word sentence decodes without error
    preds = tg.predict_batch([["filter"]])
    assert isinstance(preds[0], list)


def test_segment_dp_empty_tokens():
    from autoner_ray.dicts import CORE_DICT, FULL_DICT, STOPWORDS
    from autoner_ray.state.trie import build_trie, segment_dp

    trie = build_trie(list(CORE_DICT), list(FULL_DICT), list(STOPWORDS))
    assert segment_dp(trie, []) == []


def test_langid_vectorized_matches_scalar_reference():
    """The profile-matrix LangId equals the scalar per-language loop
    (dict dot products) on real docs and degenerate inputs — same
    argmax, same sorted-first tie-break, same 'und' for empty."""
    import numpy as np
    import pyarrow.parquet as pq

    from autoner_ray.stages.analysis import _LANG_SEEDS, LangId, _trigrams

    profiles = {}
    for lang, seed in _LANG_SEEDS.items():
        prof = _trigrams(seed)
        norm = np.sqrt(sum(v * v for v in prof.values()))
        profiles[lang] = (prof, norm)

    def scalar_predict(text: str) -> str:
        tg = _trigrams(text[:1000])
        if not tg:
            return "und"
        tnorm = np.sqrt(sum(v * v for v in tg.values()))
        best_lang, best = "und", -1.0
        for lang, (prof, pnorm) in sorted(profiles.items()):
            dot = sum(c * prof.get(g, 0) for g, c in tg.items())
            sim = dot / (tnorm * pnorm) if pnorm else 0.0
            if sim > best:
                best, best_lang = sim, lang
        return best_lang

    texts = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet", columns=["text"]
    )["text"].to_pylist()
    texts += ["", "   ", "éé", "12345 67890", "\U0001f600" * 40]
    li = LangId()
    for t in texts:
        assert li.predict(t or "") == scalar_predict(t or ""), repr(t[:40])


def test_bounded_key_sum_multi_block_matches_groupby():
    """bounded_key_sum over a multi-block partial stream == plain sum,
    including a zero-row block in the stream."""
    import ray.data as rd

    from autoner_ray.stages.combine import bounded_key_sum

    blocks = [
        pa.table({"k": ["a", "b", "a"], "n": [1, 2, 3]}),
        pa.table({"k": pa.array([], pa.string()),
                  "n": pa.array([], pa.int64())}),
        pa.table({"k": ["b", "c"], "n": [10, 5]}),
    ]
    ds = rd.from_arrow(blocks)
    out = bounded_key_sum(ds, ["k"], ["n"]).to_pandas()
    got = dict(zip(out["k"], out["n"]))
    assert got == {"a": 4, "b": 12, "c": 5}
    assert list(out.columns) == ["k", "n"]


def test_partitioned_key_sum_matches_bounded():
    """partitioned_key_sum (key-distributed combine) produces the same
    key->sum map as bounded_key_sum, one row per key globally, for
    multi-key tables partitioned on a key subset."""
    import ray.data as rd

    from autoner_ray.stages.combine import (
        bounded_key_sum,
        partitioned_key_sum,
    )

    blocks = [
        pa.table({"s": ["x", "y", "x"], "w": ["a", "a", "b"],
                  "n": [1, 2, 3]}),
        pa.table({"s": pa.array([], pa.string()),
                  "w": pa.array([], pa.string()),
                  "n": pa.array([], pa.int64())}),
        pa.table({"s": ["x", "y"], "w": ["a", "c"], "n": [10, 5]}),
    ]
    want = {
        (r["s"], r["w"]): r["n"]
        for r in bounded_key_sum(
            rd.from_arrow(blocks), ["s", "w"], ["n"]
        ).take_all()
    }
    got_rows = partitioned_key_sum(
        rd.from_arrow(blocks), ["s", "w"], ["n"],
        part_on=("w",), num_partitions=3,
    ).take_all()
    got = {(r["s"], r["w"]): r["n"] for r in got_rows}
    assert got == want and len(got_rows) == len(got)  # no dup keys


def test_bounded_key_sum_property_matches_pandas(ray_session=None):
    """Property: for random multi-block partial streams (any key
    distribution, any block split, zero-row blocks), bounded_key_sum
    equals a plain pandas groupby-sum."""
    import pandas as pd
    import ray.data as rd
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from autoner_ray.stages.combine import bounded_key_sum

    rows = st.lists(
        st.tuples(st.sampled_from("abcdef"),
                  st.integers(-10**9, 10**9)),
        min_size=0, max_size=60,
    )

    @settings(max_examples=15, deadline=None)
    @given(rows=rows, n_blocks=st.integers(1, 5))
    def check(rows, n_blocks):
        blocks = []
        per = max(1, (len(rows) + n_blocks - 1) // n_blocks)
        for i in range(0, max(len(rows), 1), per):
            chunk = rows[i : i + per]
            blocks.append(
                pa.table(
                    {
                        "k": pa.array([r[0] for r in chunk], pa.string()),
                        "v": pa.array([r[1] for r in chunk], pa.int64()),
                    }
                )
            )
        got = bounded_key_sum(rd.from_arrow(blocks), ["k"], ["v"]).to_pandas()
        if not rows:
            # empty stream -> empty result (Ray may drop the schema of an
            # all-empty dataset at the to_pandas boundary)
            assert len(got) == 0
            return
        want = (
            pd.DataFrame(rows, columns=["k", "v"])
            .groupby("k", as_index=False)["v"].sum()
        )
        assert dict(zip(got["k"], got["v"])) == dict(zip(want["k"], want["v"]))

    check()


def test_postings_delta_varint_thresholds(ray_session):
    """Varint byte costs use integer threshold compares: craft doc ids
    that land exactly on the LEB128 boundaries (127/128, 16383/16384)
    and check the per-word audit against hand-coded LEB128 lengths."""
    import pyarrow as pa
    import ray.data as rd

    from autoner_ray.stages.analysis import postings_delta_encoding

    def leb128_len(x: int) -> int:
        n = 1
        while x >= 0x80:
            x >>= 7
            n += 1
        return n

    ids = [0, 127, 255, 16638, 33022]  # gaps: 0,127,128,16383,16384
    docs = pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(["boundary word"] * len(ids), pa.string()),
        }
    )
    out = postings_delta_encoding(rd.from_arrow(docs)).to_pandas()
    row = out[out["word"] == "boundary"].iloc[0]
    gaps = [ids[0]] + [b - a for a, b in zip(ids, ids[1:])]
    assert row["df"] == len(ids)
    assert row["first_doc"] == 0
    assert row["max_gap"] == max(gaps)
    assert row["varint_bytes"] == sum(leb128_len(g) for g in gaps)
