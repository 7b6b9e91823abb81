"""Degenerate-input robustness: empty batches, empty texts, null rows."""

from __future__ import annotations

from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

ARTIFACT = (
    Path(__file__).resolve().parents[1]
    / "autoner_ray" / "artifacts" / "tagger_demo.npz"
)


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

    with open(ARTIFACT, "rb") as f:
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
    """The bounded tier of keyed_combine summing over a multi-block
    partial stream == plain sum, including a zero-row block in the
    stream."""
    import ray.data as rd

    from autoner_ray.stages.combine import BOUNDED_MAX_KEYS, keyed_combine

    blocks = [
        pa.table({"k": ["a", "b", "a"], "n": [1, 2, 3]}),
        pa.table({"k": pa.array([], pa.string()),
                  "n": pa.array([], pa.int64())}),
        pa.table({"k": ["b", "c"], "n": [10, 5]}),
    ]
    ds = rd.from_arrow(blocks)
    out = keyed_combine(
        ds, pa.schema([("k", pa.string()), ("n", pa.int64())]),
        [("n", "sum")], max_keys=BOUNDED_MAX_KEYS,
    ).to_pandas()
    got = dict(zip(out["k"], out["n"]))
    assert got == {"a": 4, "b": 12, "c": 5}
    assert list(out.columns) == ["k", "n"]


def test_partitioned_key_sum_matches_bounded():
    """The partitioned tier of keyed_combine summing (key-distributed
    combine) produces the same key->sum map as its bounded tier, one row
    per key globally, for multi-key tables hashed on a key subset."""
    import ray.data as rd

    from autoner_ray.stages.combine import BOUNDED_MAX_KEYS, keyed_combine

    blocks = [
        pa.table({"s": ["x", "y", "x"], "w": ["a", "a", "b"],
                  "n": [1, 2, 3]}),
        pa.table({"s": pa.array([], pa.string()),
                  "w": pa.array([], pa.string()),
                  "n": pa.array([], pa.int64())}),
        pa.table({"s": ["x", "y"], "w": ["a", "c"], "n": [10, 5]}),
    ]
    schema = pa.schema(
        [("s", pa.string()), ("w", pa.string()), ("n", pa.int64())]
    )
    want = {
        (r["s"], r["w"]): r["n"]
        for r in keyed_combine(
            rd.from_arrow(blocks), schema, [("n", "sum")],
            max_keys=BOUNDED_MAX_KEYS,
        ).take_all()
    }
    got_rows = keyed_combine(
        rd.from_arrow(blocks), schema, [("n", "sum")], part_on=("w",),
    ).take_all()
    got = {(r["s"], r["w"]): r["n"] for r in got_rows}
    assert got == want and len(got_rows) == len(got)  # no dup keys


def test_bounded_key_sum_property_matches_pandas(ray_session=None):
    """Property: for random multi-block partial streams (any key
    distribution, any block split, zero-row blocks), the bounded tier of
    keyed_combine summing equals a plain pandas groupby-sum."""
    import pandas as pd
    import ray.data as rd
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from autoner_ray.stages.combine import BOUNDED_MAX_KEYS, keyed_combine

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
        got = keyed_combine(
            rd.from_arrow(blocks),
            pa.schema([("k", pa.string()), ("v", pa.int64())]),
            [("v", "sum")], max_keys=BOUNDED_MAX_KEYS,
        ).to_pandas()
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


def _keyed_blocks(seed: int) -> list[pa.Table]:
    """A multi-block (k, j, v) stream with keys repeated across blocks,
    zero-row blocks and zero-column blocks."""
    import random

    rng = random.Random(seed)
    blocks = []
    for b in range(8):
        if b % 4 == 3:
            blocks.append(pa.table({}))
            continue
        n = 0 if b == 5 else rng.randint(1, 30)
        blocks.append(
            pa.table(
                {
                    "k": pa.array(
                        [rng.choice("abcdefg") for _ in range(n)], pa.string()
                    ),
                    "j": pa.array(
                        [rng.choice("xy") for _ in range(n)], pa.string()
                    ),
                    "v": pa.array(
                        [rng.randint(-50, 50) for _ in range(n)], pa.int64()
                    ),
                }
            )
        )
    return blocks


@pytest.mark.parametrize("fn", ["sum", "min", "max"])
@pytest.mark.parametrize("tier", ["bounded", "partitioned"])
def test_keyed_combine_tiers_match_oracle(ray_session, typed_blocks, tier,
                                          fn):
    """Both tiers of keyed_combine equal a plain-Python group-by for each
    re-associative aggregate, over multi-block streams and empty input,
    and every block they emit has the declared schema: string and int64
    keys, int64 and float64 values, and fewer distinct keys than input
    blocks. No block has zero columns unless the sort has more reducers
    (input blocks) than distinct key hashes, which only the uncoalesced
    partitioned runs here have, or the whole input is empty."""
    import random

    import ray.data as rd

    from autoner_ray.stages.combine import BOUNDED_MAX_KEYS, keyed_combine

    max_keys = BOUNDED_MAX_KEYS if tier == "bounded" else None
    agg = {"sum": sum, "min": min, "max": max}[fn]
    strings = pa.schema(
        [("k", pa.string()), ("j", pa.string()), ("v", pa.int64())]
    )

    def combined(blocks, schema, coalesce=True):
        return keyed_combine(
            rd.from_arrow(blocks), schema, [("v", fn)], part_on=("k",),
            max_keys=max_keys, coalesce=coalesce,
        ).materialize()

    def check(blocks, schema, coalesce=True):
        groups: dict = {}
        for t in blocks:
            for r in t.to_pylist():
                groups.setdefault((r["k"], r["j"]), []).append(r["v"])
        want = sorted(key + (agg(vs),) for key, vs in groups.items())
        ds = combined(blocks, schema, coalesce)
        assert _edge_rows(ds) == want
        zero_column = typed_blocks(ds, schema)
        if coalesce or tier == "bounded":
            assert zero_column == 0
        return ds, want

    for seed, coalesce in ((1, True), (2, False)):
        ds, want = check(_keyed_blocks(seed), strings, coalesce)
        assert len(want) > 8
        ops = _op_names(ds)
        if tier == "bounded":  # the driver fold: no exchange at all
            assert "Repartition" not in ops and "Sort" not in ops
        else:
            assert "Sort" in ops

    # 3 distinct keys over 9 input blocks
    rng = random.Random(3)
    few = [
        pa.table(
            {
                "k": pa.array([rng.choice("abc") for _ in range(5)]),
                "j": pa.array(["x"] * 5),
                "v": pa.array([rng.randint(-9, 9) for _ in range(5)],
                              pa.int64()),
            }
        )
        for _ in range(9)
    ]
    assert len(check(few, strings)[1]) == 3

    # int64 keys and a float64 value column
    numeric = pa.schema(
        [("k", pa.int64()), ("j", pa.int64()), ("v", pa.float64())]
    )
    nums = [
        pa.table(
            {
                "k": pa.array([rng.randint(0, 40) for _ in range(30)],
                              pa.int64()),
                "j": pa.array([rng.randint(0, 1) for _ in range(30)],
                              pa.int64()),
                "v": pa.array([rng.randint(-50, 50) / 4 for _ in range(30)],
                              pa.float64()),
            }
        )
        for _ in range(6)
    ]
    assert len(check(nums, numeric)[1]) > 20

    empty = _keyed_blocks(1)[5]
    assert empty.num_rows == 0
    for blocks in ([empty], [pa.table({})], [empty, pa.table({}), empty]):
        ds = combined(blocks, strings)
        assert ds.take_all() == []
        typed_blocks(ds, strings)


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


# -- edge aggregate tiers ----------------------------------------------------

def _edge_rows(ds):
    return sorted(tuple(r.values()) for r in ds.take_all())


def _op_names(ds) -> list[str]:
    return [
        line.split(":")[0].split(" ", 2)[2]
        for line in ds.stats().splitlines()
        if line.startswith("Operator ")
    ]


def _both_tiers(pairs_factory, **kw):
    """(bounded rows, partitioned rows) of ``aggregate_edges`` over
    fresh copies of the same partial stream."""
    from autoner_ray.stages.combine import BOUNDED_MAX_KEYS
    from autoner_ray.stages.triples import aggregate_edges

    bounded = aggregate_edges(
        pairs_factory(), max_keys=BOUNDED_MAX_KEYS, **kw
    )
    partitioned = aggregate_edges(pairs_factory(), **kw)
    rows = _edge_rows(bounded), _edge_rows(partitioned)
    assert "Repartition" not in _op_names(bounded)
    assert "Sort" not in _op_names(bounded)
    assert "Sort" in _op_names(partitioned)
    return rows


def _fixture_sentence_rows(sf_dir):
    """The fixture's sentence rows from the stage kernels, in process."""
    from autoner_ray.sources.pages import derive_pages_batch
    from autoner_ray.stages.extract import extract_text_batch
    from autoner_ray.stages.tokenize import tokenize_pages_batch

    docs = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    sents = tokenize_pages_batch(extract_text_batch(derive_pages_batch(docs)))
    return sents.to_pylist()


def _dict_edges_oracle(sent_rows):
    """Plain-Python count: reference trie + segmentDP per sentence, then
    sorted entity pairs; evidence = min "url#sent_id" per edge."""
    from collections import Counter
    from itertools import combinations

    from autoner_ray.dicts import CORE_DICT, FULL_DICT, STOPWORDS
    from autoner_ray.functions.text import normalize_surface
    from autoner_ray.stages.triples import PRED_COOCCUR
    from autoner_ray.state.trie import FILTERED_TYPE, build_trie, segment_dp

    trie = build_trie(CORE_DICT, FULL_DICT, STOPWORDS)
    weight: Counter = Counter()
    evidence: dict = {}
    for row in sent_rows:
        toks = row["tokens"]
        ents = {
            normalize_surface(" ".join(toks[l:r]))
            for l, r, ty in segment_dp(trie, toks)
            if ty and ty != FILTERED_TYPE
        }
        pointer = f"{row['url']}#{row['sent_id']}"
        for a, b in combinations(sorted(ents), 2):
            key = (a, PRED_COOCCUR, b)
            weight[key] += 1
            evidence[key] = min(evidence.get(key, pointer), pointer)
    return (
        sorted(k + (w,) for k, w in weight.items()),
        sorted(k + (weight[k], e) for k, e in evidence.items()),
    )


def test_edge_tiers_match_oracle_on_fixture(ray_session, sf_dir):
    """On the sf0.001 fixture the bounded tier, the partitioned tier and
    a plain-Python count give identical edges, with evidence too; the
    flagship callers take the bounded tier."""
    from autoner_ray.dicts import CORE_DICT, FULL_DICT, STOPWORDS
    from autoner_ray.pipelines import kg
    from autoner_ray.stages.combine import edge_tier
    from autoner_ray.stages.dict_match import pair_key_bound

    want, want_ev = _dict_edges_oracle(_fixture_sentence_rows(sf_dir))
    assert len(want) > 10
    assert edge_tier(pair_key_bound(CORE_DICT, FULL_DICT, STOPWORDS)) == (
        "bounded"
    )
    for output, expected in (("pairs", want), ("pairs_ev", want_ev)):
        bounded, partitioned = _both_tiers(
            lambda: kg.matched_sentences(sf_dir, output=output)
        )
        assert bounded == partitioned == expected, output
    flagship = kg.triples_dataset(sf_dir)
    assert _edge_rows(flagship) == want
    assert "Sort" not in _op_names(flagship)
    assert _edge_rows(kg.triples_with_evidence(sf_dir)) == want_ev


def _partial_blocks(seed: int, evidence: bool) -> list[pa.Table]:
    """A multi-block partial stream with repeated keys across blocks,
    zero-row blocks and zero-column blocks."""
    import random

    rng = random.Random(seed)
    ents = [f"e{i:02d}" for i in range(12)]
    blocks = []
    for b in range(9):
        if b % 4 == 3:
            blocks.append(pa.table({}))
            continue
        n = 0 if b == 5 else rng.randint(1, 40)
        cols = {"subj": [], "pred": [], "obj": [], "w": [], "ev": []}
        for _ in range(n):
            a, c = sorted(rng.sample(ents, 2))
            cols["subj"].append(a)
            cols["pred"].append(rng.choice(["cooccurs_with", "binds"]))
            cols["obj"].append(c)
            cols["w"].append(rng.randint(1, 5))
            cols["ev"].append(f"doc/{rng.randint(0, 99)}#{rng.randint(0, 9)}")
        if not evidence:
            del cols["ev"]
        blocks.append(
            pa.table(
                {
                    k: pa.array(v, pa.int64() if k == "w" else pa.string())
                    for k, v in cols.items()
                }
            )
        )
    return blocks


def _partials_oracle(blocks, evidence: bool):
    weight: dict = {}
    ev: dict = {}
    for t in blocks:
        for r in t.to_pylist():
            key = (r["subj"], r["pred"], r["obj"])
            weight[key] = weight.get(key, 0) + r["w"]
            if evidence:
                ev[key] = min(ev.get(key, r["ev"]), r["ev"])
    return sorted(
        k + (w,) + ((ev[k],) if evidence else ()) for k, w in weight.items()
    )


@pytest.mark.parametrize("evidence", [False, True], ids=["w", "ev"])
@pytest.mark.parametrize("coalesce", [True, False])
def test_edge_tiers_match_oracle_on_partial_stream(
    ray_session, evidence, coalesce
):
    import ray.data as rd

    for seed in (1, 2):
        blocks = _partial_blocks(seed, evidence)
        bounded, partitioned = _both_tiers(
            lambda: rd.from_arrow(blocks), coalesce=coalesce
        )
        want = _partials_oracle(blocks, evidence)
        assert len(want) > 20
        assert bounded == partitioned == want


def test_declared_bound_above_constant_takes_partitioned_tier(ray_session):
    import ray.data as rd

    from autoner_ray.stages.combine import BOUNDED_MAX_KEYS, edge_tier
    from autoner_ray.stages.triples import aggregate_edges

    assert edge_tier(BOUNDED_MAX_KEYS) == "bounded"
    assert edge_tier(BOUNDED_MAX_KEYS + 1) == "partitioned"
    assert edge_tier(None) == "partitioned"
    blocks = _partial_blocks(3, evidence=False)
    ds = aggregate_edges(rd.from_arrow(blocks), max_keys=BOUNDED_MAX_KEYS + 1)
    assert _edge_rows(ds) == _partials_oracle(blocks, False)
    assert "Sort" in _op_names(ds) and "Repartition" not in _op_names(ds)


def _five_key_blocks() -> list[pa.Table]:
    """Two partial blocks of three edge keys each, five distinct keys in
    all, so only the fold's accumulator holds all five."""
    def block(subj, obj, w):
        n = len(subj)
        return pa.table({"subj": subj, "pred": ["cooccurs_with"] * n,
                         "obj": obj, "w": w})

    return [
        block(["a", "a", "b"], ["x", "y", "x"], [1, 2, 3]),
        block(["a", "c", "d"], ["x", "x", "x"], [4, 5, 6]),
    ]


def test_bounded_tier_key_bound_raises(ray_session):
    """A ``max_keys`` one below the stream's distinct keys makes the
    driver fold raise ExchangeBoundExceeded naming the bound; it never
    returns a truncated result."""
    import ray.data as rd

    from autoner_ray.stages.combine import ExchangeBoundExceeded
    from autoner_ray.stages.triples import aggregate_edges

    got = None
    with pytest.raises(ExchangeBoundExceeded) as err:
        got = aggregate_edges(rd.from_arrow(_five_key_blocks()), max_keys=4)
    assert got is None
    assert "holds 5 keys; the declared max_keys is 4" in str(err.value)


def test_bounded_tier_exact_key_bound_passes(ray_session):
    """A ``max_keys`` equal to the stream's distinct keys passes: the
    fold returns every edge, summed across blocks."""
    import ray.data as rd

    from autoner_ray.stages.triples import aggregate_edges

    ds = aggregate_edges(rd.from_arrow(_five_key_blocks()), max_keys=5)
    assert _edge_rows(ds) == [
        ("a", "cooccurs_with", "x", 5), ("a", "cooccurs_with", "y", 2),
        ("b", "cooccurs_with", "x", 3), ("c", "cooccurs_with", "x", 5),
        ("d", "cooccurs_with", "x", 6),
    ]


def test_edge_tiers_empty_and_zero_column_input(ray_session):
    """Zero partial rows give no edges in both tiers, without error. Ray
    Data drops empty blocks before a task sees them, so the partitioned
    tier's schema is checked on its combine function, which gives the
    schema'd empty edge table for zero-row and zero-column blocks. The
    bounded tier folds on the driver, so its result Dataset itself has
    the declared schema."""
    import ray.data as rd

    from autoner_ray.schemas import EDGE_PARTIALS, EDGES
    from autoner_ray.stages.combine import BOUNDED_MAX_KEYS, keyed_combine
    from autoner_ray.stages.triples import aggregate_edges, edge_table

    typed = pa.table(
        {
            "subj": pa.array([], pa.string()),
            "pred": pa.array([], pa.string()),
            "obj": pa.array([], pa.string()),
            "w": pa.array([], pa.int64()),
        }
    )
    typed_ev = typed.append_column("ev", pa.array([], pa.string()))
    for blocks in ([typed], [pa.table({})], [typed_ev, pa.table({}), typed]):
        for coalesce in (True, False):
            assert _both_tiers(
                lambda: rd.from_arrow(blocks), coalesce=coalesce
            ) == ([], [])

    edges = pa.schema(
        [("subj", pa.string()), ("pred", pa.string()), ("obj", pa.string()),
         ("weight", pa.int64())]
    )
    assert edge_table(pa.table({})).schema == edges
    assert edge_table(typed).schema == edges
    assert edge_table(typed_ev).schema == edges.append(
        pa.field("evidence", pa.string())
    )

    for blocks in ([typed], [pa.table({})], [typed, pa.table({}), typed]):
        bounded = keyed_combine(
            rd.from_arrow(blocks), EDGE_PARTIALS, [("w", "sum")],
            max_keys=BOUNDED_MAX_KEYS,
        )
        assert bounded.schema().base_schema == EDGE_PARTIALS
        edges_ds = aggregate_edges(
            rd.from_arrow(blocks), max_keys=BOUNDED_MAX_KEYS
        )
        assert edges_ds.schema().base_schema == EDGES


@pytest.mark.parametrize(
    "core, stop, n_canon",
    [
        (None, None, 12),
        # case variants share a canonical surface; a stopword entry is
        # removed from the trie and never matches
        (["T\tfoo", "T\tFOO", "T\tbar", "T\tthe"], ["the"], 2),
    ],
    ids=["builtin", "variants_stopword"],
)
def test_pair_key_bound_is_tight(core, stop, n_canon):
    """A sentence naming every core surface, comma-separated, yields
    exactly ``pair_key_bound`` pair keys: the bound is C(n, 2) over the
    distinct canonical surfaces the matcher can emit."""
    from autoner_ray.dicts import CORE_DICT, FULL_DICT, STOPWORDS
    from autoner_ray.stages.dict_match import DictMatcher, pair_key_bound

    core = CORE_DICT if core is None else core
    stop = STOPWORDS if stop is None else stop
    full = FULL_DICT if core is CORE_DICT else []
    tokens = []
    for line in core:
        tokens += line.split("\t")[1].split(" ") + [","]
    pairs = DictMatcher(core, full, stop, output="pairs")(
        pa.table({"tokens": pa.array([tokens], pa.list_(pa.string()))})
    )
    bound = pair_key_bound(core, full, stop)
    assert bound == n_canon * (n_canon - 1) // 2
    assert pairs.num_rows == bound
