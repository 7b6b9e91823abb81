"""Brute-force equivalence pins for the late round-4 operators:
keyed_combine (re-associative min across split batches),
lang_hot_ngrams, bigram collocations, length Gini, paragraph dedup,
N-Triples round trip, window co-occurrence and the linear probe."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

SF = "/root/testdata/sf0.001"


def test_keyed_combine_min_across_blocks(ray_session):
    """Min combine must be exact when one key's rows are split across
    many input blocks (the re-association contract)."""
    import ray

    from autoner_ray.stages.combine import keyed_combine

    rng = np.random.default_rng(7)
    keys = rng.integers(0, 50, size=2000)
    vals = rng.integers(-10**9, 10**9, size=2000)
    tables = [
        pa.table(
            {
                "k": pa.array(keys[i:i + 100], pa.int64()),
                "v": pa.array(vals[i:i + 100], pa.int64()),
            }
        )
        for i in range(0, 2000, 100)
    ]
    ds = ray.data.from_arrow(tables)
    got = (
        keyed_combine(
            ds, pa.schema([("k", pa.int64()), ("v", pa.int64())]),
            [("v", "min")], part_on=("k",),
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    want = (
        pd.DataFrame({"k": keys, "v": vals})
        .groupby("k", as_index=False)["v"]
        .min()
        .sort_values("k")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got.astype("int64"), want.astype("int64"))


def test_lang_hot_ngrams_bruteforce(ray_session):
    import ray

    from autoner_ray.stages.webtext import lang_hot_ngrams

    docs = pd.read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "lang", "text"]
    )
    n, min_df, k = 3, 2, 10
    got = lang_hot_ngrams(
        ray.data.read_parquet(
            f"{SF}/documents.parquet",
            columns=["doc_id", "lang", "text"],
        ),
        n=n, min_df=min_df, k=k,
    ).to_pandas()

    rows = []
    for _, r in docs.iterrows():
        ws = (r["text"] or "").split(" ")
        for i in range(len(ws) - n + 1):
            rows.append((r["lang"], " ".join(ws[i:i + n]), r["doc_id"]))
    df = pd.DataFrame(rows, columns=["lang", "gram", "doc_id"])
    agg = (
        df.groupby(["lang", "gram"])
        .agg(n_occurrences=("doc_id", "size"), n_docs=("doc_id", "nunique"))
        .reset_index()
    )
    agg = agg[agg["n_docs"] >= min_df]
    agg = agg.sort_values(
        ["lang", "n_occurrences", "gram"],
        ascending=[True, False, True],
        kind="mergesort",
    )
    want = agg.groupby("lang", sort=False).head(k).reset_index(drop=True)

    key = ["lang", "gram", "n_occurrences", "n_docs"]
    got = got[key].sort_values(key).reset_index(drop=True)
    want = want[key].sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got.astype({"n_occurrences": "int64", "n_docs": "int64"}), want
    )


def test_bigram_collocations_tiers_agree(ray_session):
    """Broadcast-vocab and cogroup-join tiers produce identical
    collocation tables."""
    import ray

    from autoner_ray.stages.webtext import bigram_collocations

    def rows(broadcast_max_vocab):
        ds = ray.data.read_parquet(
            f"{SF}/documents.parquet", columns=["doc_id", "text"]
        )
        df = bigram_collocations(
            ds, broadcast_max_vocab=broadcast_max_vocab
        ).to_pandas()
        return df.sort_values("gram").reset_index(drop=True)

    a, b = rows(2_000_000), rows(0)
    pd.testing.assert_frame_equal(a, b)
    assert len(a) == 20


def test_length_gini_bruteforce(ray_session):
    import ray

    from autoner_ray.stages.ranking import gini_inequality

    docs = pd.read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    got = gini_inequality(
        ray.data.read_parquet(
            f"{SF}/documents.parquet", columns=["doc_id", "n_chars"]
        ),
        "doc_id", "n_chars",
    ).to_pandas()

    d = docs.sort_values(["n_chars", "doc_id"], kind="mergesort")
    v = d["n_chars"].to_numpy(np.int64)
    n = len(v)
    tot = int(v.sum())
    s = int((np.arange(1, n + 1, dtype=np.int64) * v).sum())
    gini = ((2 * s - (n + 1) * tot) * 1_000_000) // (n * tot)
    assert got.iloc[0].tolist() == [n, tot, s, gini]
    assert 0 <= gini < 1_000_000


def test_paragraph_dedup_bruteforce(ray_session):
    """Chunk-level first-wins dedup + reassembly matches a pandas
    brute force on a corpus with a full-duplicate doc, a partial
    repeat, and an all-repeats doc (which must vanish)."""
    import ray

    from autoner_ray.stages.dedup import paragraph_dedup

    W = 3
    docs = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4],
            "text": [
                "a b c d e f",          # two chunks: abc, def
                "a b c x y z",          # first chunk repeats doc 1
                "a b c d e f",          # full duplicate -> vanishes
                "p q r",                # unique single chunk
            ],
        }
    )
    got = (
        paragraph_dedup(ray.data.from_pandas(docs), words_per_chunk=W)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # brute force
    seen: dict[str, tuple[int, int]] = {}
    rows = []
    for d, t in zip(docs["doc_id"], docs["text"]):
        ws = t.split(" ")
        chunks = [
            " ".join(ws[i : i + W]) for i in range(0, len(ws), W)
        ]
        for c_i, c in enumerate(chunks):
            if c not in seen:
                seen[c] = (d, c_i)
    for d, t in zip(docs["doc_id"], docs["text"]):
        ws = t.split(" ")
        chunks = [
            " ".join(ws[i : i + W]) for i in range(0, len(ws), W)
        ]
        kept = [
            c for c_i, c in enumerate(chunks) if seen[c] == (d, c_i)
        ]
        if kept:
            rows.append(
                {
                    "doc_id": d,
                    "text": " ".join(kept),
                    "n_chunks": len(chunks),
                    "n_kept": len(kept),
                }
            )
    exp = pd.DataFrame(rows).reset_index(drop=True)
    got["doc_id"] = got["doc_id"].astype("int64")
    pd.testing.assert_frame_equal(
        got[["doc_id", "text", "n_chunks", "n_kept"]].astype(
            {"n_chunks": "int64", "n_kept": "int64"}
        ),
        exp.astype({"n_chunks": "int64", "n_kept": "int64"}),
    )
    assert 3 not in got["doc_id"].tolist()


def test_ntriples_roundtrip_and_window_cooc_bruteforce(ray_session):
    from collections import Counter

    from autoner_ray.pipelines.kg import (
        parse_ntriples_batch,
        unigram_ntriples,
        unigram_triples,
    )
    from autoner_ray.stages.webtext import window_cooccurrence

    # N-Triples serialize -> parse is the identity on the edge list
    nt = unigram_ntriples(SF).to_pandas()
    back = (
        parse_ntriples_batch(pa.Table.from_pandas(nt))
        .to_pandas()
        .sort_values(["subj", "obj"])
        .reset_index(drop=True)
    )
    edges = (
        unigram_triples(SF)
        .to_pandas()
        .sort_values(["subj", "obj"])
        .reset_index(drop=True)
    )
    assert (back["pred"] == "cooccurs_with").all()
    pd.testing.assert_frame_equal(
        back[["subj", "obj", "weight"]],
        edges[["subj", "obj", "weight"]].astype(
            {"weight": back["weight"].dtype}
        ),
    )

    # window co-occurrence vs a per-doc python brute force
    import ray.data as rd

    docs = rd.read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    )
    got = Counter()
    for _, r in window_cooccurrence(docs, window=3).to_pandas().iterrows():
        got[(r["word_a"], r["word_b"])] = int(r["n"])
    want = Counter()
    for t in docs.to_pandas()["text"]:
        toks = (t or "").split(" ")
        for i in range(len(toks)):
            for j in range(i + 1, min(i + 3, len(toks) - 1) + 1):
                a, b = toks[i], toks[j]
                if a != b and a and b:
                    want[(min(a, b), max(a, b))] += 1
    assert got == want


def test_linear_probe_exact_vs_numpy_lstsq(ray_session):
    """The integer Cramer solve agrees with float lstsq to float
    precision, and scores are the exact floor-scaled plane."""
    import ray.data as rd

    from autoner_ray.stages.analysis import linear_probe_mention

    docs = rd.read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    )
    got = linear_probe_mention(docs).to_pandas()
    assert len(got) == 500 and set(got["y"].unique()) <= {0, 1}
    # float reference fit
    df = docs.to_pandas()
    feats = []
    from autoner_ray.dicts import UNIGRAM_DICT

    for _, r in df.iterrows():
        toks = [w for w in (r["text"] or "").split(" ") if w]
        feats.append(
            (
                r["doc_id"],
                len(toks),
                sum(len(w) for w in toks),
                int(any(w in UNIGRAM_DICT for w in toks)),
            )
        )
    f = pd.DataFrame(feats, columns=["doc_id", "x1", "x2", "y"])
    X = np.column_stack(
        [np.ones(len(f)), f["x1"].to_numpy(), f["x2"].to_numpy()]
    )
    w, *_ = np.linalg.lstsq(X, f["y"].to_numpy(float), rcond=None)
    pred = X @ w
    g = got.set_index("doc_id").loc[f["doc_id"]]
    assert np.abs(g["score_milli"].to_numpy() / 1000.0 - pred).max() < 2e-3
