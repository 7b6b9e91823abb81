"""Near-dup operators vs brute-force single-process oracles.

Pins the distributed shapes (LSH candidate join + text join-back, hot-
bucket cap, exact n-gram Jaccard, keep-one / keep-best cluster
resolution) to exact reference semantics computed in plain
numpy/python on the sf0.001 fixture.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


def _brute_jaccard_pairs(threshold: float):
    from autoner_ray.stages.dedup import _shingles

    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    ids = t["doc_id"].to_pylist()
    sh = [_shingles(x or "") for x in t["text"].to_pylist()]
    out = {}
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            union = len(sh[i] | sh[j])
            jac = len(sh[i] & sh[j]) / union if union else 0.0
            if jac >= threshold:
                a, b = sorted((ids[i], ids[j]))
                out[(a, b)] = round(jac, 6)
    return out


def test_minhash_neardup_matches_bruteforce(ray_session):
    """LSH + verify returns a subset of the true pair set with exact
    jaccard values; on this fixture the banding detects every true pair
    (64 hashes / 16 bands at t=0.6), so the sets are EQUAL."""
    import ray.data as rd

    from autoner_ray.stages.dedup import ngram_jaccard_pairs

    docs = rd.read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    )
    got = {
        (r["doc_a"], r["doc_b"]): r["jaccard"]
        for r in ngram_jaccard_pairs(docs).take_all()
    }
    want = _brute_jaccard_pairs(0.6)
    assert got == want
    assert len(got) > 0  # fixture must actually exercise the operator


def test_minhash_hot_bucket_cap(ray_session):
    """A flood of identical docs lands in one degenerate bucket per band;
    with max_bucket below the flood size the bucket is dropped BEFORE the
    self-join, so the flood yields no pairs (exact-dedup's job instead).
    Distinct near-identical docs under the cap still pair up."""
    import ray.data as rd

    from autoner_ray.stages.dedup import ngram_jaccard_pairs

    flood = pa.table(
        {
            "doc_id": pa.array(list(range(100)), pa.int64()),
            "text": pa.array(
                ["the quick brown fox jumps over the lazy dog"] * 100
            ),
        }
    )
    ds = rd.from_arrow(flood)
    pairs = ngram_jaccard_pairs(ds, max_bucket=8).take_all()
    assert pairs == []
    # same flood with a permissive cap: all 100*99/2 pairs at jaccard 1.0
    pairs = ngram_jaccard_pairs(ds, max_bucket=256).take_all()
    assert len(pairs) == 100 * 99 // 2
    assert all(p["jaccard"] == 1.0 for p in pairs)
    # PARTIAL hot: a 50-doc flood (dropped by the cap) + two near-dup
    # docs (kept) — only the legit pair survives
    texts = ["an identical flood document body here"] * 50 + [
        "a distinct near duplicate document body one two three",
        "a distinct near duplicate document body one two three four",
    ]
    mixed = pa.table(
        {
            "doc_id": pa.array(list(range(len(texts))), pa.int64()),
            "text": pa.array(texts),
        }
    )
    pairs = ngram_jaccard_pairs(
        rd.from_arrow(mixed), max_bucket=8
    ).take_all()
    assert {(p["doc_a"], p["doc_b"]) for p in pairs} == {(50, 51)}


def test_ngram_jaccard_exact_matches_bruteforce(ray_session):
    """The shared-shingle-join EXACT path returns the full true pair set
    with bit-identical jaccard values (no LSH involved)."""
    import ray.data as rd

    from autoner_ray.stages.dedup import ngram_jaccard_exact_pairs

    docs = rd.read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    )
    got = {
        (r["doc_a"], r["doc_b"]): round(r["jaccard"], 6)
        for r in ngram_jaccard_exact_pairs(docs).take_all()
    }
    want = _brute_jaccard_pairs(0.6)
    assert got == want
    assert len(got) > 0


def test_ngram_jaccard_exact_max_df_prunes(ray_session):
    """max_df drops promiscuous shingles: with a cap of 1 no shingle is
    shared, so no pairs survive — and with a huge cap results are exact."""
    import ray.data as rd

    from autoner_ray.stages.dedup import ngram_jaccard_exact_pairs

    docs = rd.read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    )
    assert ngram_jaccard_exact_pairs(docs, max_df=1).count() == 0
    got = {
        (r["doc_a"], r["doc_b"])
        for r in ngram_jaccard_exact_pairs(docs, max_df=10**9).take_all()
    }
    assert got == set(_brute_jaccard_pairs(0.6))


def test_neardup_keep_one_matches_bruteforce(ray_session, monkeypatch):
    """End-to-end keep-one dedup: survivors == all doc_ids minus every
    Jaccard>=0.6 cluster member except the cluster's numeric-min id,
    where clusters are the transitive closure of the brute-force pair
    set. Also exercises connected_components_distributed on INT64
    nodes (the string path is covered by the kg graph tests), and the
    survivors keep every column of the input rows."""
    import ray.data as rd

    from autoner_ray.stages import graph
    from autoner_ray.stages.dedup import neardup_keep_one

    docs = rd.read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    )
    out = neardup_keep_one(docs).to_pandas()
    assert list(out.columns) == ["doc_id", "text"]
    got = sorted(out["doc_id"])
    # distributed tier (forced small bound) must agree exactly
    monkeypatch.setattr(graph, "DRIVER_UF_MAX_EDGES", 0)
    got_dist = sorted(
        r["doc_id"] for r in neardup_keep_one(docs).take_all()
    )
    assert got == got_dist

    # brute-force: union-find over the exact pair set
    pairs = _brute_jaccard_pairs(0.6)
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    all_ids = pq.read_table(
        f"{SF}/documents.parquet", columns=["doc_id"]
    )["doc_id"].to_pylist()
    want = sorted(i for i in all_ids if find(i) == i)
    assert got == want
    assert len(want) < len(all_ids)  # fixture must drop something


def test_neardup_keep_one_lsh_source(ray_session):
    """pair_source='lsh' survivors equal the exact-pair survivors on
    this fixture (the LSH banding detects every true pair here, pinned
    by test_minhash_neardup_matches_bruteforce)."""
    import ray.data as rd

    from autoner_ray.stages.dedup import neardup_keep_one

    docs = rd.read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    )
    exact = sorted(
        r["doc_id"] for r in neardup_keep_one(docs).take_all()
    )
    lsh = sorted(
        r["doc_id"]
        for r in neardup_keep_one(docs, pair_source="lsh").take_all()
    )
    assert exact == lsh


def test_neardup_cluster_sizes_tiers_agree(ray_session, monkeypatch):
    """Cluster-size histogram: driver union-find tier == distributed
    min-label CC tier, and sizes are all >= 2."""
    import ray.data as rd

    from autoner_ray.stages import graph
    from autoner_ray.stages.dedup import neardup_cluster_sizes

    docs = rd.read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    )

    def rows(ds):
        return sorted(
            (r["cluster_size"], r["n_clusters"]) for r in ds.take_all()
        )

    got = rows(neardup_cluster_sizes(docs))
    monkeypatch.setattr(graph, "DRIVER_UF_MAX_EDGES", 0)
    got_dist = rows(neardup_cluster_sizes(docs))
    assert got == got_dist
    assert got and all(s >= 2 for s, _ in got)


def test_neardup_keep_best_matches_bruteforce(ray_session, monkeypatch):
    """Keep-best dedup: per cluster the survivor is the member with the
    MOST words (tie -> smallest doc_id); both tiers must agree with a
    brute-force union-find + argmax, and the winner rule must actually
    differ from keep-one's min-id rule somewhere on the fixture (else
    the test proves nothing)."""
    import ray.data as rd

    from autoner_ray.stages import graph
    from autoner_ray.stages.dedup import (
        neardup_keep_best,
        neardup_keep_one,
    )
    from autoner_ray.stages.tokenize import sentence_token_stream

    docs = rd.read_parquet(
        f"{SF}/documents.parquet", columns=["doc_id", "text"]
    )
    out = neardup_keep_best(docs).to_pandas()
    assert list(out.columns) == ["doc_id", "text"]
    got = sorted(out["doc_id"])
    with monkeypatch.context() as m:
        m.setattr(graph, "DRIVER_UF_MAX_EDGES", 0)
        got_dist = sorted(
            r["doc_id"] for r in neardup_keep_best(docs).take_all()
        )
    assert got == got_dist

    pairs = _brute_jaccard_pairs(0.6)
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    t = pq.read_table(f"{SF}/documents.parquet",
                      columns=["doc_id", "text"])
    nw = {
        i: len(sentence_token_stream(x or ""))
        for i, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist())
    }
    clusters: dict[int, list[int]] = {}
    for m in parent:
        clusters.setdefault(find(m), []).append(m)
    losers: set[int] = set()
    for mem in clusters.values():
        win = min(mem, key=lambda d: (-nw[d], d))
        losers.update(m for m in mem if m != win)
    want = sorted(i for i in t["doc_id"].to_pylist() if i not in losers)
    assert got == want
    keep_one = sorted(
        r["doc_id"] for r in neardup_keep_one(docs).take_all()
    )
    assert got != keep_one  # the quality rule must flip >=1 winner


def test_neardup_pairless_corpus_keeps_every_doc(ray_session):
    """A corpus without a near-dup pair has an empty label table; both
    resolvers then return every input row."""
    import ray.data as rd

    from autoner_ray.stages.dedup import neardup_keep_best, neardup_keep_one

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": ["alpha beta gamma delta", "one two three four five",
                     "red green blue yellow"],
        }
    )
    docs = rd.from_arrow(t).repartition(2)
    for resolve in (neardup_keep_one, neardup_keep_best):
        assert sorted(r["doc_id"] for r in resolve(docs).take_all()) == [
            1, 2, 3
        ], resolve.__name__
