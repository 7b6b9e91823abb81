"""Mergeable sketches: HyperLogLog, Count-Min heavy hitters, the
quantile sketch and the consistent-hash ring."""

import numpy as np
import pyarrow as pa
import pytest

from autoner_ray.functions.hashing import md5_64_array
from autoner_ray.stages import sketches as sk


def test_hll_merge_equals_single_pass():
    toks = [f"w{i % 997}" for i in range(10_000)]
    single = np.zeros(1 << sk.HLL_P, np.uint8)
    sk._hll_update(single, md5_64_array(toks))
    merged = np.zeros(1 << sk.HLL_P, np.uint8)
    for lo in range(0, len(toks), 1234):
        part = np.zeros(1 << sk.HLL_P, np.uint8)
        sk._hll_update(part, md5_64_array(toks[lo : lo + 1234]))
        np.maximum(merged, part, out=merged)
    assert np.array_equal(merged, single)


@pytest.mark.parametrize("n_distinct", [100, 20_000, 200_000])
def test_hll_accuracy(n_distinct):
    regs = np.zeros(1 << sk.HLL_P, np.uint8)
    sk._hll_update(
        regs, md5_64_array([f"tok-{i}" for i in range(n_distinct)])
    )
    est = sk.hll_estimate(regs)
    # p=14 -> ~0.8% typical error; 3% is a generous deterministic bound
    assert abs(est - n_distinct) / n_distinct < 0.03, est


def test_hll_dataset_path(ray_session):
    import ray.data as rd

    docs = pa.table(
        {
            "doc_id": pa.array(range(200), pa.int64()),
            "text": pa.array(
                [f"alpha beta w{i} w{i+1}" for i in range(200)],
                pa.string(),
            ),
        }
    )
    out = sk.distinct_words_hll(rd.from_arrow(docs)).to_pandas()
    assert len(out) == 1
    exact = 2 + 201  # alpha, beta, w0..w200
    assert abs(out["n_distinct_est"][0] - exact) / exact < 0.03


def test_cm_no_collisions_on_corpus_vocab():
    """The driver oracle for docs_heavy_hitters_cm relies on CM being
    EXACT for this corpus's bounded vocabulary — pin zero collisions."""
    from collections import Counter

    import pyarrow.parquet as pq

    t = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet", columns=["text"]
    )
    toks = []
    for txt in t["text"].to_pylist():
        toks.extend((txt or "").split(" "))
    true = Counter(toks)
    cm = np.zeros(sk.CM_DEPTH * sk.CM_WIDTH, np.int64)
    words = list(true)
    rows = sk._cm_rows(md5_64_array(words))
    cnts = np.array([true[w] for w in words], np.int64)
    for d in range(sk.CM_DEPTH):
        np.add.at(cm, rows[d], cnts)
    est = cm[sk._cm_rows(md5_64_array(words))].min(axis=0)
    assert all(int(est[i]) == true[words[i]] for i in range(len(words)))


def test_cm_heavy_hitters_dataset(ray_session):
    import ray.data as rd

    # zipf-ish: word w{i} appears (50-i) times
    texts = []
    for i in range(50):
        texts.extend([f"w{i:02d}"] * (50 - i))
    docs = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    out = sk.cm_heavy_hitters(
        rd.from_arrow(docs), k=5, candidates_per_batch=64
    ).to_pandas()
    assert out["word"].tolist() == ["w00", "w01", "w02", "w03", "w04"]
    assert out["est_count"].tolist() == [50, 49, 48, 47, 46]


def test_cm_never_undercounts():
    from collections import Counter

    rng = np.random.default_rng(7)
    toks = [f"t{int(i)}" for i in rng.zipf(1.5, 5000) if i < 10_000]
    true = Counter(toks)
    cm = np.zeros(sk.CM_DEPTH * sk.CM_WIDTH, np.int64)
    words = list(true)
    rows = sk._cm_rows(md5_64_array(words))
    cnts = np.array([true[w] for w in words], np.int64)
    for d in range(sk.CM_DEPTH):
        np.add.at(cm, rows[d], cnts)
    est = cm[sk._cm_rows(md5_64_array(words))].min(axis=0)
    assert all(int(est[i]) >= true[words[i]] for i in range(len(words)))


def test_quantile_sketch_exact_under_cap(ray_session):
    """Bounded-support column: no compaction fires, quantiles equal the
    exact interpolated values (the oracle-exactness claim)."""
    import ray

    ds = ray.data.read_parquet(
        "/root/testdata/sf0.001/documents.parquet",
        columns=["doc_id", "n_chars"],
    )
    got = sk.doc_length_quantiles_sketch(ds).to_pandas()
    import pyarrow.parquet as pq

    x = np.sort(
        pq.read_table(
            "/root/testdata/sf0.001/documents.parquet", columns=["n_chars"]
        )["n_chars"].to_numpy()
    ).astype(np.float64)
    for p, v in zip(got["p"], got["quantile"]):
        pos = (len(x) - 1) * p
        lo, hi = int(np.floor(pos)), int(np.ceil(pos))
        exact = x[lo] + (x[hi] - x[lo]) * (pos - lo)
        assert v == round(float(exact), 6), (p, v, exact)


def test_quantile_sketch_error_bound_compacted():
    """High-cardinality stream through a tiny cap: weighted-rank error
    of each estimate stays within levels*W/cap of exact."""
    rng = np.random.RandomState(7)
    x = rng.lognormal(3.0, 1.5, size=50_000)
    cap = 256
    # simulate the dataset merge tree: batch partials -> pairwise merges
    parts = []
    for lo in range(0, len(x), 2048):
        vals, counts = np.unique(x[lo : lo + 2048], return_counts=True)
        parts.append(sk._q_compact(vals, counts.astype(np.float64), cap))
    while len(parts) > 1:
        nxt = []
        for i in range(0, len(parts), 4):
            chunk = parts[i : i + 4]
            vals = np.concatenate([c[0] for c in chunk])
            wts = np.concatenate([c[1] for c in chunk])
            vals, wts = sk._q_merge_pairs(vals, wts)
            nxt.append(sk._q_compact(vals, wts, cap))
        parts = nxt
    vals, wts = parts[0]
    cum = np.cumsum(wts)
    n = cum[-1]
    xs = np.sort(x)
    levels = int(np.ceil(np.log2(len(x) / 2048))) + 2
    tol_rank = levels * n / cap
    for p in (0.1, 0.5, 0.9, 0.99):
        pos = (n - 1) * p
        est = vals[
            min(int(np.searchsorted(cum, pos + 1.0)), len(vals) - 1)
        ]
        # rank of the estimate in the TRUE sorted data
        true_rank = np.searchsorted(xs, est)
        assert abs(true_rank - pos) <= tol_rank, (
            p, est, true_rank, pos, tol_rank,
        )


def test_consistent_hash_minimal_movement(ray_session):
    """Adding one node must only MOVE keys to the new node: every old
    node's count is non-increasing and the total relocation equals the
    new node's count (the Karger minimal-resharding property)."""
    import ray.data as rd

    from autoner_ray.stages.sketches import consistent_hash_ring

    t = consistent_hash_ring(
        rd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                        columns=["doc_id"])
    ).to_pandas().set_index("node")
    total = int(t["n_docs_before"].sum())
    assert total == int(t["n_docs_after"].sum()) == 500
    new_node = t.index.max()
    assert t.loc[new_node, "n_docs_before"] == 0
    moved = 0
    for n in t.index:
        if n == new_node:
            continue
        assert t.loc[n, "n_docs_after"] <= t.loc[n, "n_docs_before"]
        moved += t.loc[n, "n_docs_before"] - t.loc[n, "n_docs_after"]
    assert moved == t.loc[new_node, "n_docs_after"]
    assert 0 < moved < total // 2  # a bounded fraction actually moved
