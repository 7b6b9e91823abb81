"""Similarity search over an embedding column (``list<float>``).

- :func:`brute_force_topk`: exact cosine top-k — numpy matmul per batch
  against a broadcast query matrix (``ray.put`` once, ``ray.get`` in actor
  ``__init__``), then a driver-side merge of per-batch top-k partials.
  The scan streams; only k rows per batch reach the driver.
- :class:`IVFIndex` / :func:`ivf_topk`: the scale path — k-means coarse
  quantizer (trained on a sample), batches assign vectors to centroids,
  the query probes ``nprobe`` nearest lists. Same partial-top-k merge.

Float outputs are rounded to 6 dp so value-hash compares are stable.
"""

from __future__ import annotations

import heapq

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _batch_matrix(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    # float64 so cosine matches a double-precision oracle after 6-dp round
    ids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
    mat = np.array(batch["embedding"].to_pylist(), dtype=np.float64)
    return ids, mat


def _cosine(mat: np.ndarray, q: np.ndarray) -> np.ndarray:
    qn = q / (np.linalg.norm(q) + 1e-30)
    norms = np.linalg.norm(mat, axis=1) + 1e-30
    return (mat @ qn) / norms


def brute_force_topk(emb_ds, query_vec, k: int = 10):
    """Exact cosine top-k; returns a pyarrow Table (vec_id, sim)."""
    q = np.asarray(query_vec, dtype=np.float64)

    def partial_topk(batch: pa.Table) -> pa.Table:
        ids, mat = _batch_matrix(batch)
        sims = _cosine(mat, q)
        if len(ids) > k:
            idx = np.argpartition(-sims, k)[:k]
        else:
            idx = np.arange(len(ids))
        return pa.table(
            {
                "vec_id": pa.array(ids[idx], pa.int64()),
                "sim": pa.array(sims[idx].astype(np.float64), pa.float64()),
            }
        )

    partials = emb_ds.map_batches(partial_topk, batch_format="pyarrow")
    # merge: k rows per block reach the driver — tiny
    heap: list[tuple[float, int]] = []
    for b in partials.iter_batches(batch_size=4096, batch_format="pyarrow"):
        for vid, sim in zip(b["vec_id"].to_pylist(), b["sim"].to_pylist()):
            heapq.heappush(heap, (sim, -vid))
            if len(heap) > k:
                heapq.heappop(heap)
    top = sorted(heap, key=lambda t: (-t[0], -t[1]))
    return pa.table(
        {
            "vec_id": pa.array([-v for _, v in top], pa.int64()),
            "sim": pa.array([round(s, 6) for s, _ in top], pa.float64()),
        }
    )


class IVFIndex:
    """Coarse k-means quantizer trained driver-side on a sample.

    At 100 TB the train sample stays bounded (``train_rows``); centroids are
    broadcast (``ray.put``) and batches only compute argmin over C
    centroids. Lists are the partition key for a pre-filtered scan.
    """

    def __init__(self, centroids: np.ndarray):
        self.centroids = centroids  # (C, D), L2-normalized

    @staticmethod
    def train(emb_ds, num_lists: int = 16, train_rows: int = 4096,
              iters: int = 10, seed: int = 13) -> "IVFIndex":
        sample = emb_ds.limit(train_rows).to_pandas()
        mat = np.array(sample["embedding"].to_list(), dtype=np.float32)
        mat = mat / (np.linalg.norm(mat, axis=1, keepdims=True) + 1e-30)
        rng = np.random.default_rng(seed)
        c = mat[rng.choice(len(mat), size=min(num_lists, len(mat)),
                           replace=False)]
        for _ in range(iters):
            assign = np.argmax(mat @ c.T, axis=1)
            for j in range(len(c)):
                members = mat[assign == j]
                if len(members):
                    v = members.mean(axis=0)
                    c[j] = v / (np.linalg.norm(v) + 1e-30)
        return IVFIndex(c)

    def assign_batch(self, batch: pa.Table) -> pa.Table:
        ids, mat = _batch_matrix(batch)
        matn = mat / (np.linalg.norm(mat, axis=1, keepdims=True) + 1e-30)
        lists = np.argmax(matn @ self.centroids.T, axis=1)
        return batch.append_column(
            "ivf_list", pa.array(lists.astype(np.int32), pa.int32())
        )


def ivf_topk(emb_ds, query_vec, k: int = 10, num_lists: int = 16,
             nprobe: int = 4):
    """ANN top-k probing ``nprobe`` IVF lists; exact cosine within lists."""
    index = IVFIndex.train(emb_ds, num_lists=num_lists)
    q = np.asarray(query_vec, dtype=np.float32)
    qn = q / (np.linalg.norm(q) + 1e-30)
    probe = set(
        np.argsort(-(index.centroids @ qn))[:nprobe].astype(int).tolist()
    )

    assigned = emb_ds.map_batches(index.assign_batch, batch_format="pyarrow")
    filtered = assigned.map_batches(
        lambda t: t.filter(
            pa.compute.is_in(
                t["ivf_list"], value_set=pa.array(sorted(probe), pa.int32())
            )
        ),
        batch_format="pyarrow",
    )
    return brute_force_topk(filtered, query_vec, k)


def _emit_pairs(ids_a, mat_a, ids_b, mat_b, threshold, triangle):
    """Vectorized bipartite (or triangular) cosine pair emit, a < b."""
    an = mat_a / (np.linalg.norm(mat_a, axis=1, keepdims=True) + 1e-30)
    bn = mat_b / (np.linalg.norm(mat_b, axis=1, keepdims=True) + 1e-30)
    sims = an @ bn.T
    ii, jj = np.nonzero(sims >= threshold)
    a_ids = ids_a[ii]
    b_ids = ids_b[jj]
    keep = a_ids < b_ids
    if triangle:
        pass  # a<b already dedups the symmetric triangle
    vals = sims[ii[keep], jj[keep]]
    return (
        a_ids[keep],
        b_ids[keep],
        np.array([round(float(v), 6) for v in vals], dtype=np.float64),
    )


def embedding_neardup(emb_ds, threshold: float = 0.9,
                      block_rows: int = 4096):
    """All embedding pairs with cosine >= threshold — EXACT, distributed.

    Grid-partitioned pair join: vectors land in ``B = ceil(n/block_rows)``
    blocks by ``vec_id % B``; each vector is replicated to the B groups
    ``(min(b, j), max(b, j))`` so every pair of blocks meets in exactly
    one group; a ``groupby(grp).map_groups`` computes the bipartite (or
    triangular) similarity slab per group. No whole-table materialization
    anywhere — the driver only computes B from the row count; per-task
    memory is bounded by ~2*block_rows vectors. The O(n²) compute is
    inherent to the exact semantics; at web scale prefer
    :func:`embedding_neardup_ivf` (bucketed, approximate).
    """
    import math

    import pandas as pd

    n = emb_ds.count()
    B = max(1, math.ceil(n / block_rows))

    def explode(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        emb = batch["embedding"]
        blocks = ids % B
        grp_col, id_col, blk_col, emb_idx = [], [], [], []
        for row, (vid, b) in enumerate(zip(ids, blocks)):
            for j in range(B):
                lo, hi = (b, j) if b <= j else (j, b)
                grp_col.append(int(lo) * B + int(hi))
                id_col.append(int(vid))
                blk_col.append(int(b))
                emb_idx.append(row)
        return pa.table(
            {
                "grp": pa.array(grp_col, pa.int64()),
                "vec_id": pa.array(id_col, pa.int64()),
                "block": pa.array(blk_col, pa.int32()),
                "embedding": emb.take(pa.array(emb_idx, pa.int64())),
            }
        )

    def pairs_in_group(df: pd.DataFrame) -> pd.DataFrame:
        grp = int(df["grp"].iloc[0])
        gi, gj = grp // B, grp % B
        mat = np.array(df["embedding"].to_list(), dtype=np.float64)
        ids = df["vec_id"].to_numpy(dtype=np.int64)
        blk = df["block"].to_numpy()
        if gi == gj:
            a, b, s = _emit_pairs(ids, mat, ids, mat, threshold, True)
        else:
            mi, mj = blk == gi, blk == gj
            # a<b in vec_id order needs both orientations of the grid cell
            a1, b1, s1 = _emit_pairs(
                ids[mi], mat[mi], ids[mj], mat[mj], threshold, False
            )
            a2, b2, s2 = _emit_pairs(
                ids[mj], mat[mj], ids[mi], mat[mi], threshold, False
            )
            a = np.concatenate([a1, a2])
            b = np.concatenate([b1, b2])
            s = np.concatenate([s1, s2])
        return pd.DataFrame({"vec_a": a, "vec_b": b, "sim": s})

    return (
        emb_ds.select_columns(["vec_id", "embedding"])
        .map_batches(explode, batch_format="pyarrow")
        .groupby("grp")
        .map_groups(pairs_in_group, batch_format="pandas")
    )


def embedding_neardup_ivf(emb_ds, threshold: float = 0.9,
                          num_lists: int = 16):
    """Approximate near-dup pairs: IVF-bucketed — pairs are only sought
    WITHIN a coarse k-means list (recall < 1 across list boundaries; the
    web-scale trade). Same per-group slab kernel as the exact grid join,
    but total compute drops from O(n²) to sum of per-list squares."""
    import pandas as pd

    index = IVFIndex.train(emb_ds, num_lists=num_lists)

    def pairs_in_list(df: pd.DataFrame) -> pd.DataFrame:
        mat = np.array(df["embedding"].to_list(), dtype=np.float64)
        ids = df["vec_id"].to_numpy(dtype=np.int64)
        a, b, s = _emit_pairs(ids, mat, ids, mat, threshold, True)
        return pd.DataFrame({"vec_a": a, "vec_b": b, "sim": s})

    return (
        emb_ds.select_columns(["vec_id", "embedding"])
        .map_batches(index.assign_batch, batch_format="pyarrow")
        .groupby("ivf_list")
        .map_groups(pairs_in_list, batch_format="pandas")
    )


# ------------------------------------------------------------------ PCA

def pca_fit(emb_ds, n_components: int = 8):
    """Distributed PCA fit: one streaming pass of (n, Σx, ΣxxT) moment
    partials — each a (1 + d + d²)-float blob, merged associatively —
    then a LOCAL d×d eigendecomposition (d is the embedding dim, ~64;
    the d×d covariance always fits on one core no matter the corpus).

    Returns (mean[d], components[k,d], explained_variance_ratio[k]).
    Component signs are fixed deterministically (largest-|coeff| entry
    made positive) so repeated fits agree up to float-sum ordering.
    """

    def moments(batch: pa.Table) -> pa.Table:
        _, mat = _batch_matrix(batch)
        n = mat.shape[0]
        s = mat.sum(axis=0)
        xx = mat.T @ mat
        blob = np.concatenate(([float(n)], s, xx.ravel()))
        return pa.table({"m": pa.array([blob.tobytes()], pa.binary())})

    def merge(batch: pa.Table) -> pa.Table:
        acc = None
        for b in batch["m"].to_pylist():
            v = np.frombuffer(b, dtype=np.float64)
            acc = v if acc is None else acc + v
        return pa.table({"m": pa.array([acc.tobytes()], pa.binary())})

    merged = (
        emb_ds.map_batches(moments, batch_format="pyarrow")
        .map_batches(merge, batch_format="pyarrow", batch_size=4096)
        .repartition(1)
        .map_batches(merge, batch_format="pyarrow", batch_size=None)
        .take(1)
    )[0]["m"]
    v = np.frombuffer(merged, dtype=np.float64)
    n = v[0]
    d = int(round((-1 + np.sqrt(1 + 4 * (len(v) - 1))) / 2))
    s, xx = v[1 : 1 + d], v[1 + d :].reshape(d, d)
    mean = s / n
    cov = xx / n - np.outer(mean, mean)
    evals, evecs = np.linalg.eigh(cov)  # ascending
    order = np.argsort(evals)[::-1][:n_components]
    comps = evecs[:, order].T
    # deterministic sign: largest-|coeff| entry of each component > 0
    for i in range(comps.shape[0]):
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    ratio = np.maximum(evals[order], 0.0) / max(
        float(np.sum(np.maximum(evals, 0.0))), 1e-300
    )
    return mean, comps, ratio


def pca_project(emb_ds, n_components: int = 8):
    """Two-pass distributed PCA: fit on the moment partials, then a
    stateless projection map (vec_id, components list<float>, 6-dp).
    The fit state (mean + k×d components) broadcasts once via
    ``ray.put``; the projection pass is a pure vectorized matmul.
    """
    import ray

    mean, comps, _ = pca_fit(emb_ds, n_components)
    handle = ray.put((mean, comps))

    def project(batch: pa.Table) -> pa.Table:
        mu, c = ray.get(handle)
        ids, mat = _batch_matrix(batch)
        proj = np.round((mat - mu) @ c.T, 6)
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "components": pa.array(
                    [row for row in proj.tolist()],
                    pa.list_(pa.float64()),
                ),
            }
        )

    return emb_ds.map_batches(project, batch_format="pyarrow")


def label_centroids(emb_ds):
    """Per-label centroid of the embedding column — the vector-column
    aggregate (class prototypes for nearest-centroid classification /
    cluster-balanced sampling). Output: one row per (label, dim) with
    the exact count and 6-dp mean component.

    Determinism: each float32 component widens exactly to float64 and
    quantizes to integer MICRO units before any summation, so the
    distributed sum is order-independent and hash-exact vs the SQL
    twin (labels × dims is bounded, so the tail is the shuffle-free
    two-level combine)."""
    from autoner_ray.stages.combine import bounded_key_sum

    def partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "label": pa.array([], pa.int32()),
                    "dim": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "q": pa.array([], pa.int64()),
                }
            )
        emb = t["embedding"].combine_chunks()
        mat = np.asarray(emb.to_pylist(), dtype=np.float64)
        q = np.floor(mat * 1e6 + 0.5).astype(np.int64)
        n_rows, d = q.shape
        labels = np.repeat(
            t["label"].to_numpy(zero_copy_only=False), d
        )
        dims = np.tile(np.arange(1, d + 1, dtype=np.int64), n_rows)
        part = pa.table(
            {
                "label": pa.array(labels, pa.int32()),
                "dim": pa.array(dims, pa.int64()),
                "n": pa.array(np.ones(n_rows * d, np.int64)),
                "q": pa.array(q.ravel(), pa.int64()),
            }
        )
        agg = part.group_by(["label", "dim"]).aggregate(
            [("n", "sum"), ("q", "sum")]
        )
        return agg.rename_columns(["label", "dim", "n", "q"])

    agg = bounded_key_sum(
        emb_ds.map_batches(
            partial, batch_format="pyarrow", batch_size=4096
        ),
        ["label", "dim"], ["n", "q"],
    )

    def finish(t: pa.Table) -> pa.Table:
        # exact integer micro-sum (no float rounding-mode hazards —
        # mean rationals land exactly on round-half boundaries);
        # mean = sum_micro / 1e6 / n, derived by the consumer
        return pa.table(
            {
                "label": t["label"],
                "dim": t["dim"],
                "n": t["n"],
                "sum_micro": t["q"],
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def grid_histogram(emb_ds, cell: float = 0.25):
    """2-D spatial histogram over the first two embedding dimensions:
    (floor(x/cell), floor(y/cell)) -> count — the density-grid /
    hexbin-style profile used to eyeball an embedding space before
    clustering, and the bucketing primitive behind grid-blocked
    similarity search.

    ``cell`` must be a power of two (0.25 -> multiply by 4.0): scaling
    by a power of two only shifts the FP exponent, so numpy and the SQL
    twin bin identically at cell boundaries even for float32 inputs.

    Scale shape: per-batch vectorized bin + count partials (zero-copy
    flatten of the list column, no per-row Python) -> shuffle-free
    bounded combine (grid cells are data-bounded, ~|range/cell|²).
    """
    inv = 1.0 / cell
    assert inv == int(inv) and (int(inv) & (int(inv) - 1)) == 0, cell

    def partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "gx": pa.array([], pa.int64()),
                    "gy": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        col = t["embedding"].combine_chunks()
        flat = np.asarray(col.values, dtype=np.float64)
        dim = len(flat) // len(t)
        mat = flat.reshape(len(t), dim)
        gx = np.floor(mat[:, 0] * inv).astype(np.int64)
        gy = np.floor(mat[:, 1] * inv).astype(np.int64)
        agg = (
            pa.table(
                {
                    "gx": pa.array(gx, pa.int64()),
                    "gy": pa.array(gy, pa.int64()),
                }
            )
            .group_by(["gx", "gy"])
            .aggregate([([], "count_all")])
        )
        return agg.rename_columns(["gx", "gy", "n"])

    from autoner_ray.stages.combine import bounded_key_sum

    return bounded_key_sum(
        emb_ds.map_batches(
            partial, batch_format="pyarrow", batch_size=8192
        ),
        ["gx", "gy"], ["n"],
    )


def grid_histogram_oracle_sql(cell: float = 0.25) -> str:
    inv = int(1.0 / cell)
    return f"""
        SELECT CAST(floor(CAST(embedding[1] AS DOUBLE) * {inv}) AS BIGINT)
                   AS gx,
               CAST(floor(CAST(embedding[2] AS DOUBLE) * {inv}) AS BIGINT)
                   AS gy,
               COUNT(*) AS n
        FROM embeddings GROUP BY 1, 2
    """


def embedding_neardup_keep_one(emb_ds, threshold: float = 0.4,
                               driver_cc_max_pairs: int = 2_000_000,
                               num_partitions: int | None = None):
    """Embedding-space near-duplicate REMOVAL: exact cosine pair graph
    (:func:`embedding_neardup`) → tiered connected components → each
    cluster keeps its smallest ``vec_id`` — the semantic-dedup pipeline
    (SemDeDup-style, with the exact grid join standing in for the
    k-means-bucketed variant at fixture scale).

    Same tier discipline as ``dedup.neardup_keep_one``: union-find on
    the driver while the pair set fits ``driver_cc_max_pairs`` (the
    pair graph holds only near-duplicates, not the table), distributed
    min-label propagation above it; losers broadcast once and the
    vec_id stream anti-filters vectorized. Returns surviving ``vec_id``
    rows."""
    import ray

    pairs = embedding_neardup(
        emb_ds, threshold=threshold
    ).materialize()

    if pairs.count() <= driver_cc_max_pairs:
        pdf = pairs.to_pandas()
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in zip(pdf["vec_a"], pdf["vec_b"]):
            ra, rb = find(int(a)), find(int(b))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        loser_ids = [n for n in parent if find(n) != n]
    else:
        from autoner_ray.stages.graph import (
            connected_components_distributed,
        )

        _edge_schema = pa.schema(
            [("subj", pa.int64()), ("obj", pa.int64())]
        )

        def pairs_to_edges(t: pa.Table) -> pa.Table:
            if t.num_columns == 0 or len(t) == 0:
                return _edge_schema.empty_table()
            return pa.table({"subj": t["vec_a"], "obj": t["vec_b"]})

        labels = connected_components_distributed(
            pairs.map_batches(pairs_to_edges, batch_format="pyarrow"),
            num_partitions=num_partitions, as_dataset=True,
        )
        _loser_schema = pa.schema([("vec_id", pa.int64())])

        def losers_batch(t: pa.Table) -> pa.Table:
            if t.num_columns == 0 or len(t) == 0:
                return _loser_schema.empty_table()
            keep = pc.less(t["label"], t["src"])
            return pa.table({"vec_id": t["src"].filter(keep)})

        loser_ids = labels.map_batches(
            losers_batch, batch_format="pyarrow"
        ).to_pandas()["vec_id"]
    losers_ref = ray.put(pa.array(loser_ids, pa.int64()))

    class SurvivorFilter:
        def __init__(self) -> None:
            self.losers = ray.get(losers_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            mask = pc.invert(pc.is_in(t["vec_id"], value_set=self.losers))
            return pa.table({"vec_id": t["vec_id"].filter(mask)})

    return emb_ds.select_columns(["vec_id"]).map_batches(
        SurvivorFilter, batch_format="pyarrow", concurrency=2
    )


def embedding_keep_one_oracle_sql(threshold: float = 0.4) -> str:
    return f"""
        WITH RECURSIVE pairs AS MATERIALIZED (
            SELECT a.vec_id AS va, b.vec_id AS vb
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(
                      CAST(a.embedding AS DOUBLE[]),
                      CAST(b.embedding AS DOUBLE[])) >= {threshold}
        ), bidir AS (
            SELECT va AS u, vb AS v FROM pairs
            UNION ALL SELECT vb, va FROM pairs
        ), reach(a, b) AS (
            SELECT u, u FROM bidir
            UNION
            SELECT r.a, e.v FROM reach r JOIN bidir e ON e.u = r.b
        ), losers AS (
            SELECT a AS vec_id FROM reach GROUP BY a HAVING MIN(b) < a
        )
        SELECT e.vec_id FROM embeddings e
        WHERE e.vec_id NOT IN (SELECT vec_id FROM losers)
    """


def crossmodal_neardup_agreement(docs_ds, emb_ds,
                                 text_threshold: float = 0.6,
                                 cos_threshold: float = 0.4,
                                 num_partitions: int | None = None):
    """Agreement report between TEXT near-dup pairs (exact n-gram
    Jaccard >= ``text_threshold``) and EMBEDDING near-dup pairs
    (cosine >= ``cos_threshold``, vec_id == doc_id): counts of
    text-only / embedding-only / both, plus the pair-set Jaccard in
    integer ppm — the cross-modal sanity check that tells a curation
    run whether its semantic dedup and surface dedup see the same
    duplicates (SemDeDup vs MinHash disagreement analysis).

    Scale shape: each pair generator keeps its own partitioned shape;
    the comparison is one cogroup join on the (a, b) pair key over
    duplicate-fraction-sized tables; the report is three distributed
    counts + integer driver arithmetic on a 1-row result."""
    from autoner_ray.stages.dedup import ngram_jaccard_exact_pairs
    from autoner_ray.stages.joins import cogroup_join

    text_pairs = ngram_jaccard_exact_pairs(
        docs_ds, threshold=text_threshold, num_partitions=num_partitions
    ).materialize()
    emb_pairs = embedding_neardup(
        emb_ds, threshold=cos_threshold
    ).materialize()

    def keyed(a_col, b_col):
        def fn(t: pa.Table) -> pa.Table:
            if t.num_columns == 0 or len(t) == 0:
                return pa.schema(
                    [("a", pa.int64()), ("b", pa.int64())]
                ).empty_table()
            return pa.table(
                {
                    "a": pc.cast(t[a_col], pa.int64()),
                    "b": pc.cast(t[b_col], pa.int64()),
                }
            )
        return fn

    tk = text_pairs.map_batches(
        keyed("doc_a", "doc_b"), batch_format="pyarrow"
    )
    ek = emb_pairs.map_batches(
        keyed("vec_a", "vec_b"), batch_format="pyarrow"
    )
    # rename collision: cogroup_join needs disjoint non-key cols; both
    # sides are key-only so the join is a pure pair intersection
    both = cogroup_join(
        tk, ek, on=("a", "b"), num_partitions=num_partitions or 8
    )
    n_text = text_pairs.count()
    n_emb = emb_pairs.count()
    n_both = both.count()
    union = n_text + n_emb - n_both
    return pa.table(
        {
            "n_text_pairs": pa.array([n_text], pa.int64()),
            "n_embedding_pairs": pa.array([n_emb], pa.int64()),
            "n_both": pa.array([n_both], pa.int64()),
            "agreement_ppm": pa.array(
                [(n_both * 1_000_000) // union if union else 0],
                pa.int64(),
            ),
        }
    )


def crossmodal_agreement_oracle_sql(text_threshold: float = 0.6,
                                    cos_threshold: float = 0.4) -> str:
    return f"""
        WITH toks AS MATERIALIZED (
            SELECT doc_id, string_split(text, ' ') AS w FROM documents
        ), sh0 AS (
            SELECT doc_id,
                   CASE WHEN len(w) = 0 THEN []
                        WHEN len(w) < 3 THEN [array_to_string(w, ' ')]
                        ELSE list_transform(range(1, len(w) - 1),
                             i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2])
                   END AS shingles
            FROM toks
        ), ds AS MATERIALIZED (
            SELECT DISTINCT doc_id, t.s FROM sh0, UNNEST(shingles) AS t(s)
        ), sizes AS (
            SELECT doc_id, COUNT(*) AS sz FROM ds GROUP BY doc_id
        ), common AS (
            SELECT a.doc_id AS a, b.doc_id AS b, COUNT(*) AS c
            FROM ds a JOIN ds b ON a.s = b.s AND a.doc_id < b.doc_id
            GROUP BY 1, 2
        ), tp AS MATERIALIZED (
            SELECT a, b FROM common
            JOIN sizes sa ON sa.doc_id = a
            JOIN sizes sb ON sb.doc_id = b
            WHERE CAST(c AS DOUBLE) / CAST(sa.sz + sb.sz - c AS DOUBLE)
                  >= {text_threshold}
        ), ep AS MATERIALIZED (
            SELECT x.vec_id AS a, y.vec_id AS b
            FROM embeddings x JOIN embeddings y ON x.vec_id < y.vec_id
            WHERE list_cosine_similarity(
                      CAST(x.embedding AS DOUBLE[]),
                      CAST(y.embedding AS DOUBLE[])) >= {cos_threshold}
        ), agg AS (
            SELECT (SELECT COUNT(*) FROM tp) AS n_text_pairs,
                   (SELECT COUNT(*) FROM ep) AS n_embedding_pairs,
                   (SELECT COUNT(*) FROM tp JOIN ep
                     ON tp.a = ep.a AND tp.b = ep.b) AS n_both
        )
        SELECT CAST(n_text_pairs AS BIGINT) AS n_text_pairs,
               CAST(n_embedding_pairs AS BIGINT) AS n_embedding_pairs,
               CAST(n_both AS BIGINT) AS n_both,
               CAST(CASE WHEN n_text_pairs + n_embedding_pairs - n_both
                             = 0 THEN 0
                    ELSE n_both * 1000000
                         // (n_text_pairs + n_embedding_pairs - n_both)
                    END AS BIGINT) AS agreement_ppm
        FROM agg
    """


def head_energy_ratio(emb_ds, head_dims: int = 16):
    """Per-label average fraction of embedding "energy" (sum of
    squares) carried by the first ``head_dims`` dimensions, in integer
    ppm — the diagnostic behind Matryoshka-style truncation: a high
    head ratio means vectors can be cut to ``head_dims`` for cheap ANN
    prefiltering. Fully integer-exact: each element's square is
    quantized to 2^-20 units (float32² is exact in double, so the
    quantized value is IDENTICAL on engine and SQL sides), sums and
    the ppm ratio are int64, and the per-label average is a floored
    integer division.

    Scale shape: per-batch vectorized quantize + per-label partials
    (zero-copy list flatten -> reshape) -> shuffle-free bounded
    combine over the label space -> tiny final division block."""
    import numpy as np

    from autoner_ray.stages.combine import bounded_key_sum

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "label": pa.array([], pa.int64()),
                "sum_ppm": pa.array([], pa.int64()),
                "n_vecs": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        col = t["embedding"].combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False)
        n = len(t)
        dim = len(flat) // n
        a = flat.reshape(n, dim).astype(np.float64)
        q = np.floor(a * a * 1048576.0 + 0.5).astype(np.int64)
        num = q[:, :head_dims].sum(axis=1)
        den = q.sum(axis=1)
        ppm = np.where(den > 0, num * 1_000_000 // np.maximum(den, 1), 0)
        agg = (
            pa.table(
                {
                    "label": pc.cast(
                        t["label"].combine_chunks(), pa.int64()
                    ),
                    "sum_ppm": pa.array(ppm, pa.int64()),
                    "n_vecs": pa.array(np.ones(n, np.int64)),
                }
            )
            .group_by("label")
            .aggregate([("sum_ppm", "sum"), ("n_vecs", "sum")])
        )
        return agg.rename_columns(["label", "sum_ppm", "n_vecs"])

    sums = bounded_key_sum(
        emb_ds.map_batches(partial, batch_format="pyarrow"),
        ["label"], ["sum_ppm", "n_vecs"],
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "label": pa.array([], pa.int64()),
                    "n_vecs": pa.array([], pa.int64()),
                    "avg_head_energy_ppm": pa.array([], pa.int64()),
                }
            )
        import numpy as np

        s = t["sum_ppm"].to_numpy(zero_copy_only=False)
        nv = t["n_vecs"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "label": t["label"],
                "n_vecs": t["n_vecs"],
                "avg_head_energy_ppm": pa.array(
                    s // np.maximum(nv, 1), pa.int64()
                ),
            }
        )

    return sums.map_batches(finish, batch_format="pyarrow")


def head_energy_ratio_oracle_sql(head_dims: int = 16) -> str:
    return f"""
        WITH q AS (
            SELECT CAST(label AS BIGINT) AS label,
                   list_transform(
                       embedding,
                       x -> CAST(floor(CAST(x AS DOUBLE) * x
                                       * 1048576 + 0.5) AS BIGINT)
                   ) AS qs
            FROM embeddings
        ),
        per AS (
            SELECT label,
                   CASE WHEN list_sum(qs) > 0
                        THEN list_sum(qs[1:{head_dims}]) * 1000000
                             // greatest(list_sum(qs), 1)
                        ELSE 0 END AS ppm
            FROM q
        )
        SELECT label, COUNT(*) AS n_vecs,
               CAST(SUM(ppm) // COUNT(*) AS BIGINT)
                   AS avg_head_energy_ppm
        FROM per GROUP BY label
    """


def _trunc_div(a: int, b: int) -> int:
    """Integer division truncating toward zero — DuckDB's ``//``
    (engine centroid updates must match the SQL twin exactly; numpy's
    ``//`` floors, which diverges by one lattice unit on negative
    sums)."""
    q = a // b
    if a % b != 0 and (a < 0) != (b < 0):
        q += 1
    return q


def kmeans_lattice(emb_ds, k: int = 4, n_iter: int = 2):
    """SQL-certifiable distributed k-means: Lloyd's algorithm run
    ENTIRELY on an integer lattice — vectors quantize to 2^-20 units
    (float32·2^20 is exact in double, so engine and oracle see
    identical ints), distances are int64 sums of squares, ties break
    to the lowest centroid id via the ``min(dist·K + k)`` encoding,
    and new centroids are floored per-dim integer means. Every
    iteration is therefore bit-reproducible across runs, widths and
    block layouts — the property float k-means lacks — and the DuckDB
    twin unrolls the same ``n_iter`` steps. Init = the ``k`` lowest
    vec_ids. Returns (cluster, n_vecs, min_vec) after the final
    assignment.

    Scale shape: each iteration is one streaming pass — broadcast
    centroids (k×dim ints via ``ray.put``), per-batch vectorized
    assignment + per-cluster dim-sum partials, shuffle-free bounded
    combine over the k-row key space; the driver only ever holds k
    centroids. Passes re-read the source (at 100 TB, materialize the
    quantized vectors once and iterate on that)."""
    import numpy as np
    import ray

    from autoner_ray.stages.combine import bounded_key_sum

    Q = 1048576.0

    def quantized(t: pa.Table) -> np.ndarray:
        col = t["embedding"].combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False)
        n = len(t)
        a = flat.reshape(n, len(flat) // n).astype(np.float64)
        return np.floor(a * Q + 0.5).astype(np.int64)

    # init: the k lowest vec_ids (per-batch min-k partial, tiny merge)
    def init_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "embedding": pa.array(
                        [], pa.list_(pa.float32())
                    ),
                }
            )
        ix = np.argsort(t["vec_id"].to_numpy())[:k]
        return t.select(["vec_id", "embedding"]).take(pa.array(ix))

    seed = (
        emb_ds.map_batches(init_partial, batch_format="pyarrow")
        .to_pandas()
        .sort_values("vec_id")
        .head(k)
    )
    seed_t = pa.table(
        {
            "vec_id": pa.array(seed["vec_id"].to_numpy(np.int64)),
            "embedding": pa.array(
                list(seed["embedding"]), pa.list_(pa.float32())
            ),
        }
    )
    cents = quantized(seed_t)  # (k, dim) int64
    dim = cents.shape[1]

    def assign(q: np.ndarray, c: np.ndarray) -> np.ndarray:
        # (n, k) int64 squared distances; argmin returns the FIRST
        # minimum — the min(dist*K + k) % K tiebreak of the SQL twin
        d = q[:, None, :] - c[None, :, :]
        return np.argmin((d * d).sum(axis=2), axis=1)

    scols = [f"s{i:02d}" for i in range(dim)]
    for _ in range(n_iter - 1):
        cents_ref = ray.put(cents)

        def sum_partial(t: pa.Table) -> pa.Table:
            if t.num_columns == 0 or len(t) == 0:
                return pa.table(
                    {"cluster": pa.array([], pa.int64()),
                     "n": pa.array([], pa.int64())}
                    | {s: pa.array([], pa.int64()) for s in scols}
                )
            qv = quantized(t)
            lab = assign(qv, ray.get(cents_ref))
            rows = {"cluster": [], "n": []}
            rows.update({s: [] for s in scols})
            for kk in np.unique(lab):
                sel = qv[lab == kk]
                rows["cluster"].append(int(kk))
                rows["n"].append(len(sel))
                ssum = sel.sum(axis=0)
                for i, s in enumerate(scols):
                    rows[s].append(int(ssum[i]))
            return pa.table(
                {c: pa.array(v, pa.int64()) for c, v in rows.items()}
            )

        sums = bounded_key_sum(
            emb_ds.map_batches(sum_partial, batch_format="pyarrow"),
            ["cluster"], ["n"] + scols,
        ).to_pandas().sort_values("cluster")
        new_c = cents.copy()
        for _, r in sums.iterrows():
            kk = int(r["cluster"])
            new_c[kk] = np.array(
                [_trunc_div(int(r[s]), int(r["n"])) for s in scols],
                np.int64
            )
        cents = new_c

    cents_ref = ray.put(cents)

    def final_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "cluster": pa.array([], pa.int64()),
                    "n_vecs": pa.array([], pa.int64()),
                    "min_vec": pa.array([], pa.int64()),
                }
            )
        qv = quantized(t)
        lab = assign(qv, ray.get(cents_ref))
        ids = t["vec_id"].to_numpy()
        rows = []
        for kk in np.unique(lab):
            m = lab == kk
            rows.append((int(kk), int(m.sum()), int(ids[m].min())))
        return pa.table(
            {
                "cluster": pa.array([r[0] for r in rows], pa.int64()),
                "n_vecs": pa.array([r[1] for r in rows], pa.int64()),
                "min_vec": pa.array([r[2] for r in rows], pa.int64()),
            }
        )

    def combine(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "cluster": pa.array([], pa.int64()),
                    "n_vecs": pa.array([], pa.int64()),
                    "min_vec": pa.array([], pa.int64()),
                }
            )
        agg = t.group_by("cluster").aggregate(
            [("n_vecs", "sum"), ("min_vec", "min")]
        )
        return agg.rename_columns(["cluster", "n_vecs", "min_vec"])

    return (
        emb_ds.map_batches(final_partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(combine, batch_format="pyarrow", batch_size=None)
    )


def kmeans_lattice_oracle_sql(k: int = 4, n_iter: int = 2,
                              dim: int = 64) -> str:
    dist = (
        "list_sum(list_transform(list_zip(v, c),"
        " p -> (p[1]-p[2])*(p[1]-p[2])))"
    )
    steps = [f"""
        a1 AS (
            SELECT vec_id, v,
                   MIN({dist} * {k} + init.k) % {k} AS k1
            FROM qi CROSS JOIN init GROUP BY vec_id, v
        )"""]
    prev = "a1"
    prev_lab = "k1"
    for it in range(2, n_iter + 1):
        steps.append(f"""
        cd{it} AS (
            SELECT {prev}.{prev_lab} AS kk, t.i AS dim,
                   SUM({prev}.v[t.i]) // COUNT(*) AS cv
            FROM {prev}, UNNEST(range(1, {dim + 1})) AS t(i)
            GROUP BY {prev}.{prev_lab}, t.i
        ),
        c{it} AS (
            SELECT kk AS k, list(cv ORDER BY dim) AS c
            FROM cd{it} GROUP BY kk
        ),
        a{it} AS (
            SELECT vec_id, v,
                   MIN({dist} * {k} + c{it}.k) % {k} AS k{it}
            FROM {prev} CROSS JOIN c{it} GROUP BY vec_id, v
        )""")
        prev = f"a{it}"
        prev_lab = f"k{it}"
    return f"""
        WITH qi AS (
            SELECT vec_id,
                   list_transform(embedding,
                       x -> CAST(floor(CAST(x AS DOUBLE) * 1048576
                                       + 0.5) AS BIGINT)) AS v
            FROM embeddings
        ),
        init AS (
            SELECT CAST(row_number() OVER (ORDER BY vec_id) - 1
                        AS BIGINT) AS k, v AS c
            FROM qi ORDER BY vec_id LIMIT {k}
        ),
        {",".join(steps)}
        SELECT {prev_lab} AS cluster, COUNT(*) AS n_vecs,
               MIN(vec_id) AS min_vec
        FROM {prev} GROUP BY {prev_lab}
    """


def int8_quantize_report(emb_ds):
    """Scalar (per-dimension min/max) int8 quantization of the
    embedding table with an integer-exact reconstruction-error report
    — the compression step a vector store applies before ANN serving,
    plus the quality audit that decides whether 8-bit codes are safe.

    Everything runs on the 2^-20 integer lattice (float32 values are
    exact in double, so ``floor(x·2^20 + 0.5)`` is IDENTICAL on engine
    and SQL sides): code ``(v-min)·255 // max(range,1)``, dequant
    offset ``code·range // 255``, error ``|v - min - offset|`` — all
    non-negative int64 ops where ``//`` floor and truncation coincide.

    Scale shape: pass 1 per-batch per-dim min/max partials (|dims|
    rows per batch, zero-copy flatten -> reshape) -> tiny combine;
    the |dims|-row table broadcasts via ``ray.put``; pass 2 streams
    the vectors once more, emitting per-dim (sum_abs_err, sum_code)
    partials -> bounded combine. No shuffle of the vector table."""
    import ray

    from autoner_ray.stages.combine import bounded_key_sum

    SCALE = 1 << 20

    def _lattice(t: pa.Table) -> tuple[np.ndarray, int]:
        col = t["embedding"].combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        n = len(t)
        dim = len(flat) // max(n, 1)
        q = np.floor(flat * SCALE + 0.5).astype(np.int64)
        return q.reshape(n, dim), dim

    def minmax_partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "dim": pa.array([], pa.int64()),
                "min_q": pa.array([], pa.int64()),
                "max_q": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        q, dim = _lattice(t)
        return pa.table(
            {
                "dim": pa.array(np.arange(dim, dtype=np.int64)),
                "min_q": pa.array(q.min(axis=0)),
                "max_q": pa.array(q.max(axis=0)),
            }
        )

    def minmax_combine(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "dim": pa.array([], pa.int64()),
                    "min_q": pa.array([], pa.int64()),
                    "max_q": pa.array([], pa.int64()),
                }
            )
        agg = t.group_by("dim").aggregate(
            [("min_q", "min"), ("max_q", "max")]
        )
        return agg.rename_columns(["dim", "min_q", "max_q"])

    stats = (
        emb_ds.map_batches(
            minmax_partial, batch_format="pyarrow", batch_size=4096
        )
        .repartition(1)
        .map_batches(minmax_combine, batch_format="pyarrow",
                     batch_size=None)
        .to_pandas()
        .sort_values("dim", kind="mergesort")
    )
    mins = stats["min_q"].to_numpy()
    ranges = np.maximum(stats["max_q"].to_numpy() - mins, 1)
    stats_ref = ray.put((mins, ranges))

    def err_partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "dim": pa.array([], pa.int64()),
                "sum_abs_err": pa.array([], pa.int64()),
                "sum_code": pa.array([], pa.int64()),
                "n_vecs": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        mn, rg = ray.get(stats_ref)
        q, dim = _lattice(t)
        code = (q - mn) * 255 // rg
        recon_off = code * rg // 255
        err = np.abs(q - mn - recon_off)
        return pa.table(
            {
                "dim": pa.array(np.arange(dim, dtype=np.int64)),
                "sum_abs_err": pa.array(err.sum(axis=0)),
                "sum_code": pa.array(code.sum(axis=0)),
                "n_vecs": pa.array(
                    np.full(dim, len(t), dtype=np.int64)
                ),
            }
        )

    sums = bounded_key_sum(
        emb_ds.map_batches(
            err_partial, batch_format="pyarrow", batch_size=4096
        ),
        ["dim"], ["sum_abs_err", "sum_code", "n_vecs"],
    ).to_pandas().sort_values("dim", kind="mergesort")

    sums["min_q"] = mins
    sums["range_q"] = ranges
    sums["mae_lattice"] = (
        sums["sum_abs_err"].to_numpy() // sums["n_vecs"].to_numpy()
    )
    out = sums[
        ["dim", "min_q", "range_q", "sum_abs_err", "sum_code",
         "n_vecs", "mae_lattice"]
    ].reset_index(drop=True)
    return out


def int8_quantize_oracle_sql() -> str:
    return """
        WITH q AS (
            SELECT list_transform(
                       embedding,
                       x -> CAST(floor(CAST(x AS DOUBLE) * 1048576
                                       + 0.5) AS BIGINT)
                   ) AS qs
            FROM embeddings
        ),
        u AS (
            SELECT CAST(unnest(range(len(qs))) AS BIGINT) AS dim,
                   unnest(qs) AS v
            FROM q
        ),
        m AS (
            SELECT dim, MIN(v) AS min_q,
                   greatest(MAX(v) - MIN(v), 1) AS range_q
            FROM u GROUP BY dim
        ),
        e AS (
            SELECT u.dim, m.min_q, m.range_q,
                   (v - min_q) * 255 // range_q AS code,
                   abs(v - min_q
                       - ((v - min_q) * 255 // range_q)
                         * range_q // 255) AS err
            FROM u JOIN m USING (dim)
        )
        SELECT dim, MIN(min_q) AS min_q, MIN(range_q) AS range_q,
               CAST(SUM(err) AS BIGINT) AS sum_abs_err,
               CAST(SUM(code) AS BIGINT) AS sum_code,
               COUNT(*) AS n_vecs,
               CAST(SUM(err) // COUNT(*) AS BIGINT) AS mae_lattice
        FROM e GROUP BY dim
    """


def _pq_quantized(t: pa.Table) -> np.ndarray:
    """Embedding batch -> (n, dim) int64 on the 2^-20 lattice (the
    kmeans_lattice contract: float32·2^20 is exact in double)."""
    col = t["embedding"].combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False)
    n = len(t)
    a = flat.reshape(n, len(flat) // n).astype(np.float64)
    return np.floor(a * 1048576.0 + 0.5).astype(np.int64)


def _pq_sub_assign(qv: np.ndarray, c: np.ndarray):
    """(n, dim) lattice vectors x (m, k, sub) codebooks -> per-subspace
    labels (n, m) and squared errors (n, m); argmin's first-minimum is
    the SQL min(dist*K + k) tiebreak."""
    m, _, sub = c.shape
    n = qv.shape[0]
    labs = np.empty((n, m), np.int64)
    errs = np.empty((n, m), np.int64)
    for ms in range(m):
        d = qv[:, None, ms * sub:(ms + 1) * sub] - c[ms][None]
        d2 = (d * d).sum(axis=2)
        lab = np.argmin(d2, axis=1)
        labs[:, ms] = lab
        errs[:, ms] = d2[np.arange(n), lab]
    return labs, errs


def _pq_train(emb_ds, m: int = 4, k: int = 4,
              n_iter: int = 2) -> np.ndarray:
    """Train the m per-subspace lattice codebooks (the
    :func:`pq_report` recipe: init = k lowest vec_ids' subvectors,
    n_iter-1 re-estimation rounds of truncated integer means, all
    subspaces in one corpus pass per round). Returns (m, k, sub)
    int64 centroids — the only state on the driver."""
    import ray

    from autoner_ray.stages.combine import bounded_key_sum

    def init_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "embedding": pa.array([], pa.list_(pa.float32())),
                }
            )
        ix = np.argsort(t["vec_id"].to_numpy())[:k]
        return t.select(["vec_id", "embedding"]).take(pa.array(ix))

    seed = (
        emb_ds.map_batches(init_partial, batch_format="pyarrow")
        .to_pandas()
        .sort_values("vec_id")
        .head(k)
    )
    seed_q = _pq_quantized(
        pa.table(
            {
                "vec_id": pa.array(seed["vec_id"].to_numpy(np.int64)),
                "embedding": pa.array(
                    list(seed["embedding"]), pa.list_(pa.float32())
                ),
            }
        )
    )
    dim = seed_q.shape[1]
    sub = dim // m
    cents = np.stack(
        [seed_q[:, i * sub:(i + 1) * sub] for i in range(m)]
    )  # (m, k, sub) int64

    scols = [f"s{i:02d}" for i in range(sub)]
    for _ in range(n_iter - 1):
        cents_ref = ray.put(cents)

        def sum_partial(t: pa.Table) -> pa.Table:
            if t.num_columns == 0 or len(t) == 0:
                return pa.table(
                    {"ms": pa.array([], pa.int64()),
                     "cluster": pa.array([], pa.int64()),
                     "n": pa.array([], pa.int64())}
                    | {s: pa.array([], pa.int64()) for s in scols}
                )
            qv = _pq_quantized(t)
            labs, _ = _pq_sub_assign(qv, ray.get(cents_ref))
            rows = {"ms": [], "cluster": [], "n": []}
            rows.update({s: [] for s in scols})
            for ms in range(m):
                sl = qv[:, ms * sub:(ms + 1) * sub]
                for kk in np.unique(labs[:, ms]):
                    sel = sl[labs[:, ms] == kk]
                    rows["ms"].append(ms)
                    rows["cluster"].append(int(kk))
                    rows["n"].append(len(sel))
                    ssum = sel.sum(axis=0)
                    for i, s in enumerate(scols):
                        rows[s].append(int(ssum[i]))
            return pa.table(
                {c: pa.array(v, pa.int64()) for c, v in rows.items()}
            )

        sums = bounded_key_sum(
            emb_ds.map_batches(sum_partial, batch_format="pyarrow"),
            ["ms", "cluster"], ["n"] + scols,
        ).to_pandas()
        new_c = cents.copy()
        for _, r in sums.iterrows():
            new_c[int(r["ms"]), int(r["cluster"])] = np.array(
                [_trunc_div(int(r[s]), int(r["n"])) for s in scols],
                np.int64
            )
        cents = new_c
    return cents


def pq_report(emb_ds, m: int = 4, k: int = 4, n_iter: int = 2):
    """SQL-certifiable product quantization: the vector is split into
    ``m`` contiguous subspaces and each runs the SAME integer-lattice
    Lloyd's recipe as :func:`kmeans_lattice` (2^-20 quantization, int64
    distances, min(dist·K + k) tiebreak, floored integer centroid
    means, init = the k lowest vec_ids' subvectors) — so every PQ code
    is bit-reproducible and the DuckDB twin can unroll it. Returns one
    row per occupied PQ cell: the m-tuple code, occupancy, total
    squared reconstruction error in lattice units, and the lowest
    member vec_id. k^m cells (256 at the defaults) make the codebook —
    the memory-for-recall trade ANN indexes at 10^10+ vectors run on.

    Scale shape: all m subspaces train SIMULTANEOUSLY in each pass (one
    corpus read per Lloyd iteration, not m) — per-batch partials keyed
    (subspace, cluster) reduce through the shuffle-free bounded combine
    (m·k rows); the final encode pass emits per-cell partials over the
    bounded k^m key space. The driver only ever holds m·k·(dim/m)
    centroid ints."""
    import numpy as np
    import ray

    cents = _pq_train(emb_ds, m=m, k=k, n_iter=n_iter)
    quantized = _pq_quantized
    sub_assign = _pq_sub_assign
    cents_ref = ray.put(cents)
    code_cols = [f"code_{i}" for i in range(m)]

    def encode_partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {c: pa.array([], pa.int64()) for c in code_cols}
            | {
                "n_vecs": pa.array([], pa.int64()),
                "sum_err": pa.array([], pa.int64()),
                "min_vec": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        qv = quantized(t)
        labs, errs = sub_assign(qv, ray.get(cents_ref))
        ids = t["vec_id"].to_numpy()
        packed = np.zeros(len(qv), np.int64)
        for ms in range(m):
            packed = packed * k + labs[:, ms]
        err_tot = errs.sum(axis=1)
        uniq = np.unique(packed)
        cols = {c: [] for c in code_cols}
        nv, se, mv = [], [], []
        for p in uniq:
            sel = packed == p
            v = int(p)
            for ms in reversed(range(m)):
                cols[code_cols[ms]].append(v % k)
                v //= k
            nv.append(int(sel.sum()))
            se.append(int(err_tot[sel].sum()))
            mv.append(int(ids[sel].min()))
        return pa.table(
            {c: pa.array(cols[c], pa.int64()) for c in code_cols}
            | {
                "n_vecs": pa.array(nv, pa.int64()),
                "sum_err": pa.array(se, pa.int64()),
                "min_vec": pa.array(mv, pa.int64()),
            }
        )

    def cell_combine(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {c: pa.array([], pa.int64()) for c in code_cols}
                | {
                    "n_vecs": pa.array([], pa.int64()),
                    "sum_err": pa.array([], pa.int64()),
                    "min_vec": pa.array([], pa.int64()),
                }
            )
        agg = t.group_by(code_cols).aggregate(
            [("n_vecs", "sum"), ("sum_err", "sum"), ("min_vec", "min")]
        )
        return agg.rename_columns(
            code_cols + ["n_vecs", "sum_err", "min_vec"]
        )

    return (
        emb_ds.map_batches(encode_partial, batch_format="pyarrow")
        .map_batches(cell_combine, batch_format="pyarrow",
                     batch_size=65536)
        .repartition(1)
        .map_batches(cell_combine, batch_format="pyarrow",
                     batch_size=None)
    )


def pq_report_oracle_sql(m: int = 4, k: int = 4, n_iter: int = 2,
                         dim: int = 64) -> str:
    """Per-subspace unroll of the :func:`kmeans_lattice_oracle_sql`
    recipe over ``list_slice`` subvectors, joined on vec_id for the
    final cell rollup; MIN(dist*K + k) yields the code via % K and the
    reconstruction error via // K."""
    sub = dim // m
    dist = (
        "list_sum(list_transform(list_zip(v, c),"
        " p -> (p[1]-p[2])*(p[1]-p[2])))"
    )
    blocks = []
    finals = []
    for ms in range(m):
        lo, hi = ms * sub + 1, (ms + 1) * sub
        blocks.append(f"""
        qi_{ms} AS (
            SELECT vec_id, q[{lo}:{hi}] AS v FROM qi
        ),
        init_{ms} AS (
            SELECT CAST(row_number() OVER (ORDER BY vec_id) - 1
                        AS BIGINT) AS k, v AS c
            FROM qi_{ms} ORDER BY vec_id LIMIT {k}
        ),
        a1_{ms} AS (
            SELECT vec_id, v,
                   MIN({dist} * {k} + init_{ms}.k) % {k} AS lab
            FROM qi_{ms} CROSS JOIN init_{ms} GROUP BY vec_id, v
        )""")
        prev = f"a1_{ms}"
        for it in range(2, n_iter + 1):
            blocks.append(f"""
        cd{it}_{ms} AS (
            SELECT {prev}.lab AS kk, t.i AS dim,
                   SUM({prev}.v[t.i]) // COUNT(*) AS cv
            FROM {prev}, UNNEST(range(1, {sub + 1})) AS t(i)
            GROUP BY {prev}.lab, t.i
        ),
        c{it}_{ms} AS (
            SELECT kk AS k, list(cv ORDER BY dim) AS c
            FROM cd{it}_{ms} GROUP BY kk
        ),
        a{it}_{ms} AS (
            SELECT vec_id, v,
                   MIN({dist} * {k} + c{it}_{ms}.k) % {k} AS lab,
                   MIN({dist} * {k} + c{it}_{ms}.k) // {k} AS err
            FROM {prev} CROSS JOIN c{it}_{ms} GROUP BY vec_id, v
        )""")
            prev = f"a{it}_{ms}"
        finals.append(prev)
    joins = " ".join(
        f"JOIN {finals[ms]} f{ms} ON f{ms}.vec_id = f0.vec_id"
        for ms in range(1, m)
    )
    code_sel = ", ".join(
        f"CAST(f{ms}.lab AS BIGINT) AS code_{ms}" for ms in range(m)
    )
    err_sum = " + ".join(f"f{ms}.err" for ms in range(m))
    group_by = ", ".join(str(i + 1) for i in range(m))
    return f"""
        WITH qi AS (
            SELECT vec_id,
                   list_transform(embedding,
                       x -> CAST(floor(CAST(x AS DOUBLE) * 1048576
                                       + 0.5) AS BIGINT)) AS q
            FROM embeddings
        ),
        {",".join(blocks)}
        SELECT {code_sel},
               COUNT(*) AS n_vecs,
               CAST(SUM({err_sum}) AS BIGINT) AS sum_err,
               MIN(f0.vec_id) AS min_vec
        FROM {finals[0]} f0 {joins}
        GROUP BY {group_by}
    """


def knn_pq(emb_ds, query_vec, k_top: int = 10, m: int = 4,
           kc: int = 16, n_iter: int = 2):
    """PQ asymmetric-distance (ADC) top-k — the search path the
    :func:`pq_report` codebooks exist for: the query stays EXACT on the
    lattice while corpus vectors are represented by their per-subspace
    codes, so scoring a vector is m table lookups instead of a dim-wide
    dot product. With kc=16, m=4 a vector costs 4 bytes in the index —
    the 10^10-vector memory trade.

    Scale shape: codebooks train via :func:`_pq_train` (one corpus pass
    per Lloyd round, driver holds m·kc·sub ints); the query's (m, kc)
    distance lookup table broadcasts with the codebooks; the scan emits
    only k_top rows per batch and the driver merges partials. Exact
    ADC semantics (int64 lattice distances, vec_id-ascending tiebreak)
    are deterministic, so the distributed result equals a one-process
    recompute — pinned by tests/test_r4_late_ops.py."""
    import heapq

    import ray

    cents = _pq_train(emb_ds, m=m, k=kc, n_iter=n_iter)
    sub = cents.shape[2]
    q = np.floor(
        np.asarray(query_vec, dtype=np.float64) * 1048576.0 + 0.5
    ).astype(np.int64)
    # LUT[ms][c] = squared lattice distance from the query's ms-th
    # subvector to codebook centroid c
    lut = np.stack(
        [
            ((q[ms * sub:(ms + 1) * sub][None] - cents[ms]) ** 2)
            .sum(axis=1)
            for ms in range(m)
        ]
    )  # (m, kc) int64
    state_ref = ray.put((cents, lut))

    def partial_topk(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "vec_id": pa.array([], pa.int64()),
                "adc_dist": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        c, lu = ray.get(state_ref)
        qv = _pq_quantized(t)
        labs, _ = _pq_sub_assign(qv, c)
        dist = np.zeros(len(qv), np.int64)
        for ms in range(m):
            dist += lu[ms][labs[:, ms]]
        ids = t["vec_id"].to_numpy()
        order = np.lexsort((ids, dist))[:k_top]
        return pa.table(
            {
                "vec_id": pa.array(ids[order], pa.int64()),
                "adc_dist": pa.array(dist[order], pa.int64()),
            }
        )

    partials = emb_ds.map_batches(partial_topk, batch_format="pyarrow")
    heap: list[tuple[int, int]] = []  # max-heap by (-dist, -vec_id)
    for b in partials.iter_batches(batch_size=4096,
                                   batch_format="pyarrow"):
        for vid, d in zip(b["vec_id"].to_pylist(),
                          b["adc_dist"].to_pylist()):
            heapq.heappush(heap, (-d, -vid))
            if len(heap) > k_top:
                heapq.heappop(heap)
    top = sorted(((-d, -v) for d, v in heap))
    return pa.table(
        {
            "vec_id": pa.array([v for _, v in top], pa.int64()),
            "adc_dist": pa.array([d for d, _ in top], pa.int64()),
        }
    )


def gram_lattice(emb_ds):
    """Integer-exact second-moment (Gram) matrix of the embedding
    table on the 2^-20 lattice — the covariance/whitening precursor
    (PCA, ZCA, Mahalanobis scoring) computed as upper-triangle entries
    (i <= j, 0-based): sum over vectors of v[i]·v[j], plus the row
    count and per-dim sums needed to center it downstream.

    Scale shape: one streaming pass; each batch contributes a single
    dim×dim einsum (plus a dim-long sum), flattened to the bounded
    dim·(dim+1)/2 key space for the shuffle-free combine — the corpus
    never shuffles and the driver holds one 64×64 matrix. Lattice
    magnitudes (~2^20) bound a product at ~2^40, so int64 partials
    carry ~2^23 rows per batch safely; the combine's int64 totals
    carry ~10^5 batches — beyond that widen to per-partition float128
    or split the key space (documented, not needed at current scales).
    """
    from autoner_ray.stages.combine import bounded_key_sum

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "i": pa.array([], pa.int64()),
                "j": pa.array([], pa.int64()),
                "sum_prod": pa.array([], pa.int64()),
                "sum_i": pa.array([], pa.int64()),
                "n_vecs": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        qv = _pq_quantized(t)
        dim = qv.shape[1]
        gram = qv.T @ qv  # (dim, dim) int64, exact
        sums = qv.sum(axis=0)
        ii, jj = np.triu_indices(dim)
        return pa.table(
            {
                "i": pa.array(ii.astype(np.int64), pa.int64()),
                "j": pa.array(jj.astype(np.int64), pa.int64()),
                "sum_prod": pa.array(gram[ii, jj], pa.int64()),
                # carried on the diagonal rows only (i == j) so the
                # combine stays a plain keyed sum
                "sum_i": pa.array(
                    np.where(ii == jj, sums[ii], 0), pa.int64()
                ),
                "n_vecs": pa.array(
                    np.where((ii == 0) & (jj == 0), len(qv), 0),
                    pa.int64(),
                ),
            }
        )

    return bounded_key_sum(
        emb_ds.map_batches(partial, batch_format="pyarrow"),
        keys=["i", "j"], sum_cols=["sum_prod", "sum_i", "n_vecs"],
    )


def gram_lattice_oracle_sql(dim: int = 64) -> str:
    return f"""
        WITH qi AS (
            SELECT list_transform(embedding,
                       x -> CAST(floor(CAST(x AS DOUBLE) * 1048576
                                       + 0.5) AS BIGINT)) AS v
            FROM embeddings
        ),
        ij AS (
            SELECT a.i AS i, b.j AS j
            FROM UNNEST(range(1, {dim + 1})) a(i),
                 UNNEST(range(1, {dim + 1})) b(j)
            WHERE a.i <= b.j
        )
        SELECT ij.i - 1 AS i, ij.j - 1 AS j,
               SUM(v[ij.i] * v[ij.j]) AS sum_prod,
               CASE WHEN ij.i = ij.j THEN SUM(v[ij.i]) ELSE 0 END
                   AS sum_i,
               CASE WHEN ij.i = 1 AND ij.j = 1 THEN COUNT(*) ELSE 0 END
                   AS n_vecs
        FROM qi, ij
        GROUP BY ij.i, ij.j
    """


def zorder_buckets(sf_dir: str, bits: int = 8, bucket_shift: int = 10):
    """Z-order (Morton) clustering layout over the first two embedding
    dims — the storage-layout kernel behind spatially-clustered Parquet
    (Delta/Iceberg OPTIMIZE ZORDER): quantize each dim to ``bits`` bits
    against its global min/max, interleave the bits into a Morton code,
    and bucket by the code's high bits. Per bucket: row count plus the
    quantized bounding box (min/max of both dims) — the stats a reader
    uses to prune range queries, and the proof that Morton bucketing
    actually co-locates nearby vectors (bbox side length shrinks with
    bucket count).

    Scale shape: pass 1 is four scalar aggregates (per-dim min/max,
    broadcast in the closure); pass 2 is a stateless vectorized
    quantize+interleave ``map_batches`` feeding one bounded combine
    over the (<= 2^(2*bits - bucket_shift)) bucket keys. Quantization
    runs in float64 with the same op order as the SQL twin, so codes
    match bit-for-bit."""
    import numpy as np

    import ray.data as rd

    from autoner_ray.stages.combine import keyed_combine

    emb = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).materialize()

    def dims_batch(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "d0": pa.array([], pa.float64()),
                    "d1": pa.array([], pa.float64()),
                }
            )
        m = np.stack(
            [np.asarray(x[:2], np.float64)
             for x in t["embedding"].to_pylist()]
        )
        return pa.table(
            {
                "d0": pa.array(m[:, 0], pa.float64()),
                "d1": pa.array(m[:, 1], pa.float64()),
            }
        )

    dims = emb.map_batches(dims_batch, batch_format="pyarrow").materialize()
    mn0, mx0 = dims.min("d0"), dims.max("d0")
    mn1, mx1 = dims.min("d1"), dims.max("d1")
    hi = (1 << bits) - 1
    # degenerate (constant) dimension: every x - mn is 0, so any
    # nonzero denominator maps all rows to quantile 0 — guard the
    # division instead of crashing on 0/0 -> NaN in .astype (the SQL
    # twin applies the same max(range, tiny) guard)
    rng0 = (mx0 - mn0) or 1.0
    rng1 = (mx1 - mn1) or 1.0

    _schema = pa.schema(
        [("bucket", pa.int64()), ("n", pa.int64()),
         ("min_q0", pa.int64()), ("max_q0", pa.int64()),
         ("min_q1", pa.int64()), ("max_q1", pa.int64())]
    )

    def z_batch(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return _schema.empty_table()
        import pandas as pd

        q0 = np.minimum(
            np.floor((t["d0"].to_numpy() - mn0) * hi / rng0),
            hi,
        ).astype(np.int64)
        q1 = np.minimum(
            np.floor((t["d1"].to_numpy() - mn1) * hi / rng1),
            hi,
        ).astype(np.int64)
        z = np.zeros(len(q0), np.int64)
        for i in range(bits):
            z |= ((q0 >> i) & 1) << (2 * i)
            z |= ((q1 >> i) & 1) << (2 * i + 1)
        df = pd.DataFrame(
            {"bucket": z >> bucket_shift, "q0": q0, "q1": q1}
        )
        g = df.groupby("bucket", as_index=False).agg(
            n=("q0", "size"),
            min_q0=("q0", "min"), max_q0=("q0", "max"),
            min_q1=("q1", "min"), max_q1=("q1", "max"),
        )
        # drop the pandas metadata: Ray Data cannot hash it with the schema
        return pa.Table.from_pandas(
            g, schema=_schema, preserve_index=False
        ).replace_schema_metadata(None)

    return keyed_combine(
        dims.map_batches(z_batch, batch_format="pyarrow"),
        keys=["bucket"],
        aggs=[("n", "sum"), ("min_q0", "min"), ("max_q0", "max"),
              ("min_q1", "min"), ("max_q1", "max")],
        part_on=("bucket",),
    )


def label_spread(sf_dir: str, k: int = 3):
    """One round of kNN label spreading over the embedding table — the
    label-denoising pass semi-supervised curation runs: each vector
    takes the majority label of its ``k`` nearest cosine neighbors
    (self excluded; similarity quantized to integer micro-units before
    ranking so neighbor order is engine-independent; ties on count
    break to the smallest label, on similarity to the smallest
    vec_id). Output (vec_id, label, label_spread).

    Scale shape: the brute-force-matmul baseline the ANN family
    documents — batches stream against the broadcast normalized
    matrix; per batch one matmul + argsort. The IVF-bucketed variant
    (`ivf_topk`) is the at-scale neighbor source, same vote tail."""
    import numpy as np

    import ray
    import ray.data as rd

    emb = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"],
    ).materialize()
    full = emb.to_pandas().sort_values("vec_id")
    ids = full["vec_id"].to_numpy(np.int64)
    mat = np.array(full["embedding"].to_list(), np.float64)
    labels = full["label"].to_numpy(np.int64)
    normed = mat / (np.linalg.norm(mat, axis=1, keepdims=True) + 1e-30)
    state = ray.put((ids, normed, labels))

    _schema = pa.schema(
        [("vec_id", pa.int64()), ("label", pa.int64()),
         ("label_spread", pa.int64())]
    )

    class Vote:
        def __init__(self) -> None:
            self.ids, self.normed, self.labels = ray.get(state)

        def __call__(self, t: pa.Table) -> pa.Table:
            if t.num_columns == 0 or len(t) == 0:
                return _schema.empty_table()
            bids, bmat = _batch_matrix(t)
            bn = bmat / (
                np.linalg.norm(bmat, axis=1, keepdims=True) + 1e-30
            )
            simq = np.floor(
                (bn @ self.normed.T) * 1_000_000 + 0.5
            ).astype(np.int64)
            # self gets a floor sentinel; order by (simq desc, vec_id
            # asc). NOT int64-min: lexsort negates the key and
            # -INT64_MIN overflows back to itself, sorting self FIRST
            self_mask = bids[:, None] == self.ids[None, :]
            simq[self_mask] = -(1 << 62)
            order = np.lexsort(
                (np.broadcast_to(self.ids, simq.shape), -simq), axis=1
            )[:, :k]
            neigh_labels = self.labels[order]
            out = np.empty(len(bids), np.int64)
            for i in range(len(bids)):
                vals, counts = np.unique(
                    neigh_labels[i], return_counts=True
                )
                out[i] = int(vals[np.lexsort((vals, -counts))[0]])
            blabels = t["label"].to_numpy(zero_copy_only=False).astype(
                np.int64
            )
            return pa.table(
                {
                    "vec_id": pa.array(bids, pa.int64()),
                    "label": pa.array(blabels, pa.int64()),
                    "label_spread": pa.array(out, pa.int64()),
                },
                schema=_schema,
            )

    return emb.map_batches(Vote, batch_format="pyarrow",
                           batch_size=128, concurrency=2)


def _knn_partial_frame(pids, plabels, Q, mids, mlabels, M, k,
                       mask_same_label: bool = False):
    """Per-partition exact-cosine partial top-k (probe rows vs member
    rows) under the brute tier's deterministic order: similarity
    quantized to integer micro-units, self rows floored to the
    sentinel, rank by (simq desc, member id asc). Returns a pandas
    frame (vec_id, label, n_id, n_label, simq) with <= k rows per
    probe row — the mergeable unit both distributed label-spread
    tiers shuffle. ``mask_same_label=True`` additionally sentinels
    every same-label pair (the hard-negative-mining restriction)."""
    import numpy as np
    import pandas as pd

    Mn = M / (np.linalg.norm(M, axis=1, keepdims=True) + 1e-30)
    Qn = Q / (np.linalg.norm(Q, axis=1, keepdims=True) + 1e-30)
    simq = np.floor((Qn @ Mn.T) * 1_000_000 + 0.5).astype(np.int64)
    # same self sentinel as the brute tier (see its overflow note)
    simq[pids[:, None] == mids[None, :]] = -(1 << 62)
    if mask_same_label:
        simq[plabels[:, None] == mlabels[None, :]] = -(1 << 62)
    kk = min(k, simq.shape[1])
    order = np.lexsort(
        (np.broadcast_to(mids, simq.shape), -simq), axis=1
    )[:, :kk]
    rows = np.arange(len(pids))[:, None]
    return pd.DataFrame(
        {
            "vec_id": np.repeat(pids, kk),
            "label": np.repeat(plabels, kk),
            "n_id": mids[order].ravel(),
            "n_label": mlabels[order].ravel(),
            "simq": simq[rows, order].ravel(),
        }
    )


def _knn_vote_merge(partials_ds, k: int):
    """Merge per-partition kNN partials into the final vote: group by
    query vec_id, re-rank the union under the same (simq desc, id asc)
    order, take the global top-k, majority vote (count desc, label
    asc) — byte-identical tail to the brute tier whenever the partials
    cover the true top-k."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    def vote(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["simq"] > -(1 << 62)]
        if len(df) == 0:
            return pd.DataFrame(
                {"vec_id": [], "label": [], "label_spread": []}
            ).astype(np.int64)
        o = np.lexsort(
            (df["n_id"].to_numpy(), -df["simq"].to_numpy())
        )[:k]
        top = df.iloc[o]
        vals, counts = np.unique(
            top["n_label"].to_numpy(np.int64), return_counts=True
        )
        winner = int(vals[np.lexsort((vals, -counts))[0]])
        return pd.DataFrame(
            {
                "vec_id": [int(df["vec_id"].iloc[0])],
                "label": [int(df["label"].iloc[0])],
                "label_spread": [winner],
            }
        )

    _schema = pa.schema(
        [("vec_id", pa.int64()), ("label", pa.int64()),
         ("label_spread", pa.int64())]
    )
    return partials_ds.groupby("vec_id").map_groups(
        vote, batch_format="pandas"
    ).map_batches(
        lambda t: pa.table(
            {
                "vec_id": pc.cast(t["vec_id"], pa.int64()),
                "label": pc.cast(t["label"], pa.int64()),
                "label_spread": pc.cast(t["label_spread"], pa.int64()),
            },
            schema=_schema,
        ),
        batch_format="pyarrow",
    )


def label_spread_grid(sf_dir: str, k: int = 3, block_rows: int = 4096):
    """EXACT distributed kNN label spreading with NO driver-side
    corpus state — the grid-partitioned kNN join (the
    :func:`embedding_neardup` block-pair scheme applied to top-k
    instead of threshold pairs): vectors land in ``B = ceil(n /
    block_rows)`` blocks by ``vec_id % B``; each vector is replicated
    to the B groups ``(min(b, j), max(b, j))`` so every pair of blocks
    meets in exactly ONE group; the per-group kernel emits a <= k
    partial top-k per query over the opposite block only (the diagonal
    group covers within-block pairs, with the brute tier's self
    sentinel), so every (query, candidate) pair is scored exactly
    once; a group-by on vec_id merges the partials and votes under
    the identical quantized deterministic order. ALWAYS equal to the
    brute tier — the driver gate's exact-kNN SQL oracle stays green by
    construction.

    Scale shape: replication factor is B per vector and total compute
    is the inherent O(n^2/2) of exact kNN, but it is fully partitioned
    (per-task memory ~ 2*block_rows vectors) and the driver holds only
    the row count. At web scale prefer :func:`label_spread_ivf`
    (bucketed, approximate, sub-quadratic)."""
    import ray.data as rd

    emb = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"],
    )
    partials = _grid_knn_partials(emb, k, block_rows)
    return _knn_vote_merge(partials, k)


def _grid_knn_partials(emb, k: int, block_rows: int,
                       mask_same_label: bool = False):
    """The grid block-pair kNN partial stage shared by
    :func:`label_spread_grid` and :func:`hard_negatives`: every pair of
    blocks meets in exactly one group, per-group <=k partials under the
    deterministic quantized order (see :func:`_knn_partial_frame`)."""
    import math

    import numpy as np
    import pandas as pd

    n = emb.count()
    B = max(1, math.ceil(n / block_rows))

    def explode(t: pa.Table) -> pa.Table:
        ids = np.asarray(t["vec_id"].to_pylist(), dtype=np.int64)
        labels = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        blocks = ids % B
        grp_col, idx_col = [], []
        for row, b in enumerate(blocks):
            for j in range(B):
                lo, hi = (b, j) if b <= j else (j, b)
                grp_col.append(int(lo) * B + int(hi))
                idx_col.append(row)
        take = pa.array(idx_col, pa.int64())
        return pa.table(
            {
                "grp": pa.array(grp_col, pa.int64()),
                "vec_id": pa.array(ids[idx_col], pa.int64()),
                "block": pa.array(blocks[idx_col].astype(np.int32),
                                  pa.int32()),
                "label": pa.array(labels[idx_col], pa.int64()),
                "embedding": t["embedding"].take(take),
            }
        )

    _p_cols = ["vec_id", "label", "n_id", "n_label", "simq"]

    def per_group(df: pd.DataFrame) -> pd.DataFrame:
        grp = int(df["grp"].iloc[0])
        gi, gj = grp // B, grp % B
        ids = df["vec_id"].to_numpy(np.int64)
        labels = df["label"].to_numpy(np.int64)
        mat = np.array(df["embedding"].to_list(), np.float64)
        if gi == gj:
            return _knn_partial_frame(ids, labels, mat,
                                      ids, labels, mat, k,
                                      mask_same_label=mask_same_label)
        blk = df["block"].to_numpy()
        mi, mj = blk == gi, blk == gj
        if not mi.any() or not mj.any():
            # one side of the cell is empty: no cross-block candidates
            return pd.DataFrame({c: [] for c in _p_cols}).astype(
                {c: np.int64 for c in _p_cols}
            )
        f1 = _knn_partial_frame(ids[mi], labels[mi], mat[mi],
                                ids[mj], labels[mj], mat[mj], k,
                                mask_same_label=mask_same_label)
        f2 = _knn_partial_frame(ids[mj], labels[mj], mat[mj],
                                ids[mi], labels[mi], mat[mi], k,
                                mask_same_label=mask_same_label)
        return pd.concat([f1, f2], ignore_index=True)

    return (
        emb.map_batches(explode, batch_format="pyarrow")
        .groupby("grp")
        .map_groups(per_group, batch_format="pandas")
    )


def hard_negatives(sf_dir: str, block_rows: int = 4096):
    """Contrastive hard-negative mining over the embedding table: for
    every vector, the MOST similar vector carrying a DIFFERENT label —
    the negative a contrastive/triplet trainer pairs it with. Exact,
    via the same grid block-pair kNN join as
    :func:`label_spread_grid` (every pair scored exactly once, no
    driver-side corpus state) with same-label pairs sentineled out of
    the partial top-1; ties on quantized similarity break to the
    smallest negative id, the twin's ROW_NUMBER order. Output
    (vec_id, label, neg_id, neg_label, sim_micro); vectors whose every
    other vector shares their label emit no row."""
    import numpy as np
    import pandas as pd

    import ray.data as rd

    emb = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"],
    )
    partials = _grid_knn_partials(emb, 1, block_rows,
                                  mask_same_label=True)

    def best(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["simq"] > -(1 << 62)]
        if len(df) == 0:
            return pd.DataFrame(
                {c: [] for c in ["vec_id", "label", "neg_id",
                                 "neg_label", "sim_micro"]}
            ).astype(np.int64)
        o = np.lexsort((df["n_id"].to_numpy(), -df["simq"].to_numpy()))[0]
        row = df.iloc[o]
        return pd.DataFrame(
            {
                "vec_id": [int(row["vec_id"])],
                "label": [int(row["label"])],
                "neg_id": [int(row["n_id"])],
                "neg_label": [int(row["n_label"])],
                "sim_micro": [int(row["simq"])],
            }
        )

    _schema = pa.schema(
        [("vec_id", pa.int64()), ("label", pa.int64()),
         ("neg_id", pa.int64()), ("neg_label", pa.int64()),
         ("sim_micro", pa.int64())]
    )

    def to_arrow(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if t.num_columns == 0 or len(t) == 0:
            return _schema.empty_table()
        return pa.table(
            {f.name: pc.cast(t[f.name], f.type) for f in _schema},
            schema=_schema,
        )

    return partials.groupby("vec_id").map_groups(
        best, batch_format="pandas"
    ).map_batches(to_arrow, batch_format="pyarrow")


def label_spread_ivf(sf_dir: str, k: int = 3, num_lists: int = 16,
                     nprobe: int = 8, train_rows: int = 4096):
    """IVF-bucketed kNN label spreading — the AT-SCALE tier of
    :func:`label_spread` with the IDENTICAL quantized vote tail but NO
    driver-side corpus materialization: the only driver state is the
    ``num_lists`` x D centroid matrix trained on a bounded sample
    (:meth:`IVFIndex.train`). Neighbor candidates come from the
    ``ivf_topk`` bucket scheme: every vector lives in exactly ONE list
    (argmax centroid) and probes its ``nprobe`` nearest lists, so the
    per-list ``map_groups`` computes the bipartite cosine block
    (probes x members) vectorized, emits a <=k partial top-k per
    (query, list), and a second group-by on vec_id merges the partials
    under the same deterministic order as the brute tier (similarity
    quantized to integer micro-units; simq desc, neighbor id asc) and
    takes the same majority vote (count desc, label asc). A list holds
    each neighbor exactly once, so the cross-list merge of per-list
    top-k is the exact top-k over the probed candidate set.

    APPROXIMATE: exact only when every vector's true top-k lies within
    its nprobe probe lists (real for clustered web embeddings, not for
    isotropic noise) — pinned equal to the brute tier on a
    cluster-separated fixture (tests/test_r5_fixes.py). The driver
    row for the exact-kNN SQL oracle rides :func:`label_spread_grid`
    (exact by construction); this tier is the sub-quadratic at-scale
    alternative and carries a rows-only driver row.

    Scale shape: data volume is (1 + nprobe) x corpus for the probe
    replication, one hash shuffle on ivf_list (bounded list count —
    size num_lists ~ sqrt(N) to balance), one on vec_id over <=
    nprobe*k-row partials; no stage holds more than a list's members.
    """
    import numpy as np
    import pandas as pd

    import ray.data as rd

    emb = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"],
    )
    index = IVFIndex.train(emb, num_lists=num_lists,
                           train_rows=train_rows)
    cent = index.centroids  # (C, D) float32, tiny — ships in closures
    nprobe = min(nprobe, len(cent))

    def expand(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "ivf_list": pa.array([], pa.int32()),
                    "side": pa.array([], pa.int8()),
                    "vec_id": pa.array([], pa.int64()),
                    "embedding": pa.array([], pa.list_(pa.float32())),
                    "label": pa.array([], pa.int64()),
                }
            )
        ids, mat = _batch_matrix(t)
        matn = mat / (np.linalg.norm(mat, axis=1, keepdims=True) + 1e-30)
        order = np.argsort(
            -(matn.astype(np.float32) @ cent.T), axis=1
        )[:, :nprobe].astype(np.int32)
        labels = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        embs = t["embedding"].to_pylist()
        n = len(ids)
        # member row (side 0, own argmax list) + nprobe probe rows
        lists = np.concatenate(
            [order[:, 0]] + [order[:, j] for j in range(nprobe)]
        )
        side = np.concatenate(
            [np.zeros(n, np.int8), np.ones(n * nprobe, np.int8)]
        )
        rep_ids = np.tile(ids, nprobe + 1)
        rep_labels = np.tile(labels, nprobe + 1)
        rep_embs = embs * (nprobe + 1)
        return pa.table(
            {
                "ivf_list": pa.array(lists, pa.int32()),
                "side": pa.array(side, pa.int8()),
                "vec_id": pa.array(rep_ids, pa.int64()),
                "embedding": pa.array(rep_embs, pa.list_(pa.float32())),
                "label": pa.array(rep_labels, pa.int64()),
            }
        )

    def per_list(df: pd.DataFrame) -> pd.DataFrame:
        mem = df[df["side"] == 0]
        pro = df[df["side"] == 1]
        if len(mem) == 0 or len(pro) == 0:
            cols = ["vec_id", "label", "n_id", "n_label", "simq"]
            return pd.DataFrame({c: [] for c in cols}).astype(
                {c: np.int64 for c in cols}
            )
        # shared deterministic kernel — the grid tier calls the SAME
        # helper, so any change to the quantized order applies to both
        return _knn_partial_frame(
            pro["vec_id"].to_numpy(np.int64),
            pro["label"].to_numpy(np.int64),
            np.array(pro["embedding"].to_list(), np.float64),
            mem["vec_id"].to_numpy(np.int64),
            mem["label"].to_numpy(np.int64),
            np.array(mem["embedding"].to_list(), np.float64),
            k,
        )

    partials = (
        emb.map_batches(expand, batch_format="pyarrow")
        .groupby("ivf_list")
        .map_groups(per_list, batch_format="pandas")
    )
    return _knn_vote_merge(partials, k)


def single_link_ladder(sf_dir: str,
                       thresholds=(0.4, 0.6, 0.8),
                       driver_cc_max_pairs: int = 2_000_000,
                       pair_source: str = "exact",
                       num_lists: int = 16):
    """Single-link agglomerative clustering cut census — the dendrogram
    ladder a dedup tuner reads: at each cosine threshold t, clusters
    are the connected components of the >=t pair graph (exact
    single-link HAC cuts; raising t can only split clusters). One row
    per threshold: (threshold_ppm, n_pairs, n_clusters,
    n_clustered_vecs) — clusters have >= 2 members by construction.
    Thresholds compare against the 6-dp-ROUNDED similarity on both
    engine and twin, so the cut is engine-independent.

    Scale shape: the candidate pair graph is built ONCE at the lowest
    threshold; each rung is a vectorized re-filter of that pair set
    plus the tiered component labeling (driver union-find under
    ``driver_cc_max_pairs``, distributed min-label CC above — the
    ``neardup_keep_one`` contract). ``pair_source`` picks the tier
    (the ``neardup_keep_one(pair_source=)`` convention):
    ``"exact"`` = the grid pair join (:func:`embedding_neardup`) —
    exact but near-quadratic pair volume when the base threshold is
    low over cluster-dense web-scale embeddings; ``"ivf"`` = the
    IVF-bucketed join (:func:`embedding_neardup_ivf`) — pairs sought
    only within a coarse k-means list, the at-scale default (equal to
    exact whenever no >=min(thresholds) pair crosses a list boundary;
    tier equality pytest-pinned on a cluster-separated fixture)."""
    import numpy as np

    import ray.data as rd

    emb = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    if pair_source == "exact":
        pairs = embedding_neardup(
            emb, threshold=min(thresholds)
        ).materialize()
    elif pair_source == "ivf":
        pairs = embedding_neardup_ivf(
            emb, threshold=min(thresholds), num_lists=num_lists
        ).materialize()
    else:
        raise ValueError(f"unknown pair_source: {pair_source!r}")
    pdf = None
    if pairs.count() <= driver_cc_max_pairs:
        pdf = pairs.to_pandas()
    rows = []
    for t in thresholds:
        if pdf is not None:
            sub = pdf[pdf["sim"] >= t]
            parent: dict = {}

            def find(x):
                while parent.setdefault(x, x) != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for a, b in zip(sub["vec_a"], sub["vec_b"]):
                ra, rb = find(int(a)), find(int(b))
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
            comps = {}
            for m in parent:
                comps.setdefault(find(m), []).append(m)
            n_clusters = len(comps)
            n_clustered = sum(len(v) for v in comps.values())
            n_pairs = len(sub)
        else:
            from ray.data.aggregate import Count

            from autoner_ray.stages.graph import (
                connected_components_distributed,
            )

            _e_schema = pa.schema(
                [("subj", pa.int64()), ("obj", pa.int64())]
            )

            def to_edges(tb: pa.Table, _t=t) -> pa.Table:
                if tb.num_columns == 0 or len(tb) == 0:
                    return _e_schema.empty_table()
                import pyarrow.compute as pc

                keep = pc.greater_equal(tb["sim"], _t)
                return pa.table(
                    {
                        "subj": tb["vec_a"].filter(keep),
                        "obj": tb["vec_b"].filter(keep),
                    },
                    schema=_e_schema,
                )

            sub_ds = pairs.map_batches(
                to_edges, batch_format="pyarrow"
            ).materialize()
            n_pairs = sub_ds.count()
            labels = connected_components_distributed(
                sub_ds, as_dataset=True
            )
            sizes = labels.groupby("label").aggregate(
                Count(alias_name="sz")
            ).materialize()
            n_clusters = sizes.count()
            n_clustered = labels.count()
        rows.append(
            (int(round(t * 1_000_000)), int(n_pairs),
             int(n_clusters), int(n_clustered))
        )
    return pa.table(
        {
            "threshold_ppm": pa.array([r[0] for r in rows], pa.int64()),
            "n_pairs": pa.array([r[1] for r in rows], pa.int64()),
            "n_clusters": pa.array([r[2] for r in rows], pa.int64()),
            "n_clustered_vecs": pa.array(
                [r[3] for r in rows], pa.int64()
            ),
        }
    )


def psi_drift(sf_dir: str, n_bins: int = 8):
    """Population-stability-index drift monitor over embedding norms —
    the MLOps check that an embedding service hasn't shifted: even
    vec_ids are the baseline population, odd the current one; norms
    bin into ``n_bins`` equal-width buckets over the global range and
    PSI = Σ (p−q)·ln(p/q) with add-one smoothing
    (p_i = (a_i+1)/(A+n_bins)) so empty bins stay finite. Each bin's
    term is one float expression evaluated in the twin's exact op
    order and floored to micro units before the (fixed-order, tiny)
    sum. Output (bin, n_base, n_cur, psi_term_micro) per bin plus the
    total as bin = -1.

    Scale shape: one scalar min/max pass, then stateless vectorized
    bin counts into the bounded combine; the PSI fold is driver
    arithmetic over n_bins rows."""
    import math

    import numpy as np

    import ray.data as rd

    from autoner_ray.stages.combine import bounded_key_sum

    emb = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).materialize()

    def norms_batch(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "nrm": pa.array([], pa.float64()),
                }
            )
        m = np.array(t["embedding"].to_pylist(), np.float64)
        return pa.table(
            {
                "vec_id": t["vec_id"],
                "nrm": pa.array(np.sqrt((m * m).sum(axis=1)),
                                pa.float64()),
            }
        )

    norms = emb.map_batches(
        norms_batch, batch_format="pyarrow"
    ).materialize()
    lo, hi = norms.min("nrm"), norms.max("nrm")
    # degenerate range (all norms equal): x - lo is 0 everywhere, so
    # any nonzero denominator bins every row at 0 — guard the division
    # (SQL twin carries the same guard)
    rng = (hi - lo) or 1.0

    _b_schema = pa.schema(
        [("bin", pa.int64()), ("n_base", pa.int64()),
         ("n_cur", pa.int64())]
    )

    def bin_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return _b_schema.empty_table()
        import pandas as pd

        x = t["nrm"].to_numpy()
        b = np.minimum(
            np.floor((x - lo) * n_bins / rng).astype(np.int64),
            n_bins - 1,
        )
        ids = t["vec_id"].to_numpy(zero_copy_only=False)
        base = (ids % 2 == 0).astype(np.int64)
        df = pd.DataFrame(
            {"bin": b, "n_base": base, "n_cur": 1 - base}
        )
        g = df.groupby("bin", as_index=False).sum()
        # drop the pandas metadata: Ray Data cannot hash it with the schema
        return pa.Table.from_pandas(
            g, schema=_b_schema, preserve_index=False
        ).replace_schema_metadata(None)

    bins = bounded_key_sum(
        norms.map_batches(bin_partial, batch_format="pyarrow"),
        keys=["bin"], sum_cols=["n_base", "n_cur"],
    ).to_pandas().set_index("bin")
    A = int(bins["n_base"].sum())
    B = int(bins["n_cur"].sum())
    rows = []
    total = 0
    for i in range(n_bins):
        a = int(bins["n_base"].get(i, 0))
        b = int(bins["n_cur"].get(i, 0))
        p = (a + 1) / (A + n_bins)
        q = (b + 1) / (B + n_bins)
        term = int(math.floor((p - q) * math.log(p / q) * 1e6 + 0.5))
        total += term
        rows.append((i, a, b, term))
    rows.append((-1, A, B, total))
    return pa.table(
        {
            "bin": pa.array([r[0] for r in rows], pa.int64()),
            "n_base": pa.array([r[1] for r in rows], pa.int64()),
            "n_cur": pa.array([r[2] for r in rows], pa.int64()),
            "psi_term_micro": pa.array(
                [r[3] for r in rows], pa.int64()
            ),
        }
    )
