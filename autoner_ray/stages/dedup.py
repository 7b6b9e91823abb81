"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard.

Scale shapes (ray_guide aggregation/dedup patterns):
- exact: md5 content hash per batch (vectorizable) -> keyed combine on
  the hash keeping min(doc_id). The shuffle moves one short row per doc,
  not the text.
- MinHash+LSH near-dup: per batch compute K minhashes over token shingles,
  split into B bands; explode to (band, band_hash, doc_id) rows; one
  exchange on the band hash collects candidate buckets; pairs from
  buckets are verified with exact shingle Jaccard. Buckets are capped
  (``max_bucket``) so a degenerate hot bucket cannot produce O(n²) pairs —
  the cap is logged, not silent.
- SimHash: 64-bit signature from token-hash bit votes; near-dups are
  pairs at Hamming distance <= k within LSH-style bit-band buckets.

All hashing is content-derived (md5) — never Python's salted ``hash``.
"""

from __future__ import annotations

import hashlib


import numpy as np
import pyarrow as pa

from autoner_ray.stages.tokenize import sentence_token_stream

# -- exact -------------------------------------------------------------------


def exact_dedup(docs_ds):
    """documents -> (text_md5, doc_id): first (min doc_id) row per content."""
    from autoner_ray.stages.analysis import md5_batch
    from autoner_ray.stages.combine import keyed_combine

    return keyed_combine(
        docs_ds.map_batches(md5_batch, batch_format="pyarrow"),
        pa.schema([("text_md5", pa.string()), ("doc_id", pa.int64())]),
        [("doc_id", "min")],
    )


# -- shingles + minhash ------------------------------------------------------


def _shingles(text: str, k: int = 3) -> set[bytes]:
    toks = sentence_token_stream(text)
    if len(toks) < k:
        return {" ".join(toks).encode()} if toks else set()
    return {" ".join(toks[i : i + k]).encode() for i in range(len(toks) - k + 1)}


def _shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    from autoner_ray.functions.hashing import md5_64_array

    sh = _shingles(text, k)
    if not sh:
        return np.zeros(1, dtype=np.uint64)
    # byteswap(): md5_64_array holds the BIG-endian digest prefix; the
    # original np.frombuffer read those same 8 bytes little-endian, and
    # the sketch outputs are pinned — swapping restores bit-identity.
    return md5_64_array(sorted(sh)).byteswap()


_MERSENNE = np.uint64((1 << 61) - 1)


def _minhash_params(num_hashes: int, seed: int = 7):
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=num_hashes, dtype=np.uint64)
    b = rng.integers(0, _MERSENNE, size=num_hashes, dtype=np.uint64)
    return a, b


_PARAMS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _cached_minhash_params(num_hashes: int):
    """Per-worker-process cache (deterministic, so every worker agrees)."""
    if num_hashes not in _PARAMS_CACHE:
        _PARAMS_CACHE[num_hashes] = _minhash_params(num_hashes)
    return _PARAMS_CACHE[num_hashes]


def minhash_signature(text: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """K-row signature: min over shingles of (a·h + b) mod p (vectorized)."""
    h = _shingle_hashes(text)
    # (K, S) product in uint64 with modular wrap is fine for min-comparison
    # determinism as long as both sides compute identically (same dtype).
    prod = (np.outer(a, h) + b[:, None]) % _MERSENNE
    return prod.min(axis=1)


def _band_rows(text: str, a, b, bands: int, rows_per_band: int):
    """(band_id, band_hash) pairs for one doc — the banding kernel of
    :func:`minhash_lsh_candidates`. ``band_hash`` is 16 hex digits, a
    64-bit hash of the band."""
    sig = minhash_signature(text, a, b)
    out = []
    for bi in range(bands):
        chunk = sig[bi * rows_per_band : (bi + 1) * rows_per_band]
        out.append((bi, hashlib.md5(chunk.tobytes()).hexdigest()[:16]))
    return out


def minhash_lsh_candidates(
    docs_ds,
    num_hashes: int = 64,
    bands: int = 16,
    jaccard_threshold: float = 0.6,
    max_bucket: int = 64,
):
    """Near-duplicate candidate pairs (doc_a < doc_b, n_bands) via
    MinHash LSH.

    Physical shape (2 exchanges total):
    1. ONE exchange sorts on the bucket hash, so a bucket never splits
       across blocks; inside each block a vectorized acero self-join
       pairs bucket members —
       and the HOT-BUCKET CAP is applied there exactly (a degenerate
       bucket with k members would emit O(k²) rows; buckets over
       ``max_bucket`` are dropped and logged — near-identical floods
       are the exact-dedup stage's job, not LSH's).
    2. The keyed combine (hash on doc_a) sums each pair's per-block
       band agreements: pairs that agree in several bands become one
       row, and the sum is the LSH agreement strength.
    """
    import pandas as pd

    from autoner_ray.stages.combine import exchange, keyed_combine

    rows_per_band = num_hashes // bands
    assert rows_per_band * bands == num_hashes

    # TASK pool, not an actor pool: the minhash params are deterministic
    # and cheap (seeded rng), so a module-level cache per worker replaces
    # actor state. A FIXED actor pool here can claim every CPU on a small
    # cluster and starve downstream shuffle actors in the same streaming
    # topology (observed deadlock at num_cpus=4).
    def sign(batch: pa.Table) -> pa.Table:
        a, b = _cached_minhash_params(num_hashes)
        doc_ids, band_ids, band_hashes = [], [], []
        for did, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            for bi, bh in _band_rows(text or "", a, b, bands, rows_per_band):
                doc_ids.append(did)
                band_ids.append(bi)
                band_hashes.append(bh)
        # content-derived sort key: bucket members always meet
        bh64 = np.array([int(h, 16) for h in band_hashes], np.uint64)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "band": pa.array(band_ids, pa.int32()),
                "band_hash": pa.array(band_hashes, pa.string()),
                "bh64": pa.array(bh64.view(np.int64)),
            }
        )

    pair_schema = pa.schema(
        [("doc_a", pa.int64()), ("doc_b", pa.int64()),
         ("n_bands", pa.int64())]
    )

    def pairs_in_partition(df: pd.DataFrame) -> pd.DataFrame:
        if max_bucket is not None:
            sizes = df.groupby(["band", "band_hash"])["doc_id"].transform(
                "size"
            )
            hot = sizes > max_bucket
            if bool(hot.any()):
                import logging

                logging.getLogger(__name__).warning(
                    "minhash LSH: dropping %d hot buckets "
                    "(> %d members)",
                    df[hot].groupby(["band", "band_hash"]).ngroups,
                    max_bucket,
                )
                df = df[~hot]
        lt = pa.table(
            {
                "band": pa.array(df["band"], pa.int32()),
                "band_hash": pa.array(df["band_hash"], pa.string()),
                "doc_a": pa.array(df["doc_id"], pa.int64()),
            }
        )
        rt = lt.rename_columns(["band", "band_hash", "doc_b"])
        j = lt.join(rt, keys=["band", "band_hash"], join_type="inner")
        import pyarrow.compute as pc

        j = j.filter(pc.less(j["doc_a"], j["doc_b"]))
        # partial per-block band-agreement counts
        return (
            pd.DataFrame(
                {
                    "doc_a": j["doc_a"].to_numpy(),
                    "doc_b": j["doc_b"].to_numpy(),
                }
            )
            .groupby(["doc_a", "doc_b"], as_index=False)
            .agg(n_bands=("doc_a", "size"))
        )

    return keyed_combine(
        exchange(
            docs_ds.map_batches(sign, batch_format="pyarrow"), "bh64",
            pairs_in_partition, pair_schema, batch_format="pandas",
        ),
        pair_schema, [("n_bands", "sum")], part_on=("doc_a",),
    )


def verify_jaccard(cand_ds, docs_ds, jaccard_threshold: float = 0.6):
    """Exact-Jaccard verification of LSH candidate pairs.

    Scale shape (tiered; the corpus is NEVER materialized on the
    driver):
    1. semi-join reduction — broadcast the candidate doc-id set and
       pre-filter ``documents`` to just the docs that appear in a pair;
    2. if the surviving doc set is tiny (<= 20k), broadcast those texts
       and verify in a stateless map (zero joins);
    3. otherwise TWO sparse-key-safe hash joins (on doc_a, then doc_b)
       shuffle only candidate rows + matching texts.
    Keeps pairs with shingle Jaccard >= threshold, rounded 6 dp.
    """
    import ray.data as rd

    _out_schema = pa.schema(
        [
            ("doc_a", pa.int64()),
            ("doc_b", pa.int64()),
            ("jaccard", pa.float64()),
        ]
    )
    # Ray's hash join crashes when one side is entirely empty (its
    # partition builders produce schema-less tables), so the no-candidate
    # case short-circuits.
    n_cand = cand_ds.count()
    if n_cand == 0:
        return rd.from_arrow(_out_schema.empty_table())
    docs2 = docs_ds.select_columns(["doc_id", "text"])
    # SEMI-JOIN REDUCTION: only docs that appear in a candidate pair are
    # needed, and the candidate set is small by construction (LSH-
    # selective), so broadcast its doc-id set and pre-filter the corpus —
    # the joins then shuffle |candidate docs| texts, not |corpus|.
    # Bounded: above the cap, fall back to the full join (still correct).
    if n_cand <= 2_500_000:
        import pyarrow.compute as pc
        import ray

        from autoner_ray.stages.joins import id_filter

        ids = pc.unique(pa.chunked_array(
            [
                chunk
                for b in cand_ds.select_columns(["doc_a", "doc_b"])
                .iter_batches(batch_size=65536, batch_format="pyarrow")
                for c in ("doc_a", "doc_b")
                for chunk in b[c].chunks
            ],
            pa.int64(),
        ))
        docs2 = id_filter(docs2, "doc_id", ids)

        if len(ids) <= 20_000:
            # SMALL-SIDE BROADCAST tier: the candidate texts fit the
            # object store comfortably, so skip the two hash joins and
            # verify against a broadcast {doc_id: text} of candidate
            # docs ONLY (bounded — never the corpus; the join path below
            # handles everything larger).
            texts: dict[int, str] = {}
            for b in docs2.iter_batches(
                batch_size=4096, batch_format="pyarrow"
            ):
                texts.update(
                    zip(b["doc_id"].to_pylist(), b["text"].to_pylist())
                )
            texts_ref = ray.put(texts)

            def verify_broadcast(batch: pa.Table) -> pa.Table:
                lut = ray.get(texts_ref)
                out_a, out_b, out_j = [], [], []
                for a_id, b_id in zip(
                    batch["doc_a"].to_pylist(), batch["doc_b"].to_pylist()
                ):
                    sa = _shingles(lut.get(a_id, "") or "")
                    sb = _shingles(lut.get(b_id, "") or "")
                    union = len(sa | sb)
                    j = len(sa & sb) / union if union else 0.0
                    if j >= jaccard_threshold:
                        out_a.append(a_id)
                        out_b.append(b_id)
                        out_j.append(round(j, 6))
                return pa.table(
                    {
                        "doc_a": pa.array(out_a, pa.int64()),
                        "doc_b": pa.array(out_b, pa.int64()),
                        "jaccard": pa.array(out_j, pa.float64()),
                    }
                )

            return cand_ds.select_columns(["doc_a", "doc_b"]).map_batches(
                verify_broadcast, batch_format="pyarrow"
            )
    a_side = docs2.map_batches(
        lambda t: pa.table({"doc_a": t["doc_id"], "text_a": t["text"]}),
        batch_format="pyarrow",
    )
    b_side = docs2.map_batches(
        lambda t: pa.table({"doc_b": t["doc_id"], "text_b": t["text"]}),
        batch_format="pyarrow",
    )
    from autoner_ray.stages.joins import cogroup_join

    pairs = cand_ds.select_columns(["doc_a", "doc_b"])
    with_texts = cogroup_join(
        cogroup_join(pairs, a_side, on=("doc_a",)),
        b_side,
        on=("doc_b",),
    )

    def verify(batch: pa.Table) -> pa.Table:
        out_a, out_b, out_j = [], [], []
        for a_id, b_id, ta, tb in zip(
            batch["doc_a"].to_pylist(),
            batch["doc_b"].to_pylist(),
            batch["text_a"].to_pylist(),
            batch["text_b"].to_pylist(),
        ):
            sa = _shingles(ta or "")
            sb = _shingles(tb or "")
            union = len(sa | sb)
            j = len(sa & sb) / union if union else 0.0
            if j >= jaccard_threshold:
                out_a.append(a_id)
                out_b.append(b_id)
                out_j.append(round(j, 6))
        return pa.table(
            {
                "doc_a": pa.array(out_a, pa.int64()),
                "doc_b": pa.array(out_b, pa.int64()),
                "jaccard": pa.array(out_j, pa.float64()),
            }
        )

    return with_texts.map_batches(verify, batch_format="pyarrow")


def ngram_jaccard_pairs(docs_ds, threshold: float = 0.6, **lsh_kwargs):
    """End-to-end near-dup: LSH candidates -> exact-Jaccard verification.

    The candidate pair set is materialized between the two phases — it
    is small by construction (LSH-selective), and the barrier keeps the
    verify phase's two text joins in their own streaming topology (see
    the aggregator-CPU note in :func:`minhash_lsh_candidates`)."""
    cand = minhash_lsh_candidates(
        docs_ds, jaccard_threshold=threshold, **lsh_kwargs
    ).materialize()
    return verify_jaccard(cand, docs_ds, threshold)


# -- simhash -----------------------------------------------------------------


def simhash64(text: str) -> int:
    from autoner_ray.functions.hashing import md5_64_array

    toks = sentence_token_stream(text)
    if not toks:
        return 0
    hs = md5_64_array(toks)  # memoized md5 per distinct token
    shifts = np.arange(64, dtype=np.uint64)
    # one (n_tokens, 64) unpack instead of a 64-wide numpy op per token
    bits = (hs[:, None] >> shifts[None, :]) & np.uint64(1)
    votes = (2 * bits.astype(np.int64) - 1).sum(axis=0)
    bits_out = (votes > 0).astype(np.uint64)
    return int((bits_out << shifts).sum(dtype=np.uint64))


def simhash_batch(batch: pa.Table) -> pa.Table:
    hs = [simhash64(t or "") for t in batch["text"].to_pylist()]
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "simhash": pa.array([f"{h:016x}" for h in hs], pa.string()),
        }
    )


def simhash_neardup_pairs(docs_ds, max_hamming: int = 3, bands: int = 4):
    """SimHash near-duplicate pairs: 64-bit signatures split into
    ``bands`` bit-bands (pigeonhole: any pair within ``max_hamming`` <
    ``bands`` bits shares at least one exact band). Same 2-exchange
    shape as MinHash LSH: one exchange on the bucket's content hash
    co-locates each (band, band_val) bucket, a vectorized in-block
    self-join
    pairs members and filters exact Hamming distance, and the keyed
    combine dedups pairs that agree on several bands. Emits
    (doc_a, doc_b, hamming)."""
    import numpy as np
    import pandas as pd

    from autoner_ray.stages.combine import exchange, keyed_combine

    assert max_hamming < bands, "pigeonhole needs max_hamming < bands"
    band_bits = 64 // bands

    def sign(batch: pa.Table) -> pa.Table:
        doc_ids, band_ids, band_vals, sigs, bh64 = [], [], [], [], []
        for did, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            h = simhash64(text or "")
            for bi in range(bands):
                bv = (h >> (bi * band_bits)) & ((1 << band_bits) - 1)
                doc_ids.append(did)
                band_ids.append(bi)
                band_vals.append(bv)
                sigs.append(h - (1 << 63))  # store as signed int64
                bh64.append(
                    int.from_bytes(
                        hashlib.md5(f"{bi}:{bv}".encode()).digest()[:8],
                        "big", signed=True,
                    )
                )
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "band": pa.array(band_ids, pa.int32()),
                "band_val": pa.array(band_vals, pa.int64()),
                "sig": pa.array(sigs, pa.int64()),
                "bh64": pa.array(bh64, pa.int64()),
            }
        )

    pair_schema = pa.schema(
        [("doc_a", pa.int64()), ("doc_b", pa.int64()),
         ("hamming", pa.int64())]
    )

    def pairs_in_partition(df: pd.DataFrame) -> pd.DataFrame:
        lt = pa.table(
            {
                "band": pa.array(df["band"], pa.int32()),
                "band_val": pa.array(df["band_val"], pa.int64()),
                "doc_a": pa.array(df["doc_id"], pa.int64()),
                "sig_a": pa.array(df["sig"], pa.int64()),
            }
        )
        rt = lt.rename_columns(["band", "band_val", "doc_b", "sig_b"])
        import pyarrow.compute as pc

        j = lt.join(rt, keys=["band", "band_val"], join_type="inner")
        j = j.filter(pc.less(j["doc_a"], j["doc_b"]))
        a = j["sig_a"].to_numpy().astype(np.int64).view(np.uint64)
        b = j["sig_b"].to_numpy().astype(np.int64).view(np.uint64)
        ham = np.bitwise_count(np.bitwise_xor(a, b)) if hasattr(
            np, "bitwise_count"
        ) else np.array(
            [bin(int(x)).count("1") for x in np.bitwise_xor(a, b)],
            dtype=np.int64,
        )
        keep = np.asarray(ham) <= max_hamming
        return pd.DataFrame(
            {
                "doc_a": j["doc_a"].to_numpy()[keep],
                "doc_b": j["doc_b"].to_numpy()[keep],
                "hamming": np.asarray(ham)[keep].astype(np.int64),
            }
        )

    # distinct pairs: a pair can agree on several bands, possibly in
    # different bucket blocks; hamming is pair-determined, so any
    # re-associative pick (min) keeps it
    return keyed_combine(
        exchange(
            docs_ds.map_batches(sign, batch_format="pyarrow"), "bh64",
            pairs_in_partition, pair_schema, batch_format="pandas",
        ),
        pair_schema, [("hamming", "min")], part_on=("doc_a",),
    )


# -- exact n-gram Jaccard (no sketching) --------------------------------------


def ngram_jaccard_exact_pairs(
    docs_ds,
    threshold: float = 0.6,
    k: int = 3,
    max_df: int | None = None,
    score_mode: str = "jaccard",
):
    """EXACT n-gram Jaccard near-duplicate pairs via a shared-shingle
    join — the deterministic twin of :func:`ngram_jaccard_pairs` (which
    goes through MinHash LSH candidates and is the at-scale default).

    Shape: one ``map_batches`` explodes each doc into DISTINCT k-token
    shingle hashes, every row carrying the doc's shingle-set size; one
    exchange sorted on the shingle hash co-locates each shingle, a
    vectorized in-block self-join counts common shingles per pair, and
    the keyed combine sums the partials per pair — each shingle lives in
    exactly ONE block, so block-local pair counts add up to the exact
    intersection and no text or set ever lands on the driver.
    Jaccard = common / (|A| + |B| - common), computed from exact integer
    counts in float64 (bit-stable vs a SQL oracle).

    Scale note: a promiscuous shingle shared by m docs emits m² join
    rows. Because the exchange is BY shingle, document frequency is
    exact within a block, so ``max_df`` prunes hot shingles (e.g.
    boilerplate) locally with no extra pass — at the cost of exactness
    for pairs whose overlap rides only on pruned shingles. Default None
    (fully exact) for oracle parity; set it for web-scale corpora.
    """
    import pandas as pd
    import pyarrow.compute as pc

    from autoner_ray.stages.combine import exchange, keyed_combine

    def explode(batch: pa.Table) -> pa.Table:
        doc_ids, shingles, sizes = [], [], []
        for did, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            sh = _shingles(text or "", k)
            if not sh:
                continue  # shingle-less docs cannot pair (matches SQL)
            from autoner_ray.functions.hashing import md5_64_array

            hs = md5_64_array(sorted(sh))
            n = len(hs)
            doc_ids.extend([did] * n)
            # signed view for Arrow int64; the exchange sorts on it
            shingles.extend(hs.view(np.int64).tolist())
            sizes.extend([n] * n)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "shingle": pa.array(shingles, pa.int64()),
                "size": pa.array(sizes, pa.int64()),
            }
        )

    partial_schema = pa.schema(
        [("doc_a", pa.int64()), ("doc_b", pa.int64()),
         ("common", pa.int64()), ("size_a", pa.int64()),
         ("size_b", pa.int64())]
    )

    def pairs_in_partition(df: pd.DataFrame) -> pd.DataFrame:
        if max_df is not None:
            # the exchange is by shingle -> local df IS global df
            df = df[df.groupby("shingle")["shingle"].transform("size") <= max_df]
        lt = pa.table(
            {
                "shingle": pa.array(df["shingle"], pa.int64()),
                "doc_a": pa.array(df["doc_id"], pa.int64()),
                "size_a": pa.array(df["size"], pa.int64()),
            }
        )
        rt = lt.rename_columns(["shingle", "doc_b", "size_b"])
        j = lt.join(rt, keys=["shingle"], join_type="inner")
        j = j.filter(pc.less(j["doc_a"], j["doc_b"]))
        if j.num_rows == 0:
            return partial_schema.empty_table()
        g = (
            j.select(["doc_a", "doc_b", "size_a", "size_b"])
            .to_pandas()
            .groupby(["doc_a", "doc_b"], as_index=False)
            .agg(common=("size_a", "size"), size_a=("size_a", "first"),
                 size_b=("size_b", "first"))
        )
        return g[["doc_a", "doc_b", "common", "size_a", "size_b"]]

    def score(t: pa.Table) -> pa.Table:
        c = t["common"].to_numpy().astype(np.float64)
        sa = t["size_a"].to_numpy().astype(np.float64)
        sb = t["size_b"].to_numpy().astype(np.float64)
        if score_mode == "containment":
            # symmetric max-containment c/min(|A|,|B|): 1.0 whenever one
            # doc's shingle set is a subset of the other's — the
            # quote/boilerplate-inclusion detector Jaccard misses when
            # the containing doc is much larger
            scr = c / np.minimum(sa, sb)
            col = "containment"
        else:
            scr = c / (sa + sb - c)
            col = "jaccard"
        keep = pa.array(scr >= threshold)
        return pa.table(
            {
                "doc_a": t["doc_a"].filter(keep),
                "doc_b": t["doc_b"].filter(keep),
                col: pa.array(scr).filter(keep),
            }
        )

    # sizes are per doc, so min keeps them
    return keyed_combine(
        exchange(
            docs_ds.map_batches(explode, batch_format="pyarrow"), "shingle",
            pairs_in_partition, partial_schema, batch_format="pandas",
        ),
        partial_schema,
        [("common", "sum"), ("size_a", "min"), ("size_b", "min")],
        part_on=("doc_a",),
    ).map_batches(score, batch_format="pyarrow")


def _neardup_labels(docs_ds, threshold: float, k: int, pair_source: str):
    """``(src, label)`` int64 component labels of the near-dup pair
    graph (``graph.component_labels``): ``pair_source="exact"`` pairs
    come from the deterministic shared-shingle join (oracle-checkable),
    ``"lsh"`` from MinHash-LSH candidates + exact verification, the
    sub-quadratic at-scale tier (recall < 1 by design)."""
    from autoner_ray.stages.graph import component_labels

    if pair_source == "exact":
        pairs = ngram_jaccard_exact_pairs(docs_ds, threshold=threshold, k=k)
    elif pair_source == "lsh":
        pairs = ngram_jaccard_pairs(docs_ds, threshold=threshold)
    else:
        raise ValueError(f"unknown pair_source: {pair_source!r}")

    def to_edges(t: pa.Table) -> pa.Table:
        return pa.table({"subj": t["doc_a"], "obj": t["doc_b"]})

    # the cast types the empty table a pair-less corpus gives
    return component_labels(
        pairs.map_batches(to_edges, batch_format="pyarrow")
    ).cast(pa.schema([("src", pa.int64()), ("label", pa.int64())]))


def neardup_keep_one(
    docs_ds,
    threshold: float = 0.6,
    k: int = 3,
    pair_source: str = "exact",
):
    """End-to-end near-duplicate REMOVAL — the pipeline a training-data
    run actually executes (pairs alone are diagnostics): n-gram Jaccard
    pairs → component labels over the pair graph
    (:func:`_neardup_labels`, int64 nodes) → every cluster
    keeps its smallest ``doc_id``; docs in no pair survive untouched.

    Returns the surviving rows of ``docs_ds`` with all of their columns.

    Scale shape: the pair graph holds ONLY near-duplicate docs, so the
    label table is the duplicate fraction of the corpus, never the
    corpus; it comes to the driver, and the losers (``label != src``)
    ride a broadcast anti-filter (``joins.id_filter``) over the doc
    stream — no shuffle of the corpus.
    """
    import pyarrow.compute as pc

    from autoner_ray.stages.joins import id_filter

    labels = _neardup_labels(docs_ds, threshold, k, pair_source)
    losers = labels["src"].filter(
        pc.not_equal(labels["label"], labels["src"])
    )
    return id_filter(docs_ds, "doc_id", losers, anti=True)


def neardup_cluster_sizes(
    docs_ds,
    threshold: float = 0.6,
    k: int = 3,
    pair_source: str = "exact",
):
    """Near-duplicate CLUSTER SIZE histogram: (cluster_size,
    n_clusters) over the connected components of the near-dup pair
    graph — the dedup-report companion to ``neardup_keep_one`` (how
    much mass sits in big boilerplate clusters vs scattered pairs).

    Same component labels as ``neardup_keep_one``; cluster sizes are a
    value count of the labels and the histogram a value count of the
    sizes, both on the driver. Only docs that appear in a qualifying
    pair belong to a cluster (sizes >= 2 by construction)."""
    import pyarrow.compute as pc
    import ray.data as rd

    labels = _neardup_labels(docs_ds, threshold, k, pair_source)
    sizes = pc.value_counts(labels["label"]).field("counts")
    hist = pc.value_counts(sizes)
    return rd.from_arrow(
        pa.table(
            {
                "cluster_size": hist.field("values"),
                "n_clusters": hist.field("counts"),
            }
        ).sort_by("cluster_size")
    )


def dup_gram_coverage(docs_ds, n: int = 7):
    """Per-doc duplicated-n-gram coverage (RefinedWeb/Gopher-family
    CROSS-doc repetition signal): of a doc's DISTINCT n-token grams,
    how many occur in at least one OTHER doc — (doc_id, n_grams,
    n_dup, dup_ppm). Complements ``repetition_batch`` (within-doc) and
    ``crossdoc_dup_windows`` (corpus-level window list) with the
    per-doc quality-cut number.

    Shape: per-batch explode to DISTINCT (gram-hash128, doc_id) rows;
    ONE exchange on the gram hash, after which local df IS global df
    (each gram lives in exactly one block), flags dup grams; one
    doc-keyed sum combine rolls up per-doc counts. ppm via integer floor-div on
    both sides — no float in the hash."""
    import pandas as pd

    from autoner_ray.stages.combine import exchange, keyed_combine

    def explode(batch: pa.Table) -> pa.Table:
        his, los, ids = [], [], []
        from autoner_ray.stages.decontam import (
            _doc_grams,
            _gram_hash128,
        )

        for did, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            grams = _doc_grams(text or "", n)
            if not grams:
                continue
            hi, lo = _gram_hash128(grams)
            his.extend(hi.view(np.int64).tolist())
            los.extend(lo.view(np.int64).tolist())
            ids.extend([did] * len(grams))
        return pa.table(
            {
                "hi": pa.array(his, pa.int64()),
                "lo": pa.array(los, pa.int64()),
                "doc_id": pa.array(ids, pa.int64()),
            }
        )

    counts = pa.schema(
        [("doc_id", pa.int64()), ("n_grams", pa.int64()),
         ("n_dup", pa.int64())]
    )

    def flag_dups(df: pd.DataFrame) -> pd.DataFrame:
        # the exchange is by gram hash -> local df IS global df
        dup = df.groupby(["hi", "lo"])["doc_id"].transform("size") >= 2
        agg = (
            pd.DataFrame({"doc_id": df["doc_id"], "dup": dup.astype(np.int64)})
            .groupby("doc_id", sort=False)
            .agg(n_grams=("dup", "size"), n_dup=("dup", "sum"))
            .reset_index()
        )
        return agg

    per_doc = keyed_combine(
        exchange(
            docs_ds.map_batches(explode, batch_format="pyarrow"), "hi",
            flag_dups, counts, batch_format="pandas",
        ),
        counts, [("n_grams", "sum"), ("n_dup", "sum")],
    )

    def finish(t: pa.Table) -> pa.Table:
        g = t["n_grams"].to_numpy(zero_copy_only=False)
        d = t["n_dup"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_grams": t["n_grams"],
                "n_dup": t["n_dup"],
                "dup_ppm": pa.array(d * 1_000_000 // g, pa.int64()),
            }
        )

    return per_doc.map_batches(finish, batch_format="pyarrow")


def dup_gram_coverage_oracle_sql(n: int = 7) -> str:
    return f"""
        WITH toks AS (
            SELECT doc_id, string_split(text, ' ') AS w FROM documents
        ),
        grams AS (
            SELECT DISTINCT doc_id,
                   array_to_string(w[i:i+{n - 1}], ' ') AS g
            FROM toks,
                 unnest(generate_series(1, greatest(len(w) - {n - 1}, 0)))
                 AS t(i)
        ),
        df AS (SELECT g, COUNT(*) AS c FROM grams GROUP BY g)
        SELECT doc_id,
               CAST(COUNT(*) AS BIGINT) AS n_grams,
               CAST(SUM(CASE WHEN df.c >= 2 THEN 1 ELSE 0 END)
                    AS BIGINT) AS n_dup,
               CAST(SUM(CASE WHEN df.c >= 2 THEN 1 ELSE 0 END)
                    * 1000000 // COUNT(*) AS BIGINT) AS dup_ppm
        FROM grams JOIN df USING (g)
        GROUP BY doc_id
    """


# -- cross-document chunk ("paragraph") dedup with reassembly ----------------


def _chunk_rows(batch: pa.Table, w: int) -> pa.Table:
    """Explode documents into W-word chunks: (doc_id, cidx, ctext, h,
    n_chunks). ``n_chunks`` (total per doc) rides on every chunk row so
    the reassembly side never needs a second pass over the corpus.
    Splitting is ``str.split(' ')`` — the exact image of DuckDB
    ``string_split(text, ' ')`` including empty tokens on runs of
    spaces — so the oracle reproduces chunk boundaries bit-for-bit."""
    doc_ids, cidxs, ctexts, totals = [], [], [], []
    for d, t in zip(
        batch["doc_id"].to_pylist(), batch["text"].to_pylist()
    ):
        words = (t or "").split(" ")
        n = (len(words) + w - 1) // w
        for c in range(n):
            doc_ids.append(d)
            cidxs.append(c)
            ctexts.append(" ".join(words[c * w : (c + 1) * w]))
            totals.append(n)
    hs = [hashlib.md5(s.encode()).hexdigest() for s in ctexts]
    return pa.table(
        {
            "doc_id": pa.array(doc_ids, pa.int64()),
            "cidx": pa.array(cidxs, pa.int64()),
            "ctext": pa.array(ctexts, pa.string()),
            "h": pa.array(hs, pa.string()),
            "n_chunks": pa.array(totals, pa.int64()),
        }
    )


def paragraph_dedup(docs_ds, words_per_chunk: int = 16):
    """Cross-document chunk-level exact dedup with in-order reassembly
    (the RefinedWeb / MassiveText "repeated passage removal" shape —
    Penedo et al. 2023 do it on lines; the fixture corpus is single-line
    so the unit here is a fixed W-word chunk).

    Semantics: every W-word chunk keeps only its globally FIRST
    occurrence (min ``(doc_id, cidx)`` lexicographically); every later
    occurrence — in another doc or later in the same doc — is dropped,
    and each surviving doc is re-emitted as its kept chunks joined in
    original order. Docs whose every chunk is a repeat vanish entirely.

    Returns (doc_id, text, n_chunks, n_kept).

    Scale shape: two exchanges and nothing on the driver.
    (1) explode -> sort on md5(chunk) -> per-block pandas first-wins
    (all rows of one hash land together); (2) exchange the SURVIVING
    chunks on doc_id -> per-block in-order string join.
    Chunk text crosses both shuffles once each; at 100 TB the dedup
    shuffle could instead move (h, doc_id, cidx) only and anti-join the
    loser keys back (the neardup_keep_one broadcast pattern) — chosen
    against here because the loser set is corpus-sized when dup rates
    are high, while this version's volume is bounded by the input."""
    import pandas as pd

    from autoner_ray.stages.combine import exchange

    def chunk_hash(t: pa.Table) -> pa.Table:
        h64 = np.array([int(h[:16], 16) for h in t["h"].to_pylist()],
                       np.uint64)
        return t.append_column("h64", pa.array(h64.view(np.int64)))

    def first_wins(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["h", "doc_id", "cidx"], kind="stable")
        keep = df.drop_duplicates("h", keep="first")
        return keep[["doc_id", "cidx", "ctext", "n_chunks"]]

    def reassemble(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["doc_id", "cidx"], kind="stable")
        g = df.groupby("doc_id", sort=False)
        out = g.agg(
            text=("ctext", " ".join),
            n_chunks=("n_chunks", "first"),
            n_kept=("cidx", "size"),
        ).reset_index()
        return out[["doc_id", "text", "n_chunks", "n_kept"]]

    kept = exchange(
        docs_ds.map_batches(
            lambda t: chunk_hash(_chunk_rows(t, words_per_chunk)),
            batch_format="pyarrow",
        ),
        "h64", first_wins,
        pa.schema([("doc_id", pa.int64()), ("cidx", pa.int64()),
                   ("ctext", pa.string()), ("n_chunks", pa.int64())]),
        batch_format="pandas",
    )
    return exchange(
        kept, ("doc_id",), reassemble,
        pa.schema([("doc_id", pa.int64()), ("text", pa.string()),
                   ("n_chunks", pa.int64()), ("n_kept", pa.int64())]),
        batch_format="pandas",
    )


def paragraph_dedup_oracle_sql(words_per_chunk: int = 16) -> str:
    w = int(words_per_chunk)
    return f"""
        WITH words AS (
            SELECT doc_id,
                   string_split(text, ' ') AS ws
            FROM documents
        ),
        chunks AS (
            SELECT doc_id,
                   CAST(g.i AS BIGINT) AS cidx,
                   array_to_string(
                       ws[g.i * {w} + 1 : g.i * {w} + {w}], ' '
                   ) AS ctext
            FROM words,
                 UNNEST(range(0, CAST(ceil(len(ws) / {w}.0) AS BIGINT)))
                     AS g(i)
        ),
        hashed AS (
            SELECT doc_id, cidx, ctext, md5(ctext) AS h FROM chunks
        ),
        winners AS (
            SELECT doc_id, cidx, ctext FROM (
                SELECT *, row_number() OVER (
                    PARTITION BY h ORDER BY doc_id, cidx
                ) AS rn
                FROM hashed
            ) WHERE rn = 1
        ),
        tot AS (
            SELECT doc_id, COUNT(*) AS n_chunks FROM hashed GROUP BY 1
        )
        SELECT wi.doc_id,
               string_agg(wi.ctext, ' ' ORDER BY wi.cidx) AS text,
               CAST(MAX(t.n_chunks) AS BIGINT) AS n_chunks,
               CAST(COUNT(*) AS BIGINT) AS n_kept
        FROM winners wi JOIN tot t ON wi.doc_id = t.doc_id
        GROUP BY wi.doc_id
    """


def neardup_keep_best(
    docs_ds,
    threshold: float = 0.6,
    k: int = 3,
    pair_source: str = "exact",
):
    """Near-duplicate removal keeping the HIGHEST-QUALITY member of
    each cluster instead of the smallest id — the winner rule
    production curation actually uses (RefinedWeb/SlimPajama keep the
    longest/highest-scoring copy so truncated or boilerplate-padded
    variants lose). Winner per cluster = max ``n_words``
    (whitespace-stream token count, the same count ``docs_quality``
    scores), ties broken by smallest ``doc_id`` so the choice is
    content-derived and execution-order-independent.

    Same pairs and component labels as :func:`neardup_keep_one`. A
    broadcast semi-filter (``joins.id_filter``) picks the cluster
    members out of ``docs_ds``, their word counts come to the driver
    beside the labels (at most two members per loser), the driver takes
    each cluster's argmax, and the losers ride a broadcast anti-filter.

    Returns the surviving rows of ``docs_ds`` with all of their columns.
    """
    from autoner_ray.stages.joins import id_filter
    from autoner_ray.stages.tokenize import sentence_token_stream

    labels = _neardup_labels(docs_ds, threshold, k, pair_source)

    def nwords_batch(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": t["doc_id"],
                "n_words": pa.array(
                    [
                        len(sentence_token_stream(x or ""))
                        for x in t["text"].to_pylist()
                    ],
                    pa.int64(),
                ),
            }
        )

    losers = labels["src"]
    if len(labels):
        words = id_filter(docs_ds, "doc_id", labels["src"]).map_batches(
            nwords_batch, batch_format="pyarrow"
        ).to_pandas()
        mw = labels.to_pandas().merge(words, on="src").sort_values(
            ["label", "n_words", "src"], ascending=[True, False, True],
            kind="mergesort",
        )
        losers = pa.array(mw.loc[mw["label"].duplicated(), "src"],
                          pa.int64())
    return id_filter(docs_ds, "doc_id", losers, anti=True)


def substring_dedup_census(docs_ds, chunk_len: int = 40):
    """EXACT chunked substring dedup census — the Lee-et-al-2022
    ("Deduplicating Training Data Makes Language Models Better")
    semantics at chunk granularity: split every doc into non-overlapping
    ``chunk_len``-char chunks (full chunks only), and corpus-wide the
    FIRST occurrence of each distinct chunk wins (smallest
    ``(doc_id, chunk_idx)``); every other occurrence is a duplicated
    span a cleaner would strip. Output one row per doc that has at
    least one full chunk: (doc_id, n_chunks, n_removed, chars_before,
    chars_after) with ``chars_after = chars_before - chunk_len *
    n_removed`` — the integer census the value-hash can certify.

    Scale shape: chunk rows carry a PACKED occurrence key
    ``doc_id * 2^20 + idx`` (idx < 2^20 = 40 MB docs at the default
    chunk_len; at web scale bump the shift); ONE exchange on the
    chunk content co-locates all occurrences of a chunk, the
    per-block pandas pass marks losers (packed key != group min)
    and pre-reduces to per-doc partials, and the per-doc rollup is the
    hash-partitioned :func:`combine.keyed_combine` — no
    driver-side state anywhere, no chunk ever compared across
    blocks (equal chunks hash equal). The suffix-array full
    generality (duplicated spans at ARBITRARY offsets) trades recall
    for this operator's exactness-at-chunk-alignment; winnowing
    fingerprints (``analysis``) cover the unaligned case
    approximately.
    """
    import pandas as pd

    from autoner_ray.stages.combine import exchange, keyed_combine

    def chunk_rows(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        texts = t["text"].to_pylist()
        c_chunk, c_packed, c_doc, c_chars = [], [], [], []
        for did, text in zip(ids, texts):
            text = text or ""
            n_full = len(text) // chunk_len
            base = int(did) << 20
            for i in range(n_full):
                c_chunk.append(text[i * chunk_len:(i + 1) * chunk_len])
                c_packed.append(base + i)
                c_doc.append(int(did))
                c_chars.append(len(text))
        return pa.table(
            {
                "chunk": pa.array(c_chunk, pa.string()),
                "packed": pa.array(c_packed, pa.int64()),
                "doc_id": pa.array(c_doc, pa.int64()),
                "chars": pa.array(c_chars, pa.int64()),
            }
        )

    per_doc = pa.schema(
        [("doc_id", pa.int64()), ("n_chunks", pa.int64()),
         ("n_removed", pa.int64()), ("chars_before", pa.int64())]
    )

    def mark_losers(df: pd.DataFrame) -> pd.DataFrame:
        # all occurrences of a chunk are in this block; loser =
        # packed key above the group min. Pre-reduce straight to
        # per-doc partials so the shuffle out is doc-sized, not
        # chunk-sized.
        wk = df.groupby("chunk")["packed"].transform("min")
        removed = (df["packed"] != wk).astype("int64")
        g = pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "n_chunks": 1,
                "n_removed": removed,
                "chars_before": df["chars"],
            }
        ).groupby("doc_id", as_index=False).agg(
            n_chunks=("n_chunks", "sum"),
            n_removed=("n_removed", "sum"),
            chars_before=("chars_before", "max"),
        )
        return g

    partials = exchange(
        docs_ds.map_batches(chunk_rows, batch_format="pyarrow"), ("chunk",),
        mark_losers, per_doc, batch_format="pandas",
    )
    rolled = keyed_combine(
        partials, per_doc,
        [("n_chunks", "sum"), ("n_removed", "sum"), ("chars_before", "max")],
    )

    _o_schema = pa.schema(
        [("doc_id", pa.int64()), ("n_chunks", pa.int64()),
         ("n_removed", pa.int64()), ("chars_before", pa.int64()),
         ("chars_after", pa.int64())]
    )

    def finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        after = pc.subtract(
            t["chars_before"],
            pc.multiply(t["n_removed"], pa.scalar(chunk_len, pa.int64())),
        )
        return pa.table(
            {
                "doc_id": pc.cast(t["doc_id"], pa.int64()),
                "n_chunks": pc.cast(t["n_chunks"], pa.int64()),
                "n_removed": pc.cast(t["n_removed"], pa.int64()),
                "chars_before": pc.cast(t["chars_before"], pa.int64()),
                "chars_after": pc.cast(after, pa.int64()),
            },
            schema=_o_schema,
        )

    return rolled.map_batches(finish, batch_format="pyarrow")
