"""Benchmark decontamination: remove training documents that share a
verbatim token n-gram with a held-out benchmark/test set.

Standard practice for web-scale LLM training corpora (GPT-3 App. C /
PaLM / Llama use 8-13 token overlap windows): any training doc carrying
an exact n-gram that also appears in an evaluation set is flagged (and
usually dropped) so benchmark numbers aren't inflated by memorized test
data.

Semantics (mirrored exactly by the SQL oracle in ``__ray_entry__``):
tokens are ``text.split(' ')`` (single-space split, matching DuckDB's
``string_split(text, ' ')``); a doc's grams are its DISTINCT
consecutive-``n``-token windows joined by a single space; a corpus doc's
``n_hits`` is the number of its distinct grams that occur anywhere in
the benchmark side. Docs shorter than ``n`` tokens have no grams and
cannot be contaminated.

Two execution tiers, same results:

- **broadcast** (default; the realistic shape — benchmark suites are
  MBs while the corpus is TBs): one pass over the benchmark docs emits
  per-batch DISTINCT gram partials, the driver unions them into a
  frozenset placed in the object store ONCE via ``ray.put``, and a
  single stateless ``map_batches`` over the corpus counts set hits per
  doc. No shuffle of corpus data at all.
- **join** (``force_join=True`` or benchmark grams above
  ``broadcast_limit``): both sides explode into (gram-hash, doc_id)
  rows, one exchange sorted on the gram hash co-locates each gram, and
  an in-block semi-join counts hits per doc — the same shared-shingle
  shape as
  ``dedup.ngram_jaccard_exact_pairs``. Gram identity travels as a
  128-bit md5-derived pair (two int64 columns) so collisions are
  negligible and no gram string crosses the wire.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa


def _doc_grams(text: str, n: int) -> list[str]:
    """Distinct n-token grams of a doc under single-space split."""
    toks = (text or "").split(" ")
    if len(toks) < n:
        return []
    return list({" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)})


def _gram_hash128(grams: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """md5-derived (hi, lo) int64 pair per gram — join identity that
    never ships the gram text."""
    hi = np.empty(len(grams), dtype=np.uint64)
    lo = np.empty(len(grams), dtype=np.uint64)
    for i, g in enumerate(grams):
        d = hashlib.md5(g.encode("utf-8", "surrogatepass")).digest()
        hi[i] = int.from_bytes(d[:8], "little")
        lo[i] = int.from_bytes(d[8:], "little")
    return hi, lo


def contamination_hits(
    docs_ds,
    bench_ds,
    n: int = 8,
    broadcast_limit: int = 5_000_000,
    force_join: bool = False,
):
    """(doc_id, n_hits) for every corpus doc sharing >=1 distinct
    n-gram with the benchmark side. See module docstring for tiers."""
    import pandas as pd

    from autoner_ray.stages.combine import exchange, keyed_combine

    if not force_join:
        # benchmark gram partials: distinct per batch, tiny vs corpus
        def bench_grams(batch: pa.Table) -> pa.Table:
            out: set[str] = set()
            for text in batch["text"].to_pylist():
                out.update(_doc_grams(text, n))
            return pa.table({"g": pa.array(sorted(out), pa.string())})

        grams: set[str] = set()
        over = False
        for b in bench_ds.select_columns(["text"]).map_batches(
            bench_grams, batch_format="pyarrow"
        ).iter_batches(batch_format="pyarrow"):
            grams.update(b["g"].to_pylist())
            if len(grams) > broadcast_limit:
                over = True
                break
        if not over:
            import ray

            gram_ref = ray.put(frozenset(grams))

            def count_hits(batch: pa.Table) -> pa.Table:
                gset = ray.get(gram_ref)
                ids, hits = [], []
                for did, text in zip(
                    batch["doc_id"].to_pylist(), batch["text"].to_pylist()
                ):
                    h = sum(1 for g in _doc_grams(text, n) if g in gset)
                    if h:
                        ids.append(did)
                        hits.append(h)
                return pa.table(
                    {
                        "doc_id": pa.array(ids, pa.int64()),
                        "n_hits": pa.array(hits, pa.int64()),
                    }
                )

            return docs_ds.select_columns(["doc_id", "text"]).map_batches(
                count_hits, batch_format="pyarrow"
            )

    # join tier: explode grams on both sides, exchange on the gram hash
    def explode(is_bench: bool):
        def fn(batch: pa.Table) -> pa.Table:
            ids, his, los = [], [], []
            for did, text in zip(
                batch["doc_id"].to_pylist(), batch["text"].to_pylist()
            ):
                g = _doc_grams(text, n)
                if not g:
                    continue
                hi, lo = _gram_hash128(g)
                ids.extend([did] * len(g))
                his.extend(hi.view(np.int64).tolist())
                los.extend(lo.view(np.int64).tolist())
            return pa.table(
                {
                    "doc_id": pa.array(ids, pa.int64()),
                    "hi": pa.array(his, pa.int64()),
                    "lo": pa.array(los, pa.int64()),
                    "bench": pa.array(
                        np.full(len(ids), is_bench, dtype=bool)
                    ),
                }
            )

        return fn

    corpus_g = docs_ds.select_columns(["doc_id", "text"]).map_batches(
        explode(False), batch_format="pyarrow"
    )
    bench_g = bench_ds.select_columns(["doc_id", "text"]).map_batches(
        explode(True), batch_format="pyarrow"
    )

    hit_schema = pa.schema([("doc_id", pa.int64()), ("n_hits", pa.int64())])

    def hits_in_partition(df: pd.DataFrame) -> pd.DataFrame:
        bench_keys = df.loc[df["bench"], ["hi", "lo"]].drop_duplicates()
        cor = df.loc[~df["bench"], ["doc_id", "hi", "lo"]]
        hit = cor.merge(bench_keys, on=["hi", "lo"], how="inner")
        # a gram lives in exactly ONE block and is distinct per doc,
        # so local per-doc counts are final partials
        return hit.groupby("doc_id", as_index=False).agg(
            n_hits=("hi", "size")
        )

    partials = exchange(
        corpus_g.union(bench_g), "hi", hits_in_partition, hit_schema,
        batch_format="pandas",
    )
    # a doc's grams spread across blocks -> sum the partials
    return keyed_combine(partials, hit_schema, [("n_hits", "sum")])


def decontaminate(
    docs_ds,
    bench_ds,
    n: int = 8,
    **kwargs,
):
    """The corpus with contaminated docs REMOVED: the hit doc_ids come
    to the driver (the contaminated set is a tiny fraction of the
    corpus by construction) and ride a broadcast anti-filter
    (``joins.id_filter``); every corpus column is kept."""
    from autoner_ray.stages.joins import id_filter

    hits = contamination_hits(docs_ds, bench_ds, n=n, **kwargs)
    # no select_columns: fused after the upstream map, the projection
    # left some blocks with n_hits and Ray logged a schema divergence
    bad = pa.chunked_array(
        [
            chunk
            for b in hits.iter_batches(batch_format="pyarrow")
            for chunk in b["doc_id"].chunks
        ],
        pa.int64(),
    )
    return id_filter(docs_ds, "doc_id", bad, anti=True)


def crossdoc_dup_windows(docs_ds, n: int = 8):
    """(doc_id, dup_grams): per corpus doc, how many of its DISTINCT
    n-token windows appear verbatim in at least one OTHER document.

    The within-corpus twin of ``contamination_hits`` — the exact
    substring-duplication signal of Lee et al. 2022 ("Deduplicating
    Training Data Makes Language Models Better"), reduced to doc-level
    counts: a high ``dup_grams`` / gram-count ratio marks boilerplate
    and templated near-copies that survive exact-doc dedup.

    Tokens are ``text.split(' ')`` and grams are distinct n-token
    windows — identical to the decontamination op, so the SQL oracle
    shares its gram CTE.  No broadcast tier exists here (both "sides"
    are the whole corpus): one explode pass emits (gram-hash128,
    doc_id) rows, ONE exchange sorts on the gram hash so each gram
    sits in one block, and the in-block test is a vectorized
    group-size>=2 mask — a gram shared by a million docs costs a million
    rows, never a pairwise blowup.  Per-block per-doc counts are final
    partials (a gram lives in exactly one block, distinct per doc),
    summed by one doc-keyed combine whose input is already <= |docs| x
    blocks.
    """
    import pandas as pd

    from autoner_ray.stages.combine import exchange, keyed_combine

    def explode(batch: pa.Table) -> pa.Table:
        ids, his, los = [], [], []
        for did, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            g = _doc_grams(text, n)
            if not g:
                continue
            hi, lo = _gram_hash128(g)
            ids.extend([did] * len(g))
            his.extend(hi.view(np.int64).tolist())
            los.extend(lo.view(np.int64).tolist())
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "hi": pa.array(his, pa.int64()),
                "lo": pa.array(los, pa.int64()),
            }
        )

    grams = docs_ds.select_columns(["doc_id", "text"]).map_batches(
        explode, batch_format="pyarrow"
    )

    dup_schema = pa.schema([("doc_id", pa.int64()), ("dup_grams", pa.int64())])

    def dup_in_partition(df: pd.DataFrame) -> pd.DataFrame:
        # rows are distinct (gram, doc) pairs, so a gram group with
        # >=2 rows spans >=2 docs -> every row in it is a shared window
        shared = df.duplicated(subset=["hi", "lo"], keep=False)
        return (
            df.loc[shared]
            .groupby("doc_id", as_index=False)
            .agg(dup_grams=("hi", "size"))
        )

    partials = exchange(
        grams, "hi", dup_in_partition, dup_schema, batch_format="pandas"
    )
    return keyed_combine(partials, dup_schema, [("dup_grams", "sum")])


def bloom_build(bench_ds, n: int = 8, m_bits: int = 1 << 20,
                k_hashes: int = 7) -> np.ndarray:
    """Bloom filter (uint8 bit array) over the benchmark side's distinct
    n-gram 128-bit hashes. Deterministic double hashing: probe i uses
    ``(hi + i·lo) mod m`` — the standard Kirsch–Mitzenmacher scheme, so
    any two processes building from the same benchmark agree bit-for-bit.
    """
    bits = np.zeros(m_bits // 8 + 1, np.uint8)
    m = np.uint64(m_bits)

    def bench_grams(batch: pa.Table) -> pa.Table:
        out: set[str] = set()
        for text in batch["text"].to_pylist():
            out.update(_doc_grams(text, n))
        g = sorted(out)
        hi, lo = _gram_hash128(g)
        return pa.table(
            {
                "hi": pa.array(hi.view(np.int64), pa.int64()),
                "lo": pa.array(lo.view(np.int64), pa.int64()),
            }
        )

    for b in bench_ds.select_columns(["text"]).map_batches(
        bench_grams, batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow"):
        hi = b["hi"].to_numpy(zero_copy_only=False).view(np.uint64)
        lo = b["lo"].to_numpy(zero_copy_only=False).view(np.uint64)
        for i in range(k_hashes):
            pos = (hi + np.uint64(i) * lo) % m
            np.bitwise_or.at(
                bits, (pos >> np.uint64(3)).astype(np.int64),
                np.left_shift(
                    np.uint8(1), (pos & np.uint64(7)).astype(np.uint8)
                ),
            )
    return bits


def bloom_contamination_flags(docs_ds, bench_ds, n: int = 8,
                              m_bits: int = 1 << 20, k_hashes: int = 7):
    """The WEB-SCALE decontamination tier: instead of broadcasting the
    benchmark gram SET (``contamination_hits`` broadcast tier, ~60 B per
    gram) or shuffling the corpus (join tier), broadcast a fixed-size
    Bloom filter (``m_bits/8`` bytes TOTAL — 128 MB covers ~10⁸ bench
    grams at <1% FP with k=7) and flag corpus docs whose distinct grams
    hit it. One ``ray.put``, zero shuffle, one stateless corpus map.

    Guarantee: NO false negatives (every truly contaminated doc is
    flagged); false positives are deterministic and bounded by the
    (m, k, |grams|) FP rate — acceptable for decontamination, where a
    flag means "drop the doc" and over-dropping ppm-level counts is
    harmless. Pinned by tests/test_decontam.py: superset-of-exact plus
    an FP budget, and exact equality at fixture scale where the filter
    is oversized."""
    import ray

    bits_ref = ray.put(bloom_build(bench_ds, n, m_bits, k_hashes))
    m = np.uint64(m_bits)

    def flag(batch: pa.Table) -> pa.Table:
        bits = ray.get(bits_ref)
        ids, hits = [], []
        for did, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            grams = _doc_grams(text, n)
            if not grams:
                continue
            hi, lo = _gram_hash128(grams)
            member = np.ones(len(grams), bool)
            for i in range(k_hashes):
                pos = (hi + np.uint64(i) * lo) % m
                byte = bits[(pos >> np.uint64(3)).astype(np.int64)]
                member &= (
                    byte
                    & np.left_shift(
                        np.uint8(1), (pos & np.uint64(7)).astype(np.uint8)
                    )
                ) != 0
                if not member.any():
                    break
            h = int(member.sum())
            if h:
                ids.append(did)
                hits.append(h)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_hits": pa.array(hits, pa.int64()),
            }
        )

    return docs_ds.select_columns(["doc_id", "text"]).map_batches(
        flag, batch_format="pyarrow"
    )
