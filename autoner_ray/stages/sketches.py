"""Mergeable one-pass sketches (engine extensions for corpus-scale
profiling): HyperLogLog distinct counting, Count-Min heavy hitters, a
Bloom filter, and a mergeable quantile sketch.

Scale shape shared by the sketches: every sketch here is a fixed-size,
order-independent MERGE (elementwise max / sum / or), so a batch stream
of any block layout reduces to one tiny blob per batch, then one blob
per block, then one final row — no shuffle of the data itself, no
driver-side state proportional to the corpus. Determinism: all hashing
is md5-derived (``functions/hashing.md5_64_array``), so estimates are
pure functions of the input multiset — pinned by pytest, not by SQL
(an approximate value has no exact SQL twin).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from autoner_ray.functions.hashing import md5_64_array

# ---------------------------------------------------------------- HLL

HLL_P = 14  # 2^14 registers = 16 KiB per sketch, ~0.8% rel. error


def _hll_update(registers: np.ndarray, hashes: np.ndarray) -> None:
    """Fold 64-bit hashes into uint8 registers in place (vectorized)."""
    idx = (hashes >> np.uint64(64 - HLL_P)).astype(np.int64)
    rest = hashes << np.uint64(HLL_P)
    # rho = leading zeros of the remaining 64-P bits + 1; a zero rest
    # means all 64-P bits were zero -> rho = 64-P+1
    nz = rest != 0
    rho = np.full(len(hashes), 64 - HLL_P + 1, dtype=np.uint8)
    if nz.any():
        r = rest[nz]
        lz = np.zeros(len(r), dtype=np.int64)
        for shift in (32, 16, 8, 4, 2, 1):
            mask = r < (np.uint64(1) << np.uint64(64 - shift))
            lz[mask] += shift
            r[mask] = r[mask] << np.uint64(shift)
        rho[nz] = (lz + 1).astype(np.uint8)
    np.maximum.at(registers, idx, rho)


def hll_estimate(registers: np.ndarray) -> float:
    """Classic HLL estimate with small-range (linear counting) and
    large-range corrections (Flajolet et al. 2007)."""
    m = float(1 << HLL_P)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(2.0 ** -registers.astype(np.float64))
    if est <= 2.5 * m:
        zeros = int(np.count_nonzero(registers == 0))
        if zeros:
            est = m * np.log(m / zeros)
    elif est > (2**64) / 30.0:
        est = -(2**64) * np.log(1.0 - est / 2**64)
    return float(est)


def distinct_words_hll(docs_ds):
    """Approximate count of distinct word tokens in the corpus.

    One pass: per-batch 16 KiB register partials -> in-block elementwise
    max -> single-block final max + estimate. Returns a one-row Dataset
    (n_distinct_est int64, n_registers). Exact distinct at 100 TB needs
    a full vocab shuffle; this needs 16 KiB per task.
    """

    def batch_sketch(batch: pa.Table) -> pa.Table:
        regs = np.zeros(1 << HLL_P, dtype=np.uint8)
        toks: list[str] = []
        for text in batch["text"].to_pylist():
            toks.extend((text or "").split(" "))
        if toks:
            # one memoized-md5 pass per batch; HLL updates are
            # idempotent so no per-doc dedup is needed
            _hll_update(regs, md5_64_array(toks))
        return pa.table({"regs": pa.array([regs.tobytes()], pa.binary())})

    def merge(batch: pa.Table) -> pa.Table:
        regs = np.zeros(1 << HLL_P, dtype=np.uint8)
        for blob in batch["regs"].to_pylist():
            np.maximum(
                regs, np.frombuffer(blob, dtype=np.uint8), out=regs
            )
        return pa.table({"regs": pa.array([regs.tobytes()], pa.binary())})

    def finish(batch: pa.Table) -> pa.Table:
        merged = merge(batch)
        regs = np.frombuffer(
            merged["regs"][0].as_py(), dtype=np.uint8
        )
        return pa.table(
            {
                "n_distinct_est": pa.array(
                    [int(round(hll_estimate(regs)))], pa.int64()
                ),
                "n_registers": pa.array([1 << HLL_P], pa.int64()),
            }
        )

    return (
        docs_ds.map_batches(batch_sketch, batch_format="pyarrow")
        .map_batches(merge, batch_format="pyarrow", batch_size=4096)
        .repartition(1)
        .map_batches(finish, batch_format="pyarrow", batch_size=None)
    )


# ---------------------------------------------------- Count-Min sketch

CM_DEPTH = 4
CM_WIDTH = 1 << 16


def _cm_rows(hashes: np.ndarray) -> np.ndarray:
    """(depth, n) row indices into the flattened CM table."""
    out = np.empty((CM_DEPTH, len(hashes)), dtype=np.int64)
    for d in range(CM_DEPTH):
        # d-th 16-bit slice of the 64-bit hash: independent-enough rows
        # with ONE md5 per token (the md5 cache stays effective)
        out[d] = ((hashes >> np.uint64(16 * d)) & np.uint64(CM_WIDTH - 1)).astype(
            np.int64
        ) + d * CM_WIDTH
    return out


def cm_heavy_hitters(docs_ds, k: int = 10, candidates_per_batch: int = 64):
    """Top-``k`` words by Count-Min estimated count.

    Per batch: add word counts into a 4×65536 int64 CM partial AND emit
    the batch's local top-``candidates_per_batch`` words (a Zipfian
    stream's global heavy hitters are heavy in essentially every batch,
    the standard CM candidate heuristic). Merge: CM partials sum
    elementwise; candidates union. Final single block: estimate each
    candidate from the merged CM (min over rows) and keep the top-k
    (ties lexicographic). Estimates are upper bounds (CM never
    undercounts); with this corpus's skew the top-k SET equals the exact
    one — pinned by pytest against exact counts.
    """

    def batch_sketch(batch: pa.Table) -> pa.Table:
        cm = np.zeros(CM_DEPTH * CM_WIDTH, dtype=np.int64)
        from collections import Counter

        local = Counter()
        for text in batch["text"].to_pylist():
            local.update((text or "").split(" "))
        words = list(local.keys())
        cnts = np.array([local[w] for w in words], dtype=np.int64)
        if words:
            rows = _cm_rows(md5_64_array(words))
            for d in range(CM_DEPTH):
                np.add.at(cm, rows[d], cnts)
        cand = [w for w, _ in local.most_common(candidates_per_batch)]
        return pa.table(
            {
                "cm": pa.array([cm.tobytes()], pa.binary()),
                "cands": pa.array([cand], pa.list_(pa.string())),
            }
        )

    def merge(batch: pa.Table) -> pa.Table:
        cm = np.zeros(CM_DEPTH * CM_WIDTH, dtype=np.int64)
        cands: set[str] = set()
        for blob, cl in zip(
            batch["cm"].to_pylist(), batch["cands"].to_pylist()
        ):
            cm += np.frombuffer(blob, dtype=np.int64)
            cands.update(cl)
        return pa.table(
            {
                "cm": pa.array([cm.tobytes()], pa.binary()),
                "cands": pa.array([sorted(cands)], pa.list_(pa.string())),
            }
        )

    def finish(batch: pa.Table) -> pa.Table:
        merged = merge(batch)
        cm = np.frombuffer(merged["cm"][0].as_py(), dtype=np.int64)
        cands = sorted(set(merged["cands"][0].as_py()))
        if not cands:
            return pa.table(
                {
                    "word": pa.array([], pa.string()),
                    "est_count": pa.array([], pa.int64()),
                }
            )
        rows = _cm_rows(md5_64_array(cands))
        est = cm[rows].min(axis=0)
        order = sorted(
            range(len(cands)), key=lambda i: (-int(est[i]), cands[i])
        )[:k]
        return pa.table(
            {
                "word": pa.array([cands[i] for i in order], pa.string()),
                "est_count": pa.array(
                    [int(est[i]) for i in order], pa.int64()
                ),
            }
        )

    return (
        docs_ds.map_batches(batch_sketch, batch_format="pyarrow")
        .map_batches(merge, batch_format="pyarrow", batch_size=1024)
        .repartition(1)
        .map_batches(finish, batch_format="pyarrow", batch_size=None)
    )


# ------------------------------------------------ Bloom filter

def _bloom_build(keys: np.ndarray, m_bits: int, n_hashes: int) -> np.ndarray:
    """Bit array (uint64 words) from int64/uint64 keys; double hashing
    h1 + i*h2 over the splitmix64-mixed key (Kirsch–Mitzenmacher)."""
    z = keys.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    h1 = z & np.uint64(0xFFFFFFFF)
    h2 = (z >> np.uint64(32)) | np.uint64(1)
    bits = np.zeros(m_bits // 64 + 1, dtype=np.uint64)
    for i in range(n_hashes):
        pos = (h1 + np.uint64(i) * h2) % np.uint64(m_bits)
        np.bitwise_or.at(
            bits, (pos >> np.uint64(6)).astype(np.int64),
            np.uint64(1) << (pos & np.uint64(63)),
        )
    return bits


def _bloom_maybe(
    keys: np.ndarray, bits: np.ndarray, m_bits: int, n_hashes: int
) -> np.ndarray:
    z = keys.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    h1 = z & np.uint64(0xFFFFFFFF)
    h2 = (z >> np.uint64(32)) | np.uint64(1)
    ok = np.ones(len(keys), dtype=bool)
    for i in range(n_hashes):
        pos = (h1 + np.uint64(i) * h2) % np.uint64(m_bits)
        word = bits[(pos >> np.uint64(6)).astype(np.int64)]
        ok &= (word >> (pos & np.uint64(63))) & np.uint64(1) != 0
    return ok


# ------------------------------------------------ quantile sketch

Q_CAP = 8192  # summary points per partial; fixed memory per task


def _q_merge_pairs(vals: np.ndarray, wts: np.ndarray):
    """Combine duplicate values (sorted unique + weight sums)."""
    uvals, inv = np.unique(vals, return_inverse=True)
    uwts = np.zeros(len(uvals), dtype=np.float64)
    np.add.at(uwts, inv, wts)
    return uvals, uwts


def _q_compact(vals: np.ndarray, wts: np.ndarray, cap: int = Q_CAP):
    """Deterministic re-summarization to ``cap`` points: pick the values
    at ``cap`` evenly spaced weighted ranks, assign uniform weight W/cap.
    Rank error per compaction ≤ W/cap; no randomness (same input multiset
    -> same sketch regardless of block layout, given the same merge
    tree)."""
    if len(vals) <= cap:
        return vals, wts
    W = wts.sum()
    cum = np.cumsum(wts)
    targets = (np.arange(cap, dtype=np.float64) + 0.5) * (W / cap)
    idx = np.minimum(
        np.searchsorted(cum, targets, side="left"), len(vals) - 1
    )
    return vals[idx], np.full(cap, W / cap, dtype=np.float64)


def _q_blob(vals: np.ndarray, wts: np.ndarray) -> "pa.Table":
    return pa.table(
        {
            "qvals": pa.array([vals.astype(np.float64).tobytes()], pa.binary()),
            "qwts": pa.array([wts.astype(np.float64).tobytes()], pa.binary()),
        }
    )


def quantile_sketch(ds, column: str, ps=(0.1, 0.5, 0.9, 0.99),
                    cap: int = Q_CAP):
    """Mergeable quantile sketch over a numeric column — the
    unbounded-support complement to an exact bounded-value histogram:
    fixed ``cap`` summary points
    per task regardless of value cardinality, deterministic compaction,
    no shuffle of the data.

    EXACT while the merged distinct-value count stays ≤ ``cap`` (no
    compaction ever fires; the sketch IS the weighted histogram) — that
    property carries the SQL oracle at the test scales, the same
    justification as the Count-Min oracle above. Past ``cap`` the
    estimate's rank error is ≤ (levels × W/cap); the pytest pins the
    error bound on a forced-tiny cap against the exact quantiles.
    Interpolation matches DuckDB ``quantile_cont`` when exact:
    v = a + (b - a) * frac at weighted position (n - 1) * p.
    """

    def batch_sketch(batch: pa.Table) -> pa.Table:
        x = batch[column].to_numpy(zero_copy_only=False).astype(np.float64)
        x = x[~np.isnan(x)]
        if len(x) == 0:
            return _q_blob(np.array([]), np.array([]))
        vals, counts = np.unique(x, return_counts=True)
        vals, wts = _q_compact(vals, counts.astype(np.float64), cap)
        return _q_blob(vals, wts)

    def merge(batch: pa.Table) -> pa.Table:
        vs = [
            np.frombuffer(b, dtype=np.float64)
            for b in batch["qvals"].to_pylist()
        ]
        ws = [
            np.frombuffer(b, dtype=np.float64)
            for b in batch["qwts"].to_pylist()
        ]
        vals = np.concatenate(vs) if vs else np.array([])
        wts = np.concatenate(ws) if ws else np.array([])
        if len(vals):
            vals, wts = _q_merge_pairs(vals, wts)
            vals, wts = _q_compact(vals, wts, cap)
        return _q_blob(vals, wts)

    def finish(batch: pa.Table) -> pa.Table:
        merged = merge(batch)
        vals = np.frombuffer(merged["qvals"][0].as_py(), dtype=np.float64)
        wts = np.frombuffer(merged["qwts"][0].as_py(), dtype=np.float64)
        out_p, out_v = [], []
        if len(vals):
            cum = np.cumsum(wts)
            n = cum[-1]
            for p in ps:
                pos = (n - 1) * p
                lo, hi = np.floor(pos), np.ceil(pos)
                a = vals[np.searchsorted(cum, lo + 1.0, side="left")]
                b = vals[np.searchsorted(cum, hi + 1.0, side="left")]
                out_p.append(float(p))
                out_v.append(round(float(a + (b - a) * (pos - lo)), 6))
        return pa.table(
            {
                "p": pa.array(out_p, pa.float64()),
                "quantile": pa.array(out_v, pa.float64()),
            }
        )

    return (
        ds.map_batches(batch_sketch, batch_format="pyarrow")
        .map_batches(merge, batch_format="pyarrow", batch_size=4096)
        .repartition(1)
        .map_batches(finish, batch_format="pyarrow", batch_size=None)
    )


def doc_length_quantiles_sketch(docs_ds, ps=(0.1, 0.5, 0.9, 0.99)):
    """Corpus doc-length (n_chars) quantiles via the mergeable sketch.
    n_chars has bounded support, so the sketch never compacts and the
    result is exact (SQL ``quantile_cont`` twin)."""
    return quantile_sketch(docs_ds, "n_chars", ps=ps)


def doc_length_quantiles_oracle_sql(ps=(0.1, 0.5, 0.9, 0.99)) -> str:
    parts = [
        f"SELECT {p} AS p, round(quantile_cont(n_chars, {p}), 6)"
        f" AS quantile FROM documents"
        for p in ps
    ]
    return " UNION ALL ".join(parts)


def source_distinct_words_hll(docs_ds):
    """GROUPED HLL: approximate distinct word tokens per source — the
    mergeable-sketch sibling of the exact per-source distinct ops
    (16 KiB per (source, batch) instead of a vocab shuffle per group).

    Same register-max merge as ``distinct_words_hll``, keyed by
    source; source cardinality is bounded, so the final merge is one
    tiny block. The SQL twin is the EXACT per-source distinct: at the
    oracle scales the estimator sits in its linear-counting regime
    with zero register collisions, so estimate == exact (same
    justification as the global sketch row); at web scale the estimate
    carries the usual ~0.8 % HLL error."""

    def batch_sketch(batch: pa.Table) -> pa.Table:
        by_src: dict[str, np.ndarray] = {}
        for src, text in zip(
            batch["source"].to_pylist(), batch["text"].to_pylist()
        ):
            toks = (text or "").split(" ")
            if not toks:
                continue
            regs = by_src.get(src)
            if regs is None:
                regs = by_src[src] = np.zeros(1 << HLL_P, dtype=np.uint8)
            _hll_update(regs, md5_64_array(toks))
        return pa.table(
            {
                "source": pa.array(list(by_src.keys()), pa.string()),
                "regs": pa.array(
                    [r.tobytes() for r in by_src.values()], pa.binary()
                ),
            }
        )

    def merge(batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0 or len(batch) == 0:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "regs": pa.array([], pa.binary()),
                }
            )
        by_src: dict[str, np.ndarray] = {}
        for src, blob in zip(
            batch["source"].to_pylist(), batch["regs"].to_pylist()
        ):
            regs = by_src.get(src)
            if regs is None:
                by_src[src] = np.frombuffer(
                    blob, dtype=np.uint8
                ).copy()
            else:
                np.maximum(
                    regs, np.frombuffer(blob, dtype=np.uint8), out=regs
                )
        return pa.table(
            {
                "source": pa.array(list(by_src.keys()), pa.string()),
                "regs": pa.array(
                    [r.tobytes() for r in by_src.values()], pa.binary()
                ),
            }
        )

    def finish(batch: pa.Table) -> pa.Table:
        merged = merge(batch)
        ests = [
            int(round(hll_estimate(np.frombuffer(b, dtype=np.uint8))))
            for b in merged["regs"].to_pylist()
        ]
        return pa.table(
            {
                "source": merged["source"],
                "distinct_words_est": pa.array(ests, pa.int64()),
            }
        )

    return (
        docs_ds.map_batches(batch_sketch, batch_format="pyarrow")
        .map_batches(merge, batch_format="pyarrow", batch_size=4096)
        .repartition(1)
        .map_batches(finish, batch_format="pyarrow", batch_size=None)
    )


def kmv_distinct_words(docs_ds, k: int = 64):
    """Per-source distinct-word estimate via the KMV (k-minimum-values)
    sketch — the third cardinality sketch next to the HLL pair, and the
    only one whose estimate is EXACTLY reproducible in SQL: keep the
    ``k`` smallest distinct uint64 word hashes per source; if fewer
    than ``k`` exist the count is exact, else
    ``est = (k-1) * 2^64 // h_k`` (Beyer et al. 2007, integer-exact
    both sides). Returns (source, est_distinct).

    Scale shape: a per-batch partial keeps only the k smallest UNIQUE
    hashes per source seen in that batch (k-min is re-associative, the
    same contract as min-K in ``domain_cap``), so the shuffle moves
    ≤ k × sources × blocks uint64s — never the word stream. Final
    merge + estimate run per source group in one pass."""
    import pandas as pd

    from autoner_ray.cluster import default_num_partitions
    from autoner_ray.functions.hashing import md5_64_array
    from autoner_ray.stages.joins import _stable_part_col

    P = default_num_partitions()

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "source": pa.array([], pa.string()),
                "h": pa.array([], pa.uint64()),
                "part": pa.array([], pa.int32()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        srcs, hs = [], []
        df = pd.DataFrame(
            {
                "source": np.asarray(
                    t["source"].to_numpy(zero_copy_only=False)
                ),
                "text": t["text"].to_pylist(),
            }
        )
        for src, grp in df.groupby("source", sort=False):
            words = set()
            for text in grp["text"]:
                words.update((text or "").split(" "))
            h = np.unique(md5_64_array(sorted(words)))[:k]
            srcs.extend([src] * len(h))
            hs.append(h)
        if not srcs:
            return empty
        out = pa.table(
            {
                "source": pa.array(srcs, pa.string()),
                "h": pa.array(np.concatenate(hs), pa.uint64()),
            }
        )
        return out.append_column(
            "part", _stable_part_col(out, ("source",), P)
        )

    def estimate(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "source": pd.Series(dtype="object"),
                "est_distinct": pd.Series(dtype="int64"),
            }
        )
        if len(df) == 0 or "source" not in df.columns:
            return empty
        rows = []
        for src, grp in df.groupby("source", sort=False):
            h = np.unique(grp["h"].to_numpy(np.uint64))[:k]
            if len(h) < k:
                est = len(h)
            else:
                est = ((k - 1) << 64) // int(h[k - 1])
            rows.append({"source": src, "est_distinct": est})
        return pd.DataFrame(rows).astype(
            {"est_distinct": "int64"}
        ).reset_index(drop=True)

    return (
        docs_ds.map_batches(partial, batch_format="pyarrow")
        .groupby("part")
        .map_groups(estimate, batch_format="pandas")
    )


def kmv_distinct_words_oracle_sql(k: int = 64) -> str:
    two64 = str(1 << 64)
    return f"""
        WITH dw AS (
            SELECT DISTINCT source, t.word
            FROM documents, unnest(string_split(text, ' ')) AS t(word)
        ),
        h AS (
            SELECT DISTINCT source,
                   CAST(('0x' || substring(md5(word), 1, 16))
                        AS UBIGINT) AS h
            FROM dw
        ),
        r AS (
            SELECT source, h,
                   row_number() OVER (
                       PARTITION BY source ORDER BY h
                   ) AS rn,
                   COUNT(*) OVER (PARTITION BY source) AS n
            FROM h
        ),
        sel AS (
            SELECT source,
                   MAX(CASE WHEN rn = {k} THEN h END) AS hk,
                   MAX(n) AS n
            FROM r WHERE rn <= {k} GROUP BY source
        )
        SELECT source,
               CAST(CASE WHEN n < {k} THEN n
                    ELSE CAST({k - 1} AS HUGEINT)
                         * CAST('{two64}' AS HUGEINT)
                         // CAST(hk AS HUGEINT)
               END AS BIGINT) AS est_distinct
        FROM sel
    """


def consistent_hash_ring(docs_ds, n_nodes: int = 8, vnodes: int = 4):
    """Consistent-hashing shard assignment audit — the resharding
    planner's proof that adding a node moves only ~1/(N+1) of the keys
    (classic Karger ring): ``n_nodes`` nodes × ``vnodes`` virtual
    points at ``md5_64('node{n}#v{j}')`` on the 64-bit ring; a doc key
    ``md5_64(str(doc_id))`` belongs to the first ring point clockwise.
    One row per node of the ENLARGED ring (0..n_nodes):
    (node, n_docs_before, n_docs_after) — under consistent hashing
    every relocated key lands on the NEW node, so nodes 0..N-1 only
    ever shrink and `n_docs_after[new]` IS the movement count; the
    driver's value-hash pins the whole assignment.

    Scale shape: both rings are tiny broadcast arrays; assignment is a
    vectorized ``searchsorted`` per batch and the per-node counts ride
    one bounded combine over <= (n_nodes+1) keys."""
    import numpy as np

    from autoner_ray.functions.hashing import md5_64, md5_64_array
    from autoner_ray.stages.combine import bounded_key_sum

    def ring(n: int):
        pos, owner = [], []
        for node in range(n):
            for j in range(vnodes):
                pos.append(md5_64(f"node{node}#v{j}"))
                owner.append(node)
        pos = np.array(pos, np.uint64)
        owner = np.array(owner, np.int64)
        order = np.argsort(pos)
        return pos[order], owner[order]

    p8, o8 = ring(n_nodes)
    p9, o9 = ring(n_nodes + 1)

    _schema = pa.schema(
        [("node", pa.int64()), ("n_docs_before", pa.int64()),
         ("n_docs_after", pa.int64())]
    )

    def assign(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return _schema.empty_table()
        keys = md5_64_array(
            [str(i) for i in t["doc_id"].to_pylist()]
        )

        def owners(pos, own):
            idx = np.searchsorted(pos, keys, side="left")
            idx[idx == len(pos)] = 0  # wraparound
            return own[idx]

        a = owners(p8, o8)
        b = owners(p9, o9)
        rows = {}
        for node, cnt in zip(*np.unique(a, return_counts=True)):
            rows.setdefault(int(node), [0, 0])[0] += int(cnt)
        for node, cnt in zip(*np.unique(b, return_counts=True)):
            rows.setdefault(int(node), [0, 0])[1] += int(cnt)
        ns = sorted(rows)
        return pa.table(
            {
                "node": pa.array(ns, pa.int64()),
                "n_docs_before": pa.array(
                    [rows[n][0] for n in ns], pa.int64()
                ),
                "n_docs_after": pa.array(
                    [rows[n][1] for n in ns], pa.int64()
                ),
            },
            schema=_schema,
        )

    counts = bounded_key_sum(
        docs_ds.select_columns(["doc_id"]).map_batches(
            assign, batch_format="pyarrow", batch_size=65536
        ),
        keys=["node"], sum_cols=["n_docs_before", "n_docs_after"],
    ).to_pandas().set_index("node")
    all_nodes = list(range(n_nodes + 1))
    return pa.table(
        {
            "node": pa.array(all_nodes, pa.int64()),
            "n_docs_before": pa.array(
                [int(counts["n_docs_before"].get(n, 0))
                 for n in all_nodes], pa.int64()
            ),
            "n_docs_after": pa.array(
                [int(counts["n_docs_after"].get(n, 0))
                 for n in all_nodes], pa.int64()
            ),
        }
    )


def consistent_hash_ring_oracle_sql(n_nodes: int = 8,
                                    vnodes: int = 4) -> str:
    """SQL twin: ring positions are embedded as literals (pure
    constants of the node/vnode labels); doc keys re-derive in SQL via
    the same big-endian md5 prefix, and ownership is the wraparound
    first-clockwise-point lookup."""
    from autoner_ray.functions.hashing import md5_64

    def ring_rows(n):
        rows = []
        for node in range(n):
            for j in range(vnodes):
                rows.append(f"({md5_64(f'node{node}#v{j}')}, {node})")
        return ", ".join(rows)

    r8 = ring_rows(n_nodes)
    r9 = ring_rows(n_nodes + 1)
    return f"""
        WITH keys AS (
            SELECT CAST(('0x' || substring(
                       md5(CAST(doc_id AS VARCHAR)), 1, 16))
                   AS UBIGINT) AS k
            FROM documents
        ),
        ring8(pos, node) AS (VALUES {r8}),
        ring9(pos, node) AS (VALUES {r9}),
        a AS (
            SELECT k,
                   COALESCE(
                       (SELECT node FROM ring8
                        WHERE CAST(pos AS UBIGINT) >= keys.k
                        ORDER BY pos LIMIT 1),
                       (SELECT node FROM ring8 ORDER BY pos LIMIT 1)
                   ) AS n8,
                   COALESCE(
                       (SELECT node FROM ring9
                        WHERE CAST(pos AS UBIGINT) >= keys.k
                        ORDER BY pos LIMIT 1),
                       (SELECT node FROM ring9 ORDER BY pos LIMIT 1)
                   ) AS n9
            FROM keys
        ),
        nodes AS (
            SELECT UNNEST(range(0, {n_nodes + 1})) AS node
        )
        SELECT CAST(n.node AS BIGINT) AS node,
               CAST(COALESCE(SUM(CASE WHEN a.n8 = n.node
                                      THEN 1 END), 0) AS BIGINT)
                   AS n_docs_before,
               CAST(COALESCE(SUM(CASE WHEN a.n9 = n.node
                                      THEN 1 END), 0) AS BIGINT)
                   AS n_docs_after
        FROM nodes n LEFT JOIN a ON a.n8 = n.node OR a.n9 = n.node
        GROUP BY n.node
    """


def shard_parity(docs_ds, n_shards: int = 8, group: int = 4):
    """XOR shard-parity audit — the erasure-coding-style integrity
    check a content-addressed store runs: docs hash-partition into
    ``n_shards`` shards; each shard's fingerprint is the XOR of its
    doc content hashes (order-insensitive, so any block layout yields
    the same value); shards group by ``group`` and each parity strip
    is the XOR of its member fingerprints — losing any one member is
    recoverable as parity XOR the others, and the driver query proves
    it by emitting, per shard, the fingerprint RECONSTRUCTED from its
    parity strip next to the direct one. Output
    (shard, fingerprint, reconstructed) with fingerprint ==
    reconstructed as the integrity invariant (both int64 from the
    uint64 XOR, same reinterpret both sides).

    Scale shape: per-batch (shard, xor) partials are re-associative
    (XOR is a group op) — at scale this would ride a tiny bounded
    combine; the parity math is driver arithmetic over n_shards rows."""
    import numpy as np

    from autoner_ray.functions.hashing import md5_64_array
    from autoner_ray.stages.combine import bounded_key_sum

    _p_schema = pa.schema(
        [("shard", pa.int64()), ("lo", pa.int64()), ("hi", pa.int64())]
    )

    def xor_partial(t: pa.Table) -> pa.Table:
        # bounded_key_sum only SUMS, so carry the xor as two int32
        # halves? XOR is not a sum — do the xor per batch and emit one
        # row per (shard); the final xor folds in pandas on the tiny
        # (shards x blocks) table instead of a sum combine.
        if t.num_columns == 0 or len(t) == 0:
            return _p_schema.empty_table()
        h = md5_64_array(
            [str(i) for i in t["doc_id"].to_pylist()]
        )
        shard = (h % np.uint64(n_shards)).astype(np.int64)
        rows_s, rows_lo, rows_hi = [], [], []
        for sh in np.unique(shard):
            x = np.bitwise_xor.reduce(h[shard == sh])
            rows_s.append(int(sh))
            rows_lo.append(int(x & np.uint64(0xFFFFFFFF)))
            rows_hi.append(int(x >> np.uint64(32)))
        return pa.table(
            {
                "shard": pa.array(rows_s, pa.int64()),
                "lo": pa.array(rows_lo, pa.int64()),
                "hi": pa.array(rows_hi, pa.int64()),
            },
            schema=_p_schema,
        )

    parts = docs_ds.select_columns(["doc_id"]).map_batches(
        xor_partial, batch_format="pyarrow", batch_size=65536
    ).to_pandas()
    fps = {}
    for sh, g in parts.groupby("shard"):
        x = np.uint64(0)
        for lo, hi in zip(g["lo"], g["hi"]):
            x ^= (np.uint64(hi) << np.uint64(32)) | np.uint64(lo)
        fps[int(sh)] = x
    shards = list(range(n_shards))
    parity = {}
    for g0 in range(0, n_shards, group):
        members = shards[g0:g0 + group]
        x = np.uint64(0)
        for m in members:
            x ^= fps.get(m, np.uint64(0))
        for m in members:
            parity[m] = x
    # reconstructed(m) = parity XOR all other members = fingerprint(m)
    recon = {}
    for g0 in range(0, n_shards, group):
        members = shards[g0:g0 + group]
        for m in members:
            x = parity[m]
            for o in members:
                if o != m:
                    x ^= fps.get(o, np.uint64(0))
            recon[m] = x
    to_i64 = lambda u: int(np.uint64(u).astype(np.int64))
    return pa.table(
        {
            "shard": pa.array(shards, pa.int64()),
            "fingerprint": pa.array(
                [to_i64(fps.get(s, np.uint64(0))) for s in shards],
                pa.int64(),
            ),
            "reconstructed": pa.array(
                [to_i64(recon[s]) for s in shards], pa.int64()
            ),
        }
    )
