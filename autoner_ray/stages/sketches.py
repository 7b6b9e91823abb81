"""Mergeable one-pass sketches (engine extensions for corpus-scale
profiling): HyperLogLog distinct counting, Count-Min heavy hitters, a
mergeable quantile sketch, and a consistent-hash ring.

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
    one keyed combine declaring its n_nodes+1 keys (the bounded tier
    up to ``BOUNDED_MAX_KEYS`` nodes)."""
    import numpy as np

    from autoner_ray.functions.hashing import md5_64, md5_64_array
    from autoner_ray.stages.combine import keyed_combine

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

    counts = keyed_combine(
        docs_ds.select_columns(["doc_id"]).map_batches(
            assign, batch_format="pyarrow", batch_size=65536
        ),
        _schema, [("n_docs_before", "sum"), ("n_docs_after", "sum")],
        # keys: the node ids 0..n_nodes of the two rings
        max_keys=n_nodes + 1,
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
