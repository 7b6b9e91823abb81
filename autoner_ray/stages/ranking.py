"""Exact distributed ranking / NTILE without a driver-side sort.

Ray Data's ``Dataset.sort`` range-partitions and sorts blocks but gives
no global row number, and ``NTILE`` needs EXACT global ranks. The
classic MPP two-pass does it without materializing the table anywhere:

1. deterministic sample of the order key -> range splitters (splitter
   quality affects only balance, never correctness);
2. every row is assigned its range bucket (broadcast splitters,
   vectorized searchsorted); per-bucket EXACT counts roll up to the
   driver (B numbers) whose cumulative sums are the global offset of
   each bucket;
3. one exchange on the bucket; each bucket sorts locally (it holds a
   contiguous global key range) and emits offset + local index as the
   exact global rank, then the pure function rank -> NTILE bucket.

Rows with EQUAL order values always land in one bucket (searchsorted is
value-deterministic), so ties are broken inside one block by the
explicit tiebreak column — the composite (value, tiebreak) order is
total and the result is a pure function of the input multiset.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _ntile_of_rank(rank: np.ndarray, n: int, k: int) -> np.ndarray:
    """SQL NTILE(k): first ``n % k`` buckets get ``n//k + 1`` rows.
    ``rank`` is 1-based."""
    q, rem = divmod(n, k)
    big = rem * (q + 1)
    r0 = rank - 1
    tile = np.where(
        r0 < big,
        r0 // (q + 1) if q + 1 > 0 else 0,
        rem + (np.maximum(r0 - big, 0) // max(q, 1)),
    )
    return (tile + 1).astype(np.int64)


def exact_ntile(
    rows_ds,
    key_col: str,
    val_col: str,
    n_buckets: int = 10,
    descending: bool = True,
    samples_per_block: int = 64,
    num_ranges: int = 8,
):
    """(key, val) rows -> (key, val, rank, ntile) with EXACT global
    rank under (val desc|asc, key asc). ``key`` must be unique and
    ``val`` an int64 (use the cents trick for money).

    Returns a Dataset; rows never gather on the driver — only B range
    counts and the sampled splitters do.
    """
    import ray

    from autoner_ray.stages.combine import exchange

    B = num_ranges
    sign = -1 if descending else 1

    # --- pass 1: deterministic evenly-spaced per-block samples -------
    def sample(t: pa.Table) -> pa.Table:
        v = np.sort(sign * t[val_col].to_numpy(zero_copy_only=False))
        step = max(1, len(v) // samples_per_block)
        return pa.table({"v": pa.array(v[::step], pa.int64())})

    samp = np.sort(
        rows_ds.map_batches(sample, batch_format="pyarrow")
        .to_pandas()["v"]
        .to_numpy()
    )
    if len(samp) == 0:
        return rows_ds.map_batches(
            lambda t: pa.table(
                {
                    key_col: pa.array([], pa.int64()),
                    val_col: pa.array([], pa.int64()),
                    "rank": pa.array([], pa.int64()),
                    "ntile": pa.array([], pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    cuts = np.unique(
        samp[np.linspace(0, len(samp) - 1, B + 1, dtype=np.int64)][1:-1]
    )
    cuts_ref = ray.put(cuts)

    # --- pass 2: bucket assign (materialized: reused by count + sort)
    def assign(t: pa.Table) -> pa.Table:
        v = sign * t[val_col].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        rb = np.searchsorted(ray.get(cuts_ref), v, side="right").astype(
            np.int32
        )
        return pa.table(
            {
                key_col: t[key_col],
                "__v": pa.array(v, pa.int64()),
                "__rb": pa.array(rb, pa.int32()),
            }
        )

    bucketed = rows_ds.map_batches(
        assign, batch_format="pyarrow"
    ).materialize()

    def count_partial(t: pa.Table) -> pa.Table:
        agg = t.select(["__rb"]).group_by("__rb").aggregate(
            [("__rb", "count")]
        )
        return agg.rename_columns(["rb", "n"])

    counts = (
        bucketed.map_batches(count_partial, batch_format="pyarrow")
        .to_pandas()
        .groupby("rb")["n"]
        .sum()
    )
    n_total = int(counts.sum())
    full = np.zeros(len(cuts) + 1, dtype=np.int64)
    full[counts.index.to_numpy()] = counts.to_numpy()
    offsets = np.concatenate([[0], np.cumsum(full)[:-1]])
    offsets_ref = ray.put(offsets)

    # --- pass 3: per-range local sort -> exact global rank -> NTILE
    def rank_range(df: pd.DataFrame) -> pd.DataFrame:
        import ray as _ray

        df = df.sort_values(["__rb", "__v", key_col], kind="mergesort")
        rb = df["__rb"].to_numpy(np.int64)
        pos = np.arange(len(df), dtype=np.int64)
        # each row's position within its range: rows since the range's
        # first row in this sorted block
        first = np.concatenate([[True], rb[1:] != rb[:-1]])
        start = np.maximum.accumulate(np.where(first, pos, 0))
        rank = _ray.get(offsets_ref)[rb] + pos - start + 1
        return pd.DataFrame(
            {
                key_col: df[key_col].to_numpy(np.int64),
                val_col: sign * df["__v"].to_numpy(np.int64),
                "rank": rank,
                "ntile": _ntile_of_rank(rank, n_total, n_buckets),
            }
        )

    return exchange(
        bucketed, ("__rb",), rank_range,
        pa.schema([(key_col, pa.int64()), (val_col, pa.int64()),
                   ("rank", pa.int64()), ("ntile", pa.int64())]),
        batch_format="pandas",
    )


def gini_inequality(rows_ds, key_col: str, val_col: str):
    """Corpus-inequality (Gini/Lorenz) diagnostic over an int64 value
    column: one row ``(n_docs, total, rank_val_sum, gini_ppm)`` with
    ``gini_ppm = floor((2·Σrank·x − (n+1)·Σx)·10⁶ / (n·Σx))`` under the
    exact ascending (value, key) rank — the "how much of the corpus do
    the biggest documents hold" profile that motivates length-capping
    and sampling policy.

    Scale shape: global ranks come from :func:`exact_ntile`'s two-pass
    range ranking (nothing corpus-sized on the driver); the tail is a
    three-integer scalar combine. Integer-exactness bound: per-row
    ``rank·x`` and the block partials must fit int64 (~9.2·10¹⁸ —
    holds to ~10⁸ docs × 10⁶-char values; beyond that, switch the
    partial to per-block python ints or a two-level scaled sum).
    """
    import pyarrow as pa

    ranked = exact_ntile(
        rows_ds, key_col, val_col, n_buckets=1, descending=False
    )

    def partial(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table(
                {
                    "n_docs": pa.array([], pa.int64()),
                    "total": pa.array([], pa.int64()),
                    "rank_val_sum": pa.array([], pa.int64()),
                }
            )
        v = t[val_col].to_numpy(zero_copy_only=False).astype(np.int64)
        r = t["rank"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "n_docs": pa.array([len(v)], pa.int64()),
                "total": pa.array([int(v.sum())], pa.int64()),
                "rank_val_sum": pa.array([int((r * v).sum())], pa.int64()),
            }
        )

    def finish(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table(
                {
                    "n_docs": pa.array([], pa.int64()),
                    "total": pa.array([], pa.int64()),
                    "rank_val_sum": pa.array([], pa.int64()),
                    "gini_ppm": pa.array([], pa.int64()),
                }
            )
        n = int(pa.compute.sum(t["n_docs"]).as_py() or 0)
        tot = int(pa.compute.sum(t["total"]).as_py() or 0)
        s = int(pa.compute.sum(t["rank_val_sum"]).as_py() or 0)
        gini = (
            ((2 * s - (n + 1) * tot) * 1_000_000) // (n * tot)
            if n and tot else 0
        )
        return pa.table(
            {
                "n_docs": pa.array([n], pa.int64()),
                "total": pa.array([tot], pa.int64()),
                "rank_val_sum": pa.array([s], pa.int64()),
                "gini_ppm": pa.array([gini], pa.int64()),
            }
        )

    return (
        ranked.map_batches(partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(finish, batch_format="pyarrow", batch_size=None)
    )
