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
3. one bucket-hash shuffle; each bucket sorts locally (it holds a
   contiguous global key range) and emits offset + local index as the
   exact global rank, then the pure function rank -> NTILE bucket.

Rows with EQUAL order values always land in one bucket (searchsorted is
value-deterministic), so ties are broken inside one partition by the
explicit tiebreak column — the composite (value, tiebreak) order is
total and the result is a pure function of the input multiset.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


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
    num_ranges: int | None = None,
):
    """(key, val) rows -> (key, val, rank, ntile) with EXACT global
    rank under (val desc|asc, key asc). ``key`` must be unique and
    ``val`` an int64 (use the cents trick for money).

    Returns a Dataset; rows never gather on the driver — only B range
    counts and the sampled splitters do.
    """
    import ray

    from autoner_ray.cluster import default_num_partitions

    B = num_ranges or default_num_partitions()
    sign = -1 if descending else 1

    # --- pass 1: deterministic evenly-spaced per-block samples -------
    def sample(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table({"v": pa.array([], pa.int64())})
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
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    key_col: pa.array([], pa.int64()),
                    "__v": pa.array([], pa.int64()),
                    "__rb": pa.array([], pa.int32()),
                }
            )
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
        if t.num_columns == 0 or len(t) == 0:
            return pa.table({"rb": pa.array([], pa.int32()),
                             "n": pa.array([], pa.int64())})
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
        empty = pd.DataFrame(
            {
                key_col: pd.Series([], dtype="int64"),
                val_col: pd.Series([], dtype="int64"),
                "rank": pd.Series([], dtype="int64"),
                "ntile": pd.Series([], dtype="int64"),
            }
        )
        if len(df) == 0 or "__v" not in df.columns:
            return empty
        import ray as _ray

        off = _ray.get(offsets_ref)[int(df["__rb"].iloc[0])]
        df = df.sort_values(["__v", key_col], kind="mergesort")
        rank = off + np.arange(1, len(df) + 1, dtype=np.int64)
        return pd.DataFrame(
            {
                key_col: df[key_col].to_numpy(np.int64),
                val_col: sign * df["__v"].to_numpy(np.int64),
                "rank": rank,
                "ntile": _ntile_of_rank(rank, n_total, n_buckets),
            }
        )

    return bucketed.groupby("__rb").map_groups(
        rank_range, batch_format="pandas"
    )


# ---------------------------------------------------------------------------
# 2-D Pareto frontier (skyline), maximize-maximize
# ---------------------------------------------------------------------------

def skyline2d_mask(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Boolean mask of the 2-D Pareto frontier of (x, y), both MAXIMIZED.

    A row survives iff no other row is >= on both axes and > on at
    least one (SQL ``NOT EXISTS`` domination). Exact duplicates never
    dominate each other, so every copy of a frontier point is kept.
    O(n log n): sort x desc / y desc; on distinct points a row is on
    the frontier iff its y strictly exceeds the exclusive prefix max.
    """
    n = len(x)
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = np.lexsort((-y, -x))
    xs, ys = x[order], y[order]
    excl = np.concatenate(
        [[np.iinfo(np.int64).min], np.maximum.accumulate(ys)[:-1]]
    )
    first_keep = ys > excl
    dup = np.zeros(n, dtype=bool)
    dup[1:] = (xs[1:] == xs[:-1]) & (ys[1:] == ys[:-1])
    idx = np.arange(n)
    head = np.maximum.accumulate(np.where(~dup, idx, 0))
    keep_sorted = first_keep[head]
    mask = np.zeros(n, dtype=bool)
    mask[order] = keep_sorted
    return mask


def pareto_frontier(
    rows_ds,
    x_col: str,
    y_col: str,
    out_cols: list[str],
    final_batch=None,
):
    """Distributed skyline: per-block frontier PARTIALS (the frontier
    of a union equals the frontier of the union of per-block
    frontiers — domination is witnessed inside some block of the
    union of partials), then ONE driver-side pass over the
    frontier-sized concatenation. Nothing corpus-sized ever gathers:
    each block contributes only its own frontier (O(log n) points on
    non-adversarial data).

    ``x_col``/``y_col`` must be int64-comparable (cents/epoch tricks
    for money/time). ``final_batch`` post-processes the final arrow
    table (e.g. cents -> dollars)."""

    def partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {c: pa.array([], pa.int64()) for c in out_cols}
            )
        x = t[x_col].to_numpy(zero_copy_only=False).astype(np.int64)
        y = t[y_col].to_numpy(zero_copy_only=False).astype(np.int64)
        m = skyline2d_mask(x, y)
        return t.select(out_cols).filter(pa.array(m))

    parts = rows_ds.map_batches(
        partial, batch_format="pyarrow"
    ).to_pandas()
    x = parts[x_col].to_numpy().astype(np.int64)
    y = parts[y_col].to_numpy().astype(np.int64)
    final = pa.Table.from_pandas(
        parts[skyline2d_mask(x, y)].reset_index(drop=True),
        preserve_index=False,
    ).replace_schema_metadata(None)
    if final_batch is not None:
        final = final_batch(final)
    return final


def weighted_systematic_select(
    rows_ds,
    key_col: str,
    weight_col: str,
    k: int,
    samples_per_block: int = 64,
    num_ranges: int | None = None,
):
    """EXACT distributed weighted systematic sampling: lay the rows on
    the integer weight line in ``key_col`` order and keep the row
    covering each of the ``k`` evenly spaced boundaries — row i is
    selected iff ``floor(cum_i*k/W) > floor((cum_i-w_i)*k/W)`` with
    ``cum`` the inclusive prefix sum and ``W`` the total. Pure integer
    arithmetic, deterministic and resume-stable; selection probability
    is proportional to weight, the classic PPS-systematic design.
    Output size is ``k`` MINUS one per boundary a single heavy row
    spans beyond its first (a row with ``w_i > W/k`` covers 2+
    boundaries but is emitted once — standard PPS-systematic
    behavior, identical in the SQL twin); callers needing exactly k
    rows must cap weights at W/k upstream.

    Same three-pass shape as :func:`exact_ntile`: sampled key-range
    splitters -> per-range EXACT weight sums roll up to the driver (B
    ints) whose cumsums are each range's global weight offset -> each
    range selects its boundary-crossers locally. Rows never gather on
    the driver. ``key`` must be unique int64, ``weight`` positive
    int64; int64 ``cum*k`` bounds this at W*k < 2^63 (use k <= 10^4 at
    10^14 total weight; split the key space beyond that).
    """
    import ray

    from autoner_ray.cluster import default_num_partitions

    B = num_ranges or default_num_partitions()

    def sample(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table({"v": pa.array([], pa.int64())})
        v = np.sort(t[key_col].to_numpy(zero_copy_only=False))
        step = max(1, len(v) // samples_per_block)
        return pa.table({"v": pa.array(v[::step], pa.int64())})

    samp = np.sort(
        rows_ds.map_batches(sample, batch_format="pyarrow")
        .to_pandas()["v"]
        .to_numpy()
    )
    empty_out = pa.table(
        {
            key_col: pa.array([], pa.int64()),
            weight_col: pa.array([], pa.int64()),
        }
    )
    if len(samp) == 0:
        return rows_ds.map_batches(
            lambda t: empty_out, batch_format="pyarrow"
        )
    cuts = np.unique(
        samp[np.linspace(0, len(samp) - 1, B + 1, dtype=np.int64)][1:-1]
    )
    cuts_ref = ray.put(cuts)

    def assign(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    key_col: pa.array([], pa.int64()),
                    weight_col: pa.array([], pa.int64()),
                    "__rb": pa.array([], pa.int32()),
                }
            )
        keys = t[key_col].to_numpy(zero_copy_only=False)
        rb = np.searchsorted(
            ray.get(cuts_ref), keys, side="right"
        ).astype(np.int32)
        return pa.table(
            {
                key_col: t[key_col],
                weight_col: pc.cast(t[weight_col], pa.int64()),
                "__rb": pa.array(rb, pa.int32()),
            }
        )

    bucketed = rows_ds.map_batches(
        assign, batch_format="pyarrow"
    ).materialize()

    def wsum_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table({"rb": pa.array([], pa.int32()),
                             "w": pa.array([], pa.int64())})
        agg = t.select(["__rb", weight_col]).group_by("__rb").aggregate(
            [(weight_col, "sum")]
        )
        return agg.rename_columns(["rb", "w"])

    wsums = (
        bucketed.map_batches(wsum_partial, batch_format="pyarrow")
        .to_pandas()
        .groupby("rb")["w"]
        .sum()
    )
    W = int(wsums.sum())
    full = np.zeros(len(cuts) + 1, dtype=np.int64)
    full[wsums.index.to_numpy()] = wsums.to_numpy()
    offsets = np.concatenate([[0], np.cumsum(full)[:-1]])
    offsets_ref = ray.put(offsets)

    def select_range(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                key_col: pd.Series([], dtype="int64"),
                weight_col: pd.Series([], dtype="int64"),
            }
        )
        if len(df) == 0 or "__rb" not in df.columns or W <= 0:
            return empty
        import ray as _ray

        off = _ray.get(offsets_ref)[int(df["__rb"].iloc[0])]
        df = df.sort_values(key_col, kind="mergesort")
        w = df[weight_col].to_numpy(np.int64)
        cum = off + np.cumsum(w)
        keep = (cum * k) // W > ((cum - w) * k) // W
        df = df[keep]
        return pd.DataFrame(
            {
                key_col: df[key_col].to_numpy(np.int64),
                weight_col: df[weight_col].to_numpy(np.int64),
            }
        )

    return bucketed.groupby("__rb").map_groups(
        select_range, batch_format="pandas"
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
        if t.num_columns == 0 or len(t) == 0:
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
        if t.num_columns == 0 or len(t) == 0:
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


def pack_sequences(rows_ds, key_col: str, weight_col: str,
                   bin_size: int, samples_per_block: int = 64,
                   num_ranges: int | None = None):
    """Greedy streaming sequence packing: lay the rows on the integer
    weight line in ``key_col`` order and assign each row to training
    bin ``prev_cum // bin_size`` (``prev_cum`` = exclusive prefix sum
    of ``weight_col``) — the "concatenate then cut every B tokens"
    layout LLM pretraining loaders use, reported per bin as
    ``(seq_id, n_docs, n_tokens, first_key, last_key)``.

    Scale shape: same three-pass range-bucket prefix sum as
    :func:`weighted_systematic_select` — sampled key splitters, exact
    per-range weight sums rolled up to the driver (B ints) whose
    cumsum is each range's global offset, then a per-range local
    cumsum + bin assignment and a tiny per-range/bin partial. Bins
    straddling a range boundary merge in a final hash-partitioned
    combine on ``seq_id`` (sum/sum/min/max are all re-associative).
    Rows never gather on the driver; int64 cum bound same as the
    sampler's."""
    import ray

    from autoner_ray.cluster import default_num_partitions
    from autoner_ray.stages.combine import keyed_combine

    B = num_ranges or default_num_partitions()

    def sample(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table({"v": pa.array([], pa.int64())})
        v = np.sort(t[key_col].to_numpy(zero_copy_only=False))
        step = max(1, len(v) // samples_per_block)
        return pa.table({"v": pa.array(v[::step], pa.int64())})

    samp = np.sort(
        rows_ds.map_batches(sample, batch_format="pyarrow")
        .to_pandas()["v"]
        .to_numpy()
    )
    empty_out = pa.table(
        {
            "seq_id": pa.array([], pa.int64()),
            "n_docs": pa.array([], pa.int64()),
            "n_tokens": pa.array([], pa.int64()),
            "first_key": pa.array([], pa.int64()),
            "last_key": pa.array([], pa.int64()),
        }
    )
    if len(samp) == 0:
        return rows_ds.map_batches(
            lambda t: empty_out, batch_format="pyarrow"
        )
    cuts = np.unique(
        samp[np.linspace(0, len(samp) - 1, B + 1, dtype=np.int64)][1:-1]
    )
    cuts_ref = ray.put(cuts)

    def assign(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    key_col: pa.array([], pa.int64()),
                    weight_col: pa.array([], pa.int64()),
                    "__rb": pa.array([], pa.int32()),
                }
            )
        keys = t[key_col].to_numpy(zero_copy_only=False)
        rb = np.searchsorted(
            ray.get(cuts_ref), keys, side="right"
        ).astype(np.int32)
        return pa.table(
            {
                key_col: pc.cast(t[key_col], pa.int64()),
                weight_col: pc.cast(t[weight_col], pa.int64()),
                "__rb": pa.array(rb, pa.int32()),
            }
        )

    bucketed = rows_ds.map_batches(
        assign, batch_format="pyarrow"
    ).materialize()

    def wsum_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table({"rb": pa.array([], pa.int32()),
                             "w": pa.array([], pa.int64())})
        agg = t.select(["__rb", weight_col]).group_by("__rb").aggregate(
            [(weight_col, "sum")]
        )
        return agg.rename_columns(["rb", "w"])

    wsums = (
        bucketed.map_batches(wsum_partial, batch_format="pyarrow")
        .to_pandas()
        .groupby("rb")["w"]
        .sum()
    )
    full = np.zeros(len(cuts) + 1, dtype=np.int64)
    if len(wsums):
        full[wsums.index.to_numpy()] = wsums.to_numpy()
    offsets = np.concatenate([[0], np.cumsum(full)[:-1]])
    offsets_ref = ray.put(offsets)

    def bin_partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "seq_id": pd.Series([], dtype="int64"),
                "n_docs": pd.Series([], dtype="int64"),
                "n_tokens": pd.Series([], dtype="int64"),
                "first_key": pd.Series([], dtype="int64"),
                "last_key": pd.Series([], dtype="int64"),
            }
        )
        if len(df) == 0 or "__rb" not in df.columns:
            return empty
        import ray as _ray

        off = _ray.get(offsets_ref)[int(df["__rb"].iloc[0])]
        df = df.sort_values(key_col, kind="mergesort")
        w = df[weight_col].to_numpy(np.int64)
        prev_cum = off + np.cumsum(w) - w
        seq = prev_cum // bin_size
        g = pd.DataFrame(
            {
                "seq_id": seq,
                "one": 1,
                "w": w,
                "k": df[key_col].to_numpy(np.int64),
            }
        ).groupby("seq_id", sort=False)
        out = g.agg(
            n_docs=("one", "sum"),
            n_tokens=("w", "sum"),
            first_key=("k", "min"),
            last_key=("k", "max"),
        ).reset_index()
        return out.astype("int64")

    partials = bucketed.groupby("__rb").map_groups(
        bin_partial, batch_format="pandas"
    )
    return keyed_combine(
        partials, ["seq_id"],
        [("n_docs", "sum"), ("n_tokens", "sum"),
         ("first_key", "min"), ("last_key", "max")],
        part_on=("seq_id",),
    )


def lorenz_deciles(rows_ds, key_col: str, val_col: str):
    """Lorenz-curve decile points behind :func:`gini_inequality`: rows
    rank ascending by (val, key), split into exact NTILE(10) buckets,
    and each decile reports its value mass plus the cumulative share of
    the total in integer ppm — the "bottom d deciles hold X%" curve an
    inequality dashboard plots. Output per decile 1..10:
    (decile, n_rows, decile_value, cum_value_ppm).

    Scale shape: ranks/buckets come from the exact range-partitioned
    NTILE pass (nothing row-sized on the driver); per-decile sums ride
    the bounded 10-key combine and the cumulative fold is driver
    arithmetic."""
    import pyarrow as pa

    from autoner_ray.stages.combine import bounded_key_sum

    ranked = exact_ntile(
        rows_ds, key_col, val_col, n_buckets=10, descending=False
    )

    _p_schema = pa.schema(
        [("decile", pa.int64()), ("n_rows", pa.int64()),
         ("decile_value", pa.int64())]
    )

    def partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return _p_schema.empty_table()
        import pandas as pd

        df = pd.DataFrame(
            {
                "decile": t["ntile"].to_numpy(zero_copy_only=False),
                "v": t[val_col].to_numpy(zero_copy_only=False),
            }
        )
        g = df.groupby("decile", as_index=False).agg(
            n_rows=("v", "size"), decile_value=("v", "sum")
        )
        return pa.Table.from_pandas(
            g, schema=_p_schema, preserve_index=False
        ).replace_schema_metadata(None)

    per_dec = bounded_key_sum(
        ranked.map_batches(partial, batch_format="pyarrow"),
        keys=["decile"], sum_cols=["n_rows", "decile_value"],
    ).to_pandas().sort_values("decile")
    total = int(per_dec["decile_value"].sum())
    cum = 0
    rows = []
    for _, r in per_dec.iterrows():
        cum += int(r["decile_value"])
        rows.append(
            (int(r["decile"]), int(r["n_rows"]),
             int(r["decile_value"]),
             (cum * 1_000_000) // total if total else 0)
        )
    return pa.table(
        {
            "decile": pa.array([r[0] for r in rows], pa.int64()),
            "n_rows": pa.array([r[1] for r in rows], pa.int64()),
            "decile_value": pa.array([r[2] for r in rows], pa.int64()),
            "cum_value_ppm": pa.array([r[3] for r in rows], pa.int64()),
        }
    )


def hoover_index(rows_ds, val_col: str):
    """Hoover (Robin Hood) index — the share of total mass that would
    have to move to equalize the distribution, i.e. the maximal
    vertical Lorenz gap: with S = Σx and n rows,
    ``H·2nS = Σ|n·x_i − S|`` is an integer, floored to ppm. One row:
    (n_rows, total, hoover_ppm). Rank-free — unlike the Gini it needs
    only the totals broadcast, no global ranking pass.

    Scale shape: pass 1 is two scalar aggregates; pass 2 sums
    ``|n·x − S|`` per batch into one tiny combine. int64 bound:
    n·x ≲ 9.2e18 (holds to ~1e9 rows × 1e6-char docs; python-int
    partials beyond)."""
    import numpy as np
    import pyarrow as pa

    from ray.data.aggregate import Count, Sum

    tot = rows_ds.aggregate(Count(alias_name="n"),
                            Sum(val_col, alias_name="s"))
    n = int(tot["n"])
    S = int(tot["s"] or 0)

    def dev_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table({"d": pa.array([], pa.int64())})
        x = t[val_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {"d": pa.array([int(np.abs(n * x - S).sum())], pa.int64())}
        )

    dev = rows_ds.map_batches(
        dev_partial, batch_format="pyarrow", batch_size=65536
    ).sum("d")
    hoover_ppm = (int(dev) * 1_000_000) // (2 * n * S) if n and S else 0
    return pa.table(
        {
            "n_rows": pa.array([n], pa.int64()),
            "total": pa.array([S], pa.int64()),
            "hoover_ppm": pa.array([hoover_ppm], pa.int64()),
        }
    )


def theil_index(rows_ds, val_col: str):
    """Theil T inequality index — the decomposable entropy-based member
    of the family (Gini, Hoover, Theil): T = Σ(x/S)·ln(x·n/S) =
    (Σ x·ln x)/S − ln(S/n). The per-row ``x·ln x`` term quantizes to
    integer micro-nats BEFORE summation (the ``source_word_entropy``
    trick) so the distributed sum is order-independent; the final
    derivation touches floats identically on both sides, rounded 6 dp.
    One row: (n_rows, total, theil). Zero-value rows contribute
    nothing (x·ln x → 0), matching the SQL twin's filter."""
    import math

    import numpy as np
    import pyarrow as pa

    from ray.data.aggregate import Count, Sum

    tot = rows_ds.aggregate(Count(alias_name="n"),
                            Sum(val_col, alias_name="s"))
    n = int(tot["n"])
    S = int(tot["s"] or 0)

    def micro_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table({"m": pa.array([], pa.int64())})
        x = t[val_col].to_numpy(zero_copy_only=False).astype(np.float64)
        x = x[x > 0]
        micro = np.floor(np.log(x) * x * 1e6 + 0.5).astype(np.int64)
        return pa.table({"m": pa.array([int(micro.sum())], pa.int64())})

    m = int(rows_ds.map_batches(
        micro_partial, batch_format="pyarrow", batch_size=65536
    ).sum("m") or 0)
    theil = (
        round(m / 1e6 / float(S) - math.log(float(S) / float(n)), 6)
        if n and S else 0.0
    )
    return pa.table(
        {
            "n_rows": pa.array([n], pa.int64()),
            "total": pa.array([S], pa.int64()),
            "theil": pa.array([theil], pa.float64()),
        }
    )


def atkinson_index(rows_ds, val_col: str):
    """Atkinson inequality index at ε=1 — the welfare-weighted member
    of the family: A = 1 − geometric_mean/arithmetic_mean. The
    per-row ``ln x`` quantizes to integer micro-nats before the
    distributed sum (order-independent), and the final
    ``1 − exp(Σln/n)·n/S`` derivation runs in the twin's float op
    order, rounded 6 dp. One row: (n_rows, total, atkinson).
    Zero values are excluded from the log sum on both sides (ε=1
    Atkinson is undefined at zero; the corpus has none)."""
    import math

    import numpy as np
    import pyarrow as pa

    from ray.data.aggregate import Count, Sum

    tot = rows_ds.aggregate(Count(alias_name="n"),
                            Sum(val_col, alias_name="s"))
    n = int(tot["n"])
    S = int(tot["s"] or 0)

    def micro_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table({"m": pa.array([], pa.int64())})
        x = t[val_col].to_numpy(zero_copy_only=False).astype(np.float64)
        x = x[x > 0]
        micro = np.floor(np.log(x) * 1e6 + 0.5).astype(np.int64)
        return pa.table({"m": pa.array([int(micro.sum())], pa.int64())})

    m = int(rows_ds.map_batches(
        micro_partial, batch_format="pyarrow", batch_size=65536
    ).sum("m") or 0)
    a = (
        round(1.0 - math.exp(m / 1e6 / float(n)) * n / float(S), 6)
        if n and S else 0.0
    )
    return pa.table(
        {
            "n_rows": pa.array([n], pa.int64()),
            "total": pa.array([S], pa.int64()),
            "atkinson": pa.array([a], pa.float64()),
        }
    )
