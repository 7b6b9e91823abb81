"""Relational operator demos over the TPC-H-ish tables.

Each function is an engine-capability probe with an exact DuckDB oracle in
``__ray_entry__.oracle_sql``:
- q1_pricing_summary: scan -> vectorized compute -> multi-agg groupby
  (avgs derived from sums/counts so every aggregate is a mergeable partial)
- top_customers_by_revenue: large-large hash join (Dataset.join,
  hash-partitioned) + broadcast dim lookup + groupby + sort/limit
- brand_revenue: broadcast small-side join inside map_batches (no shuffle)
- region_supplier_count: broadcast dim-chain join
- top_orders: sort + limit
- distinct_segments: distinct via groupby

Money aggregates are summed as integer CENTS (``floor(x*100 + 0.5)`` with
the same IEEE expression tree in engine and oracle) so sums are exact and
independent of summation order; they are exposed as dollars via
``cents / 100.0`` (a deterministic double). Plain 6-dp rounding is only
used for ratios of exactly-representable values.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from autoner_ray.cluster import default_num_partitions


def _rev_cents(price: pa.Array, discount: pa.Array) -> pa.Array:
    """int64 cents of price*(1-discount); floor(x*100+0.5) — see module doc.

    Oracle twin: ``CAST(floor(l_extendedprice*(1-l_discount)*100 + 0.5) AS
    BIGINT)``.
    """
    p = price.to_numpy(zero_copy_only=False).astype(np.float64)
    d = discount.to_numpy(zero_copy_only=False).astype(np.float64)
    cents = np.floor(p * (1.0 - d) * 100.0 + 0.5).astype(np.int64)
    return pa.array(cents, pa.int64())


def _cents_to_dollars(t: pa.Table, mapping: dict[str, str]) -> pa.Table:
    for cents_col, out_col in mapping.items():
        dollars = pc.divide(
            pc.cast(t[cents_col], pa.float64()), pa.scalar(100.0)
        )
        t = t.drop_columns([cents_col]).append_column(out_col, dollars)
    return t


def _read(sf_dir: str, table: str, columns=None):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def q1_pricing_summary(sf_dir: str, ship_cutoff: str = "1998-09-01"):
    from autoner_ray.stages.combine import bounded_key_sum

    ds = _read(
        sf_dir,
        "lineitem",
        [
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_shipdate",
        ],
    )

    cutoff = pa.scalar(ship_cutoff).cast(pa.timestamp("us"))

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t["l_shipdate"], cutoff))
        base = t["l_extendedprice"].combine_chunks()
        base_cents = pa.array(
            np.floor(
                base.to_numpy(zero_copy_only=False) * 100.0 + 0.5
            ).astype(np.int64),
            pa.int64(),
        )
        tbl = pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "l_quantity": t["l_quantity"],
                "base_cents": base_cents,
                "disc_cents": _rev_cents(
                    base, t["l_discount"].combine_chunks()
                ),
            }
        )
        # per-batch combiner (arrow C++ hash aggregate): the global
        # shuffle then moves ~|groups| rows per batch, not per lineitem.
        # quantities are integer-valued and money is integer cents, so
        # re-associating the sums is exact.
        part = tbl.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [
                ("l_quantity", "sum"),
                ("base_cents", "sum"),
                ("disc_cents", "sum"),
                ("l_quantity", "count"),
            ]
        )
        return part.rename_columns(
            [
                "l_returnflag",
                "l_linestatus",
                "l_quantity",
                "base_cents",
                "disc_cents",
                "n",
            ]
        )

    # (returnflag, linestatus) cardinality is bounded (≤ a dozen pairs),
    # so the tail is a shuffle-free two-level combine, not a sort-shuffle.
    agg = bounded_key_sum(
        ds.map_batches(prep, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        ["l_quantity", "base_cents", "disc_cents", "n"],
    ).map_batches(
        lambda t: t.rename_columns(
            [
                "l_returnflag",
                "l_linestatus",
                "sum_qty",
                "base_cents",
                "disc_cents",
                "count_order",
            ]
        ),
        batch_format="pyarrow",
    )

    def finish(t: pa.Table) -> pa.Table:
        t = _cents_to_dollars(
            t, {"base_cents": "sum_base_price", "disc_cents": "sum_disc_price"}
        )
        avg_qty = pc.round(
            pc.divide(t["sum_qty"], pc.cast(t["count_order"], pa.float64())),
            ndigits=6,
        )
        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "sum_qty": t["sum_qty"],
                "sum_base_price": t["sum_base_price"],
                "sum_disc_price": t["sum_disc_price"],
                "avg_qty": avg_qty,
                "count_order": t["count_order"],
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def _customer_revenue_partials(sf_dir: str,
                               broadcast_max_rows: int = 5_000_000):
    """(o_custkey, order_cents) partial-sum stream for lineitem ⋈ orders.

    TIERED join (same pattern as verify_jaccard / neardup keep-one): an
    orders side up to ``broadcast_max_rows`` (≈80 MB as two int64
    arrays) ships once as a sorted-array lookup and each lineitem batch
    resolves custkeys locally with ``np.searchsorted`` — no shuffle of
    either table. Above the bound (TPC-H sf≳30) the hash-partitioned
    large-large ``cogroup_join`` takes over with identical results.
    Rows are PARTIALS (multiple per custkey); consumers sum them."""
    line = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"]
    )

    def revenue_partial(t: pa.Table) -> pa.Table:
        """Per-batch combiner: sum cents per orderkey with arrow's C++
        hash aggregate — the global all-to-all then moves one row per
        (orderkey, batch) instead of one per lineitem."""
        tbl = pa.table(
            {
                "l_orderkey": t["l_orderkey"],
                "order_cents": _rev_cents(
                    t["l_extendedprice"].combine_chunks(),
                    t["l_discount"].combine_chunks(),
                ),
            }
        )
        agg = tbl.group_by("l_orderkey").aggregate([("order_cents", "sum")])
        return agg.rename_columns(["l_orderkey", "order_cents"])

    import pyarrow.parquet as pq

    n_orders = pq.read_metadata(f"{sf_dir}/orders.parquet").num_rows
    if n_orders <= broadcast_max_rows:
        import numpy as np
        import ray

        ot = pq.read_table(
            f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
        )
        okeys = ot["o_orderkey"].to_numpy()
        order_ix = np.argsort(okeys, kind="stable")
        lookup_ref = ray.put(
            (okeys[order_ix], ot["o_custkey"].to_numpy()[order_ix])
        )

        # single fused pass over lineitem: cents -> searchsorted custkey
        # -> per-batch custkey combine. The orderkey grouping disappears
        # entirely; large batches make each partial ≤ |customers| rows.
        def cust_partial_direct(t: pa.Table) -> pa.Table:
            keys, custs = ray.get(lookup_ref)
            lkeys = t["l_orderkey"].to_numpy()
            if len(keys) == 0:
                return pa.table(
                    {
                        "o_custkey": pa.array([], pa.int64()),
                        "order_cents": pa.array([], pa.int64()),
                    }
                )
            pos = np.clip(np.searchsorted(keys, lkeys), 0, len(keys) - 1)
            # inner-join semantics (same as the cogroup tier): drop
            # lineitems whose orderkey is absent from orders instead of
            # silently attributing them to the nearest customer
            hit = keys[pos] == lkeys
            cents = _rev_cents(
                t["l_extendedprice"].combine_chunks(),
                t["l_discount"].combine_chunks(),
            )
            if not hit.all():
                pos = pos[hit]
                cents = cents.filter(pa.array(hit))
            agg = pa.table(
                {
                    "o_custkey": pa.array(custs[pos], pa.int64()),
                    "order_cents": cents,
                }
            ).group_by("o_custkey").aggregate([("order_cents", "sum")])
            return agg.rename_columns(["o_custkey", "order_cents"])

        joined_partials = line.map_batches(
            cust_partial_direct, batch_format="pyarrow", batch_size=65536
        )
    else:
        # join the pre-combined partials directly: revenue sums are
        # associative, so the join tolerates multiple rows per orderkey
        # and the expensive global orderkey groupby disappears entirely
        order_rev = line.map_batches(
            revenue_partial, batch_format="pyarrow"
        )
        orders = _read(
            sf_dir, "orders", ["o_orderkey", "o_custkey"]
        ).map_batches(
            lambda t: pa.table(
                {"l_orderkey": t["o_orderkey"], "o_custkey": t["o_custkey"]}
            ),
            batch_format="pyarrow",
        )
        # task-based cogroup join: Ray 2.49's native Dataset.join spawns
        # one aggregator ACTOR per partition (~0.1 s spawn each, measured
        # 8/16/32 = 4.7/5.8/7.8 s for this query at sf0.1) — a task-pool
        # shuffle reuses warm workers and carries no per-run fleet cost
        from autoner_ray.stages.joins import cogroup_join

        joined = cogroup_join(order_rev, orders, on=("l_orderkey",))

        def cust_partial(t: pa.Table) -> pa.Table:
            agg = t.select(["o_custkey", "order_cents"]).group_by(
                "o_custkey"
            ).aggregate([("order_cents", "sum")])
            return agg.rename_columns(["o_custkey", "order_cents"])

        joined_partials = joined.map_batches(
            cust_partial, batch_format="pyarrow"
        )
    return joined_partials


def top_customers_by_revenue(sf_dir: str, k: int = 10,
                             broadcast_max_rows: int = 5_000_000):
    """lineitem ⋈ orders -> revenue per customer -> top k -> name lookup
    restricted to the k keys (tiered join: see
    ``_customer_revenue_partials``)."""
    joined_partials = _customer_revenue_partials(
        sf_dir, broadcast_max_rows
    )

    # ONE hash shuffle on custkey, then per-partition sum + top-k: a
    # global top-k never needs the all-to-all SORT of the full customer
    # revenue table — each partition holds every partial for its keys,
    # so its local top-k is exact and the driver merges ≤ P×k rows.
    from autoner_ray.cluster import default_num_partitions
    from autoner_ray.stages.joins import _stable_part_col

    P = default_num_partitions()

    def add_part(t: pa.Table) -> pa.Table:
        return t.append_column(
            "part", _stable_part_col(t, ("o_custkey",), P)
        )

    def part_topk(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_custkey" not in df.columns:
            return pd.DataFrame(
                {
                    "o_custkey": pd.Series(dtype="int64"),
                    "cents": pd.Series(dtype="int64"),
                }
            )
        sums = (
            df.groupby("o_custkey", sort=False)["order_cents"]
            .sum()
            .reset_index(name="cents")
        )
        return sums.sort_values(
            ["cents", "o_custkey"], ascending=[False, True],
            kind="mergesort",
        ).head(k)

    cand = (
        joined_partials.map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(part_topk, batch_format="pandas")
        .to_pandas()
    )  # ≤ P×k rows

    # top-k FIRST (cents is a monotone proxy for revenue, so the sort
    # order is identical), then fetch names for only those k keys — the
    # customer dimension is never materialized or broadcast (at TPC-H
    # sf100 it is 15M rows; the keyset is k=10).
    topk = cand.sort_values(
        ["cents", "o_custkey"], ascending=[False, True], kind="mergesort"
    ).head(k).reset_index(drop=True)
    keys = pa.array(topk["o_custkey"].tolist(), pa.int64())

    def pick(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t["c_custkey"], value_set=keys))

    names = (
        _read(sf_dir, "customer", ["c_custkey", "c_name"])
        .map_batches(pick, batch_format="pyarrow")
        .to_pandas()
    )  # exactly k rows
    out = topk.merge(
        names, left_on="o_custkey", right_on="c_custkey", how="left"
    )
    out["revenue"] = out["cents"].astype("float64") / 100.0
    out = out.sort_values(
        ["revenue", "c_custkey"], ascending=[False, True], kind="mergesort"
    ).reset_index(drop=True)
    return out[["c_custkey", "c_name", "revenue"]]


def brand_revenue(sf_dir: str):
    """Broadcast small-side (part) lookup inside map_batches — no shuffle
    for the join itself, then a tiny groupby over partials."""
    import ray
    from ray.data.aggregate import Sum

    part = _read(sf_dir, "part", ["p_partkey", "p_brand"]).to_pandas()
    brand_ref = ray.put(dict(zip(part["p_partkey"], part["p_brand"])))

    line = _read(
        sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"]
    )

    class BrandRev:
        def __init__(self) -> None:
            import pandas as pd

            # partkey -> brand as a pandas Series: vectorized gather in
            # __call__ instead of a per-row dict loop
            self.brand = pd.Series(ray.get(brand_ref))

        def __call__(self, t: pa.Table) -> pa.Table:
            import pandas as pd

            cents = _rev_cents(
                t["l_extendedprice"].combine_chunks(),
                t["l_discount"].combine_chunks(),
            ).to_numpy()
            brands = self.brand.reindex(
                t["l_partkey"].to_numpy(zero_copy_only=False)
            ).to_numpy()
            acc = (
                pd.DataFrame({"p_brand": brands, "cents": cents})
                .groupby("p_brand", as_index=False, sort=False)["cents"]
                .sum()
            )
            return pa.table(
                {
                    "p_brand": pa.array(acc["p_brand"], pa.string()),
                    "cents": pa.array(acc["cents"], pa.int64()),
                }
            )

    agg = (
        line.map_batches(BrandRev, batch_format="pyarrow", concurrency=2)
        .groupby("p_brand")
        .aggregate(Sum("cents", alias_name="cents"))
    )
    return agg.map_batches(
        lambda t: _cents_to_dollars(t, {"cents": "revenue"}).select(
            ["p_brand", "revenue"]
        ),
        batch_format="pyarrow",
    )


def region_supplier_count(sf_dir: str):
    """Dim-chain broadcast: region ⋈ nation driver-side, supplier streamed."""
    import ray

    region = _read(sf_dir, "region").to_pandas()
    nation = _read(sf_dir, "nation").to_pandas()
    n2r = nation.merge(
        region, left_on="n_regionkey", right_on="r_regionkey"
    ).set_index("n_nationkey")["r_name"]
    lookup_ref = ray.put(n2r.to_dict())

    sup = _read(sf_dir, "supplier", ["s_nationkey"])

    class RegionOf:
        def __init__(self) -> None:
            self.n2r = ray.get(lookup_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            # vectorized: nationkey -> region name gather (25 nations),
            # then an arrow value_counts — no per-row Python
            rn = pd.Series(t["s_nationkey"].to_numpy(zero_copy_only=False))
            vc = rn.map(self.n2r).value_counts()
            return pa.table(
                {
                    "r_name": pa.array(vc.index.tolist(), pa.string()),
                    "suppliers": pa.array(vc.to_numpy(), pa.int64()),
                }
            )

    from autoner_ray.stages.combine import bounded_key_sum

    # 5 regions: shuffle-free bounded-key combine over the partials
    return bounded_key_sum(
        sup.map_batches(RegionOf, batch_format="pyarrow", concurrency=2),
        ["r_name"], ["suppliers"],
    )


def top_orders(sf_dir: str, k: int = 10):
    """Global top-k without a global sort: every batch emits its local
    top-k (exact — a global winner is a winner in its own batch), the
    ≤ k·blocks candidates coalesce to one block, and a single final
    task picks the k. The orders table never shuffles."""
    ds = _read(
        sf_dir, "orders", ["o_orderkey", "o_totalprice", "o_orderpriority"]
    )
    keys = ["o_totalprice", "o_orderkey"]
    order = [(keys[0], "descending"), (keys[1], "ascending")]

    def batch_topk(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.schema(
                [
                    ("o_orderkey", pa.int64()),
                    ("o_totalprice", pa.float64()),
                    ("o_orderpriority", pa.string()),
                ]
            ).empty_table()
        return t.sort_by(order).slice(0, k)

    return (
        ds.map_batches(batch_topk, batch_format="pyarrow",
                       batch_size=65536)
        .repartition(1)
        .map_batches(batch_topk, batch_format="pyarrow", batch_size=None)
    )


def distinct_segments(sf_dir: str):
    """5 market segments: per-batch value_counts partials + shuffle-free
    bounded-key combine."""
    from autoner_ray.stages.combine import bounded_key_sum

    def seg_counts(t: pa.Table) -> pa.Table:
        vc = t["c_mktsegment"].value_counts()
        return pa.table(
            {
                "c_mktsegment": vc.field("values"),
                "n": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    return bounded_key_sum(
        _read(sf_dir, "customer", ["c_mktsegment"]).map_batches(
            seg_counts, batch_format="pyarrow", batch_size=65536
        ),
        ["c_mktsegment"], ["n"],
    )


def customers_without_orders(sf_dir: str, since: str = "2000-01-01"):
    """ANTI-join: customers with no order since ``since``. The orders
    keyset is aggregated distributed (filter pushed to the read, then
    distinct custkeys ≪ orders rows), broadcast once, and the customer
    stream filters against it — no shuffle of either full table."""
    import pyarrow.compute as pc
    import ray

    import ray.data as rd

    cutoff = pa.scalar(since).cast(pa.timestamp("us"))
    keys = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey"],
        # predicate pushed into the parquet scan
        filter=pc.field("o_orderdate") >= cutoff,
    ).unique("o_custkey")
    keys_ref = ray.put(pa.array(keys, pa.int64()))

    class AntiFilter:
        def __init__(self) -> None:
            self.keys = ray.get(keys_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            mask = pc.invert(
                pc.is_in(t["c_custkey"], value_set=self.keys)
            )
            return t.filter(mask)

    return (
        _read(sf_dir, "customer", ["c_custkey", "c_name"])
        .map_batches(AntiFilter, batch_format="pyarrow", concurrency=2)
    )


def top_order_per_customer(sf_dir: str):
    """Top-1-per-group: each customer's highest-value order (ties break
    to the smallest orderkey).

    Vectorized two-phase argmax: a per-batch pandas winner-per-custkey
    combiner (sort + drop_duplicates — no per-row Python), then ONE hash
    shuffle on custkey and the same vectorized reduce per partition.
    (Rounds 1–3a packed (cents, orderkey) into 40-char decimal strings
    for a Ray string-Max aggregate — correct, but the row-wise f-string
    packing was the stage's hot loop.)"""
    import numpy as np
    import pandas as pd

    from autoner_ray.cluster import default_num_partitions
    from autoner_ray.stages.joins import _stable_part_col

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"]
    )
    num_partitions = default_num_partitions()

    def winners(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["o_custkey", "cents", "o_orderkey"],
            ascending=[True, False, True], kind="mergesort",
        )
        return df.drop_duplicates("o_custkey", keep="first")

    def batch_max(t: pa.Table) -> pa.Table:
        cents = np.floor(
            t["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0 + 0.5
        ).astype(np.int64)
        df = pd.DataFrame(
            {
                "o_custkey": t["o_custkey"].to_numpy(),
                "o_orderkey": t["o_orderkey"].to_numpy(),
                "cents": cents,
            }
        )
        out = winners(df)
        tbl = pa.Table.from_pandas(
            out, preserve_index=False
        ).replace_schema_metadata(None)
        return tbl.append_column(
            "part", _stable_part_col(tbl, ("o_custkey",), num_partitions)
        )

    def reduce_part(df: pd.DataFrame) -> pd.DataFrame:
        out = winners(df)
        return pd.DataFrame(
            {
                "o_custkey": out["o_custkey"].to_numpy(),
                "o_orderkey": out["o_orderkey"].to_numpy(),
                "o_totalprice": out["cents"].to_numpy().astype(np.float64)
                / 100.0,
            }
        )

    return (
        orders.map_batches(batch_max, batch_format="pyarrow")
        .groupby("part")
        .map_groups(reduce_part, batch_format="pandas")
    )


def order_price_quantiles(sf_dir: str, ps=(0.25, 0.5, 0.75)):
    """EXACT quantiles of o_totalprice, distributed: per-batch integer-
    cents value counts (combiner) -> one small groupby -> driver-side
    interpolation over the (bounded-cardinality) histogram. Matches
    DuckDB ``quantile_cont`` bit-for-bit because both interpolate the
    same integers: v = a + (b - a) * frac at position (n-1)*p."""
    from autoner_ray.stages.combine import bounded_key_sum

    orders = _read(sf_dir, "orders", ["o_totalprice"])

    def cents_counts(t: pa.Table) -> pa.Table:
        cents = np.floor(
            t["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0 + 0.5
        ).astype(np.int64)
        vals, counts = np.unique(cents, return_counts=True)
        return pa.table(
            {
                "cents": pa.array(vals, pa.int64()),
                "n": pa.array(counts, pa.int64()),
            }
        )

    # the histogram key set is bounded by the price range, so the
    # combine is the shuffle-free two-level one
    hist = (
        bounded_key_sum(
            orders.map_batches(cents_counts, batch_format="pyarrow"),
            ["cents"], ["n"],
        )
        .to_pandas()
        .sort_values("cents")
    )
    vals = hist["cents"].to_numpy()
    counts = hist["n"].to_numpy()
    cum = counts.cumsum()
    n = int(cum[-1])

    def value_at(idx: int) -> int:
        return int(vals[np.searchsorted(cum, idx + 1)])

    out_p, out_v = [], []
    for p in ps:
        pos = (n - 1) * p
        lo, hi = int(np.floor(pos)), int(np.ceil(pos))
        a, b = value_at(lo), value_at(hi)
        v = a + (b - a) * (pos - lo)
        out_p.append(p)
        out_v.append(round(v / 100.0, 6))
    return pa.table(
        {
            "p": pa.array(out_p, pa.float64()),
            "o_totalprice_quantile": pa.array(out_v, pa.float64()),
        }
    )


def customer_revenue_ntile(sf_dir: str, n_buckets: int = 4):
    """EXACT global revenue rank + NTILE(n) for every customer — the
    SQL window ``ROW_NUMBER()/NTILE() OVER (ORDER BY revenue DESC,
    custkey)`` without a global sort or any driver-side row gather.

    Two distributed steps: (1) the tiered lineitem ⋈ orders partials
    (see ``_customer_revenue_partials``) are hash-combined to one row
    per customer; (2) ``stages.ranking.exact_ntile`` range-buckets by
    sampled splitters, rolls up per-bucket counts (B ints on the
    driver), and each bucket emits offset+local-index as the exact
    global rank. Scale shape: the only all-to-alls are one custkey hash
    shuffle and one range shuffle of the (key, cents) pairs."""
    from autoner_ray.stages.joins import _stable_part_col
    from autoner_ray.stages.ranking import exact_ntile

    partials = _customer_revenue_partials(sf_dir)
    P = default_num_partitions()

    def add_part(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "o_custkey": pa.array([], pa.int64()),
                    "order_cents": pa.array([], pa.int64()),
                    "part": pa.array([], pa.int32()),
                }
            )
        return t.append_column(
            "part", _stable_part_col(t, ("o_custkey",), P)
        )

    def sum_group(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_custkey" not in df.columns:
            return pd.DataFrame(
                {
                    "o_custkey": pd.Series(dtype="int64"),
                    "cents": pd.Series(dtype="int64"),
                }
            )
        return (
            df.groupby("o_custkey", sort=False)["order_cents"]
            .sum()
            .reset_index(name="cents")
        )

    rev = (
        partials.map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(sum_group, batch_format="pandas")
    )
    ranked = exact_ntile(
        rev,
        key_col="o_custkey",
        val_col="cents",
        n_buckets=n_buckets,
        descending=True,
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "o_custkey": pa.array([], pa.int64()),
                    "revenue": pa.array([], pa.float64()),
                    "revenue_rank": pa.array([], pa.int64()),
                    "revenue_ntile": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "o_custkey": t["o_custkey"],
                "revenue": pc.divide(
                    pc.cast(t["cents"], pa.float64()), 100.0
                ),
                "revenue_rank": t["rank"],
                "revenue_ntile": t["ntile"],
            }
        )

    return ranked.map_batches(finish, batch_format="pyarrow")


def order_pareto_frontier(sf_dir: str):
    """2-D Pareto frontier of orders maximizing (o_totalprice,
    o_orderdate): "no later order was also more expensive". Oracle is
    the SQL ``NOT EXISTS`` domination query.

    Scale shape (``stages.ranking.pareto_frontier``): one streaming
    pass emits per-block frontier partials (frontiers compose under
    union), and only the frontier-sized concatenation reaches the
    driver — never the orders table."""
    from autoner_ray.stages.ranking import pareto_frontier

    def prep(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "o_orderkey": pa.array([], pa.int64()),
                    "cents": pa.array([], pa.int64()),
                    "date_us": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "cents": pa.array(
                    np.floor(
                        t["o_totalprice"].to_numpy(zero_copy_only=False)
                        * 100.0
                        + 0.5
                    ).astype(np.int64),
                    pa.int64(),
                ),
                "date_us": pc.cast(t["o_orderdate"], pa.int64()),
            }
        )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "o_totalprice": pc.divide(
                    pc.cast(t["cents"], pa.float64()), 100.0
                ),
                "o_orderdate": pc.cast(
                    t["date_us"], pa.timestamp("us")
                ),
            }
        )

    rows = _read(
        sf_dir, "orders", ["o_orderkey", "o_totalprice", "o_orderdate"]
    ).map_batches(prep, batch_format="pyarrow")
    return pareto_frontier(
        rows,
        x_col="cents",
        y_col="date_us",
        out_cols=["o_orderkey", "cents", "date_us"],
        final_batch=finish,
    )


def orders_monthly_trend(sf_dir: str):
    """Month-over-month revenue trend: per-month order count + revenue,
    plus the delta vs the previous month (NULL for the first month) —
    the aggregate->window composition (GROUP BY then LAG).

    Scale shape: month cardinality is bounded (~10³ for decades), so
    the per-batch cents partials take the shuffle-free two-level
    combine; the LAG runs over the tiny combined table in one task.
    Exact int-cents arithmetic end to end (oracle twin:
    ``cents - lag(cents)``)."""
    import numpy as np

    from autoner_ray.stages.combine import bounded_key_sum

    def month_partial(t: pa.Table) -> pa.Table:
        month = pc.floor_temporal(
            t["o_orderdate"].combine_chunks(), unit="month"
        )
        price = t["o_totalprice"].to_numpy(zero_copy_only=False)
        cents = np.floor(price * 100.0 + 0.5).astype(np.int64)
        agg = (
            pa.table({"month": month, "cents": pa.array(cents, pa.int64())})
            .group_by("month")
            .aggregate([("cents", "count"), ("cents", "sum")])
        )
        return agg.rename_columns(["month", "n_orders", "cents"])

    agg = bounded_key_sum(
        _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"]).map_batches(
            month_partial, batch_format="pyarrow", batch_size=65536
        ),
        ["month"], ["n_orders", "cents"],
    )

    def lag_finish(t: pa.Table) -> pa.Table:
        order = pc.sort_indices(t["month"])
        t = t.take(order)
        cents = t["cents"].to_numpy(zero_copy_only=False)
        delta = np.empty(len(cents), np.float64)
        delta[1:] = (cents[1:] - cents[:-1]) / 100.0
        mask = np.zeros(len(cents), bool)
        if len(cents):
            delta[0] = 0.0  # masked below
            mask[0] = True
        return pa.table(
            {
                "month": t["month"],
                "n_orders": t["n_orders"],
                "revenue": pc.divide(
                    pc.cast(t["cents"], pa.float64()), pa.scalar(100.0)
                ),
                "mom_delta": pa.array(delta, pa.float64(), mask=mask),
            }
        )

    # single block by construction after bounded_key_sum's final combine
    return agg.map_batches(
        lag_finish, batch_format="pyarrow", batch_size=None
    )


def customer_order_recency(sf_dir: str):
    """LEFT OUTER join: every customer with order count and most recent
    order date; customers with no orders keep ``n_orders = 0`` and a
    NULL ``last_order_date`` (outer semantics the anti-join and inner
    joins don't cover).

    Scale shape: orders pre-combine per batch to ≤ |custkeys-in-batch|
    (count, max-date) partials — count and max re-associate — then one
    groupby over partials; the join is the hash-partitioned cogroup
    with ``join_type="left outer"``, so neither full table broadcasts
    and unmatched customers survive partition-locally."""
    from ray.data.aggregate import Max, Sum

    from autoner_ray.stages.joins import cogroup_join

    def order_partial(t: pa.Table) -> pa.Table:
        agg = (
            t.group_by("o_custkey")
            .aggregate([("o_orderkey", "count"), ("o_orderdate", "max")])
        )
        return agg.rename_columns(["c_custkey", "n_orders", "last_date"])

    per_cust = (
        _read(sf_dir, "orders",
              ["o_custkey", "o_orderkey", "o_orderdate"])
        .map_batches(order_partial, batch_format="pyarrow",
                     batch_size=65536)
        .groupby("c_custkey")
        .aggregate(
            Sum("n_orders", alias_name="n_orders"),
            Max("last_date", alias_name="last_order_date"),
        )
    )

    joined = cogroup_join(
        _read(sf_dir, "customer", ["c_custkey", "c_name"]),
        per_cust,
        on=("c_custkey",),
        join_type="left outer",
    )

    def fill(t: pa.Table) -> pa.Table:
        n = pc.fill_null(pc.cast(t["n_orders"], pa.int64()), 0)
        return pa.table(
            {
                "c_custkey": t["c_custkey"],
                "c_name": t["c_name"],
                "n_orders": n,
                "last_order_date": t["last_order_date"],
            }
        )

    return joined.map_batches(fill, batch_format="pyarrow")


def nation_revenue(sf_dir: str):
    """Revenue per customer nation (TPC-H Q5-shaped rollup without the
    supplier co-location predicate): lineitem ⋈ orders ⋈ customer ⋈
    nation, grouped by nation name.

    Scale shape: the heavy lineitem ⋈ orders leg reuses the TIERED
    ``_customer_revenue_partials`` (broadcast searchsorted under 5M
    orders, large-large cogroup above); the custkey → nationkey map is
    a sorted-array broadcast (two int64 arrays, ~16 bytes/customer —
    beyond ~10⁹ customers swap it for one more cogroup hop) and
    nation itself is a 25-row dim; the tail is a shuffle-free bounded
    combine over ≤ 25 nation keys. Exact int-cents end to end."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray

    from autoner_ray.stages.combine import bounded_key_sum

    ct = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    ckeys = ct["c_custkey"].to_numpy()
    cix = np.argsort(ckeys, kind="stable")
    cust_ref = ray.put((ckeys[cix], ct["c_nationkey"].to_numpy()[cix]))
    nt = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    names = dict(
        zip(nt["n_nationkey"].to_pylist(), nt["n_name"].to_pylist())
    )
    names_ref = ray.put(names)

    def to_nation(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "n_nationkey": pa.array([], pa.int64()),
                "cents": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        keys, nats = ray.get(cust_ref)
        ck = t["o_custkey"].to_numpy(zero_copy_only=False)
        if len(keys) == 0:
            return empty
        pos = np.clip(np.searchsorted(keys, ck), 0, len(keys) - 1)
        hit = keys[pos] == ck  # inner-join semantics on missing custkey
        cents = t["order_cents"]
        if not hit.all():
            pos = pos[hit]
            cents = cents.filter(pa.array(hit))
        agg = pa.table(
            {
                "n_nationkey": pa.array(nats[pos], pa.int64()),
                "cents": cents,
            }
        ).group_by("n_nationkey").aggregate([("cents", "sum")])
        return agg.rename_columns(["n_nationkey", "cents"])

    agg = bounded_key_sum(
        _customer_revenue_partials(sf_dir).map_batches(
            to_nation, batch_format="pyarrow", batch_size=65536
        ),
        ["n_nationkey"], ["cents"],
    )

    def finish(t: pa.Table) -> pa.Table:
        nm = ray.get(names_ref)
        return pa.table(
            {
                "n_name": pa.array(
                    [nm[k] for k in t["n_nationkey"].to_pylist()],
                    pa.string(),
                ),
                "revenue": pc.divide(
                    pc.cast(t["cents"], pa.float64()), 100.0
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def order_ship_delay_hist(sf_dir: str, broadcast_max_rows: int = 5_000_000):
    """Histogram of shipping delay in calendar days (l_shipdate vs the
    order's o_orderdate) — the fulfillment-latency distribution, a
    date-arithmetic join profile.

    Scale shape: same TIERED orderkey resolution as
    ``_customer_revenue_partials`` — a sorted (orderkey -> orderdate)
    broadcast under ``broadcast_max_rows``, the large-large cogroup
    join above; delays are bounded small integers, so the tail is the
    shuffle-free bounded combine."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray

    from autoner_ray.stages.combine import bounded_key_sum

    US_PER_DAY = 86_400_000_000
    line = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])

    n_orders = pq.read_metadata(f"{sf_dir}/orders.parquet").num_rows
    if n_orders <= broadcast_max_rows:
        ot = pq.read_table(
            f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderdate"]
        )
        okeys = ot["o_orderkey"].to_numpy()
        ix = np.argsort(okeys, kind="stable")
        odays = (
            ot["o_orderdate"].cast(pa.int64()).to_numpy() // US_PER_DAY
        )
        lookup_ref = ray.put((okeys[ix], odays[ix]))

        def delay_partial(t: pa.Table) -> pa.Table:
            keys, days = ray.get(lookup_ref)
            lkeys = t["l_orderkey"].to_numpy(zero_copy_only=False)
            if len(keys) == 0:
                return pa.table(
                    {
                        "delay_days": pa.array([], pa.int64()),
                        "n": pa.array([], pa.int64()),
                    }
                )
            pos = np.clip(np.searchsorted(keys, lkeys), 0, len(keys) - 1)
            hit = keys[pos] == lkeys  # inner-join semantics
            ship = (
                t["l_shipdate"].combine_chunks().cast(pa.int64())
                .to_numpy() // US_PER_DAY
            )
            delay = (ship - days[pos])[hit]
            agg = (
                pa.table({"delay_days": pa.array(delay, pa.int64())})
                .group_by("delay_days")
                .aggregate([([], "count_all")])
            )
            return agg.rename_columns(["delay_days", "n"])

        partials = line.map_batches(
            delay_partial, batch_format="pyarrow", batch_size=65536
        )
    else:
        from autoner_ray.stages.joins import cogroup_join

        orders = _read(
            sf_dir, "orders", ["o_orderkey", "o_orderdate"]
        ).map_batches(
            lambda t: pa.table(
                {"l_orderkey": t["o_orderkey"],
                 "o_orderdate": t["o_orderdate"]}
            ),
            batch_format="pyarrow",
        )
        joined = cogroup_join(line, orders, on=("l_orderkey",))

        def delay_partial(t: pa.Table) -> pa.Table:
            if t.num_columns == 0 or len(t) == 0:
                return pa.table(
                    {
                        "delay_days": pa.array([], pa.int64()),
                        "n": pa.array([], pa.int64()),
                    }
                )
            ship = (
                t["l_shipdate"].combine_chunks().cast(pa.int64())
                .to_numpy() // US_PER_DAY
            )
            od = (
                t["o_orderdate"].combine_chunks().cast(pa.int64())
                .to_numpy() // US_PER_DAY
            )
            agg = (
                pa.table({"delay_days": pa.array(ship - od, pa.int64())})
                .group_by("delay_days")
                .aggregate([([], "count_all")])
            )
            return agg.rename_columns(["delay_days", "n"])

        partials = joined.map_batches(delay_partial, batch_format="pyarrow")

    return bounded_key_sum(partials, ["delay_days"], ["n"])


def q3_shipping_priority(sf_dir: str, segment: str = "BUILDING",
                         cutoff: str = "1998-06-01", k: int = 10,
                         broadcast_max_rows: int = 5_000_000):
    """TPC-H Q3 shape (ref semantics: the classic 3-way
    customer⋈orders⋈lineitem date-split join): top-``k`` unshipped
    orders by revenue among ``segment`` customers — orders placed
    before ``cutoff`` with lineitems shipping after it.

    Scale shape: the customer segment filter broadcasts as a sorted
    custkey array (|customers|·1/5, always the small side); surviving
    orders take the same TIERED resolution as
    ``_customer_revenue_partials`` — a sorted orderkey->attrs broadcast
    under ``broadcast_max_rows`` (date filter applied BEFORE the
    broadcast, so the shipped side shrinks first), a large-large
    cogroup join above. Revenue partials combine per batch in exact
    int cents, hash-partition on orderkey, then partition-local top-k
    and one tiny merge block — the order table never sorts globally.
    """
    import numpy as np
    import pyarrow.parquet as pq
    import ray

    from autoner_ray.stages.combine import partitioned_key_sum

    cutoff_us = (
        np.datetime64(cutoff, "us").astype(np.int64)
    )

    ct = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    seg_keys = np.sort(
        ct["c_custkey"].to_numpy()[
            np.asarray(ct["c_mktsegment"].to_numpy(zero_copy_only=False))
            == segment
        ]
    )
    seg_ref = ray.put(seg_keys)

    line = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def ship_filter(t: pa.Table) -> pa.Table:
        ship = t["l_shipdate"].combine_chunks().cast(pa.int64()).to_numpy()
        return t.filter(pa.array(ship > cutoff_us))

    line = line.map_batches(
        ship_filter, batch_format="pyarrow", batch_size=65536
    )

    n_orders = pq.read_metadata(f"{sf_dir}/orders.parquet").num_rows
    if n_orders <= broadcast_max_rows:
        ot = pq.read_table(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderkey", "o_custkey", "o_orderdate",
                     "o_orderpriority"],
        )
        odate = ot["o_orderdate"].cast(pa.timestamp("us")).cast(
            pa.int64()
        ).to_numpy()
        okeys = ot["o_orderkey"].to_numpy()
        seg = seg_keys[
            np.clip(
                np.searchsorted(seg_keys, ot["o_custkey"].to_numpy()),
                0, max(len(seg_keys) - 1, 0),
            )
        ] == ot["o_custkey"].to_numpy() if len(seg_keys) else (
            np.zeros(len(okeys), bool)
        )
        keep = (odate < cutoff_us) & seg
        ix = np.argsort(okeys[keep], kind="stable")
        lookup_ref = ray.put(
            (
                okeys[keep][ix],
                odate[keep][ix],
                np.asarray(
                    ot["o_orderpriority"].to_numpy(zero_copy_only=False)
                )[keep][ix],
            )
        )

        def rev_partial(t: pa.Table) -> pa.Table:
            keys, dates, pris = ray.get(lookup_ref)
            empty = pa.table(
                {
                    "l_orderkey": pa.array([], pa.int64()),
                    "o_orderdate_us": pa.array([], pa.int64()),
                    "o_orderpriority": pa.array([], pa.string()),
                    "cents": pa.array([], pa.int64()),
                }
            )
            if t.num_columns == 0 or len(t) == 0 or len(keys) == 0:
                return empty
            lkeys = t["l_orderkey"].to_numpy(zero_copy_only=False)
            pos = np.clip(np.searchsorted(keys, lkeys), 0, len(keys) - 1)
            hit = keys[pos] == lkeys  # inner-join semantics
            cents = _rev_cents(
                t["l_extendedprice"].combine_chunks(),
                t["l_discount"].combine_chunks(),
            ).to_numpy()[hit]
            agg = (
                pa.table(
                    {
                        "l_orderkey": pa.array(lkeys[hit], pa.int64()),
                        "o_orderdate_us": pa.array(
                            dates[pos][hit], pa.int64()
                        ),
                        "o_orderpriority": pa.array(
                            pris[pos][hit], pa.string()
                        ),
                        "cents": pa.array(cents, pa.int64()),
                    }
                )
                .group_by(
                    ["l_orderkey", "o_orderdate_us", "o_orderpriority"]
                )
                .aggregate([("cents", "sum")])
            )
            return agg.rename_columns(
                ["l_orderkey", "o_orderdate_us", "o_orderpriority",
                 "cents"]
            )

        partials = line.map_batches(
            rev_partial, batch_format="pyarrow", batch_size=65536
        )
    else:
        from autoner_ray.stages.joins import cogroup_join

        def order_filter(t: pa.Table) -> pa.Table:
            keys = ray.get(seg_ref)
            ck = t["o_custkey"].to_numpy(zero_copy_only=False)
            odate = t["o_orderdate"].combine_chunks().cast(
                pa.timestamp("us")
            ).cast(pa.int64()).to_numpy()
            if len(keys):
                pos = np.clip(
                    np.searchsorted(keys, ck), 0, len(keys) - 1
                )
                seg = keys[pos] == ck
            else:
                seg = np.zeros(len(ck), bool)
            keep = pa.array(seg & (odate < cutoff_us))
            t = t.filter(keep)
            return pa.table(
                {
                    "l_orderkey": t["o_orderkey"],
                    "o_orderdate_us": t["o_orderdate"].combine_chunks()
                    .cast(pa.timestamp("us")).cast(pa.int64()),
                    "o_orderpriority": t["o_orderpriority"],
                }
            )

        orders = _read(
            sf_dir, "orders",
            ["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
        ).map_batches(order_filter, batch_format="pyarrow")
        joined = cogroup_join(line, orders, on=("l_orderkey",))

        def rev_partial(t: pa.Table) -> pa.Table:
            empty = pa.table(
                {
                    "l_orderkey": pa.array([], pa.int64()),
                    "o_orderdate_us": pa.array([], pa.int64()),
                    "o_orderpriority": pa.array([], pa.string()),
                    "cents": pa.array([], pa.int64()),
                }
            )
            if t.num_columns == 0 or len(t) == 0:
                return empty
            cents = _rev_cents(
                t["l_extendedprice"].combine_chunks(),
                t["l_discount"].combine_chunks(),
            )
            agg = (
                pa.table(
                    {
                        "l_orderkey": t["l_orderkey"],
                        "o_orderdate_us": t["o_orderdate_us"],
                        "o_orderpriority": t["o_orderpriority"],
                        "cents": cents,
                    }
                )
                .group_by(
                    ["l_orderkey", "o_orderdate_us", "o_orderpriority"]
                )
                .aggregate([("cents", "sum")])
            )
            return agg.rename_columns(
                ["l_orderkey", "o_orderdate_us", "o_orderpriority",
                 "cents"]
            )

        partials = joined.map_batches(rev_partial, batch_format="pyarrow")

    per_order = partitioned_key_sum(
        partials,
        ["l_orderkey", "o_orderdate_us", "o_orderpriority"], ["cents"],
        part_on=("l_orderkey",),
    )

    def topk(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "l_orderkey": pa.array([], pa.int64()),
                "revenue": pa.array([], pa.float64()),
                "o_orderdate": pa.array([], pa.timestamp("us")),
                "o_orderpriority": pa.array([], pa.string()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        if "cents" in t.column_names:  # first (per-partition) pass
            t = pa.table(
                {
                    "l_orderkey": t["l_orderkey"],
                    "revenue": pc.divide(
                        pc.cast(t["cents"], pa.float64()),
                        pa.scalar(100.0),
                    ),
                    "o_orderdate": t["o_orderdate_us"].combine_chunks()
                    .cast(pa.timestamp("us")),
                    "o_orderpriority": t["o_orderpriority"],
                }
            )
        order = pc.sort_indices(
            t,
            sort_keys=[("revenue", "descending"),
                       ("l_orderkey", "ascending")],
        )
        return t.take(order[:k])

    return (
        per_order.map_batches(topk, batch_format="pyarrow",
                              batch_size=None)
        .repartition(1)
        .map_batches(topk, batch_format="pyarrow", batch_size=None)
    )


def q4_order_priority(sf_dir: str, late_days: int = 90,
                      broadcast_max_rows: int = 5_000_000):
    """TPC-H Q4 shape: orders per priority class that have AT LEAST ONE
    late lineitem (l_shipdate > o_orderdate + ``late_days``) — the
    distributed EXISTS semi-join aggregated to a bounded histogram.

    Scale shape: the late predicate needs o_orderdate per lineitem, so
    orderkey resolution is TIERED like ``order_ship_delay_hist``
    (sorted orderkey->(date, priority) broadcast under
    ``broadcast_max_rows``, large-large cogroup join above). EXISTS
    collapses per batch to distinct hit orderkeys, then an
    orderkey-PARTITIONED distinct (a priority class never lands in one
    block — the 5-value priority key would hot-spot; the orderkey
    spread can't), then a shuffle-free bounded priority combine.
    """
    import numpy as np
    import pyarrow.parquet as pq
    import ray

    from autoner_ray.stages.combine import (
        bounded_key_sum,
        partitioned_key_sum,
    )

    US_PER_DAY = 86_400_000_000
    late_us = late_days * US_PER_DAY
    line = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])

    n_orders = pq.read_metadata(f"{sf_dir}/orders.parquet").num_rows
    if n_orders <= broadcast_max_rows:
        ot = pq.read_table(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
        )
        okeys = ot["o_orderkey"].to_numpy()
        ix = np.argsort(okeys, kind="stable")
        odate = ot["o_orderdate"].cast(pa.timestamp("us")).cast(
            pa.int64()
        ).to_numpy()
        pris = np.asarray(
            ot["o_orderpriority"].to_numpy(zero_copy_only=False)
        )
        lookup_ref = ray.put((okeys[ix], odate[ix], pris[ix]))

        def late_partial(t: pa.Table) -> pa.Table:
            keys, dates, pri = ray.get(lookup_ref)
            empty = pa.table(
                {
                    "l_orderkey": pa.array([], pa.int64()),
                    "o_orderpriority": pa.array([], pa.string()),
                    "one": pa.array([], pa.int64()),
                }
            )
            if t.num_columns == 0 or len(t) == 0 or len(keys) == 0:
                return empty
            lkeys = t["l_orderkey"].to_numpy(zero_copy_only=False)
            pos = np.clip(np.searchsorted(keys, lkeys), 0, len(keys) - 1)
            ship = (
                t["l_shipdate"].combine_chunks().cast(pa.int64()).to_numpy()
            )
            hit = (keys[pos] == lkeys) & (ship > dates[pos] + late_us)
            agg = (
                pa.table(
                    {
                        "l_orderkey": pa.array(lkeys[hit], pa.int64()),
                        "o_orderpriority": pa.array(
                            pri[pos][hit], pa.string()
                        ),
                    }
                )
                .group_by(["l_orderkey", "o_orderpriority"])
                .aggregate([])
            )
            return agg.append_column(
                "one", pa.array(np.ones(len(agg), np.int64))
            )

        partials = line.map_batches(
            late_partial, batch_format="pyarrow", batch_size=65536
        )
    else:
        from autoner_ray.stages.joins import cogroup_join

        orders = _read(
            sf_dir, "orders",
            ["o_orderkey", "o_orderdate", "o_orderpriority"],
        ).map_batches(
            lambda t: pa.table(
                {
                    "l_orderkey": t["o_orderkey"],
                    "o_orderdate": t["o_orderdate"],
                    "o_orderpriority": t["o_orderpriority"],
                }
            ),
            batch_format="pyarrow",
        )
        joined = cogroup_join(line, orders, on=("l_orderkey",))

        def late_partial(t: pa.Table) -> pa.Table:
            empty = pa.table(
                {
                    "l_orderkey": pa.array([], pa.int64()),
                    "o_orderpriority": pa.array([], pa.string()),
                    "one": pa.array([], pa.int64()),
                }
            )
            if t.num_columns == 0 or len(t) == 0:
                return empty
            ship = (
                t["l_shipdate"].combine_chunks().cast(pa.int64()).to_numpy()
            )
            od = (
                t["o_orderdate"].combine_chunks()
                .cast(pa.timestamp("us")).cast(pa.int64()).to_numpy()
            )
            hit = pa.array(ship > od + late_us)
            agg = (
                t.filter(hit)
                .select(["l_orderkey", "o_orderpriority"])
                .group_by(["l_orderkey", "o_orderpriority"])
                .aggregate([])
            )
            return agg.append_column(
                "one", pa.array(np.ones(len(agg), np.int64))
            )

        partials = joined.map_batches(late_partial, batch_format="pyarrow")

    distinct = partitioned_key_sum(
        partials, ["l_orderkey", "o_orderpriority"], ["one"],
        part_on=("l_orderkey",),
    )

    def pri_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "o_orderpriority": pa.array([], pa.string()),
                    "n_orders": pa.array([], pa.int64()),
                }
            )
        agg = t.group_by("o_orderpriority").aggregate([([], "count_all")])
        return agg.rename_columns(["o_orderpriority", "n_orders"])

    return bounded_key_sum(
        distinct.map_batches(pri_partial, batch_format="pyarrow"),
        ["o_orderpriority"], ["n_orders"],
    )


def supplier_part_fanout(sf_dir: str):
    """Bipartite fan-out profile of the supplier—part relation: for
    each distinct-part count, how many suppliers ship exactly that many
    distinct parts — the degree histogram of a large-fact bipartite
    graph (the relational cousin of the entity-graph degree profile).

    Scale shape: per-batch distinct (supp, part) partials -> SUPPLIER-
    partitioned exact distinct (all of a supplier's parts co-locate, so
    the in-partition count is the global count) -> per-partition
    supplier fan-out counts -> shuffle-free bounded histogram combine.
    No corpus shuffle, nothing supplier-set-sized in one block.
    """
    import numpy as np

    from autoner_ray.stages.combine import (
        bounded_key_sum,
        partitioned_key_sum,
    )

    def pair_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "l_suppkey": pa.array([], pa.int64()),
                    "l_partkey": pa.array([], pa.int64()),
                    "one": pa.array([], pa.int64()),
                }
            )
        agg = (
            t.select(["l_suppkey", "l_partkey"])
            .group_by(["l_suppkey", "l_partkey"])
            .aggregate([])
        )
        return agg.append_column(
            "one", pa.array(np.ones(len(agg), np.int64))
        )

    distinct = partitioned_key_sum(
        _read(sf_dir, "lineitem", ["l_suppkey", "l_partkey"]).map_batches(
            pair_partial, batch_format="pyarrow", batch_size=65536
        ),
        ["l_suppkey", "l_partkey"], ["one"], part_on=("l_suppkey",),
    )

    def fanout_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "n_parts": pa.array([], pa.int64()),
                    "n_suppliers": pa.array([], pa.int64()),
                }
            )
        per_supp = (
            t.group_by("l_suppkey").aggregate([("one", "count")])
        )
        hist = (
            per_supp.rename_columns(["l_suppkey", "n_parts"])
            .group_by("n_parts")
            .aggregate([([], "count_all")])
        )
        return hist.rename_columns(["n_parts", "n_suppliers"])

    return bounded_key_sum(
        distinct.map_batches(fanout_partial, batch_format="pyarrow",
                             batch_size=None),
        ["n_parts"], ["n_suppliers"],
    )


def q6_forecast_revenue(sf_dir: str, year: int = 1996,
                        disc_lo: int = 5, disc_hi: int = 7,
                        qty_max: int = 24):
    """TPC-H Q6-shaped forecast-revenue: sum(l_extendedprice *
    l_discount) over one ship year, a discount band and a quantity cap
    — the canonical predicate-pushdown + scalar-aggregate probe
    (reference analogue: none; this is the engine-capability family of
    ``q1_pricing_summary``).

    Exactness: revenue is accumulated as INTEGER 1e-4-dollar units
    (``cents x discount-hundredths``), so the sum is associative and
    order-independent; the dollar column is derived from the integer.

    Scale shape: column-pruned read -> stateless vectorized per-batch
    partial (one row out per batch) -> shuffle-free bounded combine on
    a constant key. No join, no sort; at 10^12 rows the int64 partial
    sum would need a two-word (hi/lo) split, noted here rather than
    engineered around for this corpus.
    """
    from autoner_ray.stages.combine import bounded_key_sum

    ds = _read(
        sf_dir, "lineitem",
        ["l_extendedprice", "l_discount", "l_quantity", "l_shipdate"],
    )
    lo = pa.scalar(f"{year}-01-01").cast(pa.timestamp("us"))
    hi = pa.scalar(f"{year + 1}-01-01").cast(pa.timestamp("us"))

    def partial(t: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.and_(
                pc.greater_equal(t["l_shipdate"], lo),
                pc.less(t["l_shipdate"], hi),
            ),
            pc.less(t["l_quantity"], pa.scalar(float(qty_max))),
        )
        t = t.filter(mask)
        p = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        d = t["l_discount"].to_numpy(zero_copy_only=False)
        disc_h = np.floor(d * 100.0 + 0.5).astype(np.int64)
        keep = (disc_h >= disc_lo) & (disc_h <= disc_hi)
        cents = np.floor(p[keep] * 100.0 + 0.5).astype(np.int64)
        c4 = int((cents * disc_h[keep]).sum())
        return pa.table(
            {
                "k": pa.array([0], pa.int64()),
                "revenue_c4": pa.array([c4], pa.int64()),
            }
        )

    agg = bounded_key_sum(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        ["k"], ["revenue_c4"],
    )

    def finish(t: pa.Table) -> pa.Table:
        c4 = t["revenue_c4"]
        return pa.table(
            {
                "revenue_c4": c4,
                "revenue": pc.divide(
                    pc.cast(c4, pa.float64()), pa.scalar(10000.0)
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def q14_promo_revenue(sf_dir: str, year: int = 1996,
                      broadcast_max_rows: int = 50_000_000):
    """TPC-H Q14-shaped promotion-revenue share: the ppm fraction of
    one ship-year's discounted revenue that comes from parts with
    ``p_type = 'PROMO'`` — a fact ⋈ dim membership join reduced to a
    two-scalar aggregate.

    Exactness: both numerator and denominator are INTEGER
    1e-4-dollar units (cents x (100 - discount-hundredths)); the share
    is Python-int ``num * 10^6 // den`` on the driver's 1-row result,
    twinned by HUGEINT arithmetic in the oracle.

    Scale shape: part is broadcast ONCE as a sorted int64 partkey
    array + promo bool array via ``ray.put`` (8+1 bytes/part; TPC-H
    part is 0.2M/SF so sf100 ~ 180 MB — beyond ``broadcast_max_rows``
    swap the membership probe for a cogroup join, same tiering as
    ``top_customers_by_revenue``); lineitem streams through a
    searchsorted membership probe with a miss mask (inner-join
    semantics), one partial row per batch, shuffle-free tail.
    """
    import pyarrow.parquet as pq
    import ray

    from autoner_ray.stages.combine import bounded_key_sum

    pt = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"]
    )
    if len(pt) > broadcast_max_rows:
        raise NotImplementedError(
            "q14_promo_revenue: part exceeds the broadcast tier; "
            "use the cogroup-join tier (top_customers_by_revenue shape)"
        )
    pk = pt["p_partkey"].to_numpy()
    order = np.argsort(pk, kind="stable")
    promo = pc.equal(pt["p_type"], pa.scalar("PROMO")).to_numpy(
        zero_copy_only=False
    )
    part_ref = ray.put((pk[order], promo[order]))

    ds = _read(
        sf_dir, "lineitem",
        ["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )
    lo = pa.scalar(f"{year}-01-01").cast(pa.timestamp("us"))
    hi = pa.scalar(f"{year + 1}-01-01").cast(pa.timestamp("us"))

    def partial(t: pa.Table) -> pa.Table:
        keys, is_promo = ray.get(part_ref)
        t = t.filter(
            pc.and_(
                pc.greater_equal(t["l_shipdate"], lo),
                pc.less(t["l_shipdate"], hi),
            )
        )
        lp = t["l_partkey"].to_numpy(zero_copy_only=False)
        p = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        d = t["l_discount"].to_numpy(zero_copy_only=False)
        cents = np.floor(p * 100.0 + 0.5).astype(np.int64)
        disc_h = np.floor(d * 100.0 + 0.5).astype(np.int64)
        c4 = cents * (100 - disc_h)
        pos = (
            np.clip(np.searchsorted(keys, lp), 0, len(keys) - 1)
            if len(keys)
            else np.zeros(len(lp), np.int64)
        )
        hit = keys[pos] == lp if len(keys) else np.zeros(len(lp), bool)
        c4 = c4[hit]
        promo_mask = is_promo[pos[hit]]
        return pa.table(
            {
                "k": pa.array([0], pa.int64()),
                "promo_c4": pa.array([int(c4[promo_mask].sum())],
                                     pa.int64()),
                "total_c4": pa.array([int(c4.sum())], pa.int64()),
            }
        )

    agg = bounded_key_sum(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536),
        ["k"], ["promo_c4", "total_c4"],
    )

    def finish(t: pa.Table) -> pa.Table:
        num = t["promo_c4"][0].as_py()
        den = t["total_c4"][0].as_py()
        ppm = (num * 1_000_000) // den if den else 0
        return pa.table(
            {
                "promo_revenue_c4": pa.array([num], pa.int64()),
                "total_revenue_c4": pa.array([den], pa.int64()),
                "promo_ppm": pa.array([ppm], pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def customer_rfm_segments(sf_dir: str, n_buckets: int = 4):
    """RFM (Recency / Frequency / Monetary) quartile segmentation of
    customers from the orders table alone — the classic
    marketing-analytics cut, here as a three-window exact-rank probe:
    each dimension is an independent global NTILE with deterministic
    (value desc, custkey asc) tie-break.

    Scale shape: ONE column-pruned scan of orders -> per-batch
    (custkey -> max date, n, cents) partials -> one custkey hash
    combine; then three :func:`~autoner_ray.stages.ranking.exact_ntile`
    range-bucket passes (no global sort, B range counts on the driver
    each) and two custkey cogroup joins to stitch the quartiles. The
    segment label is a vectorized string concat.
    """
    from autoner_ray.stages.joins import _stable_part_col, cogroup_join
    from autoner_ray.stages.ranking import exact_ntile

    P = default_num_partitions()
    ds = _read(
        sf_dir, "orders", ["o_custkey", "o_orderdate", "o_totalprice"]
    )

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "o_custkey": pa.array([], pa.int64()),
                "last_us": pa.array([], pa.int64()),
                "n_orders": pa.array([], pa.int64()),
                "cents": pa.array([], pa.int64()),
                "part": pa.array([], pa.int32()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        cents = np.floor(
            t["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0 + 0.5
        ).astype(np.int64)
        df = pd.DataFrame(
            {
                "o_custkey": t["o_custkey"].to_numpy(zero_copy_only=False),
                "last_us": pc.cast(
                    t["o_orderdate"], pa.int64()
                ).to_numpy(zero_copy_only=False),
                "n_orders": 1,
                "cents": cents,
            }
        )
        agg = df.groupby("o_custkey", sort=False).agg(
            last_us=("last_us", "max"),
            n_orders=("n_orders", "sum"),
            cents=("cents", "sum"),
        ).reset_index()
        out = pa.Table.from_pandas(
            agg, preserve_index=False
        ).replace_schema_metadata(None)
        return out.append_column(
            "part", _stable_part_col(out, ("o_custkey",), P)
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_custkey" not in df.columns:
            return pd.DataFrame(
                {
                    "o_custkey": pd.Series(dtype="int64"),
                    "last_us": pd.Series(dtype="int64"),
                    "n_orders": pd.Series(dtype="int64"),
                    "cents": pd.Series(dtype="int64"),
                }
            )
        return (
            df.groupby("o_custkey", sort=False)
            .agg(
                last_us=("last_us", "max"),
                n_orders=("n_orders", "sum"),
                cents=("cents", "sum"),
            )
            .reset_index()
        )

    per_cust = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .groupby("part")
        .map_groups(combine, batch_format="pandas")
        .materialize()  # feeds three ntile passes; avoid re-reading orders
    )

    def keep(name):
        def fn(t: pa.Table) -> pa.Table:
            if t.num_columns == 0 or len(t) == 0:
                return pa.table(
                    {
                        "o_custkey": pa.array([], pa.int64()),
                        name: pa.array([], pa.int64()),
                    }
                )
            return pa.table({"o_custkey": t["o_custkey"], name: t["ntile"]})
        return fn

    r = exact_ntile(
        per_cust.select_columns(["o_custkey", "last_us"]),
        key_col="o_custkey", val_col="last_us",
        n_buckets=n_buckets, descending=True,
    ).map_batches(keep("r_quartile"), batch_format="pyarrow")
    f = exact_ntile(
        per_cust.select_columns(["o_custkey", "n_orders"]),
        key_col="o_custkey", val_col="n_orders",
        n_buckets=n_buckets, descending=True,
    ).map_batches(keep("f_quartile"), batch_format="pyarrow")
    m = exact_ntile(
        per_cust.select_columns(["o_custkey", "cents"]),
        key_col="o_custkey", val_col="cents",
        n_buckets=n_buckets, descending=True,
    ).map_batches(keep("m_quartile"), batch_format="pyarrow")

    joined = cogroup_join(
        cogroup_join(r, f, on=("o_custkey",), num_partitions=P),
        m, on=("o_custkey",), num_partitions=P,
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "o_custkey": pa.array([], pa.int64()),
                    "r_quartile": pa.array([], pa.int64()),
                    "f_quartile": pa.array([], pa.int64()),
                    "m_quartile": pa.array([], pa.int64()),
                    "rfm_segment": pa.array([], pa.string()),
                }
            )
        seg = pc.binary_join_element_wise(
            "R", pc.cast(t["r_quartile"], pa.string()),
            "F", pc.cast(t["f_quartile"], pa.string()),
            "M", pc.cast(t["m_quartile"], pa.string()),
            "",
        )
        return pa.table(
            {
                "o_custkey": t["o_custkey"],
                "r_quartile": t["r_quartile"],
                "f_quartile": t["f_quartile"],
                "m_quartile": t["m_quartile"],
                "rfm_segment": seg,
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


def customer_rfm_oracle_sql(n_buckets: int = 4) -> str:
    return f"""
        WITH per_cust AS (
            SELECT o_custkey,
                   MAX(o_orderdate) AS last_date,
                   COUNT(*) AS n_orders,
                   CAST(SUM(CAST(floor(o_totalprice * 100 + 0.5)
                                 AS BIGINT)) AS BIGINT) AS cents
            FROM orders GROUP BY o_custkey
        ), q AS (
            SELECT o_custkey,
                   NTILE({n_buckets}) OVER (
                       ORDER BY last_date DESC, o_custkey
                   ) AS r_quartile,
                   NTILE({n_buckets}) OVER (
                       ORDER BY n_orders DESC, o_custkey
                   ) AS f_quartile,
                   NTILE({n_buckets}) OVER (
                       ORDER BY cents DESC, o_custkey
                   ) AS m_quartile
            FROM per_cust
        )
        SELECT o_custkey,
               CAST(r_quartile AS BIGINT) AS r_quartile,
               CAST(f_quartile AS BIGINT) AS f_quartile,
               CAST(m_quartile AS BIGINT) AS m_quartile,
               'R' || r_quartile || 'F' || f_quartile || 'M' || m_quartile
                   AS rfm_segment
        FROM q
    """


def customer_revenue_gini(sf_dir: str):
    """Revenue-concentration Gini over per-customer lifetime revenue —
    "how much of the book do the biggest accounts hold", the
    skew-planning diagnostic for the customer dimension (the docs
    analogue is ``docs_length_gini``). Exact integer gini_ppm via the
    same distributed ranking pass; output columns keep the
    ``gini_inequality`` contract names (n_docs = ranked rows =
    customers with >=1 order).

    Scale shape: tiered lineitem ⋈ orders partials -> one custkey hash
    combine -> :func:`~autoner_ray.stages.ranking.gini_inequality`
    (range-bucketed exact ranks, three-integer scalar tail)."""
    from autoner_ray.stages.joins import _stable_part_col
    from autoner_ray.stages.ranking import gini_inequality

    P = default_num_partitions()
    partials = _customer_revenue_partials(sf_dir)

    def add_part(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "o_custkey": pa.array([], pa.int64()),
                    "order_cents": pa.array([], pa.int64()),
                    "part": pa.array([], pa.int32()),
                }
            )
        return t.append_column(
            "part", _stable_part_col(t, ("o_custkey",), P)
        )

    def sum_group(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_custkey" not in df.columns:
            return pd.DataFrame(
                {
                    "o_custkey": pd.Series(dtype="int64"),
                    "cents": pd.Series(dtype="int64"),
                }
            )
        return (
            df.groupby("o_custkey", sort=False)["order_cents"]
            .sum()
            .reset_index(name="cents")
        )

    rev = (
        partials.map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(sum_group, batch_format="pandas")
    )
    return gini_inequality(rev, key_col="o_custkey", val_col="cents")


def customer_revenue_gini_oracle_sql() -> str:
    return """
        WITH rev AS (
            SELECT o.o_custkey,
                   SUM(CAST(floor(l_extendedprice * (1 - l_discount)
                                  * 100 + 0.5) AS BIGINT)) AS cents
            FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
            GROUP BY o.o_custkey
        ), r AS (
            SELECT cents, ROW_NUMBER() OVER (
                ORDER BY cents, o_custkey
            ) AS rank
            FROM rev
        ), s AS (
            SELECT COUNT(*) AS n_docs,
                   CAST(SUM(cents) AS BIGINT) AS total,
                   CAST(SUM(rank * cents) AS BIGINT) AS rank_val_sum
            FROM r
        )
        SELECT n_docs, total, rank_val_sum,
               CAST((2 * CAST(rank_val_sum AS HUGEINT)
                     - (n_docs + 1) * CAST(total AS HUGEINT))
                    * 1000000
                    // (CAST(n_docs AS HUGEINT) * total)
                    AS BIGINT) AS gini_ppm
        FROM s
    """


def top_suppliers_per_nation(sf_dir: str, k: int = 3):
    """Top-``k`` suppliers by lifetime discounted revenue within each
    nation — the grouped-top-k-through-a-dim-chain probe (lineitem ->
    supplier -> nation), with deterministic (revenue desc, suppkey asc)
    ranking.

    Scale shape: one column-pruned lineitem scan -> per-batch suppkey
    cents partials -> one suppkey hash combine; supplier -> nationkey
    is a sorted-array broadcast (TPC-H supplier is 10k/SF — ~1 GB of
    int64 pairs at sf10k; beyond that swap for a cogroup hop) and
    nation is a 25-row dim; per-nation top-k is a partition-local
    top-k then one tiny single-block merge (nations bounded)."""
    import pyarrow.parquet as pq
    import ray

    from autoner_ray.stages.joins import _stable_part_col

    P = default_num_partitions()
    st = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    sk = st["s_suppkey"].to_numpy()
    order = np.argsort(sk, kind="stable")
    supp_ref = ray.put(
        (sk[order], st["s_nationkey"].to_numpy()[order])
    )
    nt = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    names_ref = ray.put(
        dict(zip(nt["n_nationkey"].to_pylist(), nt["n_name"].to_pylist()))
    )

    ds = _read(
        sf_dir, "lineitem", ["l_suppkey", "l_extendedprice", "l_discount"]
    )

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "l_suppkey": pa.array([], pa.int64()),
                "cents": pa.array([], pa.int64()),
                "part": pa.array([], pa.int32()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        tbl = pa.table(
            {
                "l_suppkey": t["l_suppkey"],
                "cents": _rev_cents(
                    t["l_extendedprice"].combine_chunks(),
                    t["l_discount"].combine_chunks(),
                ),
            }
        )
        agg = tbl.group_by("l_suppkey").aggregate([("cents", "sum")])
        agg = agg.rename_columns(["l_suppkey", "cents"])
        return agg.append_column(
            "part", _stable_part_col(agg, ("l_suppkey",), P)
        )

    def topk_group(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "l_suppkey" not in df.columns:
            return pd.DataFrame(
                {
                    "n_nationkey": pd.Series(dtype="int64"),
                    "s_suppkey": pd.Series(dtype="int64"),
                    "cents": pd.Series(dtype="int64"),
                }
            )
        import ray as _ray

        agg = (
            df.groupby("l_suppkey", sort=False)["cents"]
            .sum()
            .reset_index()
        )
        keys, nats = _ray.get(supp_ref)
        skv = agg["l_suppkey"].to_numpy()
        pos = (
            np.clip(np.searchsorted(keys, skv), 0, max(len(keys) - 1, 0))
            if len(keys)
            else np.zeros(len(skv), np.int64)
        )
        hit = keys[pos] == skv if len(keys) else np.zeros(len(skv), bool)
        out = pd.DataFrame(
            {
                "n_nationkey": nats[pos[hit]],
                "s_suppkey": skv[hit],
                "cents": agg["cents"].to_numpy()[hit],
            }
        )
        # partition-local per-nation top-k: <= 25*k rows leave each task
        out = out.sort_values(
            ["n_nationkey", "cents", "s_suppkey"],
            ascending=[True, False, True], kind="mergesort",
        )
        return out.groupby("n_nationkey", sort=False).head(k)

    def final_topk(t: pa.Table) -> pa.Table:
        import ray as _ray

        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "n_name": pa.array([], pa.string()),
                    "s_suppkey": pa.array([], pa.int64()),
                    "revenue": pa.array([], pa.float64()),
                    "rank": pa.array([], pa.int64()),
                }
            )
        df = t.to_pandas().sort_values(
            ["n_nationkey", "cents", "s_suppkey"],
            ascending=[True, False, True], kind="mergesort",
        )
        df = df.groupby("n_nationkey", sort=False).head(k).copy()
        df["rank"] = df.groupby("n_nationkey", sort=False).cumcount() + 1
        nm = _ray.get(names_ref)
        return pa.table(
            {
                "n_name": pa.array(
                    [nm[int(x)] for x in df["n_nationkey"]], pa.string()
                ),
                "s_suppkey": pa.array(
                    df["s_suppkey"].to_numpy(), pa.int64()
                ),
                "revenue": pa.array(
                    df["cents"].to_numpy() / 100.0, pa.float64()
                ),
                "rank": pa.array(df["rank"].to_numpy(), pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .groupby("part")
        .map_groups(topk_group, batch_format="pandas")
        .repartition(1)
        .map_batches(final_topk, batch_format="pyarrow", batch_size=None)
    )


def top_suppliers_per_nation_oracle_sql(k: int = 3) -> str:
    return f"""
        WITH rev AS (
            SELECT l_suppkey,
                   SUM(CAST(floor(l_extendedprice * (1 - l_discount)
                                  * 100 + 0.5) AS BIGINT)) AS cents
            FROM lineitem GROUP BY l_suppkey
        ), ranked AS (
            SELECT n.n_name, s.s_suppkey, rev.cents,
                   ROW_NUMBER() OVER (
                       PARTITION BY n.n_name
                       ORDER BY rev.cents DESC, s.s_suppkey
                   ) AS rank
            FROM rev
            JOIN supplier s ON rev.l_suppkey = s.s_suppkey
            JOIN nation n ON s.s_nationkey = n.n_nationkey
        )
        SELECT n_name, s_suppkey, cents / 100.0 AS revenue,
               CAST(rank AS BIGINT) AS rank
        FROM ranked WHERE rank <= {k}
    """


_PRICE_BANDS = [
    ("budget", 0, 50_000),
    ("mid", 50_000, 150_000),
    ("premium", 150_000, 300_000),
    ("luxury", 300_000, 1 << 60),
]


def order_price_bands(sf_dir: str):
    """Range-join probe: orders binned into static price bands (a
    banded dimension join ``ON price >= lo AND price < hi``) with
    count + exact cents revenue per band — the pattern behind SLA
    tiers, price buckets and latency bands.

    Scale shape: the band table is tiny and STATIC, so the range join
    is a broadcast ``searchsorted`` against the sorted bound array
    inside a stateless map (never a shuffle); the tail is the bounded
    combine over 4 bands. Bands are in integer cents on both sides.
    """
    from autoner_ray.stages.combine import bounded_key_sum

    names = [b[0] for b in _PRICE_BANDS]
    los = np.array([b[1] for b in _PRICE_BANDS], np.int64)

    def partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "band": pa.array([], pa.string()),
                    "n_orders": pa.array([], pa.int64()),
                    "revenue_cents": pa.array([], pa.int64()),
                }
            )
        cents = np.floor(
            t["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0 + 0.5
        ).astype(np.int64)
        bin_ix = np.searchsorted(los, cents, side="right") - 1
        df = pd.DataFrame({"b": bin_ix, "c": cents, "n": 1})
        agg = df.groupby("b", sort=False).agg(
            n=("n", "sum"), c=("c", "sum")
        )
        return pa.table(
            {
                "band": pa.array(
                    [names[int(i)] for i in agg.index], pa.string()
                ),
                "n_orders": pa.array(agg["n"].to_numpy(), pa.int64()),
                "revenue_cents": pa.array(agg["c"].to_numpy(), pa.int64()),
            }
        )

    return bounded_key_sum(
        _read(sf_dir, "orders", ["o_totalprice"]).map_batches(
            partial, batch_format="pyarrow", batch_size=65536
        ),
        ["band"], ["n_orders", "revenue_cents"],
    )


def order_price_bands_oracle_sql() -> str:
    rows = ", ".join(
        f"('{n}', {lo}, {hi})" for n, lo, hi in _PRICE_BANDS
    )
    return f"""
        WITH bands(band, lo, hi) AS (VALUES {rows}),
        o AS (
            SELECT CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)
                       AS cents
            FROM orders
        )
        SELECT b.band, COUNT(*) AS n_orders,
               CAST(SUM(o.cents) AS BIGINT) AS revenue_cents
        FROM o JOIN bands b ON o.cents >= b.lo AND o.cents < b.hi
        GROUP BY b.band
    """


def orders_per_customer_histogram(sf_dir: str):
    """(n_orders -> n_customers) fan-out histogram of the orders table,
    INCLUDING the zero-order bucket (customers with no orders — the
    anti-join leg) — the skew profile that sizes the customer-side
    hash partitions.

    Shape: per-batch custkey count partials -> one custkey combine;
    the zero bucket comes from a customer-count minus active-count
    scalar (one metadata read), so no customer-table join; bounded
    combine over counts."""
    import pyarrow.parquet as pq

    from autoner_ray.stages.combine import (
        bounded_key_sum,
        partitioned_key_sum,
    )

    n_customers = pq.read_metadata(
        f"{sf_dir}/customer.parquet"
    ).num_rows

    def partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "o_custkey": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        agg = t.select(["o_custkey"]).group_by("o_custkey").aggregate(
            [([], "count_all")]
        )
        return agg.rename_columns(["o_custkey", "n"])

    per_cust = partitioned_key_sum(
        _read(sf_dir, "orders", ["o_custkey"]).map_batches(
            partial, batch_format="pyarrow", batch_size=65536
        ),
        ["o_custkey"], ["n"], part_on=("o_custkey",),
    )

    def hist_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0 or "n" not in (
            t.column_names
        ):
            return pa.table(
                {
                    "n_orders": pa.array([], pa.int64()),
                    "n_customers": pa.array([], pa.int64()),
                }
            )
        vals, counts = np.unique(
            t["n"].to_numpy(zero_copy_only=False), return_counts=True
        )
        return pa.table(
            {
                "n_orders": pa.array(vals, pa.int64()),
                "n_customers": pa.array(counts, pa.int64()),
            }
        )

    hist = bounded_key_sum(
        per_cust.map_batches(hist_partial, batch_format="pyarrow",
                             batch_size=None),
        ["n_orders"], ["n_customers"],
    ).to_pandas()
    active = int(hist["n_customers"].sum())
    zero = n_customers - active
    out = pd.concat(
        [
            pd.DataFrame({"n_orders": [0], "n_customers": [zero]}),
            hist,
        ],
        ignore_index=True,
    ).sort_values("n_orders", kind="mergesort")
    out = out[out["n_customers"] > 0]
    return pa.table(
        {
            "n_orders": pa.array(out["n_orders"].to_numpy(np.int64)),
            "n_customers": pa.array(
                out["n_customers"].to_numpy(np.int64)
            ),
        }
    )


def orders_per_customer_oracle_sql() -> str:
    return """
        WITH per AS (
            SELECT c.c_custkey, COUNT(o.o_orderkey) AS n_orders
            FROM customer c
            LEFT JOIN orders o ON o.o_custkey = c.c_custkey
            GROUP BY c.c_custkey
        )
        SELECT n_orders, COUNT(*) AS n_customers
        FROM per GROUP BY n_orders
        HAVING COUNT(*) > 0
    """


# -- TPC-H Q5 / Q10 / Q8 shapes (multi-dim broadcast star joins) -------------


def _sorted_lookup(tbl: pa.Table, key: str, cols: list[str]):
    """(sorted key array, value arrays gathered to that order) — the
    broadcast side of a searchsorted equi-join."""
    k = tbl[key].to_numpy()
    ix = np.argsort(k, kind="stable")
    return (k[ix],) + tuple(
        tbl[c].to_numpy(zero_copy_only=False)[ix] for c in cols
    )


def _probe_sorted(keys: np.ndarray, probe: np.ndarray):
    """(pos, hit) of ``probe`` in sorted ``keys`` (inner-join mask)."""
    if len(keys) == 0:
        return np.zeros(len(probe), np.int64), np.zeros(len(probe), bool)
    pos = np.clip(np.searchsorted(keys, probe), 0, len(keys) - 1)
    return pos, keys[pos] == probe


def q5_local_supplier_volume(sf_dir: str, region: str = "ASIA",
                             year: int = 1996):
    """TPC-H Q5 shape: revenue per nation where the CUSTOMER and the
    SUPPLIER of a lineitem sit in the same ``region`` nation, for
    orders placed in ``year``.

    Scale shape: the fact table never shuffles. All four dimension
    sides broadcast once via ``ray.put`` as sorted int arrays — orders
    is date-filtered FIRST (1/7 of the table; at TPC-H sf≳30 swap this
    side to the ``_customer_revenue_partials`` cogroup tier, the other
    three dims stay broadcast-sized at any SF) — and one fused pass
    over lineitem resolves order→customer-nation and supplier-nation
    locally, keeps same-nation rows, and emits per-batch cents partials
    keyed by the ≤25-row nation id. ``bounded_key_sum`` finishes."""
    import pyarrow.parquet as pq
    import ray

    from autoner_ray.stages.combine import bounded_key_sum

    rt = pq.read_table(f"{sf_dir}/region.parquet")
    nt = pq.read_table(f"{sf_dir}/nation.parquet")
    rkeys = rt["r_regionkey"].to_numpy()[
        np.asarray(rt["r_name"].to_numpy(zero_copy_only=False)) == region
    ]
    in_region = np.isin(nt["n_regionkey"].to_numpy(), rkeys)
    nat_keys = nt["n_nationkey"].to_numpy()[in_region]
    nat_names = dict(
        zip(
            nat_keys.tolist(),
            np.asarray(nt["n_name"].to_numpy(zero_copy_only=False))[
                in_region
            ].tolist(),
        )
    )

    ct = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    cmask = np.isin(ct["c_nationkey"].to_numpy(), nat_keys)
    ckeys, cnat = _sorted_lookup(
        ct.filter(pa.array(cmask)), "c_custkey", ["c_nationkey"]
    )

    st = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    smask = np.isin(st["s_nationkey"].to_numpy(), nat_keys)
    skeys, snat = _sorted_lookup(
        st.filter(pa.array(smask)), "s_suppkey", ["s_nationkey"]
    )

    lo = np.datetime64(f"{year}-01-01", "us").astype(np.int64)
    hi = np.datetime64(f"{year + 1}-01-01", "us").astype(np.int64)
    ot = pq.read_table(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey",
                                             "o_orderdate"]
    )
    odate = ot["o_orderdate"].cast(pa.timestamp("us")).cast(
        pa.int64()
    ).to_numpy()
    ot = ot.filter(pa.array((odate >= lo) & (odate < hi)))
    okeys, ocust = _sorted_lookup(ot, "o_orderkey", ["o_custkey"])

    lookup_ref = ray.put((okeys, ocust, ckeys, cnat, skeys, snat))

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "n_nationkey": pa.array([], pa.int64()),
                "cents": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        ok, oc, ck, cn, sk, sn = ray.get(lookup_ref)
        opos, ohit = _probe_sorted(ok, t["l_orderkey"].to_numpy())
        spos, shit = _probe_sorted(sk, t["l_suppkey"].to_numpy())
        keep = ohit & shit
        if not keep.any():
            return empty
        cpos, chit = _probe_sorted(ck, oc[opos[keep]])
        c_nat = cn[cpos]
        s_nat = sn[spos[keep]]
        same = chit & (c_nat == s_nat)
        if not same.any():
            return empty
        cents = _rev_cents(
            t["l_extendedprice"].combine_chunks(),
            t["l_discount"].combine_chunks(),
        ).to_numpy()[keep][same]
        agg = pa.table(
            {
                "n_nationkey": pa.array(c_nat[same], pa.int64()),
                "cents": pa.array(cents, pa.int64()),
            }
        ).group_by("n_nationkey").aggregate([("cents", "sum")])
        return agg.rename_columns(["n_nationkey", "cents"])

    sums = bounded_key_sum(
        _read(
            sf_dir, "lineitem",
            ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
        ).map_batches(partial, batch_format="pyarrow", batch_size=65536),
        keys=["n_nationkey"], sum_cols=["cents"],
    ).to_pandas()  # ≤ |nations in region| rows

    sums["n_name"] = sums["n_nationkey"].map(nat_names)
    sums["revenue"] = sums["cents"].astype("float64") / 100.0
    sums = sums.sort_values(
        "revenue", ascending=False, kind="mergesort"
    ).reset_index(drop=True)
    return sums[["n_name", "revenue"]]


def q5_oracle_sql(region: str = "ASIA", year: int = 1996) -> str:
    cents = (
        "CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 100 + 0.5)"
        " AS BIGINT)"
    )
    return f"""
        SELECT n.n_name, SUM({cents}) / 100.0 AS revenue
        FROM customer c
        JOIN orders o ON c.c_custkey = o.o_custkey
        JOIN lineitem l ON l.l_orderkey = o.o_orderkey
        JOIN supplier s ON s.s_suppkey = l.l_suppkey
                       AND s.s_nationkey = c.c_nationkey
        JOIN nation n ON n.n_nationkey = c.c_nationkey
        JOIN region r ON r.r_regionkey = n.n_regionkey
        WHERE r.r_name = '{region}'
          AND o.o_orderdate >= TIMESTAMP '{year}-01-01'
          AND o.o_orderdate < TIMESTAMP '{year + 1}-01-01'
        GROUP BY n.n_name
        ORDER BY revenue DESC
    """


def q10_returned_items(sf_dir: str, date_lo: str = "1996-01-01",
                       months: int = 3, k: int = 20):
    """TPC-H Q10 shape: top-``k`` customers by revenue lost to returned
    lineitems (``l_returnflag = 'R'``) on orders placed in the
    ``months``-month window from ``date_lo``; customer name/acctbal and
    nation fetched for the winners only.

    Scale shape: quarter-filtered orders broadcast as a sorted
    (orderkey → custkey) array (1/32 of orders; above ~5M rows use the
    cogroup tier of ``_customer_revenue_partials``); the returned-flag
    filter and custkey resolution fuse into one lineitem pass emitting
    per-batch custkey partials; ONE hash shuffle on custkey, exact
    partition-local top-k, driver merges ≤ P×k rows; the customer and
    nation dims are probed only for the k winners (top-k-first — the
    customer table is never broadcast or shuffled)."""
    import pyarrow.parquet as pq
    import ray

    from autoner_ray.cluster import default_num_partitions
    from autoner_ray.stages.joins import _stable_part_col

    lo = np.datetime64(date_lo, "us")
    hi_m = np.datetime64(date_lo, "M") + months
    hi = np.datetime64(str(hi_m) + "-01", "us")
    lo_us, hi_us = lo.astype(np.int64), hi.astype(np.int64)

    ot = pq.read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    )
    odate = ot["o_orderdate"].cast(pa.timestamp("us")).cast(
        pa.int64()
    ).to_numpy()
    ot = ot.filter(pa.array((odate >= lo_us) & (odate < hi_us)))
    okeys, ocust = _sorted_lookup(ot, "o_orderkey", ["o_custkey"])
    lookup_ref = ray.put((okeys, ocust))

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "o_custkey": pa.array([], pa.int64()),
                "cents": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        flags = np.asarray(
            t["l_returnflag"].to_numpy(zero_copy_only=False)
        )
        t = t.filter(pa.array(flags == "R"))
        if len(t) == 0:
            return empty
        ok, oc = ray.get(lookup_ref)
        pos, hit = _probe_sorted(ok, t["l_orderkey"].to_numpy())
        if not hit.any():
            return empty
        cents = _rev_cents(
            t["l_extendedprice"].combine_chunks(),
            t["l_discount"].combine_chunks(),
        ).to_numpy()[hit]
        agg = pa.table(
            {
                "o_custkey": pa.array(oc[pos[hit]], pa.int64()),
                "cents": pa.array(cents, pa.int64()),
            }
        ).group_by("o_custkey").aggregate([("cents", "sum")])
        return agg.rename_columns(["o_custkey", "cents"])

    P = default_num_partitions()

    def add_part(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "o_custkey": pa.array([], pa.int64()),
                    "cents": pa.array([], pa.int64()),
                    "part": pa.array([], pa.int32()),
                }
            )
        return t.append_column(
            "part", _stable_part_col(t, ("o_custkey",), P)
        )

    def part_topk(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0 or "o_custkey" not in df.columns:
            return pd.DataFrame(
                {
                    "o_custkey": pd.Series(dtype="int64"),
                    "cents": pd.Series(dtype="int64"),
                }
            )
        sums = (
            df.groupby("o_custkey", sort=False)["cents"]
            .sum()
            .reset_index(name="cents")
        )
        return sums.sort_values(
            ["cents", "o_custkey"], ascending=[False, True],
            kind="mergesort",
        ).head(k)

    cand = (
        _read(
            sf_dir, "lineitem",
            ["l_orderkey", "l_returnflag", "l_extendedprice",
             "l_discount"],
        )
        .map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(part_topk, batch_format="pandas")
        .to_pandas()
    )
    topk = cand.sort_values(
        ["cents", "o_custkey"], ascending=[False, True], kind="mergesort"
    ).head(k).reset_index(drop=True)

    keys = pa.array(topk["o_custkey"].tolist(), pa.int64())

    def pick(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t["c_custkey"], value_set=keys))

    names = (
        _read(
            sf_dir, "customer",
            ["c_custkey", "c_name", "c_acctbal", "c_nationkey"],
        )
        .map_batches(pick, batch_format="pyarrow")
        .to_pandas()
    )  # exactly k rows
    nt = pq.read_table(f"{sf_dir}/nation.parquet")
    nat_names = dict(
        zip(
            nt["n_nationkey"].to_numpy().tolist(),
            np.asarray(
                nt["n_name"].to_numpy(zero_copy_only=False)
            ).tolist(),
        )
    )
    out = topk.merge(
        names, left_on="o_custkey", right_on="c_custkey", how="left"
    )
    out["revenue"] = out["cents"].astype("float64") / 100.0
    out["n_name"] = out["c_nationkey"].map(nat_names)
    out = out.sort_values(
        ["revenue", "c_custkey"], ascending=[False, True], kind="mergesort"
    ).reset_index(drop=True)
    return out[["c_custkey", "c_name", "revenue", "c_acctbal", "n_name"]]


def q10_oracle_sql(date_lo: str = "1996-01-01", months: int = 3,
                   k: int = 20) -> str:
    hi_m = np.datetime64(date_lo, "M") + months
    hi = str(hi_m) + "-01"
    cents = (
        "CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 100 + 0.5)"
        " AS BIGINT)"
    )
    return f"""
        SELECT c.c_custkey, c.c_name,
               SUM({cents}) / 100.0 AS revenue,
               c.c_acctbal, n.n_name
        FROM customer c
        JOIN orders o ON c.c_custkey = o.o_custkey
        JOIN lineitem l ON l.l_orderkey = o.o_orderkey
        JOIN nation n ON n.n_nationkey = c.c_nationkey
        WHERE l.l_returnflag = 'R'
          AND o.o_orderdate >= TIMESTAMP '{date_lo}'
          AND o.o_orderdate < TIMESTAMP '{hi}'
        GROUP BY c.c_custkey, c.c_name, c.c_acctbal, n.n_name
        ORDER BY SUM({cents}) DESC, c.c_custkey
        LIMIT {k}
    """


def q8_market_share(sf_dir: str, region: str = "AMERICA",
                    nation: str = "NATION_1", ptype: str = "ECONOMY",
                    y0: int = 1995, y1: int = 1996):
    """TPC-H Q8 shape: ``nation``'s supplier market share (ppm, exact
    integer) of ``ptype``-part revenue sold to ``region`` customers,
    per order year.

    Scale shape: identical to :func:`q5_local_supplier_volume` — four
    broadcast sorted-array dims (part filtered to ``ptype``, orders
    filtered to the two years, customers filtered to the region,
    supplier carrying an is-``nation`` flag), one fused lineitem pass,
    per-batch partials keyed by (year, flag) — a ≤4-row key space — and
    an exact integer ppm division at the end (value-hash safe)."""
    import pyarrow.parquet as pq
    import ray

    from autoner_ray.stages.combine import bounded_key_sum

    pt = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"]
    )
    pmask = (
        np.asarray(pt["p_type"].to_numpy(zero_copy_only=False)) == ptype
    )
    pkeys = np.sort(pt["p_partkey"].to_numpy()[pmask])

    rt = pq.read_table(f"{sf_dir}/region.parquet")
    nt = pq.read_table(f"{sf_dir}/nation.parquet")
    rkeys = rt["r_regionkey"].to_numpy()[
        np.asarray(rt["r_name"].to_numpy(zero_copy_only=False)) == region
    ]
    region_nat = nt["n_nationkey"].to_numpy()[
        np.isin(nt["n_regionkey"].to_numpy(), rkeys)
    ]
    nation_key = nt["n_nationkey"].to_numpy()[
        np.asarray(nt["n_name"].to_numpy(zero_copy_only=False)) == nation
    ]

    ct = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    ckeys = np.sort(
        ct["c_custkey"].to_numpy()[
            np.isin(ct["c_nationkey"].to_numpy(), region_nat)
        ]
    )

    st = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    skeys, snat = _sorted_lookup(st, "s_suppkey", ["s_nationkey"])
    sflag = np.isin(snat, nation_key)

    lo = np.datetime64(f"{y0}-01-01", "us").astype(np.int64)
    hi = np.datetime64(f"{y1 + 1}-01-01", "us").astype(np.int64)
    ot = pq.read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    )
    odate = ot["o_orderdate"].cast(pa.timestamp("us")).cast(
        pa.int64()
    ).to_numpy()
    keep = (odate >= lo) & (odate < hi)
    ot = ot.filter(pa.array(keep))
    oyear = odate[keep].astype("datetime64[us]").astype(
        "datetime64[Y]"
    ).astype(np.int64) + 1970
    ot = ot.append_column("o_year", pa.array(oyear, pa.int64()))
    okeys, ocust, oyr = _sorted_lookup(
        ot, "o_orderkey", ["o_custkey", "o_year"]
    )

    lookup_ref = ray.put((pkeys, ckeys, skeys, sflag, okeys, ocust, oyr))

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "o_year": pa.array([], pa.int64()),
                "is_nation": pa.array([], pa.int64()),
                "cents": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        pk, ck, sk, sf, ok, oc, oy = ray.get(lookup_ref)
        _, phit = _probe_sorted(pk, t["l_partkey"].to_numpy())
        opos, ohit = _probe_sorted(ok, t["l_orderkey"].to_numpy())
        spos, shit = _probe_sorted(sk, t["l_suppkey"].to_numpy())
        keep = phit & ohit & shit
        if not keep.any():
            return empty
        _, chit = _probe_sorted(ck, oc[opos[keep]])
        if not chit.any():
            return empty
        cents = _rev_cents(
            t["l_extendedprice"].combine_chunks(),
            t["l_discount"].combine_chunks(),
        ).to_numpy()[keep][chit]
        agg = pa.table(
            {
                "o_year": pa.array(oy[opos[keep]][chit], pa.int64()),
                "is_nation": pa.array(
                    sf[spos[keep]][chit].astype(np.int64), pa.int64()
                ),
                "cents": pa.array(cents, pa.int64()),
            }
        ).group_by(["o_year", "is_nation"]).aggregate([("cents", "sum")])
        return agg.rename_columns(["o_year", "is_nation", "cents"])

    sums = bounded_key_sum(
        _read(
            sf_dir, "lineitem",
            ["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice",
             "l_discount"],
        ).map_batches(partial, batch_format="pyarrow", batch_size=65536),
        keys=["o_year", "is_nation"], sum_cols=["cents"],
    ).to_pandas()  # ≤ 2 years × 2 flags rows

    if len(sums) == 0:
        return pd.DataFrame(
            {
                "o_year": pd.Series(dtype="int64"),
                "mkt_share_ppm": pd.Series(dtype="int64"),
            }
        )
    per = sums.pivot_table(
        index="o_year", columns="is_nation", values="cents",
        aggfunc="sum", fill_value=0,
    )
    num = per[1] if 1 in per.columns else pd.Series(0, index=per.index)
    den = per.sum(axis=1)
    out = pd.DataFrame(
        {
            "o_year": per.index.astype("int64"),
            "mkt_share_ppm": (
                num.astype("int64") * 1_000_000 // den.astype("int64")
            ).astype("int64").to_numpy(),
        }
    ).sort_values("o_year", kind="mergesort").reset_index(drop=True)
    return out


def q8_oracle_sql(region: str = "AMERICA", nation: str = "NATION_1",
                  ptype: str = "ECONOMY", y0: int = 1995,
                  y1: int = 1996) -> str:
    cents = (
        "CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 100 + 0.5)"
        " AS BIGINT)"
    )
    return f"""
        WITH flat AS (
            SELECT CAST(year(o.o_orderdate) AS BIGINT) AS o_year,
                   CASE WHEN sn.n_name = '{nation}' THEN 1 ELSE 0 END
                       AS is_nation,
                   {cents} AS cents
            FROM lineitem l
            JOIN part p ON p.p_partkey = l.l_partkey
            JOIN orders o ON o.o_orderkey = l.l_orderkey
            JOIN customer c ON c.c_custkey = o.o_custkey
            JOIN nation cn ON cn.n_nationkey = c.c_nationkey
            JOIN region r ON r.r_regionkey = cn.n_regionkey
            JOIN supplier s ON s.s_suppkey = l.l_suppkey
            JOIN nation sn ON sn.n_nationkey = s.s_nationkey
            WHERE p.p_type = '{ptype}' AND r.r_name = '{region}'
              AND o.o_orderdate >= TIMESTAMP '{y0}-01-01'
              AND o.o_orderdate < TIMESTAMP '{y1 + 1}-01-01'
        )
        SELECT o_year,
               CAST(SUM(cents * is_nation) * 1000000 // SUM(cents)
                    AS BIGINT) AS mkt_share_ppm
        FROM flat
        GROUP BY o_year
        ORDER BY o_year
    """


def q18_large_orders(sf_dir: str, qty_threshold: int = 150,
                     k: int = 100, broadcast_max_rows: int = 5_000_000):
    """TPC-H Q18 shape (HAVING semi-join): the top-``k`` orders by
    ``o_totalprice`` among orders whose total lineitem quantity
    exceeds ``qty_threshold``, with customer name attached.

    Scale shape: per-batch (orderkey, qty) partials -> ONE hash
    shuffle on orderkey; inside the same grouped pass each partition
    finalizes its sums, applies the HAVING filter, resolves order
    attrs from a broadcast sorted (orderkey -> custkey/date/
    totalprice) lookup (orders ≤ ``broadcast_max_rows``; swap to a
    cogroup join of the winners — a table already shrunk by the
    HAVING filter — above it) and keeps its local top-``k``; the
    driver merges ≤ P×k rows and fetches names for exactly the k
    winning custkeys (top-k-first). Quantities are integral doubles,
    so their sums are order-independent-exact; they are reported as
    BIGINT on both sides."""
    import pyarrow.parquet as pq
    import ray

    from autoner_ray.cluster import default_num_partitions
    from autoner_ray.stages.joins import _stable_part_col

    ot = pq.read_table(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate",
                 "o_totalprice"],
    )
    okeys = ot["o_orderkey"].to_numpy()
    ix = np.argsort(okeys, kind="stable")
    lookup_ref = ray.put(
        (
            okeys[ix],
            ot["o_custkey"].to_numpy()[ix],
            ot["o_orderdate"].cast(pa.timestamp("us")).cast(
                pa.int64()
            ).to_numpy()[ix],
            ot["o_totalprice"].to_numpy()[ix],
        )
    )
    P = default_num_partitions()

    def qty_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "l_orderkey": pa.array([], pa.int64()),
                    "qty": pa.array([], pa.int64()),
                    "part": pa.array([], pa.int32()),
                }
            )
        agg = (
            pa.table(
                {
                    "l_orderkey": t["l_orderkey"],
                    "qty": pc.cast(
                        t["l_quantity"].combine_chunks(), pa.int64()
                    ),
                }
            )
            .group_by("l_orderkey")
            .aggregate([("qty", "sum")])
            .rename_columns(["l_orderkey", "qty"])
        )
        return agg.append_column(
            "part", _stable_part_col(agg, ("l_orderkey",), P)
        )

    def having_topk(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "o_orderkey": pd.Series(dtype="int64"),
                "o_custkey": pd.Series(dtype="int64"),
                "o_orderdate_us": pd.Series(dtype="int64"),
                "o_totalprice": pd.Series(dtype="float64"),
                "sum_qty": pd.Series(dtype="int64"),
            }
        )
        if len(df) == 0 or "l_orderkey" not in df.columns:
            return empty
        sums = (
            df.groupby("l_orderkey", sort=False)["qty"]
            .sum()
            .reset_index(name="sum_qty")
        )
        sums = sums[sums["sum_qty"] > qty_threshold]
        if len(sums) == 0:
            return empty
        import ray as _ray

        keys, custs, dates, prices = _ray.get(lookup_ref)
        lk = sums["l_orderkey"].to_numpy(np.int64)
        pos = np.clip(np.searchsorted(keys, lk), 0, len(keys) - 1)
        hit = keys[pos] == lk if len(keys) else np.zeros(len(lk), bool)
        sums = sums[hit]
        pos = pos[hit]
        out = pd.DataFrame(
            {
                "o_orderkey": sums["l_orderkey"].to_numpy(np.int64),
                "o_custkey": custs[pos],
                "o_orderdate_us": dates[pos],
                "o_totalprice": prices[pos],
                "sum_qty": sums["sum_qty"].to_numpy(np.int64),
            }
        )
        return out.sort_values(
            ["o_totalprice", "o_orderkey"], ascending=[False, True],
            kind="mergesort",
        ).head(k).reset_index(drop=True)

    cand = (
        _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])
        .map_batches(qty_partial, batch_format="pyarrow",
                     batch_size=65536)
        .groupby("part")
        .map_groups(having_topk, batch_format="pandas")
        .to_pandas()
    )  # ≤ P×k rows
    topk = cand.sort_values(
        ["o_totalprice", "o_orderkey"], ascending=[False, True],
        kind="mergesort",
    ).head(k).reset_index(drop=True)

    keys = pa.array(topk["o_custkey"].tolist(), pa.int64())

    def pick(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t["c_custkey"], value_set=keys))

    names = (
        _read(sf_dir, "customer", ["c_custkey", "c_name"])
        .map_batches(pick, batch_format="pyarrow")
        .to_pandas()
    )
    out = topk.merge(
        names, left_on="o_custkey", right_on="c_custkey", how="left"
    )
    out["o_orderdate"] = pd.to_datetime(out["o_orderdate_us"], unit="us")
    return out[
        ["c_name", "c_custkey", "o_orderkey", "o_orderdate",
         "o_totalprice", "sum_qty"]
    ]


def q18_oracle_sql(qty_threshold: int = 150, k: int = 100) -> str:
    return f"""
        WITH big AS (
            SELECT l_orderkey,
                   CAST(SUM(l_quantity) AS BIGINT) AS sum_qty
            FROM lineitem
            GROUP BY l_orderkey
            HAVING SUM(l_quantity) > {qty_threshold}
        )
        SELECT c.c_name, c.c_custkey, o.o_orderkey, o.o_orderdate,
               o.o_totalprice, b.sum_qty
        FROM big b
        JOIN orders o ON o.o_orderkey = b.l_orderkey
        JOIN customer c ON c.c_custkey = o.o_custkey
        ORDER BY o.o_totalprice DESC, o.o_orderkey
        LIMIT {k}
    """


def order_reconciliation(sf_dir: str, broadcast_max_rows: int = 5_000_000):
    """Data-quality reconciliation audit: per order, the lineitem-
    computed charge ``Σ floor(extprice·(1-disc)·(1+tax)·100+0.5)``
    against the stored ``o_totalprice``, histogrammed by signed percent
    deviation bucket ``clip(diff_ppm // 10000, -10, 10)`` — the ledger
    cross-check a warehouse runs after ingest. Exact integer cents and
    floor division on both sides.

    Scale shape: per-batch charge partials keyed by orderkey -> ONE
    hash shuffle; each partition finalizes sums, resolves the stored
    total from the broadcast sorted (orderkey -> total-cents) lookup
    (orders ≤ ``broadcast_max_rows``, cogroup tier above), buckets,
    and emits a ≤21-row histogram partial; a shuffle-free bounded
    combine finishes."""
    import pyarrow.parquet as pq
    import ray

    from autoner_ray.cluster import default_num_partitions
    from autoner_ray.stages.combine import bounded_key_sum
    from autoner_ray.stages.joins import _stable_part_col

    ot = pq.read_table(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )
    okeys = ot["o_orderkey"].to_numpy()
    ix = np.argsort(okeys, kind="stable")
    tot_cents = np.floor(
        ot["o_totalprice"].to_numpy() * 100.0 + 0.5
    ).astype(np.int64)
    lookup_ref = ray.put((okeys[ix], tot_cents[ix]))
    P = default_num_partitions()

    def charge_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "l_orderkey": pa.array([], pa.int64()),
                    "cents": pa.array([], pa.int64()),
                    "part": pa.array([], pa.int32()),
                }
            )
        p = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        d = t["l_discount"].to_numpy(zero_copy_only=False)
        x = t["l_tax"].to_numpy(zero_copy_only=False)
        cents = np.floor(
            p * (1.0 - d) * (1.0 + x) * 100.0 + 0.5
        ).astype(np.int64)
        agg = (
            pa.table(
                {
                    "l_orderkey": t["l_orderkey"],
                    "cents": pa.array(cents, pa.int64()),
                }
            )
            .group_by("l_orderkey")
            .aggregate([("cents", "sum")])
            .rename_columns(["l_orderkey", "cents"])
        )
        return agg.append_column(
            "part", _stable_part_col(agg, ("l_orderkey",), P)
        )

    def bucket_partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "bucket": pd.Series(dtype="int64"),
                "n_orders": pd.Series(dtype="int64"),
            }
        )
        if len(df) == 0 or "l_orderkey" not in df.columns:
            return empty
        sums = (
            df.groupby("l_orderkey", sort=False)["cents"]
            .sum()
            .reset_index()
        )
        import ray as _ray

        keys, tots = _ray.get(lookup_ref)
        lk = sums["l_orderkey"].to_numpy(np.int64)
        pos = np.clip(np.searchsorted(keys, lk), 0, len(keys) - 1)
        hit = keys[pos] == lk if len(keys) else np.zeros(len(lk), bool)
        if not hit.any():
            return empty
        comp = sums["cents"].to_numpy(np.int64)[hit]
        tot = tots[pos[hit]]
        diff_ppm = (comp - tot) * 1_000_000 // tot
        bucket = np.clip(diff_ppm // 10_000, -10, 10)
        vc = pd.Series(bucket).value_counts()
        return pd.DataFrame(
            {
                "bucket": vc.index.to_numpy(np.int64),
                "n_orders": vc.to_numpy(np.int64),
            }
        )

    partials = (
        _read(
            sf_dir, "lineitem",
            ["l_orderkey", "l_extendedprice", "l_discount", "l_tax"],
        )
        .map_batches(charge_partial, batch_format="pyarrow",
                     batch_size=65536)
        .groupby("part")
        .map_groups(bucket_partial, batch_format="pandas")
    )
    return bounded_key_sum(partials, ["bucket"], ["n_orders"])


def order_reconciliation_oracle_sql() -> str:
    cents = (
        "CAST(floor(l_extendedprice * (1 - l_discount) * (1 + l_tax)"
        " * 100 + 0.5) AS BIGINT)"
    )
    return f"""
        WITH comp AS (
            SELECT l_orderkey, SUM({cents}) AS comp_cents
            FROM lineitem GROUP BY l_orderkey
        ),
        j AS (
            SELECT c.comp_cents AS cc,
                   CAST(floor(o.o_totalprice * 100 + 0.5) AS BIGINT)
                       AS tc
            FROM comp c JOIN orders o ON o.o_orderkey = c.l_orderkey
        ),
        -- DuckDB // truncates toward zero; numpy floors. Emulate FLOOR
        -- division (positive divisors) with a remainder correction.
        p1 AS (
            SELECT tc, (cc - tc) * 1000000 AS num FROM j
        ),
        p2 AS (
            SELECT (num // tc) - CASE WHEN num % tc <> 0 AND num < 0
                                 THEN 1 ELSE 0 END AS ppm
            FROM p1
        ),
        d AS (
            SELECT greatest(-10, least(10,
                       (ppm // 10000)
                       - CASE WHEN ppm % 10000 <> 0 AND ppm < 0
                         THEN 1 ELSE 0 END
                   )) AS bucket
            FROM p2
        )
        SELECT bucket, COUNT(*) AS n_orders FROM d GROUP BY bucket
    """


def q7_volume_shipping(sf_dir: str, nation_a: str = "NATION_3",
                       nation_b: str = "NATION_7",
                       year_lo: int = 1996, year_hi: int = 1997):
    """TPC-H Q7 shape (volume shipping): revenue flowing between two
    nations — supplier in one, ordering customer in the other — per
    direction per ship year, over a two-year window.

    Scale shape: the q5 idiom — lineitem never shuffles; supplier and
    customer broadcast pre-filtered to the two nations (tiny), orders
    broadcasts as a sorted (orderkey -> custkey) array (swap to the
    cogroup tier at TPC-H sf≳30, as q5's docstring prescribes); one
    fused pass filters on shipdate, resolves both nation ends locally,
    keeps only cross-nation rows and emits per-batch cents partials
    keyed by the ≤ 2×|years| (supp, cust, year) space."""
    import pyarrow.parquet as pq
    import ray

    from autoner_ray.stages.combine import bounded_key_sum

    nt = pq.read_table(f"{sf_dir}/nation.parquet")
    names = np.asarray(nt["n_name"].to_numpy(zero_copy_only=False))
    keys = nt["n_nationkey"].to_numpy()
    sel = {
        int(keys[i]): str(names[i])
        for i in range(len(keys))
        if names[i] in (nation_a, nation_b)
    }
    nat_keys = np.array(sorted(sel), dtype=np.int64)

    st = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    st = st.filter(pa.array(np.isin(st["s_nationkey"].to_numpy(), nat_keys)))
    skeys, snat = _sorted_lookup(st, "s_suppkey", ["s_nationkey"])

    ct = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    ct = ct.filter(pa.array(np.isin(ct["c_nationkey"].to_numpy(), nat_keys)))
    ckeys, cnat = _sorted_lookup(ct, "c_custkey", ["c_nationkey"])

    ot = pq.read_table(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )
    # pre-filter orders to customers of the two nations (the only rows
    # that can survive the join) before broadcasting
    cpos, chit = _probe_sorted(ckeys, ot["o_custkey"].to_numpy())
    ot = ot.filter(pa.array(chit))
    okeys, ocust = _sorted_lookup(ot, "o_orderkey", ["o_custkey"])

    lookup_ref = ray.put((okeys, ocust, ckeys, cnat, skeys, snat))
    lo = np.datetime64(f"{year_lo}-01-01", "us").astype(np.int64)
    hi = np.datetime64(f"{year_hi + 1}-01-01", "us").astype(np.int64)

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "supp_nationkey": pa.array([], pa.int64()),
                "cust_nationkey": pa.array([], pa.int64()),
                "l_year": pa.array([], pa.int64()),
                "cents": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        ok, oc, ck, cn, sk, sn = ray.get(lookup_ref)
        ship = t["l_shipdate"].cast(pa.timestamp("us")).cast(
            pa.int64()
        ).to_numpy()
        keep = (ship >= lo) & (ship < hi)
        spos, shit = _probe_sorted(sk, t["l_suppkey"].to_numpy())
        opos, ohit = _probe_sorted(ok, t["l_orderkey"].to_numpy())
        keep &= shit & ohit
        if not keep.any():
            return empty
        cpos2, chit2 = _probe_sorted(ck, oc[opos[keep]])
        s_nat = sn[spos[keep]]
        c_nat = cn[cpos2]
        cross = chit2 & (s_nat != c_nat)
        if not cross.any():
            return empty
        years = (
            ship[keep][cross].astype("M8[us]").astype("M8[Y]").astype(np.int64)
            + 1970
        )
        cents = _rev_cents(
            t["l_extendedprice"].combine_chunks(),
            t["l_discount"].combine_chunks(),
        ).to_numpy()[keep][cross]
        agg = pa.table(
            {
                "supp_nationkey": pa.array(s_nat[cross], pa.int64()),
                "cust_nationkey": pa.array(c_nat[cross], pa.int64()),
                "l_year": pa.array(years, pa.int64()),
                "cents": pa.array(cents, pa.int64()),
            }
        ).group_by(
            ["supp_nationkey", "cust_nationkey", "l_year"]
        ).aggregate([("cents", "sum")])
        return agg.rename_columns(
            ["supp_nationkey", "cust_nationkey", "l_year", "cents"]
        )

    sums = bounded_key_sum(
        _read(
            sf_dir, "lineitem",
            ["l_orderkey", "l_suppkey", "l_shipdate",
             "l_extendedprice", "l_discount"],
        ).map_batches(partial, batch_format="pyarrow", batch_size=65536),
        keys=["supp_nationkey", "cust_nationkey", "l_year"],
        sum_cols=["cents"],
    ).to_pandas()  # ≤ 2 directions × |years| rows

    sums["supp_nation"] = sums["supp_nationkey"].map(sel)
    sums["cust_nation"] = sums["cust_nationkey"].map(sel)
    sums["revenue"] = sums["cents"].astype("float64") / 100.0
    sums = sums.sort_values(
        ["supp_nation", "cust_nation", "l_year"], kind="mergesort"
    ).reset_index(drop=True)
    return sums[["supp_nation", "cust_nation", "l_year", "revenue"]]


def q7_oracle_sql(nation_a: str = "NATION_3", nation_b: str = "NATION_7",
                  year_lo: int = 1996, year_hi: int = 1997) -> str:
    cents = (
        "CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 100 + 0.5)"
        " AS BIGINT)"
    )
    return f"""
        SELECT ns.n_name AS supp_nation, nc.n_name AS cust_nation,
               CAST(EXTRACT(year FROM l.l_shipdate) AS BIGINT) AS l_year,
               SUM({cents}) / 100.0 AS revenue
        FROM lineitem l
        JOIN supplier s ON s.s_suppkey = l.l_suppkey
        JOIN orders o ON o.o_orderkey = l.l_orderkey
        JOIN customer c ON c.c_custkey = o.o_custkey
        JOIN nation ns ON ns.n_nationkey = s.s_nationkey
        JOIN nation nc ON nc.n_nationkey = c.c_nationkey
        WHERE ((ns.n_name = '{nation_a}' AND nc.n_name = '{nation_b}')
               OR (ns.n_name = '{nation_b}' AND nc.n_name = '{nation_a}'))
          AND l.l_shipdate >= TIMESTAMP '{year_lo}-01-01'
          AND l.l_shipdate < TIMESTAMP '{year_hi + 1}-01-01'
        GROUP BY 1, 2, 3
    """


def q17_small_quantity_revenue(sf_dir: str, brand: str = "Brand#13"):
    """TPC-H Q17 shape (small-quantity-order revenue): average yearly
    revenue lost if orders below 20%% of a part's average quantity were
    not taken, restricted to one brand. Integer-exact: with integer
    quantities, ``l_quantity < 0.2 * avg(l_quantity)`` is equivalent to
    ``5 * qty * cnt < sum_qty`` — no float threshold on either side —
    and revenue is summed in cents (``SUM(l_extendedprice)/7`` becomes
    ``total_cents / 700.0`` computed from the same int on both sides).

    Scale shape: two streaming passes over the PRUNED lineitem columns,
    zero shuffles of the fact table. Pass 1 computes per-part
    (sum_qty, cnt) partials for the brand's parts (bounded by
    |brand parts|, ~1/25 of part) via ``bounded_key_sum``; the tiny
    result broadcasts as sorted arrays; pass 2 applies the integer
    threshold locally and emits scalar cents partials."""
    import pyarrow.parquet as pq
    import ray

    from autoner_ray.stages.combine import bounded_key_sum

    pt = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"]
    )
    mask = np.asarray(
        pt["p_brand"].to_numpy(zero_copy_only=False)
    ) == brand
    pkeys = np.sort(pt["p_partkey"].to_numpy()[mask])
    pkeys_ref = ray.put(pkeys)

    def qty_partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "l_partkey": pa.array([], pa.int64()),
                "sum_qty": pa.array([], pa.int64()),
                "cnt": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        pk = ray.get(pkeys_ref)
        probe = t["l_partkey"].to_numpy()
        _, hit = _probe_sorted(pk, probe)
        if not hit.any():
            return empty
        qty = t["l_quantity"].to_numpy().astype(np.int64)[hit]
        agg = pa.table(
            {
                "l_partkey": pa.array(probe[hit], pa.int64()),
                "sum_qty": pa.array(qty, pa.int64()),
                "cnt": pa.array(np.ones(len(qty), np.int64), pa.int64()),
            }
        ).group_by("l_partkey").aggregate(
            [("sum_qty", "sum"), ("cnt", "sum")]
        )
        return agg.rename_columns(["l_partkey", "sum_qty", "cnt"])

    cols = ["l_partkey", "l_quantity", "l_extendedprice"]
    stats = bounded_key_sum(
        _read(sf_dir, "lineitem", ["l_partkey", "l_quantity"]).map_batches(
            qty_partial, batch_format="pyarrow", batch_size=65536
        ),
        keys=["l_partkey"], sum_cols=["sum_qty", "cnt"],
    ).to_pandas()  # ≤ |brand parts| rows

    sk = stats["l_partkey"].to_numpy()
    order = np.argsort(sk, kind="stable")
    stats_ref = ray.put(
        (
            sk[order],
            stats["sum_qty"].to_numpy()[order],
            stats["cnt"].to_numpy()[order],
        )
    )

    def rev_partial(t: pa.Table) -> pa.Table:
        empty = pa.table({"total_cents": pa.array([], pa.int64())})
        if t.num_columns == 0 or len(t) == 0:
            return empty
        keys, sums, cnts = ray.get(stats_ref)
        pos, hit = _probe_sorted(keys, t["l_partkey"].to_numpy())
        if not hit.any():
            return empty
        qty = t["l_quantity"].to_numpy().astype(np.int64)
        small = hit & (5 * qty * np.where(hit, cnts[pos], 0)
                       < np.where(hit, sums[pos], 0))
        if not small.any():
            return empty
        price = t["l_extendedprice"].to_numpy().astype(np.float64)[small]
        cents = np.floor(price * 100.0 + 0.5).astype(np.int64)
        return pa.table(
            {"total_cents": pa.array([int(cents.sum())], pa.int64())}
        )

    import pandas as pd

    totals = (
        _read(sf_dir, "lineitem", cols)
        .map_batches(rev_partial, batch_format="pyarrow", batch_size=65536)
        .to_pandas()
    )
    total = int(totals["total_cents"].sum()) if len(totals) else 0
    return pd.DataFrame(
        {"total_cents": [total], "avg_yearly": [total / 700.0]}
    )


def q17_oracle_sql(brand: str = "Brand#13") -> str:
    return f"""
        WITH stats AS (
            SELECT l_partkey,
                   CAST(SUM(l_quantity) AS BIGINT) AS sum_qty,
                   COUNT(*) AS cnt
            FROM lineitem
            JOIN part ON p_partkey = l_partkey
            WHERE p_brand = '{brand}'
            GROUP BY l_partkey
        ),
        small AS (
            SELECT CAST(floor(l.l_extendedprice * 100 + 0.5) AS BIGINT)
                       AS cents
            FROM lineitem l
            JOIN stats s ON s.l_partkey = l.l_partkey
            WHERE 5 * CAST(l.l_quantity AS BIGINT) * s.cnt < s.sum_qty
        )
        SELECT COALESCE(CAST(SUM(cents) AS BIGINT), 0) AS total_cents,
               COALESCE(CAST(SUM(cents) AS BIGINT), 0) / 700.0
                   AS avg_yearly
        FROM small
    """


def q19_disjunctive_revenue(sf_dir: str):
    """TPC-H Q19 shape (discounted revenue, disjunction of conjunctive
    predicates): revenue from lineitems whose PART matches one of three
    (brand, size-range) classes each paired with its own quantity
    range — the classic OR-of-ANDs multi-predicate scan.

    Scale shape: part broadcasts once pre-filtered to the three brands
    (keyed arrays: partkey -> class id + size); one streaming pass over
    pruned lineitem columns evaluates the disjunction with numpy masks
    and emits scalar cents partials. No shuffle, no join materialized."""
    import pyarrow.parquet as pq
    import ray

    CLASSES = (
        ("Brand#13", 1, 15, 1, 11),
        ("Brand#25", 10, 25, 10, 20),
        ("Brand#22", 20, 35, 20, 30),
    )
    pt = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand", "p_size"]
    )
    brands = np.asarray(pt["p_brand"].to_numpy(zero_copy_only=False))
    sizes = pt["p_size"].to_numpy().astype(np.int64)
    pkeys = pt["p_partkey"].to_numpy()
    cls = np.full(len(pkeys), -1, np.int64)
    for i, (b, slo, shi, _, _) in enumerate(CLASSES):
        cls[(brands == b) & (sizes >= slo) & (sizes <= shi)] = i
    keep = cls >= 0
    order = np.argsort(pkeys[keep], kind="stable")
    lut_ref = ray.put((pkeys[keep][order], cls[keep][order]))
    qlo = np.array([c[3] for c in CLASSES], np.int64)
    qhi = np.array([c[4] for c in CLASSES], np.int64)

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table({"total_cents": pa.array([], pa.int64())})
        if t.num_columns == 0 or len(t) == 0:
            return empty
        keys, classes = ray.get(lut_ref)
        pos, hit = _probe_sorted(keys, t["l_partkey"].to_numpy())
        qty = t["l_quantity"].to_numpy().astype(np.int64)
        c = np.where(hit, classes[pos], 0)
        match = hit & (qty >= qlo[c]) & (qty <= qhi[c])
        if not match.any():
            return empty
        cents = _rev_cents(
            t["l_extendedprice"].combine_chunks(),
            t["l_discount"].combine_chunks(),
        ).to_numpy()[match]
        return pa.table(
            {"total_cents": pa.array([int(cents.sum())], pa.int64())}
        )

    import pandas as pd

    totals = (
        _read(
            sf_dir, "lineitem",
            ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
        )
        .map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .to_pandas()
    )
    total = int(totals["total_cents"].sum()) if len(totals) else 0
    return pd.DataFrame(
        {"total_cents": [total], "revenue": [total / 100.0]}
    )


def q19_oracle_sql() -> str:
    cents = (
        "CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 100 + 0.5)"
        " AS BIGINT)"
    )
    return f"""
        WITH m AS (
            SELECT {cents} AS cents
            FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
            WHERE (p.p_brand = 'Brand#13' AND p.p_size BETWEEN 1 AND 15
                   AND l.l_quantity BETWEEN 1 AND 11)
               OR (p.p_brand = 'Brand#25' AND p.p_size BETWEEN 10 AND 25
                   AND l.l_quantity BETWEEN 10 AND 20)
               OR (p.p_brand = 'Brand#22' AND p.p_size BETWEEN 20 AND 35
                   AND l.l_quantity BETWEEN 20 AND 30)
        )
        SELECT COALESCE(CAST(SUM(cents) AS BIGINT), 0) AS total_cents,
               COALESCE(CAST(SUM(cents) AS BIGINT), 0) / 100.0 AS revenue
        FROM m
    """


def q15_top_supplier(sf_dir: str, date_lo: str = "1996-01-01",
                     months: int = 3):
    """TPC-H Q15 shape (top supplier): revenue per supplier over one
    quarter of shipments, returning the supplier(s) whose revenue
    equals the maximum (ties kept, as the spec's view formulation
    does). Integer cents end-to-end, so "equals the max" is exact.

    Scale shape: one streaming pass over date-filtered lineitem emits
    per-batch (suppkey, cents) arrow hash partials -> shuffle-free
    bounded combine over the supplier key space (|suppliers| ≪ corpus;
    at TPC-H sf≳100 swap the combine for a hash-partitioned groupby) ->
    max + filter + name join on the tiny result."""
    import pyarrow.parquet as pq

    from autoner_ray.stages.combine import bounded_key_sum

    lo = np.datetime64(date_lo, "us")
    hi_m = (lo.astype("M8[M]") + months).astype("M8[us]")
    lo_i, hi_i = lo.astype(np.int64), hi_m.astype(np.int64)

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "s_suppkey": pa.array([], pa.int64()),
                "cents": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        ship = t["l_shipdate"].cast(pa.timestamp("us")).cast(
            pa.int64()
        ).to_numpy()
        keep = (ship >= lo_i) & (ship < hi_i)
        if not keep.any():
            return empty
        cents = _rev_cents(
            t["l_extendedprice"].combine_chunks(),
            t["l_discount"].combine_chunks(),
        ).to_numpy()[keep]
        agg = pa.table(
            {
                "s_suppkey": pa.array(
                    t["l_suppkey"].to_numpy()[keep], pa.int64()
                ),
                "cents": pa.array(cents, pa.int64()),
            }
        ).group_by("s_suppkey").aggregate([("cents", "sum")])
        return agg.rename_columns(["s_suppkey", "cents"])

    sums = bounded_key_sum(
        _read(
            sf_dir, "lineitem",
            ["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"],
        ).map_batches(partial, batch_format="pyarrow", batch_size=65536),
        keys=["s_suppkey"], sum_cols=["cents"],
    ).to_pandas()

    import pandas as pd

    if len(sums) == 0:
        return pd.DataFrame(
            {
                "s_suppkey": pd.Series(dtype="int64"),
                "s_name": pd.Series(dtype="object"),
                "total_revenue": pd.Series(dtype="float64"),
            }
        )
    top = sums[sums["cents"] == sums["cents"].max()].copy()
    st = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    ).to_pandas()
    top = top.merge(st, on="s_suppkey", how="left")
    top["total_revenue"] = top["cents"].astype("float64") / 100.0
    top = top.sort_values("s_suppkey", kind="mergesort").reset_index(
        drop=True
    )
    return top[["s_suppkey", "s_name", "total_revenue"]]


def q15_oracle_sql(date_lo: str = "1996-01-01", months: int = 3) -> str:
    cents = (
        "CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)"
        " AS BIGINT)"
    )
    return f"""
        WITH rev AS (
            SELECT l_suppkey AS s_suppkey, SUM({cents}) AS cents
            FROM lineitem
            WHERE l_shipdate >= TIMESTAMP '{date_lo}'
              AND l_shipdate < TIMESTAMP '{date_lo}'
                              + INTERVAL {months} MONTH
            GROUP BY 1
        )
        SELECT r.s_suppkey, s.s_name, r.cents / 100.0 AS total_revenue
        FROM rev r JOIN supplier s USING (s_suppkey)
        WHERE r.cents = (SELECT MAX(cents) FROM rev)
    """


def q22_sales_opportunity(sf_dir: str, cutoff: str = "2000-06-01"):
    """TPC-H Q22 shape (global sales opportunity): LAPSED customers —
    account balance above the average POSITIVE balance and no order on
    or after ``cutoff`` — counted and totalled per nation. Anti-join +
    scalar aggregate, the Q22 adaptation for this schema (no phone
    column — nation stands in for the country prefix; plain
    no-orders-ever is degenerate in this data, every customer has
    ordered at least once).

    Integer-exact: balances compare in cents (``floor(bal·100 + 0.5)``)
    against a FLOORED integer average, so the threshold is the same
    int64 on both sides.

    Scale shape: customer streams twice (balance-average partials, then
    the filtered scan); the no-orders anti-filter broadcasts the SORTED
    DISTINCT custkey array from a per-batch-distinct pass over orders
    (|customers with orders| ints — at sf≳100 swap to the
    hash-partitioned anti-join in ``customers_without_orders``); per-
    nation partials combine shuffle-free."""
    import pyarrow.parquet as pq
    import ray

    from autoner_ray.stages.combine import bounded_key_sum

    # scalar average of positive balances (cents, floored division)
    def bal_partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "sum_cents": pa.array([], pa.int64()),
                "n_pos": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        bal = t["c_acctbal"].to_numpy().astype(np.float64)
        cents = np.floor(bal * 100.0 + 0.5).astype(np.int64)
        pos = cents > 0
        return pa.table(
            {
                "sum_cents": pa.array([int(cents[pos].sum())], pa.int64()),
                "n_pos": pa.array([int(pos.sum())], pa.int64()),
            }
        )

    totals = (
        _read(sf_dir, "customer", ["c_acctbal"])
        .map_batches(bal_partial, batch_format="pyarrow",
                     batch_size=65536)
        .to_pandas()
    )
    n_pos = int(totals["n_pos"].sum())
    threshold = (
        int(totals["sum_cents"].sum()) // n_pos if n_pos else 0
    )

    cutoff_i = np.datetime64(cutoff, "us").astype(np.int64)

    def has_orders_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table({"c": pa.array([], pa.int64())})
        od = t["o_orderdate"].cast(pa.timestamp("us")).cast(
            pa.int64()
        ).to_numpy()
        recent = t.filter(pa.array(od >= cutoff_i))
        return pa.table(
            {"c": pc.unique(recent["o_custkey"].combine_chunks())}
        )

    havers = (
        _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])
        .map_batches(has_orders_partial, batch_format="pyarrow",
                     batch_size=65536)
        .to_pandas()["c"]
        .unique()
    )
    havers_ref = ray.put(np.sort(havers))

    def nation_partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "c_nationkey": pa.array([], pa.int64()),
                "n_custs": pa.array([], pa.int64()),
                "bal_cents": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        hv = ray.get(havers_ref)
        bal = t["c_acctbal"].to_numpy().astype(np.float64)
        cents = np.floor(bal * 100.0 + 0.5).astype(np.int64)
        ck = t["c_custkey"].to_numpy()
        pos = np.clip(np.searchsorted(hv, ck), 0, max(len(hv) - 1, 0))
        no_orders = (
            np.ones(len(ck), bool) if len(hv) == 0 else hv[pos] != ck
        )
        keep = (cents > threshold) & no_orders
        if not keep.any():
            return empty
        agg = pa.table(
            {
                "c_nationkey": pa.array(
                    t["c_nationkey"].to_numpy().astype(np.int64)[keep],
                    pa.int64(),
                ),
                "n_custs": pa.array(
                    np.ones(int(keep.sum()), np.int64), pa.int64()
                ),
                "bal_cents": pa.array(cents[keep], pa.int64()),
            }
        ).group_by("c_nationkey").aggregate(
            [("n_custs", "sum"), ("bal_cents", "sum")]
        )
        return agg.rename_columns(["c_nationkey", "n_custs", "bal_cents"])

    sums = bounded_key_sum(
        _read(
            sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"]
        ).map_batches(nation_partial, batch_format="pyarrow",
                      batch_size=65536),
        keys=["c_nationkey"], sum_cols=["n_custs", "bal_cents"],
    ).to_pandas()

    import pandas as pd2
    import pyarrow.parquet as pq2

    if len(sums) == 0 or "c_nationkey" not in sums.columns:
        return pd2.DataFrame(
            {
                "n_name": pd2.Series(dtype="object"),
                "n_custs": pd2.Series(dtype="int64"),
                "total_acctbal": pd2.Series(dtype="float64"),
            }
        )
    nt = pq2.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    sums = sums.merge(
        nt[["n_nationkey", "n_name"]],
        left_on="c_nationkey", right_on="n_nationkey",
    )
    sums["total_acctbal"] = sums["bal_cents"].astype("float64") / 100.0
    sums = sums.sort_values("n_name", kind="mergesort").reset_index(
        drop=True
    )
    return sums[["n_name", "n_custs", "total_acctbal"]]


def q22_oracle_sql(cutoff: str = "2000-06-01") -> str:
    return f"""
        WITH cents AS (
            SELECT c_custkey, c_nationkey,
                   CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT) AS bal
            FROM customer
        ),
        thr AS (
            SELECT CAST(SUM(bal) // COUNT(*) AS BIGINT) AS t
            FROM cents WHERE bal > 0
        )
        SELECT n.n_name, COUNT(*) AS n_custs,
               CAST(SUM(c.bal) AS BIGINT) / 100.0 AS total_acctbal
        FROM cents c
        JOIN nation n ON n.n_nationkey = c.c_nationkey
        WHERE c.bal > (SELECT t FROM thr)
          AND NOT EXISTS (
              SELECT 1 FROM orders o
              WHERE o.o_custkey = c.c_custkey
                AND o.o_orderdate >= TIMESTAMP '{cutoff}'
          )
        GROUP BY n.n_name
    """


def q9_product_type_profit(sf_dir: str, ptype: str = "ECONOMY"):
    """TPC-H Q9 shape (product-type profit, adapted — this schema has
    no partsupp, so profit is discounted revenue): revenue of lineitems
    whose part is of ``ptype``, grouped by the SUPPLIER's nation and
    order year. The 4-table star with a selective dimension filter.

    Scale shape: q5/q7 idiom — part pre-filters to the type and ships
    as a sorted key array, supplier ships as (suppkey -> nationkey),
    orders as (orderkey -> orderdate-year); one fused pass over pruned
    lineitem columns resolves all three locally and emits per-batch
    cents partials over the bounded |nations| × |years| key space."""
    import pyarrow.parquet as pq
    import ray

    from autoner_ray.stages.combine import bounded_key_sum

    pt = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"]
    )
    mask = np.asarray(
        pt["p_type"].to_numpy(zero_copy_only=False)
    ) == ptype
    pkeys = np.sort(pt["p_partkey"].to_numpy()[mask])

    st = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    skeys, snat = _sorted_lookup(st, "s_suppkey", ["s_nationkey"])

    ot = pq.read_table(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderdate"]
    )
    oyears = (
        ot["o_orderdate"].cast(pa.timestamp("us")).cast(pa.int64())
        .to_numpy().astype("M8[us]").astype("M8[Y]").astype(np.int64)
        + 1970
    )
    okeys = ot["o_orderkey"].to_numpy()
    oix = np.argsort(okeys, kind="stable")
    lookup_ref = ray.put(
        (pkeys, skeys, snat, okeys[oix], oyears[oix])
    )

    def partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "s_nationkey": pa.array([], pa.int64()),
                "o_year": pa.array([], pa.int64()),
                "cents": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        pk, sk, sn, ok, oy = ray.get(lookup_ref)
        _, phit = _probe_sorted(pk, t["l_partkey"].to_numpy())
        if not phit.any():
            return empty
        spos, shit = _probe_sorted(sk, t["l_suppkey"].to_numpy())
        opos, ohit = _probe_sorted(ok, t["l_orderkey"].to_numpy())
        keep = phit & shit & ohit
        if not keep.any():
            return empty
        cents = _rev_cents(
            t["l_extendedprice"].combine_chunks(),
            t["l_discount"].combine_chunks(),
        ).to_numpy()[keep]
        agg = pa.table(
            {
                "s_nationkey": pa.array(
                    sn[spos[keep]].astype(np.int64), pa.int64()
                ),
                "o_year": pa.array(oy[opos[keep]], pa.int64()),
                "cents": pa.array(cents, pa.int64()),
            }
        ).group_by(["s_nationkey", "o_year"]).aggregate(
            [("cents", "sum")]
        )
        return agg.rename_columns(["s_nationkey", "o_year", "cents"])

    sums = bounded_key_sum(
        _read(
            sf_dir, "lineitem",
            ["l_partkey", "l_suppkey", "l_orderkey",
             "l_extendedprice", "l_discount"],
        ).map_batches(partial, batch_format="pyarrow", batch_size=65536),
        keys=["s_nationkey", "o_year"], sum_cols=["cents"],
    ).to_pandas()

    nt = pq.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    sums = sums.merge(
        nt[["n_nationkey", "n_name"]],
        left_on="s_nationkey", right_on="n_nationkey",
    )
    sums["profit"] = sums["cents"].astype("float64") / 100.0
    sums = sums.sort_values(
        ["n_name", "o_year"], kind="mergesort"
    ).reset_index(drop=True)
    return sums[["n_name", "o_year", "profit"]]


def q9_oracle_sql(ptype: str = "ECONOMY") -> str:
    cents = (
        "CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 100 + 0.5)"
        " AS BIGINT)"
    )
    return f"""
        SELECT n.n_name,
               CAST(EXTRACT(year FROM o.o_orderdate) AS BIGINT)
                   AS o_year,
               SUM({cents}) / 100.0 AS profit
        FROM lineitem l
        JOIN part p ON p.p_partkey = l.l_partkey
        JOIN supplier s ON s.s_suppkey = l.l_suppkey
        JOIN orders o ON o.o_orderkey = l.l_orderkey
        JOIN nation n ON n.n_nationkey = s.s_nationkey
        WHERE p.p_type = '{ptype}'
        GROUP BY 1, 2
    """


def orders_cohort_ltv(sf_dir: str):
    """Cohort lifetime-value matrix: customers grouped by FIRST-order
    month (the acquisition cohort), order revenue accumulated by months
    elapsed since that first order — the retention-revenue triangle
    every growth dashboard draws, here over order totals in exact
    cents.

    Scale shape: pass 1 streams orders into per-batch (custkey,
    min-date) arrow partials -> hash-partitioned groupby-min (customer
    keys are unbounded, so the combine is key-distributed, never
    driver-sized); the resulting cohort table (one row per customer,
    ≪ fact volume) broadcasts once as sorted arrays; pass 2 re-streams
    orders, resolves each row's cohort + month-age locally and emits
    cents partials over the bounded |cohorts| × |ages| key space."""
    import pyarrow.parquet as pq
    import ray

    from autoner_ray.stages.combine import (
        bounded_key_sum,
        keyed_combine,
    )

    def first_partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "o_custkey": pa.array([], pa.int64()),
                "first_us": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        od = t["o_orderdate"].cast(pa.timestamp("us")).cast(pa.int64())
        agg = pa.table(
            {"o_custkey": t["o_custkey"], "first_us": od}
        ).group_by("o_custkey").aggregate([("first_us", "min")])
        return agg.rename_columns(["o_custkey", "first_us"])

    firsts = keyed_combine(
        _read(sf_dir, "orders", ["o_custkey", "o_orderdate"]).map_batches(
            first_partial, batch_format="pyarrow", batch_size=65536
        ),
        keys=["o_custkey"], aggs=[("first_us", "min")],
    ).to_pandas()

    ck = firsts["o_custkey"].to_numpy()
    ix = np.argsort(ck, kind="stable")
    first_m = (
        firsts["first_us"].to_numpy().astype("M8[us]").astype("M8[M]")
        .astype(np.int64)
    )  # months since 1970
    lookup_ref = ray.put((ck[ix], first_m[ix]))

    def ltv_partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "cohort_month": pa.array([], pa.int64()),
                "age_months": pa.array([], pa.int64()),
                "n_orders": pa.array([], pa.int64()),
                "cents": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        keys, fm = ray.get(lookup_ref)
        pos, hit = _probe_sorted(keys, t["o_custkey"].to_numpy())
        om = (
            t["o_orderdate"].cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy().astype("M8[us]").astype("M8[M]").astype(np.int64)
        )
        cohort = fm[pos]
        age = om - cohort
        price = t["o_totalprice"].to_numpy().astype(np.float64)
        cents = np.floor(price * 100.0 + 0.5).astype(np.int64)
        agg = pa.table(
            {
                "cohort_month": pa.array(cohort, pa.int64()),
                "age_months": pa.array(age, pa.int64()),
                "n_orders": pa.array(
                    np.ones(len(age), np.int64), pa.int64()
                ),
                "cents": pa.array(cents, pa.int64()),
            }
        ).group_by(["cohort_month", "age_months"]).aggregate(
            [("n_orders", "sum"), ("cents", "sum")]
        )
        return agg.rename_columns(
            ["cohort_month", "age_months", "n_orders", "cents"]
        )

    sums = bounded_key_sum(
        _read(
            sf_dir, "orders", ["o_custkey", "o_orderdate", "o_totalprice"]
        ).map_batches(ltv_partial, batch_format="pyarrow",
                      batch_size=65536),
        keys=["cohort_month", "age_months"],
        sum_cols=["n_orders", "cents"],
    ).to_pandas()

    sums["revenue"] = sums["cents"].astype("float64") / 100.0
    sums = sums.sort_values(
        ["cohort_month", "age_months"], kind="mergesort"
    ).reset_index(drop=True)
    return sums[["cohort_month", "age_months", "n_orders", "revenue"]]


def cohort_ltv_oracle_sql() -> str:
    # months-since-epoch via (year-1970)*12 + (month-1): DuckDB's
    # date_diff('month', ...) counts month BOUNDARIES crossed, which is
    # the same thing for month-floored inputs
    # outer parens are load-bearing: the expression is spliced into
    # "{om} - {fm}" and must subtract as a unit
    month = (
        "((CAST(EXTRACT(year FROM {c}) AS BIGINT) - 1970) * 12"
        " + CAST(EXTRACT(month FROM {c}) AS BIGINT) - 1)"
    )
    om = month.format(c="o.o_orderdate")
    fm = month.format(c="f.first_date")
    return f"""
        WITH f AS (
            SELECT o_custkey, MIN(o_orderdate) AS first_date
            FROM orders GROUP BY 1
        )
        SELECT {fm} AS cohort_month,
               {om} - {fm} AS age_months,
               COUNT(*) AS n_orders,
               SUM(CAST(floor(o.o_totalprice * 100 + 0.5) AS BIGINT))
                   / 100.0 AS revenue
        FROM orders o JOIN f ON f.o_custkey = o.o_custkey
        GROUP BY 1, 2
    """


def q16_supplier_count_by_part_attrs(
    sf_dir: str,
    excl_brand: str = "Brand#13",
    excl_type: str = "PROMO",
):
    """TPC-H Q16 shape (suppliers who can supply a part class, adapted
    — this schema has no partsupp, so lineitem is the part↔supplier
    bridge): COUNT(DISTINCT supplier) per (brand, type, size) over
    parts excluding one brand and one type.

    Scale shape: part pre-filters the exclusions and broadcasts as
    (sorted partkey -> packed attr-group id); one pass over two
    lineitem columns packs (group, suppkey) into int64 and
    per-batch-uniques it; a supplier-partitioned distinct makes pairs
    globally unique (pair counts are unbounded — never driver-sized);
    the final count per group flows through the bounded combine
    (|brand|×|type|×|size| ≤ ~10^4 by construction)."""
    import pandas as pd
    import pyarrow.parquet as pq
    import ray

    from autoner_ray.stages.combine import (
        bounded_key_sum,
        keyed_combine,
    )

    pt = pq.read_table(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_brand", "p_type", "p_size"],
    ).to_pandas()
    pt = pt[(pt["p_brand"] != excl_brand) & (pt["p_type"] != excl_type)]
    b_codes, b_uniq = pd.factorize(pt["p_brand"], sort=True)
    t_codes, t_uniq = pd.factorize(pt["p_type"], sort=True)
    sizes = pt["p_size"].to_numpy(np.int64)
    # sizes are small positive ints; 2^16 headroom keeps the pack exact
    gid = (
        (b_codes.astype(np.int64) * len(t_uniq) + t_codes) << 16
    ) | sizes
    keys = pt["p_partkey"].to_numpy(np.int64)
    ix = np.argsort(keys, kind="stable")
    lookup_ref = ray.put((keys[ix], gid[ix]))

    def pair_partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "gid": pa.array([], pa.int64()),
                "supp": pa.array([], pa.int64()),
                "one": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        pk, pg = ray.get(lookup_ref)
        pos, hit = _probe_sorted(pk, t["l_partkey"].to_numpy())
        if not hit.any():
            return empty
        g = pg[pos[hit]]
        supp = t["l_suppkey"].to_numpy()[hit].astype(np.int64)
        packed = np.unique((g.astype(np.uint64) << np.uint64(32))
                           | supp.astype(np.uint64))
        return pa.table(
            {
                "gid": pa.array(
                    (packed >> np.uint64(32)).astype(np.int64),
                    pa.int64(),
                ),
                "supp": pa.array(
                    (packed & np.uint64(0xFFFFFFFF)).astype(np.int64),
                    pa.int64(),
                ),
                "one": pa.array(np.ones(len(packed), np.int64)),
            }
        )

    distinct_pairs = keyed_combine(
        _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"]).map_batches(
            pair_partial, batch_format="pyarrow", batch_size=65536
        ),
        keys=["gid", "supp"], aggs=[("one", "max")], part_on=("supp",),
    )

    def count_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0 or "gid" not in (
            t.column_names
        ):
            return pa.table(
                {
                    "gid": pa.array([], pa.int64()),
                    "supplier_cnt": pa.array([], pa.int64()),
                }
            )
        vals, counts = np.unique(
            t["gid"].to_numpy(), return_counts=True
        )
        return pa.table(
            {
                "gid": pa.array(vals, pa.int64()),
                "supplier_cnt": pa.array(
                    counts.astype(np.int64), pa.int64()
                ),
            }
        )

    out = bounded_key_sum(
        distinct_pairs.map_batches(
            count_partial, batch_format="pyarrow", batch_size=None
        ),
        keys=["gid"], sum_cols=["supplier_cnt"],
    ).to_pandas()

    g = out["gid"].to_numpy(np.int64)
    bt = g >> 16
    out["p_brand"] = b_uniq[(bt // len(t_uniq)).astype(np.int64)]
    out["p_type"] = t_uniq[(bt % len(t_uniq)).astype(np.int64)]
    out["p_size"] = (g & 0xFFFF).astype(np.int64)
    out = out.sort_values(
        ["p_brand", "p_type", "p_size"], kind="mergesort"
    ).reset_index(drop=True)
    return out[["p_brand", "p_type", "p_size", "supplier_cnt"]]


def q16_oracle_sql(excl_brand: str = "Brand#13",
                   excl_type: str = "PROMO") -> str:
    return f"""
        SELECT p.p_brand, p.p_type, CAST(p.p_size AS BIGINT) AS p_size,
               COUNT(DISTINCT l.l_suppkey) AS supplier_cnt
        FROM lineitem l
        JOIN part p ON p.p_partkey = l.l_partkey
        WHERE p.p_brand <> '{excl_brand}' AND p.p_type <> '{excl_type}'
        GROUP BY 1, 2, 3
    """


def q12_priority_shipping_lag(sf_dir: str,
                              broadcast_max_rows: int = 5_000_000):
    """TPC-H Q12 shape adapted to this schema (no ``l_shipmode``
    column): per shipping-LAG band — floor(days between o_orderdate and
    l_shipdate / 180), clamped to [-4, 4] — how many lineitems belong
    to critical orders (``o_orderpriority`` 1-URGENT / 2-HIGH) vs the
    rest. The late-shipment-by-priority operational report
    (ref: TPC-H Q12's high_line_count/low_line_count split).

    Scale shape: same TIERED orderkey resolution as
    ``order_ship_delay_hist`` — sorted (orderkey -> orderdate,
    is_high) broadcast under ``broadcast_max_rows``, large-large
    cogroup join above; bands are 9 values, so the tail is the
    shuffle-free bounded combine.
    """
    import numpy as np
    import pyarrow.parquet as pq
    import ray

    from autoner_ray.stages.combine import bounded_key_sum

    US_PER_DAY = 86_400_000_000
    line = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    _schema = pa.schema(
        [
            ("lag_band", pa.int64()),
            ("high_lines", pa.int64()),
            ("low_lines", pa.int64()),
        ]
    )

    def band_agg(lag_days: "np.ndarray", is_high: "np.ndarray") -> pa.Table:
        band = np.clip(np.floor_divide(lag_days, 180), -4, 4)
        t = pa.table(
            {
                "lag_band": pa.array(band, pa.int64()),
                "high_lines": pa.array(
                    is_high.astype(np.int64), pa.int64()
                ),
                "low_lines": pa.array(
                    (~is_high).astype(np.int64), pa.int64()
                ),
            }
        )
        agg = t.group_by("lag_band").aggregate(
            [("high_lines", "sum"), ("low_lines", "sum")]
        )
        return agg.rename_columns(["lag_band", "high_lines", "low_lines"])

    n_orders = pq.read_metadata(f"{sf_dir}/orders.parquet").num_rows
    if n_orders <= broadcast_max_rows:
        ot = pq.read_table(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
        )
        okeys = ot["o_orderkey"].to_numpy()
        ix = np.argsort(okeys, kind="stable")
        odays = (
            ot["o_orderdate"].cast(pa.int64()).to_numpy() // US_PER_DAY
        )[ix]
        prio = ot["o_orderpriority"].to_numpy(zero_copy_only=False)[ix]
        high = np.isin(prio, np.array(["1-URGENT", "2-HIGH"]))
        lookup_ref = ray.put((okeys[ix], odays, high))

        def lag_partial(t: pa.Table) -> pa.Table:
            keys, days, hi = ray.get(lookup_ref)
            if len(keys) == 0 or len(t) == 0:
                return _schema.empty_table()
            lkeys = t["l_orderkey"].to_numpy(zero_copy_only=False)
            pos = np.clip(np.searchsorted(keys, lkeys), 0, len(keys) - 1)
            hit = keys[pos] == lkeys  # inner-join semantics
            ship = (
                t["l_shipdate"].combine_chunks().cast(pa.int64())
                .to_numpy() // US_PER_DAY
            )
            return band_agg((ship - days[pos])[hit], hi[pos][hit])

        partials = line.map_batches(
            lag_partial, batch_format="pyarrow", batch_size=65536
        )
    else:
        from autoner_ray.stages.joins import cogroup_join

        orders = _read(
            sf_dir, "orders",
            ["o_orderkey", "o_orderdate", "o_orderpriority"],
        ).map_batches(
            lambda t: pa.table(
                {
                    "l_orderkey": t["o_orderkey"],
                    "o_orderdate": t["o_orderdate"],
                    "o_orderpriority": t["o_orderpriority"],
                }
            ),
            batch_format="pyarrow",
        )
        joined = cogroup_join(line, orders, on=("l_orderkey",))

        def lag_partial(t: pa.Table) -> pa.Table:
            if t.num_columns == 0 or len(t) == 0:
                return _schema.empty_table()
            ship = (
                t["l_shipdate"].combine_chunks().cast(pa.int64())
                .to_numpy() // US_PER_DAY
            )
            odays = (
                t["o_orderdate"].combine_chunks().cast(pa.int64())
                .to_numpy() // US_PER_DAY
            )
            hi = np.isin(
                t["o_orderpriority"].to_numpy(zero_copy_only=False),
                np.array(["1-URGENT", "2-HIGH"]),
            )
            return band_agg(ship - odays, hi)

        partials = joined.map_batches(lag_partial, batch_format="pyarrow")

    return bounded_key_sum(partials, ["lag_band"],
                           ["high_lines", "low_lines"])


def q13_customer_distribution(sf_dir: str, status_excl: str = "F"):
    """TPC-H Q13 shape (customer distribution): histogram of customers
    by their order count, INCLUDING zero-order customers (the left
    outer join the spec demands), counting only orders outside one
    status class (this schema has no ``o_comment``, so the spec's
    NOT LIKE comment filter is adapted to ``o_orderstatus <>
    status_excl`` — same filtered-left-join shape,
    ref dbgen queries/13.sql).

    Scale shape: no customer-side shuffle at all. Orders stream to
    per-batch (custkey, n) partials -> custkey-partitioned sum
    (exactly one row per ordering customer, never driver-sized) ->
    per-partition histogram over the bounded c_count key -> shuffle-
    free bounded combine. The zero bucket is arithmetic: |customer|
    (parquet metadata, no scan) minus the ordering-customer count
    carried through the same combine."""
    import pandas as pd
    import pyarrow.parquet as pq

    from autoner_ray.stages.combine import (
        bounded_key_sum,
        partitioned_key_sum,
    )

    def order_partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "o_custkey": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        keep = pa.compute.not_equal(
            t["o_orderstatus"].combine_chunks(), status_excl
        )
        agg = (
            t.filter(keep)
            .select(["o_custkey"])
            .group_by("o_custkey")
            .aggregate([([], "count_all")])
        )
        return agg.rename_columns(["o_custkey", "n"])

    per_cust = partitioned_key_sum(
        _read(sf_dir, "orders", ["o_custkey", "o_orderstatus"])
        .map_batches(order_partial, batch_format="pyarrow",
                     batch_size=65536),
        keys=["o_custkey"], sum_cols=["n"], part_on=("o_custkey",),
    )

    def hist_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "c_count": pa.array([], pa.int64()),
                    "custdist": pa.array([], pa.int64()),
                }
            )
        agg = t.select(["n"]).group_by("n").aggregate([([], "count_all")])
        return agg.rename_columns(["c_count", "custdist"])

    hist = bounded_key_sum(
        per_cust.map_batches(hist_partial, batch_format="pyarrow"),
        keys=["c_count"], sum_cols=["custdist"],
    ).to_pandas()

    n_cust = pq.read_metadata(f"{sf_dir}/customer.parquet").num_rows
    zero = n_cust - int(hist["custdist"].sum()) if len(hist) else n_cust
    if zero > 0:
        hist = pd.concat(
            [hist, pd.DataFrame({"c_count": [0], "custdist": [zero]})],
            ignore_index=True,
        )
    hist = hist.astype({"c_count": "int64", "custdist": "int64"})
    return hist.sort_values(
        ["custdist", "c_count"], ascending=[False, False],
        kind="mergesort",
    ).reset_index(drop=True)


def q13_oracle_sql(status_excl: str = "F") -> str:
    return f"""
        WITH per AS (
            SELECT c.c_custkey, COUNT(o.o_orderkey) AS c_count
            FROM customer c LEFT JOIN orders o
              ON c.c_custkey = o.o_custkey
             AND o.o_orderstatus <> '{status_excl}'
            GROUP BY 1
        )
        SELECT c_count, COUNT(*) AS custdist
        FROM per GROUP BY 1
        ORDER BY custdist DESC, c_count DESC
    """


def q21_suppliers_waiting(sf_dir: str, late_days: int = 60,
                          broadcast_max_rows: int = 5_000_000):
    """TPC-H Q21 shape (suppliers who kept orders waiting): for each
    finalized multi-supplier order, credit the supplier who was the
    ONLY late shipper — the EXISTS + NOT EXISTS dual semi/anti join.
    This schema has no ``l_commitdate``/``l_receiptdate``, so "late"
    is adapted to ``l_shipdate > o_orderdate + late_days`` (same
    per-order only-offender semantics, ref dbgen queries/21.sql).

    Scale shape: TIERED orderkey resolution (sorted orderdate
    broadcast under ``broadcast_max_rows``, large-large cogroup join
    above) -> per-batch (orderkey, suppkey, late) max-partials ->
    orderkey-partitioned max (one row per order-supplier pair, all
    pairs of an order co-located) -> per-partition vectorized
    only-offender filter -> shuffle-free bounded supplier combine ->
    name join on the tiny result."""
    import pandas as pd
    import pyarrow.parquet as pq
    import ray

    from autoner_ray.stages.combine import (
        bounded_key_sum,
        keyed_combine,
    )

    US_PER_DAY = 86_400_000_000
    late_us = late_days * US_PER_DAY
    line = _read(sf_dir, "lineitem",
                 ["l_orderkey", "l_suppkey", "l_shipdate"])

    def _pair_empty() -> pa.Table:
        return pa.table(
            {
                "l_orderkey": pa.array([], pa.int64()),
                "l_suppkey": pa.array([], pa.int64()),
                "late": pa.array([], pa.int64()),
            }
        )

    n_orders = pq.read_metadata(f"{sf_dir}/orders.parquet").num_rows
    if n_orders <= broadcast_max_rows:
        ot = pq.read_table(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderkey", "o_orderdate", "o_orderstatus"],
        )
        st = np.asarray(
            ot["o_orderstatus"].to_numpy(zero_copy_only=False)
        )
        ot = ot.filter(pa.array(st == "F"))
        okeys, odate = _sorted_lookup(
            ot.set_column(
                1, "o_orderdate",
                ot["o_orderdate"].cast(pa.timestamp("us")).cast(
                    pa.int64()
                ),
            ),
            "o_orderkey", ["o_orderdate"],
        )
        lookup_ref = ray.put((okeys, odate))

        def pair_partial(t: pa.Table) -> pa.Table:
            if t.num_columns == 0 or len(t) == 0:
                return _pair_empty()
            keys, dates = ray.get(lookup_ref)
            pos, hit = _probe_sorted(keys, t["l_orderkey"].to_numpy())
            if not hit.any():
                return _pair_empty()
            ship = (
                t["l_shipdate"].combine_chunks().cast(pa.int64())
                .to_numpy()
            )
            late = (ship > dates[pos] + late_us).astype(np.int64)
            agg = pa.table(
                {
                    "l_orderkey": pa.array(
                        t["l_orderkey"].to_numpy()[hit], pa.int64()
                    ),
                    "l_suppkey": pa.array(
                        t["l_suppkey"].to_numpy()[hit], pa.int64()
                    ),
                    "late": pa.array(late[hit], pa.int64()),
                }
            ).group_by(["l_orderkey", "l_suppkey"]).aggregate(
                [("late", "max")]
            )
            return agg.rename_columns(
                ["l_orderkey", "l_suppkey", "late"]
            )

        pair_stream = line.map_batches(
            pair_partial, batch_format="pyarrow", batch_size=65536
        )
    else:
        from autoner_ray.stages.joins import cogroup_join

        orders = _read(
            sf_dir, "orders",
            ["o_orderkey", "o_orderdate", "o_orderstatus"],
        ).map_batches(
            lambda t: t.filter(
                pa.compute.equal(
                    t["o_orderstatus"].combine_chunks(), "F"
                )
            ).select(["o_orderkey", "o_orderdate"]).rename_columns(
                ["l_orderkey", "o_orderdate"]
            ),
            batch_format="pyarrow",
        )
        joined = cogroup_join(line, orders, on=("l_orderkey",))

        def pair_partial(t: pa.Table) -> pa.Table:
            if t.num_columns == 0 or len(t) == 0:
                return _pair_empty()
            ship = (
                t["l_shipdate"].combine_chunks().cast(pa.int64())
                .to_numpy()
            )
            od = (
                t["o_orderdate"].combine_chunks()
                .cast(pa.timestamp("us")).cast(pa.int64()).to_numpy()
            )
            agg = pa.table(
                {
                    "l_orderkey": t["l_orderkey"],
                    "l_suppkey": t["l_suppkey"],
                    "late": pa.array(
                        (ship > od + late_us).astype(np.int64),
                        pa.int64(),
                    ),
                }
            ).group_by(["l_orderkey", "l_suppkey"]).aggregate(
                [("late", "max")]
            )
            return agg.rename_columns(
                ["l_orderkey", "l_suppkey", "late"]
            )

        pair_stream = joined.map_batches(
            pair_partial, batch_format="pyarrow"
        )

    pairs = keyed_combine(
        pair_stream, keys=["l_orderkey", "l_suppkey"],
        aggs=[("late", "max")], part_on=("l_orderkey",),
    )

    def offender_partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "l_suppkey": pa.array([], pa.int64()),
                "numwait": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        df = t.to_pandas()
        g = df.groupby("l_orderkey")["late"]
        only = (
            (df["late"] == 1)
            & (g.transform("size") >= 2)
            & (g.transform("sum") == 1)
        )
        if not only.any():
            return empty
        out = (
            df.loc[only]
            .groupby("l_suppkey", as_index=False)
            .size()
            .rename(columns={"size": "numwait"})
        )
        return pa.table(
            {
                "l_suppkey": pa.array(
                    out["l_suppkey"].to_numpy(), pa.int64()
                ),
                "numwait": pa.array(
                    out["numwait"].to_numpy(), pa.int64()
                ),
            }
        )

    import pandas as pd

    counts = bounded_key_sum(
        pairs.map_batches(
            offender_partial, batch_format="pyarrow", batch_size=None
        ),
        keys=["l_suppkey"], sum_cols=["numwait"],
    ).to_pandas()
    if len(counts) == 0:
        return pd.DataFrame(
            {
                "s_name": pd.Series(dtype="object"),
                "numwait": pd.Series(dtype="int64"),
            }
        )
    st = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    ).to_pandas()
    out = counts.merge(
        st, left_on="l_suppkey", right_on="s_suppkey", how="inner"
    )
    out = out.sort_values(
        ["numwait", "s_name"], ascending=[False, True], kind="mergesort"
    ).reset_index(drop=True)
    return out[["s_name", "numwait"]].astype({"numwait": "int64"})


def q21_oracle_sql(late_days: int = 60) -> str:
    return f"""
        WITH pair AS (
            SELECT l_orderkey, l_suppkey,
                   MAX(CASE WHEN l_shipdate > o_orderdate
                                 + INTERVAL {late_days} DAY
                            THEN 1 ELSE 0 END) AS late
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            WHERE o_orderstatus = 'F'
            GROUP BY 1, 2
        ), per_order AS (
            SELECT l_orderkey, COUNT(*) AS n_supp, SUM(late) AS n_late
            FROM pair GROUP BY 1
        )
        SELECT s.s_name, COUNT(*) AS numwait
        FROM pair p
        JOIN per_order o USING (l_orderkey)
        JOIN supplier s ON p.l_suppkey = s.s_suppkey
        WHERE p.late = 1 AND o.n_supp >= 2 AND o.n_late = 1
        GROUP BY 1
        ORDER BY numwait DESC, s_name
    """


def _region_suppkeys(sf_dir: str, region: str) -> np.ndarray:
    """Sorted suppkeys of suppliers whose nation sits in ``region``
    (dim-chain resolved driver-side — region × nation × supplier are
    the three broadcast-sized tables at any SF)."""
    import pyarrow.parquet as pq

    rt = pq.read_table(f"{sf_dir}/region.parquet")
    nt = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_regionkey"]
    )
    rkeys = rt["r_regionkey"].to_numpy()[
        np.asarray(rt["r_name"].to_numpy(zero_copy_only=False)) == region
    ]
    nat_keys = nt["n_nationkey"].to_numpy()[
        np.isin(nt["n_regionkey"].to_numpy(), rkeys)
    ]
    st = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    sk = st["s_suppkey"].to_numpy()[
        np.isin(st["s_nationkey"].to_numpy(), nat_keys)
    ]
    return np.sort(sk).astype(np.int64)


def q11_important_parts(sf_dir: str, region: str = "EUROPE",
                        frac_denom: int = 1000):
    """TPC-H Q11 shape (important stock, adapted — no partsupp, so a
    part's "stock value" is its summed net revenue through suppliers of
    one scope; the spec's single-nation scope is widened to a REGION so
    the smallest test SF keeps a non-empty supplier set): parts whose
    value exceeds ``1/frac_denom`` of the scope's total value, the
    GROUP BY + HAVING-scalar-subquery shape of ref dbgen queries/11.sql.

    Scale shape: supplier scope broadcasts as a sorted int array (dim
    chain, driver-side); one lineitem pass emits (partkey, cents)
    per-batch partials; a partkey-partitioned sum makes exactly one row
    per part ACROSS BLOCKS (never driver-sized); the grand total is a
    scalar second pass over that materialized per-part table; the
    HAVING filter is an integer-exact broadcast compare streamed over
    the same blocks. Only the passing fraction (~1/frac_denom of
    |part|) is collected."""
    import pandas as pd
    import ray

    from autoner_ray.stages.combine import partitioned_key_sum

    sk = _region_suppkeys(sf_dir, region)
    sk_ref = ray.put(sk)

    def value_partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "l_partkey": pa.array([], pa.int64()),
                "cents": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        keys = ray.get(sk_ref)
        _, hit = _probe_sorted(keys, t["l_suppkey"].to_numpy())
        if not hit.any():
            return empty
        cents = _rev_cents(
            t["l_extendedprice"].combine_chunks(),
            t["l_discount"].combine_chunks(),
        )
        agg = pa.table(
            {
                "l_partkey": pa.array(
                    t["l_partkey"].to_numpy()[hit], pa.int64()
                ),
                "cents": cents.filter(pa.array(hit)),
            }
        ).group_by("l_partkey").aggregate([("cents", "sum")])
        return agg.rename_columns(["l_partkey", "cents"])

    per_part = partitioned_key_sum(
        _read(sf_dir, "lineitem",
              ["l_partkey", "l_suppkey", "l_extendedprice", "l_discount"])
        .map_batches(value_partial, batch_format="pyarrow",
                     batch_size=65536),
        keys=["l_partkey"], sum_cols=["cents"], part_on=("l_partkey",),
    ).materialize()

    def total_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table({"s": pa.array([], pa.int64())})
        return pa.table(
            {"s": pa.array([int(pc.sum(t["cents"]).as_py() or 0)])}
        )

    total = sum(
        r["s"]
        for r in per_part.map_batches(
            total_partial, batch_format="pyarrow", batch_size=None
        ).take_all()
    )

    def keep(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "l_partkey": pa.array([], pa.int64()),
                    "cents": pa.array([], pa.int64()),
                }
            )
        c = t["cents"].to_numpy()
        # integer-exact HAVING: cents * frac_denom > total  (the SQL
        # twin compares the same int64 product — no float threshold)
        return t.filter(pa.array(c * frac_denom > total))

    out = per_part.map_batches(
        keep, batch_format="pyarrow"
    ).to_pandas()
    if "cents" not in out.columns:
        # a fully-filtered HAVING (no part clears 1/frac_denom of the
        # total — seen at sf0.1) comes back as a schemaless empty
        # frame; restore the contract columns
        out = pd.DataFrame(
            {
                "l_partkey": pd.Series([], dtype=np.int64),
                "cents": pd.Series([], dtype=np.int64),
            }
        )
    out["value"] = out.pop("cents").to_numpy(np.int64) / 100.0
    return out.sort_values(
        ["value", "l_partkey"], ascending=[False, True], kind="mergesort"
    ).reset_index(drop=True)[["l_partkey", "value"]]


def q11_oracle_sql(region: str = "EUROPE", frac_denom: int = 1000) -> str:
    return f"""
        WITH pv AS (
            SELECT l.l_partkey,
                   SUM(CAST(floor(l_extendedprice*(1-l_discount)*100
                                  + 0.5) AS BIGINT)) AS cents
            FROM lineitem l
            JOIN supplier s ON l.l_suppkey = s.s_suppkey
            JOIN nation n ON s.s_nationkey = n.n_nationkey
            JOIN region r ON n.n_regionkey = r.r_regionkey
            WHERE r.r_name = '{region}'
            GROUP BY 1
        )
        SELECT l_partkey, cents / 100.0 AS value
        FROM pv
        WHERE cents * {frac_denom} > (SELECT SUM(cents) FROM pv)
        ORDER BY value DESC, l_partkey
    """


def q20_prominent_suppliers(sf_dir: str, prefix: str = "small",
                            year: int = 1996, share_denom: int = 2):
    """TPC-H Q20 shape (suppliers holding a promotable share of a named
    part class, adapted — no partsupp/availqty, so "holds excess stock"
    becomes "shipped MORE than 1/share_denom of the part's total
    year-``year`` quantity"): the nested semi-join of ref dbgen
    queries/20.sql — supplier qualifies if such a part EXISTS.

    Scale shape: the prefix part set broadcasts as a sorted int array;
    one lineitem pass (year filter + part probe) emits (partkey,
    suppkey, qty) partials; a partkey-partitioned sum co-locates every
    supplier of a part in one block, where a vectorized transform
    computes the per-part total and keeps dominant pairs — no second
    shuffle; the qualifying supplier set (≤ |part prefix| rows) is
    distinct-ed through a supplier-partitioned max and only THEN
    touches the driver for the name join."""
    import pandas as pd
    import pyarrow.parquet as pq
    import ray

    from autoner_ray.stages.combine import (
        keyed_combine,
        partitioned_key_sum,
    )

    pt = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name"]
    )
    names = np.asarray(pt["p_name"].to_numpy(zero_copy_only=False))
    pk = np.sort(
        pt["p_partkey"].to_numpy()[
            np.char.startswith(names.astype(str), prefix)
        ]
    ).astype(np.int64)
    pk_ref = ray.put(pk)

    US_PER_DAY = 86_400_000_000
    lo = np.datetime64(f"{year}-01-01", "us").astype(np.int64)
    hi = np.datetime64(f"{year + 1}-01-01", "us").astype(np.int64)

    def qty_partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "l_partkey": pa.array([], pa.int64()),
                "l_suppkey": pa.array([], pa.int64()),
                "qty": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        ship = (
            t["l_shipdate"].combine_chunks().cast(pa.int64()).to_numpy()
        )
        keep = (ship >= lo) & (ship < hi)
        if not keep.any():
            return empty
        keys = ray.get(pk_ref)
        lp = t["l_partkey"].to_numpy()
        _, hit = _probe_sorted(keys, lp)
        keep &= hit
        if not keep.any():
            return empty
        # quantities are integral doubles; half-up to int64 keeps the
        # share compare integer-exact (SQL twin CASTs the same way)
        qty = np.floor(
            t["l_quantity"].to_numpy(zero_copy_only=False)[keep] + 0.5
        ).astype(np.int64)
        agg = pa.table(
            {
                "l_partkey": pa.array(lp[keep], pa.int64()),
                "l_suppkey": pa.array(
                    t["l_suppkey"].to_numpy()[keep], pa.int64()
                ),
                "qty": pa.array(qty, pa.int64()),
            }
        ).group_by(["l_partkey", "l_suppkey"]).aggregate([("qty", "sum")])
        return agg.rename_columns(["l_partkey", "l_suppkey", "qty"])

    pairs = partitioned_key_sum(
        _read(sf_dir, "lineitem",
              ["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"])
        .map_batches(qty_partial, batch_format="pyarrow",
                     batch_size=65536),
        keys=["l_partkey", "l_suppkey"], sum_cols=["qty"],
        part_on=("l_partkey",),
    )

    def dominant(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "l_suppkey": pa.array([], pa.int64()),
                "one": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        df = t.to_pandas()
        total = df.groupby("l_partkey")["qty"].transform("sum")
        win = df["qty"].to_numpy() * share_denom > total.to_numpy()
        if not win.any():
            return empty
        supp = np.unique(df["l_suppkey"].to_numpy()[win])
        return pa.table(
            {
                "l_suppkey": pa.array(supp, pa.int64()),
                "one": pa.array(np.ones(len(supp), np.int64)),
            }
        )

    supp = keyed_combine(
        pairs.map_batches(dominant, batch_format="pyarrow",
                          batch_size=None),
        keys=["l_suppkey"], aggs=[("one", "max")],
        part_on=("l_suppkey",),
    ).to_pandas()

    st = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"]
    ).to_pandas()
    out = supp.merge(
        st, left_on="l_suppkey", right_on="s_suppkey", how="inner"
    )[["s_name"]]
    return out.sort_values("s_name", kind="mergesort").reset_index(
        drop=True
    )


def q20_oracle_sql(prefix: str = "small", year: int = 1996,
                   share_denom: int = 2) -> str:
    return f"""
        WITH pairq AS (
            SELECT l_partkey, l_suppkey,
                   SUM(CAST(floor(l_quantity + 0.5) AS BIGINT)) AS qty
            FROM lineitem
            JOIN part ON p_partkey = l_partkey
            WHERE p_name LIKE '{prefix}%'
              AND l_shipdate >= DATE '{year}-01-01'
              AND l_shipdate < DATE '{year + 1}-01-01'
            GROUP BY 1, 2
        ), tot AS (
            SELECT l_partkey, SUM(qty) AS total FROM pairq GROUP BY 1
        )
        SELECT DISTINCT s.s_name
        FROM pairq p
        JOIN tot t USING (l_partkey)
        JOIN supplier s ON s.s_suppkey = p.l_suppkey
        WHERE p.qty * {share_denom} > t.total
        ORDER BY s.s_name
    """


def q2_min_cost_supplier(sf_dir: str, region: str = "EUROPE",
                         p_type: str = "SMALL", size_max: int = 25,
                         k: int = 100):
    """TPC-H Q2 shape (min-cost supplier per part, adapted — no
    partsupp/supplycost, so a (part, supplier) pair's "cost" is the
    MINIMUM line price observed for it): for parts of one type and a
    size bound, the suppliers of ``region`` achieving the part's global
    minimum cost — the correlated-MIN-subquery shape of ref dbgen
    queries/2.sql, top-``k`` by account balance.

    Scale shape: both filters broadcast as sorted int arrays (part set
    driver-side from two columns; supplier scope via the dim chain);
    one lineitem pass emits (partkey, suppkey, min-cents) partials; a
    partkey-partitioned MIN co-locates each part's suppliers so the
    argmin filter is one vectorized transform, no second shuffle; only
    the winners (≈ one row per filtered part) reach the driver for the
    dim joins, sort, and top-k."""
    import pandas as pd
    import pyarrow.parquet as pq
    import ray

    from autoner_ray.stages.combine import keyed_combine

    pt = pq.read_table(
        f"{sf_dir}/part.parquet",
        columns=["p_partkey", "p_type", "p_size"],
    )
    pmask = (
        np.asarray(pt["p_type"].to_numpy(zero_copy_only=False)) == p_type
    ) & (pt["p_size"].to_numpy() <= size_max)
    pk = np.sort(pt["p_partkey"].to_numpy()[pmask]).astype(np.int64)
    sk = _region_suppkeys(sf_dir, region)
    lookup_ref = ray.put((pk, sk))

    def cost_partial(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "l_partkey": pa.array([], pa.int64()),
                "l_suppkey": pa.array([], pa.int64()),
                "cents": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        pks, sks = ray.get(lookup_ref)
        _, phit = _probe_sorted(pks, t["l_partkey"].to_numpy())
        _, shit = _probe_sorted(sks, t["l_suppkey"].to_numpy())
        keep = phit & shit
        if not keep.any():
            return empty
        cents = np.floor(
            t["l_extendedprice"].to_numpy(zero_copy_only=False)[keep]
            * 100.0 + 0.5
        ).astype(np.int64)
        agg = pa.table(
            {
                "l_partkey": pa.array(
                    t["l_partkey"].to_numpy()[keep], pa.int64()
                ),
                "l_suppkey": pa.array(
                    t["l_suppkey"].to_numpy()[keep], pa.int64()
                ),
                "cents": pa.array(cents, pa.int64()),
            }
        ).group_by(["l_partkey", "l_suppkey"]).aggregate(
            [("cents", "min")]
        )
        return agg.rename_columns(["l_partkey", "l_suppkey", "cents"])

    costs = keyed_combine(
        _read(sf_dir, "lineitem",
              ["l_partkey", "l_suppkey", "l_extendedprice"])
        .map_batches(cost_partial, batch_format="pyarrow",
                     batch_size=65536),
        keys=["l_partkey", "l_suppkey"], aggs=[("cents", "min")],
        part_on=("l_partkey",),
    )

    def argmin(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "p_partkey": pa.array([], pa.int64()),
                "l_suppkey": pa.array([], pa.int64()),
                "cents": pa.array([], pa.int64()),
            }
        )
        if t.num_columns == 0 or len(t) == 0:
            return empty
        df = t.to_pandas()
        best = df.groupby("l_partkey")["cents"].transform("min")
        win = df["cents"].to_numpy() == best.to_numpy()
        w = df.loc[win]
        return pa.table(
            {
                "p_partkey": pa.array(
                    w["l_partkey"].to_numpy(), pa.int64()
                ),
                "l_suppkey": pa.array(
                    w["l_suppkey"].to_numpy(), pa.int64()
                ),
                "cents": pa.array(w["cents"].to_numpy(), pa.int64()),
            }
        )

    winners = costs.map_batches(
        argmin, batch_format="pyarrow", batch_size=None
    ).to_pandas()
    if len(winners) == 0:
        return pd.DataFrame(
            {
                "s_acctbal": pd.Series(dtype="float64"),
                "s_name": pd.Series(dtype="object"),
                "n_name": pd.Series(dtype="object"),
                "p_partkey": pd.Series(dtype="int64"),
                "min_price": pd.Series(dtype="float64"),
            }
        )

    st = pq.read_table(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_name", "s_nationkey", "s_acctbal"],
    ).to_pandas()
    nt = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()
    out = winners.merge(
        st, left_on="l_suppkey", right_on="s_suppkey"
    ).merge(nt, left_on="s_nationkey", right_on="n_nationkey")
    out["min_price"] = out.pop("cents").to_numpy(np.int64) / 100.0
    out = out.sort_values(
        ["s_acctbal", "n_name", "s_name", "p_partkey"],
        ascending=[False, True, True, True], kind="mergesort",
    ).head(k).reset_index(drop=True)
    return out[["s_acctbal", "s_name", "n_name", "p_partkey",
                "min_price"]]


def q2_oracle_sql(region: str = "EUROPE", p_type: str = "SMALL",
                  size_max: int = 25, k: int = 100) -> str:
    return f"""
        WITH costs AS (
            SELECT l.l_partkey, l.l_suppkey,
                   MIN(CAST(floor(l_extendedprice*100 + 0.5)
                            AS BIGINT)) AS cents
            FROM lineitem l
            JOIN part p ON p.p_partkey = l.l_partkey
            JOIN supplier s ON s.s_suppkey = l.l_suppkey
            JOIN nation n ON n.n_nationkey = s.s_nationkey
            JOIN region r ON r.r_regionkey = n.n_regionkey
            WHERE p.p_type = '{p_type}' AND p.p_size <= {size_max}
              AND r.r_name = '{region}'
            GROUP BY 1, 2
        ), best AS (
            SELECT l_partkey, MIN(cents) AS mc FROM costs GROUP BY 1
        )
        SELECT s.s_acctbal, s.s_name, n.n_name,
               c.l_partkey AS p_partkey, c.cents / 100.0 AS min_price
        FROM costs c
        JOIN best b ON c.l_partkey = b.l_partkey AND c.cents = b.mc
        JOIN supplier s ON s.s_suppkey = c.l_suppkey
        JOIN nation n ON n.n_nationkey = s.s_nationkey
        ORDER BY s.s_acctbal DESC, n.n_name, s.s_name, p_partkey
        LIMIT {k}
    """


def customer_k_anonymity(sf_dir: str):
    """k-anonymity audit over the customer quasi-identifier pair
    (c_nationkey, c_mktsegment) — the privacy census a release
    pipeline runs before publishing a table: for each equivalence-class
    size, how many classes have exactly that size, plus the global k
    (the smallest class) as a separate row with size_class = -1. A
    release is k-anonymous iff every row's QI combination is shared by
    >= k rows; the histogram shows how far the table is from a target
    k and which tail classes need suppression.

    Scale shape: per-batch (nation, segment, n) partials feed the
    bounded combine (QI domain is tiny: 25 nations x 5 segments); the
    histogram tail and global min run on that bounded table."""
    import pyarrow.compute as pc

    from autoner_ray.stages.combine import bounded_key_sum

    _p_schema = pa.schema(
        [("c_nationkey", pa.int64()), ("c_mktsegment", pa.string()),
         ("n", pa.int64())]
    )

    def qi_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return _p_schema.empty_table()
        agg = (
            t.select(["c_nationkey", "c_mktsegment"])
            .group_by(["c_nationkey", "c_mktsegment"])
            .aggregate([("c_nationkey", "count")])
        )
        return agg.rename_columns(
            ["c_nationkey", "c_mktsegment", "n"]
        ).cast(_p_schema)

    classes = bounded_key_sum(
        _read(sf_dir, "customer", ["c_nationkey", "c_mktsegment"])
        .map_batches(qi_partial, batch_format="pyarrow",
                     batch_size=65536),
        keys=["c_nationkey", "c_mktsegment"], sum_cols=["n"],
    ).to_pandas()
    hist = classes.groupby("n").size().reset_index(name="n_classes")
    k = int(classes["n"].min())
    return pa.table(
        {
            "size_class": pa.array(
                [-1] + hist["n"].astype("int64").tolist(), pa.int64()
            ),
            "n_classes": pa.array(
                [k] + hist["n_classes"].astype("int64").tolist(),
                pa.int64(),
            ),
        }
    )


def orders_benford(sf_dir: str):
    """Benford's-law first-digit audit of order totals — the
    data-quality/fraud screen: observed first-digit counts of the
    integer-cents total vs the Benford expectation
    ``ln(1+1/d)/ln(10)``. Output one row per digit 1-9:
    (digit, n_observed, expected_micro, chi2_term_micro) where
    expected_micro floors N·p(d)·1e6 and the chi-square term floors
    ((obs − N·p)² / (N·p))·1e6, both in the twin's exact float op
    order. First digit derives from the STRING image of the cents
    integer, so there is no float-log edge at powers of ten.

    Scale shape: per-batch digit counts ride the bounded 9-key
    combine; the expectation fold is driver arithmetic."""
    import math

    import numpy as np

    import pyarrow.compute as pc

    from autoner_ray.stages.combine import bounded_key_sum

    _d_schema = pa.schema([("digit", pa.int64()), ("n", pa.int64())])

    def digit_partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return _d_schema.empty_table()
        cents = np.floor(
            t["o_totalprice"].to_numpy(zero_copy_only=False) * 100.0
            + 0.5
        ).astype(np.int64)
        first = np.array(
            [int(str(c)[0]) for c in cents], np.int64
        )
        vals, counts = np.unique(first, return_counts=True)
        return pa.table(
            {
                "digit": pa.array(vals, pa.int64()),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            },
            schema=_d_schema,
        )

    obs = bounded_key_sum(
        _read(sf_dir, "orders", ["o_totalprice"]).map_batches(
            digit_partial, batch_format="pyarrow", batch_size=65536
        ),
        keys=["digit"], sum_cols=["n"],
    ).to_pandas().set_index("digit")
    N = int(obs["n"].sum())
    rows = []
    for d in range(1, 10):
        n_d = int(obs["n"].get(d, 0))
        p = math.log(1.0 + 1.0 / d) / math.log(10.0)
        exp_n = N * p
        chi = (n_d - exp_n) * (n_d - exp_n) / exp_n
        rows.append(
            (d, n_d, int(math.floor(exp_n * 1e6 + 0.5)),
             int(math.floor(chi * 1e6 + 0.5)))
        )
    return pa.table(
        {
            "digit": pa.array([r[0] for r in rows], pa.int64()),
            "n_observed": pa.array([r[1] for r in rows], pa.int64()),
            "expected_micro": pa.array(
                [r[2] for r in rows], pa.int64()
            ),
            "chi2_term_micro": pa.array(
                [r[3] for r in rows], pa.int64()
            ),
        }
    )


def q1_incremental_maintenance(sf_dir: str):
    """Incremental view maintenance of the Q1-style pricing aggregate
    under a deterministic base-table delta — the algebra a
    materialized-view refresher runs instead of recomputing:
    DELETE every row with ``l_orderkey % 10 == 0`` and INSERT a
    modified copy (quantity + 1) of every ORIGINAL row with
    ``l_orderkey % 7 == 0``. For the distributive aggregates
    (SUM/COUNT) the maintained view is exactly
    ``agg(base) - agg(deleted) + agg(inserted)``, so the engine folds
    all three into ONE weighted pass over the unchanged base table:
    each row contributes ``[kept] * row + [insert-source] * modified``
    to its (returnflag, linestatus) group, pre-combined per batch,
    bounded-combined globally. The oracle RECOMPUTES over the
    modified view directly — value-hash equality IS the proof that
    the maintenance algebra lands on the recompute.

    Output (l_returnflag, l_linestatus, sum_qty, sum_disc_price,
    n_rows) with the integer-cents discipline."""
    import numpy as np

    from autoner_ray.stages.combine import bounded_key_sum

    _p_schema = pa.schema(
        [("l_returnflag", pa.string()), ("l_linestatus", pa.string()),
         ("sum_qty", pa.int64()), ("cents", pa.int64()),
         ("n_rows", pa.int64())]
    )

    def partial(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return _p_schema.empty_table()
        import pandas as pd

        ok = t["l_orderkey"].to_numpy(zero_copy_only=False)
        qty = t["l_quantity"].to_numpy(zero_copy_only=False)
        cents = np.floor(
            t["l_extendedprice"].to_numpy(zero_copy_only=False)
            * (1.0 - t["l_discount"].to_numpy(zero_copy_only=False))
            * 100 + 0.5
        ).astype(np.int64)
        kept = (ok % 10 != 0).astype(np.int64)
        ins = (ok % 7 == 0).astype(np.int64)
        df = pd.DataFrame(
            {
                "l_returnflag": t["l_returnflag"].to_pylist(),
                "l_linestatus": t["l_linestatus"].to_pylist(),
                # kept copy + modified insert copy (quantity + 1)
                "sum_qty": kept * qty.astype(np.int64)
                + ins * (qty.astype(np.int64) + 1),
                "cents": (kept + ins) * cents,
                "n_rows": kept + ins,
            }
        ).groupby(["l_returnflag", "l_linestatus"], as_index=False).sum()
        return pa.Table.from_pandas(
            df, schema=_p_schema, preserve_index=False
        ).replace_schema_metadata(None)

    agg = bounded_key_sum(
        _read(sf_dir, "lineitem",
              ["l_orderkey", "l_quantity", "l_extendedprice",
               "l_discount", "l_returnflag", "l_linestatus"])
        .map_batches(partial, batch_format="pyarrow", batch_size=65536),
        keys=["l_returnflag", "l_linestatus"],
        sum_cols=["sum_qty", "cents", "n_rows"],
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table(
                {
                    "l_returnflag": pa.array([], pa.string()),
                    "l_linestatus": pa.array([], pa.string()),
                    "sum_qty": pa.array([], pa.int64()),
                    "sum_disc_price": pa.array([], pa.float64()),
                    "n_rows": pa.array([], pa.int64()),
                }
            )
        import pyarrow.compute as pc2

        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "sum_qty": t["sum_qty"],
                "sum_disc_price": pc2.divide(
                    pc2.cast(t["cents"], pa.float64()), 100.0
                ),
                "n_rows": t["n_rows"],
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")
